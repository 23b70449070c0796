"""Smoke tests of the scripts under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ratio_survey_on_paths_and_gnp(capsys):
    load_script("ratio_survey").main(["--families", "paths,gnp", "--n-max", "5", "--seeds", "1"])
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()
            if line.startswith(("path-", "gnp-"))}
    assert set(rows) == {f"path-{n}" for n in range(2, 6)} | {f"gnp-{n}-p0.3-s0" for n in range(2, 6)}
    n, exact, worst = (int(x) for x in rows["path-5"][:3])
    assert (n, exact, worst) == (5, 3, 3)  # P5 meets the 5/8 budget: floor(25/8) = 3


def test_ratio_survey_on_a_registry_family(capsys):
    load_script("ratio_survey").main(["--families", "all_labeled", "--n-max", "4"])
    labels = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("all")]
    assert labels == [f"all{n}-{i}" for n, count in ((2, 1), (3, 4), (4, 41)) for i in range(count)]
