"""README's examples run, and its Claims table is the code's.

The pytest cases run README's `## Library` block, run each command of its
`## CLI` block in process through `cli.main` (in a temporary directory,
with myspec.json written from README's corpus spec example), and compare
the Claims table with `domgame.verify.CLAIMS` row for row.

    python tests/test_readme.py

runs the same commands through the installed `domgame` console script
instead, in a temporary directory; it exits 1 if one fails, and 2 with a
hint if no `domgame` command is on PATH. Only the pytest cases import
domgame, so the script needs no PYTHONPATH.
"""

import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """README's `## title` section, its subsections included."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", text, re.M | re.S).group(1)


def code_block(text: str, lang: str) -> str:
    """The first fenced block of language `lang` in text."""
    return re.search(rf"^```{lang}\n(.*?)^```", text, re.M | re.S).group(1)


def cli_commands() -> list[list[str]]:
    """The argument lists of README's CLI block, comments dropped."""
    lines = code_block(section("CLI"), "sh").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


def write_spec(directory) -> None:
    """myspec.json, which the CLI block verifies, from README's spec example."""
    (Path(directory) / "myspec.json").write_text(code_block(section("CLI"), "json"),
                                                 encoding="utf-8")


def claim_rows() -> list[tuple[str, str]]:
    """(id, statement) of each row of README's Claims table; `\\|` in a
    cell stands for `|`."""
    rows = []
    for line in section("Claims").splitlines():
        cells = [c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 2 and cells[0].startswith("`"):
            rows.append((cells[0].strip("`"), cells[1]))
    return rows


def test_claims_table_is_the_code_table():
    from domgame.verify import CLAIM_IDS, CLAIMS

    rows = claim_rows()
    assert [claim for claim, _ in rows] == list(CLAIM_IDS)
    assert rows == list(CLAIMS.items())


def test_library_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(code_block(section("Library"), "python"), str(README), "exec"), {})


def test_cli_block_runs_in_process(tmp_path, monkeypatch, capsys):
    from domgame.cli import main

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DOMGAME_CAP", raising=False)
    write_spec(tmp_path)
    commands = cli_commands()
    assert commands and all(argv[0] == "domgame" for argv in commands)
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()


def run_console_commands() -> int:
    """Run each command of README's CLI block through the `domgame`
    console script on PATH, in a temporary directory holding myspec.json;
    print each command's outcome and return 1 if any fails, else 0.
    Without a `domgame` on PATH it prints how to install one and returns 2."""
    if shutil.which("domgame") is None:
        print("error: no `domgame` command on PATH; install this checkout with "
              "`pip install -e .`", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_spec(tmp)
        for argv in cli_commands():
            run = subprocess.run(argv, cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            print(f"{'ok' if run.returncode == 0 else 'FAILED'} {shlex.join(argv)}", flush=True)
            if run.returncode:
                sys.stderr.write(run.stderr.decode(errors="replace"))
                failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(run_console_commands())
