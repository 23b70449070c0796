"""Byte-for-byte CLI output on fixed inputs.

The expected files under tests/golden/ were written by the same commands
before the residual core switched to local move deltas; any change in
transcripts, snapshots or verifier reports shows up here. The simulate
cases cover a Staller-start game through phases 1, 2 and 4 (tree30), a
phase-3/4 game on a union of cycles (cycles24), a worst-case search
(gnp10) and a game through all four phases on gen_random_tree(1200, 11)
(tree1200), whose snapshot hashes cover ids that gain a digit at 10, 100
and 1000. tree1200 was recorded before the greedy's scores moved into
per-score tables and the snapshot into a byte template, and without
--trace, which would print 4 MB of snapshots. gnp500 is
gen_gnp_isolate_free(500, 0.006, 2) (`domgame gen gnp 500 0.006 --seed 2`),
a G(n, 3/n) game through all four phases (128, 28, 4 and 12 moves); it
was recorded, also without --trace, before phases 1-2 scored their moves
in one f_decreases pass and carried scores outside a white-path ball
rather than outside N^4[v]. cycles475 is the union of C5, C6, ..., C14
taken five times (n = 475), a game of 176 phase-3 and 7 phase-4 moves; it
was recorded, without --trace, before phases 3-4 carried F-scores across
moves and read cycle status off the open witnesses.

GEN_CASES rebuild five golden graphs with `domgame gen` and compare the
file it writes with the golden one, so a generator that moved along its
Philox stream shows up here. gnp10 is gen_gnp_isolate_free(10, 0.35, 2)
(`domgame gen gnp 10 0.35 gnp10.g --seed 2`) and tree30 is
gen_random_tree(30, 0) (`domgame gen tree 30 tree30.g --seed 0`); both
were written with the first golden files, while the G(n, p) sampler still
made one scalar draw per vertex pair.

verify_reports.json holds the verifier's reports, witnesses included, for
games on the golden graphs and for the single-field mutations of
tests/transcript_cases.py; it was recorded by that script before the
transcript claims became one table. Its cycles475 games were added before
the X-cycle status was read off the open witnesses alone: with Dominator
first, the min-decrease and random0 games play 240 and 190 phase-3/4
moves, 50 of each closing an open cycle, and the random0 audit reads the
status of all 50 cycles where phase 4 starts.

verify_search12 runs `domgame verify` on search12.json, one graph each of
trees with n = 11 and 12, G(12, 0.25), G(12, 0.5), a caterpillar with
spine 4 and C12, so the worst-case search runs at its cap of n = 12 on
graphs the smoke corpus (paths, cycles and stars up to n = 10) lacks. It
was recorded before the search tested its cutoff on a child before
playing it.

solve_tree20 runs `domgame solve` on tree20.g, gen_random_tree(20, 7)
(`domgame gen tree 20 tree20.g --seed 7`): gamma_g = gamma_g' = 10 with
first moves 2 and 0. It was recorded while the solver still computed the
exact value of every child, before it ran threshold tests on a table of
bounds.

    python tests/test_golden.py

runs every CASES and GEN_CASES entry through the installed `domgame`
console script instead, in a temporary directory, and compares its output
bytes with the golden file; it exits 1 if one differs or fails, and 2
with a hint if no `domgame` command is on PATH.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from domgame.cli import main
from transcript_cases import REPORTS, dumps, report_cases

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "simulate_tree30": ["simulate", "tree30.g", "--staller", "random", "--seed", "5",
                        "--first", "s", "--json", "--trace"],
    "simulate_cycles24": ["simulate", "cycles24.g", "--staller", "random", "--seed", "3",
                          "--first", "d", "--json", "--trace"],
    "simulate_gnp10": ["simulate", "gnp10.g", "--staller", "worst", "--first", "d",
                       "--json", "--trace"],
    "simulate_tree1200": ["simulate", "tree1200.g", "--staller", "random", "--seed", "4",
                          "--first", "d", "--json"],
    "simulate_gnp500": ["simulate", "gnp500.g", "--staller", "random", "--seed", "2",
                        "--first", "d", "--json"],
    "simulate_cycles475": ["simulate", "cycles475.g", "--staller", "random", "--seed", "5",
                           "--first", "d", "--json"],
    "solve_tree20": ["solve", "tree20.g", "--json"],
    "verify_smoke": ["verify", "smoke", "--json"],
    "verify_search12": ["verify", "search12.json", "--json"],
}

# name -> `domgame gen` arguments that write tests/golden/<name>.g, here
# written to <name>.g in the working directory
GEN_CASES = {
    "gnp10": ["gen", "gnp", "10", "0.35", "gnp10.g", "--seed", "2"],
    "gnp500": ["gen", "gnp", "500", "0.006", "gnp500.g", "--seed", "2"],
    "tree20": ["gen", "tree", "20", "tree20.g", "--seed", "7"],
    "tree30": ["gen", "tree", "30", "tree30.g", "--seed", "0"],
    "tree1200": ["gen", "tree", "1200", "tree1200.g", "--seed", "11"],
}


def case_argv(name):
    """CASES[name] with its input files resolved under tests/golden/."""
    return [str(GOLDEN / a) if a.endswith((".g", ".json")) else a for a in CASES[name]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # a failing verify writes its witnesses here
    assert main(case_argv(name)) == 0
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name", sorted(GEN_CASES))
def test_gen_output_matches_golden(name, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(GEN_CASES[name]) == 0
    assert (tmp_path / f"{name}.g").read_bytes() == (GOLDEN / f"{name}.g").read_bytes()


def test_verify_reports_match_golden():
    assert dumps(report_cases()) == REPORTS.read_text(encoding="utf-8")


def test_console_cases_need_domgame_on_path(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a case ran")

    monkeypatch.setattr(shutil, "which", lambda name: None)
    monkeypatch.setattr(subprocess, "run", unreachable)
    assert run_console_cases() == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: no `domgame` command on PATH; install this checkout "
                            "with `pip install -e .`\n")
    assert captured.out == ""


def run_console_cases() -> int:
    """Run each CASES and GEN_CASES entry through the `domgame` console
    script on PATH and compare its exit code and output bytes (for gen, the
    file it writes) with the golden file; print each case's outcome and
    return 1 if any differs, else 0. Without a `domgame` on PATH it prints
    how to install one and returns 2."""
    if shutil.which("domgame") is None:
        print("error: no `domgame` command on PATH; install this checkout with "
              "`pip install -e .`", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:  # a failing verify writes its witnesses here
        runs = [(name, case_argv(name), f"{name}.json", None) for name in sorted(CASES)]
        runs += [(f"gen_{name}", GEN_CASES[name], f"{name}.g", Path(tmp, f"{name}.g"))
                 for name in sorted(GEN_CASES)]
        for name, argv, golden, written in runs:
            run = subprocess.run(["domgame", *argv], cwd=tmp, capture_output=True)
            if written is None:
                out = run.stdout
            else:
                out = written.read_bytes() if written.exists() else None
            ok = run.returncode == 0 and out == (GOLDEN / golden).read_bytes()
            print(f"{'ok' if ok else 'FAILED'} {name}", flush=True)
            if not ok:
                sys.stderr.write(run.stderr.decode(errors="replace"))
                failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(run_console_cases())
