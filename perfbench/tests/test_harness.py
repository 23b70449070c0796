"""Tiny-size self-test of the benchmark harness; not a tier-1 gate.

    python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    caterpillar_legs,
    cycle_parts,
    path_cycle_gamma_g,
)

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_measure_reports_every_metric(name, trace):
    res = run.measure(name, seed=3, seconds=0, trace=trace, min_items=3, setup_reps=2)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] >= 3
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pools_are_seeded_and_covered_by_references(name):
    w = WORKLOADS[name]
    refs = run.load_reference(name)
    assert len(refs) == len(w.universe())
    for seed in (0, 1, 2**40):
        specs = w.pool_specs(seed)
        assert specs == w.pool_specs(seed)
        assert all(s.key in refs for s in specs)
    assert w.pool_specs(0) != w.pool_specs(1)


def test_closed_form_matches_solver_on_paths_and_cycles():
    dg = run.import_program()
    for n in range(3, 21):
        want = path_cycle_gamma_g(n)
        assert dg.solver.solve_game(dg.graph.gen_path(n)).gamma_g == want
        assert dg.solver.solve_game(dg.graph.gen_cycle(n)).gamma_g == want


def test_generated_shapes():
    for n in (24, 32, 40, 48):
        for inst in range(10):
            parts = cycle_parts(n, inst)
            assert sum(parts) == n and min(parts) >= 4
    for n in range(16, 21):
        legs = caterpillar_legs(n, 5)
        assert len(legs) == n // 3 and n // 3 + sum(legs) == n


def test_tracer_rebinds_every_namespace_and_keeps_attributes():
    dg = run.import_program()
    orig = dg.residual.apply_move
    tracer = Tracer()
    tracer.install(dg)
    assert dg.strategy.dominator_greedy.policy_name == "greedy"
    for mod in (dg.residual, dg.phases, dg.strategy, dg.verify):
        assert mod.apply_move is dg.residual.apply_move is not orig
    g = dg.graph.gen_cycle(8)
    t = dg.strategy.play_game(g, dg.strategy.dominator_greedy,
                              dg.strategy.make_staller_random(0), "D")
    assert all(r.ok for r in dg.verify.verify_transcript(g, t))
    assert tracer.calls["strategy.play_game"] == 1
    assert tracer.calls["residual.components"] > 0
    assert tracer.edges["strategy.dominator_greedy", "phases.potential_decrease"] > 0
    assert all(v >= 0 for v in tracer.self_s.values())


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve_n20",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
