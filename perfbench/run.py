#!/usr/bin/env python3
"""Benchmark of the domgame engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process: a closed loop with one
client and one thread, each item started when the previous one finished,
the corpus runner called with jobs=1. The program is imported from the
checkout's ``src/``; nothing needs to be installed.

With ``--trace 0`` the run reports the end-to-end metrics:

- setup_s: median over SETUP_REPS set-ups of importing domgame afresh,
  generating the workload's inputs from the seed and loading the reference
  digests;
- items_per_s: round size over the median time of a round (one item of
  every stratum) in the timed phase, which lasts --seconds, at least
  MIN_ITEMS items and a whole number of rounds;
- item_ms_p50, item_ms_p90: Harrell-Davis quantiles of the item latencies;
- peak_rss_mb: the peak resident memory of this process after the first
  pass over the run's items;
- ok_frac: the share of attempted items whose output passed every check.

Item and set-up times are wall times scaled to a nominal machine speed by
probes taken around each of them (speed.py); the unscaled figures are
printed above the JSON line.

With ``--trace 1`` the same items run untraced for a third of --seconds,
then traced (layers.py), and the run reports the per-layer metrics.

Every item's output is checked (workloads.py), and ``verify smoke --json``
and ``simulate --json --trace`` are run through ``domgame.cli.main`` outside
the timed phase and compared with their reference digests. The last stdout
line is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from layers import SPAN_NAMES, Tracer
from speed import probe, scaled
from workloads import WORKLOADS, Item, Workload, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
SIMULATE_GRAPH = HERE / "data" / "simulate_graph.txt"

MODULES = ("graph", "residual", "phases", "strategy", "solver", "verify", "cli")
MIN_ITEMS = 100        # at least 10 latencies lie beyond the p90
SETUP_REPS = 5
TRACE_MIN_ITEMS = 10
UNTRACED_SHARE = 1 / 3
TIMED_CAP_S = 75.0     # a timed phase never runs longer, whatever the item count


def import_program() -> SimpleNamespace:
    """Import domgame afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "domgame" or n.startswith("domgame.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("domgame")
    if Path(pkg.__file__).resolve().parent != SRC / "domgame":
        raise ImportError(f"domgame was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"domgame.{m}") for m in MODULES})


def load_reference(name: str) -> dict[str, str]:
    return json.loads((REFERENCE / f"{name}.json").read_text(encoding="utf-8"))["digests"]


def make_items(workload: Workload, dg, seed: int) -> list[Item]:
    return [Item(spec, workload.prepare(dg, spec)) for spec in workload.pool_specs(seed)]


def set_up(workload: Workload, seed: int):
    """One set-up; returns its speed-scaled time and what it built."""
    before = probe()
    t0 = perf_counter()
    dg = import_program()
    items = make_items(workload, dg, seed)
    refs = load_reference(workload.name)
    wall = perf_counter() - t0
    return scaled(wall, before, probe()), dg, items, refs


@dataclass
class Timed:
    latencies: list[float]     # speed-scaled, seconds
    walls: list[float]         # unscaled, seconds
    failed: list[str]          # failed items with their problems
    graphs: int                # corpus graphs verified
    rss_kib: int               # peak RSS, see run_items


def run_items(workload: Workload, dg, items: list[Item], refs: dict[str, str], *,
              seconds: float = 0.0, min_items: int = 0, count: int | None = None):
    """Run items in pool order, cycling, until `count` have run, or else
    until `seconds` have passed, `min_items` have run and the last round of
    strata is complete.

    The peak RSS is read after the first pass over the pool (or at the end
    of a shorter run): later items repeat the pool, and reading it at the
    end would make it depend on how many items the machine's speed allowed.
    """
    latencies: list[float] = []
    walls: list[float] = []
    failed: list[str] = []
    graphs = 0
    round_size = len(workload.strata)
    rss_kib = 0
    start = perf_counter()
    before = probe()
    while True:
        elapsed = perf_counter() - start
        done = len(latencies)
        if done == len(items):
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if elapsed >= TIMED_CAP_S or (count is not None and done >= count):
            break
        if (count is None and elapsed >= seconds and done >= min_items
                and done % round_size == 0):
            break
        item = items[done % len(items)]
        t0 = perf_counter()
        try:
            out = workload.run(dg, item.spec, item.input)
        except Exception as exc:  # an item that raises counts as failed
            out = None
            failed.append(f"{item.spec.key}: raised {exc!r}")
        wall = perf_counter() - t0
        after = probe()
        walls.append(wall)
        latencies.append(scaled(wall, before, after))
        before = after
        if out is None:
            continue
        problems = workload.check(item.spec, item.input, out, refs)
        if problems:
            failed.append(f"{item.spec.key}: {'; '.join(problems)}")
        graphs += workload.graphs_verified(out)
    return Timed(latencies, walls, failed, graphs,
                 rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def cli_outputs(dg) -> dict[str, tuple[int, str, float]]:
    """Run the CLI commands with stdout captured: (exit code, stdout, seconds)."""
    out = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        commands = {
            "verify_smoke": ["verify", "smoke", "--json", "--witness-dir", tmp],
            "simulate_trace": ["simulate", str(SIMULATE_GRAPH), "--json", "--trace"],
        }
        for key, argv in commands.items():
            buf = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf):
                code = dg.cli.main(argv)
            out[key] = (code, buf.getvalue(), perf_counter() - t0)
    return out


def run_cli(dg) -> tuple[float, list[str]]:
    """Run the CLI commands and compare their output with the reference."""
    refs = load_reference("cli")
    failed = []
    outputs = cli_outputs(dg)
    for key, (code, text, _) in outputs.items():
        if code != 0:
            failed.append(f"cli {key}: exit code {code}")
        elif digest(text) != refs[key]:
            failed.append(f"cli {key}: output differs from the reference")
    return sum(dt for _, _, dt in outputs.values()), failed


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density (midpoint
    rule). On a few hundred latencies from strata of different cost it is
    much steadier than the single order statistic nearest to q.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def measure(name: str, seed: int, seconds: float, trace: bool, *,
            min_items: int = MIN_ITEMS, setup_reps: int = SETUP_REPS) -> dict:
    workload = WORKLOADS[name]
    setups = []
    for _ in range(setup_reps if not trace else 1):
        dt, dg, items, refs = set_up(workload, seed)
        setups.append(dt)

    # The CLI check runs before the timed phase; it also warms up the engine.
    _, failed = run_cli(dg)
    attempted = 2
    if not trace:
        timed = run_items(workload, dg, items, refs, seconds=seconds, min_items=min_items)
        lat, size = timed.latencies, len(workload.strata)
        attempted += len(lat)
        failed += timed.failed
        round_s = ([sum(lat[i:i + size]) for i in range(0, len(lat) - size + 1, size)]
                   or [sum(lat) * size / len(lat)])  # no whole round before the cap
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "items_per_s": (size / statistics.median(round_s), "1/s"),
            "item_ms_p50": (1000 * quantile(lat, 0.5), "ms"),
            "item_ms_p90": (1000 * quantile(lat, 0.9), "ms"),
            "peak_rss_mb": (timed.rss_kib / 1024, "MB"),
            "ok_frac": (1 - len(failed) / attempted, "fraction"),
        }
        summary = (f"{len(lat)} timed items in {len(round_s)} rounds, "
                   f"{len(lat) - math.ceil(0.9 * len(lat))} beyond the p90; "
                   f"{len(setups)} set-ups; unscaled: {len(lat) / sum(timed.walls):.4g} items/s, "
                   f"p50 {1000 * statistics.median(timed.walls):.4g} ms; machine at "
                   f"{sum(lat) / sum(timed.walls):.3f}x nominal speed")
    else:
        untraced = run_items(workload, dg, items, refs, seconds=seconds * UNTRACED_SHARE,
                             min_items=min(min_items, TRACE_MIN_ITEMS))
        tracer = Tracer()
        tracer.install(dg)
        items = make_items(workload, dg, seed)
        generate = tracer.span_metrics("graph.generate")
        tracer.reset()
        cli_s, cli_failed = run_cli(dg)
        cli = tracer.span_metrics("cli.main")
        tracer.reset()
        lat0 = untraced.latencies
        traced = run_items(workload, dg, items, refs, count=len(lat0))
        lat1 = traced.latencies
        attempted += len(lat0) + 2 + len(lat1)
        failed += untraced.failed + cli_failed + traced.failed
        layer_spans = [s for s in SPAN_NAMES if s not in ("graph.generate", "cli.main")]
        values = {**tracer.span_metrics(*layer_spans), **generate, **cli,
                  "cli.main.total_s": cli_s, **tracer.ratios(traced.graphs),
                  "trace.overhead_ratio": sum(lat1) / sum(lat0[:len(lat1)])}
        metrics = {k: (v, unit_of(k)) for k, v in values.items()}
        summary = f"{len(lat0)} items untraced, then {len(lat1)} traced"

    for line in failed[:20]:
        print(f"FAILED {line}")
    print(f"{name} seed={seed} trace={int(trace)}: {summary}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def unit_of(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_s"):
        return "s"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "domgame" / "__init__.py").is_file():
        print(f"error: no domgame sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
