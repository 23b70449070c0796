"""Per-layer tracing from outside the program.

Each traced public function is replaced, in every ``domgame`` module
namespace that holds it by name, by a ``functools.wraps`` wrapper that
records a span: the calls of each span name, its self time (the span's
duration minus the time of its traced child spans), and how often each
span directly calls each other one. ``ResidualState.components`` is
patched on the class. Spans are aggregated as they close rather than kept
one by one, so a traced run's memory does not grow with its length.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span name); the gen_* functions share one span.
SPANS = (
    ("residual", "apply_move", "residual.apply_move"),
    ("residual", "f_decrease", "residual.f_decrease"),
    ("residual", "legal_moves", "residual.legal_moves"),
    ("phases", "potential_decrease", "phases.potential_decrease"),
    ("phases", "F_decrease", "phases.F_decrease"),
    ("phases", "F_value", "phases.F_value"),
    ("phases", "cycle_status", "phases.cycle_status"),
    ("phases", "maybe_advance", "phases.maybe_advance"),
    ("strategy", "dominator_greedy", "strategy.dominator_greedy"),
    ("strategy", "play_game", "strategy.play_game"),
    ("strategy", "staller_worst_case", "strategy.staller_worst_case"),
    ("solver", "solve_game", "solver.solve_game"),
    ("solver", "game_value", "solver.game_value"),
    ("verify", "run_corpus", "verify.run_corpus"),
    ("verify", "verify_bounds", "verify.verify_bounds"),
    ("verify", "verify_transcript", "verify.verify_transcript"),
    ("graph", "gen_path", "graph.generate"),
    ("graph", "gen_cycle", "graph.generate"),
    ("graph", "gen_star", "graph.generate"),
    ("graph", "gen_caterpillar", "graph.generate"),
    ("graph", "gen_random_tree", "graph.generate"),
    ("graph", "gen_gnp_isolate_free", "graph.generate"),
    ("cli", "main", "cli.main"),
)
COMPONENTS_SPAN = "residual.components"
SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span in SPANS)) + (COMPONENTS_SPAN,)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list] = []

    def reset(self) -> None:
        """Zero the counters; the wrappers keep working on the same dicts."""
        self.calls.clear()
        self.self_s.clear()
        self.edges.clear()

    def wrap(self, name: str, fn):
        calls, self_s, edges, stack = self.calls, self.self_s, self.edges, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]  # span name, time of its child spans
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                    edges[parent[0], name] += 1

        return traced

    def install(self, dg) -> None:
        """Patch the program whose modules are the attributes of ``dg``."""
        namespaces = [m for name, m in sys.modules.items()
                      if name == "domgame" or name.startswith("domgame.")]
        for mod_name, fn_name, span in SPANS:
            orig = getattr(getattr(dg, mod_name), fn_name)
            wrapper = self.wrap(span, orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapper)
        cls = dg.residual.ResidualState
        cls.components = self.wrap(COMPONENTS_SPAN, cls.components)

    def span_metrics(self, *names: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in names:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        return out

    def ratios(self, graphs_verified: int) -> dict[str, float]:
        """Work ratios; a ratio whose base is 0 reads 0."""
        calls, edges = self.calls, self.edges

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        greedy, search = "strategy.dominator_greedy", "strategy.staller_worst_case"
        return {
            "strategy.candidates_per_greedy_move":
                ratio(edges.get((greedy, "phases.potential_decrease"), 0), calls.get(greedy, 0)),
            "strategy.apply_moves_per_worst_case_search":
                ratio(edges.get((search, "residual.apply_move"), 0), calls.get(search, 0)),
            "verify.worst_case_searches_per_graph":
                ratio(calls.get(search, 0), graphs_verified),
            "solver.game_value_calls_per_solve":
                ratio(calls.get("solver.game_value", 0), calls.get("solver.solve_game", 0)),
        }
