"""The four workloads: item universes, seeded pools, item runs and checks.

An item is one corpus graph (verify_corpus), one greedy game plus its audit
(greedy_large, cycles_phase3) or one solved graph (solve_n20). Every
workload has a finite universe of items, grouped in strata of (family,
size); an item is one instance of a stratum, and for the game workloads
also a first player. A run's ``--seed`` picks the instances and orders the
items in rounds that hold every stratum once, so runs with different seeds
see different graphs of the same mix of shapes and sizes. A timed phase
ends on a round boundary, so each stratum has the same weight in it; with
15 or 25 strata the p50 and the p90 fall in the middle of a stratum's
block of latencies, not on the step between two. The reference digests in
``reference/`` cover the whole universe.

Only the benchmark draws random numbers with ``random.Random``; the
program gets graphs (or, for verify_corpus, single-graph corpus specs) and
the per-item seeds it takes as arguments.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Spec:
    """One item of a workload's universe."""

    family: str
    size: int        # n, or the spine length for caterpillars in verify_corpus
    inst: int        # instance seed: graph seed and random-Staller seed
    first: str = ""  # "D" or "S" for games, "" otherwise

    @property
    def key(self) -> str:
        base = f"{self.family}-{self.size}-s{self.inst}"
        return f"{base}-{self.first}" if self.first else base


@dataclass(frozen=True)
class Item:
    spec: Spec
    input: Any       # a Graph, or a corpus spec dict for verify_corpus


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def bound_for_start(n: int, first: str) -> int:
    """Game length guaranteed by the greedy strategy: floor(5n/8) with
    Dominator starting, floor((5n+2)/8) with Staller starting."""
    return 5 * n // 8 if first == "D" else (5 * n + 2) // 8


def path_cycle_gamma_g(n: int) -> int:
    """gamma_g(P_n) = gamma_g(C_n) = ceil(n/2) - [n = 3 mod 4] (Kosmrlj)."""
    return (n + 1) // 2 - (1 if n % 4 == 3 else 0)


def _bad_reports(reports) -> list[str]:
    return [f"claim {r.claim} failed: {r.detail}" for r in reports if r.status == "fail"]


class Workload:
    name: str
    strata: tuple[tuple[str, int], ...]
    # A run takes per_run of the `instances` seeds of each random stratum.
    # The universe is kept small enough that runs share most of their
    # graphs, so that the seed moves the figures less than a change would.
    instances: int
    fixed_families: tuple[str, ...] = ()   # one instance only (paths, cycles)
    per_run: int
    starts: tuple[str, ...] = ("",)

    def insts(self, family: str) -> range:
        return range(1) if family in self.fixed_families else range(self.instances)

    def universe(self) -> list[Spec]:
        return [Spec(fam, size, inst, first)
                for fam, size in self.strata
                for inst in self.insts(fam)
                for first in self.starts]

    def pool_specs(self, seed: int) -> list[Spec]:
        """The run's items, in per_run rounds of one item per stratum.

        Every round holds each stratum once, in a seeded order; a random
        stratum gets a different seeded instance in each round, a fixed one
        the same graph. First players alternate along the pool.
        """
        rng = random.Random(seed)
        picks = {}
        for fam, size in self.strata:
            if fam in self.fixed_families:
                picks[fam, size] = [0] * self.per_run
            else:
                picks[fam, size] = rng.sample(range(self.instances), self.per_run)
        out = []
        for j in range(self.per_run):
            order = list(self.strata)
            rng.shuffle(order)
            out.extend((stratum, picks[stratum][j]) for stratum in order)
        starts = self.starts
        return [Spec(fam, size, inst, starts[i % len(starts)])
                for i, ((fam, size), inst) in enumerate(out)]

    def prepare(self, dg, spec: Spec) -> Any:
        """Build the program's input for one item (runs in set-up)."""
        raise NotImplementedError

    def run(self, dg, spec: Spec, inp: Any) -> Any:
        """Run one item through the program (the timed part)."""
        raise NotImplementedError

    def output_text(self, out: Any) -> str:
        """The output whose digest is compared with the reference."""
        raise NotImplementedError

    def problems(self, spec: Spec, inp: Any, out: Any) -> list[str]:
        """Checks that need no reference: answers known without the code
        under test."""
        raise NotImplementedError

    def graphs_verified(self, out: Any) -> int:
        """Corpus graphs the item verified (the base of a trace ratio)."""
        return 0

    def check(self, spec: Spec, inp: Any, out: Any, refs: dict[str, str]) -> list[str]:
        found = self.problems(spec, inp, out)
        want = refs.get(spec.key)
        if want is None:
            found.append(f"no reference digest for {spec.key}")
        elif digest(self.output_text(out)) != want:
            found.append(f"output of {spec.key} differs from the reference")
        return found


class VerifyCorpus(Workload):
    """Single-graph specs through spec_from_json -> run_corpus(jobs=1)."""

    name = "verify_corpus"
    strata = (
        ("trees", 8), ("trees", 9), ("trees", 10), ("trees", 11), ("trees", 12),
        ("gnp25", 10), ("gnp25", 11), ("gnp25", 12),
        ("gnp50", 10), ("gnp50", 11), ("gnp50", 12),
        ("caterpillars", 3), ("caterpillars", 4),
        ("cycles", 10), ("cycles", 12),
    )
    instances = 32
    per_run = 24

    def prepare(self, dg, spec: Spec) -> dict:
        fam, size, seeds = spec.family, spec.size, [spec.inst]
        if fam == "caterpillars":
            entry = {"name": fam, "params": {"spine_min": size, "spine_max": size,
                                             "max_legs": 2}}
        elif fam.startswith("gnp"):
            entry = {"name": "gnp", "params": {"n_min": size, "n_max": size,
                                               "p": int(fam[3:]) / 100}}
        else:
            entry = {"name": fam, "params": {"n_min": size, "n_max": size}}
        return {"families": [dict(entry, seeds=seeds)], "checks": ["all"]}

    def run(self, dg, spec: Spec, inp: dict):
        return dg.verify.run_corpus(dg.verify.spec_from_json(inp), jobs=1)

    def output_text(self, out) -> str:
        return out.to_json()

    def graphs_verified(self, out) -> int:
        return len(out.graphs)

    def problems(self, spec: Spec, inp: dict, out) -> list[str]:
        found = []
        if len(out.graphs) != 1:
            found.append(f"{len(out.graphs)} graphs in a single-graph corpus")
        elif out.graphs[0].n > 12:
            found.append(f"n={out.graphs[0].n} is above the worst-case search cap")
        for gr in out.graphs:
            found.extend(_bad_reports(gr.reports))
        return found


class _GreedyGames(Workload):
    """play_game(greedy, random Staller) plus verify_transcript."""

    def run(self, dg, spec: Spec, g):
        t = dg.strategy.play_game(g, dg.strategy.dominator_greedy,
                                  dg.strategy.make_staller_random(spec.inst), spec.first)
        return t, dg.verify.verify_transcript(g, t)

    def output_text(self, out) -> str:
        return out[0].to_json()

    def problems(self, spec: Spec, g, out) -> list[str]:
        t, reports = out
        found = _bad_reports(reports)
        bound = bound_for_start(g.n, spec.first)
        if t.total_moves > bound:
            found.append(f"game length {t.total_moves} > {bound} with {spec.first} starting")
        return found


class GreedyLarge(_GreedyGames):
    name = "greedy_large"
    strata = (tuple(("tree", n) for n in range(70, 141, 10))
              + tuple(("gnp", n) for n in range(70, 131, 10)))
    instances = 16
    per_run = 10
    starts = ("D", "S")

    def prepare(self, dg, spec: Spec):
        if spec.family == "tree":
            return dg.graph.gen_random_tree(spec.size, spec.inst)
        return dg.graph.gen_gnp_isolate_free(spec.size, 3 / spec.size, spec.inst)


def cycle_parts(n: int, inst: int) -> list[int]:
    """A seeded partition of n into cycle lengths k >= 4, at most 16 each."""
    rng = random.Random(n * 1000 + inst)
    parts = []
    left = n
    while left:
        choices = [k for k in range(4, min(left, 16) + 1) if left - k == 0 or left - k >= 4]
        k = rng.choice(choices)
        parts.append(k)
        left -= k
    return parts


class CyclesPhase3(_GreedyGames):
    """Cycles and disjoint unions of cycles, Dominator starting: the only
    games that reach phase 3."""

    name = "cycles_phase3"
    strata = (tuple(("cycle", n) for n in range(24, 49, 4))
              + tuple(("cycles", n) for n in range(22, 51, 4)))
    instances = 16
    per_run = 10
    starts = ("D",)

    def prepare(self, dg, spec: Spec):
        parts = [spec.size] if spec.family == "cycle" else cycle_parts(spec.size, spec.inst)
        edges, off = [], 0
        for k in parts:
            edges.extend((off + i, off + (i + 1) % k) for i in range(k))
            off += k
        return dg.graph.Graph.from_edges(off, edges)


def caterpillar_legs(n: int, inst: int) -> list[int]:
    """Legs for a caterpillar on exactly n vertices with spine n // 3."""
    rng = random.Random(n * 1000 + inst)
    spine = n // 3
    legs = [0] * spine
    for _ in range(n - spine):
        legs[rng.randrange(spine)] += 1
    return legs


class SolveN20(Workload):
    name = "solve_n20"
    strata = tuple((fam, n) for n in range(16, 21)
                   for fam in ("path", "cycle", "tree", "caterpillar", "gnp"))
    fixed_families = ("path", "cycle")
    instances = 16
    per_run = 8

    def prepare(self, dg, spec: Spec):
        gen, fam, n, inst = dg.graph, spec.family, spec.size, spec.inst
        if fam == "path":
            return gen.gen_path(n)
        if fam == "cycle":
            return gen.gen_cycle(n)
        if fam == "tree":
            return gen.gen_random_tree(n, inst)
        if fam == "caterpillar":
            return gen.gen_caterpillar(n // 3, caterpillar_legs(n, inst))
        return gen.gen_gnp_isolate_free(n, 0.2, inst)

    def run(self, dg, spec: Spec, g):
        return dg.solver.solve_game(g)

    def output_text(self, gv) -> str:
        return json.dumps([gv.gamma_g, gv.gamma_g_prime,
                           gv.optimal_first_move_d, gv.optimal_first_move_s])

    def problems(self, spec: Spec, g, gv) -> list[str]:
        n, found = g.n, []
        if gv.gamma_g > 5 * n // 8:
            found.append(f"gamma_g={gv.gamma_g} > floor(5n/8)")
        if gv.gamma_g_prime > (5 * n + 2) // 8:
            found.append(f"gamma_g'={gv.gamma_g_prime} > floor((5n+2)/8)")
        if abs(gv.gamma_g - gv.gamma_g_prime) > 1:
            found.append(f"|gamma_g - gamma_g'| = |{gv.gamma_g} - {gv.gamma_g_prime}| > 1")
        if spec.family in ("path", "cycle") and gv.gamma_g != path_cycle_gamma_g(n):
            found.append(f"gamma_g={gv.gamma_g} but the closed form gives {path_cycle_gamma_g(n)}")
        return found


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (VerifyCorpus(), GreedyLarge(), CyclesPhase3(), SolveN20())
}
