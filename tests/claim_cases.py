"""Small games that make a transcript claim fail by name, and the forged
Dominator whose seeded search finds them.

The forged Dominator plays the greedy move with probability p and a
uniformly random live vertex otherwise. Its transcripts are labelled
`greedy`, so the verifier audits its lines as the greedy's: a line that
strays from the greedy may then break a claim the greedy keeps. Each case
in CASES is the smallest failing game for its claim, fewest vertices and
then fewest moves; an exhaustive search over every line of play, on every
isolate-free graph with n <= 6 up to isomorphism, found none smaller.

    PYTHONPATH=src python tests/claim_cases.py

reruns the forged-Dominator search and prints the smallest failing game
found for each claim.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator

from domgame import (
    Graph,
    Transcript,
    dominator_greedy,
    gen_cycle,
    gen_path,
    gen_random_tree,
    gen_star,
    make_staller_random,
    philox_rng,
    play_game,
    verify_transcript,
)
from domgame.residual import live_mask, nth_vertex
from oracles import make_scripted_staller


def forged_dominator(seed: int, p: float):
    """Greedy with probability p, else a random live vertex, under a
    Philox stream keyed by seed; labelled greedy."""
    rng = philox_rng(seed)

    def dominator(ctx, s):
        if rng.random() < p:
            return dominator_greedy(ctx, s)
        live = live_mask(s)
        return nth_vertex(live, int(rng.integers(0, live.bit_count())))

    dominator.policy_name = dominator_greedy.policy_name
    return dominator


@dataclass(frozen=True)
class ClaimCase:
    graph: Graph
    first: str
    vertices: tuple[int, ...]  # the moves of both players in order
    note: str                  # the failing claim's detail

    def transcript(self) -> Transcript:
        """The game of the vertex list, both players labelled greedy."""
        play = make_scripted_staller(self.vertices, dominator_greedy.policy_name)
        return play_game(self.graph, play, play, self.first)


CASES = {  # as smallest_failures(search_pool()) finds them
    # the Dominator plays a leaf of P3, the Staller the other leaf
    "AV1": ClaimCase(gen_path(3), "D", (0, 2), "phase-1 total decrease 15 < 16 over 2 moves"),
    "AV2": ClaimCase(gen_path(4), "S", (0, 1, 3), "phase-2 total decrease 14 < 16 over 2 moves"),
    "AV3": ClaimCase(gen_cycle(6), "D", (0, 5, 4, 1), "phase-3 total decrease 30 < 32 over 4 moves"),
    "XCYCLE_FINISH": ClaimCase(gen_cycle(6), "D", (0, 5, 4, 1),
                               "move 3 (D) closed an open X-cycle with S=7 < 11"),
}


def smallest_failures(graphs: Iterable[Graph]) -> dict[str, ClaimCase]:
    """Per claim, the smallest failing game on the graphs, both starts,
    of the forged Dominator (seed, p = 0.5) against a random Staller
    (seed), for seeds 0..19; ties go to the first found."""
    best: dict[str, tuple[tuple[int, int], ClaimCase]] = {}
    for g in graphs:
        for first in "DS":
            for seed in range(20):
                t = play_game(g, forged_dominator(seed, 0.5), make_staller_random(seed), first)
                size = (g.n, t.total_moves)
                for r in verify_transcript(g, t):
                    if r.status == "fail" and (r.claim not in best or size < best[r.claim][0]):
                        vertices = tuple(m.vertex for m in t.records)
                        best[r.claim] = size, ClaimCase(g, first, vertices, r.detail)
    return {claim: case for claim, (_, case) in best.items()}


def search_pool() -> Iterator[Graph]:
    """Paths, stars, cycles and five random trees per n, for n = 2..6."""
    for n in range(2, 7):
        yield gen_path(n)
        yield gen_star(n)
        if n >= 3:
            yield gen_cycle(n)
        yield from (gen_random_tree(n, seed) for seed in range(5))


if __name__ == "__main__":
    for claim, case in sorted(smallest_failures(search_pool()).items()):
        print(f"{claim}: n={case.graph.n} first={case.first} "
              f"vertices={case.vertices} edges={case.graph.edges}\n    {case.note}")
