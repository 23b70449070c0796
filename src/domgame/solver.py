"""Exact game values by memoized minimax over undominated-vertex bitmasks.

Legality and termination depend only on which vertices are still
undominated, so states are keyed by (undominated mask, side to move).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ResourceLimitError
from .graph import Graph

DEFAULT_SOLVER_CAP = 20


@dataclass(frozen=True)
class GameValue:
    gamma_g: int
    gamma_g_prime: int
    optimal_first_move_d: int
    optimal_first_move_s: int


def _as_mask(g: Graph, undominated) -> int:
    if undominated is None:
        return (1 << g.n) - 1
    if isinstance(undominated, int):
        return undominated
    mask = 0
    for v in undominated:
        mask |= 1 << v
    return mask


def game_value(g: Graph, undominated=None, dominator_to_move: bool = True,
               memo: dict | None = None) -> int:
    """Optimal remaining game length from the given undominated set.

    Dominator minimizes, Staller maximizes; a vertex is playable iff it
    dominates at least one new vertex. `undominated` may be a bitmask, an
    iterable of vertex ids, or None for all vertices.
    """
    masks = g.closed_masks
    if memo is None:
        memo = {}

    def rec(m: int, dom_turn: bool) -> int:
        if m == 0:
            return 0
        key = (m, dom_turn)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if dom_turn:
            best = None
            for v in range(g.n):
                nm = m & ~masks[v]
                if nm == m:
                    continue
                if nm == 0:
                    best = 1  # ending now is optimal for the minimizer
                    break
                sub = 1 + rec(nm, False)
                if best is None or sub < best:
                    best = sub
        else:
            best = 0
            for v in range(g.n):
                nm = m & ~masks[v]
                if nm == m:
                    continue
                sub = 1 + rec(nm, True)
                if sub > best:
                    best = sub
        memo[key] = best
        return best

    return rec(_as_mask(g, undominated), dominator_to_move)


def solve_game(g: Graph, cap: int = DEFAULT_SOLVER_CAP) -> GameValue:
    """Both game values plus optimal first moves (ties to the smallest id)."""
    if not g.is_isolate_free():
        raise ValueError("game values need an isolate-free graph")
    if g.n > cap:
        raise ResourceLimitError(f"n={g.n} exceeds solver cap {cap}")
    masks = g.closed_masks
    full = (1 << g.n) - 1
    memo: dict = {}
    best_d = best_s = None
    move_d = move_s = 0
    for v in range(g.n):
        after = full & ~masks[v]
        val_d = 1 + game_value(g, after, False, memo)
        val_s = 1 + game_value(g, after, True, memo)
        if best_d is None or val_d < best_d:
            best_d, move_d = val_d, v
        if best_s is None or val_s > best_s:
            best_s, move_s = val_s, v
    return GameValue(best_d, best_s, move_d, move_s)


def domination_number(g: Graph) -> int:
    """Smallest dominating-set size by exhaustive subset search with early
    exit; deliberately independent of the game recursion."""
    masks = g.closed_masks
    full = (1 << g.n) - 1
    for k in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            m = 0
            for v in combo:
                m |= masks[v]
            if m == full:
                return k
    return g.n
