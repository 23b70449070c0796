"""Exact game values by memoized minimax over undominated-vertex bitmasks.

Legality and termination depend only on which vertices are still
undominated, so a state is an (undominated mask, side to move) pair, and
the memo is one flat byte table indexed by both (see `game_value`).

Two facts of Kinnersley, West and Zamani (KWZ, SIAM J. Discrete Math.
2013) about every such state make the search exact with less work: the
Continuation Principle (undominating more vertices never shortens the
game) and the gap (the two sides to move differ by at most 1).
"""

from __future__ import annotations

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
    if isinstance(undominated, bool):  # an int subclass, but neither a mask nor ids
        raise ValueError(f"undominated must be a mask or vertex ids, got {undominated!r}")
    if isinstance(undominated, int):
        if not 0 <= undominated < 1 << g.n:
            raise ValueError(f"mask {undominated:#x} names vertices outside 0..{g.n - 1}")
        return undominated
    mask = 0
    for v in undominated:
        if not (type(v) is int and 0 <= v < g.n):
            raise ValueError(f"vertex id {v!r} is not an int in 0..{g.n - 1}")
        mask |= 1 << v
    return mask


def game_value(g: Graph, undominated=None, dominator_to_move: bool = True,
               memo: bytearray | None = None) -> int:
    """Optimal remaining game length from the given undominated set.

    Dominator minimizes, Staller maximizes; a vertex is playable iff it
    dominates at least one new vertex. `undominated` may be a bitmask, an
    iterable of vertex ids, or None for all vertices.

    `memo` is a ``bytearray(2 << g.n)`` that may be shared across calls on
    the same graph: entry ``2*mask + 1`` caches the value of `mask` with
    Dominator to move, entry ``2*mask`` with Staller to move, and 0 marks
    an entry not yet solved (every non-empty mask has value at least 1).
    """
    mask = _as_mask(g, undominated)
    if memo is None:
        memo = bytearray(2 << g.n)
    elif len(memo) != 2 << g.n:
        raise ValueError(f"memo must be bytearray(2 << n) = {2 << g.n} bytes, "
                         f"got {len(memo)}")
    if not mask:
        return 0
    full = (1 << g.n) - 1
    keeps = [full ^ c for c in g.closed_masks]  # what a move leaves undominated
    # If N[v] is inside N[w], then w is legal wherever v is and leaves a
    # subset of what v leaves undominated, so by the Continuation Principle
    # (KWZ) w never serves Dominator worse than v.
    dominator_keeps = [keeps[v] for v in g.maximal_closed]

    # Each side reads a child's entry before recursing, so a hit costs no call.
    def dominator(m: int) -> int:
        # By the gap |value(m, Dominator) - value(m, Staller)| <= 1 (KWZ), no
        # child is worth less than value(m, Staller) - 2, once that is known.
        floor = memo[m << 1] - 2
        best = 255
        for keep in dominator_keeps:
            nm = m & keep
            if nm == m:
                continue
            if not nm:
                best = 0  # ending now is optimal for the minimizer
                break
            sub = memo[nm << 1] or staller(nm)
            if sub < best:
                best = sub
                if sub <= floor:
                    break
        best += 1
        memo[m << 1 | 1] = best
        return best

    def staller(m: int) -> int:
        # By the Continuation Principle (KWZ) a child, whose undominated set
        # is a subset of m, is worth at most value(m, Dominator), once known.
        ceiling = memo[m << 1 | 1] or 255
        best = 0
        for keep in keeps:
            nm = m & keep
            if nm != m and nm:
                sub = memo[nm << 1 | 1] or dominator(nm)
                if sub > best:
                    best = sub
                    if sub >= ceiling:
                        break
        best += 1
        memo[m << 1] = best
        return best

    if dominator_to_move:
        value = memo[mask << 1 | 1] or dominator(mask)
    else:
        value = memo[mask << 1] or staller(mask)
    # The two closures refer to each other; breaking that cycle frees memo
    # as soon as the last caller drops it, not at the next gc pass.
    del dominator, staller
    return value


def solve_game(g: Graph, cap: int = DEFAULT_SOLVER_CAP) -> GameValue:
    """Both game values plus optimal first moves (ties to the smallest id)."""
    if not g.is_isolate_free():
        raise ValueError("game values need an isolate-free graph")
    if g.n > cap:
        raise ResourceLimitError(f"n={g.n} exceeds solver cap {cap}")
    masks = g.closed_masks
    full = (1 << g.n) - 1
    memo = bytearray(2 << g.n)
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
