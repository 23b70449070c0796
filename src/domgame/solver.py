"""Exact game values by threshold tests over undominated-vertex bitmasks.

A state is an (undominated mask, side to move) pair, since legality and
termination depend only on which vertices are still undominated. As in the
null-window searches of Plaat, Schaeffer, Pijls and de Bruin (Artificial
Intelligence 1996), a test asks only whether a state's value is at most k:
it stops at the first child that decides it, and its answer is kept as a
bound in one table of lower and upper bounds (see `game_value`). An exact
value is the first k, counted up from the lower bound, that passes. By the
Continuation Principle of Kinnersley, West and Zamani (SIAM J. Discrete
Math. 2013), Dominator plays only `Graph.maximal_closed`. Both players try
moves by |N[v]|, largest first, then by |N^2[v]|, smallest first, then by
id, so a test tends to meet its deciding child early. The order sets only
which bounds get stored; values come from the tests and first moves from
`solve_game`'s id-ordered loop, so neither depends on it.
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


def _search(g: Graph, memo: bytearray, query):
    """``query(at_most, value)``, where ``at_most(m, dominator_to_move, k)``
    tests value <= k on the table `memo` and ``value`` is the exact value."""
    full = (1 << g.n) - 1
    # Both players try the largest N[v] first, then the smallest N^2[v] (the
    # vertices within distance 2), then the smallest id. A test's answer
    # depends only on (mask, side, k), the table holds only true bounds and
    # solve_game breaks ties in id order, so the order changes which entries
    # get set, not a value or a first move.
    closed = g.closed_masks
    order = sorted(range(g.n), key=lambda v: (-len(g.adjacency[v]),
                                              sum(1 for c in closed if c & closed[v])))
    keeps = [full ^ closed[v] for v in order]  # what a move leaves undominated
    # If N[v] lies in N[w], then w is legal wherever v is and leaves less
    # undominated, so by the Continuation Principle it is no worse for Dominator.
    maximal = set(g.maximal_closed)
    dominator_keeps = [full ^ closed[v] for v in order if v in maximal]

    # Both tests take a non-empty m and a k >= 1 that m's bounds leave open,
    # and read a child's bounds before recursing. An empty child passes
    # every test at k - 1 >= 0, a non-empty one fails every test at 0.
    def dominator(m: int, k: int) -> bool:
        j = k - 1
        for keep in dominator_keeps:
            nm = m & keep
            if nm != m and (not nm or j and memo[nm << 2] <= j and (
                    0 < memo[nm << 2 | 1] <= j or staller(nm, j))):
                memo[m << 2 | 3] = k
                return True
        memo[m << 2 | 2] = k + 1
        return False

    def staller(m: int, k: int) -> bool:
        j = k - 1
        for keep in keeps:
            nm = m & keep
            if nm != m and nm and not 0 < memo[nm << 2 | 3] <= j and (
                    not j or memo[nm << 2 | 2] > j or not dominator(nm, j)):
                memo[m << 2] = k + 1
                return False
        memo[m << 2 | 1] = k
        return True

    def at_most(m: int, dominator_to_move: bool, k: int) -> bool:
        if not m or k < 1:
            return not m and k >= 0
        i = m << 2 | dominator_to_move << 1
        if memo[i] > k or 0 < memo[i | 1] <= k:
            return memo[i] <= k
        return dominator(m, k) if dominator_to_move else staller(m, k)

    def value(m: int, dominator_to_move: bool) -> int:
        k = memo[m << 2 | dominator_to_move << 1]
        while not at_most(m, dominator_to_move, k):
            k += 1
        return k

    result = query(at_most, value)
    # The two tests refer to each other; breaking that cycle frees memo
    # as soon as the last caller drops it, not at the next gc pass.
    del dominator, staller
    return result


def game_value(g: Graph, undominated=None, dominator_to_move: bool = True,
               memo: bytearray | None = None) -> int:
    """Optimal remaining game length from the given undominated set.

    Dominator minimizes, Staller maximizes; a vertex is playable iff it
    dominates at least one new vertex. `undominated` may be a bitmask, an
    iterable of vertex ids, or None for all vertices.

    `memo` is a ``bytearray(4 << g.n)`` of bounds that calls on the same
    graph may share: bytes ``4*mask + 2`` and ``4*mask + 3`` hold a lower
    and an upper bound on the value of `mask` with Dominator to move, bytes
    ``4*mask`` and ``4*mask + 1`` with Staller to move; 0 means unknown.
    """
    mask = _as_mask(g, undominated)
    if memo is None:
        memo = bytearray(4 << g.n)
    elif len(memo) != 4 << g.n:
        raise ValueError(f"memo must be bytearray(4 << n) = {4 << g.n} bytes, got {len(memo)}")
    return _search(g, memo, lambda _, value: value(mask, bool(dominator_to_move)))


def solve_game(g: Graph, cap: int = DEFAULT_SOLVER_CAP) -> GameValue:
    """Both game values plus optimal first moves (ties to the smallest id);
    past vertex 0 a move is solved only once a test shows it strictly better."""
    if not g.is_isolate_free():
        raise ValueError("game values need an isolate-free graph")
    if g.n > cap:
        raise ResourceLimitError(f"n={g.n} exceeds solver cap {cap}")
    after = [(1 << g.n) - 1 ^ c for c in g.closed_masks]  # undominated after each move

    def first_moves(at_most, value) -> GameValue:
        best_d, best_s = 1 + value(after[0], False), 1 + value(after[0], True)
        move_d = move_s = 0
        for v in range(1, g.n):
            if at_most(after[v], False, best_d - 2):
                best_d, move_d = 1 + value(after[v], False), v
            if not at_most(after[v], True, best_s - 1):
                best_s, move_s = 1 + value(after[v], True), v
        return GameValue(best_d, best_s, move_d, move_s)

    return _search(g, bytearray(4 << g.n), first_moves)
