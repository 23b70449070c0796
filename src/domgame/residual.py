"""Residual-graph state machine for the domination game.

A played set splits vertices into white (undominated), blue (dominated but
still playable: some neighbor is white), and red (unplayable). Blue vertices
carry a shade fixed when they turn blue: light (weight 4) during the opening
phase, dark (weight 3) afterwards. Only edges incident to at least one white
vertex are retained; legal moves, the weight sum f, and component shapes are
all read off this state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable

from .errors import IllegalMoveError
from .graph import Graph


class Color(IntEnum):
    WHITE = 0
    LIGHT_BLUE = 1
    DARK_BLUE = 2
    RED = 3


WEIGHT = (5, 4, 3, 0)  # indexed by Color
COLOR_CODE = ("W", "LB", "DB", "R")
_CODE_TO_COLOR = {code: Color(i) for i, code in enumerate(COLOR_CODE)}
BLUE_SHADES = (Color.LIGHT_BLUE, Color.DARK_BLUE)


class ComponentKind(Enum):
    BWB = "BWB"            # one white between two blues
    WB_PLUS = "WB+"        # white + light blue pair
    WB_MINUS = "WB-"       # white + dark blue pair
    WW = "WW"              # two adjacent whites
    ISOLATED_RED = "red"
    OTHER = "other"


@dataclass(frozen=True)
class Component:
    vertices: tuple[int, ...]
    kind: ComponentKind
    white_count: int
    blue_count: int

    @property
    def order(self) -> int:
        return len(self.vertices)


class ResidualState:
    """Immutable snapshot of the game: per-vertex colors plus the played order.

    The dominated mask and weight sum are computed from the colors at
    construction (apply_move instead carries them over from its parent and
    adjusts them by the move's delta); components are computed on first use
    and memoized, and so is every f_decrease. ``F_memo`` is where phases
    memoizes the potential F and its decreases per registry. Callers treat
    instances as values: apply_move returns a new state.
    """

    __slots__ = ("graph", "colors", "played", "dominated_mask", "f",
                 "_components", "_comp_index", "_f_decreases", "F_memo")

    def __init__(self, graph: Graph, colors: tuple[Color, ...], played: tuple[int, ...]):
        dom = 0
        f = 0
        for v, c in enumerate(colors):
            if c is not Color.WHITE:
                dom |= 1 << v
            f += WEIGHT[c]
        self._set(graph, colors, played, dom, f)

    def _set(self, graph: Graph, colors: tuple[Color, ...], played: tuple[int, ...],
             dominated_mask: int, f: int) -> None:
        self.graph = graph
        self.colors = colors
        self.played = played
        self.dominated_mask = dominated_mask
        self.f = f
        self._components: tuple[Component, ...] | None = None
        self._comp_index: tuple[int, ...] | None = None
        self._f_decreases: dict[tuple[int, Color], int] = {}
        self.F_memo: tuple | None = None

    def components(self) -> tuple[Component, ...]:
        """Components over retained edges; red vertices come back as singletons."""
        if self._components is None:
            self._build_components()
        return self._components

    def component_index(self) -> tuple[int, ...]:
        """component_index()[v] is v's position in components()."""
        if self._comp_index is None:
            self._build_components()
        return self._comp_index

    def _build_components(self) -> None:
        comps = split_components(self.graph, self.colors, range(self.graph.n))
        comp_id = [0] * self.graph.n
        for cid, comp in enumerate(comps):
            for v in comp.vertices:
                comp_id[v] = cid
        self._components = tuple(comps)
        self._comp_index = tuple(comp_id)

    def snapshot(self) -> str:
        """One line per vertex: "<id> <W|LB|DB|R>"."""
        return "\n".join(f"{v} {COLOR_CODE[c]}" for v, c in enumerate(self.colors)) + "\n"

    def snapshot_hash(self) -> str:
        return hashlib.sha256(self.snapshot().encode()).hexdigest()[:12]


def split_components(g: Graph, colors: tuple[Color, ...],
                     vertices: Iterable[int]) -> list[Component]:
    """Components over retained edges (those touching a white vertex) of the
    vertices in `vertices`, in order of their first member there.

    `vertices` must be closed under retained edges: all of V, or one
    component of an earlier state, since a later state retains a subset of
    the edges.
    """
    adjacency = g.adjacency
    white = Color.WHITE
    seen: set[int] = set()
    comps: list[Component] = []
    for start in vertices:
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            u_white = colors[u] is white
            for w in adjacency[u]:
                if w not in seen and (u_white or colors[w] is white):
                    seen.add(w)
                    members.append(w)
                    stack.append(w)
        members.sort()
        comps.append(_make_component(tuple(members), colors))
    return comps


def _make_component(vertices: tuple[int, ...], colors: tuple[Color, ...]) -> Component:
    wc = sum(1 for v in vertices if colors[v] is Color.WHITE)
    bc = sum(1 for v in vertices if colors[v] in BLUE_SHADES)
    order = len(vertices)
    if order == 1:
        kind = ComponentKind.ISOLATED_RED if colors[vertices[0]] is Color.RED else ComponentKind.OTHER
    elif order == 2 and wc == 2:
        kind = ComponentKind.WW
    elif order == 2 and wc == 1 and bc == 1:
        b = vertices[0] if colors[vertices[0]] in BLUE_SHADES else vertices[1]
        kind = ComponentKind.WB_PLUS if colors[b] is Color.LIGHT_BLUE else ComponentKind.WB_MINUS
    elif order == 3 and wc == 1 and bc == 2:
        kind = ComponentKind.BWB
    else:
        kind = ComponentKind.OTHER
    return Component(vertices, kind, wc, bc)


def init_state(g: Graph) -> ResidualState:
    """All-white opening state; the weight sum starts at 5n."""
    if not g.is_isolate_free():
        raise ValueError("the game needs an isolate-free graph (min degree >= 1)")
    return ResidualState(g, (Color.WHITE,) * g.n, ())


def parse_snapshot(g: Graph, text: str) -> ResidualState:
    """Rebuild a state from its snapshot listing (played order is not stored)."""
    colors: list[Color | None] = [None] * g.n
    for ln in text.splitlines():
        if not ln.strip():
            continue
        v_str, code = ln.split(" ")
        colors[int(v_str)] = _CODE_TO_COLOR[code]
    if any(c is None for c in colors):
        raise ValueError("snapshot does not cover every vertex")
    return ResidualState(g, tuple(colors), ())


def legal_moves(s: ResidualState) -> list[int]:
    """Playable vertices in ascending order: exactly the non-red ones."""
    return [v for v in range(s.graph.n) if s.colors[v] is not Color.RED]


def is_over(s: ResidualState) -> bool:
    return s.f == 0  # weight 0 iff every vertex is red iff nothing is playable


def move_delta(s: ResidualState, v: int, shade: Color) -> tuple[int, list[tuple[int, Color]]]:
    """(dominated mask after playing v, [(u, new color)] for every vertex
    whose color the move changes).

    Only the newly dominated vertices, N[v] minus the dominated set (white
    to blue or red), and the non-red vertices of N[newly] (which may turn
    red) can change, so the scan stays inside N^2[v]. Raises
    IllegalMoveError for a red or out-of-range v.
    """
    if shade not in BLUE_SHADES:
        raise ValueError("shade must be LIGHT_BLUE or DARK_BLUE")
    colors = s.colors
    if not 0 <= v < s.graph.n or colors[v] is Color.RED:
        raise IllegalMoveError(f"vertex {v} cannot be played")
    masks = s.graph.closed_masks
    newly = masks[v] & ~s.dominated_mask
    dom = s.dominated_mask | newly
    touched = 0
    m = newly
    while m:
        low = m & -m
        touched |= masks[low.bit_length() - 1]
        m ^= low
    red = Color.RED
    changes = []
    m = touched
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        if colors[u] is red:
            continue
        if masks[u] & ~dom == 0:
            changes.append((u, red))
        elif low & newly:
            changes.append((u, shade))
    return dom, changes


def apply_move(s: ResidualState, v: int, shade: Color) -> ResidualState:
    """Play v: the dominated set grows by N[v].

    Vertices turning blue with this move take `shade`; already-blue vertices
    keep theirs. Colors only ever move forward (white -> blue -> red). The
    new state copies the color tuple and patches the entries move_delta
    lists, all inside N^2[v]; its dominated mask and f are the parent's
    adjusted by the same delta.
    """
    dom, changes = move_delta(s, v, shade)
    colors = list(s.colors)
    f = s.f
    for u, c in changes:
        f += WEIGHT[c] - WEIGHT[colors[u]]
        colors[u] = c
    new = ResidualState.__new__(ResidualState)
    new._set(s.graph, tuple(colors), s.played + (v,), dom, f)
    return new


def f_decrease(s: ResidualState, v: int, shade: Color) -> int:
    """Weight-sum drop if v were played now; strictly positive for legal v.

    Sums the weight changes move_delta lists (all inside N^2[v]) without
    building the next state, once per (v, shade) and state: the phase
    predicates and the greedy scan that follows them share the result.
    """
    memo = s._f_decreases
    key = (v, shade)
    dec = memo.get(key)
    if dec is None:
        colors = s.colors
        dec = memo[key] = sum(WEIGHT[colors[u]] - WEIGHT[c]
                              for u, c in move_delta(s, v, shade)[1])
    return dec


def white_degree(s: ResidualState, v: int) -> int:
    colors = s.colors
    return sum(1 for w in s.graph.adjacency[v] if colors[w] is Color.WHITE)
