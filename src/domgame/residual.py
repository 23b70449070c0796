"""Residual-graph state machine for the domination game.

A played set splits vertices into white (undominated), blue (dominated but
still playable: some neighbor is white), and red (unplayable). Blue vertices
carry a shade fixed when they turn blue: light (weight 4) during the opening
phase, dark (weight 3) afterwards. Only edges incident to at least one white
vertex are retained; legal moves, the weight sum f, and the components are
all read off this state. A red vertex keeps no retained edge and belongs to
no component: the components are the retained-edge pieces of the non-red
vertices, each a mask of its members.

The greedy Dominator and the phase tests ask which move drops a potential
most, or whether some move drops it by a threshold. The scorers are pure;
each state keeps the scores its ScoreTables compute, one mask of vertices
per score, so both questions are read off the buckets rather than found by
a loop over the vertices.
"""

from __future__ import annotations

import hashlib
from enum import IntEnum
from typing import Callable

from .errors import IllegalMoveError
from .graph import Graph


class Color(IntEnum):
    WHITE = 0
    LIGHT_BLUE = 1
    DARK_BLUE = 2
    RED = 3


WEIGHT = (5, 4, 3, 0)  # indexed by Color
COLOR_CODE = ("W", "LB", "DB", "R")
BLUE_SHADES = (Color.LIGHT_BLUE, Color.DARK_BLUE)


class ScoreTable:
    """The decreases of one potential on one state, as buckets
    {score: mask of the vertices with that score} and the mask of the
    scored vertices, which is the union of the buckets. No bucket is empty.

    A score is a small integer, so the top bucket's lowest bit is the
    vertex of the top score with the smallest id, and the bottom bucket's
    lowest bit the same for the bottom score. A threshold test ("does some
    vertex score at least t?") reads the top bucket first and scores only
    the vertices not yet scored.
    """

    __slots__ = ("buckets", "scored")

    def __init__(self):
        self.buckets: dict[int, int] = {}
        self.scored = 0

    def add(self, v: int, score: int) -> None:
        bit = 1 << v
        self.buckets[score] = self.buckets.get(score, 0) | bit
        self.scored |= bit

    def top(self) -> int:
        """The vertex of the highest score with the smallest id."""
        mask = self.buckets[max(self.buckets)]
        return (mask & -mask).bit_length() - 1

    def bottom(self) -> int:
        """The vertex of the lowest score with the smallest id."""
        mask = self.buckets[min(self.buckets)]
        return (mask & -mask).bit_length() - 1

    def reaches(self, t: int, live: int, score: Callable[[int], int]) -> bool:
        """True if some vertex of `live` scores at least t. The scored ones
        are read off the buckets; then the unscored ones are scored with
        score(v) and added, in ascending order, up to the first that
        reaches t."""
        if self.buckets and max(self.buckets) >= t:
            return True
        rest = live & ~self.scored
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            dec = score(v)
            self.add(v, dec)
            if dec >= t:
                return True
            rest ^= low
        return False

    def add_all(self, scores: dict[int, int]) -> ScoreTable:
        """Add each vertex of `scores` with its score; returns the table."""
        buckets = self.buckets
        bits = 0
        for v, score in scores.items():
            bit = 1 << v
            buckets[score] = buckets.get(score, 0) | bit
            bits |= bit
        self.scored |= bits
        return self

    def without(self, drop: int) -> ScoreTable:
        """A new table of the scores of the vertices outside `drop`."""
        keep = ~drop
        out = ScoreTable()
        for score, mask in self.buckets.items():
            mask &= keep
            if mask:
                out.buckets[score] = mask
        out.scored = self.scored & keep
        return out


class ResidualState:
    """Immutable snapshot of the game: three vertex masks.

    ``dominated_mask`` holds the non-white vertices, ``red_mask`` the red
    ones and ``light_mask`` the light-blue ones; a dark-blue vertex is
    dominated, not red and not light. The weight sum ``f`` is counted from
    the masks by the one constructor, and the snapshot text and the
    components (member masks) are read off them. ``tables`` holds one
    ScoreTable per potential (score_table): f's keyed by its shade, F's by
    its X-cycle registry. ``F_memo`` is where phases memoizes F's summary,
    as (registry, summary). A state apply_move builds keeps the move's
    N[newly] as ``move_near`` (None on the others). Callers treat
    instances as values: apply_move returns a new state, and a carry
    (carry_f_decreases, phases.carry_F_decreases) gives it tables of its
    own, never changing the old state's.
    """

    __slots__ = ("graph", "dominated_mask", "red_mask", "light_mask", "f",
                 "tables", "F_memo", "move_near")

    def __init__(self, graph: Graph, dominated_mask: int, red_mask: int, light_mask: int):
        self.graph = graph
        self.dominated_mask = dominated_mask
        self.red_mask = red_mask
        self.light_mask = light_mask
        self.f = _weight(graph.n, dominated_mask, red_mask, light_mask)
        self.tables: dict[object, ScoreTable] = {}
        self.F_memo: tuple | None = None
        self.move_near: int | None = None

    def _color_bytes(self) -> bytes:
        """One byte per vertex, vertex 0 first: its Color value.

        The Color value is 2*dominated + red - light. Each mask's binary
        expansion, one ASCII byte per vertex, is read as a base-256 number,
        so that sum is taken byte by byte with no carry or borrow; each
        byte then holds 2 * ord("0") more than the value.
        """
        n = self.graph.n
        bits = f"0{n}b"
        dom = int.from_bytes(format(self.dominated_mask, bits).encode(), "big")
        red = int.from_bytes(format(self.red_mask, bits).encode(), "big")
        light = int.from_bytes(format(self.light_mask, bits).encode(), "big")
        return (2 * dom + red - light).to_bytes(n, "big")[::-1].translate(_MINUS_TWO_ZEROS)

    def components(self) -> tuple[int, ...]:
        """Components of the non-red vertices over retained edges (those
        touching a white vertex), as member masks by smallest member. Not
        memoized: phases._F_memo, which keeps what it reads of them, is
        the one caller.

        Every component has order >= 2: the graph is isolate-free, so a
        white vertex keeps its edges and a blue one has a white neighbor.
        """
        opens, dom, n = self.graph.open_masks, self.dominated_mask, self.graph.n
        rest = live_mask(self)
        comps = []
        while rest:
            piece = retained_piece(opens, dom, (rest & -rest).bit_length() - 1, n)
            rest &= ~piece
            comps.append(piece)
        return tuple(comps)

    def _snapshot_bytes(self) -> bytearray:
        """The snapshot text, UTF-8 encoded: the code slots of the template
        for this id width filled from _color_bytes, one extended slice per
        byte of the code, and the pad bytes dropped."""
        n = self.graph.n
        digits = len(str(n - 1))
        width = digits + 4
        template = _SNAPSHOT_TEMPLATES.setdefault(digits, bytearray())
        if len(template) < n * width:
            template.extend(b"".join((b"%d" % v).rjust(digits, b"\0") + b" \0\0\n"
                                     for v in range(len(template) // width, n)))
        buf = template[:n * width]
        col = self._color_bytes()
        buf[digits + 1::width] = col.translate(_CODE_FIRST)
        buf[digits + 2::width] = col.translate(_CODE_SECOND)
        return buf.translate(None, b"\0")

    def snapshot(self) -> str:
        """One line per vertex: "<id> <W|LB|DB|R>"."""
        return self._snapshot_bytes().decode()

    def snapshot_hash(self) -> str:
        return hashlib.sha256(self._snapshot_bytes()).hexdigest()[:12]


_MINUS_TWO_ZEROS = bytes((b - 2 * ord("0")) % 256 for b in range(256))  # a bytes.translate table
# bytes.translate tables from a Color value to the first and the second
# byte of its code; a one-letter code's second byte is a pad byte, 0.
_CODE_FIRST = bytes(ord(code[0]) for code in COLOR_CODE) + bytes(256 - len(COLOR_CODE))
_CODE_SECOND = bytes(ord(code[1:] or "\0") for code in COLOR_CODE) + bytes(256 - len(COLOR_CODE))

# For each id width d, the snapshot lines of the ids 0, 1, ..., each id
# padded on the left to d bytes and followed by a two-byte code slot, all
# pad bytes 0. They depend only on vertex ids, so one template per width is
# shared by every graph and grown on demand.
_SNAPSHOT_TEMPLATES: dict[int, bytearray] = {}


def _weight(n: int, dominated_mask: int, red_mask: int, light_mask: int) -> int:
    """f = 5*|white| + 4*|light| + 3*|dark| of the coloring the masks give,
    which is 5n - 2*|dominated| - 3*|red| + |light|."""
    return 5 * n - 2 * dominated_mask.bit_count() - 3 * red_mask.bit_count() + light_mask.bit_count()


def vertices_of(mask: int) -> list[int]:
    """The vertices of a mask in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def nth_vertex(mask: int, k: int) -> int:
    """vertices_of(mask)[k], found by binary search on bit counts without
    listing the mask; k must be below mask.bit_count()."""
    lo, hi = 0, mask.bit_length()  # the answer is lo - 1 once lo == hi
    while lo < hi:
        mid = (lo + hi) >> 1
        if (mask & ((1 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid + 1
    return lo - 1


def _neighborhood(closed: tuple[int, ...], mask: int) -> int:
    """N[mask]: the union of closed[x] over the vertices x of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= closed[low.bit_length() - 1]
        mask ^= low
    return out


def retained_piece(opens: tuple[int, ...], dom: int, start: int, limit: int) -> int:
    """Mask of start's component over the edges retained under the dominated
    mask `dom` (those touching a vertex outside dom) if its order is below
    `limit`; else a mask of `limit` or more of its vertices, the search
    stopping there. A limit of n always gives the whole component."""
    piece = frontier = 1 << start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        nbrs = opens[low.bit_length() - 1]
        new = (nbrs & ~dom if low & dom else nbrs) & ~piece
        if new:
            piece |= new
            if piece.bit_count() >= limit:
                break
            frontier |= new
    return piece


def init_state(g: Graph) -> ResidualState:
    """All-white opening state; the weight sum starts at 5n."""
    if not g.is_isolate_free():
        raise ValueError("the game needs an isolate-free graph (min degree >= 1)")
    return ResidualState(g, 0, 0, 0)


def parse_snapshot(g: Graph, text: str) -> ResidualState:
    """Rebuild a state from its snapshot listing.

    Raises ValueError naming the 1-based line for a malformed line, a vertex
    id out of range or listed twice, an unknown color code, and a coloring
    no game reaches: a red vertex with a white vertex in N[v], or a
    dominated non-red vertex without one.
    """
    line_of: list[int | None] = [None] * g.n
    masks = {code: 0 for code in COLOR_CODE}
    for lineno, ln in enumerate(text.splitlines(), start=1):
        if not ln.strip():
            continue
        try:
            v_str, code = ln.split(" ")
            v = int(v_str)
        except ValueError:
            raise ValueError(f"snapshot line {lineno}: expected '<id> <color>', got {ln!r}") from None
        if not 0 <= v < g.n:
            raise ValueError(f"snapshot line {lineno}: vertex {v} out of range for n={g.n}")
        if line_of[v] is not None:
            raise ValueError(f"snapshot line {lineno}: vertex {v} already listed on line {line_of[v]}")
        if code not in masks:
            raise ValueError(f"snapshot line {lineno}: unknown color code {code!r}")
        line_of[v] = lineno
        masks[code] |= 1 << v
    if None in line_of:
        raise ValueError("snapshot does not cover every vertex")
    s = ResidualState(g, masks["LB"] | masks["DB"] | masks["R"], masks["R"], masks["LB"])
    white = ~s.dominated_mask
    for v, closed in enumerate(g.closed_masks):  # red iff N[v] holds no white vertex
        if (s.red_mask >> v & 1) == (closed & white != 0):
            raise ValueError(f"snapshot line {line_of[v]}: vertex {v} is {COLOR_CODE[s._color_bytes()[v]]} "
                             f"but N[v] {'holds' if closed & white else 'lacks'} a white vertex")
    return s


def live_mask(s: ResidualState) -> int:
    """The playable vertices as a mask: exactly the non-red ones."""
    return ((1 << s.graph.n) - 1) & ~s.red_mask


def legal_moves(s: ResidualState) -> list[int]:
    """Playable vertices in ascending order."""
    return vertices_of(live_mask(s))


def is_over(s: ResidualState) -> bool:
    return s.f == 0  # weight 0 iff every vertex is red iff nothing is playable


def _masks_after(s: ResidualState, v: int, shade: Color) -> tuple[int, int, int, int]:
    """(dominated, red, light) masks after playing v, and N[newly].

    Only the newly dominated vertices, N[v] minus the dominated set (white
    to blue or red), and the non-red vertices of N[newly] (which may turn
    red) can change, so the scan stays inside N^2[v]. Raises
    IllegalMoveError for a red or out-of-range v.
    """
    if shade not in BLUE_SHADES:
        raise ValueError("shade must be LIGHT_BLUE or DARK_BLUE")
    if not 0 <= v < s.graph.n or s.red_mask >> v & 1:
        raise IllegalMoveError(f"vertex {v} cannot be played")
    masks = s.graph.closed_masks
    newly = masks[v] & ~s.dominated_mask
    dom = s.dominated_mask | newly
    touched = _neighborhood(masks, newly)
    red = s.red_mask
    m = touched & dom & ~red
    while m:
        low = m & -m
        m ^= low
        if masks[low.bit_length() - 1] & ~dom == 0:
            red |= low
    light = s.light_mask | newly if shade == Color.LIGHT_BLUE else s.light_mask
    return dom, red, light & ~red, touched


def apply_move(s: ResidualState, v: int, shade: Color) -> ResidualState:
    """Play v: the dominated set grows by N[v].

    Vertices turning blue with this move take `shade`; already-blue vertices
    keep theirs. Colors only ever move forward (white -> blue -> red). The
    new state's move_near is N[newly], newly being the vertices the move
    dominates, which carry_f_decreases reads rather than walks again.
    """
    dom, red, light, near = _masks_after(s, v, shade)
    post = ResidualState(s.graph, dom, red, light)
    post.move_near = near
    return post


def score_table(s: ResidualState, key: object) -> ScoreTable:
    """s's ScoreTable of one potential's decreases: f's under the shade
    `key`, or F's under the X-cycle registry `key`."""
    table = s.tables.get(key)
    if table is None:
        table = s.tables[key] = ScoreTable()
    return table


def f_decrease(s: ResidualState, v: int, shade: Color) -> int:
    """Weight-sum drop if v were played now; strictly positive for legal v.

    Counts f of the masks after the move without building the next state.
    It neither reads nor writes score_table(s, shade), which adds the
    scores it asks for.
    """
    dom, red, light, _ = _masks_after(s, v, shade)
    return s.f - _weight(s.graph.n, dom, red, light)


def f_decreases(s: ResidualState, xs: int, shade: Color) -> dict[int, int]:
    """{x: f_decrease(s, x, shade)} for every vertex x of the mask xs, from
    one pass over the vertices that can turn red.

    Write W for the white set. A non-red u turns red under x exactly when
    W ∩ N[u] ⊆ N[x], that is when x lies in X_u, the intersection of N[w]
    over w in W ∩ N[u]. So f_decrease(x) is c·|N[x] ∩ W| (c = 5 minus the
    shade's weight: the drop of a white vertex that turns blue) plus, over
    the non-red u with x in X_u, 3 + [u light] + [u white and the shade
    light] (the rest of the drop of u when it turns red). Only the u of
    N[W ∩ N[xs]] can have X_u meet xs, and X_u lies in N[w], so the pass
    costs O(sum of white degrees) mask operations, where scoring each x
    alone costs O(deg^2). Raises IllegalMoveError if xs holds a red or
    out-of-range vertex.
    """
    if shade not in BLUE_SHADES:
        raise ValueError("shade must be LIGHT_BLUE or DARK_BLUE")
    g, red, light = s.graph, s.red_mask, s.light_mask
    if xs < 0 or xs >> g.n or xs & red:
        raise IllegalMoveError("xs holds a vertex that cannot be played")
    closed = g.closed_masks
    white = ((1 << g.n) - 1) & ~s.dominated_mask
    c = 5 - WEIGHT[shade]
    white_turns_red = 4 if shade == Color.LIGHT_BLUE else 3
    scores = {}
    reach = 0  # N[xs]
    m = xs
    while m:
        low = m & -m
        x = low.bit_length() - 1
        scores[x] = c * (closed[x] & white).bit_count()
        reach |= closed[x]
        m ^= low
    us = _neighborhood(closed, reach & white) & ~red
    while us:
        low = us & -us
        u = low.bit_length() - 1
        us ^= low
        hit = xs  # X_u ∩ xs
        m = closed[u] & white
        while m and hit:
            w = m & -m
            hit &= closed[w.bit_length() - 1]
            m ^= w
        if hit:
            dec = white_turns_red if white & low else 4 if light & low else 3
            while hit:
                x = hit & -hit
                scores[x.bit_length() - 1] += dec
                hit ^= x
    return scores


def carry_f_decreases(pre: ResidualState, post: ResidualState, v: int, shade: Color) -> None:
    """Hand post, the state apply_move built by playing v from pre in the
    given shade, each f_decrease of that shade scored on pre whose vertex
    lies outside N[A] ∪ N[W' ∩ N^2[A]], where A = N[v] ∩ W is what the
    move newly dominates and W' is post's white set. A phase's moves are
    played in its shade, and phases never go back, so later states read f
    in the move's shade or not at all: phase 1 reads light scores, phase 2
    dark ones, and a phase-1 state holds no dark scores to hand on.

    f_decrease(x) reads W on N[x], and the red bit, the light bit and
    W ∩ N[u] of each u in N[W ∩ N[x]] (f_decreases). The move changes W
    only on A, and red and light bits only on N[A]. For x outside N[A],
    W ∩ N[x] = W' ∩ N[x] is unchanged, and a u of N[W' ∩ N[x]] lies in
    N[A] only if x lies in N[W' ∩ N^2[A]]; so outside the ball nothing the
    score reads changes. The ball lies inside N^4[v]; its N[A] is post's
    move_near. Nothing is carried when the ball covers every non-red
    vertex of post, where every score would be dropped. pre's table is
    read, not changed: post gets a new one, each bucket and the scored
    mask cut to the vertices outside the ball, in O(#buckets) mask
    operations.
    """
    table = pre.tables.get(shade)
    if table is None:
        return
    closed = pre.graph.closed_masks
    ball = post.move_near  # N[A], from apply_move
    # W' ∩ N^2[A], from N[A] less post's red vertices, which have no white neighbor
    near = _neighborhood(closed, ball & ~post.red_mask) & ~post.dominated_mask
    ball |= _neighborhood(closed, near)
    if ball | post.red_mask == (1 << pre.graph.n) - 1:
        return
    post.tables[shade] = table.without(ball)


def white_degree(s: ResidualState, v: int) -> int:
    return (s.graph.open_masks[v] & ~s.dominated_mask).bit_count()


def white_mask(s: ResidualState) -> int:
    return ((1 << s.graph.n) - 1) & ~s.dominated_mask
