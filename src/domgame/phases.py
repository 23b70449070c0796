"""Four-phase bookkeeping for the greedy Dominator strategy.

Phase 1 lasts while some retained all-white path u-v-w survives whose
endpoint u is a leaf of the underlying graph; blues arising here are light.
Phase 2 lasts while some move still drops the weight sum f by at least 11.
When phase 2 ends, the cycle components of the white subgraph are frozen as
the X-cycle registry and play switches to the potential

    F = f - (open X-cycles) - (white/light-blue pairs) - 3 * (BWB components).

Phase 3 lasts while some move still drops F by at least 10; phase 4 is the
remainder. Phase boundaries are evaluated only before move 1 and after
even-numbered moves, and the predicates never re-activate a finished phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import ClaimViolationError
from .residual import (
    Color,
    ResidualState,
    ScoreTable,
    _masks_after,
    _weight,
    apply_move,  # unused: perfbench/tests/test_harness.py expects it bound here
    f_decrease,
    f_decreases,
    live_mask,
    retained_piece,
    score_table,
    vertices_of,
    white_degree,
    white_mask,
)


class CycleStatus(Enum):
    CLOSED = "closed"
    OPEN = "open"
    FINISHED = "finished"
    OTHER = "other"


@dataclass(frozen=True, eq=False)
class XCycleRegistry:
    """Cycle components of the white subgraph, frozen when phase 3 begins.

    cycles[i] masks cycle i's members, an induced cycle of G with >= 4
    vertices at freeze (_phase2_end). The masks are disjoint. A registry
    keys its F table in a state's tables, so it compares by identity.
    """

    cycles: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.cycles)

    @cached_property
    def member_mask(self) -> int:
        return sum(self.cycles)

    @cached_property
    def cycle_index(self) -> dict[int, int]:
        """The index of each member's cycle."""
        return {v: i for i, members in enumerate(self.cycles) for v in vertices_of(members)}


@dataclass(frozen=True)
class PhaseContext:
    """Per-game phase machine state, advanced only at even boundaries.

    The registry exists exactly from the moment phase 3 begins (whatever
    earlier phases were skipped).
    """

    phase: int = 1
    registry: XCycleRegistry | None = None


def phase1_active(s: ResidualState) -> bool:
    """True while a retained all-white path u-v-w exists with u a leaf of G.

    A white vertex keeps its full degree, so a still-white leaf of G can
    only sit at the end of such a path. On the all-white opening state this
    is exactly "some leaf lies in a component of order at least 3".
    """
    g, dom = s.graph, s.dominated_mask
    rest = g.leaf_mask & ~dom  # walked bit by bit: the first hit ends the walk
    while rest:
        low = rest & -rest
        v = g.adjacency[low.bit_length() - 1][0]
        if not dom >> v & 1 and g.open_masks[v] & ~dom & ~low:
            return True
        rest ^= low
    return False


def phase2_active(s: ResidualState) -> bool:
    """True while some move still drops f by at least 11 (dark shading).
    Unless a stored score reaches 11 already, the live vertices not yet
    scored are scored in one f_decreases pass and added to the table."""
    table = score_table(s, Color.DARK_BLUE)
    if max(table.buckets, default=0) < 11:
        table.add_all(f_decreases(s, live_mask(s) & ~table.scored, Color.DARK_BLUE))
    return max(table.buckets, default=0) >= 11


def _white_degree_violation(s: ResidualState, within: int = -1) -> str | None:
    """A white vertex of the mask `within` (every vertex by default) with
    more than 2 white neighbors or a blue one with more than 3, the
    smallest first, as a description, else None; phase-2 end and every
    later state. Red vertices are skipped: they have no white neighbor."""
    dom = s.dominated_mask
    for v in vertices_of(live_mask(s) & within):
        dw = white_degree(s, v)
        if not dom >> v & 1:
            if dw > 2:
                return f"white vertex {v} has {dw} white neighbors"
        elif dw > 3:
            return f"blue vertex {v} has {dw} white neighbors"
    return None


def _phase2_end(s: ResidualState) -> tuple[str | None, tuple[int, ...]]:
    """(violation, cycles) at a phase-2 end: a description of the first way
    s lacks the structure forced there, or None, and the member masks of
    the cycle components of the white subgraph, () with a violation.

    When no move drops f by 11 or more: white vertices have at most 2 white
    neighbors and blue ones at most 3; white-subgraph components are single
    vertices, single edges, or cycles of length >= 4; and no white vertex
    whose neighbors are all blue touches a blue vertex with 3 white neighbors.
    Once the degrees hold, each white component is a path or a cycle, so
    one walk each way from its smallest member finds it and tells whether
    it closes; components come in order of that member. Every member of a
    cycle has exactly two white neighbors, both members, so it is induced.
    """
    violation = _white_degree_violation(s)
    if violation is not None:
        return violation, ()
    opens, white = s.graph.open_masks, white_mask(s)
    cycles, rest = [], white
    while rest:
        start = (rest & -rest).bit_length() - 1
        members, closed = 1 << start, False
        for cur in vertices_of(opens[start] & white):
            prev = start
            while cur >= 0 and not members >> cur & 1:  # -1 is past a path's end
                members |= 1 << cur
                prev, cur = cur, (opens[cur] & white & ~(1 << prev)).bit_length() - 1
            closed |= cur == start
        rest &= ~members
        if members.bit_count() <= 2:
            continue
        if not closed:
            return f"white component {vertices_of(members)} is neither P1, P2, nor a cycle", ()
        if members.bit_count() == 3:
            return f"white component {vertices_of(members)} is a 3-cycle", ()
        cycles.append(members)
    # a white vertex with no white neighbor has only blue neighbors
    for v in vertices_of(white):
        if white_degree(s, v) == 0:
            for w in s.graph.adjacency[v]:
                if white_degree(s, w) == 3:
                    return f"edge between all-blue-neighborhood white {v} and 3-white-degree blue {w}", ()
    return None, tuple(cycles)


def freeze_registry(s: ResidualState) -> XCycleRegistry:
    """The X-cycle registry where phase 2 ends on s: the cycle components
    of the white subgraph, as _phase2_end finds them.

    Raises ClaimViolationError (with the offending snapshot) if s does not
    have the structure forced at a correct phase-2 end.
    """
    violation, cycles = _phase2_end(s)
    if violation is not None:
        raise ClaimViolationError(f"phase-2 end structure violated: {violation}", s.snapshot())
    return XCycleRegistry(cycles)


def cycle_status(reg: XCycleRegistry, i: int, s: ResidualState) -> CycleStatus:
    """Closed: every cycle edge retained. Open: some member is a blue leaf in
    a component of order >= 4, that is an open witness (_F_memo). Finished:
    every member is red or sits in a BWB component. Other: none of these.

    A cycle edge stops being retained when both its ends are dominated, so
    the cycle, induced in G, is closed when no two dominated members are
    adjacent. The witnesses and the BWB mask are the ones memoized with F.
    """
    members, opens = reg.cycles[i], s.graph.open_masks
    ends = m = members & s.dominated_mask
    while m:
        low = m & -m
        if opens[low.bit_length() - 1] & ends:
            break
        m ^= low
    else:
        return CycleStatus.CLOSED
    summary = _F_memo(s, reg)
    bwb, witness = summary[3], summary[5]
    if witness & members:
        return CycleStatus.OPEN
    if members & ~(s.red_mask | bwb) == 0:
        return CycleStatus.FINISHED
    return CycleStatus.OTHER


def open_cycle_count(s: ResidualState, reg: XCycleRegistry) -> int:
    """Open X-cycles of s, from the count memoized with F."""
    return _F_memo(s, reg)[1]


def _discount(piece: int, dom: int, light: int) -> int:
    """The share of F's discount of `piece`, a retained-edge piece of
    non-red vertices under the dominated and light masks dom and light:
    1 for an order-2 piece that holds a light vertex (a WB+ pair; a white
    vertex is never light), 3 for an order-3 piece with exactly one white
    vertex (BWB), and 0 otherwise: the one place a piece is classified."""
    order = piece.bit_count()
    if order == 2:
        return 1 if piece & light else 0
    return 3 if order == 3 and (piece & ~dom).bit_count() == 1 else 0


def F_value(s: ResidualState, reg: XCycleRegistry) -> int:
    """f minus open X-cycles, minus WB+ components, minus 3x BWB components.

    Zero exactly on the all-red state. Recomputed in full from s's
    components and its open witnesses, once per state and registry;
    F_decrease's local count is checked against it.
    """
    return _F_memo(s, reg)[0]


def _witnesses(opens: tuple[int, ...], dom: int, m: int) -> int:
    """The vertices of the mask m with exactly one neighbor outside the
    dominated mask dom: one white neighbor, in a state with that mask."""
    witness = 0
    while m:
        low = m & -m
        m ^= low
        if (opens[low.bit_length() - 1] & ~dom).bit_count() == 1:
            witness |= low
    return witness


def _cycles_meeting(reg: XCycleRegistry, m: int) -> list[int]:
    """The member masks of the X-cycles that meet m, a mask of members,
    found through the registry's cycle_index, one lookup per cycle."""
    index, cycles = reg.cycle_index, reg.cycles
    out = []
    while m:
        members = cycles[index[(m & -m).bit_length() - 1]]
        m &= ~members
        out.append(members)
    return out


def _F_memo(s: ResidualState, reg: XCycleRegistry) -> tuple:
    """(F, the number of open X-cycles, the mask big of the components of
    order >= 4, the mask of the BWB components, that of the WB+
    components, the open witnesses), computed from one pass over s's
    component masks and kept in s.F_memo with reg until another registry
    asks.

    An open witness is a dominated member in big with exactly one white
    neighbor, and an X-cycle is open exactly when it holds one. A witness
    has a dominated member neighbor, so its cycle is not closed.
    """
    memo = s.F_memo
    if memo is not None and memo[0] is reg:
        return memo[1]
    dom, light = s.dominated_mask, s.light_mask
    big, by_discount = 0, [0, 0, 0, 0]  # the pieces of order <= 3 by their _discount
    for piece in s.components():
        if piece.bit_count() >= 4:
            big |= piece
        else:
            by_discount[_discount(piece, dom, light)] |= piece
    wb_plus, bwb = by_discount[1], by_discount[3]
    witness = _witnesses(s.graph.open_masks, dom, reg.member_mask & dom & big)
    n_open = len(_cycles_meeting(reg, witness))
    # a WB+ component has 2 vertices and a BWB one 3
    F = s.f - n_open - wb_plus.bit_count() // 2 - bwb.bit_count()
    summary = (F, n_open, big, bwb, wb_plus, witness)
    s.F_memo = (reg, summary)
    return summary


def F_decrease(s: ResidualState, reg: XCycleRegistry, v: int) -> int:
    """F(s) - F(s after v, shaded dark), computed near the move.

    The move recolors only vertices of N[newly], newly being the vertices
    it dominates. They all lie in C(v), v's retained-edge component in s,
    and the components outside C(v) stay as they are. C(v)'s _discount is
    read off the masks memoized with F: 0 when v lies in a component of
    order >= 4, else 1 in a WB+ component, 3 in a BWB one and 0 otherwise.
    An edge the move stops retaining has both ends in N[newly], so every
    non-red piece that C(v) splits into holds a non-red vertex of
    N[newly]. A search from those vertices that stops at 4 vertices thus
    finds every piece of order <= 3, the only ones with a discount, which
    _discount gives; C(v)'s other non-red vertices lie in pieces of order
    >= 4.

    A cycle is open when it holds an open witness (_F_memo). A member
    outside N[newly] and the small pieces keeps its dominated bit, its
    white degree and whether its piece has order >= 4, so it is a witness
    after the move exactly when it was before; the members of the small
    pieces are none after it, and those of N[newly] outside them are
    tested again. So only the X-cycles that meet N[newly] or a small piece
    can change status; _cycles_meeting finds them. The masks after the
    move and N[newly] come from _masks_after, the pieces from residual's
    retained_piece, and no state is built.
    It neither reads nor writes score_table(s, reg), which adds the
    scores it asks for.
    """
    big, bwb, wb_plus, witness = _F_memo(s, reg)[2:]
    g, opens = s.graph, s.graph.open_masks
    dom, red, light, near = _masks_after(s, v, Color.DARK_BLUE)
    dec = s.f - _weight(g.n, dom, red, light)
    if not big >> v & 1:  # C(v) has at most 3 vertices
        dec -= 1 if wb_plus >> v & 1 else 3 if bwb >> v & 1 else 0
    small = 0
    starts = near & ~red
    while starts:
        piece = retained_piece(opens, dom, (starts & -starts).bit_length() - 1, 4)
        starts &= ~piece
        if piece.bit_count() < 4:
            small |= piece
            dec += _discount(piece, dom, light)
    changed = near | small
    touched = changed & reg.member_mask
    if touched:
        # A non-red vertex of N[newly] outside the small pieces lies in a
        # piece of C(v) of order >= 4, so C(v) has order >= 4 as well: the
        # vertex is in big after the move exactly when it was before.
        after = witness & ~changed | _witnesses(opens, dom, touched & dom & big & ~red & ~small)
        for members in _cycles_meeting(reg, touched):
            dec -= ((witness & members) != 0) - ((after & members) != 0)
    return dec


def carry_F_decreases(pre: ResidualState, post: ResidualState, v: int,
                      reg: XCycleRegistry) -> None:
    """Hand post, the state after v is played from pre in phase 3 or 4,
    each F_decrease under reg scored on pre whose vertex lies outside C(v),
    v's retained-edge component in pre, and outside every component of pre
    that meets an X-cycle meeting C(v).

    The move recolors only vertices of C(v) (F_decrease), so the other
    components stay as they are, and only the X-cycles that meet C(v) can
    change status. F_decrease(x) reads only C(x) and the X-cycles that
    meet C(x); outside the dropped set neither changes. The drop is found
    by searches over the retained edges of pre: one from v, then one from
    each non-red member of those cycles not yet dropped. Nothing is carried
    when pre has no scores under reg, or when the drop and post's red
    vertices cover every vertex; a member v whose own cycle and the red
    vertices do so is caught before any search. pre's table is read, not
    changed: post gets a new one, each bucket and the scored mask cut to
    the vertices outside the drop; post's F and masks are computed when
    first asked for.
    """
    table = pre.tables.get(reg)
    if table is None or not table.scored:
        return
    g, red = pre.graph, post.red_mask
    full = (1 << g.n) - 1
    if reg.member_mask >> v & 1 and reg.cycles[reg.cycle_index[v]] | red == full:
        return
    opens, dom = g.open_masks, pre.dominated_mask
    drop = retained_piece(opens, dom, v, g.n)  # C(v)
    cycles = sum(_cycles_meeting(reg, drop & reg.member_mask))  # the cycles are disjoint
    rest = cycles & ~drop & ~pre.red_mask
    while rest:
        piece = retained_piece(opens, dom, (rest & -rest).bit_length() - 1, g.n)
        drop |= piece
        rest &= ~piece
    if drop | red == full:
        return
    post.tables[reg] = table.without(drop)


def phase3_active(s: ResidualState, reg: XCycleRegistry) -> bool:
    """True while some move still drops F by at least 10."""
    return score_table(s, reg).reaches(10, live_mask(s), lambda v: F_decrease(s, reg, v))


def maybe_advance(ctx: PhaseContext, s: ResidualState) -> PhaseContext:
    """Cascade the phase machine; call before move 1 and after even moves.

    The one code that runs the phase predicates. Entering phase 3 freezes
    the X-cycle registry, which raises ClaimViolationError if s lacks the
    phase-2 end structure. Skipped phases get length 0; ctx itself comes
    back when the phase stays.
    """
    phase, registry = ctx.phase, ctx.registry
    if phase == 1 and not phase1_active(s):
        phase = 2
    if phase == 2 and not phase2_active(s):
        registry = freeze_registry(s)
        phase = 3
    if phase == 3 and not phase3_active(s, registry):
        phase = 4
    return ctx if phase == ctx.phase else PhaseContext(phase, registry)


def shade_for_phase(phase: int) -> Color:
    return Color.LIGHT_BLUE if phase == 1 else Color.DARK_BLUE


def potential_kind(phase: int) -> str:
    return "f" if phase <= 2 else "F"


def potential_decrease(ctx: PhaseContext, s: ResidualState, v: int) -> int:
    """Decrease of the active potential (f in phases 1-2, F in 3-4) if v
    were played now."""
    if ctx.phase <= 2:
        return f_decrease(s, v, shade_for_phase(ctx.phase))
    return F_decrease(s, ctx.registry, v)


def potential_table(ctx: PhaseContext, s: ResidualState) -> ScoreTable:
    """The ScoreTable of potential_decrease's scores on s."""
    return score_table(s, shade_for_phase(ctx.phase) if ctx.phase <= 2 else ctx.registry)
