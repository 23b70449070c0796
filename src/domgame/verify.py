"""Transcript audits and the corpus runner.

Every claim of CLAIMS is checked here: the bounds once per graph, the
rest along the moves of strategy's move loop. Each transcript claim is one
entry of a table, and one runner walks a game's moves once for all of
them: the moves run_corpus played or searched, or a transcript's replayed
by verify_transcript, where a recorded field unlike the rebuilt one is a
failure, so a mutated transcript gets a replayable witness. LATER2,
LIGHTBLUE_STRUCT and PH2_LEAF are checked by delta (_ball).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from math import comb

from .errors import ConfigError
from .graph import (
    Graph,
    enumerate_labeled_graphs,
    gen_caterpillar,
    gen_cycle,
    gen_gnp_isolate_free,
    gen_path,
    gen_random_tree,
    gen_star,
    philox_rng,
    write_edge_list,
)
from .phases import (
    CycleStatus,
    PhaseContext,
    XCycleRegistry,
    _phase2_end,
    _white_degree_violation,
    F_decrease,
    cycle_status,
    open_cycle_count,
)
from .residual import (
    Color,
    ResidualState,
    _neighborhood,
    apply_move,  # unused: perfbench/tests/test_harness.py expects it bound here
    live_mask,
    retained_piece,
    score_table,
    vertices_of,
    white_degree,
    white_mask,
)
from .solver import DEFAULT_SOLVER_CAP, solve_game
from .strategy import (
    DEFAULT_WORST_CASE_CAP,
    Move,
    MoveRecord,
    Transcript,
    _chooser,
    _moves,
    _playable,
    _transcript,
    _worst_line,
    dominator_greedy,
    make_staller_random,
    staller_min_decrease,
)

# Each claim id and the inequality it checks, in the paper's terms and in
# report order; README's Claims table repeats these rows (tests/test_readme.py).
CLAIMS = {
    "PH1_MOVES": "in phases 1–2 each Dominator move drops f by at least 11, each Staller move by "
                 "at least 5, and the Staller-start pre-move by at least 6",
    "AV1": "phase 1's moves drop f by at least 8 a move in total, 2 less when Staller starts",
    "AV2": "phase 2's moves drop f by at least 8 a move in total",
    "END2_STRUCT": "where phase 2 ends, a white vertex has at most 2 white neighbors and a blue "
                   "one at most 3, white components are vertices, edges or cycles of length at "
                   "least 4, and no white vertex with only blue neighbors has a blue neighbor with "
                   "3 white ones",
    "LATER2": "in phases 3–4 a white vertex has at most 2 white neighbors and a blue one at most "
              "3, and a white vertex with no white neighbor has a blue neighbor with 1 or 2 white "
              "ones",
    "XCYCLE_DROP": "in phases 3–4 a move closes at most one open X-cycle, or, on a blue vertex off "
                   "the X-cycles, at most as many as its white neighbors",
    "PH2_LEAF": "before each phase-3 move and the first phase-4 move, if a blue vertex with one "
                "white neighbor lies in a component neither of order 2 nor a BWB, some move drops "
                "F by at least 11",
    "XCYCLE_FINISH": "in phases 3–4 a move that closes an open X-cycle drops F by at least 11 if "
                     "Dominator's, 6 if Staller's",
    "PH2_ST5_PAIR": "in phase 3 each Dominator move drops F by at least 10 and each Staller move "
                    "by at least 5, a Staller drop of 5 is answered by a Dominator drop of at "
                    "least 11, and the Staller move that ends phase 3 drops at least 6",
    "AV3": "phase 3's moves drop F by at least 8 a move in total",
    "END3_STRUCT": "where phase 4 starts, every X-cycle is finished, a blue vertex has at most one "
                   "white neighbor, and a white vertex has no white neighbor and at most 2 blue "
                   "ones",
    "PH4_MOVES": "in phase 4 each move drops F by at least 8, turns its whole component red and "
                 "recolors no vertex outside it",
    "AV4": "phase 4's moves drop F by at least 8 a move in total",
    "TOTAL_5N": "the decreases sum to 5n − (f* − F*), f* and F* being f and F where phase 2 ends, "
                "and 8 a move, 2 less when Staller starts, plus f* − F* is at most 5n",
    "BOUND_5N8": "γg ≤ w ≤ ⌊5n/8⌋, w being the longest game any Staller forces on the greedy "
                 "Dominator when Dominator starts",
    "BOUND_STALLER_START": "γg′ ≤ w′ ≤ ⌊(5n+2)/8⌋, w′ being the longest game any Staller forces on "
                           "the greedy Dominator when Staller starts",
    "GAP_GG_GGP": "|γg − γg′| ≤ 1",
    "LIGHTBLUE_STRUCT": "from phase 2 on, each white leaf's support is light blue, or white with "
                        "every other neighbor light blue, or dark blue with every other neighbor "
                        "light blue or red",
}
CLAIM_IDS = tuple(CLAIMS)
BOUND_CHECKS = ("BOUND_5N8", "BOUND_STALLER_START", "GAP_GG_GGP")
TRANSCRIPT_CHECKS = tuple(c for c in CLAIM_IDS if c not in BOUND_CHECKS)

PASS = "pass"
FAIL = "fail"
VACUOUS = "pass-vacuous"
SKIPPED = "skipped-exact"


@dataclass(frozen=True)
class Witness:
    """Everything needed to replay a failure."""

    graph_text: str
    move_index: int | None = None
    snapshot: str | None = None
    transcript_prefix: tuple = ()
    note: str = ""

    def to_json_dict(self) -> dict:
        return {"graph": self.graph_text, "move_index": self.move_index,
                "snapshot": self.snapshot,
                "transcript_prefix": list(self.transcript_prefix), "note": self.note}


@dataclass(frozen=True)
class ClaimReport:
    claim: str
    status: str
    detail: str = ""
    witness: Witness | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_json_dict(self) -> dict:
        d = {"id": self.claim, "status": self.status, "detail": self.detail}
        if self.witness is not None:
            d["witness"] = self.witness.to_json_dict()
        return d


@dataclass
class _Replay:
    graph: Graph
    transcript: Transcript  # as recorded
    replayed: Transcript    # rebuilt from the moves
    states: list[ResidualState]  # the state after the first k moves, k = 0..len
    registry: XCycleRegistry | None
    last_site: dict[str, int] = field(default_factory=dict)  # per claim checked by delta (_ball)
    balls: tuple = ()  # (last site, site, _delta_balls) of the last _ball
    leaves: int = 0  # _nonspecial_blue_leaves at PH2_LEAF's last site


def _replay(g: Graph, t: Transcript) -> list[Move]:
    """The moves of a ground-truth re-execution of the recorded vertices.
    Structural problems (bad indices, illegal or missing moves) raise
    ValueError; the other record fields are NOT trusted here and are
    compared by the claim runner.
    """
    if not t.records:
        raise ValueError("empty transcript")
    records = iter(enumerate(t.records))

    def choose(ctx: PhaseContext, state: ResidualState, idx: int) -> int:
        pos, r = next(records, (None, None))
        if r is None:
            raise ValueError("transcript ends before the game is over")
        mover = "D" if idx % 2 == 1 else "S"
        if r.index != idx or r.mover != mover:
            raise ValueError(f"record {pos}: expected move {idx} by {mover}, "
                             f"got {r.index} by {r.mover}")
        if not _playable(state, r.vertex):
            raise ValueError(f"record {pos}: vertex {r.vertex} is not playable")
        return r.vertex

    moves = list(_moves(g, t.first_player, choose))
    if next(records, None) is not None:
        raise ValueError("transcript continues after the game ended")
    return moves


def _states(moves: list[Move]) -> list[ResidualState]:
    return [pre for _, pre, _, _, _ in moves] + [moves[-1][4]]


def _fail(claim: str, rep: _Replay, k: int, note: str,
          move_index: int | None = None) -> ClaimReport:
    """A failure witnessed by the state after the first k moves."""
    w = Witness(write_edge_list(rep.graph), move_index, rep.states[k].snapshot(),
                tuple(r.to_json_dict() for r in rep.transcript.records[:k]), note)
    return ClaimReport(claim, FAIL, note, w)


def _integrity_note(r: MoveRecord, m: MoveRecord) -> str | None:
    """How the recorded record r disagrees with the replayed record m."""
    if (r.phase, r.kind, r.decrease) != (m.phase, m.kind, m.decrease):
        return (f"recorded (phase={r.phase}, kind={r.kind}, decrease={r.decrease}) "
                f"but replay gives (phase={m.phase}, kind={m.kind}, decrease={m.decrease})")
    if r.snapshot_hash != m.snapshot_hash:
        return "recorded snapshot hash disagrees with replay"
    return None


def _closed(rep: _Replay, k: int) -> int:
    """Open X-cycles that move k, from phase 3 on, closed (the open counts
    are memoized with the F values the replayed decreases read)."""
    pre, post = rep.states[k], rep.states[k + 1]
    return open_cycle_count(pre, rep.registry) - open_cycle_count(post, rep.registry)


# ---------------------------------------------------------------------------
# the transcript claims: one table, walked by one runner

_IDLE = object()  # a check's answer at a site that misses the claim's precondition


@dataclass(frozen=True)
class _Claim:
    """One transcript claim. ``on`` names its sites and ``at`` picks them:
    "move" sites are moves k with at(phase of move k, of move k + 1);
    "state" sites are the states after k moves with at(phase of move k - 1,
    of move k), phase 0 standing for no move; "end" is the final state, if
    at(replay). check(replay, k) gives a failure note, None if the claim
    holds at site k, or _IDLE if site k misses the claim's precondition.
    """

    id: str
    on: str
    at: Callable
    check: Callable
    vacuous: str
    passed: Callable[[_Replay, int, int], str]


def _counted(text: str) -> Callable[[_Replay, int, int], str]:
    """A pass detail that formats only the checked and exercised counts."""
    return lambda rep, checked, exercised: text.format(checked=checked, exercised=exercised)


def _required(rep: _Replay, phase: int) -> int:
    """The total decrease guaranteed in one phase: 8 a move, but 6 for the
    Staller-start pre-move (index 0, in phase 1)."""
    pre_move = phase == 1 and rep.replayed.records[0].index == 0
    return 8 * rep.replayed.phase_lengths[phase - 1] - 2 * pre_move


def _budget(rep: _Replay, phase: int) -> tuple[int, int, int]:
    """(total decrease, the total guaranteed, moves) of one phase."""
    got = sum(r.decrease for r in rep.replayed.records if r.phase == phase)
    return got, _required(rep, phase), rep.replayed.phase_lengths[phase - 1]


def _budget_claim(phase: int) -> _Claim:
    def check(rep: _Replay, k: int) -> str | None:
        got, required, p = _budget(rep, phase)
        if got < required:
            return f"phase-{phase} total decrease {got} < {required} over {p} moves"
        return None

    return _Claim(f"AV{phase}", "end", lambda rep: rep.replayed.phase_lengths[phase - 1] > 0,
                  check, f"phase {phase} is empty",
                  lambda rep, *_: "total {} >= {} over {} moves".format(*_budget(rep, phase)))


def _ph1_note(rep: _Replay, k: int) -> str | None:
    m = rep.replayed.records[k]
    bound = 11 if m.mover == "D" else (6 if m.index == 0 else 5)
    if m.decrease < bound:
        return f"move {m.index} ({m.mover}) dropped f by {m.decrease} < {bound}"
    return None


def _delta_balls(pre: ResidualState, post: ResidualState, radius: int,
                 balls: list[int] | None = None) -> list[int]:
    """[N^0[D], N^1[D], ..., N^radius[D]], the vertices within distance 0,
    1, ..., radius of D, the vertices whose color differs between pre and
    post; `balls`, a shorter such list of the same two states, is
    extended in place. D is read off the two states' masks, not off a
    move, so each ball is exact for any pair of states."""
    if not balls:
        balls = [(pre.dominated_mask ^ post.dominated_mask) | (pre.red_mask ^ post.red_mask)
                 | (pre.light_mask ^ post.light_mask)]
    while len(balls) <= radius:
        balls.append(_neighborhood(pre.graph.closed_masks, balls[-1]))
    return balls


# The claims checked by delta, each a conjunction of vertex verdicts (for
# PH2_LEAF, its blue leaves), and how far from its vertex a verdict reads
# colors.
_RADIUS = {"LATER2": 2, "LIGHTBLUE_STRUCT": 2, "PH2_LEAF": 3}


def _ball(rep: _Replay, claim: str, k: int) -> int:
    """Where a claim of _RADIUS is checked at site k: at every vertex (-1)
    at its first site, else on the ball of its radius between the state
    at its last site and state k (_delta_balls, shared by the claims).
    The runner checks a claim only while it holds, so it still holds
    outside the ball, where no verdict read a changed color."""
    last = rep.last_site.get(claim)
    rep.last_site[claim] = k
    if last is None:
        return -1
    radius = _RADIUS[claim]
    balls = _delta_balls(rep.states[last], rep.states[k], radius,
                         rep.balls[2] if rep.balls[:2] == (last, k) else None)
    rep.balls = (last, k, balls)
    return balls[radius]


def _later2_violation(state: ResidualState, within: int = -1) -> str | None:
    """LATER2 over the vertices of `within` (every vertex by default); a
    vertex's verdict reads colors within distance 2 of it."""
    note = _white_degree_violation(state, within)
    if note:
        return note
    adjacency = state.graph.adjacency
    # a white vertex with no white neighbor has only blue neighbors
    for v in vertices_of(white_mask(state) & within):
        if white_degree(state, v) == 0 and not any(
                white_degree(state, w) in (1, 2) for w in adjacency[v]):
            return f"vertex {v} has no blue neighbor of white-degree 1 or 2"
    return None


def _xcycle_drop_note(rep: _Replay, k: int) -> str | None:
    m, pre, closed = rep.replayed.records[k], rep.states[k], _closed(rep, k)
    if not pre.dominated_mask >> m.vertex & 1 or rep.registry.member_mask >> m.vertex & 1:
        bound = 1
    else:
        bound = white_degree(pre, m.vertex)
    if closed > bound:
        return f"move {m.index} closed {closed} open X-cycles, bound {bound}"
    return None


def _nonspecial_blue_leaves(state: ResidualState, within: int = -1) -> int:
    """The mask of the blue vertices v of `within` (every vertex by default)
    with exactly one white neighbor w whose component C(v) neither has
    order 2 nor is a BWB; decided at v, with no components, from colors
    within distance 3 of v. v's only retained edge is vw and w keeps all
    its edges, so C(v) has order 2 exactly when v is w's only neighbor,
    and is a BWB exactly when w has one other neighbor b, b is dominated,
    and w is b's only white neighbor."""
    opens, dom = state.graph.open_masks, state.dominated_mask
    leaves = 0
    for v in vertices_of(dom & ~state.red_mask & within):
        if white_degree(state, v) == 1:
            others = opens[(opens[v] & ~dom).bit_length() - 1] & ~(1 << v)  # w's other neighbors
            b = others.bit_length() - 1
            if others and not (others == 1 << b and dom >> b & 1 and white_degree(state, b) == 1):
                leaves |= 1 << v
    return leaves


def _ph2_leaf_holds(rep: _Replay, k: int, first: int = 0) -> bool:
    """Some move at the state before move k drops F by at least 11. The
    move played is tried first: its replayed decrease is its F_decrease
    (phases 3-4 shade dark), so only when it falls short are the others
    read off the state's F table or scored, those of the mask `first`
    and then the rest, each in id order, up to the first that
    qualifies."""
    if rep.replayed.records[k].decrease >= 11:
        return True
    state, reg = rep.states[k], rep.registry
    table, live = score_table(state, reg), live_mask(state)
    score = partial(F_decrease, state, reg)
    return table.reaches(11, live & first, score) or table.reaches(11, live, score)


def _ph2_leaf_note(rep: _Replay, k: int):
    """The leaves are carried from the claim's last site and decided again
    within distance 3 of a recolored vertex. The moves on the other
    neighbors of w, the smallest leaf's white neighbor, are scored first:
    one of them dropped F by 11 at each of the 1,374 sites of the
    cycles_phase3 and verify_corpus benchmark universes where the played
    move did not."""
    state, ball = rep.states[k], _ball(rep, "PH2_LEAF", k)
    rep.leaves = leaves = rep.leaves & ~ball | _nonspecial_blue_leaves(state, ball)
    if not leaves:
        return _IDLE
    v, opens = (leaves & -leaves).bit_length() - 1, state.graph.open_masks
    w = (opens[v] & ~state.dominated_mask).bit_length() - 1
    if _ph2_leaf_holds(rep, k, opens[w] & ~(1 << v)):
        return None
    return f"blue leaf {v} in a non-special component but no move drops F by 11"


def _xcycle_finish_note(rep: _Replay, k: int):
    m = rep.replayed.records[k]
    if _closed(rep, k) < 1:
        return _IDLE
    need = 11 if m.mover == "D" else 6
    if m.decrease < need:
        return f"move {m.index} ({m.mover}) closed an open X-cycle with S={m.decrease} < {need}"
    return None


def _ph3_note(rep: _Replay, k: int) -> str | None:
    records = rep.replayed.records
    m = records[k]
    if m.mover == "D":
        if m.decrease < 10:
            return f"Dominator move {m.index} dropped F by {m.decrease} < 10"
        return None
    if m.decrease < 5:
        return f"Staller move {m.index} dropped F by {m.decrease} < 5"
    nxt = records[k + 1] if k + 1 < len(records) else None
    if m.decrease == 5:
        if nxt is None:
            return f"game ended right after minimal Staller move {m.index}"
        if nxt.phase != 3 or nxt.mover != "D" or nxt.decrease < 11:
            return (f"Staller move {m.index} dropped F by 5 but the reply dropped "
                    f"{nxt.decrease} < 11")
    if nxt is not None and nxt.phase == 4 and m.decrease < 6:
        return f"phase-ending Staller move {m.index} dropped F by {m.decrease} < 6"
    return None


def _end3_note(rep: _Replay, k: int) -> str | None:
    state, reg = rep.states[k], rep.registry
    for i in range(len(reg)):
        st = cycle_status(reg, i, state)
        if st is not CycleStatus.FINISHED:
            return f"X-cycle {i} is {st.value}, not finished, when phase 4 starts"
    blue = state.dominated_mask & ~state.red_mask
    for v in vertices_of(blue | white_mask(state)):
        dw = white_degree(state, v)
        if blue >> v & 1:
            if dw >= 2:
                return f"blue vertex {v} still has {dw} white neighbors"
            continue
        if dw > 0:
            return f"white vertex {v} still has {dw} white neighbors"
        blues = (state.graph.open_masks[v] & blue).bit_count()
        if blues > 2:
            return f"white vertex {v} has {blues} blue neighbors"
    # so each component is a white with its one or two blue leaves: a WB+, WB- or BWB
    return None


def _ph4_note(rep: _Replay, k: int) -> str | None:
    m = rep.replayed.records[k]
    if m.decrease < 8:
        return f"move {m.index} dropped F by {m.decrease} < 8"
    pre, post = rep.states[k], rep.states[k + 1]
    inside = retained_piece(pre.graph.open_masks, pre.dominated_mask, m.vertex, pre.graph.n)
    non_red = inside & ~post.red_mask
    recolored = ((pre.dominated_mask ^ post.dominated_mask) | (pre.red_mask ^ post.red_mask)
                 | (pre.light_mask ^ post.light_mask)) & ~inside
    if non_red | recolored:
        u = vertices_of(non_red | recolored)[0]
        if non_red >> u & 1:
            return f"move {m.index} left vertex {u} of its component non-red"
        return f"move {m.index} recolored vertex {u} outside its component"
    return None


def _five_n(rep: _Replay) -> tuple[int, int, int]:
    """(5n, the telescoped budget's right-hand side, the f/F handoff gap)."""
    f_star, F_star = rep.replayed.f_at_phase2_end, rep.replayed.F_at_phase2_end
    gap = 0 if f_star is None else f_star - F_star
    return 5 * rep.graph.n, sum(_required(rep, p) for p in (1, 2, 3, 4)) + gap, gap


def _total_note(rep: _Replay, k: int) -> str | None:
    t, got = rep.transcript, rep.replayed
    n5, rhs, gap = _five_n(rep)
    total = sum(r.decrease for r in got.records)
    if total != n5 - gap:
        return f"decreases sum to {total}, expected 5n - gap = {n5 - gap}"
    if t.phase_lengths != got.phase_lengths:
        return f"recorded phase lengths {t.phase_lengths} but replay gives {got.phase_lengths}"
    if (t.f_at_phase2_end, t.F_at_phase2_end) != (got.f_at_phase2_end, got.F_at_phase2_end):
        return "recorded potential handoff disagrees with replay"
    if n5 < rhs:
        return f"budget violated: 5n={n5} < {rhs}"
    return None


def _lightblue_violation(state: ResidualState, within: int = -1) -> str | None:
    """LIGHTBLUE_STRUCT over the leaves of `within` (every vertex by
    default); a leaf's verdict reads colors on N[u], within distance 2 of
    the leaf, u its support. The dark-blue case is needed: a white support
    can be dominated later through a light neighbor and turn dark while the
    leaf stays white."""
    g = state.graph
    dom, red, light = state.dominated_mask, state.red_mask, state.light_mask
    for v in vertices_of(g.leaf_mask & ~dom & within):
        u = g.adjacency[v][0]
        others = g.open_masks[u] & ~(1 << v)
        if not dom >> u & 1:
            if not others & ~light:
                continue
            shade = Color.WHITE
        else:  # u has the white neighbor v, so it is blue
            if light >> u & 1 or not others & ~(light | red):
                continue
            shade = Color.DARK_BLUE
        return (f"white leaf {v}: support {u} is {shade.name} and some "
                f"3-path through it lacks a light blue or red vertex")
    return None


def _lightblue_note(rep: _Replay, k: int) -> str | None:
    """_lightblue_violation at site k over its _ball, which is not needed
    where no leaf of G is white."""
    state = rep.states[k]
    if not state.graph.leaf_mask & ~state.dominated_mask:
        return None
    return _lightblue_violation(state, _ball(rep, "LIGHTBLUE_STRUCT", k))


# In TRANSCRIPT_CHECKS order. A state site between phases b and a lies in
# phase 3 or later when max(b, a) >= 3; b < 3 <= a is the f/F handoff,
# where the X-cycle registry is frozen.
_CLAIMS = (
    _Claim("PH1_MOVES", "move", lambda ph, nxt: ph <= 2, _ph1_note,
           "no phase-1/2 moves", _counted("{checked} moves checked")),
    _budget_claim(1),
    _budget_claim(2),
    # Fails only when the engine's freeze lets a violation through: the
    # move loop's freeze_registry raises on any violation this check reports.
    _Claim("END2_STRUCT", "state", lambda b, a: b < 3 <= a,
           lambda rep, k: _phase2_end(rep.states[k])[0],
           "game ended before the potential handoff", _counted("handoff state structure holds")),
    # Cannot newly fail after its first site, the handoff, where
    # _phase2_end forces it: white degrees only fall, so the degree bounds
    # stay true, and a white vertex that loses its last white neighbor u
    # has u turn blue, with white degree 1 or 2. The check by delta stays
    # as a cheap check of color monotonicity (test_verify).
    _Claim("LATER2", "state", lambda b, a: max(b, a) >= 3,
           lambda rep, k: _later2_violation(rep.states[k], _ball(rep, "LATER2", k)),
           "phases 3-4 never reached", _counted("{checked} states checked")),
    # no line of play found breaks it (tests/claim_cases.py); engine faults do (test_verify)
    _Claim("XCYCLE_DROP", "move", lambda ph, nxt: ph >= 3, _xcycle_drop_note,
           "phases 3-4 never reached", _counted("{checked} moves checked")),
    # no state found breaks it; an undercounting F_decrease does (test_verify)
    _Claim("PH2_LEAF", "state", lambda b, a: b <= 3 <= a, _ph2_leaf_note,
           "phase 3 never reached",
           _counted("{exercised} of {checked} states exhibited the precondition")),
    _Claim("XCYCLE_FINISH", "move", lambda ph, nxt: ph >= 3, _xcycle_finish_note,
           "phases 3-4 never reached", _counted("{exercised} open-cycle-closing moves checked")),
    _Claim("PH2_ST5_PAIR", "move", lambda ph, nxt: ph == 3, _ph3_note,
           "phase 3 is empty", _counted("{checked} moves checked")),
    _budget_claim(3),
    _Claim("END3_STRUCT", "state", lambda b, a: b < 4 == a, _end3_note,
           "phase 4 never reached", _counted("phase-4 start structure holds")),
    _Claim("PH4_MOVES", "move", lambda ph, nxt: ph == 4, _ph4_note,
           "phase 4 is empty", _counted("{checked} moves checked")),
    _budget_claim(4),  # implied by PH4_MOVES's 8 a move, so engine faults break both (test_verify)
    _Claim("TOTAL_5N", "move", lambda ph, nxt: nxt == 0, _total_note, "no moves",
           lambda rep, *_: "5n={} >= {}, gap={}".format(*_five_n(rep))),
    # Cannot newly fail after its first site, where phase 1's end forces
    # it: a white leaf's support is never red, a light vertex stays light
    # until it turns red, and a white support, whose other neighbors are
    # then light, turns light blue, or dark blue with them light or red.
    _Claim("LIGHTBLUE_STRUCT", "state", lambda b, a: max(b, a) >= 2, _lightblue_note,
           "game ended inside phase 1", _counted("{checked} states checked")),
)
# the move and state claims at each pair of phases, 0 standing for no move
_AT = {on: {(x, y): tuple(c for c in _CLAIMS if c.on == on and c.at(x, y))
            for x in range(5) for y in range(5)} for on in ("move", "state")}
_AT_END = tuple(c for c in _CLAIMS if c.on == "end")
_INTEGRITY_CLAIM = {1: "PH1_MOVES", 2: "PH1_MOVES", 3: "PH2_ST5_PAIR", 4: "PH4_MOVES"}


def _audit(moves: list[Move], rebuilt: Transcript, transcript: Transcript) -> list[ClaimReport]:
    """Walk a game's moves once: each claim at its sites up to its first
    failure, and once per move, before the bound of that phase's move claim,
    `transcript` as recorded against `rebuilt` from the moves (_transcript)."""
    rep = _Replay(moves[0][1].graph, transcript, rebuilt, _states(moves), moves[-1][0].registry)
    records, replayed = transcript.records, rebuilt.records
    checked = dict.fromkeys(TRANSCRIPT_CHECKS, 0)
    exercised = dict.fromkeys(TRANSCRIPT_CHECKS, 0)
    failed: dict[str, ClaimReport] = {}

    def visit(c: _Claim, k: int, after: int, move_index: int | None = None) -> None:
        """Check c at site k; a failure is witnessed by the state after `after` moves."""
        checked[c.id] += 1
        owns = move_index is not None and c.id == _INTEGRITY_CLAIM[replayed[k].phase]
        note = (owns and _integrity_note(records[k], replayed[k])) or c.check(rep, k)
        if note is not _IDLE:
            exercised[c.id] += 1
            if note:
                failed[c.id] = _fail(c.id, rep, after, note, move_index)

    phases = [0] + [m.phase for m in replayed] + [0, 0]
    for k in range(len(replayed) + 1):
        before, phase, after = phases[k], phases[k + 1], phases[k + 2]
        for c in _AT["state"][before, phase]:
            if c.id not in failed:
                visit(c, k, k)
        if not phase:
            break
        for c in _AT["move"][phase, after]:
            if c.id not in failed:
                visit(c, k, k + 1, replayed[k].index)
    for c in _AT_END:
        if c.at(rep):
            visit(c, len(replayed), len(replayed))
    return [failed.get(c.id) or (
        ClaimReport(c.id, PASS, c.passed(rep, checked[c.id], exercised[c.id])) if checked[c.id]
        else ClaimReport(c.id, VACUOUS, c.vacuous)) for c in _CLAIMS]


def verify_transcript(g: Graph, t: Transcript) -> list[ClaimReport]:
    """One report per transcript claim, in TRANSCRIPT_CHECKS order.

    The transcript must come from the greedy Dominator (the claims
    presuppose his strategy) and must belong to the given graph.

    The policy labels are not audited as such. ``staller_policy`` is never
    read: the claims must hold against every Staller, so the Staller's
    moves are checked whatever chose them. The Dominator's moves are
    audited through their replayed potential decreases and snapshot hashes,
    against the recorded ones and against the claims' bounds.
    """
    if t.dominator_policy != "greedy":
        raise ValueError("claims presuppose the greedy dominator; transcript has "
                         f"dominator_policy={t.dominator_policy!r}")
    if t.graph_hash != g.graph_hash or t.n != g.n or t.m != g.edge_count:
        raise ValueError("transcript does not belong to this graph")
    moves = _replay(g, t)
    return _audit(moves, _transcript(g, t.first_player, t.dominator_policy, t.staller_policy, moves), t)


WorstCases = tuple[list[Move], list[Move]]


def _worst_cases(g: Graph, worst_cap: int) -> WorstCases | None:
    """The worst-case search's longest lines (strategy._worst_line) with
    Dominator and with Staller starting, or None when n exceeds the cap."""
    return None if g.n > worst_cap else tuple(_worst_line(g, worst_cap, f) for f in "DS")


def verify_bounds(g: Graph, solver_cap: int = DEFAULT_SOLVER_CAP,
                  worst_cap: int = DEFAULT_WORST_CASE_CAP) -> list[ClaimReport]:
    """Exact and greedy-worst-case length bounds plus the start-gap property."""
    return _bound_reports(g, solver_cap, _worst_cases(g, worst_cap))


def _bound_reports(g: Graph, solver_cap: int, worst: WorstCases | None) -> list[ClaimReport]:
    """verify_bounds on the lengths of worst-case lines searched by the caller."""
    gv = solve_game(g, solver_cap) if g.n <= solver_cap else None
    wc_d, wc_s = (None, None) if worst is None else map(len, worst)

    def fail(claim: str, note: str) -> ClaimReport:
        return ClaimReport(claim, FAIL, note, Witness(write_edge_list(g), note=note))

    def length_bound(claim: str, bound: int, name: str, value: int | None, length: str,
                     wc: int | None, skip_notes: tuple[str, str]) -> ClaimReport:
        """The exact value `name` and the greedy worst case wc (`length` in
        notes), each None beyond its cap, against bound; skip_notes stand in
        the pass detail for a skipped value and a skipped search."""
        if value is None and wc is None:
            return ClaimReport(claim, SKIPPED, f"n={g.n} exceeds both caps")
        if value is not None and value > bound:
            return fail(claim, f"{name}={value} > {bound}")
        if wc is not None and wc > bound:
            return fail(claim, f"{length} {wc} > {bound}")
        if value is not None and wc is not None and value > wc:
            return fail(claim, f"{name}={value} exceeds {length} {wc}")
        parts = (skip_notes[0] if value is None else f"{name}={value}",
                 skip_notes[1] if wc is None else f"worst={wc}")
        return ClaimReport(claim, PASS, f"{', '.join(p for p in parts if p)} <= {bound}")

    reports = [
        length_bound("BOUND_5N8", 5 * g.n // 8, "gamma_g", gv and gv.gamma_g,
                     "greedy worst-case length", wc_d,
                     ("exact skipped (cap)", "worst-case skipped (cap)")),
        length_bound("BOUND_STALLER_START", (5 * g.n + 2) // 8, "gamma_g'",
                     gv and gv.gamma_g_prime, "greedy worst-case Staller-start length",
                     wc_s, ("", "")),
    ]
    if gv is None:
        reports.append(ClaimReport("GAP_GG_GGP", SKIPPED, f"n={g.n} exceeds solver cap"))
    elif abs(gv.gamma_g - gv.gamma_g_prime) > 1:
        reports.append(fail("GAP_GG_GGP", f"|{gv.gamma_g} - {gv.gamma_g_prime}| > 1"))
    else:
        reports.append(ClaimReport("GAP_GG_GGP", PASS,
                                   f"gamma_g={gv.gamma_g}, gamma_g'={gv.gamma_g_prime}"))
    return reports


# ---------------------------------------------------------------------------
# corpus specifications and the runner


@dataclass(frozen=True)
class Caps:
    solver_n: int = DEFAULT_SOLVER_CAP
    worst_case_n: int = DEFAULT_WORST_CASE_CAP


@dataclass
class FamilySpec:
    name: str
    params: dict = field(default_factory=dict)
    seeds: list = field(default_factory=lambda: [0])


@dataclass
class CorpusSpec:
    families: list
    checks: list
    caps: Caps = field(default_factory=Caps)


_CHECK_ALIASES = {"all": CLAIM_IDS, "bounds": BOUND_CHECKS, "transcript": TRANSCRIPT_CHECKS}


def _resolve_checks(raw) -> list[str]:
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list):
        raise ConfigError(f"checks must be a check id or a list of them, got {raw!r}")
    out: list[str] = []
    for item in raw:
        if not isinstance(item, str):
            raise ConfigError(f"check ids are strings, got {item!r}")
        if item in _CHECK_ALIASES:
            out.extend(_CHECK_ALIASES[item])
        elif item in CLAIM_IDS:
            out.append(item)
        else:
            raise ConfigError(f"unknown check id {item!r}")
    return [c for c in CLAIM_IDS if c in set(out)]


def _check_keys(what: str, d: dict, allowed: tuple[str, ...]) -> None:
    unknown = [key for key in d if key not in allowed]
    if unknown:
        raise ConfigError(f"{what}: unknown key {unknown[0]!r} (expected one of {', '.join(allowed)})")


def _check_fields(what: str, d: dict, types: dict[str, tuple[type, ...]]) -> None:
    """Reject keys outside `types` and values whose exact JSON type is not
    listed for their key (so a bool is not an int)."""
    _check_keys(what, d, tuple(types))
    for key, value in d.items():
        if type(value) not in types[key]:
            kind = "a number" if float in types[key] else "an integer"
            raise ConfigError(f"{what}: {key!r} must be {kind}, got {value!r}")


_INT, _NUM = (int,), (int, float)


# A spec is refused before any graph is built past these vertex counts.
# On one Xeon core under Python 3.11, a 10,000-vertex path builds in
# 0.02 s, the 998,990 vertices of paths n = 2..1413 in 2.4 s at 142 MB
# peak RSS. G(n, p) draws once per vertex pair: n = 2,000 at p = 0.3
# takes 5.5 s and 231 MB on its own, so gnp's size counts the pairs too.
MAX_GRAPH_VERTICES = 10_000
MAX_CORPUS_VERTICES = 1_000_000


@dataclass(frozen=True)
class Family:
    """One corpus family. `params` maps each spec parameter to (accepted
    JSON types, default), a None default marking a required one; `items`
    builds the (label, graph, seeds) list from the seed tuple and every
    parameter; `size` bounds from the same arguments, building nothing,
    (the vertices of its largest graph, the vertices of all its graphs,
    plus their vertex pairs for gnp);
    `gen` is the `domgame gen` form (singular name, positional parameter
    names, builder from their strings and --seed), or None."""

    params: dict
    items: Callable[..., list]
    size: Callable[..., tuple[int, int]]
    gen: tuple | None


def _per_size(label: str, build: Callable[[int], Graph]) -> Callable[..., list]:
    return lambda seeds, n_min, n_max: [(f"{label}-{n}", build(n), seeds)
                                        for n in range(n_min, n_max + 1)]


def _span(lo: int, hi: int, scale: int = 1, copies: int = 1) -> tuple[int, int]:
    """(largest, total) vertex counts of `copies` graphs on scale * k
    vertices for each k in lo..hi."""
    if hi < lo:
        return 0, 0
    return scale * hi, copies * scale * (lo + hi) * (hi - lo + 1) // 2


def _once(seeds, n_min, n_max):
    return _span(n_min, n_max)


def _each_seed(seeds, n_min, n_max):
    return _span(n_min, n_max, copies=len(seeds))


def _gnp_size(seeds, n_min, n_max, p):
    """gnp's size: a graph on n vertices counts n + n(n - 1)/2, as it
    draws once per vertex pair."""
    if not 0 < float(p) <= 1:
        raise ConfigError(f"family 'gnp': 'p' must be in (0, 1], got {p}")
    largest, vertices = _each_seed(seeds, n_min, n_max)
    pairs = comb(n_max + 1, 3) - comb(n_min, 3) if vertices else 0  # n(n - 1)/2 over n_min..n_max
    return largest, vertices + len(seeds) * pairs


def _labeled_size(seeds, n_min, n_max):
    """all_labeled's size: n_max must be at most 6, as in
    enumerate_labeled_graphs, and n counts 2^(n choose 2) candidates."""
    if n_max > 6:
        raise ConfigError(f"family 'all_labeled': 'n_max' must be at most 6, got {n_max}")
    return n_max, sum(n << n * (n - 1) // 2 for n in range(n_min, n_max + 1))


def _caterpillars(seeds, spine_min, spine_max, max_legs):
    # a fresh stream per (spine, seed), so a label names one graph in every spec
    items = []
    for seed in seeds:
        for spine in range(spine_min, spine_max + 1):
            rng = philox_rng(seed)
            legs = [int(rng.integers(0, max_legs + 1)) for _ in range(spine)]
            if legs == [0]:  # a lone spine vertex needs a leg
                legs = [1]
            items.append((f"caterpillar-{spine}-s{seed}", gen_caterpillar(spine, legs), (seed,)))
    return items


def _gnp(seeds, n_min, n_max, p):
    p = float(p)
    return [(f"gnp-{n}-p{p}-s{seed}", gen_gnp_isolate_free(n, p, seed), (seed,))
            for n in range(n_min, n_max + 1) for seed in seeds]


_SIZES = {"n_min": (_INT, 2), "n_max": (_INT, None)}
FAMILIES = {
    "paths": Family(_SIZES, _per_size("path", gen_path), _once,
                    ("path", ("n",), lambda a, seed: gen_path(int(a[0])))),
    "cycles": Family({**_SIZES, "n_min": (_INT, 3)}, _per_size("cycle", gen_cycle), _once,
                     ("cycle", ("n",), lambda a, seed: gen_cycle(int(a[0])))),
    "stars": Family(_SIZES, _per_size("star", gen_star), _once,
                    ("star", ("n",), lambda a, seed: gen_star(int(a[0])))),
    "caterpillars": Family(
        {"spine_min": (_INT, 1), "spine_max": (_INT, None), "max_legs": (_INT, 2)}, _caterpillars,
        lambda seeds, spine_min, spine_max, max_legs:
            _span(spine_min, spine_max, 1 + max_legs, len(seeds)),
        ("caterpillar", ("spine", "legs"),
         lambda a, seed: gen_caterpillar(int(a[0]), [int(x) for x in a[1].split(",")]))),
    "trees": Family(_SIZES, lambda seeds, n_min, n_max: [
        (f"tree-{n}-s{seed}", gen_random_tree(n, seed), (seed,))
        for n in range(n_min, n_max + 1) for seed in seeds],
        _each_seed, ("tree", ("n",), lambda a, seed: gen_random_tree(int(a[0]), seed))),
    "gnp": Family({**_SIZES, "p": (_NUM, 0.3)}, _gnp,
                  _gnp_size, ("gnp", ("n", "p"),
                   lambda a, seed: gen_gnp_isolate_free(int(a[0]), float(a[1]), seed))),
    "all_labeled": Family(_SIZES, lambda seeds, n_min, n_max: [
        (f"all{n}-{i}", g, seeds)
        for n in range(n_min, n_max + 1) for i, g in enumerate(enumerate_labeled_graphs(n))],
        _labeled_size, None),
}


def check_size(name: str, seeds: tuple, params: dict, total: int = 0) -> int:
    """`total` plus the vertices of family `name`'s graphs for these seeds
    and params, counted by its `size` before anything is built. Raises
    ConfigError if one graph passes MAX_GRAPH_VERTICES or the sum passes
    MAX_CORPUS_VERTICES."""
    largest, vertices = FAMILIES[name].size(seeds, **params)
    total += vertices
    if largest > MAX_GRAPH_VERTICES:
        raise ConfigError(f"family {name!r} would build a graph of {largest} vertices, "
                          f"past the limit of {MAX_GRAPH_VERTICES}")
    if total > MAX_CORPUS_VERTICES:
        raise ConfigError(f"family {name!r} would bring the corpus to {total} vertices, "
                          f"past the limit of {MAX_CORPUS_VERTICES}")
    return total


def spec_from_json(d: dict) -> CorpusSpec:
    """Parse a corpus spec; the one place that rejects a bad one.

    Every key, type, family name, required parameter, sign, seed and cap
    is checked here (ConfigError), and each family's params come back with
    defaults filled in. So are the sizes, counted by each family's `size`
    before anything is built: no graph may pass MAX_GRAPH_VERTICES, the
    corpus may not pass MAX_CORPUS_VERTICES, and all_labeled stops at 6.
    Only a family that yields no graph is left to corpus_items.
    """
    if not isinstance(d, dict):
        raise ConfigError("corpus spec must be a JSON object")
    _check_keys("corpus spec", d, ("families", "checks", "caps"))
    fam_list = d.get("families", [])
    if not isinstance(fam_list, list):
        raise ConfigError("families must be a list")
    families, total = [], 0
    for f in fam_list:
        if not isinstance(f, dict) or not isinstance(f.get("name"), str):
            raise ConfigError(f"bad family entry {f!r}: needs a JSON object with a string 'name'")
        _check_keys("family entry", f, ("name", "params", "seeds"))
        name, params, seeds = f["name"], f.get("params", {}), f.get("seeds", [0])
        if name not in FAMILIES:
            raise ConfigError(f"unknown family name {name!r} (expected one of {', '.join(FAMILIES)})")
        if not isinstance(params, dict):
            raise ConfigError(f"bad family entry {f!r}: params must be a JSON object")
        declared = FAMILIES[name].params
        _check_fields(f"family {name!r} params", params,
                      {k: types for k, (types, _) in declared.items()})
        params = {k: params.get(k, default) for k, (_, default) in declared.items()}
        missing = [k for k, value in params.items() if value is None]
        if missing:
            raise ConfigError(f"family {name!r} needs the parameter {missing[0]!r}")
        negative = [k for k, value in params.items() if type(value) is int and value < 0]
        if negative:
            raise ConfigError(f"family {name!r}: {negative[0]!r} must be non-negative, "
                              f"got {params[negative[0]]}")
        if not isinstance(seeds, list) or not all(type(seed) is int and seed >= 0 for seed in seeds):
            raise ConfigError(f"bad family entry {f!r}: seeds must be non-negative integers")
        if any(seed >= 2**128 for seed in seeds):  # Philox's key has 128 bits
            raise ConfigError(f"family {name!r}: 'seeds' must be below 2**128")
        total = check_size(name, tuple(seeds), params, total)
        families.append(FamilySpec(name, params, list(seeds)))
    default_checks = ["all"] if families else []
    checks = _resolve_checks(d.get("checks", default_checks))
    if checks and not families:
        raise ConfigError("checks requested but no families given")
    caps_d = d.get("caps", {})
    if not isinstance(caps_d, dict):
        raise ConfigError(f"caps must be a JSON object, got {caps_d!r}")
    _check_fields("caps", caps_d, {"solver_n": _INT, "worst_case_n": _INT})
    if any(cap < 0 for cap in caps_d.values()):
        raise ConfigError(f"caps must be non-negative integers, got {caps_d!r}")
    caps = Caps(**caps_d)
    if caps.solver_n > DEFAULT_SOLVER_CAP or caps.worst_case_n > DEFAULT_WORST_CASE_CAP:
        raise ConfigError("caps may only lower the module limits "
                          f"(solver {DEFAULT_SOLVER_CAP}, worst-case {DEFAULT_WORST_CASE_CAP})")
    return CorpusSpec(families, checks, caps)


def builtin_spec(name: str) -> CorpusSpec:
    if name == "smoke":
        return spec_from_json({
            "families": [
                {"name": "paths", "params": {"n_min": 2, "n_max": 10}, "seeds": [0, 1]},
                {"name": "cycles", "params": {"n_min": 3, "n_max": 10}, "seeds": [0, 1]},
                {"name": "stars", "params": {"n_min": 2, "n_max": 10}, "seeds": [0, 1]},
            ],
            "checks": ["all"],
        })
    raise ConfigError(f"unknown builtin spec {name!r}")


def corpus_items(spec: CorpusSpec) -> list[tuple[str, Graph, tuple[int, ...]]]:
    """Deterministic (label, graph, seeds) list for a spec from
    spec_from_json; a family that yields no graph raises ConfigError."""
    items: list[tuple[str, Graph, tuple[int, ...]]] = []
    for fam in spec.families:
        fam_items = FAMILIES[fam.name].items(tuple(fam.seeds), **fam.params)
        if not fam_items:
            raise ConfigError(f"family {fam.name!r} yields no graph "
                              f"(params {fam.params}, seeds {fam.seeds})")
        items.extend(fam_items)
    return items


def _audits(g: Graph, seeds: tuple[int, ...],
            worst: WorstCases | None) -> Iterator[tuple[Transcript, list[ClaimReport]]]:
    """(transcript, reports) of each game audited on g, from its moves as
    played, none replayed: the worst-case lines the search kept, then the
    random and min-decrease Stallers' games, each start in turn."""
    for first, line in zip("DS", worst or ()):
        t = _transcript(g, first, dominator_greedy.policy_name, "worst_case", line)
        yield t, _audit(line, t, t)
    games = [(make_staller_random(seed), first) for seed in seeds for first in "DS"]
    for staller, first in games + [(staller_min_decrease, "D"), (staller_min_decrease, "S")]:
        moves = list(_moves(g, first, _chooser(dominator_greedy, staller)))
        t = _transcript(g, first, dominator_greedy.policy_name, staller.policy_name, moves)
        yield t, _audit(moves, t, t)


@dataclass
class GraphReport:
    label: str
    n: int
    m: int
    graph_hash: str
    reports: tuple[ClaimReport, ...]
    ratio_d: float | None
    ratio_s: float | None
    transcripts_checked: int

    def to_json_dict(self) -> dict:
        return {"graph": {"label": self.label, "n": self.n, "m": self.m,
                          "hash": self.graph_hash},
                "checks": [r.to_json_dict() for r in self.reports],
                "ratios": {"dominator_start": self.ratio_d, "staller_start": self.ratio_s},
                "transcripts_checked": self.transcripts_checked}


_STATUS_RANK = {FAIL: 0, PASS: 1, VACUOUS: 2, SKIPPED: 3}


def _collapse(claim: str, reports: list[ClaimReport]) -> ClaimReport:
    best = min(reports, key=lambda r: _STATUS_RANK[r.status])
    if len(reports) == 1:
        return best
    summary = ", ".join(f"{k}={v}" for k, v in sorted(Counter(r.status for r in reports).items()))
    return ClaimReport(claim, best.status, f"{summary}; {best.detail}", best.witness)


def _verify_item(label: str, g: Graph, seeds: tuple[int, ...], checks: list[str],
                 caps: Caps) -> GraphReport:
    by_claim: dict[str, list[ClaimReport]] = {}
    ratios: dict[str, list[float]] = {"D": [], "S": []}  # audited game lengths over n, per start
    # one search per start, shared by the checks that read it: all but GAP_GG_GGP
    worst = _worst_cases(g, caps.worst_case_n) if set(checks) - {"GAP_GG_GGP"} else None
    if any(c in BOUND_CHECKS for c in checks):
        for r in _bound_reports(g, caps.solver_n, worst):
            if r.claim in checks:
                by_claim.setdefault(r.claim, []).append(r)
    if any(c in TRANSCRIPT_CHECKS for c in checks):
        for t, reports in _audits(g, seeds, worst):
            ratios[t.first_player].append(t.total_moves / g.n)
            for r in reports:
                if r.claim in checks:
                    by_claim.setdefault(r.claim, []).append(r)
    collapsed = tuple(_collapse(c, by_claim[c]) for c in CLAIM_IDS if c in by_claim)
    return GraphReport(label, g.n, g.edge_count, g.graph_hash, collapsed,
                       max(ratios["D"], default=None), max(ratios["S"], default=None),
                       len(ratios["D"]) + len(ratios["S"]))


@dataclass
class AggregateReport:
    checks: list[str]
    graphs: list[GraphReport]

    @property
    def failures(self) -> list[tuple[str, ClaimReport]]:
        return [(gr.label, r) for gr in self.graphs for r in gr.reports if r.status == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for gr in self.graphs:
            for r in gr.reports:
                slot = out.setdefault(r.claim, {})
                slot[r.status] = slot.get(r.status, 0) + 1
        return out

    def worst_ratio(self, first: str = "D") -> tuple[float, str] | None:
        ratios = ((gr.ratio_d if first == "D" else gr.ratio_s, gr.label) for gr in self.graphs)
        return max((r for r in ratios if r[0] is not None), key=lambda r: r[0], default=None)

    def to_json_dict(self) -> dict:
        wd, ws = self.worst_ratio("D"), self.worst_ratio("S")
        return {
            "checks": list(self.checks),
            "graph_count": len(self.graphs),
            "counts": self.counts(),
            "worst_ratio_dominator_start": None if wd is None else {"ratio": wd[0], "graph": wd[1]},
            "worst_ratio_staller_start": None if ws is None else {"ratio": ws[0], "graph": ws[1]},
            "failures": [{"graph": label, **r.to_json_dict()} for label, r in self.failures],
            "graphs": [gr.to_json_dict() for gr in self.graphs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_csv(self) -> str:
        lines = ["label,n,m,hash,transcripts,ratio_d,ratio_s,pass,fail,vacuous,skipped,first_failure"]
        for gr in self.graphs:
            tally = Counter(r.status for r in gr.reports)
            first_fail = next((r.claim for r in gr.reports if r.status == FAIL), "")
            rd = "" if gr.ratio_d is None else f"{gr.ratio_d:.4f}"
            rs = "" if gr.ratio_s is None else f"{gr.ratio_s:.4f}"
            lines.append(f"{gr.label},{gr.n},{gr.m},{gr.graph_hash},{gr.transcripts_checked},"
                         f"{rd},{rs},{tally[PASS]},{tally[FAIL]},{tally[VACUOUS]},"
                         f"{tally[SKIPPED]},{first_fail}")
        return "\n".join(lines) + "\n"


def run_corpus(spec: CorpusSpec, jobs: int = 1) -> AggregateReport:
    """Verify every corpus graph; deterministic for a fixed spec.

    Items are independent, so jobs > 1 fans them out to worker processes,
    at most one per CPU; each worker receives the pickled Graph. The
    reducer keeps corpus order regardless. jobs < 1 raises ConfigError.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    items = corpus_items(spec)
    if jobs > 1 and len(items) > 1:
        import multiprocessing

        payloads = [(label, g, seeds, spec.checks, spec.caps) for label, g, seeds in items]
        with multiprocessing.Pool(jobs) as pool:
            graphs = pool.starmap(_verify_item, payloads)
    else:
        graphs = [_verify_item(label, g, seeds, spec.checks, spec.caps)
                  for label, g, seeds in items]
    return AggregateReport(list(spec.checks), graphs)
