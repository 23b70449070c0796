"""Move policies for both players, the move loop and the transcript builder.

A policy is a callable ``policy(ctx, state) -> vertex`` carrying a
``policy_name`` attribute. The Dominator of record is the greedy rule;
Staller policies only need to return legal vertices. The move rule lives in
opening() and step(), the only code that plays a move. _moves() is the one
loop over them, which play_game and the corpus runner drive with policies
(_chooser), the verifier's replay with a transcript's vertices; the search
steps each child it searches and each Staller child it cuts in phases 1-2.
_record() and _transcript() build every record and transcript.

opening() and step() take an optional table of positions, a dict that the
corpus runner makes for one graph and hands to every line it plays or
searches there, so that those lines share the states they reach with the
scores, F summaries and phase tests cached on them. step() keys a position
by the dominated, red and light masks after the move, the phase and the
X-cycle registry the move was played in, and the mover (step's docstring
says why that key is exact); opening() keys it by the first player.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import IllegalMoveError, ResourceLimitError
from .graph import Graph, philox_rng
from .phases import (
    F_value,
    PhaseContext,
    carry_F_decreases,
    maybe_advance,
    potential_decrease,
    potential_kind,
    potential_table,
    shade_for_phase,
)
from .residual import (
    ResidualState,
    ScoreTable,
    apply_move,
    carry_f_decreases,
    f_decreases,
    init_state,
    is_over,
    legal_moves,
    live_mask,
    nth_vertex,
    vertices_of,
)

DEFAULT_WORST_CASE_CAP = 12

Policy = Callable[[PhaseContext, ResidualState], int]


@dataclass(frozen=True)
class MoveRecord:
    index: int
    mover: str                # "D" or "S"
    vertex: int
    phase: int
    kind: str                 # "f" or "F"
    decrease: int
    snapshot_hash: str

    def to_json_dict(self) -> dict:
        return {"index": self.index, "mover": self.mover, "vertex": self.vertex,
                "phase": self.phase, "kind": self.kind, "decrease": self.decrease,
                "snapshot_hash": self.snapshot_hash}


@dataclass(frozen=True)
class Transcript:
    graph_hash: str
    n: int
    m: int
    first_player: str         # "D" or "S"
    dominator_policy: str
    staller_policy: str
    records: tuple[MoveRecord, ...]
    phase_lengths: tuple[int, int, int, int]
    f_at_phase2_end: int | None
    F_at_phase2_end: int | None

    @property
    def total_moves(self) -> int:
        return len(self.records)

    def to_text(self) -> str:
        lines = [f"{r.index} {r.mover} {r.vertex} {r.phase} {r.kind} {r.decrease}"
                 for r in self.records]
        p1, p2, p3, p4 = self.phase_lengths
        lines.append(f"# p1={p1} p2={p2} p3={p3} p4={p4} total={self.total_moves} final_potential=0")
        f2 = "-" if self.f_at_phase2_end is None else self.f_at_phase2_end
        F2 = "-" if self.F_at_phase2_end is None else self.F_at_phase2_end
        lines.append(f"# f_at_phase2_end={f2} F_at_phase2_end={F2}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "graph": {"hash": self.graph_hash, "n": self.n, "m": self.m},
            "first_player": self.first_player,
            "dominator_policy": self.dominator_policy,
            "staller_policy": self.staller_policy,
            "records": [r.to_json_dict() for r in self.records],
            "phase_lengths": list(self.phase_lengths),
            "total_moves": self.total_moves,
            "f_at_phase2_end": self.f_at_phase2_end,
            "F_at_phase2_end": self.F_at_phase2_end,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _scored_table(ctx: PhaseContext, s: ResidualState) -> ScoreTable:
    """The active potential's ScoreTable on s with every legal move scored:
    in phases 1-2 the ones not yet scored are scored in one f_decreases
    pass, in phases 3-4 one by one with potential_decrease."""
    live = live_mask(s)
    if not live:
        raise IllegalMoveError("no legal moves: the game is over")
    table = potential_table(ctx, s)
    rest = live & ~table.scored
    if ctx.phase <= 2:
        return table.add_all(f_decreases(s, rest, shade_for_phase(ctx.phase)))
    return table.add_all({v: potential_decrease(ctx, s, v) for v in vertices_of(rest)})


def dominator_greedy(ctx: PhaseContext, s: ResidualState) -> int:
    """Play a vertex maximizing the active potential decrease; ties go to
    the smallest vertex id."""
    return _scored_table(ctx, s).top()


dominator_greedy.policy_name = "greedy"


def staller_min_decrease(ctx: PhaseContext, s: ResidualState) -> int:
    """Adversarial probe: minimize the active potential decrease, ties to
    the smallest vertex id."""
    return _scored_table(ctx, s).bottom()


staller_min_decrease.policy_name = "min_decrease"


def make_staller_random(seed: int) -> Policy:
    """Uniformly random legal move under a Philox stream keyed by seed."""
    rng = philox_rng(seed)

    def staller_random(ctx: PhaseContext, s: ResidualState) -> int:
        live = live_mask(s)
        if not live:
            raise IllegalMoveError("no legal moves: the game is over")
        return nth_vertex(live, int(rng.integers(0, live.bit_count())))

    staller_random.policy_name = "random"
    return staller_random


def opening(g: Graph, first: str,
            positions: dict | None = None) -> tuple[ResidualState, PhaseContext, int]:
    """(state, phase context, index) before the first move of a game.

    Dominator moves at odd indices: with first="S" the opening move has
    index 0 and is played in phase 1; with first="D" the phase machine is
    evaluated before move 1. With a table of positions (step) the games
    of one start share their opening, kept there under `first`.
    """
    if first not in ("D", "S"):
        raise ValueError("first must be 'D' or 'S'")
    if positions is not None and first in positions:
        return positions[first]
    state = init_state(g)
    ctx, idx = (PhaseContext(), 0) if first == "S" else (maybe_advance(PhaseContext(), state), 1)
    if positions is not None:
        positions[first] = state, ctx, idx
    return state, ctx, idx


def step(ctx: PhaseContext, state: ResidualState, idx: int, v: int,
         positions: dict | None = None) -> tuple[ResidualState, PhaseContext]:
    """Play v as move idx: (state after it, phase context for the next move).

    Play, replay and the worst-case search all call it. New blues are light
    only in phase 1. The phase machine is evaluated after even-indexed
    moves that leave the game running, never after the last move. A move
    hands the state after it the scores of the state before it that it
    cannot have changed (residual.carry_f_decreases in phases 1-2,
    phases.carry_F_decreases in 3-4), so the greedy move and the phase
    tests there score only the vertices near the move anew.

    With a table of positions, the result is kept under the key (dominated,
    red and light masks after the move, ctx.phase, ctx.registry, idx & 1)
    and a move that reaches a kept key returns the kept pair instead. The
    hit is exact, since the result depends on that key alone: the phase
    machine reads the masks after the move and ctx's phase and registry,
    and runs only after a Staller move (even idx); what a state holds
    beyond its masks (its tables and F_memo) caches pure functions of
    them; and the freeze audit a hit skips already ran on the same
    position in the same phase and registry. The key holds ctx's two
    fields rather than ctx, whose dataclass hash costs more.
    """
    shade = shade_for_phase(ctx.phase)
    post = apply_move(state, v, shade)
    if positions is not None:
        key = (post.dominated_mask, post.red_mask, post.light_mask, ctx.phase, ctx.registry, idx & 1)
        known = positions.get(key)
        if known is not None:
            return known
    if ctx.phase <= 2:
        carry_f_decreases(state, post, v, shade)
    else:
        carry_F_decreases(state, post, v, ctx.registry)
    if idx % 2 == 0 and not is_over(post):
        ctx = maybe_advance(ctx, post)
    if positions is not None:
        positions[key] = post, ctx
    return post, ctx


def move_decrease(ctx: PhaseContext, pre: ResidualState, post: ResidualState) -> int:
    """Drop of the potential active in ctx's phase (f or F) from pre to post."""
    if ctx.phase <= 2:
        return pre.f - post.f
    return F_value(pre, ctx.registry) - F_value(post, ctx.registry)


Move = tuple[PhaseContext, ResidualState, int, int, ResidualState]


def _playable(state: ResidualState, v: object) -> bool:
    """True if v is a vertex id of state's graph that is not yet red; a
    bool is an int subclass but no vertex id."""
    return type(v) is int and 0 <= v < state.graph.n and not state.red_mask >> v & 1


def _moves(g: Graph, first: str, choose: Callable[[PhaseContext, ResidualState, int], int],
           positions: dict | None = None) -> Iterator[Move]:
    """The one move loop: from opening(), choose(ctx, state, idx) names each
    move, step() plays it, and (ctx, state, idx, v, post) is yielded until
    the game is over. positions is step()'s table of positions."""
    state, ctx, idx = opening(g, first, positions=positions)
    while not is_over(state):
        v = choose(ctx, state, idx)
        post, next_ctx = step(ctx, state, idx, v, positions=positions)
        yield ctx, state, idx, v, post
        state, ctx, idx = post, next_ctx, idx + 1


def _record(ctx: PhaseContext, pre: ResidualState, idx: int, v: int,
            post: ResidualState) -> MoveRecord:
    """The record of v played as move idx in ctx's phase, taking pre to post."""
    return MoveRecord(idx, "D" if idx % 2 == 1 else "S", v, ctx.phase, potential_kind(ctx.phase),
                      move_decrease(ctx, pre, post), post.snapshot_hash())


def _transcript(g: Graph, first: str, dominator_policy: str, staller_policy: str,
                moves: Iterable[Move]) -> Transcript:
    """The transcript of a finished game from its moves. The f/F handoff
    is read off the pre state of the first move of phase 3 or 4, the state
    where phase 2 ended; it stays None in a game that never gets there."""
    records, lengths = [], [0, 0, 0, 0]
    f2 = F2 = None
    for ctx, pre, idx, v, post in moves:
        if ctx.phase >= 3 and f2 is None:
            f2, F2 = pre.f, F_value(pre, ctx.registry)
        records.append(_record(ctx, pre, idx, v, post))
        lengths[ctx.phase - 1] += 1
    return Transcript(
        graph_hash=g.graph_hash, n=g.n, m=g.edge_count, first_player=first,
        dominator_policy=dominator_policy, staller_policy=staller_policy,
        records=tuple(records), phase_lengths=tuple(lengths),
        f_at_phase2_end=f2, F_at_phase2_end=F2)


def _chooser(dominator: Policy, staller: Policy) -> Callable[[PhaseContext, ResidualState, int], int]:
    """_moves()'s choose for a game of two policies, the Dominator's at odd indices."""
    def choose(ctx: PhaseContext, state: ResidualState, idx: int) -> int:
        policy = dominator if idx % 2 == 1 else staller
        v = policy(ctx, state)
        if not _playable(state, v):
            name = getattr(policy, "policy_name", "policy")
            raise IllegalMoveError(f"policy {name!r} returned illegal vertex {v!r}")
        return v

    return choose


def play_game(g: Graph, dominator: Policy, staller: Policy, first: str = "D") -> Transcript:
    """Run one full game and return its transcript.

    The moves come from _moves(), the loop the verifier's replay shares;
    every move goes through step(), which holds the move rule shared with
    the worst-case search as well.
    """
    return _transcript(g, first, getattr(dominator, "policy_name", "custom"),
                       getattr(staller, "policy_name", "custom"),
                       _moves(g, first, _chooser(dominator, staller)))


def _worst_line(g: Graph, cap: int, first: str, positions: dict | None = None) -> list[Move]:
    """The longest line any Staller can force against the greedy Dominator.

    Exhaustive depth-first branching over Staller moves only (Dominator's
    replies are forced), each move played through step(). Play after a
    move depends only on the colors, the phase and the registry, and the
    moves of one node share the colors, the phase context and the shade,
    so two of them lead to equal colors exactly when they dominate the same
    new vertices. A move whose newly dominated set equals that of a smaller
    vertex's move is skipped before it is played: that subtree was just
    searched and cannot give a longer line.

    Every move dominates at least one new (white) vertex, so a line through
    a child has at most `moves made + 1 + |undominated| - |newly|` moves:
    the child's move, then at most one per vertex it leaves undominated. A
    child whose bound is not above the longest line found so far is cut:
    the search goes no further from it. A cut Staller move in phase 1 or 2
    is still played through step() and its result dropped, so a phase-2
    end on it is audited (phases.freeze_registry raises on a violation) as
    on every other child. The greedy's cut moves and cut Staller moves
    from phase 3 on run no audit in step() and are skipped outright. There
    is no table of values across nodes; the cutoff would turn its values
    into bounds. step()'s table of positions, when given, shares the
    positions themselves: a node that two Staller lines reach is built,
    scored and audited once. Returns the first longest line in
    ascending-id order, each move as _moves() yields it, with the states
    that line played.
    """
    if first not in ("D", "S"):
        raise ValueError("first must be 'D' or 'S'")
    if g.n > cap:
        raise ResourceLimitError(f"n={g.n} exceeds the worst-case search cap {cap}")
    full = (1 << g.n) - 1
    masks = g.closed_masks
    line: list[Move] = []
    best = line.copy()  # the first longest finished line

    def search(state: ResidualState, ctx: PhaseContext, idx: int) -> None:
        nonlocal best
        dom = state.dominated_mask
        left = len(line) + 1 + (full & ~dom).bit_count()  # bound on a line through a child
        options = [dominator_greedy(ctx, state)] if idx % 2 == 1 else legal_moves(state)
        seen: set[int] = set()
        for v in options:
            newly = masks[v] & ~dom
            if newly in seen:
                continue
            seen.add(newly)
            if left - newly.bit_count() <= len(best):  # best grows in this loop
                if idx % 2 == 0 and ctx.phase <= 2:
                    step(ctx, state, idx, v, positions=positions)
                continue
            nxt, nctx = step(ctx, state, idx, v, positions=positions)
            line.append((ctx, state, idx, v, nxt))
            if is_over(nxt):
                best = line.copy()
            else:
                search(nxt, nctx, idx + 1)
            line.pop()

    search(*opening(g, first, positions=positions))
    return best


def staller_worst_case(g: Graph, cap: int = DEFAULT_WORST_CASE_CAP,
                       first: str = "D") -> tuple[int, Transcript]:
    """(length, witness transcript) of the longest game any Staller can force (_worst_line)."""
    line = _worst_line(g, cap, first)
    return len(line), _transcript(g, first, dominator_greedy.policy_name, "worst_case", line)
