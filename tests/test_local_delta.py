"""Differential tests of the local move deltas against full recomputation.

apply_move scans only N^2[v] for the masks after the move, f_decrease
counts f of those masks without building a state, and F_decrease splits
only the pieces of C(v), v's retained-edge component, that hold a non-red
vertex of N[newly], stopping each search at 4 vertices. apply_move and
f_decrease are compared with the oracle move that recolors all n vertices
(oracles.apply_move_full). F_decrease is compared with the oracle that
re-splits all of C(v) (oracles.F_decrease_resplit) and with F_value on
fresh states, at every phase-3/4 state under the X-cycle registry that
maybe_advance froze, and at every state under the registry of the graph's
own cycles, which need not match the white subgraph. The games are played
on random trees, G(n, p), unions of cycles C_k (k >= 4, up to 40) and
cycles with pendant paths and chords. components() is compared with a
plain breadth-first search (oracles.components_bfs), and _discount with
the penalty of that search's kind. f_decreases, the
batch scorer, is compared with the oracle move on random sets of live
vertices, in games from both starts. The open witnesses memoized with F
are compared with their definition on components_bfs, and the cycles
they call open, the open-cycle count and cycle_status with the oracle
status (oracles._status) on those components, before and after every
move. The score tables, with the f- and F-decreases a
state inherits through step from the state before it, are compared with
the scores on fresh states, along mixed games and at the nodes of the
worst-case search (on paths, trees, cycles and unions of cycles); the
greedy and min-decrease moves read off them with full-scan oracles, and
the phase-2 and phase-3 tests on partly filled tables with the maxima of
the scores.
"""

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from domgame import (
    Color,
    F_decrease,
    F_value,
    Graph,
    PhaseContext,
    XCycleRegistry,
    apply_move,
    dominator_greedy,
    f_decrease,
    f_decreases,
    gen_cycle,
    gen_gnp_isolate_free,
    gen_path,
    gen_random_tree,
    init_state,
    is_over,
    legal_moves,
    maybe_advance,
    phase2_active,
    phase3_active,
    philox_rng,
    potential_decrease,
    shade_for_phase,
    staller_min_decrease,
    staller_worst_case,
)
from domgame import strategy
from domgame.phases import (
    CycleStatus,
    _discount,
    _F_memo,
    cycle_status,
    open_cycle_count,
    potential_table,
)
from domgame.residual import WEIGHT, live_mask, vertices_of
from domgame.strategy import opening, step
from oracles import (
    PENALTY,
    F_decrease_resplit,
    _status,
    apply_move_full,
    colors,
    components_bfs,
    cycle_closed,
    greedy_full_scan,
    max_F_decrease,
    max_f_decrease,
    min_decrease_full_scan,
    state_from_colors,
)

LIGHT, DARK = Color.LIGHT_BLUE, Color.DARK_BLUE


def cycle_union(lengths):
    """(graph, the member masks of its cycles): disjoint cycles C_k."""
    edges, cycles, off = [], [], 0
    for k in lengths:
        edges.extend((off + i, off + (i + 1) % k) for i in range(k))
        cycles.append((1 << k) - 1 << off)
        off += k
    return Graph.from_edges(off, edges), tuple(cycles)


def linked_cycles():
    """(graph, its cycles): two C6 joined by the edge 0-6."""
    g, cycles = cycle_union([6, 6])
    return Graph.from_edges(g.n, [*g.edges, (0, 6)]), cycles


@st.composite
def graphs(draw, tree_n, cycle_n):
    """(family, graph, the member masks of the graph's built-in cycles)
    with family "tree" (at most tree_n vertices), "gnp", "cycles" (up to 4
    disjoint C_k, k >= 4, at most cycle_n vertices in all) or "decorated"
    (C_k on 0..k-1, k at most cycle_n / 2, with pendant paths hung on its
    vertices and chords across it; a registry reads a chord as an edge of
    the cycle, since it is an edge of G between two members)."""
    family = draw(st.sampled_from(("tree", "gnp", "cycles", "decorated")))
    seed = draw(st.integers(0, 2**31))
    if family == "tree":
        return family, gen_random_tree(draw(st.integers(2, tree_n)), seed), ()
    if family == "gnp":
        return family, gen_gnp_isolate_free(draw(st.integers(2, 12)),
                                            draw(st.sampled_from((0.15, 0.3, 0.5))), seed), ()
    if family == "cycles":
        lengths = [draw(st.integers(4, cycle_n))]
        while cycle_n - sum(lengths) >= 4 and len(lengths) < 4 and draw(st.booleans()):
            lengths.append(draw(st.integers(4, cycle_n - sum(lengths))))
        return (family, *cycle_union(lengths))
    k = draw(st.integers(4, max(4, cycle_n // 2)))
    edges = [(i, (i + 1) % k) for i in range(k)]
    n = k
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, k - 1))
        for _ in range(draw(st.integers(1, 3))):
            edges.append((at, n))
            at, n = n, n + 1
    for _ in range(draw(st.integers(0, 2))):
        u = draw(st.integers(0, k - 1))
        w = (u + draw(st.integers(2, k - 2))) % k
        if all({u, w} != {a, b} for a, b in edges):
            edges.append((u, w))
    return family, Graph.from_edges(n, edges), ((1 << k) - 1,)


def phased_play(g, seed):
    """(state, context) before every move of one game, with the phase machine
    advanced by maybe_advance as in play_game; each move is the greedy
    Dominator's or a uniformly random one, chosen at random."""
    rng = philox_rng(seed)
    s = init_state(g)
    ctx = maybe_advance(PhaseContext(), s)
    out = []
    for idx in range(1, g.n + 1):  # every move dominates a new vertex
        if is_over(s):
            return out
        out.append((s, ctx))
        if int(rng.integers(0, 2)):
            v = dominator_greedy(ctx, s)
        else:
            moves = legal_moves(s)
            v = moves[int(rng.integers(0, len(moves)))]
        s = apply_move(s, v, shade_for_phase(ctx.phase))
        if idx % 2 == 0 and not is_over(s):
            ctx = maybe_advance(ctx, s)
    assert is_over(s), "the game outlasted n moves"
    return out


def fresh(s):
    """The same position rebuilt from its colors, with nothing memoized."""
    return state_from_colors(s.graph, colors(s))


def assert_mask_invariants(s):
    """red within dominated, light within dominated minus red, red exactly
    the dominated vertices whose closed neighborhood is dominated, and f
    the weight sum of the colors."""
    dom, red, light = s.dominated_mask, s.red_mask, s.light_mask
    assert red & ~dom == 0
    assert light & ~(dom & ~red) == 0
    assert red == sum(1 << v for v, closed in enumerate(s.graph.closed_masks)
                      if closed & ~dom == 0)
    assert s.f == sum(WEIGHT[c] for c in colors(s))


@given(drawn=graphs(16, 40), seed=st.integers(0, 2**31))
@settings(max_examples=150)
def test_apply_move_and_f_decrease_match_full_recompute(drawn, seed):
    _, g, _ = drawn
    for s, _ in phased_play(g, seed):
        assert_mask_invariants(s)
        for v in legal_moves(s):
            for shade in (LIGHT, DARK):
                want = apply_move_full(s, v, shade)
                got = apply_move(s, v, shade)
                assert_mask_invariants(got)
                assert colors(got) == colors(want)
                assert got.dominated_mask == want.dominated_mask
                assert got.red_mask == want.red_mask
                assert got.light_mask == want.light_mask
                assert got.f == want.f
                assert f_decrease(s, v, shade) == s.f - want.f


@given(drawn=graphs(24, 40), seed=st.integers(0, 2**31), first=st.sampled_from("DS"))
@settings(max_examples=150, deadline=None)
def test_f_decreases_match_the_oracle_move(drawn, seed, first):
    """At every state of a game played through step, each move the greedy
    Dominator's or a random legal one, f_decreases on the live vertices
    and on random submasks of them, and f_decrease on each live vertex,
    give under both shades the drop of f by the oracle move that recolors
    all n vertices. The states of phase 1 hold light blues."""
    _, g, _ = drawn
    rng = philox_rng(seed)
    s, ctx, idx = opening(g, first)
    while not is_over(s):
        live = live_mask(s)
        subs = [live] + [live & int.from_bytes(rng.bytes(g.n // 8 + 1), "little")
                         for _ in range(3)]
        for shade in (LIGHT, DARK):
            want = {x: s.f - apply_move_full(s, x, shade).f for x in vertices_of(live)}
            for xs in subs:
                assert f_decreases(s, xs, shade) == {x: want[x] for x in vertices_of(xs)}
            assert {x: f_decrease(s, x, shade) for x in want} == want
        v = dominator_greedy(ctx, s)
        if int(rng.integers(0, 2)):
            moves = legal_moves(s)
            v = moves[int(rng.integers(0, len(moves)))]
        s, ctx = step(ctx, s, idx, v)
        idx += 1


def shape_masks_bfs(s):
    """(vertices in components of order >= 4, vertices in BWB components)
    of s, read off components_bfs."""
    big = bwb = 0
    for kind, mask in components_bfs(s):
        if mask.bit_count() >= 4:
            big |= mask
        elif kind == "BWB":
            bwb |= mask
    return big, bwb


@given(drawn=graphs(40, 40), seed=st.integers(0, 2**31))
@example(drawn=("gnp", gen_cycle(3), ()), seed=0)  # K3: f drops by 15, no phase 3
@example(drawn=("decorated", *linked_cycles()), seed=0)  # a move near 0 or 6 touches both cycles
@settings(max_examples=300, deadline=None)
def test_F_decrease_matches_full_recompute(drawn, seed):
    family, g, cycles = drawn
    own = XCycleRegistry(cycles)
    checked = 0
    for s, ctx in phased_play(g, seed):
        regs = [own] if ctx.registry is None else [ctx.registry, own]
        posts = [fresh(apply_move_full(s, v, DARK)) for v in legal_moves(s)]
        for reg in regs:
            pre = fresh(s)
            F_pre = F_value(pre, reg)
            for v, post in zip(legal_moves(s), posts):
                dec = F_decrease(s, reg, v)
                assert dec == F_decrease_resplit(pre, reg, v)
                assert dec == F_pre - F_value(post, reg)
            assert F_value(s, reg) == F_pre
            shapes = shape_masks_bfs(pre)
            for i, members in enumerate(reg.cycles):
                status = cycle_status(reg, i, s)
                assert (status is CycleStatus.CLOSED) == cycle_closed(s, members)
                assert status is _status(reg, i, g.open_masks, pre.dominated_mask, pre.red_mask,
                                         *shapes)
        checked += ctx.registry is not None
    if family == "cycles":
        assert checked  # a union of cycles C_k, k >= 4, enters phase 3 before move 1


@given(drawn=graphs(40, 40), seed=st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_components_match_bfs(drawn, seed):
    """components() lists the masks of the breadth-first oracle, in its
    order, and _discount gives each the penalty of its oracle kind, at
    every state before a move and at the state after every legal move
    from it."""
    def listed(s):
        return [(_discount(c, s.dominated_mask, s.light_mask), c) for c in s.components()]

    def oracle(s):
        return [(PENALTY.get(kind, 0), mask) for kind, mask in components_bfs(s)]

    _, g, _ = drawn
    for s, ctx in phased_play(g, seed):
        assert listed(s) == oracle(s)
        for v in legal_moves(s):
            post = apply_move(s, v, shade_for_phase(ctx.phase))
            assert listed(post) == oracle(post)


@given(drawn=graphs(40, 40), seed=st.integers(0, 2**31))
@example(drawn=("cycles", *cycle_union([5, 6])), seed=0)  # a BWB component arises
@settings(max_examples=100, deadline=None)
def test_move_on_bwb_turns_it_red(drawn, seed):
    """A move on any vertex of a BWB component turns all three of its
    vertices red. F_decrease relies on it: the bwb bits it keeps on C(v)
    after such a move are all red, so they need not be cleared."""
    _, g, _ = drawn
    for s, _ in phased_play(g, seed):
        for kind, mask in components_bfs(s):
            if kind == "BWB":
                for v in vertices_of(mask):
                    for shade in (LIGHT, DARK):
                        assert apply_move(s, v, shade).red_mask & mask == mask


@given(drawn=graphs(40, 40), seed=st.integers(0, 2**31))
@example(drawn=("cycles", *cycle_union([5, 6])), seed=0)
@settings(max_examples=150, deadline=None)
def test_open_flags_from_witness_masks_match_status(drawn, seed):
    """At every state of a phased game and at the state after each legal
    move from it, under the frozen registry and the graph's own cycles,
    the open witnesses memoized with F are the dominated members of the
    components of order >= 4 (by components_bfs) with exactly one white
    neighbor, a cycle holds one exactly when the oracle _status on those
    components calls it open, open_cycle_count counts the cycles it calls
    open, and cycle_status gives its status."""
    _, g, cycles = drawn
    own = XCycleRegistry(cycles)
    opens = g.open_masks
    for s, ctx in phased_play(g, seed):
        regs = [own] if ctx.registry is None else [ctx.registry, own]
        for state in [s, *(apply_move(s, v, DARK) for v in legal_moves(s))]:
            dom, red = state.dominated_mask, state.red_mask
            big, bwb = shape_masks_bfs(fresh(state))
            for reg in regs:
                witness = _F_memo(state, reg)[5]
                assert witness == sum(1 << u for u in vertices_of(reg.member_mask & dom & big)
                                      if (opens[u] & ~dom).bit_count() == 1)
                statuses = [_status(reg, i, opens, dom, red, big, bwb) for i in range(len(reg))]
                for i, members in enumerate(reg.cycles):
                    assert bool(witness & members) == (statuses[i] is CycleStatus.OPEN)
                    assert cycle_status(reg, i, state) is statuses[i]
                assert open_cycle_count(state, reg) == statuses.count(CycleStatus.OPEN)


def assert_tables_exact(s):
    """Every score table on s (f's under a shade, F's under a registry) is
    well formed and holds only exact scores: no bucket is empty, the
    buckets are disjoint, their union is the scored mask, and each bucket's
    score is the score on the same position with nothing memoized, whether
    it was carried or scored there."""
    pre = fresh(s)
    for key, table in s.tables.items():
        union = 0
        for dec, mask in table.buckets.items():
            assert mask and not union & mask, dec
            union |= mask
            for v in vertices_of(mask):
                want = f_decrease(pre, v, key) if isinstance(key, Color) else F_decrease(pre, key, v)
                assert want == dec, (key, v, dec)
        assert union == table.scored


@given(drawn=graphs(40, 24), seed=st.integers(0, 2**31), first=st.sampled_from("DS"))
# a move on one piece of the C11 takes away open witnesses of the cycle;
# a vertex of another piece then scores one less, as its move now takes
# away the cycle's last one
@example(drawn=("cycles", *cycle_union([4, 11])), seed=0, first="D")
@settings(max_examples=100, deadline=None)
def test_carried_f_decreases_match_fresh_scores(drawn, seed, first):
    """Games played through step, each move the greedy Dominator's or a
    random legal one. At every state a random share of the legal moves is
    scored first and added to the active potential's table, so the tables
    are partly filled (they also hold the scores carried there; a
    carried vertex scored again stays in one bucket only if both scores
    agree); phase2_active and phase3_active on them
    answer as the maxima on the fresh position do, under the phase's
    registry or the graph's own cycles. Then the greedy and min-decrease
    moves are the full scans', and every table holds only exact scores."""
    _, g, cycles = drawn
    own = XCycleRegistry(cycles)
    rng = philox_rng(seed)
    s, ctx, idx = opening(g, first)
    while not is_over(s):
        reg = ctx.registry or own
        for v in legal_moves(s):
            if int(rng.integers(0, 3)) == 0:
                potential_table(ctx, s).add(v, potential_decrease(ctx, s, v))
        pre = fresh(s)
        assert phase2_active(s) == (max_f_decrease(pre) >= 11)
        assert phase3_active(s, reg) == (max_F_decrease(pre, reg) >= 10)
        v = dominator_greedy(ctx, s)
        assert v == greedy_full_scan(ctx, s)
        assert staller_min_decrease(ctx, s) == min_decrease_full_scan(ctx, s)
        assert_tables_exact(s)
        if int(rng.integers(0, 2)):
            moves = legal_moves(s)
            v = moves[int(rng.integers(0, len(moves)))]
        s, ctx = step(ctx, s, idx, v)
        idx += 1


def search_graph(family, n, seed):
    """P_n, a random tree, C_n, or the union of C_k and C_(n-k) with k >= 4
    and n - k >= 4 drawn at random (C_n when n < 8)."""
    if family == "path":
        return gen_path(n)
    if family == "tree":
        return gen_random_tree(n, seed)
    if family == "cycle" or n < 8:
        return gen_cycle(n)
    k = int(philox_rng(seed).integers(4, n - 3))
    return cycle_union([k, n - k])[0]


@given(family=st.sampled_from(("path", "tree", "cycle", "cycles")), n=st.integers(4, 12),
       seed=st.integers(0, 2**31), first=st.sampled_from("DS"))
@example(family="cycles", n=12, seed=0, first="D")
@settings(max_examples=80, deadline=None)
def test_worst_case_search_carries_exact_scores(family, n, seed, first):
    """At every node of the worst-case search the memo holds only exact
    scores, and at every Dominator node the greedy move is the full scan's.
    Paths and trees have moves whose ball N[A] ∪ N[W' ∩ N^2[A]] (A newly
    dominated, W' white after the move) leaves non-red vertices out, so
    the search carries f-scores there. On cycles and their unions the
    search reaches phases 3-4, and a move on v there leaves out the
    components that meet no X-cycle meeting C(v), so F-scores carry."""
    g = search_graph(family, n, seed)
    nodes = {}

    def recording_step(ctx, state, idx, v, positions=None):
        post, next_ctx = step(ctx, state, idx, v, positions=positions)
        nodes.setdefault(id(state), (ctx, state, idx))
        nodes.setdefault(id(post), (next_ctx, post, idx + 1))
        return post, next_ctx

    with mock.patch.object(strategy, "step", recording_step):
        staller_worst_case(g, first=first)
    for ctx, s, idx in nodes.values():
        assert_tables_exact(s)
        if idx % 2 == 1 and not is_over(s):
            assert dominator_greedy(ctx, s) == greedy_full_scan(ctx, s)
            assert staller_min_decrease(ctx, s) == min_decrease_full_scan(ctx, s)
            assert_tables_exact(s)
