"""Differential tests of the local move deltas against full recomputation.

apply_move scans only N^2[v] for the masks after the move, f_decrease
counts f of those masks without building a state, and F_decrease re-splits
only v's retained-edge component. Each is compared with the oracle move that
recolors all n vertices (oracles.apply_move_full) and with F_value on
fresh states, at states reached by play on random trees, G(n, p) and
unions of cycles C_k (k >= 4), including phase-3/4 states whose X-cycle
registry was frozen by maybe_advance.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from domgame import (
    Color,
    F_decrease,
    F_value,
    Graph,
    PhaseContext,
    apply_move,
    dominator_greedy,
    f_decrease,
    gen_cycle,
    gen_gnp_isolate_free,
    gen_random_tree,
    init_state,
    is_over,
    legal_moves,
    maybe_advance,
    philox_rng,
    shade_for_phase,
)
from domgame.residual import WEIGHT
from oracles import apply_move_full, state_from_colors

LIGHT, DARK = Color.LIGHT_BLUE, Color.DARK_BLUE


def cycle_union(lengths):
    edges, off = [], 0
    for k in lengths:
        edges.extend((off + i, off + (i + 1) % k) for i in range(k))
        off += k
    return Graph.from_edges(off, edges)


@st.composite
def graphs(draw):
    """(family, graph) with family "tree", "gnp" or "cycles"."""
    family = draw(st.sampled_from(("tree", "gnp", "cycles")))
    seed = draw(st.integers(0, 2**31))
    if family == "tree":
        return family, gen_random_tree(draw(st.integers(2, 16)), seed)
    if family == "gnp":
        return family, gen_gnp_isolate_free(draw(st.integers(2, 12)),
                                            draw(st.sampled_from((0.15, 0.3, 0.5))), seed)
    return family, cycle_union(draw(st.lists(st.integers(4, 10), min_size=1, max_size=4)))


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
    return state_from_colors(s.graph, s.colors)


def assert_mask_invariants(s):
    """red within dominated, light within dominated minus red, red exactly
    the dominated vertices whose closed neighborhood is dominated, and f
    the weight sum of the colors."""
    dom, red, light = s.dominated_mask, s.red_mask, s.light_mask
    assert red & ~dom == 0
    assert light & ~(dom & ~red) == 0
    assert red == sum(1 << v for v, closed in enumerate(s.graph.closed_masks)
                      if closed & ~dom == 0)
    assert s.f == sum(WEIGHT[c] for c in s.colors)


@given(drawn=graphs(), seed=st.integers(0, 2**31))
@settings(max_examples=150)
def test_apply_move_and_f_decrease_match_full_recompute(drawn, seed):
    _, g = drawn
    for s, _ in phased_play(g, seed):
        assert_mask_invariants(s)
        for v in legal_moves(s):
            for shade in (LIGHT, DARK):
                want = apply_move_full(s, v, shade)
                got = apply_move(s, v, shade)
                assert_mask_invariants(got)
                assert got.colors == want.colors
                assert got.dominated_mask == want.dominated_mask
                assert got.red_mask == want.red_mask
                assert got.light_mask == want.light_mask
                assert got.f == want.f
                assert f_decrease(s, v, shade) == s.f - want.f


@given(drawn=graphs(), seed=st.integers(0, 2**31))
@example(drawn=("gnp", gen_cycle(3)), seed=0)  # K3: f drops by 15, no phase 3
@settings(max_examples=150)
def test_F_decrease_matches_full_recompute(drawn, seed):
    family, g = drawn
    checked = 0
    for s, ctx in phased_play(g, seed):
        if ctx.registry is None:
            continue
        F_pre = F_value(fresh(s), ctx.registry)
        for v in legal_moves(s):
            post = fresh(apply_move_full(s, v, DARK))
            assert F_decrease(s, ctx.registry, v) == F_pre - F_value(post, ctx.registry)
            checked += 1
        assert F_value(s, ctx.registry) == F_pre
    if family == "cycles":
        assert checked  # a union of cycles C_k, k >= 4, enters phase 3 before move 1
