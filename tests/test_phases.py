import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domgame import (
    ClaimViolationError,
    Color,
    CycleStatus,
    F_decrease,
    F_value,
    Graph,
    PhaseContext,
    XCycleRegistry,
    apply_move,
    cycle_status,
    dominator_greedy,
    freeze_registry,
    gen_cycle,
    gen_gnp_isolate_free,
    gen_path,
    gen_star,
    init_state,
    is_over,
    legal_moves,
    maybe_advance,
    parse_snapshot,
    phase1_active,
    phase2_active,
    philox_rng,
    play_game,
    shade_for_phase,
    staller_min_decrease,
)
from domgame.phases import _phase2_end, phase3_active
from domgame.residual import vertices_of
from oracles import colors, max_f_decrease, phase2_end
from test_local_delta import graphs, phased_play

LIGHT, DARK = Color.LIGHT_BLUE, Color.DARK_BLUE


def test_phase1_active_examples():
    assert phase1_active(init_state(gen_path(3)))
    assert not phase1_active(init_state(gen_cycle(4)))
    after = apply_move(init_state(gen_path(4)), 1, LIGHT)
    assert not phase1_active(after)


def test_phase2_active_spider():
    # center with three white neighbors, each keeping a further white vertex:
    # playing it turns three whites dark, 5 + 3*2 = 11
    spider = Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    s = init_state(spider)
    assert max_f_decrease(s) >= 11
    assert phase2_active(s)


def test_phase2_inactive_examples():
    # white/dark pair: both moves drop exactly 8
    wb_minus = apply_move(init_state(gen_path(3)), 0, DARK)
    assert colors(wb_minus) == (Color.RED, DARK, Color.WHITE)
    assert max_f_decrease(wb_minus) == 8
    assert not phase2_active(wb_minus)
    assert max_f_decrease(init_state(gen_cycle(6))) == 9


def test_freeze_no_cycles():
    # white components P2 + P1
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    s = parse_snapshot(g, "0 W\n1 W\n2 W\n3 DB\n4 R")
    reg = freeze_registry(s)
    assert len(reg) == 0


def test_freeze_c5():
    reg = freeze_registry(init_state(gen_cycle(5)))
    assert len(reg) == 1
    assert reg.cycles == (0b11111,)


def test_freeze_rejects_white_p3():
    with pytest.raises(ClaimViolationError) as exc:
        freeze_registry(init_state(gen_path(3)))
    assert "0 W" in exc.value.snapshot


def test_freeze_rejects_triangle_and_high_degrees():
    with pytest.raises(ClaimViolationError):
        freeze_registry(init_state(gen_cycle(3)))
    with pytest.raises(ClaimViolationError):
        freeze_registry(init_state(gen_star(5)))  # white center of degree 4
    # blue vertex with 4 white neighbors
    s = parse_snapshot(gen_star(5), "0 DB\n1 W\n2 W\n3 W\n4 W")
    with pytest.raises(ClaimViolationError):
        freeze_registry(s)


def test_freeze_rejects_w0_next_to_b3():
    # blue 0 sees exactly three whites; white 4 has only blue neighbors
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    s = parse_snapshot(g, "0 DB\n1 W\n2 W\n3 R\n4 W")
    with pytest.raises(ClaimViolationError) as exc:
        freeze_registry(s)
    assert "3-white-degree" in str(exc.value)


@given(drawn=graphs(24, 30), seed=st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_phase2_end_matches_its_definition(drawn, seed):
    """The violation note and the cycles' member masks in their order, at
    every state of a game of uniformly random moves with random shades."""
    _, g, _ = drawn
    rng = philox_rng(seed)
    s = init_state(g)
    while True:
        assert _phase2_end(s) == phase2_end(s)
        if is_over(s):
            return
        moves = legal_moves(s)
        shade = (LIGHT, DARK)[int(rng.integers(0, 2))]
        s = apply_move(s, moves[int(rng.integers(0, len(moves)))], shade)


@given(drawn=graphs(40, 40), seed=st.integers(0, 2**31))
@settings(max_examples=150, deadline=None)
def test_frozen_x_cycles_are_induced_cycles(drawn, seed):
    """Where a phased game freezes its registry, each X-cycle's members are
    white, they induce a connected subgraph of G, and each has exactly two
    G-neighbors among them: the X-cycle is an induced cycle of G, which
    cycle_status's closed test relies on."""
    _, g, _ = drawn
    for s, ctx in phased_play(g, seed):
        if ctx.registry is not None:
            break
    else:
        return
    opens = g.open_masks
    for members in ctx.registry.cycles:
        assert members & s.dominated_mask == 0
        assert all((opens[v] & members).bit_count() == 2 for v in vertices_of(members))
        reached, todo = 0, [vertices_of(members)[0]]
        while todo:
            v = todo.pop()
            reached |= 1 << v
            todo += vertices_of(opens[v] & members & ~reached)
        assert reached == members


def test_cycle_status_examples():
    c4 = gen_cycle(4)
    reg = freeze_registry(init_state(c4))
    assert cycle_status(reg, 0, init_state(c4)) is CycleStatus.CLOSED
    all_red = parse_snapshot(c4, "0 R\n1 R\n2 R\n3 R")
    assert cycle_status(reg, 0, all_red) is CycleStatus.FINISHED
    alternating = parse_snapshot(c4, "0 DB\n1 W\n2 DB\n3 W")
    assert cycle_status(reg, 0, alternating) is CycleStatus.CLOSED
    after = apply_move(init_state(c4), 0, DARK)  # one red, BWB remainder
    assert cycle_status(reg, 0, after) is CycleStatus.FINISHED
    with pytest.raises(IndexError):
        cycle_status(reg, 1, all_red)


def test_cycle_status_open():
    c5 = gen_cycle(5)
    reg = freeze_registry(init_state(c5))
    after = apply_move(init_state(c5), 0, DARK)  # blue leaves 1 and 4 in a P4 component
    assert cycle_status(reg, 0, after) is CycleStatus.OPEN


def test_F_examples():
    empty_reg = XCycleRegistry(())
    all_red = parse_snapshot(gen_path(2), "0 R\n1 R")
    assert F_value(all_red, empty_reg) == 0
    # one BWB component plus red isolates: f = 11, F = 8
    g = gen_cycle(4)
    reg = freeze_registry(init_state(g))
    bwb = apply_move(init_state(g), 0, DARK)
    assert bwb.f == 11
    assert F_value(bwb, reg) == 8
    # one white/light-blue pair plus red isolates: F = 9 - 1 = 8
    wbp = parse_snapshot(gen_path(3), "0 R\n1 LB\n2 W")
    assert F_value(wbp, empty_reg) == 8


def test_F_decrease_examples():
    empty_reg = XCycleRegistry(())
    wb_minus = apply_move(init_state(gen_path(3)), 0, DARK)
    assert F_decrease(wb_minus, empty_reg, 1) == 8
    assert F_decrease(wb_minus, empty_reg, 2) == 8
    # BWB component: playing the white center drops at least 8
    c4 = gen_cycle(4)
    reg = freeze_registry(init_state(c4))
    bwb = apply_move(init_state(c4), 0, DARK)
    assert F_decrease(bwb, reg, 2) >= 8
    # blue leaf whose white neighbor has two white neighbors, non-special
    # component: playing that neighbor drops F by at least 11
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])
    s = parse_snapshot(g, "0 W\n1 W\n2 W\n3 W\n4 DB\n5 R")
    reg2 = XCycleRegistry((0b1111,))
    assert F_decrease(s, reg2, 0) >= 11


def test_maybe_advance_c4_cascade():
    s = init_state(gen_cycle(4))
    ctx = maybe_advance(PhaseContext(), s)
    assert ctx.phase == 3
    assert ctx.registry is not None and len(ctx.registry) == 1
    assert all(F_decrease(s, ctx.registry, v) == 12 for v in range(4))
    assert phase3_active(s, ctx.registry)
    t = play_game(gen_cycle(4), dominator_greedy, staller_min_decrease)
    assert (t.f_at_phase2_end, t.F_at_phase2_end) == (20, 20)  # read off the opening state


def test_maybe_advance_p2_lands_in_phase3():
    # every move on an all-white pair drops F by exactly 10, so the "some
    # move drops F by >= 10" reading keeps the mop-up in phase 3
    ctx = maybe_advance(PhaseContext(), init_state(gen_path(2)))
    assert ctx.phase == 3
    t = play_game(gen_path(2), dominator_greedy, staller_min_decrease)
    assert t.phase_lengths == (0, 0, 1, 0)
    assert t.records[0].decrease == 10


def test_maybe_advance_p4_stays_phase1():
    ctx = maybe_advance(PhaseContext(), init_state(gen_path(4)))
    assert ctx.phase == 1
    assert ctx.registry is None


def test_registry_exists_exactly_from_phase3():
    for g in (gen_path(4), gen_cycle(5), gen_star(3)):
        ctx = maybe_advance(PhaseContext(), init_state(g))
        assert (ctx.registry is not None) == (ctx.phase >= 3)


@given(n=st.integers(2, 10), seed=st.integers(0, 2**31))
@settings(max_examples=40)
def test_F_never_exceeds_f(n, seed):
    from domgame.phases import _discount, open_cycle_count

    g = gen_gnp_isolate_free(n, 0.4, seed)
    s = init_state(g)
    ctx = maybe_advance(PhaseContext(), s)
    idx = 1
    while True:
        from domgame import is_over, legal_moves

        if ctx.registry is not None:
            F = F_value(s, ctx.registry)
            assert F <= s.f
            penalties = open_cycle_count(s, ctx.registry) + sum(
                1 for c in s.components() if _discount(c, s.dominated_mask, s.light_mask))
            assert (F == s.f) == (penalties == 0)
        if is_over(s):
            break
        v = dominator_greedy(ctx, s) if idx % 2 else staller_min_decrease(ctx, s)
        s = apply_move(s, v, shade_for_phase(ctx.phase))
        if idx % 2 == 0 and not is_over(s):
            ctx = maybe_advance(ctx, s)
        idx += 1


@given(n=st.integers(2, 10), seed=st.integers(0, 2**31))
@settings(max_examples=40)
def test_phase1_predicate_is_monotone(n, seed):
    from domgame import is_over, legal_moves, philox_rng

    g = gen_gnp_isolate_free(n, 0.4, seed)
    rng = philox_rng(seed)
    s = init_state(g)
    seen_false = not phase1_active(s)
    while not is_over(s):
        moves = legal_moves(s)
        s = apply_move(s, moves[int(rng.integers(0, len(moves)))], LIGHT)
        if phase1_active(s):
            assert not seen_false  # once off, never back on
        else:
            seen_false = True
