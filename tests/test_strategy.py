import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domgame import (
    Color,
    IllegalMoveError,
    PhaseContext,
    ResourceLimitError,
    apply_move,
    dominator_greedy,
    gen_cycle,
    gen_gnp_isolate_free,
    gen_path,
    gen_random_tree,
    gen_star,
    init_state,
    make_staller_random,
    maybe_advance,
    play_game,
    solve_game,
    staller_min_decrease,
    staller_worst_case,
)
from domgame import phases, strategy
from domgame.residual import nth_vertex, vertices_of
from oracles import make_scripted_staller, make_staller_random_listing
from test_local_delta import cycle_union


def test_greedy_p4_tie_breaks_low():
    s = init_state(gen_path(4))
    ctx = maybe_advance(PhaseContext(), s)
    assert ctx.phase == 1
    assert dominator_greedy(ctx, s) == 1  # 1 and 2 both drop f by 11


def test_greedy_star_center():
    s = init_state(gen_star(4))
    ctx = maybe_advance(PhaseContext(), s)
    assert dominator_greedy(ctx, s) == 0


def test_greedy_on_lone_bwb_all_moves_tie():
    from domgame import F_decrease

    s0 = init_state(gen_cycle(4))
    ctx = maybe_advance(PhaseContext(), s0)
    s = apply_move(s0, 0, Color.DARK_BLUE)  # leaves a BWB component {1,2,3}
    assert [F_decrease(s, ctx.registry, v) for v in (1, 2, 3)] == [8, 8, 8]
    assert dominator_greedy(ctx, s) == 1


def test_greedy_raises_when_over():
    s = apply_move(init_state(gen_path(2)), 0, Color.DARK_BLUE)
    with pytest.raises(IllegalMoveError):
        dominator_greedy(PhaseContext(), s)


def test_staller_policies_on_a_final_pair():
    # a legal-move set is never a singleton (blues keep a white neighbor,
    # whites keep non-red neighbors), so the tightest endgame is a pair
    from domgame import legal_moves

    s = apply_move(init_state(gen_path(3)), 0, Color.DARK_BLUE)
    ctx = maybe_advance(PhaseContext(), s)
    assert legal_moves(s) == [1, 2]
    assert staller_min_decrease(ctx, s) == 1  # both drop 8, tie to low id
    assert make_staller_random(0)(ctx, s) in (1, 2)


def test_staller_min_decrease_c4():
    s = init_state(gen_cycle(4))
    ctx = maybe_advance(PhaseContext(), s)
    assert staller_min_decrease(ctx, s) == 0  # all four moves tie


def test_staller_random_is_reproducible():
    g = gen_gnp_isolate_free(9, 0.35, 4)
    t1 = play_game(g, dominator_greedy, make_staller_random(7), "D")
    t2 = play_game(g, dominator_greedy, make_staller_random(7), "D")
    assert t1 == t2
    t3 = play_game(g, dominator_greedy, make_staller_random(8), "D")
    assert t1.to_json() != t3.to_json() or t1 == t3


@given(mask=st.integers(1, 2**70 - 1), data=st.data())
def test_nth_vertex_indexes_the_listed_mask(mask, data):
    k = data.draw(st.integers(0, mask.bit_count() - 1))
    assert nth_vertex(mask, k) == vertices_of(mask)[k]


@pytest.mark.parametrize("seed", range(8))
def test_staller_random_draws_as_listing_the_moves(seed):
    """The random Staller picks the k-th non-red vertex without listing the
    legal moves; its draws, and so its games, equal those of the policy
    that indexes legal_moves(s) with the same Philox stream."""
    g = gen_random_tree(40, seed) if seed % 2 else gen_gnp_isolate_free(30, 0.1, seed)
    for first in "DS":
        got = play_game(g, dominator_greedy, make_staller_random(seed), first)
        want = play_game(g, dominator_greedy, make_staller_random_listing(seed), first)
        assert got == want


def test_carry_halves_the_scores_computed(monkeypatch):
    """Greedy games against a random Staller on random trees and on
    G(n, 3/n), n = 300, score at most half the vertices of the same games
    with nothing carried between states. A scored vertex is one of a mask
    handed to f_decreases, or one f_decrease call; the moves played are
    not counted."""
    scored = [0]
    batch, point = strategy.f_decreases, phases.f_decrease

    def counted_batch(s, xs, shade):
        scored[0] += xs.bit_count()
        return batch(s, xs, shade)

    def counted_point(*args):
        scored[0] += 1
        return point(*args)

    def count(g, seed, first):
        scored[0] = 0
        t = play_game(g, dominator_greedy, make_staller_random(seed), first)
        return t, scored[0]

    monkeypatch.setattr(strategy, "f_decreases", counted_batch)
    monkeypatch.setattr(phases, "f_decreases", counted_batch)
    monkeypatch.setattr(phases, "f_decrease", counted_point)
    for seed in (1, 2, 3):
        for g in (gen_random_tree(300, seed), gen_gnp_isolate_free(300, 3 / 300, seed)):
            for first in "DS":
                carried = count(g, seed, first)
                with monkeypatch.context() as m:
                    m.setattr(strategy, "carry_f_decreases", lambda pre, post, v, shade: None)
                    scanned = count(g, seed, first)
                assert carried[0] == scanned[0]
                assert 2 * carried[1] <= scanned[1], (seed, first, carried[1], scanned[1])


def test_F_carry_cuts_the_scores_computed_to_a_third(monkeypatch):
    """Greedy games against a random Staller, Dominator first, on the
    unions C5 + C6 + ... + C14 (n = 95) and C4 + C5 + ... + C16
    (n = 130), where every move is a phase-3 or phase-4 move, call
    F_decrease at most a third as often as the same games with nothing of
    F carried between states, and play the same transcripts. Measured at
    seeds 1-3: 0.27-0.28 of the calls on the first union and 0.21-0.22 on
    the second (0.40-0.41 on six C8, 0.12 on three copies of C6..C13)."""
    scored = [0]
    point = phases.F_decrease

    def counted(*args):
        scored[0] += 1
        return point(*args)

    def count(g, seed):
        scored[0] = 0
        t = play_game(g, dominator_greedy, make_staller_random(seed), "D")
        return t, scored[0]

    monkeypatch.setattr(phases, "F_decrease", counted)
    for lengths in (range(5, 15), range(4, 17)):
        g, _ = cycle_union(lengths)
        for seed in (1, 2, 3):
            carried = count(g, seed)
            with monkeypatch.context() as m:
                m.setattr(strategy, "carry_F_decreases", lambda pre, post, v, reg: None)
                scanned = count(g, seed)
            assert carried[0] == scanned[0]
            assert carried[0].phase_lengths[:2] == (0, 0)
            assert 3 * carried[1] <= scanned[1], (g.n, seed, carried[1], scanned[1])


def test_a_move_carries_only_its_shade():
    """A move hands on only the f-table of the shade it was played in:
    phase 1 reads light scores and phase 2 dark ones, and phases never go
    back, so no state after a phase-2 move holds light scores."""
    phase2_moves = 0
    for seed in range(4):
        staller = make_staller_random(seed)

        def choose(ctx, s, idx):
            return (dominator_greedy if idx % 2 else staller)(ctx, s)

        for g in (gen_random_tree(100, seed), gen_gnp_isolate_free(100, 3 / 100, seed)):
            for first in "DS":
                for ctx, pre, idx, v, post in strategy._moves(g, first, choose):
                    if ctx.phase == 2:
                        phase2_moves += 1
                        assert Color.LIGHT_BLUE not in post.tables
    assert phase2_moves > 0


def test_play_p2():
    t = play_game(gen_path(2), dominator_greedy, staller_min_decrease, "D")
    assert t.total_moves == 1
    assert sum(r.decrease for r in t.records) == 10


def test_play_p3_greedy_takes_center():
    t = play_game(gen_path(3), dominator_greedy, staller_min_decrease, "D")
    assert t.total_moves == 1
    assert t.records[0].vertex == 1


def test_play_p3_staller_start_leaf():
    t = play_game(gen_path(3), dominator_greedy, make_scripted_staller([0]), "S")
    assert t.total_moves == 2
    assert t.records[0].index == 0 and t.records[0].mover == "S"
    assert t.records[0].phase == 1 and t.records[0].decrease == 6
    assert t.records[1].mover == "D"


def test_alternation_and_indices():
    g = gen_random_tree(9, 3)
    td = play_game(g, dominator_greedy, make_staller_random(0), "D")
    assert [r.index for r in td.records] == list(range(1, td.total_moves + 1))
    assert all(r.mover == ("D" if r.index % 2 else "S") for r in td.records)
    ts = play_game(g, dominator_greedy, make_staller_random(0), "S")
    assert [r.index for r in ts.records] == list(range(0, ts.total_moves))
    assert all(r.mover == ("D" if r.index % 2 else "S") for r in ts.records)


def test_illegal_policy_is_named():
    def bad(ctx, s):
        return 0

    bad.policy_name = "always-zero"
    g = gen_path(4)
    with pytest.raises(IllegalMoveError, match="always-zero"):
        # vertex 0 goes red on the first greedy move (it plays 1)
        play_game(g, dominator_greedy, bad, "D")


def test_transcript_serialization():
    g = gen_path(4)
    t = play_game(g, dominator_greedy, staller_min_decrease, "D")
    text = t.to_text()
    assert text.splitlines()[0].split() == ["1", "D", "1", "1", "f", "11"]
    assert "# p1=" in text
    doc = json.loads(t.to_json())
    assert doc["graph"]["n"] == 4
    assert doc["total_moves"] == t.total_moves
    assert doc["records"][0]["decrease"] == 11


def test_worst_case_p2():
    length, witness = staller_worst_case(gen_path(2))
    assert length == 1 and witness.total_moves == 1


def test_worst_case_p5_matches_exact_value():
    length, witness = staller_worst_case(gen_path(5))
    gv = solve_game(gen_path(5))
    assert gv.gamma_g <= length <= (5 * 5) // 8
    assert length == 3
    assert witness.dominator_policy == "greedy"


def test_worst_case_cap():
    with pytest.raises(ResourceLimitError):
        staller_worst_case(gen_path(13), cap=12)


def test_worst_case_staller_start_bound():
    for n in (2, 3, 4, 5, 6):
        length, witness = staller_worst_case(gen_path(n), first="S")
        assert length <= (5 * n + 2) // 8
        assert witness.records[0].decrease >= 6


@given(n=st.integers(2, 9), seed=st.integers(0, 2**31))
@settings(max_examples=40)
def test_transcript_budget_identity(n, seed):
    g = gen_gnp_isolate_free(n, 0.4, seed)
    for first in ("D", "S"):
        t = play_game(g, dominator_greedy, make_staller_random(seed), first)
        assert all(r.decrease >= 1 for r in t.records)
        gap = 0
        if t.f_at_phase2_end is not None:
            gap = t.f_at_phase2_end - t.F_at_phase2_end
            assert gap >= 0
        assert sum(r.decrease for r in t.records) == 5 * n - gap
        assert sum(t.phase_lengths) == t.total_moves


@given(n=st.integers(2, 10), seed=st.integers(0, 2**31))
@settings(max_examples=40)
def test_worst_case_respects_bound(n, seed):
    g = gen_random_tree(n, seed)
    length, _ = staller_worst_case(g)
    assert length <= (5 * n) // 8


def test_phase_lengths_even_unless_game_ends_inside():
    for seed in range(10):
        g = gen_random_tree(10, seed)
        t = play_game(g, dominator_greedy, make_staller_random(seed), "D")
        p = list(t.phase_lengths)
        last_nonzero = max(i for i in range(4) if p[i] > 0) if t.total_moves else 0
        for i in range(4):
            if i != last_nonzero:
                assert p[i] % 2 == 0
