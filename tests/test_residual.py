import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domgame import (
    Color,
    Graph,
    IllegalMoveError,
    ResidualState,
    apply_move,
    f_decrease,
    f_decreases,
    gen_cycle,
    gen_gnp_isolate_free,
    gen_path,
    gen_star,
    init_state,
    is_over,
    legal_moves,
    parse_snapshot,
    philox_rng,
    white_degree,
)
from domgame.phases import F_decrease, PhaseContext, XCycleRegistry, _discount, potential_decrease
from domgame.residual import ScoreTable, live_mask, score_table, vertices_of
from oracles import color_partition, colors, retained_edges, snapshot_join, state_from_colors

LIGHT, DARK = Color.LIGHT_BLUE, Color.DARK_BLUE


def random_playout(g, seed):
    """(states, moves) of a random legal game with random shades: every
    state along it and the vertices played, in order."""
    rng = philox_rng(seed)
    s = init_state(g)
    states, played = [s], []
    while not is_over(s):
        moves = legal_moves(s)
        v = moves[int(rng.integers(0, len(moves)))]
        shade = LIGHT if int(rng.integers(0, 2)) else DARK
        s = apply_move(s, v, shade)
        states.append(s)
        played.append(v)
    return states, played


def small_random_graph(n, seed):
    return gen_gnp_isolate_free(n, 0.4, seed)


def test_init_weights():
    assert init_state(gen_path(3)).f == 15
    assert init_state(gen_cycle(4)).f == 20


@given(n=st.integers(2, 12), seed=st.integers(0, 2**31))
@settings(max_examples=30)
def test_init_is_5n(n, seed):
    g = small_random_graph(n, seed)
    assert init_state(g).f == 5 * n


def test_init_rejects_isolates():
    with pytest.raises(ValueError):
        init_state(Graph.from_edges(3, [(0, 1)]))


def test_legal_moves_examples():
    p3 = gen_path(3)
    assert legal_moves(init_state(p3)) == [0, 1, 2]
    done = apply_move(init_state(p3), 1, LIGHT)
    assert legal_moves(done) == [] and is_over(done)
    p4_after = apply_move(init_state(gen_path(4)), 1, LIGHT)
    assert legal_moves(p4_after) == [2, 3]


def test_apply_p4_light():
    s = init_state(gen_path(4))
    s2 = apply_move(s, 1, LIGHT)
    assert colors(s2) == (Color.RED, Color.RED, LIGHT, Color.WHITE)
    assert (s.f, s2.f) == (20, 9)
    assert f_decrease(s, 1, LIGHT) == 11


def test_apply_p2_any_shade_ends():
    for shade in (LIGHT, DARK):
        s2 = apply_move(init_state(gen_path(2)), 0, shade)
        assert colors(s2) == (Color.RED, Color.RED)
        assert is_over(s2)


def test_apply_c4_dark():
    s2 = apply_move(init_state(gen_cycle(4)), 0, DARK)
    assert colors(s2) == (Color.RED, DARK, Color.WHITE, DARK)
    assert s2.f == 11


def test_illegal_moves_raise():
    s = apply_move(init_state(gen_path(2)), 0, DARK)
    with pytest.raises(IllegalMoveError):
        apply_move(s, 1, DARK)
    for v in (-1, 1, 2):  # a negative id is no vertex, not a bit to test
        with pytest.raises(IllegalMoveError):
            f_decrease(s, v, DARK)
    for xs in (-1, 0b10, 0b100, 0b110):  # a red vertex, or one past n
        with pytest.raises(IllegalMoveError):
            f_decreases(s, xs, DARK)
    assert f_decreases(s, 0, DARK) == {}
    with pytest.raises(ValueError):
        apply_move(init_state(gen_path(2)), 0, Color.RED)
    with pytest.raises(ValueError):
        f_decreases(init_state(gen_path(2)), 0b11, Color.RED)


def test_f_decrease_star_center():
    assert f_decrease(init_state(gen_star(4)), 0, LIGHT) == 20


def test_f_decrease_blue_leaf_dark_minimum():
    # blue leaf whose white neighbor keeps another white neighbor: 3 + 2
    s = apply_move(init_state(gen_path(4)), 0, DARK)
    assert colors(s) == (Color.RED, DARK, Color.WHITE, Color.WHITE)
    assert f_decrease(s, 1, DARK) == 5


def test_existing_shade_is_kept():
    s = apply_move(init_state(gen_path(5)), 0, LIGHT)
    assert colors(s)[1] is LIGHT
    s2 = apply_move(s, 4, DARK)
    assert colors(s2)[1] is LIGHT  # keeps a white neighbor, keeps its shade
    assert colors(s2)[3] is DARK


def test_snapshot_roundtrip_and_format():
    g = gen_path(4)
    s = apply_move(init_state(g), 1, LIGHT)
    assert s.snapshot() == "0 R\n1 R\n2 LB\n3 W\n"
    back = parse_snapshot(g, s.snapshot())
    assert colors(back) == colors(s)
    assert back.snapshot_hash() == s.snapshot_hash()


def random_coloring(n, seed):
    """A state on the path 0-1-...-(n-1) with colors a game can reach: the
    vertices a random set of moves dominates, red where the closed
    neighborhood is dominated, and a random share of the blue ones light."""
    rng = random.Random(seed)
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    dom = 0
    for v in vertices_of(rng.getrandbits(n) & rng.getrandbits(n)):
        dom |= g.closed_masks[v]
    red = sum(1 << v for v, closed in enumerate(g.closed_masks) if closed & ~dom == 0)
    return ResidualState(g, dom, red, dom & ~red & rng.getrandbits(n))


@given(n=st.integers(1, 3000), seed=st.integers(0, 2**31))
@example(n=9, seed=1)
@example(n=10, seed=2)
@example(n=99, seed=3)
@example(n=100, seed=4)
@example(n=101, seed=5)
@example(n=999, seed=6)
@example(n=1000, seed=7)
@example(n=1001, seed=8)
@example(n=10_000, seed=9)
@settings(max_examples=60, deadline=None)
def test_snapshot_matches_line_join(n, seed):
    """The byte-template snapshot and its hash equal those of the text
    joined line by line, across the ids where a digit is added."""
    s = random_coloring(n, seed)
    text = snapshot_join(s)
    assert s.snapshot() == text
    assert s.snapshot_hash() == hashlib.sha256(text.encode()).hexdigest()[:12]


@pytest.mark.parametrize("text, line", [
    ("0 R\n1 R\n-1 R", 3),       # negative id
    ("0 R\n1 R\n3 R", 3),        # id >= n
    ("0 R\n1 R\n\n1 R\n2 R", 4),  # repeated id
    ("0 R\n1 R\n2 X", 3),        # unknown color code
    ("0 R\n1 R\n2", 3),          # no color code
    ("0 R\n1 R\n2 W", 2),        # red 1 next to white 2
    ("0 DB\n1 R\n2 R", 1),       # blue 0 with no white in N[0]
])
def test_parse_snapshot_rejects_bad_snapshots(text, line):
    with pytest.raises(ValueError, match=f"^snapshot line {line}: "):
        parse_snapshot(gen_path(3), text)


@pytest.mark.parametrize("text, message", [
    ("0 R\n1 R\n2 W", "snapshot line 2: vertex 1 is R but N[v] holds a white vertex"),
    ("0 DB\n1 R\n2 R", "snapshot line 1: vertex 0 is DB but N[v] lacks a white vertex"),
    ("2 R\n1 R\n0 LB", "snapshot line 3: vertex 0 is LB but N[v] lacks a white vertex"),
])
def test_parse_snapshot_names_the_inconsistent_color(text, message):
    with pytest.raises(ValueError) as err:
        parse_snapshot(gen_path(3), text)
    assert str(err.value) == message


def discounts(s):
    """(members, _discount) of each component of s."""
    return [(vertices_of(c), _discount(c, s.dominated_mask, s.light_mask)) for c in s.components()]


def test_components_bwb_by_definition():
    s = parse_snapshot(gen_path(3), "0 DB\n1 W\n2 LB")
    assert discounts(s) == [([0, 1, 2], 3)]


def test_components_wb_pairs():
    s = parse_snapshot(gen_path(2), "0 W\n1 LB")
    assert discounts(s) == [([0, 1], 1)]  # WB+
    s = parse_snapshot(gen_path(2), "0 W\n1 DB")
    assert discounts(s) == [([0, 1], 0)]  # WB-
    assert discounts(init_state(gen_path(2))) == [([0, 1], 0)]  # WW


def test_components_p4_after_center():
    s = apply_move(init_state(gen_path(4)), 1, LIGHT)
    assert discounts(s) == [([2, 3], 1)]
    assert retained_edges(s) == ((2, 3),)


def permuted(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@given(n=st.integers(3, 9), seed=st.integers(0, 2**31))
@settings(max_examples=30)
def test_component_kinds_stable_under_relabeling(n, seed):
    g = small_random_graph(n, seed)
    rng = philox_rng(seed)
    perm = list(rng.permutation(n))
    perm = [int(x) for x in perm]
    _, moves = random_playout(g, seed)
    s = init_state(g)
    s_p = init_state(permuted(g, perm))
    for i, v in enumerate(moves):
        shade = LIGHT if i % 2 else DARK
        s = apply_move(s, v, shade)
        s_p = apply_move(s_p, perm[v], shade)
    shapes = sorted((len(members), d) for members, d in discounts(s))
    shapes_p = sorted((len(members), d) for members, d in discounts(s_p))
    assert shapes == shapes_p


@given(n=st.integers(2, 10), seed=st.integers(0, 2**31))
@settings(max_examples=50)
def test_playout_invariants(n, seed):
    g = small_random_graph(n, seed)
    states, played = random_playout(g, seed)
    order = {Color.WHITE: 0, LIGHT: 1, DARK: 1, Color.RED: 2}
    for before, after in zip(states, states[1:]):
        assert after.f < before.f  # strict decrease
        for was, now in zip(colors(before), colors(after)):
            assert order[now] >= order[was]
            if was in (LIGHT, DARK) and now is not Color.RED:
                assert now is was  # shade is sticky
    final = states[-1]
    assert final.f == 0 and not legal_moves(final)
    for k, s in enumerate(states):
        white, blue, red = color_partition(g, played[:k])
        col = colors(s)
        assert {v for v in range(n) if col[v] is Color.WHITE} == white
        assert {v for v in range(n) if col[v] is Color.RED} == red
        for v in white:
            # a white vertex keeps its full degree among retained edges
            assert white_degree(s, v) + sum(1 for w in g.adjacency[v]
                                            if col[w] in (LIGHT, DARK)) == g.degree(v)
        for u, w in retained_edges(s):
            assert col[u] is Color.WHITE or col[w] is Color.WHITE


@given(n=st.integers(2, 10), seed=st.integers(0, 2**31))
@settings(max_examples=30)
def test_components_partition_vertices(n, seed):
    g = small_random_graph(n, seed)
    for s in random_playout(g, seed)[0]:
        comps = s.components()
        seen = sorted(v for c in comps for v in vertices_of(c))
        assert seen == [v for v, c in enumerate(colors(s)) if c is not Color.RED]
        assert all(c.bit_count() >= 2 for c in comps)


def test_f_decrease_memo_is_keyed_by_shade():
    """The LIGHT and DARK tables of one state, each filled through its own
    shade, hold only that shade's exact scores: those of a fresh state."""
    g = gen_path(6)
    s = apply_move(init_state(g), 0, LIGHT)  # 0 red, 1 light blue, 2..5 white
    live = live_mask(s)
    by_shade = {}
    for shade in (LIGHT, DARK):
        assert score_table(s, shade).scored == 0  # the other shade's scores left it empty
        table = score_table(s, shade).add_all({v: f_decrease(s, v, shade) for v in vertices_of(live)})
        fresh = state_from_colors(g, colors(s))
        by_shade[shade] = {v: dec for dec, mask in table.buckets.items() for v in vertices_of(mask)}
        assert by_shade[shade] == {v: f_decrease(fresh, v, shade) for v in legal_moves(s)}
    # playing 3 turns 1, 2, 3 red and 4 blue (weight 4 if light, 3 if dark)
    assert by_shade[DARK][3] == by_shade[LIGHT][3] + 1


def test_reaches_adds_each_score_it_computes():
    """reaches scores the unscored vertices in ascending order, adds each
    score, and stops at the first vertex that reaches t; a later question
    reads the top bucket first."""
    scores = {0: 3, 1: 5, 2: 12, 3: 20}
    calls = []

    def score(v):
        calls.append(v)
        return scores[v]

    table = ScoreTable()
    assert table.reaches(10, 0b1111, score)
    assert calls == [0, 1, 2]
    assert table.buckets == {3: 0b0001, 5: 0b0010, 12: 0b0100}
    assert table.scored == 0b0111  # vertex 3 stays unscored
    assert table.reaches(10, 0b1111, score) and calls == [0, 1, 2]
    assert not table.reaches(30, 0b1111, score)
    assert calls == [0, 1, 2, 3] and table.scored == 0b1111 and table.top() == 3


def test_score_tables_keep_potentials_apart():
    """One state keeps one table per potential: the LIGHT and DARK f
    tables, and the F tables under two registries A and B, asked for A,
    then B, then A again. A's table is still full when asked for again,
    and each table holds exactly its own scores, those of a fresh state."""
    g = gen_cycle(8)
    s = apply_move(apply_move(init_state(g), 0, DARK), 3, DARK)
    a, b = XCycleRegistry((0xFF,)), XCycleRegistry(())
    live = live_mask(s)
    fresh = state_from_colors(g, colors(s))
    want = {shade: {v: f_decrease(fresh, v, shade) for v in legal_moves(s)} for shade in (LIGHT, DARK)}
    want |= {reg: {v: F_decrease(fresh, reg, v) for v in legal_moves(s)} for reg in (a, b)}
    assert want[LIGHT] != want[DARK] and want[a] != want[b]  # each pair scores apart
    for shade in (LIGHT, DARK):
        score_table(s, shade).add_all(f_decreases(s, live, shade))
    for reg in (a, b):
        assert not score_table(s, reg).reaches(99, live, lambda v, reg=reg: F_decrease(s, reg, v))
    assert score_table(s, a).scored == live
    assert list(s.tables) == [LIGHT, DARK, a, b]
    for key, table in s.tables.items():
        got = {v: dec for dec, mask in table.buckets.items() for v in vertices_of(mask)}
        assert got == want[key], key


def test_scorers_leave_the_tables_empty():
    """f_decrease, f_decreases, F_decrease and potential_decrease are pure:
    scoring every legal move, in every phase, adds nothing to the state's
    tables."""
    g = gen_cycle(8)
    s = apply_move(init_state(g), 0, DARK)
    reg = XCycleRegistry((0xFF,))
    contexts = [PhaseContext(phase=p) for p in (1, 2)] + [PhaseContext(phase=3, registry=reg)]
    for v in legal_moves(s):
        for shade in (LIGHT, DARK):
            f_decrease(s, v, shade)
        F_decrease(s, reg, v)
        for ctx in contexts:
            potential_decrease(ctx, s, v)
    for shade in (LIGHT, DARK):
        f_decreases(s, live_mask(s), shade)
    for table in (score_table(s, LIGHT), score_table(s, DARK), score_table(s, reg)):
        assert table.buckets == {} and table.scored == 0


def test_add_all_adds_every_score_in_one_call():
    table = ScoreTable()
    table.add(1, 6)
    assert table.add_all({0: 7, 3: 6, 4: 2}) is table
    assert table.buckets == {7: 0b00001, 6: 0b01010, 2: 0b10000} and table.scored == 0b11011
    assert table.add_all({}) is table and table.scored == 0b11011
    assert (table.top(), table.bottom()) == (0, 4)
