import gc
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domgame import (
    GameValue,
    Graph,
    ResourceLimitError,
    enumerate_labeled_graphs,
    game_value,
    gen_caterpillar,
    gen_cycle,
    gen_gnp_isolate_free,
    gen_path,
    gen_random_tree,
    gen_star,
    solve_game,
)
from oracles import (
    closed_neighborhood,
    domination_number,
    game_value_bruteforce,
    game_value_unpruned,
    solve_game_unpruned,
)


def test_small_examples():
    assert game_value(gen_path(2)) == 1
    assert game_value(gen_path(3)) == 1
    assert solve_game(gen_path(5)).gamma_g == 3
    assert solve_game(gen_cycle(4)).gamma_g == 2
    assert solve_game(gen_path(3)).gamma_g_prime == 2
    assert solve_game(gen_star(6)).gamma_g == 1


def test_matches_bruteforce_oracle():
    for g in (gen_path(4), gen_path(6), gen_cycle(5), gen_cycle(6), gen_star(5)):
        full = frozenset(range(g.n))
        assert game_value(g, dominator_to_move=True) == game_value_bruteforce(g, full, True)
        assert game_value(g, dominator_to_move=False) == game_value_bruteforce(g, full, False)


def test_matches_bruteforce_on_random_graphs():
    for seed in range(10):
        g = gen_gnp_isolate_free(7, 0.35, seed)
        full = frozenset(range(g.n))
        gv = solve_game(g)
        assert gv.gamma_g == game_value_bruteforce(g, full, True)
        assert gv.gamma_g_prime == game_value_bruteforce(g, full, False)


def test_value_depends_only_on_undominated_set():
    g = gen_path(6)
    # two play orders reaching the same dominated set
    a = {v for x in (0, 3) for v in (x,) + g.adjacency[x]}
    b = {v for x in (3, 0) for v in (x,) + g.adjacency[x]}
    assert a == b
    rest = frozenset(range(6)) - a
    assert game_value(g, rest, True) == game_value(g, frozenset(rest), True)
    mask = 0
    for v in rest:
        mask |= 1 << v
    assert game_value(g, mask, True) == game_value(g, rest, True)


def test_optimal_moves_walk_down_by_one():
    g = gen_gnp_isolate_free(8, 0.3, 11)
    memo = bytearray(4 << g.n)
    full = (1 << g.n) - 1
    masks = g.closed_masks
    mask, turn = full, True
    value = game_value(g, mask, turn, memo)
    while mask:
        moves = [v for v in range(g.n) if masks[v] & mask]
        nexts = [(v, game_value(g, mask & ~masks[v], not turn, memo)) for v in moves]
        pick = min if turn else max
        v, sub = pick(nexts, key=lambda t: t[1])
        assert sub == value - 1
        mask &= ~masks[v]
        turn, value = not turn, sub


@pytest.mark.parametrize("bad, named", [(1 << 6, "0x40"), ([0, 9], "9"), (-1, "-0x1")])
def test_vertices_outside_the_graph_are_rejected(bad, named):
    with pytest.raises(ValueError, match=named):
        game_value(gen_path(4), bad)


@pytest.mark.parametrize("bad", [True, [True], [0, 1.0]])
def test_bool_and_float_ids_are_rejected(bad):
    """True equals 1, but it is neither a mask nor a vertex id; as either it
    would have read as vertex 0 or vertex 1 alone."""
    with pytest.raises(ValueError, match="True|1.0"):
        game_value(gen_path(4), bad)


def test_memo_must_be_the_graph_table():
    g = gen_path(4)
    for size in (4 << 5, 2 << 4):  # the table of n = 5, and of n = 4 with one byte per state
        with pytest.raises(ValueError, match="bytearray"):
            game_value(g, memo=bytearray(size))


def test_game_value_lets_go_of_its_memo():
    """No reference cycle outlives a solve: with the cyclic collector off,
    the table's reference count is back where it was once game_value
    returns, so the table is freed with its last owner."""
    g = gen_random_tree(10, 3)
    memo = bytearray(4 << g.n)
    gc.disable()
    try:
        before = sys.getrefcount(memo)
        assert game_value(g, None, True, memo) == solve_game(g).gamma_g
        assert game_value(g, None, False, memo) == solve_game(g).gamma_g_prime
        assert sys.getrefcount(memo) == before
    finally:
        gc.enable()


def _graph(n, seed, tree):
    return gen_random_tree(n, seed) if tree else gen_gnp_isolate_free(n, 0.3, seed)


@given(n=st.integers(2, 8), seed=st.integers(0, 2**31), tree=st.booleans(),
       masks=st.lists(st.integers(0, 2**8 - 1), min_size=1, max_size=6))
@settings(max_examples=100)
def test_residual_states_match_bruteforce(n, seed, tree, masks):
    """Random undominated sets, either side to move, one table per graph so
    that Dominator and Staller entries of the same mask coexist."""
    g = _graph(n, seed, tree)
    memo = bytearray(4 << n)
    for m in masks:
        m &= (1 << n) - 1
        rest = frozenset(v for v in range(n) if m >> v & 1)
        for dom_turn in (True, False):
            assert game_value(g, m, dom_turn, memo) == game_value_bruteforce(g, rest, dom_turn)


@given(n=st.integers(2, 12), seed=st.integers(0, 2**31), tree=st.booleans(),
       pairs=st.lists(st.tuples(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1)),
                      min_size=1, max_size=8))
@settings(max_examples=100)
def test_continuation_principle_and_gap(n, seed, tree, pairs):
    """Kinnersley-West-Zamani: undominating more vertices never shortens the
    game, and the two starts differ by at most one on any residual state."""
    g = _graph(n, seed, tree)
    memo = bytearray(4 << n)
    for big, sub in pairs:
        big &= (1 << n) - 1
        small = big & sub
        for dom_turn in (True, False):
            assert game_value(g, small, dom_turn, memo) <= game_value(g, big, dom_turn, memo)
        for m in (small, big):
            assert abs(game_value(g, m, True, memo) - game_value(g, m, False, memo)) <= 1


def test_sanity_bracket_vs_domination_number():
    for seed in range(8):
        g = gen_gnp_isolate_free(8, 0.35, seed)
        dom = domination_number(g)
        gg = solve_game(g).gamma_g
        assert dom <= gg <= 2 * dom - 1


def test_gap_property_small():
    for seed in range(8):
        g = gen_gnp_isolate_free(8, 0.3, seed)
        gv = solve_game(g)
        assert abs(gv.gamma_g - gv.gamma_g_prime) <= 1


def test_optimal_first_moves_are_reported():
    gv = solve_game(gen_path(3))
    assert gv.optimal_first_move_d == 1  # the center ends the game at once
    assert gv.gamma_g == 1 and gv.gamma_g_prime == 2


def test_solver_cap():
    with pytest.raises(ResourceLimitError):
        solve_game(gen_path(21))
    with pytest.raises(ResourceLimitError):
        solve_game(gen_path(8), cap=7)


def test_solver_needs_isolate_free():
    with pytest.raises(ValueError):
        solve_game(Graph.from_edges(3, [(0, 1)]))


def _with_true_twins(g, picks):
    """g plus, for each pick in turn, a new vertex with the same closed
    neighborhood as vertex `pick` of the graph built so far."""
    adj = [set(a) for a in g.adjacency]
    for v in picks:
        t = len(adj)
        adj.append(adj[v] | {v})
        for w in adj[t]:
            adj[w].add(t)
    return Graph.from_edges(len(adj), [(u, w) for u, a in enumerate(adj) for w in a if u < w])


@st.composite
def solver_graphs(draw, n_max=14):
    """Trees, caterpillars, G(n, p), cycles and G(n, p) grown by true twins,
    with at most n_max vertices."""
    family = draw(st.sampled_from(["tree", "caterpillar", "gnp", "cycle", "twins"]))
    if family == "caterpillar":
        legs = draw(st.lists(st.integers(0, 3), min_size=2, max_size=6)
                    .filter(lambda legs: len(legs) + sum(legs) <= n_max))
        return gen_caterpillar(len(legs), legs)
    n = draw(st.integers(3, n_max))
    if family == "cycle":
        return gen_cycle(n)
    seed = draw(st.integers(0, 2**31))
    if family == "tree":
        return gen_random_tree(n, seed)
    p = draw(st.sampled_from([0.2, 0.35, 0.5]))
    if family == "gnp":
        return gen_gnp_isolate_free(n, p, seed)
    base = draw(st.integers(2, n - 1))
    picks = [draw(st.integers(0, base + i - 1)) for i in range(n - base)]
    return _with_true_twins(gen_gnp_isolate_free(base, p, seed), picks)


@given(g=solver_graphs(),
       queries=st.lists(st.tuples(st.integers(0, 2**14 - 1), st.booleans()),
                        min_size=1, max_size=8))
@settings(max_examples=600)
def test_pruned_solver_matches_unpruned_oracle(g, queries):
    """Random masks and sides on one table per graph, so that the tests
    read bounds that earlier queries left; afterwards every entry of the
    table must bracket the unpruned solver's value, so that an entry with
    equal bounds holds exactly that value."""
    memo = bytearray(4 << g.n)
    oracle = bytearray(2 << g.n)
    for m, dom_turn in queries:
        m &= (1 << g.n) - 1
        assert game_value(g, m, dom_turn, memo) == game_value_unpruned(g, m, dom_turn, oracle)
    for i in range(0, len(memo), 2):
        lower, upper = memo[i], memo[i + 1]
        if lower or upper:
            mask, dom_turn = i >> 2, bool(i & 2)
            value = game_value_unpruned(g, mask, dom_turn, oracle)
            assert lower <= value and (not upper or value <= upper), (mask, dom_turn)


@given(g=solver_graphs(n_max=12))
@settings(max_examples=200)
def test_solve_game_matches_unpruned_on_random_graphs(g):
    """Both values and both first moves, ties to the smallest id, where
    the solver past vertex 0 only tests whether a move is strictly better."""
    assert solve_game(g) == solve_game_unpruned(g), g.adjacency


def test_first_moves_with_several_dominating_vertices():
    """In K4 every vertex ends the game at once, so vertex 0 is both first
    moves: a later move that ends the game ties and is no improvement."""
    k4 = Graph.from_edges(4, list(combinations(range(4), 2)))
    assert solve_game(k4) == GameValue(1, 1, 0, 0) == solve_game_unpruned(k4)


def test_solve_game_matches_unpruned_on_all_small_graphs():
    for n in range(2, 6):
        for g in enumerate_labeled_graphs(n):
            assert solve_game(g) == solve_game_unpruned(g), g.adjacency


@given(g=solver_graphs())
@settings(max_examples=200)
def test_maximal_closed_follows_its_definition(g):
    closed = [closed_neighborhood(g, v) for v in range(g.n)]
    assert g.maximal_closed == tuple(
        v for v in range(g.n)
        if not any(closed[v] < closed[w] or (closed[v] == closed[w] and w < v)
                   for w in range(g.n)))


def test_maximal_closed_examples():
    assert gen_star(7).maximal_closed == (0,)
    for n in range(3, 9):
        assert gen_path(n).maximal_closed == tuple(range(1, n - 1))
        assert Graph.from_edges(n, list(combinations(range(n), 2))).maximal_closed == (0,)
    for n in range(4, 9):
        assert gen_cycle(n).maximal_closed == tuple(range(n))
    assert gen_caterpillar(4, [1, 2, 1, 3]).maximal_closed == (0, 1, 2, 3)


def test_paths_and_cycles_closed_form():
    """gamma_g(P_n) = gamma_g(C_n) = ceil(n/2) - [n = 3 mod 4] (Kosmrlj,
    Ars Math. Contemp. 2017), for n = 3..20."""
    for n in range(3, 21):
        want = (n + 1) // 2 - (n % 4 == 3)
        assert solve_game(gen_path(n)).gamma_g == want, ("P", n)
        assert solve_game(gen_cycle(n)).gamma_g == want, ("C", n)
