import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from domgame import (
    Graph,
    ParseError,
    enumerate_labeled_graphs,
    gen_caterpillar,
    gen_cycle,
    gen_gnp_isolate_free,
    gen_path,
    gen_random_tree,
    gen_star,
    parse_edge_list,
    write_edge_list,
)
from domgame.graph import _tree_edges_from_pruefer, philox_rng
from oracles import (
    check_graph_lists,
    gnp_per_pair,
    is_connected,
    isolate_free_labeled_count,
    tree_edges_from_pruefer_scan,
)


def degree_sequence(g):
    return tuple(g.degree(v) for v in range(g.n))


def test_parse_p2():
    g = parse_edge_list("2 1\n0 1")
    assert (g.n, g.edge_count) == (2, 1)
    assert g.edges == ((0, 1),)


def test_parse_p3():
    g = parse_edge_list("3 2\n0 1\n1 2")
    assert degree_sequence(g) == (1, 2, 1)


def test_parse_c4():
    g = parse_edge_list("4 4\n0 1\n1 2\n2 3\n3 0")
    assert degree_sequence(g) == (2, 2, 2, 2)


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("banana", 1),
    ("2 1", 2),                    # missing edge line
    ("3 2\n0 1\n0 3", 3),          # out of range
    ("3 1\n1 1", 2),               # self-loop
    ("3 2\n0 1\n1 0", 3),          # duplicate edge
    ("2 1\n0 1\nrest", 3),         # trailing garbage
    ("2000000 1\n0 1", 1),         # n > 2m: isolated vertices, rejected before allocating
])
def test_parse_errors_name_line(text, line):
    with pytest.raises(ParseError) as exc:
        parse_edge_list(text)
    assert exc.value.line == line


def test_roundtrip_exact():
    for g in [gen_path(7), gen_cycle(9), gen_star(6), gen_caterpillar(3, [1, 0, 2])]:
        assert parse_edge_list(write_edge_list(g)) == g


@given(n=st.integers(2, 12), seed=st.integers(0, 2**31))
@settings(max_examples=40)
def test_roundtrip_random_trees(n, seed):
    g = gen_random_tree(n, seed)
    assert parse_edge_list(write_edge_list(g)) == g


def test_gen_path_degrees():
    assert degree_sequence(gen_path(5)) == (1, 2, 2, 2, 1)


def test_gen_cycle_degrees():
    g = gen_cycle(4)
    assert g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_gen_star():
    g = gen_star(4)
    assert g.degree(0) == 3
    assert sorted(degree_sequence(g)) == [1, 1, 1, 3]


@pytest.mark.parametrize("fn, arg", [(gen_path, 1), (gen_star, 1), (gen_cycle, 2)])
def test_generator_minimums(fn, arg):
    with pytest.raises(ValueError):
        fn(arg)


def test_caterpillar_star_is_p3():
    g = gen_caterpillar(1, [2])
    assert (g.n, g.edge_count) == (3, 2)
    assert sorted(degree_sequence(g)) == [1, 1, 2]


def test_caterpillar_bare_spine():
    assert gen_caterpillar(3, [0, 0, 0]) == gen_path(3)


def test_caterpillar_two_legs():
    g = gen_caterpillar(2, [1, 1])
    assert (g.n, g.edge_count) == (4, 3)
    assert sum(1 for v in range(g.n) if g.degree(v) == 1) == 2


def test_caterpillar_argument_errors():
    with pytest.raises(ValueError):
        gen_caterpillar(2, [1])
    with pytest.raises(ValueError):
        gen_caterpillar(1, [0])


def test_random_tree_small_shapes():
    for seed in (0, 7, 99, 2**128 - 1):
        assert gen_random_tree(2, seed) == gen_path(2)
    for seed in (-5, 2**128):  # n = 2 draws nothing, but its seed is checked
        with pytest.raises(ValueError, match="seed must be"):
            gen_random_tree(2, seed)
    g = gen_random_tree(3, 5)
    assert sorted(degree_sequence(g)) == [1, 1, 2]


def test_random_tree_is_deterministic():
    assert gen_random_tree(8, 42) == gen_random_tree(8, 42)
    assert gen_random_tree(8, 42) != gen_random_tree(8, 43)


@given(n=st.integers(2, 14), seed=st.integers(0, 2**31))
@settings(max_examples=60)
def test_random_tree_properties(n, seed):
    g = gen_random_tree(n, seed)
    assert g.edge_count == n - 1
    assert is_connected(g)
    assert g.min_degree >= 1


def pruefer_codes(n, seed):
    return [int(x) for x in philox_rng(seed).integers(0, n, size=n - 2)]


@given(code=st.integers(3, 300).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))))
@example(code=(3000, pruefer_codes(3000, 11)))
@settings(max_examples=100, deadline=None)
def test_pruefer_decoding_matches_the_scan(code):
    """The heap decoder gives the textbook scan's edge list, in its order."""
    n, seq = code
    assert _tree_edges_from_pruefer(seq, n) == tree_edges_from_pruefer_scan(seq, n)


def test_gnp_extremes():
    assert gen_gnp_isolate_free(2, 1.0, 3) == gen_path(2)
    k5 = gen_gnp_isolate_free(5, 1.0, 3)
    assert k5.edge_count == 10


@given(n=st.integers(2, 16), seed=st.integers(0, 2**31),
       p=st.floats(0.05, 1.0, allow_nan=False))
@settings(max_examples=60)
def test_gnp_isolate_free(n, seed, p):
    g = gen_gnp_isolate_free(n, p, seed)
    assert g.min_degree >= 1
    assert g == gen_gnp_isolate_free(n, p, seed)


def test_gnp_argument_errors():
    with pytest.raises(ValueError):
        gen_gnp_isolate_free(5, 0.0, 1)
    with pytest.raises(ValueError):
        gen_gnp_isolate_free(5, 0.5, -1)


@st.composite
def gnp_args(draw):
    """n from 2 to 80, or around the 65,536 uniforms of one draw call (one
    call up to n = 362, more from 363 on); p drawn, or 1e-3 (isolated
    vertices to repair), 3/n, 0.5 or 1; seed 0, 2**64 or 2**128 - 1."""
    n = draw(st.integers(2, 80) | st.sampled_from([300, 362, 363, 500]))
    p = draw(st.floats(0, 1, exclude_min=True) | st.sampled_from([1e-3, min(1.0, 3 / n), 0.5, 1.0]))
    return n, p, draw(st.sampled_from([0, 2**64, 2**128 - 1]))


@given(args=gnp_args())
@example(args=(363, 1e-3, 2**128 - 1))
@example(args=(500, 3 / 500, 2**64))
@settings(max_examples=80)
def test_gnp_matches_one_draw_per_pair(args):
    """Block draws give the graph of one scalar draw per pair."""
    assert gen_gnp_isolate_free(*args) == gnp_per_pair(*args)


FAULTS = ("none", "true", "float", "negative", "out of range", "self-loop", "parallel",
          "unsorted", "missing reverse")


def with_fault(g, u, i, fault):
    """g's lists with one fault at w = adjacency[u][i]: w replaced by True,
    by float(w), by -1 or by n; u added to its own list; w repeated; u's
    list reversed; or u dropped from w's list."""
    adj = [list(a) for a in g.adjacency]
    nbrs, w = adj[u], adj[u][i]
    replace = {"true": True, "float": float(w), "negative": -1, "out of range": g.n}
    if fault in replace:
        nbrs[i] = replace[fault]
    elif fault == "self-loop":
        nbrs.append(u)
        nbrs.sort()
    elif fault == "parallel":
        nbrs.insert(i, w)
    elif fault == "unsorted":
        nbrs.reverse()
    elif fault == "missing reverse":
        adj[w].remove(u)
    return tuple(map(tuple, adj))


def check_outcome(check, n, adjacency):
    """The ValueError message of check(n, adjacency), or None if it accepts."""
    try:
        check(n, adjacency)
    except ValueError as e:
        return str(e)
    return None


@given(data=st.data())
@settings(max_examples=300)
def test_graph_check_matches_the_per_vertex_check(data):
    n = data.draw(st.integers(2, 14))
    seed = data.draw(st.integers(0, 2**32))
    g = (gen_random_tree(n, seed) if data.draw(st.booleans())
         else gen_gnp_isolate_free(n, data.draw(st.floats(0.05, 1.0)), seed))
    u = data.draw(st.integers(0, n - 1))
    fault = data.draw(st.sampled_from(FAULTS))
    assume(fault != "unsorted" or g.degree(u) >= 2)
    adjacency = with_fault(g, u, data.draw(st.integers(0, g.degree(u) - 1)), fault)
    expected = check_outcome(check_graph_lists, n, adjacency)
    assert check_outcome(Graph, n, adjacency) == expected
    assert (expected is None) == (fault == "none")


@pytest.mark.parametrize("adjacency, message", [
    (((True,), (0, 2), (1,)), "vertex 0: a neighbor id is not an int in 0..2"),
    (((1,), (0, 2), (1.0,)), "vertex 2: a neighbor id is not an int in 0..2"),  # 1.0 == 1 lists 1
    (((1,), (0, 2), (3,)), "edge 1-2 is not symmetric"),  # named before vertex 2's own fault
    (((1,), (0, 1, 2), (1,)), "vertex 1: self-loop"),
    (((1, 1), (0, 2), (1,)), "vertex 0: parallel edge"),
    (((1, 1), (0, 0, 2), (1,)), "vertex 0: parallel edge"),  # repeated at both ends
    (((1,), (2, 0), (1,)), "vertex 1: adjacency not sorted"),
    (((1, 2), (0, 2), (1,)), "edge 0-2 is not symmetric"),
    (((1,), (0,), (1,)), "edge 2-1 is not symmetric"),
])
def test_graph_check_names_the_first_fault(adjacency, message):
    with pytest.raises(ValueError) as exc:
        Graph(3, adjacency)
    assert str(exc.value) == message


def test_enumerate_n2():
    assert list(enumerate_labeled_graphs(2)) == [gen_path(2)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_enumerate_counts_match_inclusion_exclusion(n):
    graphs = list(enumerate_labeled_graphs(n))
    assert len(graphs) == isolate_free_labeled_count(n)
    assert len(set(graphs)) == len(graphs)
    assert all(g.min_degree >= 1 for g in graphs)


def test_enumerate_range_check():
    with pytest.raises(ValueError):
        list(enumerate_labeled_graphs(1))
    with pytest.raises(ValueError):
        list(enumerate_labeled_graphs(7))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    assert not Graph.from_edges(3, [(0, 1)]).is_isolate_free()
    for edges in ([(0, 1.0)], [(-1, 1)], [(1, 1)], [(0, 1), (0, 1)], [(0, 1), (1, 0)]):
        with pytest.raises(ValueError):  # a float or negative id, a self-loop, an edge twice
            Graph.from_edges(2, edges)
    for n in (2.0, None, "3"):
        with pytest.raises(ValueError, match="graph needs a positive int vertex count"):
            Graph.from_edges(n, [])


def test_graph_rejects_ids_that_are_not_ints():
    """True == 1 would make an equal graph with another hash and an edge
    list that does not parse back."""
    with pytest.raises(ValueError, match="not an int"):
        Graph.from_edges(2, [(0, True)])
    with pytest.raises(ValueError, match="not an int"):
        Graph(2, ((1.0,), (0,)))
    with pytest.raises(ValueError, match="count, got True"):
        Graph.from_edges(True, [])


def test_graph_pickles_with_its_cached_fields():
    import pickle

    g = gen_random_tree(9, 3)
    cached = {"edges": g.edges, "closed_masks": g.closed_masks, "graph_hash": g.graph_hash}
    back = pickle.loads(pickle.dumps(g))
    assert back == g
    assert {name: back.__dict__[name] for name in cached} == cached
    unused = pickle.loads(pickle.dumps(gen_random_tree(9, 3)))
    assert "closed_masks" not in unused.__dict__
    assert {name: getattr(unused, name) for name in cached} == cached
