"""Immutable simple graphs, edge-list I/O, and deterministic corpus generators.

Vertex ids are dense integers 0..n-1; downstream bitmask encodings rely on
this. Every random generator draws from numpy's Philox counter-based bit
generator keyed by an explicit seed, so a corpus graph is reproducible from
(parameters, seed) alone.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import ParseError


def philox_rng(seed: int) -> np.random.Generator:
    """Seeded Philox (4x64 counter-based) generator; the package-wide PRNG."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if seed >= 2**128:  # Philox's key has 128 bits
        raise ValueError("seed must be below 2**128")
    return np.random.Generator(np.random.Philox(key=seed))


def _check_vertex_count(n: object) -> None:
    """Raise ValueError unless n is a positive int; a bool is an int
    subclass, but no vertex count."""
    if type(n) is not int or n < 1:
        raise ValueError(f"graph needs a positive int vertex count, got {n!r}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with sorted adjacency lists.

    No self-loops or parallel edges; adjacency is symmetric. Instances are
    immutable and safe to share between concurrent workers.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_vertex_count(self.n)
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        if not _lists_valid(self.n, self.adjacency):
            _raise_first_fault(self.n, self.adjacency)  # returns for valid lists that are not tuples

    @staticmethod
    def from_edges(n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        """The graph of an edge list. The vertex count is checked before any
        list is built; ids are guarded only so that none can index or wrap
        around a list; self-loops and repeated edges are left to the check
        in __post_init__."""
        _check_vertex_count(n)
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u!r}-{v!r}: a vertex id is not an int in 0..{n - 1}")
            nbrs[u].append(v)
            nbrs[v].append(u)
        return Graph(n, tuple(tuple(sorted(a)) for a in nbrs))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u in range(self.n) for v in self.adjacency[u] if u < v)

    @cached_property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def leaf_mask(self) -> int:
        """Mask of the vertices of degree 1."""
        return sum(1 << v for v, nbrs in enumerate(self.adjacency) if len(nbrs) == 1)

    @property
    def min_degree(self) -> int:
        return min(self.degree(v) for v in range(self.n))

    def is_isolate_free(self) -> bool:
        return self.min_degree >= 1

    @cached_property
    def open_masks(self) -> tuple[int, ...]:
        """open_masks[v] is the bitmask of v's neighbors."""
        return tuple(sum(1 << w for w in nbrs) for nbrs in self.adjacency)

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """closed_masks[v] is the bitmask of v together with its neighbors."""
        return tuple(m | 1 << v for v, m in enumerate(self.open_masks))

    @cached_property
    def maximal_closed(self) -> tuple[int, ...]:
        """Vertices whose closed neighborhood lies in no other vertex's,
        ascending; of equal closed neighborhoods only the smallest id."""
        closed = self.closed_masks
        return tuple(v for v, a in enumerate(closed)
                     if not any(b & a == a and (b != a or w < v)
                                for w, b in enumerate(closed) if w != v))

    @cached_property
    def graph_hash(self) -> str:
        return hashlib.sha256(write_edge_list(self).encode()).hexdigest()[:12]


def _lists_valid(n: int, adjacency: Sequence[Sequence[int]]) -> bool:
    """Whether the lists make a simple symmetric graph, in O(n + m): the ids
    are ints in 0..n-1, each list equals the ascending list of the vertices
    that list its vertex (so the lists are sorted and every edge is listed
    at both ends), no list holds its own vertex and none repeats an id."""
    heads = list(itertools.chain.from_iterable(adjacency))
    if heads and (set(map(type, heads)) != {int} or min(heads) < 0 or max(heads) >= n):
        return False
    back: list[list[int]] = [[] for _ in range(n)]
    for u, nbrs in enumerate(adjacency):
        for w in nbrs:
            back[w].append(u)
    return (list(map(tuple, back)) == list(adjacency)
            and not any(map(operator.contains, adjacency, range(n)))
            and sum(map(len, map(set, adjacency))) == len(heads))


def _raise_first_fault(n: int, adjacency: Sequence[Sequence[int]]) -> None:
    """Raise ValueError for the first fault in vertex order: at each vertex,
    a fault of its own list, else the first w it lists whose list lacks it
    (from the first faulty list on, w's list is searched as it stands)."""
    back: list[list[int]] = [[] for _ in range(n)]  # back[w]: the vertices listing w, below k
    k, fault = n, None
    for u, nbrs in enumerate(adjacency):
        fault = _list_fault(u, nbrs, n)
        if fault is not None:
            k = u
            break
        for w in nbrs:
            back[w].append(u)
    for u in range(k):
        listed_by = set(back[u])
        for w in adjacency[u]:
            if (w not in listed_by) if w < k else (u not in adjacency[w]):
                raise ValueError(f"edge {u}-{w} is not symmetric")
    if fault is not None:
        raise ValueError(fault)


def _list_fault(u: int, nbrs: Sequence[int], n: int) -> str | None:
    """What is wrong with vertex u's neighbor list on its own, or None."""
    if any(type(w) is not int or not 0 <= w < n for w in nbrs):
        return f"vertex {u}: a neighbor id is not an int in 0..{n - 1}"
    if u in nbrs:
        return f"vertex {u}: self-loop"
    if len(set(nbrs)) != len(nbrs):
        return f"vertex {u}: parallel edge"
    if tuple(sorted(nbrs)) != tuple(nbrs):
        return f"vertex {u}: adjacency not sorted"
    return None


def parse_edge_list(text: str) -> Graph:
    """Parse the package's edge-list format.

    Line 1 is a header ``n m``; the next m lines are edges ``u v`` with
    0 <= u,v < n and u != v, tokens separated by single spaces. Duplicate
    edges and self-loops are rejected, and so is n > 2m, which leaves a
    vertex isolated. Raises ParseError naming the offending 1-based line.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing header")
    head = lines[0].split(" ")
    if len(head) != 2:
        raise ParseError(1, f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(1, f"header must be two integers, got {lines[0]!r}") from None
    if n < 1 or m < 0:
        raise ParseError(1, f"invalid sizes n={n} m={m}")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for i in range(m):
        lineno = i + 2
        if i + 1 >= len(lines):
            raise ParseError(lineno, f"expected {m} edges, file ends after {i}")
        parts = lines[i + 1].split(" ")
        if len(parts) != 2:
            raise ParseError(lineno, f"edge line must be 'u v', got {lines[i + 1]!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, f"edge line must be two integers, got {lines[i + 1]!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(lineno, f"vertex out of range: {u} {v} (n={n})")
        if u == v:
            raise ParseError(lineno, f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(lineno, f"duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    for extra_no, ln in enumerate(lines[m + 1:], start=m + 2):
        if ln.strip():
            raise ParseError(extra_no, f"unexpected content after {m} edges: {ln!r}")
    if n > 2 * m:  # checked before building n adjacency lists
        raise ParseError(1, f"n={n} exceeds 2m={2 * m}, so some vertex is isolated")
    return Graph.from_edges(n, edges)


def write_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list: UTF-8 text, LF line endings."""
    out = [f"{g.n} {g.edge_count}"]
    for u, nbrs in enumerate(g.adjacency):  # each edge once, as u v with u < v
        out.extend(f"{u} {v}" for v in nbrs[bisect.bisect_right(nbrs, u):])
    return "\n".join(out) + "\n"


def gen_path(n: int) -> Graph:
    if n < 2:
        raise ValueError("a path needs at least 2 vertices")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def gen_star(n: int) -> Graph:
    """Star on n vertices: center 0 with n-1 leaves."""
    if n < 2:
        raise ValueError("a star needs at least 2 vertices")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def gen_caterpillar(spine: int, legs_per_spine: Sequence[int]) -> Graph:
    """Path of `spine` vertices with legs_per_spine[i] pendant leaves on each."""
    if spine < 1:
        raise ValueError("spine must have at least one vertex")
    if len(legs_per_spine) != spine:
        raise ValueError("legs_per_spine length must equal spine")
    if any(k < 0 for k in legs_per_spine):
        raise ValueError("leg counts must be non-negative")
    if spine == 1 and legs_per_spine[0] == 0:
        raise ValueError("a single spine vertex with no legs is an isolated vertex")
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i, k in enumerate(legs_per_spine):
        for _ in range(k):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def gen_random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree via a random Pruefer sequence; fixed by (n, seed)."""
    if n < 2:
        raise ValueError("a tree needs at least 2 vertices")
    rng = philox_rng(seed)
    seq = [int(x) for x in rng.integers(0, n, size=n - 2)]
    return Graph.from_edges(n, _tree_edges_from_pruefer(seq, n))


def _tree_edges_from_pruefer(seq: list[int], n: int) -> list[tuple[int, int]]:
    """The tree of a Pruefer sequence: each code is joined to the smallest
    leaf, taken from a min-heap of the leaves, so decoding is O(n log n)."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [j for j in range(n) if degree[j] == 1]  # ascending, so a heap
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = sorted(leaves)
    edges.append((u, v))
    return edges


_PAIR_BLOCK = 1 << 16  # uniforms per draw call, unless one row is longer


def gen_gnp_isolate_free(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample; isolated vertices are repaired in ascending order
    by attaching one edge to a uniformly random other vertex.

    The stream gives one uniform per pair u < v, in lexicographic order (an
    edge where it is below p), then one draw per repair. The uniforms are
    drawn a block of whole rows at a time: numpy's Generator.random(k)
    yields the values of k scalar calls and leaves the stream where they
    would, so the graph is that of one scalar draw per pair.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices for an isolate-free graph")
    if not 0 < p <= 1:
        raise ValueError("p must satisfy 0 < p <= 1")
    rng = philox_rng(seed)
    row = np.arange(n, dtype=np.int64)
    first = row * (2 * n - row - 1) // 2  # index of pair (u, u + 1); first[n - 1] is the pair count
    hits = []
    u = 0
    while u < n - 1:
        end = max(u + 1, int(np.searchsorted(first, first[u] + _PAIR_BLOCK, side="right")) - 1)
        hits.append(np.flatnonzero(rng.random(int(first[end] - first[u])) < p) + first[u])
        u = end
    pair = np.concatenate(hits)
    low = np.searchsorted(first, pair, side="right") - 1
    high = pair - first[low] + low + 1
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(low.tolist(), high.tolist()):  # lexicographic order, so every list comes out sorted
        nbrs[u].append(v)
        nbrs[v].append(u)
    for v in range(n):
        if not nbrs[v]:
            u = int(rng.integers(0, n - 1))
            if u >= v:
                u += 1
            nbrs[v].append(u)
            bisect.insort(nbrs[u], v)
    return Graph(n, tuple(map(tuple, nbrs)))


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices with min degree >= 1, once each.

    Capped at n <= 6: the candidate pool is 2^(n choose 2) edge subsets.
    """
    if not 2 <= n <= 6:
        raise ValueError("exhaustive enumeration supports 2 <= n <= 6")
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        degree = [0] * n
        edges = []
        for i, (u, v) in enumerate(pairs):
            if (bits >> i) & 1:
                degree[u] += 1
                degree[v] += 1
                edges.append((u, v))
        if all(d >= 1 for d in degree):
            yield Graph.from_edges(n, edges)
