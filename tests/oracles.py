"""Independent brute-force oracles used to cross-check the fast paths.

Everything here follows the definitions rather than the engine's shortcuts:
plain Python sets with no memoization, a full recomputation over all n
vertices where the engine patches a local delta, or a search that branches
on every Staller move where the engine merges equal successors (and one
that also plays every line to its end where the engine cuts) and that
rebuilds its witness by replaying the line through play_game.
"""

from itertools import combinations
from math import comb

from domgame.errors import IllegalMoveError
from domgame.graph import Graph, philox_rng
from domgame.phases import (
    CycleStatus,
    F_decrease,
    F_value,
    PhaseContext,
    maybe_advance,
    shade_for_phase,
)
from domgame.residual import (
    BLUE_SHADES,
    COLOR_CODE,
    Color,
    ResidualState,
    apply_move,
    f_decrease,
    init_state,
    is_over,
    legal_moves,
    vertices_of,
)
from domgame.solver import GameValue
from domgame.strategy import dominator_greedy, play_game


def closed_neighborhood(g, v):
    return {v} | set(g.adjacency[v])


def color_partition(g, played):
    """(white, blue, red) sets straight from the coloring definition."""
    dominated = set()
    for v in played:
        dominated |= closed_neighborhood(g, v)
    white = {v for v in range(g.n) if v not in dominated}
    red = {v for v in range(g.n) if closed_neighborhood(g, v) <= dominated}
    blue = set(range(g.n)) - white - red
    return white, blue, red


def game_value_bruteforce(g, undominated, dominator_turn):
    """Plain recursive minimax with no memo table."""
    if not undominated:
        return 0
    values = []
    for v in range(g.n):
        newly = closed_neighborhood(g, v) & undominated
        if not newly:
            continue
        values.append(1 + game_value_bruteforce(g, undominated - newly, not dominator_turn))
    return min(values) if dominator_turn else max(values)


def game_value_unpruned(g, mask, dominator_to_move, memo):
    """The memoized minimax without move pruning, cutoffs or bounds: both
    sides try every vertex at every state and every child is solved
    exactly. `memo` is a bytearray(2 << n) of exact values, byte 2*mask + 1
    with Dominator to move and 2*mask with Staller, 0 if not yet solved;
    `solver.game_value` keeps bounds in a table of its own layout."""
    if not mask:
        return 0
    full = (1 << g.n) - 1
    keeps = [full ^ c for c in g.closed_masks]

    def dominator(m):
        best = 255
        for keep in keeps:
            nm = m & keep
            if nm == m:
                continue
            if not nm:
                best = 0
                break
            sub = memo[nm << 1] or staller(nm)
            if sub < best:
                best = sub
        best += 1
        memo[m << 1 | 1] = best
        return best

    def staller(m):
        best = 0
        for keep in keeps:
            nm = m & keep
            if nm != m and nm:
                sub = memo[nm << 1 | 1] or dominator(nm)
                if sub > best:
                    best = sub
        best += 1
        memo[m << 1] = best
        return best

    if dominator_to_move:
        return memo[mask << 1 | 1] or dominator(mask)
    return memo[mask << 1] or staller(mask)


def solve_game_unpruned(g):
    """`solve_game`'s four fields from `game_value_unpruned`: both values
    and the first moves, ties to the smallest id."""
    full = (1 << g.n) - 1
    memo = bytearray(2 << g.n)
    after = [full & ~c for c in g.closed_masks]
    val_d = [1 + game_value_unpruned(g, m, False, memo) for m in after]
    val_s = [1 + game_value_unpruned(g, m, True, memo) for m in after]
    best_d, best_s = min(val_d), max(val_s)
    return GameValue(best_d, best_s, val_d.index(best_d), val_s.index(best_s))


def domination_number(g):
    """Smallest dominating-set size by exhaustive subset search with early
    exit; deliberately independent of the game recursion."""
    full = set(range(g.n))
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            if set().union(*(closed_neighborhood(g, v) for v in combo)) == full:
                return k
    return g.n


def isolate_free_labeled_count(n):
    """Inclusion-exclusion count of labeled graphs on n vertices with no
    isolated vertex."""
    return sum((-1) ** k * comb(n, k) * 2 ** comb(n - k, 2) for k in range(n + 1))


def is_connected(g):
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.adjacency[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def gnp_per_pair(n, p, seed):
    """gen_gnp_isolate_free with one scalar rng.random() call per vertex
    pair u < v, in lexicographic order, then the repairs of isolated
    vertices in ascending order, each joined to a uniform other vertex."""
    rng = philox_rng(seed)
    nbrs = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                nbrs[u].add(v)
                nbrs[v].add(u)
    for v in range(n):
        if not nbrs[v]:
            u = int(rng.integers(0, n - 1))
            if u >= v:
                u += 1
            nbrs[v].add(u)
            nbrs[u].add(v)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in nbrs[u] if u < v])


def check_graph_lists(n, adjacency):
    """Graph's input check vertex by vertex: raise ValueError at the first
    vertex whose list has a fault, or that lists w where w's list lacks it
    (searched in w's list as it stands)."""
    if type(n) is not int or n < 1:
        raise ValueError(f"graph needs a positive int vertex count, got {n!r}")
    if len(adjacency) != n:
        raise ValueError("adjacency length does not match vertex count")
    for u, nbrs in enumerate(adjacency):
        if any(type(w) is not int or not 0 <= w < n for w in nbrs):
            raise ValueError(f"vertex {u}: a neighbor id is not an int in 0..{n - 1}")
        if u in nbrs:
            raise ValueError(f"vertex {u}: self-loop")
        if len(set(nbrs)) != len(nbrs):
            raise ValueError(f"vertex {u}: parallel edge")
        if tuple(sorted(nbrs)) != tuple(nbrs):
            raise ValueError(f"vertex {u}: adjacency not sorted")
        for w in nbrs:
            if u not in adjacency[w]:
                raise ValueError(f"edge {u}-{w} is not symmetric")


def tree_edges_from_pruefer_scan(seq, n):
    """The tree of a Pruefer sequence by the textbook decoding: for each
    code x, join x to the smallest vertex of degree 1, found by a scan from
    vertex 0, then join the last two such vertices."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        for j in range(n):
            if degree[j] == 1:
                edges.append((j, x))
                degree[j] -= 1
                degree[x] -= 1
                break
    u, v = (j for j in range(n) if degree[j] == 1)
    edges.append((u, v))
    return edges


def retained_edges(s):
    """Edges with at least one white endpoint, in the graph's edge order."""
    white = {v for v, c in enumerate(colors(s)) if c is Color.WHITE}
    return tuple((u, w) for u, w in s.graph.edges if u in white or w in white)


def max_f_decrease(s):
    """Largest f-decrease of any legal move with dark shading (0 if none)."""
    return max((f_decrease(s, v, Color.DARK_BLUE) for v in legal_moves(s)), default=0)


def max_F_decrease(s, reg):
    """Largest F-decrease of any legal move under registry reg (0 if none)."""
    return max((F_decrease(s, reg, v) for v in legal_moves(s)), default=0)


def components_bfs(s):
    """(kind, mask) of each component of s's non-red vertices over retained
    edges, in order of their smallest member, by a plain breadth-first
    search over sets, with the kind read off the colors by its definition:
    "WW", "WB+", "WB-", "BWB" or "other"."""
    col = colors(s)
    nbrs = {v: set() for v in range(s.graph.n)}
    for u, w in retained_edges(s):
        nbrs[u].add(w)
        nbrs[w].add(u)
    seen, out = set(), []
    for start in range(s.graph.n):
        if start in seen or col[start] is Color.RED:
            continue
        comp, queue = {start}, [start]
        while queue:
            for w in nbrs[queue.pop()] - comp:
                comp.add(w)
                queue.append(w)
        seen |= comp
        whites = sum(col[u] is Color.WHITE for u in comp)
        shades = sorted(col[u] for u in comp if col[u] is not Color.WHITE)
        if len(comp) == 2 and whites == 2:
            kind = "WW"
        elif len(comp) == 2 and shades == [Color.LIGHT_BLUE]:
            kind = "WB+"
        elif len(comp) == 2 and shades == [Color.DARK_BLUE]:
            kind = "WB-"
        elif len(comp) == 3 and whites == 1 and Color.RED not in shades:
            kind = "BWB"
        else:
            kind = "other"
        out.append((kind, sum(1 << u for u in comp)))
    return out


# A component's share of F = f - (open X-cycles) - (WB+ pairs) - 3 * (BWB
# components), by its components_bfs kind; the other kinds have none.
PENALTY = {"WB+": 1, "BWB": 3}


def nonspecial_blue_leaf(s):
    """The smallest blue vertex with exactly one white neighbor whose
    retained-edge component neither has order 2 nor is a BWB, by
    components_bfs and the colors; None if there is none."""
    col = colors(s)
    special = set()
    for kind, mask in components_bfs(s):
        members = {v for v in range(s.graph.n) if mask >> v & 1}
        if len(members) == 2 or kind == "BWB":
            special |= members
    for v in range(s.graph.n):
        whites = sum(col[w] is Color.WHITE for w in s.graph.adjacency[v])
        if col[v] in BLUE_SHADES and whites == 1 and v not in special:
            return v
    return None


def _shape_masks(comps):
    """(vertices in components of order >= 4, vertices in BWB components)
    of the components_bfs pairs comps: all that _status reads of them."""
    big = bwb = 0
    for kind, mask in comps:
        if mask.bit_count() >= 4:
            big |= mask
        elif kind == "BWB":
            bwb |= mask
    return big, bwb


def _status(reg, i, opens, dom, red, big, bwb):
    """The status of X-cycle i from its definition, read off a state's
    dominated and red masks and its _shape_masks. The cycle's edges are
    the edges of G among its members, and an edge stops being retained
    when both its ends are dominated, so the cycle is closed when no two
    dominated members are adjacent; it is open when some dominated member
    in big has exactly one white neighbor, and finished when every member
    is red or in a BWB component. No red vertex is in big."""
    members = reg.cycles[i]
    ends = members & dom
    if not any(opens[u] & ends for u in vertices_of(ends)):
        return CycleStatus.CLOSED
    if any((opens[u] & ~dom).bit_count() == 1 for u in vertices_of(members & dom & big)):
        return CycleStatus.OPEN
    if members & ~(red | bwb) == 0:
        return CycleStatus.FINISHED
    return CycleStatus.OTHER


def F_decrease_resplit(s, reg, v):
    """F(s) - F(s after v, shaded dark) by re-splitting all of C(v), v's
    retained-edge component, in the state apply_move builds, and
    classifying again with _status, before and after the move, every
    X-cycle with a member in C(v); the components outside C(v) are s's
    own. Components and their kinds come from components_bfs and their
    discounts from PENALTY. post's components refine s's, so C(v)'s
    pieces are those of post that meet it."""
    post = apply_move(s, v, Color.DARK_BLUE)
    comps = components_bfs(s)
    comp = next(c for c in comps if c[1] >> v & 1)
    kind, mask = comp
    pieces = [c for c in components_bfs(post) if c[1] & mask]
    dec = s.f - post.f - PENALTY.get(kind, 0) + sum(PENALTY.get(k, 0) for k, _ in pieces)
    opens, pre_masks = s.graph.open_masks, _shape_masks(comps)
    masks = _shape_masks([c for c in comps if c is not comp] + pieces)
    for i, members in enumerate(reg.cycles):
        if members & mask:
            was = _status(reg, i, opens, s.dominated_mask, s.red_mask, *pre_masks)
            status = _status(reg, i, opens, post.dominated_mask, post.red_mask, *masks)
            dec -= (was is CycleStatus.OPEN) - (status is CycleStatus.OPEN)
    return dec


_COLORS = tuple(Color)  # indexed by value


def colors(s):
    """Per-vertex colors of s, read off its snapshot bytes."""
    return tuple(map(_COLORS.__getitem__, s._color_bytes()))


def state_from_colors(g, colors):
    """The state with the given per-vertex colors, its masks read off them."""
    def mask(*shades):
        return sum(1 << v for v, c in enumerate(colors) if c in shades)

    return ResidualState(g, mask(Color.LIGHT_BLUE, Color.DARK_BLUE, Color.RED),
                         mask(Color.RED), mask(Color.LIGHT_BLUE))


def apply_move_full(s, v, shade):
    """The move with every one of the n colors recomputed from closed_masks,
    and the masks and f recounted from the colors; apply_move's local scan
    must agree with it."""
    if shade not in BLUE_SHADES:
        raise ValueError("shade must be LIGHT_BLUE or DARK_BLUE")
    col = colors(s)
    if not 0 <= v < s.graph.n or col[v] is Color.RED:
        raise IllegalMoveError(f"vertex {v} cannot be played")
    masks = s.graph.closed_masks
    new_dom = s.dominated_mask | masks[v]
    new_colors = []
    for u in range(s.graph.n):
        if not (new_dom >> u) & 1:
            new_colors.append(Color.WHITE)
        elif masks[u] & ~new_dom == 0:
            new_colors.append(Color.RED)
        elif col[u] is Color.WHITE:
            new_colors.append(shade)
        else:
            new_colors.append(col[u])
    return state_from_colors(s.graph, tuple(new_colors))


def _full_drops(ctx, s):
    """{v: drop of the active potential if v were played}, over the legal
    moves of s, every drop counted on states rebuilt from colors with every
    color recomputed (apply_move_full), so nothing memoized or carried is
    read."""
    pre = state_from_colors(s.graph, colors(s))
    if ctx.phase <= 2:
        shade = shade_for_phase(ctx.phase)
        return {v: pre.f - apply_move_full(pre, v, shade).f for v in legal_moves(pre)}
    F_pre = F_value(pre, ctx.registry)
    return {v: F_pre - F_value(apply_move_full(pre, v, Color.DARK_BLUE), ctx.registry)
            for v in legal_moves(pre)}


def greedy_full_scan(ctx, s):
    """The greedy Dominator's move by its definition: the legal vertex whose
    move drops the active potential most, ties to the smallest id."""
    drops = _full_drops(ctx, s)
    return max(drops, key=lambda v: (drops[v], -v))


def min_decrease_full_scan(ctx, s):
    """staller_min_decrease's move by its definition: the legal vertex whose
    move drops the active potential least, ties to the smallest id."""
    drops = _full_drops(ctx, s)
    return min(drops, key=lambda v: (drops[v], v))


def snapshot_join(s):
    """s's snapshot text joined from a table of each vertex's line in each
    color, the way the engine built it before its byte template."""
    lines = [tuple(f"{v} {code}\n" for code in COLOR_CODE) for v in range(s.graph.n)]
    return "".join(map(tuple.__getitem__, lines, s._color_bytes()))


def phase2_end(s):
    """phases._phase2_end from the definitions, with sets: (the first
    violation of the phase-2 end structure, or None; the member masks of
    the cycle components of the white subgraph, () with a violation). The
    white degrees come first, in vertex order; then the white components,
    found by a breadth-first search in order of their smallest member,
    where one of 3 or more vertices must be a cycle (every member has two
    white neighbors) of length >= 4; then every white vertex with no
    white neighbor, against its neighbors of white degree 3."""
    g, col = s.graph, colors(s)
    white = {v for v in range(g.n) if col[v] is Color.WHITE}
    nbrs = {v: set(g.adjacency[v]) & white for v in range(g.n)}
    for v in range(g.n):
        if v in white and len(nbrs[v]) > 2:
            return f"white vertex {v} has {len(nbrs[v])} white neighbors", ()
        if col[v] in BLUE_SHADES and len(nbrs[v]) > 3:
            return f"blue vertex {v} has {len(nbrs[v])} white neighbors", ()
    cycles, seen = [], set()
    for start in sorted(white):
        if start in seen:
            continue
        comp, queue = {start}, [start]
        while queue:
            for w in nbrs[queue.pop()] - comp:
                comp.add(w)
                queue.append(w)
        seen |= comp
        if len(comp) <= 2:
            continue
        if any(len(nbrs[u]) != 2 for u in comp):
            return f"white component {sorted(comp)} is neither P1, P2, nor a cycle", ()
        if len(comp) == 3:
            return f"white component {sorted(comp)} is a 3-cycle", ()
        cycles.append(sum(1 << u for u in comp))
    for v in sorted(white):
        if not nbrs[v]:
            for w in g.adjacency[v]:
                if len(nbrs[w]) == 3:
                    return (f"edge between all-blue-neighborhood white {v} and "
                            f"3-white-degree blue {w}"), ()
    return None, tuple(cycles)


def cycle_closed(s, members):
    """Whether every edge of G between two vertices of the mask `members`
    is retained in s, i.e. has a white end."""
    col = colors(s)
    return all(Color.WHITE in (col[u], col[w]) for u, w in s.graph.edges
               if members >> u & 1 and members >> w & 1)


def make_staller_random_listing(seed):
    """The random Staller drawing an index into the listed legal moves, with
    the same Philox stream and draw as strategy.make_staller_random."""
    rng = philox_rng(seed)

    def staller_random(ctx, s):
        moves = legal_moves(s)
        return moves[int(rng.integers(0, len(moves)))]

    staller_random.policy_name = "random"
    return staller_random


def make_scripted_staller(moves, name="scripted"):
    """A Staller policy that plays the given moves in order."""
    it = iter(moves)

    def staller_scripted(ctx, s):
        return next(it)

    staller_scripted.policy_name = name
    return staller_scripted


def staller_worst_case_unmerged(g, first="D"):
    """(length, witness) of the longest game against the greedy Dominator,
    searching every Staller move, also those whose successor equals that of
    a smaller vertex; the witness is the first maximizing line in
    ascending-id order, replayed through play_game from the Staller's moves."""
    full = (1 << g.n) - 1
    best_len = -1
    best_script = ()

    def search(state, ctx, idx, made, script):
        nonlocal best_len, best_script
        # each move dominates at least one new (white) vertex
        if made + (full & ~state.dominated_mask).bit_count() <= best_len:
            return
        options = [dominator_greedy(ctx, state)] if idx % 2 == 1 else legal_moves(state)
        for v in options:
            nxt = apply_move(state, v, shade_for_phase(ctx.phase))
            nscript = script + (v,) if idx % 2 == 0 else script
            if is_over(nxt):
                if made + 1 > best_len:
                    best_len, best_script = made + 1, nscript
                continue
            nctx = maybe_advance(ctx, nxt) if idx % 2 == 0 else ctx
            search(nxt, nctx, idx + 1, made + 1, nscript)

    search(*_search_opening(g, first), 0, ())
    return best_len, _scripted_witness(g, first, best_script)


def staller_worst_case_all_lines(g, first="D"):
    """(length, witness) of the longest game against the greedy Dominator,
    from a walk over every Staller line to its end: no cutoff on the moves
    left and no merging of equal successors. The witness is the first
    longest line in ascending-id order, replayed through play_game from the
    Staller's moves."""
    best_len, best_script = -1, ()

    def walk(state, ctx, idx, made, script):
        nonlocal best_len, best_script
        if is_over(state):
            if made > best_len:
                best_len, best_script = made, script
            return
        options = [dominator_greedy(ctx, state)] if idx % 2 == 1 else legal_moves(state)
        for v in options:
            nxt = apply_move(state, v, shade_for_phase(ctx.phase))
            if idx % 2 == 1:
                walk(nxt, ctx, idx + 1, made + 1, script)
            else:
                nctx = ctx if is_over(nxt) else maybe_advance(ctx, nxt)
                walk(nxt, nctx, idx + 1, made + 1, script + (v,))

    walk(*_search_opening(g, first), 0, ())
    return best_len, _scripted_witness(g, first, best_script)


def _search_opening(g, first):
    """(state, context, index) before the first move: the phase machine is
    evaluated before move 1 when Dominator starts."""
    state = init_state(g)
    if first == "S":
        return state, PhaseContext(), 0
    return state, maybe_advance(PhaseContext(), state), 1


def _scripted_witness(g, first, script):
    """The game of the greedy Dominator against the Staller moves `script`."""
    return play_game(g, dominator_greedy, make_scripted_staller(script, name="worst_case"), first)
