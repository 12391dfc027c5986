"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's search machinery: they work from the
raw edge set with their own adjacency structures, enumerate without pruning,
and prefer clarity over speed.
"""

from __future__ import annotations

import itertools

from linklab.graphs import Graph, RootedGraph


def _adjacency(g: Graph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _components_of(g: Graph, removed: set[int]) -> list[set[int]]:
    adj = _adjacency(g)
    seen: set[int] = set(removed)
    out = []
    for start in range(g.vertex_count):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen and y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        out.append(comp)
    return out


def induced_subgraph(g: Graph, keep: set[int]) -> tuple[Graph, dict[int, int]]:
    """The subgraph induced on ``keep``, relabelled in increasing order, plus
    the old-to-new map."""
    relabel = {v: i for i, v in enumerate(sorted(keep))}
    edges = [(relabel[u], relabel[v]) for u, v in g.edges if u in keep and v in keep]
    return Graph.from_edges(len(relabel), edges), relabel


def all_simple_paths(g: Graph, s: int, t: int) -> list[tuple[int, ...]]:
    """Every simple s-t path, by plain recursive extension."""
    adj = _adjacency(g)
    out: list[tuple[int, ...]] = []

    def extend(path: list[int], seen: set[int]) -> None:
        x = path[-1]
        if x == t:
            out.append(tuple(path))
            return
        for y in sorted(adj[x]):
            if y not in seen:
                path.append(y)
                seen.add(y)
                extend(path, seen)
                seen.remove(y)
                path.pop()

    extend([s], {s})
    return out


def _path_is_witness(g: Graph, a_set: tuple[int, ...], path: tuple[int, ...]) -> bool:
    if set(a_set) & set(path):
        return False
    if not a_set:
        return True
    comps = _components_of(g, set(path))
    return any(set(a_set) <= comp for comp in comps)


def first_induced_witness(rg: RootedGraph) -> tuple[int, ...] | None:
    """The lexicographically first chordless b1-b2 path meeting the component
    condition; :func:`all_simple_paths` lists paths in that order."""
    adj = _adjacency(rg.graph)
    for p in all_simple_paths(rg.graph, rg.b1, rg.b2):
        chordless = not any(p[j] in adj[p[i]] for i in range(len(p)) for j in range(i + 2, len(p)))
        if chordless and _path_is_witness(rg.graph, rg.a_set, p):
            return p
    return None


def naive_is_feasible(rg: RootedGraph) -> bool:
    """Check every b1-b2 path for the component condition."""
    return any(
        _path_is_witness(rg.graph, rg.a_set, p)
        for p in all_simple_paths(rg.graph, rg.b1, rg.b2)
    )


def witness_paths(rg: RootedGraph) -> list[tuple[int, ...]]:
    """Every b1-b2 path meeting the component condition."""
    return [
        p for p in all_simple_paths(rg.graph, rg.b1, rg.b2)
        if _path_is_witness(rg.graph, rg.a_set, p)
    ]


def naive_is_critically_feasible(rg: RootedGraph, u_set: frozenset[int]) -> bool:
    """Literal reading: feasible, and every witness path covers u_set."""
    witnesses = witness_paths(rg)
    if not witnesses:
        return False
    return all(u_set <= set(p) for p in witnesses)


def naive_critical_by_deletion(rg: RootedGraph, u_set: frozenset[int]) -> bool:
    """Deletion form evaluated with the naive feasibility check."""
    if not naive_is_feasible(rg):
        return False
    for u in u_set:
        keep = [v for v in range(rg.graph.vertex_count) if v != u]
        relabel = {v: i for i, v in enumerate(keep)}
        smaller = Graph.from_edges(
            len(keep),
            ((relabel[x], relabel[y]) for x, y in rg.graph.edges if x != u and y != u),
        )
        reduced = RootedGraph(
            smaller, tuple(relabel[a] for a in rg.a_set), relabel[rg.b1], relabel[rg.b2]
        )
        if naive_is_feasible(reduced):
            return False
    return True


def brute_min_separator(g: Graph) -> int:
    """Smallest vertex set whose removal disconnects the graph; n-1 if none."""
    n = g.vertex_count
    if n <= 1:
        return 0
    for size in range(n - 1):
        for cut in itertools.combinations(range(n), size):
            if len(_components_of(g, set(cut))) >= 2:
                return size
    return n - 1


def brute_local_connectivity(g: Graph, s: int, t: int) -> int:
    """Smallest vertex set, avoiding ``s`` and ``t``, whose removal separates
    non-adjacent ``s`` and ``t``; found by trying every subset by size."""
    others = [v for v in range(g.vertex_count) if v not in (s, t)]
    for size in range(len(others) + 1):
        for cut in itertools.combinations(others, size):
            if not any(s in comp and t in comp for comp in _components_of(g, set(cut))):
                return size
    raise ValueError("s and t are adjacent")


def brute_two_linkage_exists(g: Graph, s1: int, t1: int, s2: int, t2: int) -> bool:
    """Enumerate first paths, then second paths among the leftover vertices."""
    for p1 in all_simple_paths(g, s1, t1):
        used = set(p1)
        if used & {s2, t2}:
            continue
        keep = [v for v in range(g.vertex_count) if v not in used]
        relabel = {v: i for i, v in enumerate(keep)}
        rest = Graph.from_edges(
            len(keep), ((relabel[x], relabel[y]) for x, y in g.edges if x in relabel and y in relabel)
        )
        if all_simple_paths(rest, relabel[s2], relabel[t2]):
            return True
    return False


def neighbourhood(g: Graph, member) -> set[int]:
    """Vertices outside ``member`` adjacent to one of its vertices."""
    adj = _adjacency(g)
    return set().union(*(adj[v] for v in member)) - set(member)


def brute_collection_valid(g: Graph, members: list[frozenset[int]], forbidden: set[int]) -> bool:
    """Direct statement of the collection invariant."""
    adj = _adjacency(g)
    for member in members:
        if any(not 0 <= v < g.vertex_count for v in member):
            return False
        if member & forbidden:
            return False
    for x1, x2 in itertools.combinations(members, 2):
        closed = set(x1)
        for v in x1:
            closed |= adj[v]
        if closed & x2:
            return False
    return True


def brute_candidate_members(g: Graph, forbidden: set[int], cap: int) -> list[frozenset[int]]:
    """Every connected vertex set avoiding ``forbidden`` with at most ``cap``
    neighbours, found by testing every subset of the other vertices, in
    (size, lexicographic) order."""
    adj = _adjacency(g)
    allowed = [v for v in range(g.vertex_count) if v not in forbidden]
    out = []
    for size in range(1, len(allowed) + 1):
        for combo in itertools.combinations(allowed, size):
            member = set(combo)
            neighbours: set[int] = set()
            for v in combo:
                neighbours |= adj[v]
            if len(neighbours - member) > cap:
                continue
            reached = {combo[0]}
            stack = [combo[0]]
            while stack:
                for y in adj[stack.pop()] & member - reached:
                    reached.add(y)
                    stack.append(y)
            if reached == member:
                out.append(frozenset(member))
    return out


def separator_candidate_members(g: Graph, forbidden: set[int], cap: int) -> list[frozenset[int]]:
    """The sets :func:`brute_candidate_members` lists, found as components
    left by deleting at most ``cap`` allowed vertices: such a set ``C`` is a
    component of ``G[allowed] - Y`` for ``Y = N(C) - forbidden``."""
    adj = _adjacency(g)
    allowed = [v for v in range(g.vertex_count) if v not in forbidden]
    found: set[frozenset[int]] = set()
    for size in range(cap + 1):
        for separator in itertools.combinations(allowed, size):
            unseen = set(allowed) - set(separator)
            while unseen:
                comp = {unseen.pop()}
                stack = list(comp)
                while stack:
                    for y in adj[stack.pop()] & unseen:
                        unseen.discard(y)
                        comp.add(y)
                        stack.append(y)
                if len(set().union(*(adj[v] for v in comp)) - comp) <= cap:
                    found.add(frozenset(comp))
    return sorted(found, key=lambda member: (len(member), sorted(member)))


def brute_certificate(
    rg: RootedGraph, members: list[frozenset[int]], kind: str, u_count: int = 0
) -> tuple[int, int, bool]:
    """``(lhs_edges_doubled, rhs_bound_doubled, holds)`` of a certificate,
    straight from the definition: delete the members, add a clique on each
    member's neighbourhood, join every root pair except ``b1 b2``, count the
    edges and compare with the bound of the given kind."""
    adj = _adjacency(rg.graph)
    removed = set().union(*members)
    edges = {frozenset(e) for e in rg.graph.edges if not set(e) & removed}
    neighbourhoods = [set().union(*(adj[v] for v in member)) - member for member in members]
    for nb in neighbourhoods:
        edges |= {frozenset(p) for p in itertools.combinations(nb, 2)}
    roots = [*rg.a_set, rg.b1, rg.b2]
    edges |= {frozenset(p) for p in itertools.combinations(roots, 2)} - {frozenset((rg.b1, rg.b2))}
    m = rg.m
    v = rg.graph.vertex_count - len(removed)
    if kind == "linkage":
        cap, rhs = m + 1, 2 * (m + 1) * v - m * m - 3 * m - 2
    else:
        cap, rhs = m + 2, 2 * (m + 2) * v - m * m - 5 * m - 6 - 2 * u_count
    lhs = 2 * len(edges)
    return lhs, rhs, all(len(nb) <= cap for nb in neighbourhoods) and lhs <= rhs


# ---------------------------------------------------------------------------
# Planarity by exhaustive rotation-system search.
#
# An embedding is a choice, at every vertex, of a cyclic order of its
# incident edges; tracing faces through those orders gives the face count,
# and a connected graph is planar iff some rotation system reaches
# f = 2 - v + e.  The search below enumerates rotation systems by building
# vertex successor maps incrementally while tracing faces, backtracking over
# the choices; states whose remaining darts cannot reach the Euler face
# count are discarded, which only skips provably non-planar completions.
# Blocks are searched separately: a graph is planar iff all its blocks are.


def _blocks_edge_sets(g: Graph) -> list[list[tuple[int, int]]]:
    """Biconnected components as edge lists (classic lowpoint DFS)."""
    adj = _adjacency(g)
    index = {}
    low = {}
    stack: list[tuple[int, int]] = []
    blocks: list[list[tuple[int, int]]] = []
    counter = itertools.count()

    def dfs(x: int, parent_edge: tuple[int, int] | None) -> None:
        index[x] = low[x] = next(counter)
        for y in sorted(adj[x]):
            edge = (x, y) if x < y else (y, x)
            if edge == parent_edge:
                continue
            if y not in index:
                stack.append(edge)
                dfs(y, edge)
                low[x] = min(low[x], low[y])
                if low[y] >= index[x]:
                    block = []
                    while True:
                        e = stack.pop()
                        block.append(e)
                        if e == edge:
                            break
                    blocks.append(block)
            elif index[y] < index[x]:
                stack.append(edge)
                low[x] = min(low[x], index[y])

    for v in range(g.vertex_count):
        if v not in index:
            dfs(v, None)
    return blocks


def _rotation_search_block(edges: list[tuple[int, int]]) -> bool:
    """Exhaustive rotation-system search on one 2-connected block."""
    vertices = sorted({v for e in edges for v in e})
    v = len(vertices)
    e = len(edges)
    if e <= 1:
        return True
    if e > 3 * v - 6:
        return False
    incident: dict[int, list[tuple[int, int]]] = {x: [] for x in vertices}
    for edge in edges:
        incident[edge[0]].append(edge)
        incident[edge[1]].append(edge)
    degree = {x: len(incident[x]) for x in vertices}
    f_target = 2 - v + e

    all_darts = sorted(
        itertools.chain(((a, b) for a, b in edges), ((b, a) for a, b in edges))
    )
    used: set[tuple[int, int]] = set()
    succ: dict[int, dict[tuple[int, int], tuple[int, int]]] = {x: {} for x in vertices}
    has_pred: dict[int, set[tuple[int, int]]] = {x: set() for x in vertices}

    def cycle_ok(x: int, e_in: tuple[int, int], e_out: tuple[int, int]) -> bool:
        # Adding e_in -> e_out at x must not close a cycle shorter than deg(x).
        steps = 1
        cur = e_out
        while cur in succ[x]:
            cur = succ[x][cur]
            steps += 1
        if cur == e_in:
            return steps == degree[x]
        return True

    def other(edge: tuple[int, int], x: int) -> int:
        return edge[1] if edge[0] == x else edge[0]

    def search(faces_done: int) -> bool:
        remaining = 2 * e - len(used)
        if remaining == 0:
            return faces_done == f_target
        needed = f_target - faces_done
        if needed <= 0 or remaining < 3 * needed:
            return False
        start = next(d for d in all_darts if d not in used)
        return trace(start, start, faces_done, 0)

    def trace(start: tuple[int, int], dart: tuple[int, int], faces_done: int, length: int) -> bool:
        used.add(dart)
        length += 1
        # Even closing the open face as early as allowed (length >= 3) and
        # cutting all later faces at length 3 cannot exceed this face count:
        remaining = 2 * e - len(used)
        if faces_done + 1 + (remaining - max(0, 3 - length)) // 3 < f_target:
            used.discard(dart)
            return False
        x = dart[1]
        e_in = (dart[0], dart[1]) if dart[0] < dart[1] else (dart[1], dart[0])
        assigned = succ[x].get(e_in)
        if assigned is not None:
            nxt = (x, other(assigned, x))
            ok = _follow(start, nxt, faces_done, length)
            used.discard(dart)
            return ok
        for e_out in incident[x]:
            if e_out in has_pred[x]:
                continue
            nxt = (x, other(e_out, x))
            if nxt != start and nxt in used:
                continue
            if not cycle_ok(x, e_in, e_out):
                continue
            succ[x][e_in] = e_out
            has_pred[x].add(e_out)
            ok = _follow(start, nxt, faces_done, length)
            del succ[x][e_in]
            has_pred[x].discard(e_out)
            if ok:
                used.discard(dart)
                return True
        used.discard(dart)
        return False

    def _follow(start: tuple[int, int], nxt: tuple[int, int], faces_done: int, length: int) -> bool:
        if nxt == start:
            return search(faces_done + 1)
        if nxt in used:
            return False
        return trace(start, nxt, faces_done, length)

    return search(0)


def rotation_system_is_planar(g: Graph) -> bool:
    return all(_rotation_search_block(block) for block in _blocks_edge_sets(g))


def brute_seymour_certificate(rg: RootedGraph, members: list[frozenset[int]]) -> bool:
    """The planar certificate straight from its definition: every member has
    at most 3 neighbours, and the graph left by deleting the members, adding
    a clique on each neighbourhood, the ring ``a1 b1 a2 b2`` and an apex
    joined to the ring passes the rotation-system search."""
    adj = _adjacency(rg.graph)
    removed = set().union(*members)
    neighbourhoods = [set().union(*(adj[v] for v in member)) - member for member in members]
    if any(len(nb) > 3 for nb in neighbourhoods):
        return False
    edges = {frozenset(e) for e in rg.graph.edges if not set(e) & removed}
    for nb in neighbourhoods:
        edges |= {frozenset(p) for p in itertools.combinations(nb, 2)}
    ring = [rg.a_set[0], rg.b1, rg.a_set[1], rg.b2]
    apex = rg.graph.vertex_count
    edges |= {frozenset((ring[i], ring[(i + 1) % 4])) for i in range(4)}
    edges |= {frozenset((r, apex)) for r in ring}
    return rotation_system_is_planar(Graph.from_edges(apex + 1, (tuple(e) for e in edges)))
