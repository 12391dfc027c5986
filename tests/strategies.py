"""Hypothesis strategies for graphs, rooted graphs, and collections, plus the
named ``trigrid`` family."""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from linklab.graphs import Collection, Graph, RootedGraph, bits_of, mask_of, neighborhood_mask


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 7, connected: bool = False):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    g = Graph.from_edges(n, picks)
    if connected and n > 1:
        # Thread a random spanning path through all vertices.
        order = draw(st.permutations(range(n)))
        g = Graph.from_edges(n, [*g.edges, *zip(order, order[1:])])
    return g


@st.composite
def rooted_graphs(draw, min_m: int = 0, max_m: int = 3, max_n: int = 7, connected: bool = False):
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    g = draw(graphs(min_n=m + 2, max_n=max(m + 2, max_n), connected=connected))
    roots = draw(st.permutations(range(g.vertex_count)))
    a_set = tuple(sorted(roots[:m]))
    return RootedGraph(g, a_set, roots[m], roots[m + 1])


@st.composite
def collections_in(draw, g: Graph, forbidden: frozenset[int] = frozenset()):
    """A random valid collection in ``g`` avoiding ``forbidden``.

    Members are grown greedily from random seeds; each new member must keep
    its closed neighborhood clear of the members chosen so far.
    """
    available = [v for v in range(g.vertex_count) if v not in forbidden]
    members: list[frozenset[int]] = []
    # Vertices inside or adjacent to an already chosen member; keeping new
    # members clear of this set is exactly the pairwise invariant.
    blocked: set[int] = set()
    seeds = draw(st.lists(st.sampled_from(available), unique=True) if available else st.just([]))
    adj = g.adjacency_masks
    for seed in seeds:
        if seed in blocked:
            continue
        member = {seed}
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            frontier = sorted(
                v for v in member | set(bits_of(neighborhood_mask(adj, mask_of(member))))
                if v not in blocked and v not in forbidden
            )
            if not frontier:
                break
            member.add(draw(st.sampled_from(frontier)))
        members.append(frozenset(member))
        blocked |= member | set(bits_of(neighborhood_mask(adj, mask_of(member))))
    return Collection(members)


def trigrid(r: int, c: int, k: int) -> RootedGraph:
    """The r x c grid with right, down and down-right edges, plus a K_k clump
    joined to the triangle {(1,1), (1,2), (2,2)}; a = (top-left,
    bottom-right), b = (top-right, bottom-left).  Infeasible.  The empty
    collection does not certify it while the clump's C(k, 2) surplus edges
    outweigh the grid's deficit of about 2(r + c) (every shape up to 6 x 6
    at k = 6, and 30 x 30 at k = 16), so certificate searches must
    enumerate candidate members.  The triangle needs r >= 3 and c >= 3; a
    smaller shape raises ``ValueError``."""
    if r < 3 or c < 3:
        raise ValueError(f"trigrid needs at least 3 rows and 3 columns, got {r} x {c}")
    edges = []
    for i, j in itertools.product(range(r), range(c)):
        v = i * c + j
        if j + 1 < c:
            edges.append((v, v + 1))
        if i + 1 < r:
            edges.append((v, v + c))
        if i + 1 < r and j + 1 < c:
            edges.append((v, v + c + 1))
    clump = range(r * c, r * c + k)
    edges.extend(itertools.combinations(clump, 2))
    edges.extend((t, x) for x in clump for t in (c + 1, c + 2, 2 * c + 2))
    g = Graph.from_edges(r * c + k, edges)
    return RootedGraph(g, (0, r * c - 1), c - 1, (r - 1) * c)
