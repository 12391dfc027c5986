"""Planarity, disc planarity, and the planar certificate for two-rooted graphs.

Disc planarity asks for a drawing in a closed disc with prescribed vertices
on the boundary circle in a given cyclic order.  It reduces to ordinary
planarity: OR into a copy of the adjacency-mask rows a ring through the
boundary vertices in order (one edge for two, a cycle for more) and an apex
row adjacent to all of them, and test that graph.  The apex pins the ring
as a face, so the reduction is exact in both directions.  The planar
certificate runs it on the rows ``contract_masks`` returns, so each check
validates and contracts once and builds no ``Graph``.

Planarity itself is decided on mask rows.  Deleting vertices of degree at
most 1 and suppressing those of degree 2 loses nothing, and leaves minimum
degree 3.  Then up to 5 vertices the graph is planar unless ``e > 3n - 6``
(K5).  On 6 vertices it is planar unless that bound fails or one of the 10
bipartitions spans K3,3; by Kuratowski no subdivided K5 escapes both
tests.

On 7 vertices, past the edge bound, the graph is non-planar iff some edge
contraction G/uv is, and each G/uv has 6 vertices, so the test above decides
it.  Every minor of a planar graph is planar, so a non-planar G/uv proves G
non-planar.  Conversely, take a Kuratowski subdivision H in G.  If H misses a
vertex v, contract any edge at v (v has degree at least 3); H survives.
Otherwise H spans all 7 vertices.  K5 has 5 branch vertices and K3,3 has 6,
so H has a subdivision vertex s, and contracting an H-edge at s leaves a
subdivision of the same Kuratowski graph.  Only graphs with at least 8
vertices left go to networkx, which is imported only then (about 19 MB).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import EXHAUSTIVE, BudgetClock, SearchBudget, clock_of
from .certificates import iter_collections
from .errors import InvalidInputError
from .graphs import (Collection, Graph, RootedGraph, bits_of, contract_masks, join_roots, mask_of,
                     validate_collection)


@dataclass(frozen=True)
class DiscInstance:
    """A graph plus an ordered list of distinct boundary vertices."""

    graph: Graph
    boundary: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundary", tuple(self.boundary))
        for v in self.boundary:
            self.graph._check_vertex(v)
        if len(set(self.boundary)) != len(self.boundary):
            raise InvalidInputError("boundary vertices must be distinct")


def is_planar(g: Graph) -> bool:
    """Whether ``g`` embeds in the plane: lossless degree reductions, an exact
    test up to 6 vertices, edge contractions down to 6 on 7, and networkx from
    8 reduced vertices on."""
    return _is_planar_rows(dict(enumerate(g.adjacency_masks)))


def _is_planar_rows(rows: dict[int, int]) -> bool:
    """Planarity of the graph with these adjacency rows, keyed by vertex id.
    Reduces ``rows`` in place; every caller passes a fresh dict."""
    stack = list(rows)
    while stack:
        v = stack.pop()
        if v not in rows or rows[v].bit_count() > 2:
            continue
        # Delete v and join its neighbours: a suppressed degree-2 vertex.
        row = rows.pop(v)
        for u in bits_of(row):
            rows[u] = rows[u] & ~(1 << v) | row & ~(1 << u)
            stack.append(u)
    n = len(rows)
    if n <= 4:
        return True
    if sum(row.bit_count() for row in rows.values()) > 2 * (3 * n - 6):
        return False
    if n == 5:
        return True
    if n == 6:
        # Only K3,3 needs a search.  Minimum degree 3 puts a subdivided K5 on
        # 6 vertices over the edge bound, unless it is K5 less an edge xy plus
        # w joined to x, y and one z; then the other two, p and q, give K3,3
        # on {w, p, q} and {x, y, z}.
        vs = list(rows)
        full = mask_of(vs)
        for pair in itertools.combinations(vs[1:], 2):
            side = mask_of((vs[0], *pair))
            other = full & ~side
            if all(rows[v] & other == other for v in bits_of(side)):
                return False
        return True
    if n == 7:
        # Non-planar iff some edge contraction is (module docstring).
        return all(_is_planar_rows(_contracted(rows, u, w))
                   for u in rows for w in bits_of(rows[u]) if w > u)
    import networkx as nx
    # Every vertex left has degree at least 3, so the edges name them all.
    nxg = nx.Graph((v, w) for v, row in rows.items() for w in bits_of(row) if w > v)
    return nx.check_planarity(nxg, counterexample=False)[0]


def _contracted(rows: dict[int, int], u: int, w: int) -> dict[int, int]:
    """Fresh rows of the graph with ``w`` merged into its neighbour ``u``."""
    bit_u, bit_w = 1 << u, 1 << w
    merged = {x: row & ~bit_w | bit_u if row & bit_w else row for x, row in rows.items() if x != w}
    merged[u] = (rows[u] | rows[w]) & ~(bit_u | bit_w)
    return merged


def _is_disc_planar_rows(rows: dict[int, int], boundary: tuple[int, ...]) -> bool:
    """Disc planarity of these adjacency rows, ``boundary`` in their ids; consumes ``rows``."""
    apex = max(rows, default=-1) + 1
    rows[apex] = mask_of(boundary)
    t = len(boundary)
    for i, s in enumerate(boundary):
        ring = (1 << boundary[i - 1] | 1 << boundary[(i + 1) % t]) if t >= 2 else 0
        rows[s] |= ring | 1 << apex
    return _is_planar_rows(rows)


def is_disc_planar(d: DiscInstance) -> bool:
    """Whether the graph embeds in a disc with the boundary vertices on the
    disc boundary in the given cyclic order."""
    return _is_disc_planar_rows(dict(enumerate(d.graph.adjacency_masks)), d.boundary)


def _disc_planar_around_roots(rg: RootedGraph, rows: dict[int, int]) -> bool:
    """Whether the contraction ``rows`` of the 2-rooted ``rg`` are disc planar around
    a1, b1, a2, b2; consumes ``rows``."""
    a1, a2 = rg.a_set
    return _is_disc_planar_rows(rows, (a1, rg.b1, a2, rg.b2))


def _seymour_rows(rg: RootedGraph, x: Collection) -> tuple[dict[int, int], bool]:
    """The rows of the contraction of ``x``, validated to avoid the roots of the
    2-rooted ``rg``, and whether ``x`` passes the planar certificate.  The disc test
    runs on a copy, so the rows come back as contracted."""
    if rg.m != 2:
        raise InvalidInputError("the planar certificate applies to 2-rooted graphs only")
    family = validate_collection(rg.graph, x, rg.roots)
    rows = contract_masks(rg.graph, family)
    return rows, all(nbhd.bit_count() <= 3 for _, nbhd in family) and _disc_planar_around_roots(rg, dict(rows))


def check_seymour_certificate(rg: RootedGraph, x: Collection) -> bool:
    """Verify a planar infeasibility certificate for a 2-rooted graph.

    True iff every member of ``x`` has at most 3 neighbors and the contracted
    graph is disc planar with boundary order ``a1, b1, a2, b2``.  A true
    answer implies the rooted graph is infeasible.
    """
    return _seymour_rows(rg, x)[1]


def find_seymour_certificate(
    rg: RootedGraph, budget: SearchBudget | BudgetClock = EXHAUSTIVE
) -> Collection | None:
    """Exhaustive search for a collection passing the planar certificate.

    Candidate members are connected with at most 3 neighbors, so only disc
    planarity is tested; splitting a disconnected member only shrinks the
    contracted graph's edge set, so the restriction is lossless here as well.
    ``None`` only after exhaustion.  ``budget`` may be a clock running since
    an earlier call.
    """
    if rg.m != 2:
        raise InvalidInputError("the planar certificate applies to 2-rooted graphs only")
    clock = clock_of(budget)
    for family in iter_collections(rg.graph, rg.roots, 3, clock):
        if _disc_planar_around_roots(rg, contract_masks(rg.graph, family)):
            return Collection(frozenset(bits_of(member)) for member, _ in family)
    return None


def seymour_edge_bound(rg: RootedGraph, x: Collection) -> bool:
    """Edge count check implied by a verified planar certificate.

    With all five root pairs drawable outside the disc, the augmented
    contraction stays planar, so its edge count obeys ``e <= 3v - 6``.
    Requires :func:`check_seymour_certificate` to hold for the input; ``x``
    is validated and contracted once for both.
    """
    rows, certified = _seymour_rows(rg, x)
    if not certified:
        raise InvalidInputError("edge bound requires a valid planar certificate")
    join_roots(rg, rows)
    return sum(row.bit_count() for row in rows.values()) <= 2 * (3 * len(rows) - 6)
