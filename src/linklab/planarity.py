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

From 7 vertices up to ``_PATH_ADDITION_MAX`` the graph is decided by path
addition (Demoucron, Malgrange and Pertuiset 1964), one component at a time.
A cycle is embedded first, as two faces; faces are vertex lists with their
masks.  Each step takes the fragments of the embedded part H: every chord of
H, and every component of G - V(H) with its attachments on H.  A fragment may
go only into a face holding all its attachments.  If some fragment has no
such face the graph is non-planar; otherwise a path of the fragment with the
fewest admissible faces goes into one of them and splits it.  A fragment's
path from attachment u to attachment w steps into the fragment first, since
the edge u w, if present, is a chord fragment of its own.  H stays
2-connected, as every path joins two distinct vertices of it, and when every
fragment has at least 2 attachments a planar G keeps an embedding extending
H's through every step, so the procedure is exact.  A component with a single
attachment v hangs off H at the cut vertex v: G is planar iff G without it
and the component plus v both are, so that piece is decided on its own,
recursively, and dropped, with no block decomposition.

Above the cut-over networkx decides, and it is imported only then.  The
cut-over is the largest size at which path addition beat networkx on
planar triangulated grids, relabelled, the inputs it must embed in full
(CPython 3.11, 2-vCPU VM; networkx timed with building its graph): 0.14
against 0.52 ms at 16 vertices, 0.96 against 1.25 ms at 36 and 1.18 against
1.43 ms at 40 (5 x 8), but 1.75 against 1.52 ms at 48 and 3.06 against 2.52
ms at 64.  Path addition grows about as n^2 per graph, so larger inputs stay
on networkx's linear-time test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import EXHAUSTIVE, BudgetClock, SearchBudget, clock_of
from .certificates import iter_collections
from .errors import InvalidInputError
from .graphs import (Collection, Graph, RootedGraph, bits_of, components_masks, contract_masks,
                     join_roots, mask_of, neighborhood_mask, validate_collection)

# Path addition decides graphs with 7 up to this many vertices left after the
# degree reductions; networkx decides larger ones (module docstring).
_PATH_ADDITION_MAX = 40


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
    test up to 6 vertices, path addition from 7 to ``_PATH_ADDITION_MAX``
    reduced vertices, and networkx above."""
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
    if n > _PATH_ADDITION_MAX:
        import networkx as nx
        # Every vertex left has degree at least 3, so the edges name them all.
        nxg = nx.Graph((v, w) for v, row in rows.items() for w in bits_of(row) if w > v)
        return nx.check_planarity(nxg, counterexample=False)[0]
    return all(_path_addition(rows, comp) for comp in components_masks(rows, mask_of(rows)))


def _path_addition(rows: dict[int, int], comp: int) -> bool:
    """Whether the component ``comp`` of ``rows``, every vertex of degree at least
    3, embeds: grown from a cycle one fragment path at a time (module docstring)."""
    # A walk that never turns back closes a cycle, as no degree is below 2.
    walk, at, prev, v = [], {}, 0, (comp & -comp).bit_length() - 1
    while v not in at:
        at[v] = len(walk)
        walk.append(v)
        step = rows[v] & ~prev
        prev, v = 1 << v, (step & -step).bit_length() - 1
    cycle = walk[at[v]:]
    h = mask_of(cycle)
    h_rows = dict.fromkeys(bits_of(comp), 0)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        h_rows[a] |= 1 << b
        h_rows[b] |= 1 << a
    faces, masks = [cycle, cycle[::-1]], [h, h]
    # Each step embeds at least one edge, so a step beyond the edge count is a bug.
    for _ in range(sum(rows[v].bit_count() for v in bits_of(comp)) // 2):
        # Fragments as (attachments, vertices): each chord of H, with no
        # vertices of its own, and each component of G - V(H).
        fragments = []
        rest = h
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            chords = rows[a] & h & ~h_rows[a] & ~(2 * low - 1)  # chords a b with b > a
            while chords:
                high = chords & -chords
                chords ^= high
                fragments.append((low | high, 0))
        for part in components_masks(rows, comp & ~h):
            attachments = neighborhood_mask(rows, part)
            if attachments & (attachments - 1):
                fragments.append((attachments, part))
                continue
            # One attachment v: G is planar iff G - part and G[part + v] are.
            piece = part | attachments
            if not _is_planar_rows({x: rows[x] & piece for x in bits_of(piece)}):
                return False
            comp &= ~part
        if not fragments:
            return True
        # A fragment with one admissible face must go there, so the scan may
        # stop at it; a fragment with none is then met on a later step.
        fewest = None
        for attachments, part in fragments:
            admissible = [i for i, face in enumerate(masks) if not attachments & ~face]
            if not admissible:
                return False
            if fewest is None or len(admissible) < len(fewest[2]):
                fewest = attachments, part, admissible
                if len(admissible) == 1:
                    break
        attachments, part, (i, *_) = fewest
        u = (attachments & -attachments).bit_length() - 1
        inner = []
        if part:
            # Step into the fragment first: the edge u w is a chord fragment
            # of its own, not a path of this one.
            others = attachments & ~(1 << u)
            parent = dict.fromkeys(bits_of(rows[u] & part), u)
            queue = list(parent)
            for x in queue:
                if rows[x] & others:
                    break
                for y in bits_of(rows[x] & part):
                    if y not in parent:
                        parent[y] = x
                        queue.append(y)
            ends = rows[x] & others
            while x != u:
                inner.append(x)
                x = parent[x]
            inner.reverse()
        else:
            ends = attachments & ~(1 << u)
        w = (ends & -ends).bit_length() - 1
        path = [u, *inner, w]
        for a, b in zip(path, path[1:]):
            h_rows[a] |= 1 << b
            h_rows[b] |= 1 << a
        inner_mask = mask_of(inner)
        h |= inner_mask
        # Split the face at u and w: one side returns along the path reversed.
        face = faces[i]
        j = face.index(u)
        turn = face[j:] + face[:j]
        k = turn.index(w)
        faces[i], masks[i] = turn[:k + 1] + inner[::-1], mask_of(turn[:k + 1]) | inner_mask
        faces.append(turn[k:] + [u] + inner)
        masks.append(mask_of(turn[k:]) | 1 << u | inner_mask)
    raise AssertionError("path addition took more steps than the component has edges")


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
