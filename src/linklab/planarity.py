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

The bookkeeping carries across steps.  Each fragment keeps its attachments
and its admissible faces, a mask over face indices.  A step splits one face,
so only the fragments admissible there are re-tested, against the two faces
it becomes.  The new fragments are the chords at the path's inner vertices
and the components of what is left of the path's own fragment: no other
component touches those vertices, and no other attachment set changes.

Above the cut-over networkx decides, and it is imported only then.  The
cut-over is the largest size at which path addition beat networkx by a
margin on planar triangulated grids, relabelled, the inputs it must embed
in full (CPython 3.11, 2-vCPU VM, medians; networkx timed with building its
graph): 0.13 against 0.68 ms at 16 vertices, 0.49 against 1.59 ms at 36,
1.21 against 2.91 ms at 64, 3.96 against 6.73 ms at 144 and 10.2 against
12.2 ms at 256 (16 x 16), but 13.3 against 14.6 ms at 289 and 25.0 against
27.2 ms at 324.  Path addition still grows about as n^2 per graph, since a
step re-splits all that is left of its fragment, so larger inputs stay on
networkx's linear-time test.  Inputs whose big fragment loses a vertex or
two per step fare worse: a wheel loses from 144 vertices (5.7 against 5.0
ms) and takes 23.9 against 9.0 ms at 256.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import EXHAUSTIVE, BudgetClock, SearchBudget, clock_of
from .errors import InvalidInputError
from .graphs import (Collection, Graph, RootedGraph, bits_of, components_masks, contract_masks,
                     iter_collections, join_roots, mask_of, validate_collection)

# Path addition decides graphs with 7 up to this many vertices left after the
# degree reductions; networkx decides larger ones (module docstring).
_PATH_ADDITION_MAX = 256


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
    # ``fragments[k]`` is (attachments, vertices), with no vertices for a
    # chord, and ``fits[k]`` masks the faces that admit it (module docstring).
    # After a step into face i, which became faces i and j, ``fresh`` holds
    # the path's inner vertices and ``rest`` what is left of its fragment.
    # A new fragment enters as fitting face i, so the re-test against faces
    # i and j sets its fit, as for every older fragment that face i admitted.
    # The first step takes the cycle for its path.
    fragments, fits = [], []
    fresh, rest, i, j = cycle, comp & ~h, 0, 1
    # Each step embeds at least one edge, so a step beyond the edge count is a bug.
    for _ in range(sum(rows[v].bit_count() for v in h_rows) // 2):
        face_i = 1 << i
        done = 0
        for x in fresh:
            done |= 1 << x
            chords = rows[x] & h & ~h_rows[x] & ~done
            while chords:
                high = chords & -chords
                chords ^= high
                fragments.append((1 << x | high, 0))
                fits.append(face_i)
        while rest:
            # One breadth-first pass gives a component and, from the rows it
            # ORs, the component's attachments.
            part = frontier = rest & -rest
            reach = 0
            while frontier:
                row = 0
                while frontier:
                    low = frontier & -frontier
                    row |= rows[low.bit_length() - 1]
                    frontier ^= low
                reach |= row
                frontier = row & rest & ~part
                part |= frontier
            rest &= ~part
            attachments = reach & ~part
            if attachments & (attachments - 1):
                fragments.append((attachments, part))
                fits.append(face_i)
                continue
            # One attachment v: G is planar iff G - part and G[part + v] are.
            piece = part | attachments
            if not _is_planar_rows({x: rows[x] & piece for x in bits_of(piece)}):
                return False
        if not fragments:
            return True
        # Re-test on faces i and j, and take a fragment with the fewest
        # admissible faces; one with none leaves no embedding.
        mask_i, mask_j, face_j = masks[i], masks[j], 1 << j
        fewest, count = 0, len(masks) + 1
        for k, fit in enumerate(fits):
            if fit & face_i:
                attachments = fragments[k][0]
                fit ^= face_i
                if not attachments & ~mask_i:
                    fit |= face_i
                if not attachments & ~mask_j:
                    fit |= face_j
                if not fit:
                    return False
                fits[k] = fit
            if count > 1 and fit.bit_count() < count:
                fewest, count = k, fit.bit_count()
        (attachments, part), fit = fragments.pop(fewest), fits.pop(fewest)
        i = (fit & -fit).bit_length() - 1
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
        k = face.index(u)
        turn = face[k:] + face[:k]
        k = turn.index(w)
        # The new face's mask is read off face i's before that is replaced.
        side = mask_of(turn[:k + 1])
        faces.append(turn[k:] + [u] + inner)
        masks.append(masks[i] & ~side | 1 << u | 1 << w | inner_mask)
        faces[i], masks[i] = turn[:k + 1] + inner[::-1], side | inner_mask
        fresh, rest, j = inner, part & ~inner_mask, len(faces) - 1
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
