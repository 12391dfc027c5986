"""Core graph types, the contraction operators and the family enumeration.

Everything here is an immutable value: graphs, rooted graphs, vertex-set
collections and paths are all frozen after construction, and every operation
is a pure function.  Vertex ids are dense integers ``0..n-1``.

A ``Graph`` is its vertex count and its adjacency bitmasks
(``Graph.adjacency_masks``), and nothing else: the edge tuples, the edge
count and the sorted edge list are derived from those rows, and equality
and hash are on them.  ``Graph(n, edges)`` and the named graphs check every
edge they are given; :meth:`Graph.with_rows` checks nothing, for the parsers,
the generator and the contraction, which build rows that are valid by
construction.

Algorithms read the rows, and vertex sets as masks.  The contraction is the
heart of the module: ``contract_masks`` deletes each member of a family and
ORs a clique on its neighborhood into the surviving adjacency rows, and
``augment_masks`` also joins every root pair except ``(b1, b2)``.
Certificate checks count these rows, and the planar certificate tests disc
planarity on them.  A family is a list of ``(member, neighborhood)`` mask
pairs.  It is valid against a forbidden vertex set when its members are
disjoint and avoid that set, and no member meets another member's closed
neighborhood.  :func:`validate_collection` checks an outside ``Collection``
against this rule and returns its family; :func:`_candidate_members` applies
the neighborhood cap; the compatibility rows of :func:`iter_collections` join
only members that satisfy the rule, so every family it yields is valid.  The
mask operators and the searches over families check nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .budget import BudgetClock
from .errors import InvalidCollectionError, InvalidInputError


@dataclass(frozen=True, init=False)
class Graph:
    """A simple undirected graph on vertices ``0..vertex_count-1``, held as its
    adjacency rows: bit ``v`` of ``adjacency_masks[u]`` is set exactly when ``u v``
    is an edge.  Equality and hash are on the vertex count and the rows.

    ``Graph(n, edges)`` takes canonical ``(u, v)`` tuples with ``u < v`` and
    rejects any other; :meth:`with_rows` takes rows from a caller that made them.
    """

    vertex_count: int
    adjacency_masks: tuple[int, ...]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise InvalidInputError("vertex_count must be non-negative")
        rows = [0] * vertex_count
        for u, v in edges:
            if not 0 <= u < v < vertex_count:
                raise InvalidInputError(f"edge ({u}, {v}) is not canonical or out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "adjacency_masks", tuple(rows))

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, canonicalizing edge endpoint order."""
        canon = set()
        for u, v in edges:
            if u == v:
                raise InvalidInputError(f"self-loop at vertex {u}")
            canon.add((u, v) if u < v else (v, u))
        return cls(vertex_count, frozenset(canon))

    @classmethod
    def with_rows(cls, vertex_count: int, rows: tuple[int, ...]) -> "Graph":
        """The graph with these adjacency rows, unchecked: the caller vouches that
        there are ``vertex_count`` of them, symmetric, with no bit ``v`` in row ``v``."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", vertex_count)
        object.__setattr__(g, "adjacency_masks", rows)
        return g

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise InvalidInputError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path_graph(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adjacency_masks)) // 2

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as canonical ``(u, v)`` tuples, derived from the rows once."""
        return frozenset(self.sorted_edges())

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self.adjacency_masks[u] >> v & 1 == 1

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The canonical edges in increasing order, read off each row's bits above its vertex."""
        out = []
        for u, row in enumerate(self.adjacency_masks):
            out.extend((u, v) for v in bits_of(row >> (u + 1) << (u + 1)))
        return out

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise InvalidInputError(f"vertex {v} out of range [0, {self.vertex_count})")


@dataclass(frozen=True)
class RootedGraph:
    """A graph with distinguished roots ``a_1..a_m`` and a pair ``b1, b2``.

    ``m = len(a_set)`` may be zero.  All roots must be distinct vertices.
    """

    graph: Graph
    a_set: tuple[int, ...]
    b1: int
    b2: int

    roots: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_set", tuple(self.a_set))
        roots = (*self.a_set, self.b1, self.b2)
        for v in roots:
            self.graph._check_vertex(v)
        object.__setattr__(self, "roots", frozenset(roots))
        if len(self.roots) != len(roots):
            raise InvalidInputError(f"roots must be distinct, got a={self.a_set} b=({self.b1}, {self.b2})")

    @property
    def m(self) -> int:
        return len(self.a_set)


def pinned_set(rg: RootedGraph, u_set: Iterable[int]) -> frozenset[int]:
    """``u_set`` as a frozenset, checked to hold only non-root vertices of ``rg``."""
    u_set = frozenset(u_set)
    for u in u_set:
        rg.graph._check_vertex(u)
    if u_set & rg.roots:
        raise InvalidInputError("u_set may not contain root vertices")
    return u_set


@dataclass(frozen=True)
class Collection:
    """A family of pairwise non-adjacent, disjoint vertex sets.

    Empty member sets are dropped at construction (they never affect a
    contraction).  Members are kept in a canonical order: by size, then by
    sorted vertex tuple.  Validity against a host graph and a forbidden set
    is checked separately by :func:`validate_collection`.
    """

    members: tuple[frozenset[int], ...]

    def __init__(self, members: Iterable[Iterable[int]] = ()):
        sets = {frozenset(m) for m in members}
        sets.discard(frozenset())
        ordered = sorted(sets, key=lambda s: (len(s), sorted(s)))
        object.__setattr__(self, "members", tuple(ordered))

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def to_sorted_lists(self) -> list[list[int]]:
        """JSON-friendly canonical form: sorted arrays of sorted arrays."""
        return sorted(sorted(m) for m in self.members)


@dataclass(frozen=True)
class Path:
    """A simple path given by its vertex sequence.

    Consecutive vertices must be adjacent in the host graph; validity is
    checked by :meth:`validate_in` since a path does not carry its host.
    """

    vertices: tuple[int, ...]

    def __init__(self, vertices: Iterable[int]):
        object.__setattr__(self, "vertices", tuple(vertices))
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidInputError("path repeats a vertex")

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v in self.vertices

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    @property
    def ends(self) -> tuple[int, int]:
        if not self.vertices:
            raise InvalidInputError("empty path has no end vertices")
        return self.vertices[0], self.vertices[-1]

    def validate_in(self, g: Graph) -> None:
        for v in self.vertices:
            g._check_vertex(v)
        for u, v in zip(self.vertices, self.vertices[1:]):
            if not g.has_edge(u, v):
                raise InvalidInputError(f"consecutive path vertices {u}, {v} are not adjacent")


# ---------------------------------------------------------------------------
# Bitmask helpers (shared by the search modules).

def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> list[int]:
    """The set bits of ``mask`` in increasing order, one lowest-bit step each."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def component_mask(adj: tuple[int, ...], alive: int, seed: int, target: int = -1) -> int:
    """The component of ``seed`` within ``alive``, as a bitmask.

    ``seed`` must have its bit set in ``alive``.  The search may stop once
    the part found covers the mask ``target`` (``-1`` is never covered), so
    ``target & ~result`` is zero exactly when the component covers it.
    """
    comp = 1 << seed
    frontier = comp
    while frontier and target & ~comp:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & alive & ~comp
        comp |= frontier
    return comp


def components_masks(adj: tuple[int, ...], alive: int) -> list[int]:
    """All components within ``alive``, ordered by smallest contained vertex."""
    out = []
    rest = alive
    while rest:
        seed = (rest & -rest).bit_length() - 1
        comp = component_mask(adj, alive, seed)
        out.append(comp)
        rest &= ~comp
    return out


def neighborhood_mask(adj: tuple[int, ...], s: int) -> int:
    """Vertices outside the mask ``s`` adjacent to some vertex of ``s``, as a bitmask."""
    out = 0
    rest = s
    while rest:
        low = rest & -rest
        out |= adj[low.bit_length() - 1]
        rest ^= low
    return out & ~s


# ---------------------------------------------------------------------------
# Operations.

def is_connected_set(g: Graph, s: Iterable[int]) -> bool:
    """Whether ``s`` induces a connected subgraph (empty sets count as connected)."""
    s = frozenset(s)
    if not s:
        return True
    for v in s:
        g._check_vertex(v)
    alive = mask_of(s)
    seed = min(s)
    return component_mask(g.adjacency_masks, alive, seed) == alive


def validate_collection(
    g: Graph, x: Collection, forbidden: Iterable[int] = ()
) -> list[tuple[int, int]]:
    """Raise unless ``x`` is a valid collection avoiding ``forbidden``.

    Validity means: every member is a set of vertices of ``g`` disjoint from
    ``forbidden``, and for distinct members the closed neighborhood of one
    never meets the other (a relation that is symmetric).  Returns the
    ``(member, neighborhood)`` mask pair of every member, in collection order.
    """
    adj = g.adjacency_masks
    forbidden_mask = mask_of(forbidden)
    masks = []
    for member in x.members:
        g._check_vertex(min(member))
        g._check_vertex(max(member))
        mask = mask_of(member)
        if mask & forbidden_mask:
            hit = bits_of(mask & forbidden_mask)
            raise InvalidCollectionError(f"member {sorted(member)} intersects forbidden set at {hit}")
        masks.append((mask, neighborhood_mask(adj, mask)))
    closed = 0  # the union of the closed neighbourhoods of the members so far
    for mask, nbhd in masks:
        if closed & mask:
            # Name the first touching pair in pair order.
            i, j = next((i, j) for i, j in itertools.combinations(range(len(masks)), 2)
                        if (masks[i][0] | masks[i][1]) & masks[j][0])
            raise InvalidCollectionError(
                f"members {sorted(x.members[i])} and {sorted(x.members[j])} touch each other"
            )
        closed |= mask | nbhd
    return masks


def _candidate_members(
    g: Graph, forbidden: frozenset[int], cap: int, clock: BudgetClock
) -> list[tuple[int, int]]:
    """All connected vertex sets avoiding ``forbidden`` with at most ``cap``
    neighbors, as ``(member, neighborhood)`` mask pairs in (size,
    lexicographic) order of the members, enumerated by branching on their
    boundary (as for connected sets with a bounded neighborhood in Fomin and
    Villanger, *Treewidth computation and extremal combinatorics*, 2012).

    A member ``C`` grows from its lowest vertex ``v``; a frame holds ``C``,
    ``N(C)`` and the committed part ``X`` of ``N(C)``.  Forbidden vertices
    and allowed vertices below ``v`` that touch ``C`` join ``X`` at once, and
    the lowest undecided neighbor of ``C`` either joins ``C`` or joins ``X``.
    A branch dies once ``|X| > cap``.  This is exact: for a qualifying ``C``
    the path that puts exactly ``C`` in and ``N(C)`` out is never pruned,
    since ``|N(C)| <= cap``, and it ends at ``C``; conversely every recorded
    set is connected, avoids the forbidden set and has ``N(C) = X``.
    Distinct paths disagree on some vertex, so no set is recorded twice.
    Once ``|X| = cap`` every other neighbor must join ``C``, so ``C`` grows
    from itself through vertices outside ``X``; its neighborhood holds ``X``
    throughout and equals it unless the growth reaches a barred vertex
    (forbidden, or allowed below ``v``), where ``C`` is dropped.  At most
    ``cap`` branch vertices join ``X`` on a path, so the enumeration is
    polynomial for a fixed cap.  Every frame is one tick of ``clock``,
    charged in chunks (see ``budget``)."""
    adj = g.adjacency_masks
    allowed = ((1 << g.vertex_count) - 1) & ~mask_of(forbidden)
    found = []
    chunk = left = clock.room()  # nodes the clock takes before it must look
    for v in bits_of(allowed):
        barred = ~allowed | ((1 << v) - 1)  # never in a member whose lowest vertex is v
        stack = [(1 << v, adj[v], adj[v] & barred)]
        while stack:
            member, nbhd, committed = stack.pop()
            left -= 1
            if left < 0:  # this node's tick raises or reads the deadline
                chunk = left = clock.charge(chunk)
            size = committed.bit_count()
            if size > cap:
                continue
            undecided = nbhd & ~committed
            if not undecided:
                found.append((member, nbhd))
            elif size == cap:
                comp, frontier = member, undecided
                while frontier and not frontier & barred:
                    comp |= frontier
                    frontier = neighborhood_mask(adj, frontier) & ~(comp | committed)
                if not frontier:
                    found.append((comp, committed))
            else:
                low = undecided & -undecided
                grown = member | low
                grown_nbhd = (nbhd | adj[low.bit_length() - 1]) & ~grown
                stack.append((member, nbhd, committed | low))
                stack.append((grown, grown_nbhd, committed | grown_nbhd & barred))
    clock.spend(chunk - left)
    return sorted(found, key=lambda pair: (pair[0].bit_count(), bits_of(pair[0])))


def iter_collections(g: Graph, forbidden: frozenset[int], cap: int, clock: BudgetClock):
    """Every collection of connected members avoiding ``forbidden`` whose
    neighborhoods have at most ``cap`` vertices, in canonical depth-first
    order with the empty collection first, each as the tuple of mask pairs
    :func:`validate_collection` would return for it.  It ticks ``clock`` once
    per family as it yields it (the empty one before the enumeration), per
    branch node of the candidate enumeration and per compatibility row."""
    clock.tick()
    yield ()
    pairs = _candidate_members(g, forbidden, cap, clock)
    compatible = []
    for member, nbhd in pairs:
        clock.tick()
        # Bit j of row i: neither member meets the other's closed
        # neighborhood; the relation is symmetric, so one test suffices.
        compatible.append(mask_of(j for j, (other, _) in enumerate(pairs) if not (member | nbhd) & other))
    # A frame is a family and the mask of the later candidates that can still join
    # it.  The lowest one joins first; its frame waits below, without it.
    stack = [((), (1 << len(pairs)) - 1)]
    while stack:
        family, joinable = stack.pop()
        if joinable:
            i = (joinable & -joinable).bit_length() - 1
            stack.append((family, joinable & (joinable - 1)))
            family += (pairs[i],)
            clock.tick()
            yield family
            stack.append((family, joinable & compatible[i]))


def contract_masks(g: Graph, family: list[tuple[int, int]]) -> dict[int, int]:
    """Delete each member of ``family`` and add a clique on its neighborhood;
    the adjacency row of every surviving vertex, keyed by its id in ``g`` in
    increasing order.  ``family`` is not checked here: it is validated once,
    at the boundary (see the module docstring)."""
    kept = (1 << g.vertex_count) - 1
    for mask, _ in family:
        kept &= ~mask
    rows = {v: row & kept for v, row in enumerate(g.adjacency_masks) if kept >> v & 1}
    for _, nbhd in family:
        for u in bits_of(nbhd):
            rows[u] |= nbhd & ~(1 << u)
    return rows


def augment_masks(rg: RootedGraph, family: list[tuple[int, int]]) -> dict[int, int]:
    """:func:`contract_masks` for ``family``, whose members avoid the roots,
    plus all edges among roots except ``b1 b2``; unchecked, as there."""
    return join_roots(rg, contract_masks(rg.graph, family))


def join_roots(rg: RootedGraph, rows: dict[int, int]) -> dict[int, int]:
    """OR all edges among the roots of ``rg`` except ``b1 b2`` into ``rows``, rows
    keyed by vertex id that keep every root, and return them."""
    roots = mask_of(rg.roots)
    b_pair = 1 << rg.b1 | 1 << rg.b2
    for r in rg.roots:
        joined = roots & ~b_pair if b_pair >> r & 1 else roots
        rows[r] |= joined & ~(1 << r)
    return rows


def _graph_of_rows(rows: dict[int, int]) -> tuple[Graph, dict[int, int]]:
    """The graph on dense ids with the given adjacency rows, plus the map from
    row keys to new ids."""
    relabel = {v: i for i, v in enumerate(rows)}
    dense = tuple(mask_of(relabel[w] for w in bits_of(row)) for row in rows.values())
    return Graph.with_rows(len(relabel), dense), relabel


def contract_collection(g: Graph, x: Collection) -> tuple[Graph, dict[int, int]]:
    """:func:`contract_masks` of the validated ``x`` as a graph, plus the old-to-new id map."""
    return _graph_of_rows(contract_masks(g, validate_collection(g, x)))


def augment_rooted(rg: RootedGraph, x: Collection) -> Graph:
    """:func:`augment_masks` of ``x``, validated to avoid the roots, as a graph."""
    return _graph_of_rows(augment_masks(rg, validate_collection(rg.graph, x, rg.roots)))[0]
