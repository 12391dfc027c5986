"""Planarity, disc planarity, and the planar certificate for two-rooted graphs.

Disc planarity asks for a drawing in a closed disc with prescribed vertices
on the boundary circle in a given cyclic order.  It reduces to ordinary
planarity: add a cycle through the boundary vertices in order (reusing any
existing edges) plus one apex vertex adjacent to all of them, and test the
augmented graph.  The apex pins the cycle as a face, so the reduction is
exact in both directions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import networkx as nx

from .certificates import iter_collections
from .errors import InvalidInputError
from .feasibility import EXHAUSTIVE, SearchBudget, _BudgetClock
from .graphs import Collection, Graph, RootedGraph, augment_masks, contract_collection, neighborhood


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
    """Whether ``g`` embeds in the plane."""
    n, e = g.vertex_count, g.edge_count
    if n >= 3 and e > 3 * n - 6:
        return False
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(g.edges)
    return nx.check_planarity(nxg, counterexample=False)[0]


def is_disc_planar(d: DiscInstance) -> bool:
    """Whether the graph embeds in a disc with the boundary vertices on the
    disc boundary in the given cyclic order."""
    g, boundary = d.graph, d.boundary
    t = len(boundary)
    apex = g.vertex_count
    extra: list[tuple[int, int]] = [(s, apex) for s in boundary]
    if t == 2:
        extra.append(tuple(sorted(boundary)))
    elif t >= 3:
        extra.extend(
            tuple(sorted((boundary[i], boundary[(i + 1) % t]))) for i in range(t)
        )
    augmented = Graph.from_edges(apex + 1, itertools.chain(g.edges, extra))
    return is_planar(augmented)


def check_seymour_certificate(rg: RootedGraph, x: Collection) -> bool:
    """Verify a planar infeasibility certificate for a 2-rooted graph.

    True iff every member of ``x`` has at most 3 neighbors and the contracted
    graph is disc planar with boundary order ``a1, b1, a2, b2``.  A true
    answer implies the rooted graph is infeasible.
    """
    if rg.m != 2:
        raise InvalidInputError("the planar certificate applies to 2-rooted graphs only")
    contracted, relabel = contract_collection(rg.graph, x, rg.roots)
    if any(len(neighborhood(rg.graph, member)) > 3 for member in x):
        return False
    a1, a2 = rg.a_set
    boundary = (relabel[a1], relabel[rg.b1], relabel[a2], relabel[rg.b2])
    return is_disc_planar(DiscInstance(contracted, boundary))


def find_seymour_certificate(
    rg: RootedGraph, budget: SearchBudget = EXHAUSTIVE
) -> Collection | None:
    """Exhaustive search for a collection passing the planar certificate.

    Candidate members are connected with at most 3 neighbors; splitting a
    disconnected member only shrinks the contracted graph's edge set, so the
    restriction is lossless here as well.  ``None`` only after exhaustion.
    """
    if rg.m != 2:
        raise InvalidInputError("the planar certificate applies to 2-rooted graphs only")
    clock = _BudgetClock(budget)
    for coll in iter_collections(rg.graph, rg.roots, 3, clock):
        clock.tick()
        if check_seymour_certificate(rg, coll):
            return coll
    return None


def seymour_edge_bound(rg: RootedGraph, x: Collection) -> bool:
    """Edge count check implied by a verified planar certificate.

    With all five root pairs drawable outside the disc, the augmented
    contraction stays planar, so its edge count obeys ``e <= 3v - 6``.
    Requires :func:`check_seymour_certificate` to hold for the input.
    """
    if not check_seymour_certificate(rg, x):
        raise InvalidInputError("edge bound requires a valid planar certificate")
    rows, _ = augment_masks(rg, x)
    return sum(row.bit_count() for row in rows.values()) <= 2 * (3 * len(rows) - 6)
