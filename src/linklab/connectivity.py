"""Vertex connectivity via unit-vertex-capacity maximum flow.

Each vertex ``v`` is split into an in-node ``2v`` and an out-node ``2v+1``
joined by a capacity-1 arc, so a maximum flow between two terminals counts
internally disjoint paths.  The connectivity is the minimum of that count
over all non-adjacent vertex pairs; a complete graph on ``n`` vertices
reports ``n - 1`` by convention.  All flows share one network, and only the
pairs around one vertex ``v`` of minimum degree ``d`` are tried: ``v`` with
each non-neighbour, then each non-adjacent pair of neighbours of ``v``
(Esfahanian and Hakimi 1984).  That is exact.  No flow counts less than the
connectivity, which is at most the starting count ``min(n - 1, d)``; so let
``S`` be a minimum separator with ``|S| < d``.  If ``v`` is not in ``S``,
the vertices beyond ``S`` from ``v`` are non-neighbours of ``v``, and the
flow to one of them counts ``|S|``.  If ``v`` is in ``S``, then ``v`` has a
neighbour in every component of ``G - S``, or ``S - v`` would still
separate; two such neighbours on different sides are non-adjacent, and the
flow between them counts ``|S|``.  Starting from a lower cap ``c`` instead,
the same pairs give ``min(connectivity, c)``, which threshold tests use.

Each flow between non-adjacent ``s`` and ``t`` starts from the paths
``s-w-t`` through their common neighbours ``w``, up to the cap, and BFS
augmentation finds only the rest.  By exchange, some maximum family of
internally disjoint paths holds every such ``s-w-t``: a path through ``w``
can be swapped for ``s-w-t``, and no maximum family misses ``w`` entirely.
So the seeds never need cancelling, and a pair with at least ``limit``
common neighbours is settled with no search.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from .feasibility import EXHAUSTIVE, SearchBudget, _BudgetClock, _clock_of
from .graphs import Graph, bits_of


def _split_network(g: Graph) -> tuple[list[int], list[list[int]]]:
    """Arc heads and each node's arcs.  Arc ``a ^ 1`` is the reverse of arc
    ``a``; even arcs start at capacity 1, odd ones at 0."""
    head: list[int] = []
    arcs: list[list[int]] = [[] for _ in range(2 * g.vertex_count)]
    ends = [(2 * v, 2 * v + 1) for v in range(g.vertex_count)]
    ends += [(2 * u + 1, 2 * v) for x, y in sorted(g.edges) for u, v in ((x, y), (y, x))]
    for a, b in ends:
        arcs[a].append(len(head))
        arcs[b].append(len(head) + 1)
        head += (b, a)
    return head, arcs


def _disjoint_path_count(network, s: int, t: int, common: int, limit: int, clock: _BudgetClock) -> int:
    """Maximum number of internally disjoint s-t paths, capped at ``limit``, for
    non-adjacent ``s`` and ``t``.  The flow starts from the paths ``s-w-t`` through
    the common neighbours in ``common`` (a mask), at most ``limit``, one tick each."""
    head, arcs = network
    cap = [1, 0] * (len(head) // 2)
    source, sink = 2 * s + 1, 2 * t
    seeds = [arc for arc in arcs[source] if common >> (head[arc] >> 1) & 1][:limit]
    for arc in seeds:
        clock.tick()
        w_in = head[arc]  # node 2w; arc 2w runs from it to node 2w + 1
        out = next(a for a in arcs[w_in + 1] if head[a] == sink)
        for a in (arc, w_in, out):
            cap[a] -= 1
            cap[a ^ 1] += 1
    for flow in range(len(seeds), limit):
        # BFS for one augmenting path; unit capacities, so flow grows by 1.
        parent_arc = {source: -1}
        queue = deque([source])
        while queue and sink not in parent_arc:
            a = queue.popleft()
            clock.tick()
            for arc in arcs[a]:
                b = head[arc]
                if cap[arc] and b not in parent_arc:
                    parent_arc[b] = arc
                    queue.append(b)
        if sink not in parent_arc:
            return flow
        node = sink
        while node != source:
            arc = parent_arc[node]
            cap[arc] -= 1
            cap[arc ^ 1] += 1
            node = head[arc ^ 1]
    return limit


def vertex_connectivity(g: Graph, budget: SearchBudget | _BudgetClock = EXHAUSTIVE) -> int:
    """Minimum over non-adjacent pairs of the internally-disjoint-path count, taken
    over the pairs around the lowest-numbered vertex of minimum degree.

    A budget node is one network node dequeued by an augmenting-path search, or one
    seeded ``s-w-t`` path; raises :class:`SearchBudgetExceeded` when the budget, or a
    clock shared with other calls, runs out."""
    return _connectivity_up_to(g, g.vertex_count, budget)


def _connectivity_up_to(g: Graph, cap: int, budget: SearchBudget | _BudgetClock) -> int:
    """``min(vertex_connectivity(g), cap)``, with every flow capped at ``cap``; a
    count below the cap is exact."""
    n = g.vertex_count
    if n <= 1:
        return 0
    adj = g.adjacency_masks
    degrees = [row.bit_count() for row in adj]
    v = degrees.index(min(degrees))
    best = min(n - 1, degrees[v], cap)
    network = _split_network(g)
    clock = _clock_of(budget)
    non_neighbours = ((v, t) for t in range(n) if t != v and not adj[v] >> t & 1)
    # Drawn lazily: each neighbour x of v pairs with the neighbours of v above x it misses.
    neighbour_pairs = ((x, y) for x in bits_of(adj[v])
                       for y in bits_of(adj[v] & ~adj[x] >> (x + 1) << (x + 1)))
    for s, t in chain(non_neighbours, neighbour_pairs):
        if not best:
            break
        best = _disjoint_path_count(network, s, t, adj[s] & adj[t], best, clock)
    return best


def has_connectivity_at_least(g: Graph, k: int, budget: SearchBudget | _BudgetClock = EXHAUSTIVE) -> bool:
    """``vertex_connectivity(g) >= k``, settled by the minimum degree when it can be,
    and otherwise by flows capped at ``k``."""
    degree = min(map(int.bit_count, g.adjacency_masks), default=0)
    return k <= 0 or (degree >= k and _connectivity_up_to(g, k, budget) >= k)
