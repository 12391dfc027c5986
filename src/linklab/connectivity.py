"""Vertex connectivity via unit-vertex-capacity maximum flow.

Each vertex ``v`` is split into an in-node ``2v`` and an out-node ``2v+1``
joined by a capacity-1 arc, so a maximum flow between two terminals counts
internally disjoint paths.  The connectivity is the minimum of that count
over all non-adjacent vertex pairs; a complete graph on ``n`` vertices
reports ``n - 1`` by convention.  All flows share one network, and source
``v_s`` is tried only while ``s`` is below the best count so far (Even 1975;
Esfahanian and Hakimi 1984).  Had that stopped above the connectivity ``k``,
``v_0..v_k`` were all tried; one of them misses a minimum separator ``S``,
and the flow from it or from a smaller vertex beyond ``S`` counts ``k``.

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

from .feasibility import EXHAUSTIVE, SearchBudget, _BudgetClock, _clock_of
from .graphs import Graph


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
    """Minimum over non-adjacent pairs of the internally-disjoint-path count.

    A budget node is one network node dequeued by an augmenting-path search, or one
    seeded ``s-w-t`` path; raises :class:`SearchBudgetExceeded` when the budget, or a
    clock shared with other calls, runs out."""
    n = g.vertex_count
    if n <= 1:
        return 0
    adj = g.adjacency_masks
    best = min(n - 1, min(map(int.bit_count, adj)))
    network = _split_network(g)
    clock = _clock_of(budget)
    s = 0
    while s < best:
        for t in range(s + 1, n):
            if best and not adj[s] >> t & 1:
                best = min(best, _disjoint_path_count(network, s, t, adj[s] & adj[t], best, clock))
        s += 1
    return best


def has_connectivity_at_least(g: Graph, k: int, budget: SearchBudget = EXHAUSTIVE) -> bool:
    """``vertex_connectivity(g) >= k``, settled by the minimum degree when it can be."""
    degree = min(map(int.bit_count, g.adjacency_masks), default=0)
    return k <= 0 or (degree >= k and vertex_connectivity(g, budget) >= k)
