"""Vertex connectivity via unit-vertex-capacity maximum flow.

Each vertex ``v`` has an in-node ``2v`` and an out-node ``2v+1`` joined by a
capacity-1 arc, and each edge ``u-v`` gives arcs from the out-node of either
end to the in-node of the other, so a maximum flow between two terminals
counts internally disjoint paths.  These nodes stay implicit: a flow runs on
the adjacency masks and reads its residual arcs off its own flow state.  The
connectivity is the minimum of that count over all non-adjacent vertex
pairs; a complete graph on ``n`` vertices reports ``n - 1`` by convention.
Only the pairs around one vertex ``v`` of minimum degree ``d`` are tried:
``v`` with each non-neighbour, then each non-adjacent pair of neighbours of
``v`` (Esfahanian and Hakimi 1984).  That is exact.  No flow counts less than the
connectivity, which is at most the starting count ``min(n - 1, d)``; so let
``S`` be a minimum separator with ``|S| < d``.  If ``v`` is not in ``S``,
the vertices beyond ``S`` from ``v`` are non-neighbours of ``v``, and the
flow to one of them counts ``|S|``.  If ``v`` is in ``S``, then ``v`` has a
neighbour in every component of ``G - S``, or ``S - v`` would still
separate; two such neighbours on different sides are non-adjacent, and the
flow between them counts ``|S|``.  Starting from a lower cap ``c`` instead,
the same pairs give ``min(connectivity, c)``, which threshold tests use.

Each flow between non-adjacent ``s`` and ``t`` starts from a greedy family
of disjoint short paths, up to the cap: first ``s-w-t`` through each common
neighbour ``w``, then ``s-x-y-t`` with ``x`` a neighbour of ``s`` alone and
``y`` a neighbour of ``t`` alone.  BFS augmentation finds the rest, and it
cancels flow, so a poor greedy choice is repaired.  That is exact: the seeds
are a feasible flow, a flow below the maximum always has an augmenting path
(Ford and Fulkerson), and each one adds a path, so augmenting until none is
left or the cap is reached gives ``min(maximum, cap)``.  The seeds are counted
before any flow state is built.  They are a feasible flow whatever the order
they were chosen in, so a count that reaches the cap is the answer, and the
flow state is built from them only for a flow that needs an augmenting search.

A budget tick is one seeded path or one network node an augmenting search
dequeues.  A pair's seeds are charged in one ``spend``, and an augmenting
search charges its nodes in chunks (see ``budget``).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from .budget import EXHAUSTIVE, BudgetClock, SearchBudget, clock_of
from .errors import InvalidInputError
from .graphs import Graph, bits_of


def _fewest_disjoint_paths(adj: tuple[int, ...], pairs: Iterable[tuple[int, int]], cap: int,
                           clock: BudgetClock) -> int:
    """``min(cap, c)`` for ``c`` the fewest internally disjoint ``s``-``t`` paths over
    the non-adjacent ``pairs`` of the graph with adjacency masks ``adj``; each count
    below the running minimum is exact.  Each pair's flow is capped at that minimum
    and seeded first, charged in one call: the paths ``s-w-t`` through the common
    neighbours, then paths ``s-x-y-t``, where each neighbour ``x`` of ``s`` alone,
    lowest first, takes the lowest unused neighbour ``y`` of ``t`` alone that it is
    adjacent to.  One tick is one seeded path or one network node dequeued by an
    augmenting search.  Disjoint paths are a feasible flow in any order, so seeds
    that reach the cap settle the pair, and only a pair they leave short records
    its ``(x, y)`` pairs and goes on to :func:`_augment`."""
    for s, t in pairs:
        if not cap:
            break
        common = adj[s] & adj[t]
        flow = common.bit_count()
        if flow >= cap:  # the paths s-w-t
            clock.spend(cap)
            continue
        # Every common neighbour is seeded, so x and y range over the neighbours
        # of s alone and of t alone.
        xs, ys = adj[s] & ~adj[t], adj[t] & ~adj[s]
        seeded = []
        while flow < cap and xs and ys:  # the paths s-x-y-t, lowest x first
            x = (xs & -xs).bit_length() - 1
            xs ^= 1 << x
            y_options = adj[x] & ys
            if y_options:
                y = (y_options & -y_options).bit_length() - 1
                ys ^= 1 << y
                seeded.append((x, y))
                flow += 1
        clock.spend(flow)
        if flow < cap:
            cap = _augment(adj, s, t, common, seeded, flow, cap, clock)
    return cap


def _augment(adj: tuple[int, ...], s: int, t: int, common: int, seeded: list[tuple[int, int]],
             flow: int, limit: int, clock: BudgetClock) -> int:
    """The maximum number of internally disjoint ``s``-``t`` paths, capped at
    ``limit``, found by BFS augmentation from the ``flow`` seeded paths: ``s-w-t``
    for each ``w`` in the mask ``common``, and ``s-x-y-t`` for each pair in
    ``seeded``.

    The flow state is each vertex's flow successors and predecessors, as masks;
    only ``s`` and ``t`` hold more than one, and any other vertex carries flow
    exactly when it has a predecessor.  It gives the residual arcs.  The out-node
    of ``v`` reaches its own in-node if ``v`` carries flow, then the in-nodes of its
    neighbours other than its flow successor; the in-node of ``v`` reaches its own
    out-node if ``v`` is free, else the out-node of its flow predecessor.  A node
    lists its arcs in that order, neighbours ascending, and the BFS is first in,
    first out.  Each dequeued node is one tick of ``clock``, charged in chunks."""
    n = len(adj)
    succ = [0] * n
    pred = [0] * n
    succ[s] = pred[t] = common
    for w in bits_of(common):
        succ[w], pred[w] = 1 << t, 1 << s
    for x, y in seeded:
        succ[s] |= 1 << x
        succ[x], pred[x] = 1 << y, 1 << s
        succ[y], pred[y] = 1 << t, 1 << x
        pred[t] |= 1 << y
    source, sink = 2 * s + 1, 2 * t
    for flow in range(flow, limit):
        # FIFO BFS for one augmenting path; unit capacities, so flow grows by 1.
        parent = [-1] * (2 * n)  # by network node; -1 for one not reached yet
        parent[source] = source
        seen_in = 0
        queue = [source]
        chunk = left = clock.room()  # nodes the clock takes before it must look
        for node in queue:
            left -= 1
            if left < 0:  # this node's tick raises or reads the deadline
                chunk = left = clock.charge(chunk)
            v = node >> 1
            if node & 1:
                if pred[v] and not seen_in >> v & 1:
                    seen_in |= 1 << v
                    parent[node - 1] = node
                    queue.append(node - 1)
                fresh = adj[v] & ~(succ[v] | seen_in)
                if fresh >> t & 1:
                    parent[sink] = node
                    break
                seen_in |= fresh
                while fresh:
                    low = fresh & -fresh
                    fresh ^= low
                    w_in = low.bit_length() - 1 << 1
                    parent[w_in] = node
                    queue.append(w_in)
            else:  # the out-node of v's flow predecessor, or of v itself when v is free
                out = 2 * pred[v].bit_length() - 1 if pred[v] else node + 1
                if parent[out] < 0:
                    parent[out] = node
                    queue.append(out)
        clock.spend(chunk - left)
        if parent[sink] < 0:  # the search ended without reaching t
            return flow
        node = sink
        while node != source:
            prev = parent[node]
            a, b = prev >> 1, node >> 1
            if a == b:  # a split arc: pred already tells whether the vertex carries flow
                pass
            elif prev & 1:  # out-node a to in-node b: flow on the edge a-b
                succ[a] |= 1 << b
                pred[b] |= 1 << a
            else:  # in-node a back to out-node b: cancel the flow b-a
                succ[b] &= ~(1 << a)
                pred[a] &= ~(1 << b)
            node = prev
    return limit


def vertex_connectivity(g: Graph, budget: SearchBudget | BudgetClock = EXHAUSTIVE,
                        cap: int | None = None) -> int:
    """Minimum over non-adjacent pairs of the internally-disjoint-path count, taken
    over the pairs around the lowest-numbered vertex of minimum degree, each flow
    run on the adjacency masks.  With a ``cap`` it is ``min(connectivity, cap)``:
    every flow is capped at ``cap``, and a count below the cap is exact.

    A budget node is one network node (an implicit in- or out-node) dequeued by an
    augmenting-path search, or one seeded path; raises
    :class:`SearchBudgetExceeded` when the budget, or a clock shared with other
    calls, runs out, and :class:`InvalidInputError` on a negative ``cap``."""
    n = g.vertex_count
    if cap is not None and cap < 0:
        raise InvalidInputError(f"connectivity cap {cap} is negative")
    if n <= 1:
        return 0
    adj = g.adjacency_masks
    degrees = list(map(int.bit_count, adj))
    return _capped_connectivity(adj, degrees.index(min(degrees)), n if cap is None else cap,
                                clock_of(budget))


def _capped_connectivity(adj: tuple[int, ...], v: int, cap: int, clock: BudgetClock) -> int:
    """:func:`vertex_connectivity` capped at ``cap`` on rows ``adj`` of at least 2
    vertices, ``v`` the lowest-numbered vertex of minimum degree."""
    n = len(adj)
    best = min(n - 1, adj[v].bit_count(), cap)
    non_neighbours = ((v, t) for t in range(n) if t != v and not adj[v] >> t & 1)
    # Drawn lazily: each neighbour x of v pairs with the neighbours of v above x it misses.
    neighbour_pairs = ((x, y) for x in bits_of(adj[v])
                       for y in bits_of(adj[v] & ~adj[x] >> (x + 1) << (x + 1)))
    return _fewest_disjoint_paths(adj, chain(non_neighbours, neighbour_pairs), best, clock)


def has_connectivity_at_least(g: Graph, k: int, budget: SearchBudget | BudgetClock = EXHAUSTIVE) -> bool:
    """``vertex_connectivity(g) >= k``: false with no flow when ``n <= k`` or the
    minimum degree is below ``k``, and otherwise settled by flows capped at ``k``
    around the vertex that degree count found."""
    if k <= 0:
        return True
    if g.vertex_count <= k:
        return False
    adj = g.adjacency_masks
    degrees = list(map(int.bit_count, adj))
    d = min(degrees)
    return d >= k and _capped_connectivity(adj, degrees.index(d), k, clock_of(budget)) >= k
