"""Deciding feasibility of rooted graphs and finding removable paths.

A rooted graph ``(G, {a_1..a_m}, b1, b2)`` is *feasible* when ``G`` has a
``b1``-``b2`` path ``P`` with all ``a_i`` inside a single component of
``G - P``.  One kernel decides every ``m``.  It takes the BFS shortest
``b1``-``b2`` path in ``G - {a_i}``, which is induced (a chord would shorten
it): if there is none, ``rg`` is infeasible, and if it leaves the ``a_i`` in
one component, it is a witness.  For ``m <= 1`` it always does, since every
``a_i`` lies off it and a single root is never split, so feasibility is plain
reachability.  For ``m >= 2`` a shortest path that splits the ``a_i`` hands
over to an exhaustive DFS over induced ``b1``-``b2`` paths with conservative
prunes.  Either way a ``None`` answer is a proof of infeasibility.
``removable_path`` upgrades a linkage path to one whose removal leaves the
graph connected, by repeatedly absorbing the smallest leftover component
through one BFS detour; the component-size vector increases strictly in
lexicographic order at every step, which bounds the iteration count.  Every
search charges the budget's clock: each BFS one tick per dequeued vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .budget import EXHAUSTIVE, BudgetClock, SearchBudget, clock_of
from .errors import InvalidInputError
from .graphs import (
    Graph,
    Path,
    RootedGraph,
    bits_of,
    component_mask,
    components_masks,
    is_connected_set,
    mask_of,
    neighborhood_mask,
    pinned_set,
)


@dataclass(frozen=True)
class LinkagePair:
    """A witness of feasibility: a connected part holding the ``a_i`` plus a
    ``b1``-``b2`` path, vertex disjoint from each other.  ``a_part`` is empty
    exactly when ``m = 0``."""

    a_part: frozenset[int]
    b_path: Path

    def to_dict(self) -> dict:
        return {"a_part": sorted(self.a_part), "b_path": list(self.b_path.vertices)}

    def validate(self, rg: RootedGraph) -> None:
        g = rg.graph
        self.b_path.validate_in(g)
        if set(self.b_path.ends) != {rg.b1, rg.b2}:
            raise InvalidInputError("witness path does not join b1 and b2")
        if self.a_part & self.b_path.vertex_set:
            raise InvalidInputError("witness parts are not disjoint")
        if rg.m == 0:
            if self.a_part:
                raise InvalidInputError("a_part must be empty when m = 0")
            return
        if not set(rg.a_set) <= self.a_part:
            raise InvalidInputError("a_part misses a root")
        if not is_connected_set(g, self.a_part):
            raise InvalidInputError("a_part is not connected")


def _search_linkage(
    g: Graph,
    a_set: tuple[int, ...],
    b1: int,
    b2: int,
    banned: int,
    clock: BudgetClock,
) -> list[int] | None:
    """The linkage kernel: an induced b1-b2 witness path avoiding ``banned``,
    or ``None`` when none exists.

    The BFS shortest path comes first (see the module docstring).  The DFS
    that follows it searches induced paths only, which loses no witness: the
    shortest path inside a witness's own vertex set is induced, and it only
    merges components of ``G - P``, so it is a witness too.  A continuation
    after a child ``v`` of the frame ending at ``u`` therefore stays in the
    frame's ``room``: off the ``a_i``, the path and every neighbour of the
    path up to ``u``.  Every child is a neighbour of ``u``, so all of them
    share ``room`` and ``reach``, the component of ``b2`` in ``room`` (0
    when ``b2`` is outside it): ``v`` other than ``b2`` reaches ``b2`` inside
    ``room`` plus ``v`` exactly when it has a neighbour in ``reach``.  ``v``
    is pruned when it has none, or when the path already separates the
    ``a_i`` (deleting vertices never merges components); neither prune cuts
    a subtree holding a witness.  At ``b2`` the a-split test alone decides
    the leaf.  ``v`` draws its children from ``room``, and its own frame's
    room is ``room`` less its neighbours.  Like the one on the shortest
    path, the a-split test asks only whether a component covers the
    ``a_i``, so its BFS stops once it does, which changes no answer.

    A frame keeps its untried children as a mask and tries the lowest
    first, the increasing order that fixes which witness is found.  Every
    child tried is one budget tick, charged in chunks (see ``budget``).
    """
    adj = g.adjacency_masks
    a_mask = mask_of(a_set)
    if banned & (a_mask | 1 << b1 | 1 << b2):
        raise InvalidInputError("roots may not be banned from the search")
    alive = ((1 << g.vertex_count) - 1) & ~banned
    free = alive & ~a_mask
    shortest = _bfs_path(adj, free, b1, b2, clock)
    if shortest is None or len(a_set) < 2:
        return shortest
    a_seed = a_set[0]
    if not a_mask & ~component_mask(adj, alive & ~mask_of(shortest), a_seed, a_mask):
        return shortest

    path = [b1]
    on_path = 1 << b1
    children = adj[b1] & free
    room = free & ~(on_path | adj[b1])
    reach = component_mask(adj, room, b2) if room >> b2 & 1 else 0
    frames = []  # (children, room, reach) of every frame below the top one
    chunk = left = clock.room()  # nodes the clock takes before it must look
    while children or frames:
        if not children:
            on_path ^= 1 << path.pop()
            children, room, reach = frames.pop()
            continue
        low = children & -children
        children ^= low
        left -= 1
        if left < 0:  # this node's tick raises or reads the deadline
            chunk = left = clock.charge(chunk)
        v = low.bit_length() - 1
        if v != b2 and not adj[v] & reach:
            continue
        new_on = on_path | low
        if a_mask & ~component_mask(adj, alive & ~new_on, a_seed, a_mask):
            continue
        if v == b2:
            clock.spend(chunk - left)
            return path + [v]
        frames.append((children, room, reach))
        path.append(v)
        on_path = new_on
        children = adj[v] & room
        room &= ~adj[v]
        reach = component_mask(adj, room, b2) if room >> b2 & 1 else 0
    clock.spend(chunk - left)
    return None


def _bfs_path(adj: tuple[int, ...], alive: int, start: int, goal: int, clock: BudgetClock) -> list[int] | None:
    """Deterministic shortest path inside ``alive`` from ``start`` to a different
    ``goal`` (both endpoints included), one ``clock`` tick per dequeued vertex."""
    parent = {start: -1}
    seen = 1 << start
    queue = [start]
    for x in queue:  # the queue grows while it is walked
        clock.tick()
        new = adj[x] & alive & ~seen
        if new >> goal & 1:
            out = [goal]
            while x != -1:
                out.append(x)
                x = parent[x]
            return out[::-1]
        seen |= new
        while new:
            low = new & -new
            y = low.bit_length() - 1
            parent[y] = x
            queue.append(y)
            new ^= low
    return None


def find_linkage_pair(rg: RootedGraph, budget: SearchBudget | BudgetClock = EXHAUSTIVE) -> LinkagePair | None:
    """Search for a linkage pair; ``None`` proves there is none.

    The path is the one the linkage kernel returns: the BFS shortest
    ``b1``-``b2`` path in ``G - {a_i}`` when it leaves the ``a_i`` together
    (always for ``m <= 1``), else the first induced path the DFS finds.
    ``a_part`` is the full component of ``G - P`` containing the ``a_i``
    (empty for ``m = 0``).  Raises :class:`SearchBudgetExceeded` when the
    budget, or a clock it shares, runs out before the search finishes; that
    outcome is deliberately distinct from both definite answers.
    """
    path = _search_linkage(rg.graph, rg.a_set, rg.b1, rg.b2, 0, clock_of(budget))
    if path is None:
        return None
    rest = ((1 << rg.graph.vertex_count) - 1) & ~mask_of(path)
    comp = component_mask(rg.graph.adjacency_masks, rest, rg.a_set[0]) if rg.a_set else 0
    return LinkagePair(frozenset(bits_of(comp)), Path(path))


def is_feasible(rg: RootedGraph) -> bool:
    """Exhaustive-budget wrapper over :func:`find_linkage_pair`."""
    return find_linkage_pair(rg) is not None


def is_critically_feasible(
    rg: RootedGraph, u_set: frozenset[int] | set[int], budget: SearchBudget | BudgetClock = EXHAUSTIVE
) -> bool:
    """Whether ``rg`` is feasible and every linkage path must pass through ``u_set``.

    Decided through the deletion form: feasible, and deleting any single
    ``u`` destroys feasibility; each deletion runs the linkage kernel again.
    For ``m <= 1`` this provably coincides with the every-linkage-path
    reading, and it is reachability (see the module docstring), so a ``u``
    off the first path found, a shortest one, cuts nothing and costs no
    search.  An empty ``u_set`` reduces to plain feasibility.  One ``budget``,
    or a clock running since an earlier call, covers all the searches; raises
    :class:`SearchBudgetExceeded` when it runs out.
    """
    u_set = pinned_set(rg, u_set)
    clock = clock_of(budget)
    g, a_set, b1, b2 = rg.graph, rg.a_set, rg.b1, rg.b2
    path = _search_linkage(g, a_set, b1, b2, 0, clock)
    one_root = rg.m <= 1
    return path is not None and not any(
        (one_root and u not in path) or _search_linkage(g, a_set, b1, b2, 1 << u, clock) is not None
        for u in sorted(u_set)
    )


def two_linkage(
    g: Graph, s1: int, t1: int, s2: int, t2: int, budget: SearchBudget | BudgetClock = EXHAUSTIVE
) -> tuple[Path, Path] | None:
    """Two vertex-disjoint paths ``s1 -> t1`` and ``s2 -> t2``, or ``None``.

    This is the ``m = 2`` case of feasibility: a connected part holding
    ``s1, t1`` beside an ``s2``-``t2`` path is the same thing as two disjoint
    paths.  The ``s2``-``t2`` path comes from :func:`find_linkage_pair`, the
    ``s1``-``t1`` path is the shortest one inside the returned ``a_part``.
    ``budget``, or a clock running since an earlier call, bounds both searches.
    """
    clock = clock_of(budget)
    pair = find_linkage_pair(RootedGraph(g, (s1, t1), s2, t2), clock)
    if pair is None:
        return None
    first = _bfs_path(g.adjacency_masks, mask_of(pair.a_part), s1, t1, clock)
    return Path(first), pair.b_path


@dataclass(frozen=True)
class RemovableReport:
    """Outcome of the removable-path improvement procedure.

    ``component_history`` records the ordered component-size vector of
    ``G - B`` at the start of every iteration; successful runs end with a
    single component and the vectors are strictly increasing.
    """

    path: Path | None
    failure: str | None
    iterations: int
    component_history: tuple[tuple[int, ...], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.path is not None


def removable_path(rg: RootedGraph, budget: SearchBudget | BudgetClock = EXHAUSTIVE) -> RemovableReport:
    """Find a ``b1``-``b2`` path avoiding the ``a_i`` whose removal leaves the
    graph connected.

    Starting from the kernel's path ``B``, each step absorbs the smallest
    leftover component ``last`` of ``G - B``.  Its outermost attachments
    ``u1 = B[i1]``, ``u2 = B[i2]`` must enclose an interior vertex attached to
    an earlier component (else no move is legal and a failure report says so),
    so ``i2 >= i1 + 2``, and ``B[i1..i2]`` is replaced by the BFS shortest
    ``u1``-``u2`` detour through ``last``.  ``B`` stays induced, so one BFS per
    step suffices.  It starts induced, as the kernel's paths are.  The kept
    prefix and suffix share no edge, since ``u1``, ``u2`` are not adjacent.
    Every neighbour of ``last`` on ``B`` is an attachment, at a position in
    ``i1..i2``, and those strictly between are dropped, so the detour's
    interior sees the kept parts only at ``u1`` and ``u2``.  The detour, a
    shortest path inside ``last`` plus ``u1, u2``, has no chord, and a second
    edge from ``u1`` or ``u2`` into it would be one.  For ``m >= 1``, success
    is guaranteed on ``(2m+2)``-connected graphs; at ``m = 0`` no connectivity
    suffices (in ``K_{2,3}`` with ``b1, b2`` on the 2-side every path leaves
    two components).  Otherwise the first step with no legal move is reported,
    and which step that is can depend on the start path.  One ``budget``, or a
    clock running since an earlier call, covers the kernel, the detours and the
    loop.
    """
    g = rg.graph
    adj = g.adjacency_masks
    full = (1 << g.vertex_count) - 1
    clock = clock_of(budget)
    found = _search_linkage(g, rg.a_set, rg.b1, rg.b2, 0, clock)
    if found is None:
        return RemovableReport(None, "infeasible", 0)
    b_path = Path(found)
    anchor = 1 << rg.a_set[0] if rg.a_set else 0
    history: list[tuple[int, ...]] = []
    iterations = 0

    while True:
        clock.tick()
        alive = full & ~mask_of(b_path.vertices)
        # The component meeting the anchor first, then by decreasing size and lowest vertex.
        comps = sorted(components_masks(adj, alive),
                       key=lambda c: (not c & anchor, -c.bit_count(), (c & -c).bit_length()))
        vec = tuple(c.bit_count() for c in comps)
        if history and not vec > history[-1]:
            return RemovableReport(None, "no-lexicographic-progress", iterations, tuple(history + [vec]))
        history.append(vec)
        if len(comps) <= 1:
            b_path.validate_in(g)
            return RemovableReport(b_path, None, iterations, tuple(history))

        last = comps[-1]
        boundary = neighborhood_mask(adj, last)
        attach = [i for i, v in enumerate(b_path.vertices) if boundary >> v & 1]
        if len(attach) < 2:
            return RemovableReport(None, "single-attachment-component", iterations, tuple(history))
        i1, i2 = attach[0], attach[-1]
        u1, u2 = b_path.vertices[i1], b_path.vertices[i2]
        # The components of G - B partition alive, so the earlier ones are alive & ~last.
        if not any(adj[u] & alive & ~last for u in b_path.vertices[i1 + 1 : i2]):
            return RemovableReport(None, "no-anchored-interior-vertex", iterations, tuple(history))

        detour = _bfs_path(adj, last | 1 << u1 | 1 << u2, u1, u2, clock)
        b_path = Path(b_path.vertices[: i1 + 1] + tuple(detour[1:-1]) + b_path.vertices[i2:])
        b_path.validate_in(g)
        iterations += 1
