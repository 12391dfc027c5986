"""Removable paths: postconditions, lexicographic progress, failure modes."""

import pytest
from hypothesis import given, settings

from linklab.budget import EXHAUSTIVE, BudgetClock, SearchBudget
from linklab.connectivity import vertex_connectivity
from linklab.errors import SearchBudgetExceeded
from linklab.feasibility import find_linkage_pair, removable_path
from linklab.graphs import Graph, RootedGraph
from oracles import _components_of
from strategies import rooted_graphs, trigrid


def check_postconditions(rg, report):
    assert report.ok
    path = report.path
    path.validate_in(rg.graph)
    assert path.ends == (rg.b1, rg.b2)
    # Induced: each detour is spliced in without re-inducing the path.
    vs = path.vertices
    assert not any(rg.graph.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 2:])
    assert not set(rg.a_set) & path.vertex_set
    comps = _components_of(rg.graph, set(path.vertex_set))
    assert len(comps) <= 1
    if rg.a_set:
        assert set(rg.a_set) <= comps[0]
    history = report.component_history
    assert all(b > a for a, b in zip(history, history[1:]))


def test_complete_graph_direct_edge():
    rg = RootedGraph(Graph.complete(5), (0,), 1, 2)
    report = removable_path(rg)
    check_postconditions(rg, report)
    assert report.path.vertices == (1, 2)
    assert report.iterations == 0


def test_complete_graphs_all_m():
    # K_{2m+3} is (2m+2)-connected; the procedure must succeed for m = 1..3.
    for m in (1, 2, 3):
        g = Graph.complete(2 * m + 3)
        rg = RootedGraph(g, tuple(range(m)), m, m + 1)
        check_postconditions(rg, removable_path(rg))


def test_infeasible_reports_failure():
    rg = RootedGraph(Graph.path_graph(3), (1,), 0, 2)
    report = removable_path(rg)
    assert not report.ok
    assert report.failure == "infeasible"


def test_m_zero_instances():
    for g, b1, b2 in [(Graph.complete(4), 0, 1), (Graph.cycle(5), 0, 2), (Graph.path_graph(6), 0, 5)]:
        rg = RootedGraph(g, (), b1, b2)
        report = removable_path(rg)
        check_postconditions(rg, report)


def test_budget_propagates():
    # Infeasible, and the linkage search alone takes 194 nodes.
    with pytest.raises(SearchBudgetExceeded):
        removable_path(trigrid(4, 5, 6), SearchBudget(max_nodes_expanded=2))


def test_one_budget_covers_search_and_improvement():
    # The linkage search takes 4 dequeues, the improvement loop 2 nodes (one
    # iteration) and its detour BFS 2 dequeues, so 8 nodes answer and 7 must not.
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                             (1, 6), (2, 5), (2, 6), (4, 5)])
    rg = RootedGraph(g, (0,), 1, 2)
    report = removable_path(rg, SearchBudget(max_nodes_expanded=8))
    check_postconditions(rg, report)
    assert report.iterations == 1
    with pytest.raises(SearchBudgetExceeded):
        removable_path(rg, SearchBudget(max_nodes_expanded=7))


def test_low_connectivity_failure_is_reported_not_raised():
    # Two triangles sharing spine vertices: removing any b1-b2 path discards
    # a pendant component, and no reroute can absorb it.
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 1), (2, 4), (4, 1)])
    rg = RootedGraph(g, (3,), 0, 2)
    report = removable_path(rg)
    if report.ok:
        check_postconditions(rg, report)
    else:
        assert report.failure is not None


def test_needs_improvement_iteration():
    # The b1-b2 edge leaves an isolated far vertex, forcing a detour.
    g = Graph.from_edges(
        6,
        [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4), (3, 5), (4, 5), (2, 5), (2, 3), (2, 4)],
    )
    rg = RootedGraph(g, (2,), 0, 1)
    report = removable_path(rg)
    check_postconditions(rg, report)


@given(rooted_graphs(min_m=1, max_m=2, max_n=7, connected=True))
@settings(max_examples=200)
def test_random_instances_postconditions_or_reported_failure(rg):
    report = removable_path(rg)
    if report.ok:
        check_postconditions(rg, report)
    else:
        history = report.component_history
        assert all(b > a for a, b in zip(history, history[1:]))


@given(rooted_graphs(min_m=1, max_m=1, max_n=7, connected=True))
@settings(max_examples=150)
def test_highly_connected_always_succeeds(rg):
    if vertex_connectivity(rg.graph) >= 2 * rg.m + 2:
        check_postconditions(rg, removable_path(rg))


# Spine 0..5 with satellites 6, 7 straddling it and the root blob {8}
# hanging off vertex 2.
TWO_STEPS = RootedGraph(
    Graph.from_edges(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
         (1, 6), (2, 6), (3, 6), (2, 7), (3, 7), (4, 7), (2, 8)],
    ),
    (8,), 0, 5,
)


def test_two_improvement_iterations_exactly():
    # The first absorbed satellite frees vertex 3, which reattaches the other
    # satellite; the second round frees 2 and 7, which join the root
    # component.  Hand-checked history.
    rg = TWO_STEPS
    report = removable_path(rg)
    check_postconditions(rg, report)
    assert report.iterations == 2
    assert report.component_history == ((1, 1, 1), (1, 2), (3,))
    assert report.path.vertices == (0, 1, 6, 3, 4, 5)


def test_every_detour_dequeue_is_a_budget_node():
    # 7 dequeues find the spine, each of the 3 loop rounds ticks once, and
    # the detours 2-7-4 and 1-6-3-4 dequeue 2, 7 and 1, 6, 3: 15 nodes in all.
    clock = BudgetClock(EXHAUSTIVE)
    report = removable_path(TWO_STEPS, clock)
    assert clock.ticks == 15
    for nodes in range(1, 17):
        if nodes < 15:
            with pytest.raises(SearchBudgetExceeded):
                removable_path(TWO_STEPS, SearchBudget(max_nodes_expanded=nodes))
        else:
            assert removable_path(TWO_STEPS, SearchBudget(max_nodes_expanded=nodes)) == report


def test_failure_can_depend_on_the_start_path():
    # Below 2m + 2 = 6 (the graph is only 1-connected) the procedure gives no
    # guarantee.  Its start, the shortest path 6-1-7, strands the pendant
    # vertex 5 with the single attachment 1, so it stops there, although the
    # longer path 6-0-3-7 is removable.
    edges = "0-2 0-3 0-6 1-2 1-3 1-5 1-6 1-7 2-3 2-4 3-4 3-7"
    g = Graph.from_edges(8, [tuple(map(int, e.split("-"))) for e in edges.split()])
    rg = RootedGraph(g, (4, 2), 6, 7)
    assert vertex_connectivity(g) == 1
    assert find_linkage_pair(rg).b_path.vertices == (6, 1, 7)
    report = removable_path(rg)
    assert (report.failure, report.iterations, report.component_history) == (
        "single-attachment-component", 0, ((4, 1),))
    assert all(g.has_edge(u, v) for u, v in [(6, 0), (0, 3), (3, 7)])
    assert _components_of(g, {6, 0, 3, 7}) == [{1, 2, 4, 5}]


def test_consecutive_attachment_deadlock_reported():
    # The satellite 4 attaches to two consecutive path vertices, so its
    # interval has no interior and no reroute is available (the graph is not
    # 3-connected, so the guarantee does not apply).
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4), (1, 5)])
    rg = RootedGraph(g, (5,), 0, 3)
    report = removable_path(rg)
    assert not report.ok
    assert report.failure == "no-anchored-interior-vertex"


def _satellite_instance(seed: int) -> RootedGraph:
    """Spine plus interval-attached satellites: strands components on purpose."""
    import random

    rng = random.Random(f"sat:{seed}")
    spine = rng.randint(6, 9)
    sats = rng.randint(2, 4)
    n = spine + sats + 1
    edges = [(i, i + 1) for i in range(spine - 1)]
    for s in range(sats):
        v = spine + s
        left = rng.randint(1, spine - 4)
        width = rng.randint(2, 3)
        edges.extend((w, v) for w in range(left, min(left + width, spine - 1)))
        if s and rng.random() < 0.4:
            edges.append((spine + s - 1, v))
    a = n - 1
    edges.append((rng.randint(1, spine - 2), a))
    return RootedGraph(Graph.from_edges(n, edges), (a,), 0, spine - 1)


def test_satellite_family_exercises_the_loop():
    successes = 0
    multi = 0
    for seed in range(300):
        rg = _satellite_instance(seed)
        report = removable_path(rg)
        history = report.component_history
        assert all(b > a for a, b in zip(history, history[1:]))
        if report.ok:
            check_postconditions(rg, report)
            successes += 1
            if report.iterations >= 2:
                multi += 1
        else:
            assert report.failure is not None
    assert successes >= 30
    assert multi >= 10
