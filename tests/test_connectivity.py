"""Vertex connectivity against the brute-force minimum separator."""

import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from networkx.algorithms.connectivity import local_node_connectivity

from linklab.budget import EXHAUSTIVE, BudgetClock, SearchBudget
from linklab.connectivity import (
    _fewest_disjoint_paths,
    has_connectivity_at_least,
    vertex_connectivity,
)
from linklab.errors import InvalidInputError, SearchBudgetExceeded
from linklab.graphs import Graph
from linklab.harness import CampaignConfig, gen_random_rooted, small_graphs
from oracles import brute_local_connectivity, brute_min_separator
from strategies import graphs


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def test_complete_graph_convention():
    assert vertex_connectivity(Graph.complete(5)) == 4
    assert vertex_connectivity(Graph.complete(1)) == 0
    assert vertex_connectivity(Graph(0)) == 0


def test_path_on_three():
    assert vertex_connectivity(Graph.path_graph(3)) == 1


def test_disconnected_is_zero():
    assert vertex_connectivity(Graph(4)) == 0


def test_petersen_is_three():
    # Independently: no cut of size <= 2, some cut of size 3.
    g = petersen()
    from oracles import _components_of

    assert all(
        len(_components_of(g, set(cut))) == 1
        for size in (0, 1, 2)
        for cut in itertools.combinations(range(10), size)
    )
    assert any(
        len(_components_of(g, set(cut))) >= 2 for cut in itertools.combinations(range(10), 3)
    )
    assert vertex_connectivity(g) == 3


def test_structured_examples():
    cube = Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)]
    )
    assert vertex_connectivity(cube) == 3
    k44 = Graph.from_edges(8, [(a, b) for a in range(4) for b in range(4, 8)])
    assert vertex_connectivity(k44) == 4
    shared = Graph.from_edges(7, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                              + [(u, v) for u in range(3, 7) for v in range(u + 1, 7)])
    assert vertex_connectivity(shared) == 1


@given(graphs(max_n=8))
@settings(max_examples=150)
def test_matches_brute_force(g):
    assert vertex_connectivity(g) == brute_min_separator(g)


@given(graphs(max_n=8))
@settings(max_examples=100)
def test_threshold_consistency(g):
    kappa = vertex_connectivity(g)
    assert has_connectivity_at_least(g, kappa)
    assert not has_connectivity_at_least(g, kappa + 1)


def test_matches_brute_force_exhaustively():
    # Every graph with n <= 7, at every threshold and cap from 0 to n + 1.
    for g in small_graphs(7):
        brute = brute_min_separator(g)
        assert vertex_connectivity(g) == brute
        for k in range(g.vertex_count + 2):
            assert has_connectivity_at_least(g, k) == (brute >= k)
            assert vertex_connectivity(g, cap=k) == min(brute, k)


@pytest.mark.parametrize("g", [Graph(0), Graph(1), Graph.complete(4)])
def test_negative_cap_is_invalid_input(g):
    with pytest.raises(InvalidInputError):
        vertex_connectivity(g, cap=-1)


@pytest.mark.parametrize("g, k", [(Graph.path_graph(50), 2), (Graph.complete(4), 4)])
def test_threshold_is_refused_without_a_flow(g, k):
    # A minimum degree below k, or n <= k, settles the test before any flow runs.
    clock = BudgetClock(EXHAUSTIVE)
    assert not has_connectivity_at_least(g, k, clock)
    assert clock.ticks == 0


def _pair_count(g: Graph, s: int, t: int, limit: int, clock: BudgetClock) -> int:
    return _fewest_disjoint_paths(g.adjacency_masks, [(s, t)], limit, clock)


def _non_adjacent_pairs(g: Graph) -> list[tuple[int, int]]:
    return [(s, t) for s, t in itertools.combinations(range(g.vertex_count), 2)
            if not g.has_edge(s, t)]


def test_pair_counts_match_brute_force_exhaustively():
    # Every non-adjacent pair of every graph with n <= 7, at every cap from 1
    # to n, against the smallest separating set found by subset search.
    for g in small_graphs(7):
        for s, t in _non_adjacent_pairs(g):
            brute = brute_local_connectivity(g, s, t)
            for limit in range(1, g.vertex_count + 1):
                assert _pair_count(g, s, t, limit, BudgetClock(EXHAUSTIVE)) == min(brute, limit)


def test_pair_counts_match_networkx():
    # Seeded G(n, p) graphs with 8 to 24 vertices, five non-adjacent pairs each.
    rng = random.Random(2024)
    for _ in range(200):
        n, p = rng.randint(8, 24), rng.uniform(0.15, 0.6)
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(range(n))
        pairs = _non_adjacent_pairs(g)
        for s, t in rng.sample(pairs, min(5, len(pairs))):
            assert _pair_count(g, s, t, n, BudgetClock(EXHAUSTIVE)) == local_node_connectivity(nxg, s, t)


def test_pair_counts_match_networkx_on_kconn_instances():
    # The fuzz-removable regime: dense graphs drawn by the kconn generator.  At
    # the campaign's cap 2m + 2, 879 of the 1,276 non-adjacent pairs of these 24
    # graphs get at least one s-x-y-t seed.  Checked at that cap and uncapped.
    for m, n_min, p in ((2, 14, 0.3), (4, 18, 0.35)):
        config = CampaignConfig(seed=19, trials=12, n_min=n_min, n_max=n_min + 4, m=m,
                                model="kconn", p=p)
        for trial in range(config.trials):
            g = gen_random_rooted(config, trial).graph
            nxg = nx.Graph(list(g.edges))
            for s, t in _non_adjacent_pairs(g):
                exact = local_node_connectivity(nxg, s, t)
                for limit in (2 * m + 2, g.vertex_count):
                    assert _pair_count(g, s, t, limit, BudgetClock(EXHAUSTIVE)) == min(exact, limit)


def test_ladder_is_settled_by_seeding():
    # s = 0 and t = 1 share no neighbour; s is joined to x_i = 2 + i, t to
    # y_i = 2 + k + i, and x_i to y_i.  The lowest free y next to each x_i is
    # y_i, so the k rungs are seeded as s-x_i-y_i-t, one tick each, and the
    # flow reaches its cap k with no augmenting search.
    for k in (1, 2, 5, 9):
        edges = [(0, 2 + i) for i in range(k)] + [(1, 2 + k + i) for i in range(k)]
        g = Graph.from_edges(2 + 2 * k, edges + [(2 + i, 2 + k + i) for i in range(k)])
        clock = BudgetClock(EXHAUSTIVE)
        assert _pair_count(g, 0, 1, k, clock) == k
        assert clock.ticks == k


def test_augmenting_path_cancels_flow():
    # 0 and 5 share no neighbour, so seeding takes 0-1-3-5 (the lowest x = 1
    # with its lowest y = 3), and x = 2 finds its only y taken.  The augmenting
    # path runs 0-2 into 3, back along the seeded flow to 1, then 1-4-5,
    # cancelling the flow on 1->3.
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)])
    clock = BudgetClock(EXHAUSTIVE)
    assert _pair_count(g, 0, 5, 6, clock) == 2
    assert clock.ticks == 11
    clock = BudgetClock(EXHAUSTIVE)
    assert vertex_connectivity(g, clock) == 2
    assert clock.ticks == 24


def test_node_budget_raises_where_single_ticks_would():
    # The graph above: 24 ticks, some of them augmenting-search nodes, so
    # every budget below 24 must raise.  A search node that overruns leaves
    # the clock as a single tick does (remaining -1, the ticks before it
    # counted); a seeded charge that overruns leaves its ticks uncounted
    # (budgets 1, 22 and 23).
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)])
    states = []
    for budget in range(1, 31):
        clock = BudgetClock(SearchBudget(max_nodes_expanded=budget))
        try:
            answer = vertex_connectivity(g, clock)
        except SearchBudgetExceeded:
            answer = None
        states.append((budget, answer, clock.ticks, clock.remaining))
    assert states == [(1, None, 0, -1), *((b, None, b, -1) for b in range(2, 22)),
                      (22, None, 22, -2), (23, None, 22, -1), *((b, 2, 24, b - 24) for b in range(24, 31))]


def test_circulant_budget_boundary():
    # C_100^5's 119,574 ticks include searches of more than 256 nodes.
    n = 100
    g = Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in range(1, 6)])
    with pytest.raises(SearchBudgetExceeded, match="node budget"):
        vertex_connectivity(g, SearchBudget(max_nodes_expanded=119_573))
    assert vertex_connectivity(g, SearchBudget(max_nodes_expanded=119_574)) == 10


@pytest.mark.parametrize("start, ticks", [(0, 256), (100, 256), (255, 256), (300, 512)])
def test_searches_read_the_deadline_every_256_ticks(start, ticks):
    # On P_400 the flows from v_0 are settled by augmenting searches alone,
    # so with the deadline past, the first multiple of 256 ticks raises.
    clock = BudgetClock(EXHAUSTIVE)
    clock.ticks, clock.deadline = start, -1.0
    with pytest.raises(SearchBudgetExceeded, match="time budget"):
        vertex_connectivity(Graph.path_graph(400), clock)
    assert clock.ticks == ticks


def test_path_needs_flows_from_one_source_only():
    # The minimum-degree vertex is v_0, with one neighbour, so only its 398
    # flows to its non-neighbours run; flows from every vertex would dequeue
    # about 20 million network nodes here.
    budget = SearchBudget(max_nodes_expanded=400_000)
    assert vertex_connectivity(Graph.path_graph(400), budget) == 1


def test_separator_on_the_first_vertices():
    # Two cliques sharing v_0..v_{k-1}, each with two vertices of its own:
    # the shared vertices are adjacent to every vertex.  Minimum degree k + 1
    # is first reached at v_k, whose non-neighbours v_{k+2} and v_{k+3} lie
    # beyond the separator v_0..v_{k-1}, so the first flow already counts k.
    for k in (1, 2, 3):
        shared = list(range(k))
        left, right = shared + [k, k + 1], shared + [k + 2, k + 3]
        edges = [*itertools.combinations(left, 2), *itertools.combinations(right, 2)]
        assert vertex_connectivity(Graph.from_edges(k + 4, edges)) == k


@pytest.mark.parametrize("extra", [0, 2])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_common_neighbours_settle_complete_bipartite(k, extra):
    # K_{k, k+extra} with the k-side first.  Minimum degree k is first reached
    # at v, v_0 when extra = 0 and v_k when extra = 2; either way v sits on the
    # (k+extra)-side, its non-neighbours are the other k + extra - 1 vertices of
    # that side, and its neighbours are the whole k-side.  Every pair tried
    # shares the whole opposite side, at least k vertices, so each flow is
    # settled by k seeded paths, one tick each, with no search: k ticks for
    # each of the k + extra - 1 non-neighbours of v, and k for each of the
    # C(k, 2) pairs of its neighbours.  At extra = 2 those pairs share k + 2
    # neighbours, so the count also catches seeding past the cap.
    g = Graph.from_edges(2 * k + extra, [(a, b) for a in range(k) for b in range(k, 2 * k + extra)])
    clock = BudgetClock(EXHAUSTIVE)
    assert vertex_connectivity(g, clock) == k
    assert clock.ticks == k * (k + extra - 1) + k * math.comb(k, 2)


def test_circulant_within_a_small_budget():
    # C_100^5 (each vertex joined to the five nearest on each side) is
    # 10-connected.  Most pairs around v_0 are more than three steps apart, so
    # seeding settles few flows; they take 119,574 ticks.
    n = 100
    g = Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in range(1, 6)])
    clock = BudgetClock(SearchBudget(max_nodes_expanded=200_000))
    assert vertex_connectivity(g, clock) == 10
    assert clock.ticks == 119_574


def test_threshold_caps_every_flow():
    # On the same circulant, asking for 4-connectivity caps each flow at 4
    # paths instead of running it up to the minimum degree 10.
    n = 100
    g = Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in range(1, 6)])
    clock = BudgetClock(EXHAUSTIVE)
    assert has_connectivity_at_least(g, 4, clock)
    assert clock.ticks == 33_335


@pytest.mark.parametrize("budget", [SearchBudget(max_nodes_expanded=10_000),
                                    SearchBudget(time_limit_ms=50)])
def test_budget_bounds_a_large_input(budget):
    g = Graph.path_graph(20_000)
    with pytest.raises(SearchBudgetExceeded):
        vertex_connectivity(g, budget)
    with pytest.raises(SearchBudgetExceeded):
        has_connectivity_at_least(g, 1, budget)
