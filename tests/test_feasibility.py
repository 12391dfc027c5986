"""Linkage-pair search against the naive all-paths oracle, plus properties."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linklab.budget import EXHAUSTIVE, BudgetClock, SearchBudget
from linklab.certificates import theorem_check
from linklab.errors import InvalidInputError, SearchBudgetExceeded
from linklab.feasibility import (
    _bfs_path,
    find_linkage_pair,
    is_critically_feasible,
    is_feasible,
    two_linkage,
)
from linklab.graphs import Graph, RootedGraph, mask_of
from linklab.harness import rooted_instances, small_graphs
from linklab.planarity import find_seymour_certificate
from oracles import (
    _components_of,
    _path_is_witness,
    brute_two_linkage_exists,
    first_induced_witness,
    naive_critical_by_deletion,
    naive_is_critically_feasible,
    naive_is_feasible,
)
from strategies import graphs, rooted_graphs, trigrid


class TestFindLinkagePair:
    def test_triangle(self):
        rg = RootedGraph(Graph.complete(3), (0,), 1, 2)
        pair = find_linkage_pair(rg)
        assert pair is not None
        assert pair.a_part == {0}
        assert pair.b_path.vertices == (1, 2)
        pair.validate(rg)

    def test_path_through_root_infeasible(self):
        rg = RootedGraph(Graph.path_graph(3), (1,), 0, 2)
        assert find_linkage_pair(rg) is None

    def test_tight_family_m3_infeasible(self):
        from linklab.certificates import gmk_graph

        assert find_linkage_pair(gmk_graph(3, 2)) is None

    def test_a_part_is_full_component(self):
        # b-path along the bottom, a-component is everything else.
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
        rg = RootedGraph(g, (4,), 0, 2)
        pair = find_linkage_pair(rg)
        assert pair.a_part == {3, 4, 5}

    def test_budget_exhaustion_is_distinct(self):
        # Infeasible: the shortest path alone takes 22 dequeues, the DFS
        # that refutes every induced path 174 nodes more.
        rg = trigrid(4, 5, 6)
        with pytest.raises(SearchBudgetExceeded):
            find_linkage_pair(rg, SearchBudget(max_nodes_expanded=2))

    def test_induced_prune_finishes_trigrid(self):
        # n = 26: the search over all b1-b2 paths runs past this budget, the
        # search over induced paths proves infeasibility well inside it.
        assert find_linkage_pair(trigrid(4, 5, 6), SearchBudget(max_nodes_expanded=5_000)) is None

    def test_trigrid_needs_room_for_the_clump_triangle(self):
        # The clump hangs on {(1,1), (1,2), (2,2)}, so the smallest shapes are 3 x c and r x 3.
        for shape in ((3, 3), (3, 5), (5, 3)):
            assert find_linkage_pair(trigrid(*shape, 4)) is None
        for shape in ((2, 2), (2, 5), (5, 2), (1, 1)):
            with pytest.raises(ValueError, match="at least 3 rows and 3 columns"):
                trigrid(*shape, 6)

    def test_reachability_prune_stays_inside_the_induced_region(self):
        # trigrid(6, 7, 6) is infeasible.  Testing b2-reachability only where
        # an induced continuation may go cuts its search to 10,204 nodes;
        # testing it over all of G - P - {a_i} would take 14,707.  Stopping
        # each component search once its target is covered changes no prune:
        # trigrid(7, 7, 6) takes 40,661 nodes either way.
        for shape, nodes in (((6, 7, 6), 10_204), ((7, 7, 6), 40_661)):
            clock = BudgetClock(EXHAUSTIVE)
            assert find_linkage_pair(trigrid(*shape), clock) is None
            assert clock.ticks == nodes

    @given(rooted_graphs(max_m=3, max_n=8))
    @settings(max_examples=300)
    def test_witness_path_is_induced(self, rg):
        pair = find_linkage_pair(rg)
        if pair is not None:
            path = pair.b_path.vertices
            chords = {
                (u, v) for i, u in enumerate(path) for v in path[i + 2:] if rg.graph.has_edge(u, v)
            }
            assert not chords

    @pytest.mark.parametrize(
        "m, instances, feasible, ticks",
        [
            (2, 234_366, 150_408, 508_628),
            (3, 228_940, 120_064, 436_489),
            (4, 111_960, 47_799, 171_539),
        ],
        ids=["m2", "m3", "m4"],
    )
    def test_witnesses_are_induced_exhaustively(self, m, instances, feasible, ticks):
        # Every witness on at most 7 vertices validates and has no chord, and
        # the feasible counts are those the DFS gave without the shortest-path
        # start.  The path is the shortest-path start when that is a witness,
        # else the oracle's first chordless witness: the DFS walks induced
        # paths in lexicographic order and its prunes cut no witness.  One
        # clock sums the ticks of every search, so the pin holds the effort
        # of the prunes as well as their answers.
        counts = [0, 0]
        clock = BudgetClock(EXHAUSTIVE)
        for g in small_graphs(7, min_n=m + 2):
            for rg in rooted_instances(g, m):
                counts[0] += 1
                pair = find_linkage_pair(rg, clock)
                path = None if pair is None else pair.b_path.vertices
                if pair is not None:
                    counts[1] += 1
                    pair.validate(rg)
                    assert not any(g.has_edge(u, v) for i, u in enumerate(path) for v in path[i + 2:])
                free = ((1 << g.vertex_count) - 1) & ~mask_of(rg.a_set)
                start = _bfs_path(g.adjacency_masks, free, rg.b1, rg.b2, BudgetClock(EXHAUSTIVE))
                if start is not None and not _path_is_witness(g, rg.a_set, tuple(start)):
                    assert path == first_induced_witness(rg)
                else:
                    assert path == (None if start is None else tuple(start))
        assert counts == [instances, feasible]
        assert clock.ticks == ticks

    def test_witnesses_follow_the_child_order_on_larger_graphs(self):
        # Seeded G(n, p) instances at m = 2 with 9 to 13 vertices, kept when the
        # shortest path splits the a_i, so that the DFS decides them.  Its
        # witness must be the oracle's first chordless one: the DFS tries the
        # children of every node in increasing order.  Few instances with n <= 7
        # have two chordless witnesses, so the exhaustive test above hardly
        # constrains that order; here 22 of the 380 kept instances are feasible.
        rng = random.Random(20261019)
        kept = feasible = 0
        clock = BudgetClock(EXHAUSTIVE)
        for _ in range(1500):
            n, p = rng.randint(9, 13), rng.uniform(0.18, 0.32)
            g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            *a_set, b1, b2 = rng.sample(range(n), 4)
            rg = RootedGraph(g, tuple(a_set), b1, b2)
            start = _bfs_path(g.adjacency_masks, ((1 << n) - 1) & ~mask_of(a_set), b1, b2, BudgetClock(EXHAUSTIVE))
            if start is None or _path_is_witness(g, rg.a_set, tuple(start)):
                continue
            kept += 1
            pair = find_linkage_pair(rg, clock)
            feasible += pair is not None
            assert (None if pair is None else pair.b_path.vertices) == first_induced_witness(rg)
        assert (kept, feasible) == (380, 22)
        assert clock.ticks == 2_270

    def test_budget_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            SearchBudget(0, 10)


class TestIsFeasible:
    def test_k5_any_roots(self):
        g = Graph.complete(5)
        for a in range(5):
            for b1, b2 in itertools.combinations([v for v in range(5) if v != a], 2):
                assert is_feasible(RootedGraph(g, (a,), b1, b2))

    def test_tight_family_members(self):
        from linklab.certificates import gmk_graph

        # The m = 1 members are feasible (the spine path leaves the single
        # root in its own component); members with m >= 2 split the roots.
        for k in range(5):
            assert is_feasible(gmk_graph(1, k))
            assert naive_is_feasible(gmk_graph(1, k))
        for m in (2, 3, 4):
            for k in range(5):
                assert not is_feasible(gmk_graph(m, k))

    @given(rooted_graphs(min_m=0, max_m=0, max_n=6, connected=True))
    def test_m_zero_connected_always_feasible(self, rg):
        assert is_feasible(rg)

    @given(rooted_graphs(max_m=2, max_n=7))
    @settings(max_examples=300)
    def test_matches_naive_oracle(self, rg):
        assert is_feasible(rg) == naive_is_feasible(rg)

    @given(rooted_graphs(max_m=2, max_n=7), st.data())
    def test_edge_monotone(self, rg, data):
        pair = find_linkage_pair(rg)
        if pair is None:
            return
        missing = sorted(
            set(itertools.combinations(range(rg.graph.vertex_count), 2)) - rg.graph.edges
        )
        if not missing:
            return
        extra = data.draw(st.sampled_from(missing))
        bigger = RootedGraph(Graph.from_edges(rg.graph.vertex_count, [*rg.graph.edges, extra]), rg.a_set, rg.b1, rg.b2)
        assert is_feasible(bigger)
        pair.validate(bigger)

    @given(rooted_graphs(max_m=3, max_n=6), st.data())
    def test_root_symmetry(self, rg, data):
        value = is_feasible(rg)
        perm = data.draw(st.permutations(rg.a_set))
        assert is_feasible(RootedGraph(rg.graph, tuple(perm), rg.b2, rg.b1)) == value

    @given(rooted_graphs(max_m=2, max_n=7))
    def test_witness_is_sound(self, rg):
        pair = find_linkage_pair(rg)
        if pair is not None:
            pair.validate(rg)


class TestTwoLinkage:
    def test_k4_always(self):
        g = Graph.complete(4)
        assert two_linkage(g, 0, 1, 2, 3) is not None

    def test_interleaved_cycle_has_none(self):
        # On the 4-cycle, terminals in interleaved order cannot be linked.
        g = Graph.cycle(4)
        assert two_linkage(g, 0, 2, 1, 3) is None

    def test_two_disjoint_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        p1, p2 = two_linkage(g, 0, 1, 2, 3)
        assert p1.vertices == (0, 1)
        assert p2.vertices == (2, 3)

    def test_one_clock_covers_both_searches(self):
        # One dequeue finds the edge 2-3, and one more the edge 0-1 inside the a-part.
        clock = BudgetClock(EXHAUSTIVE)
        p1, p2 = two_linkage(Graph.complete(6), 0, 1, 2, 3, clock)
        assert (p1.vertices, p2.vertices) == ((0, 1), (2, 3))
        assert clock.ticks == 2
        with pytest.raises(SearchBudgetExceeded):
            two_linkage(Graph.complete(6), 0, 1, 2, 3, SearchBudget(max_nodes_expanded=1))

    def test_terminals_must_be_distinct(self):
        with pytest.raises(InvalidInputError):
            two_linkage(Graph.complete(4), 0, 0, 1, 2)

    def test_paths_are_disjoint_and_valid(self):
        g = Graph.cycle(6)
        result = two_linkage(g, 0, 2, 3, 5)
        assert result is not None
        p1, p2 = result
        p1.validate_in(g)
        p2.validate_in(g)
        assert not p1.vertex_set & p2.vertex_set

    @given(graphs(max_n=6), st.data())
    @settings(max_examples=200)
    def test_matches_brute_force(self, g, data):
        if g.vertex_count < 4:
            return
        s1, t1, s2, t2 = data.draw(
            st.permutations(range(g.vertex_count)).map(lambda p: p[:4])
        )
        got = two_linkage(g, s1, t1, s2, t2)
        assert (got is not None) == brute_two_linkage_exists(g, s1, t1, s2, t2)

    def test_exhaustive_sweep_small_graphs(self):
        # Existence agrees with brute force on every graph with at most 6
        # vertices, over all terminal placements up to pair symmetry.
        from linklab.harness import small_graphs

        for g in small_graphs(6):
            n = g.vertex_count
            if n < 4:
                continue
            for s1, t1 in itertools.combinations(range(n), 2):
                for s2, t2 in itertools.combinations(
                    [v for v in range(n) if v not in (s1, t1)], 2
                ):
                    if (s1, t1) > (s2, t2):
                        continue
                    got = two_linkage(g, s1, t1, s2, t2)
                    assert (got is not None) == brute_two_linkage_exists(g, s1, t1, s2, t2)
                    if got is not None:
                        p1, p2 = got
                        p1.validate_in(g)
                        p2.validate_in(g)
                        assert not p1.vertex_set & p2.vertex_set

    @given(graphs(max_n=6), st.data())
    def test_agrees_with_two_rooted_feasibility(self, g, data):
        # A connected part holding {a1, a2} plus a disjoint b1-b2 path is the
        # same thing as disjoint a1-a2 and b1-b2 paths.
        if g.vertex_count < 4:
            return
        a1, a2, b1, b2 = data.draw(
            st.permutations(range(g.vertex_count)).map(lambda p: p[:4])
        )
        rg = RootedGraph(g, (a1, a2), b1, b2)
        assert is_feasible(rg) == (two_linkage(g, a1, a2, b1, b2) is not None)


class TestCriticalFeasibility:
    def test_forced_interior_vertex(self):
        rg = RootedGraph(Graph.path_graph(3), (), 0, 2)
        assert is_critically_feasible(rg, {1})

    def test_cycle_detour_defeats(self):
        rg = RootedGraph(Graph.cycle(4), (), 0, 2)
        assert not is_critically_feasible(rg, {1})

    def test_empty_u_is_feasibility(self):
        feasible = RootedGraph(Graph.complete(3), (0,), 1, 2)
        infeasible = RootedGraph(Graph.path_graph(3), (1,), 0, 2)
        assert is_critically_feasible(feasible, frozenset())
        assert not is_critically_feasible(infeasible, frozenset())

    def test_u_must_avoid_roots(self):
        rg = RootedGraph(Graph.complete(4), (0,), 1, 2)
        with pytest.raises(InvalidInputError):
            is_critically_feasible(rg, {0})

    def test_vertex_off_the_path_can_be_critical_at_two_roots(self):
        # The path 0-1-2 avoids 5, but 5 alone joins the roots 3 and 4, so
        # at m = 2 a u off the first path found still needs its own search.
        rg = RootedGraph(Graph.from_edges(6, [(0, 1), (1, 2), (3, 5), (4, 5)]), (3, 4), 0, 2)
        assert find_linkage_pair(rg).b_path.vertices == (0, 1, 2)
        assert is_critically_feasible(rg, {5})
        assert naive_critical_by_deletion(rg, frozenset({5}))

    @given(rooted_graphs(max_m=1, max_n=7), st.data())
    @settings(max_examples=250)
    def test_matches_deletion_oracle(self, rg, data):
        free = sorted(set(range(rg.graph.vertex_count)) - rg.roots)
        u_set = frozenset(data.draw(st.sets(st.sampled_from(free), max_size=2))) if free else frozenset()
        got = is_critically_feasible(rg, u_set)
        assert got == naive_critical_by_deletion(rg, u_set)
        # For m <= 1 the deletion form and the literal every-witness-path
        # reading coincide.
        assert got == naive_is_critically_feasible(rg, u_set)


class TestClosedFormsAtMostOneRoot:
    """For m <= 1 the kernel's first path, the BFS shortest one, is always the
    witness, so feasibility and critical feasibility are reachability
    questions; these tests hold them to a reachability oracle and pin their
    ticks."""

    def test_match_a_reachability_oracle_exhaustively(self):
        mismatches = []
        for g in small_graphs(7):
            cache = {}

            def joined(rg, removed):
                # Whether b1 and b2 share a component of G - a_set - removed.
                key = (rg.a_set, removed)
                if key not in cache:
                    cache[key] = _components_of(g, set(rg.a_set) | removed)
                return any({rg.b1, rg.b2} <= c for c in cache[key])

            for m in (0, 1):
                for rg in rooted_instances(g, m):
                    feasible = joined(rg, frozenset())
                    pair = find_linkage_pair(rg)
                    if (pair is not None) != feasible:
                        mismatches.append(("feasible", rg))
                        continue
                    if pair is not None:
                        pair.validate(rg)
                        path = pair.b_path.vertices
                        assert not any(g.has_edge(u, v) for i, u in enumerate(path) for v in path[i + 2:])
                        expected = next(
                            (c for c in _components_of(g, set(path)) if rg.a_set[0] in c), set()
                        ) if m else set()
                        assert pair.a_part == expected
                    assert is_critically_feasible(rg, frozenset()) == feasible
                    for u in sorted(set(range(g.vertex_count)) - rg.roots):
                        cut = feasible and not joined(rg, frozenset({u}))
                        if is_critically_feasible(rg, {u}) != cut:
                            mismatches.append(("critical", rg, u))
        assert not mismatches, mismatches[:5]

    def test_feasibility_ticks_once_per_dequeued_vertex(self):
        # Between the ends of P_10 the BFS dequeues 0..8 and finds 9 beside 8.
        rg = RootedGraph(Graph.path_graph(10), (), 0, 9)
        clock = BudgetClock(EXHAUSTIVE)
        assert find_linkage_pair(rg, clock).b_path.vertices == tuple(range(10))
        assert clock.ticks == 9
        with pytest.raises(SearchBudgetExceeded):
            find_linkage_pair(rg, SearchBudget(max_nodes_expanded=8))
        # One root hanging off the path changes nothing on the path.
        rooted = RootedGraph(Graph.from_edges(11, [(v, v + 1) for v in range(9)] + [(4, 10)]), (10,), 0, 9)
        clock = BudgetClock(EXHAUSTIVE)
        assert find_linkage_pair(rooted, clock).a_part == {10}
        assert clock.ticks == 9

    def test_critical_ticks_once_per_dequeued_vertex(self):
        # Nine dequeues to reach 9, then four (0..3) to find 9 cut off by 4.
        rg = RootedGraph(Graph.path_graph(10), (), 0, 9)
        assert is_critically_feasible(rg, {4}, SearchBudget(max_nodes_expanded=13))
        with pytest.raises(SearchBudgetExceeded):
            is_critically_feasible(rg, {4}, SearchBudget(max_nodes_expanded=12))

    def test_vertex_off_the_shortest_path_costs_no_search(self):
        # Two dequeues find 0-1-2 on the 4-cycle; 3 lies off it.
        rg = RootedGraph(Graph.cycle(4), (), 0, 2)
        assert not is_critically_feasible(rg, {3}, SearchBudget(max_nodes_expanded=2))



class TestBudgetClock:
    @staticmethod
    def _charge(count: int, one_call: bool, remaining: int = 2**62, start: int = 0,
                deadline: float | None = None) -> tuple[int, int] | str:
        """Clock state after ``count`` ticks, charged by one ``spend`` or by single
        ``tick`` calls, or the message the clock raised with."""
        clock = BudgetClock(EXHAUSTIVE)
        clock.remaining, clock.ticks = remaining, start
        if deadline is not None:
            clock.deadline = deadline
        try:
            if one_call:
                clock.spend(count)
            else:
                for _ in range(count):
                    clock.tick()
        except SearchBudgetExceeded as exc:
            return str(exc)
        return clock.ticks, clock.remaining

    def test_spend_matches_single_ticks_on_a_node_budget(self):
        for remaining, count in itertools.product(range(6), range(7)):
            spent = self._charge(count, True, remaining=remaining)
            assert spent == self._charge(count, False, remaining=remaining)
            assert (spent == "node budget exhausted") == (count > remaining)

    def test_spend_reads_the_deadline_when_it_crosses_a_multiple_of_256(self):
        # With the deadline past, a charge raises exactly when it crosses a
        # multiple of 256 ticks, where single ticks read the clock.
        raised = set()
        for start, count in itertools.product((0, 200, 250, 255, 256, 511), (0, 1, 5, 6, 56, 256, 300)):
            spent = self._charge(count, True, start=start, deadline=-1.0)
            assert spent == self._charge(count, False, start=start, deadline=-1.0)
            crosses = (start + count) >> 8 != start >> 8
            assert (spent == "time budget exhausted") == crosses
            raised.add(crosses)
        assert raised == {True, False}

    @pytest.mark.parametrize("rg, u_set", [
        (trigrid(3, 3, 4), {5}),  # infeasible
        # Feasible, and every b1-b2 path passes 4, so the deletion search runs.
        (RootedGraph(Graph.from_edges(5, [(0, 1), (0, 4), (2, 4), (3, 4)]), (0, 1), 2, 3), {4}),
    ])
    def test_one_running_clock_covers_the_public_searches(self, rg, u_set):
        # Each search accepts a running clock and spends on it what a run of
        # its own would tick.
        runs = [
            lambda budget: find_linkage_pair(rg, budget),
            lambda budget: is_critically_feasible(rg, u_set, budget),
            lambda budget: find_seymour_certificate(rg, budget),
            lambda budget: theorem_check(rg, budget),
        ]
        alone = []
        for run in runs:
            clock = BudgetClock(EXHAUSTIVE)
            alone.append((run(clock), clock.ticks))
        shared = BudgetClock(EXHAUSTIVE)
        assert [run(shared) for run in runs] == [answer for answer, _ in alone]
        assert shared.ticks == sum(ticks for _, ticks in alone)
        assert all(ticks for _, ticks in alone)
