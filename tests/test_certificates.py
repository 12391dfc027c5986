"""Certificate arithmetic, base-case constructions, search, tight family."""

import itertools
import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linklab.budget import EXHAUSTIVE, BudgetClock, SearchBudget
from linklab.certificates import (
    Verdict,
    base_case_collection,
    critical_base_collection,
    gmk_audit,
    gmk_graph,
    search_collection,
    theorem_check,
    verify_critical_collection,
    verify_linkage_collection,
)
from linklab.errors import InvalidCollectionError, InvalidInputError, SearchBudgetExceeded
from linklab.feasibility import find_linkage_pair, is_feasible
from linklab.graphs import (Collection, Graph, RootedGraph, _candidate_members, augment_rooted, bits_of,
                            iter_collections, mask_of, validate_collection)
from linklab.planarity import find_seymour_certificate
from oracles import (
    brute_candidate_members,
    brute_certificate,
    naive_is_feasible,
    neighbourhood,
    separator_candidate_members,
)
from strategies import collections_in, rooted_graphs, trigrid


class TestVerifyLinkage:
    def test_short_path_report(self):
        rg = RootedGraph(Graph.path_graph(3), (1,), 0, 2)
        report = verify_linkage_collection(rg, Collection())
        assert report.lhs_edges_doubled == 4
        assert report.rhs_bound_doubled == 6
        assert report.holds
        assert report.neighborhood_cap == 2

    def test_tight_family_equality(self):
        for m in range(1, 5):
            for k in range(5):
                report = verify_linkage_collection(gmk_graph(m, k), Collection())
                assert report.holds
                assert report.lhs_edges_doubled == report.rhs_bound_doubled

    def test_complete_graph_on_roots_only(self):
        # K_{m+2} on just the roots: the augmented contraction is K_{m+2}
        # itself and the bound holds with equality.
        for m in range(0, 4):
            g = Graph.complete(m + 2)
            rg = RootedGraph(g, tuple(range(m)), m, m + 1)
            report = verify_linkage_collection(rg, Collection())
            assert report.lhs_edges_doubled == 2 * math.comb(m + 2, 2)
            assert report.holds
            assert report.lhs_edges_doubled == report.rhs_bound_doubled

    def test_cap_violation_fails(self):
        # One member with 3 neighbors against cap m + 1 = 2.
        g = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (0, 1)])
        rg = RootedGraph(g, (3,), 0, 1)
        report = verify_linkage_collection(rg, Collection([{4}]))
        assert len(neighbourhood(g, {4})) == 3 == report.neighborhood_cap + 1
        assert not report.holds

    def test_invalid_collection_raises(self):
        rg = RootedGraph(Graph.path_graph(4), (1,), 0, 3)
        with pytest.raises(InvalidCollectionError):
            verify_linkage_collection(rg, Collection([{1}]))
        with pytest.raises(InvalidCollectionError):
            verify_linkage_collection(rg, Collection([{2}, {2, 3}]))

    @given(rooted_graphs(max_m=2, max_n=7))
    def test_pure_arithmetic_recompute(self, rg):
        a = verify_linkage_collection(rg, Collection())
        b = verify_linkage_collection(rg, Collection())
        assert a == b


class TestVerifyCritical:
    def test_bare_path_equality(self):
        for k in range(4):
            g = Graph.path_graph(k + 2)
            rg = RootedGraph(g, (), 0, k + 1)
            u_set = frozenset(range(1, k + 1))
            report = verify_critical_collection(rg, u_set, Collection())
            assert report.holds
            assert report.lhs_edges_doubled == 2 * (k + 1)
            assert report.lhs_edges_doubled == report.rhs_bound_doubled

    @given(rooted_graphs(max_m=3, max_n=7))
    def test_single_member_of_all_non_roots_holds(self, rg):
        rest = frozenset(range(rg.graph.vertex_count)) - rg.roots
        if not rest:
            return
        report = verify_critical_collection(rg, frozenset(), Collection([rest]))
        assert report.holds
        assert report.neighborhood_cap == rg.m + 2

    def test_cap_check(self):
        # A member with m + 3 = 3 neighbors must fail the m = 0 cap of 2.
        g = Graph.from_edges(6, [(0, 5), (1, 5), (2, 5), (0, 1), (1, 2), (3, 4)])
        rg = RootedGraph(g, (), 3, 4)
        report = verify_critical_collection(rg, frozenset(), Collection([{5}]))
        assert not report.holds

    def test_u_must_avoid_roots(self):
        rg = RootedGraph(Graph.complete(4), (), 0, 1)
        with pytest.raises(InvalidInputError):
            verify_critical_collection(rg, {0}, Collection())


@given(rooted_graphs(max_m=3, max_n=7), st.data())
def test_verify_matches_brute_force_arithmetic(rg, data):
    x = data.draw(collections_in(rg.graph, rg.roots))
    free = sorted(set(range(rg.graph.vertex_count)) - rg.roots - frozenset().union(*x))
    u_set = frozenset(data.draw(st.lists(st.sampled_from(free), unique=True)) if free else ())
    members = list(x)
    linkage = verify_linkage_collection(rg, x)
    assert (linkage.lhs_edges_doubled, linkage.rhs_bound_doubled, linkage.holds) == (
        brute_certificate(rg, members, "linkage")
    )
    critical = verify_critical_collection(rg, u_set, x)
    assert (critical.lhs_edges_doubled, critical.rhs_bound_doubled, critical.holds) == (
        brute_certificate(rg, members, "critical", len(u_set))
    )


def test_verify_matches_brute_force_exhaustively():
    # Every graph with n <= 6, every root placement at m = 0, 1, 2 and every
    # collection the certificate search can try at cap m + 2: the searches
    # rely on each family being valid as yielded, and both checks agree with
    # the from-the-definition count.
    from linklab.harness import rooted_instances, small_graphs

    checked = 0
    for m in (0, 1, 2):
        for g in small_graphs(6, m + 2):
            for rg in rooted_instances(g, m):
                for family in iter_collections(g, rg.roots, m + 2, BudgetClock(EXHAUSTIVE)):
                    members = [frozenset(bits_of(member)) for member, _ in family]
                    x = Collection(members)
                    assert validate_collection(g, x, rg.roots) == list(family)
                    linkage = verify_linkage_collection(rg, x)
                    assert (linkage.lhs_edges_doubled, linkage.rhs_bound_doubled, linkage.holds) == (
                        brute_certificate(rg, members, "linkage")
                    )
                    critical = verify_critical_collection(rg, (), x)
                    assert (critical.lhs_edges_doubled, critical.rhs_bound_doubled, critical.holds) == (
                        brute_certificate(rg, members, "critical")
                    )
                    checked += 1
    assert checked == 143_677


class TestBaseCaseCollection:
    def test_two_disjoint_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        rg = RootedGraph(g, (), 0, 2)
        coll = base_case_collection(rg)
        assert coll is not None
        assert set(coll.members) == {frozenset({1}), frozenset({3})}
        assert augment_rooted(rg, coll).edge_count == 0
        assert verify_linkage_collection(rg, coll).holds

    def test_path_normalizes_to_empty(self):
        rg = RootedGraph(Graph.path_graph(3), (1,), 0, 2)
        coll = base_case_collection(rg)
        assert coll is not None
        assert len(coll) == 0
        assert verify_linkage_collection(rg, coll).holds

    def test_star_produces_leftover_leaf(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        rg = RootedGraph(g, (0,), 1, 2)
        coll = base_case_collection(rg)
        assert coll == Collection([{3}])
        assert verify_linkage_collection(rg, coll).holds

    def test_not_applicable_cases(self):
        assert base_case_collection(RootedGraph(Graph.complete(3), (0,), 1, 2)) is None
        assert base_case_collection(gmk_graph(2, 1)) is None

    @given(rooted_graphs(max_m=1, max_n=7))
    @settings(max_examples=250)
    def test_always_verifies_when_applicable(self, rg):
        coll = base_case_collection(rg)
        if coll is None:
            assert rg.m >= 2 or is_feasible(rg)
        else:
            assert verify_linkage_collection(rg, coll).holds


class TestCriticalBaseCollection:
    def test_bare_interior_vertex(self):
        rg = RootedGraph(Graph.path_graph(3), (), 0, 2)
        coll = critical_base_collection(rg, {1})
        assert len(coll) == 0
        report = verify_critical_collection(rg, {1}, coll)
        assert report.holds
        assert report.lhs_edges_doubled == 2 * 2

    def test_pendant_member(self):
        # b1=0, u1=1, u2=2, b2=3 path plus a pendant 4 on u1.
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        rg = RootedGraph(g, (), 0, 3)
        coll = critical_base_collection(rg, {1, 2})
        assert coll == Collection([{4}])
        assert neighbourhood(g, {4}) == {1}
        report = verify_critical_collection(rg, {1, 2}, coll)
        assert report.holds
        assert report.lhs_edges_doubled == 2 * 3

    def test_single_attachment_member(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        rg = RootedGraph(g, (), 0, 2)
        coll = critical_base_collection(rg, {1})
        assert coll == Collection([{3}])

    def test_precondition_enforced(self):
        rg = RootedGraph(Graph.cycle(4), (), 0, 2)
        with pytest.raises(InvalidInputError):
            critical_base_collection(rg, {1})
        with pytest.raises(InvalidInputError):
            critical_base_collection(RootedGraph(Graph.complete(4), (0,), 1, 2), set())


class TestSearchCollection:
    def test_empty_certifies_short_path(self):
        rg = RootedGraph(Graph.path_graph(3), (1,), 0, 2)
        assert search_collection(rg, "linkage").collection == Collection()

    def test_tight_family_empty_collection(self):
        for m in (1, 2, 3):
            assert search_collection(gmk_graph(m, 2), "linkage").collection == Collection()

    def test_tight_family_has_no_candidate_members(self):
        # Any nonempty member inside the spine sees too many neighbors, so
        # the only collection satisfying the cap is empty.
        for m in (1, 2, 3):
            for k in range(4):
                rg = gmk_graph(m, k)
                clock = BudgetClock(EXHAUSTIVE)
                assert _candidate_members(rg.graph, rg.roots, rg.m + 1, clock) == []

    def test_candidate_members_match_brute_force(self):
        # Every graph with n <= 7, every forbidden set of 0-4 vertices, and
        # every cap from 0 to max(|forbidden|, 2): the branching enumeration
        # lists exactly the sets the every-subset oracle accepts, in order.
        # Caps below |forbidden| - 1 are what critical searches run (the
        # roots and U forbidden, cap m + 2).
        from linklab.harness import small_graphs

        for g in small_graphs(7):
            for size in range(5):
                for forbidden in itertools.combinations(range(g.vertex_count), size):
                    top = max(size, 2)
                    brute = [(member, neighbourhood(g, member))
                             for member in brute_candidate_members(g, set(forbidden), top)]
                    for cap in range(top + 1):
                        clock = BudgetClock(EXHAUSTIVE)
                        got = [(frozenset(bits_of(member)), set(bits_of(nbhd)))
                               for member, nbhd in _candidate_members(g, frozenset(forbidden), cap, clock)]
                        assert got == [(member, nbhd) for member, nbhd in brute if len(nbhd) <= cap]

    def test_candidate_members_match_separator_oracle_on_larger_graphs(self):
        # Seeded G(n, p) graphs with n 8-16, beyond the every-subset
        # oracle's reach: the same list as deleting every separator of at
        # most cap allowed vertices.
        rng = random.Random(20121)
        for _ in range(200):
            n = rng.randint(8, 16)
            p = rng.uniform(0.1, 0.6)
            g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            forbidden = set(rng.sample(range(n), rng.randint(0, 4)))
            cap = rng.randint(0, 4)
            got = _candidate_members(g, frozenset(forbidden), cap, BudgetClock(EXHAUSTIVE))
            expected = separator_candidate_members(g, forbidden, cap)
            assert [frozenset(bits_of(member)) for member, _ in got] == expected

    def test_capped_members_grow_locally_with_the_same_ticks(self):
        # On trigrid(14, 14, 6) with cap 3 the only member is the clump, whose
        # neighborhood is the triangle it hangs on; the enumeration takes
        # 1,340 branch nodes, however the |X| = cap step finds its members.
        rg = trigrid(14, 14, 6)
        clock = BudgetClock(EXHAUSTIVE)
        found = _candidate_members(rg.graph, rg.roots, rg.m + 1, clock)
        assert found == [(mask_of(range(196, 202)), mask_of({15, 16, 30}))]
        assert clock.ticks == 1_340

    def test_found_collection_always_verifies(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        rg = RootedGraph(g, (4,), 0, 2)
        report = search_collection(rg, "linkage")
        assert report is not None and report.holds
        assert report == verify_linkage_collection(rg, report.collection)

    def test_critical_kind_search(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
        rg = RootedGraph(g, (), 0, 3)
        report = search_collection(rg, "critical", {1, 2})
        assert report is not None and report.holds
        assert report == verify_critical_collection(rg, {1, 2}, report.collection)

    def test_linkage_kind_rejects_u(self):
        with pytest.raises(InvalidInputError):
            search_collection(RootedGraph(Graph.complete(4), (0,), 1, 2), "linkage", {3})

    @pytest.mark.parametrize("u_set", [{1}, {0, 3}, {4}, {3, -1}], ids=["b1", "a1", "past-n", "negative"])
    def test_critical_kind_rejects_bad_u(self, u_set):
        # The pinned set is checked once, before any family is tried.
        with pytest.raises(InvalidInputError):
            search_collection(RootedGraph(Graph.complete(4), (0,), 1, 2), "critical", u_set)

    def test_connected_restriction_is_complete(self):
        # Brute-force over families of arbitrary (possibly disconnected)
        # member sets: whenever any such collection certifies, the
        # connected-members search must find one too.
        from linklab.harness import rooted_instances, small_graphs
        from oracles import brute_collection_valid

        for g in small_graphs(6):
            if g.vertex_count < 3:
                continue
            for rg in rooted_instances(g, 1):
                free = sorted(set(range(g.vertex_count)) - rg.roots)
                subsets = [
                    frozenset(c)
                    for size in range(1, len(free) + 1)
                    for c in itertools.combinations(free, size)
                ]
                any_passes = False
                for fam_size in range(len(subsets) + 1):
                    for fam in itertools.combinations(subsets, fam_size):
                        if not brute_collection_valid(g, list(fam), set(rg.roots) | {rg.b1, rg.b2}):
                            continue
                        if verify_linkage_collection(rg, Collection(fam)).holds:
                            any_passes = True
                            break
                    if any_passes:
                        break
                found = search_collection(rg, "linkage")
                assert (found is not None) == any_passes

    def test_families_in_lexicographic_order_of_candidates(self):
        # Depth-first over increasing candidate indices is lexicographic
        # order: every pairwise compatible index set, each exactly once.
        from linklab.harness import rooted_instances, small_graphs

        for g in small_graphs(6, 4):
            for rg in rooted_instances(g, 1):
                pairs = _candidate_members(g, rg.roots, 3, BudgetClock(EXHAUSTIVE))
                members = [frozenset(bits_of(c)) for c, _ in pairs]
                index = {pair: i for i, pair in enumerate(pairs)}
                families = [
                    tuple(index[pair] for pair in family)
                    for family in iter_collections(g, rg.roots, 3, BudgetClock(EXHAUSTIVE))
                ]

                def compatible(i, j):
                    return not members[i] & (members[j] | neighbourhood(g, members[j]))

                expected = [
                    fam
                    for size in range(len(members) + 1)
                    for fam in itertools.combinations(range(len(members)), size)
                    if all(compatible(i, j) for i, j in itertools.combinations(fam, 2))
                ]
                assert families == sorted(expected)

    def test_deep_families_do_not_recurse(self):
        # 1,100 isolated vertices: 1,100 pairwise compatible singletons, so
        # the first families grow one member at a time to the whole set.
        families = list(islice(iter_collections(Graph(1100), frozenset(), 0, BudgetClock(EXHAUSTIVE)), 1102))
        assert [len(coll) for coll in families[:3]] == [0, 1, 2]
        assert [len(coll) for coll in families[-2:]] == [1100, 1099]


@pytest.mark.parametrize(
    "search",
    [lambda rg, b: search_collection(rg, "linkage", budget=b), find_seymour_certificate],
    ids=["search_collection", "find_seymour_certificate"],
)
@pytest.mark.parametrize(
    "budget",
    [SearchBudget(max_nodes_expanded=1000), SearchBudget(time_limit_ms=10)],
    ids=["nodes", "time"],
)
def test_budget_bounds_candidate_enumeration(search, budget):
    # The 16-clump keeps the empty collection from certifying, and the
    # candidate enumeration precedes the first nonempty family: on these
    # 914 non-root vertices it takes 6,742 branch nodes and 1.9 s (2-vCPU
    # VM), far more than 1,000 nodes or 10 ms of work.
    rg = trigrid(30, 30, 16)
    with pytest.raises(SearchBudgetExceeded):
        search(rg, budget)


class TestTheoremCheck:
    def test_k5_feasible(self):
        verdict = theorem_check(RootedGraph(Graph.complete(5), (0,), 1, 2))
        assert verdict.outcome == "feasible"
        verdict.pair.validate(RootedGraph(Graph.complete(5), (0,), 1, 2))

    def test_tight_member_certified_with_equality(self):
        verdict = theorem_check(gmk_graph(2, 2))
        assert verdict.outcome == "certified"
        assert verdict.report.collection == Collection()
        assert verdict.report.lhs_edges_doubled == verdict.report.rhs_bound_doubled

    def test_all_four_vertex_graphs_m1(self):
        for bits in range(2 ** 6):
            pairs = list(itertools.combinations(range(4), 2))
            g = Graph(4, frozenset(p for i, p in enumerate(pairs) if bits >> i & 1))
            for a in range(4):
                for b1, b2 in itertools.combinations(sorted(set(range(4)) - {a}), 2):
                    verdict = theorem_check(RootedGraph(g, (a,), b1, b2))
                    assert verdict.outcome in ("feasible", "certified")

    def test_verdict_payload_discipline(self):
        with pytest.raises(InvalidInputError):
            Verdict("feasible")
        with pytest.raises(InvalidInputError):
            Verdict("inconclusive", report=verify_linkage_collection(
                RootedGraph(Graph.path_graph(3), (1,), 0, 2), Collection()))

    def test_inconclusive_carries_budget(self):
        from linklab.budget import SearchBudget

        budget = SearchBudget(max_nodes_expanded=2)
        verdict = theorem_check(trigrid(4, 5, 6), budget)
        assert verdict.outcome == "inconclusive"
        assert verdict.budget == budget
        assert verdict.to_dict()["budget"]["max_nodes_expanded"] == 2

    def test_one_budget_covers_both_searches(self):
        # The linkage DFS and the certificate search fit one budget only
        # together: one node short of their sum leaves the verdict open.
        rg = trigrid(4, 5, 6)
        dfs, search = BudgetClock(EXHAUSTIVE), BudgetClock(EXHAUSTIVE)
        assert find_linkage_pair(rg, dfs) is None
        assert search_collection(rg, "linkage", budget=search).holds
        # 22 shortest-path dequeues, then 172 DFS nodes; 80 branch nodes of
        # the candidate enumeration, one compatibility row and two families.
        assert (dfs.ticks, search.ticks) == (194, 83)
        assert theorem_check(rg, SearchBudget(max_nodes_expanded=276)).outcome == "inconclusive"
        assert theorem_check(rg, SearchBudget(max_nodes_expanded=277)).outcome == "certified"

    def test_running_clock_that_runs_out_reports_its_budget(self):
        # An earlier search leaves the shared clock 106 of its 300 nodes, short
        # of the 277 the verdict needs; the verdict names the clock's budget.
        rg = trigrid(4, 5, 6)
        budget = SearchBudget(max_nodes_expanded=300)
        clock = BudgetClock(budget)
        assert find_linkage_pair(rg, clock) is None
        assert clock.ticks == 194
        assert theorem_check(rg, clock) == Verdict("inconclusive", budget=budget)

    def test_verdict_serialization(self):
        verdict = theorem_check(gmk_graph(2, 1))
        data = verdict.to_dict()
        assert data["outcome"] == "certified"
        assert data["report"]["collection"] == []
        assert data["report"]["kind"] == "linkage"


class TestGmkGraph:
    def test_smallest_member(self):
        rg = gmk_graph(0, 0)
        assert rg.graph.vertex_count == 2
        assert rg.graph.sorted_edges() == [(0, 1)]

    def test_small_member_shape(self):
        rg = gmk_graph(1, 1)
        assert rg.graph.vertex_count == 4
        assert rg.graph.edge_count == 5

    def test_edge_count_formula(self):
        for m in range(6):
            for k in range(6):
                g = gmk_graph(m, k).graph
                expected = (k + 1) + m * (k + 2) + math.comb(max(m - 1, 0), 2)
                assert g.edge_count == expected

    def test_spine_is_induced(self):
        rg = gmk_graph(3, 2)
        spine = [rg.b1, 5, 6, rg.b2]
        for u, v in itertools.combinations(spine, 2):
            adjacent = abs(spine.index(u) - spine.index(v)) == 1
            assert rg.graph.has_edge(u, v) == adjacent


class TestGmkAudit:
    def test_arithmetic_small(self):
        report = gmk_audit(1, 0)
        assert report.edges_doubled == 6 == report.expected_edges_doubled
        assert report.certificate.lhs_edges_doubled == report.certificate.rhs_bound_doubled

    def test_m2_k1_values(self):
        report = gmk_audit(2, 1)
        assert report.edges_doubled == 18  # e = 9 on 5 vertices
        assert report.ok

    def test_m4_k3_equality(self):
        report = gmk_audit(4, 3)
        assert report.ok

    def test_m1_members_are_feasible(self):
        # The m = 1 members admit a witness (the spine avoids the only root),
        # and the independent oracle agrees, so the audit honestly reports
        # the feasibility mismatch while the arithmetic still checks out.
        for k in range(4):
            assert naive_is_feasible(gmk_graph(1, k))
            report = gmk_audit(1, k)
            assert not report.infeasible
            assert report.edges_doubled == report.expected_edges_doubled
            assert report.certificate.lhs_edges_doubled == report.certificate.rhs_bound_doubled
            assert any("feasible" in msg for msg in report.mismatches)

    def test_requires_positive_m(self):
        with pytest.raises(InvalidInputError):
            gmk_audit(0, 0)
