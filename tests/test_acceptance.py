"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` or ``-rA``) and asserts the criterion exactly as stated.

Criterion 1 is asserted as written even though its m = 1 rows cannot pass:
the m = 1 tight-family members are feasible (the spine path avoids the only
root, which then sits alone in one component), as confirmed independently by
the all-paths oracle.  The audit arithmetic (exact bound equality) holds for
every row; the infeasibility claim fails exactly at m = 1.  See the
decisions ledger for the full analysis.
"""

import itertools
import random

import networkx as nx
import pytest

from linklab.certificates import (
    base_case_collection,
    critical_base_collection,
    gmk_audit,
    verify_critical_collection,
    verify_linkage_collection,
)
from linklab.connectivity import vertex_connectivity
from linklab.feasibility import is_critically_feasible, is_feasible
from linklab.graphio import serialize_graph6
from linklab.graphs import Graph, RootedGraph
from linklab.harness import (
    CampaignConfig,
    campaign_connected_feasible,
    campaign_exhaustive_small,
    campaign_removable_path,
    rooted_instances,
    small_graphs,
)
from linklab.planarity import is_planar
from oracles import (
    _components_of,
    all_simple_paths,
    brute_min_separator,
    rotation_system_is_planar,
)


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


def sample_config(m: int) -> CampaignConfig:
    n_ranges = {1: (6, 9), 2: (8, 10)}
    n_min, n_max = n_ranges[m]
    return CampaignConfig(
        seed=20260809 + m, trials=200, n_min=n_min, n_max=n_max, m=m, model="kconn"
    )


@pytest.fixture(scope="module")
def exhaustive_m1():
    return campaign_exhaustive_small(
        CampaignConfig(seed=0, trials=1, n_min=3, n_max=6, m=1, model="gnp")
    )


@pytest.fixture(scope="module")
def exhaustive_m2_run():
    """The m = 2 sweep's report and its number of networkx planarity calls."""
    calls = []
    check = nx.check_planarity
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nx, "check_planarity", lambda *a, **k: calls.append(a) or check(*a, **k))
        report = campaign_exhaustive_small(
            CampaignConfig(seed=0, trials=1, n_min=4, n_max=6, m=2, model="gnp")
        )
    return report, len(calls)


@pytest.fixture(scope="module")
def exhaustive_m2(exhaustive_m2_run):
    return exhaustive_m2_run[0]


def eight_vertex_sample() -> list[Graph]:
    """Deterministic n = 8 graphs: structured plus seeded random draws."""
    cube = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7),
                                (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)])
    k44 = Graph.from_edges(8, [(a, b) for a in range(4) for b in range(4, 8)])
    glued = Graph.from_edges(8, [(u, v) for u in range(5) for v in range(u + 1, 5)]
                             + [(u, v) for u in range(4, 8) for v in range(u + 1, 8)])
    out = [Graph.complete(8), Graph.cycle(8), Graph.path_graph(8), Graph(8), cube, k44, glued]
    pairs = list(itertools.combinations(range(8), 2))
    for rep in range(60):
        rng = random.Random(f"acceptance-n8:{rep}")
        p = (0.15, 0.3, 0.45, 0.6, 0.8)[rep % 5]
        out.append(Graph.from_edges(8, [e for e in pairs if rng.random() < p]))
    return out


def test_criterion_1_tight_family_audit():
    bad = []
    arithmetic_bad = []
    for m in range(1, 6):
        for k in range(0, 7):
            report = gmk_audit(m, k)
            expected = 2 * (m + 1) * (m + k + 2) - m * m - 3 * m - 2
            if not (
                report.edges_doubled == expected
                and report.certificate.lhs_edges_doubled == report.certificate.rhs_bound_doubled
            ):
                arithmetic_bad.append((m, k))
            if not report.ok:
                bad.append((m, k, tuple(report.mismatches)))
    ok = not bad and not arithmetic_bad
    announce(1, ok, f"tight family audit over m=1..5, k=0..6 ({len(bad)} failing rows)")
    assert not arithmetic_bad, f"exact-equality arithmetic failed at {arithmetic_bad}"
    assert not bad, (
        "audit rows failed: "
        + "; ".join(f"m={m} k={k}: {msgs}" for m, k, msgs in bad)
        + " -- the m=1 members are feasible (spine path avoids the only root; "
        "confirmed by the independent all-paths oracle), so the stated "
        "infeasibility sub-claim is unattainable at m=1 while every row's "
        "exact bound equality holds; see the decisions ledger."
    )


def test_criterion_2_exhaustive_small_verdicts(exhaustive_m1, exhaustive_m2):
    problems = [t for r in (exhaustive_m1, exhaustive_m2) for t in r.failures]
    counterexamples = [t for t in problems if str(t.get("detail", "")).startswith("verdict")]
    ok = not problems
    announce(
        2, ok,
        f"n<=6 sweep, m in {{1,2}}: {exhaustive_m1.extras['instances']} + "
        f"{exhaustive_m2.extras['instances']} instances, "
        f"{len(counterexamples)} counterexample verdicts",
    )
    assert not counterexamples, counterexamples[:5]
    assert not problems, problems[:5]


def test_m2_sweep_decides_planarity_without_networkx(exhaustive_m2_run):
    # Every planarity test of the sweep keeps at most 7 vertices after the
    # degree reductions, so the mask-row tests decide all of them.
    report, networkx_calls = exhaustive_m2_run
    assert report.counts == {"feasible": 7588, "certified": 7538, "failures": 0}
    assert networkx_calls == 0


@pytest.mark.parametrize(
    "m, instances, feasible, certified",
    [(3, 228_940, 120_064, 108_876), (4, 111_960, 47_799, 64_161)],
    ids=["m3", "m4"],
)
def test_exhaustive_sweep_n7_beyond_m2(m, instances, feasible, certified):
    # Criterion 2 for larger m: every instance on at most 7 vertices is
    # feasible or certified by the average-degree bound, with pinned counts.
    report = campaign_exhaustive_small(
        CampaignConfig(seed=0, trials=1, n_min=m + 2, n_max=7, m=m, model="gnp")
    )
    assert report.extras["instances"] == instances
    assert report.counts == {"feasible": feasible, "certified": certified, "failures": 0}


@pytest.fixture(scope="module")
def connected_samples_reports():
    return {m: campaign_connected_feasible(sample_config(m)) for m in (1, 2)}


def test_criterion_3_connected_implies_feasible(connected_samples_reports):
    ok = all(
        r.counts == {"feasible": 200, "certified": 0, "failures": 0}
        for r in connected_samples_reports.values()
    )
    announce(3, ok, "200 random (2m+2)-connected instances per m in {1,2} all feasible")
    for m, report in connected_samples_reports.items():
        assert report.counts["failures"] == 0, (m, report.failures[:3])
        assert report.counts["feasible"] == 200


def test_criterion_4_removable_paths_on_samples():
    reports = {m: campaign_removable_path(sample_config(m)) for m in (1, 2)}
    ok = all(r.counts["failures"] == 0 and r.counts["feasible"] == 200 for r in reports.values())
    announce(
        4, ok,
        "removable paths on the same samples; postconditions and strict "
        f"lexicographic growth verified (max iterations: "
        f"{max(r.extras['max_iterations'] for r in reports.values())})",
    )
    for m, report in reports.items():
        assert report.counts["failures"] == 0, (m, report.failures[:3])


def test_criterion_5_critical_feasibility_equivalence():
    mismatches = []
    checked = 0
    for g in small_graphs(7):
        n = g.vertex_count
        if n < 2:
            continue
        for b1, b2 in itertools.combinations(range(n), 2):
            witness_sets = [frozenset(p) for p in all_simple_paths(g, b1, b2)]
            for m in (0, 1):
                a_choices = [()] if m == 0 else [(a,) for a in range(n) if a not in (b1, b2)]
                for a in a_choices:
                    rg = RootedGraph(g, a, b1, b2)
                    # For m <= 1 a path witnesses iff it avoids the a-set.
                    paths = [p for p in witness_sets if not set(a) & p]
                    free = [v for v in range(n) if v not in (b1, b2) and v not in a]
                    u_sets = (
                        [frozenset()]
                        + [frozenset([u]) for u in free]
                        + [frozenset(c) for c in itertools.combinations(free, 2)]
                    )
                    for u_set in u_sets:
                        checked += 1
                        # Naive double enumeration of the deletion form:
                        # feasible, and no witness path survives deleting u.
                        oracle = bool(paths) and all(
                            all(u in p for p in paths) for u in u_set
                        )
                        got = is_critically_feasible(rg, u_set)
                        if got != oracle:
                            mismatches.append(
                                (serialize_graph6(g), a, (b1, b2), sorted(u_set), got, oracle)
                            )
    announce(5, not mismatches, f"critical-feasibility equivalence on {checked} instances (n<=7, m<=1, |U|<=2)")
    assert not mismatches, mismatches[:5]


def test_criterion_6_base_case_constructions():
    # Infeasible instances with m in {0, 1} on up to 7 vertices.
    checked_infeasible = 0
    problems = []
    for g in small_graphs(7):
        for m in (0, 1):
            if g.vertex_count < m + 2:
                continue
            for rg in rooted_instances(g, m):
                coll = base_case_collection(rg)
                if coll is None:
                    continue
                checked_infeasible += 1
                report = verify_linkage_collection(rg, coll)
                if not report.holds:
                    problems.append(("base", serialize_graph6(g), rg.a_set, rg.b1, rg.b2))

    # Critically feasible m = 0 instances on up to 8 vertices.
    checked_critical = 0
    for g in itertools.chain(small_graphs(7), eight_vertex_sample()):
        n = g.vertex_count
        for b1, b2 in itertools.combinations(range(n), 2):
            rg = RootedGraph(g, (), b1, b2)
            if not is_feasible(rg):
                continue
            pinned = [
                u for u in range(n)
                if u not in (b1, b2) and is_critically_feasible(rg, frozenset([u]))
            ]
            for size in range(len(pinned) + 1):
                for u_combo in itertools.combinations(pinned, size):
                    u_set = frozenset(u_combo)
                    checked_critical += 1
                    coll = critical_base_collection(rg, u_set)
                    report = verify_critical_collection(rg, u_set, coll)
                    if not (
                        report.holds
                        and report.neighborhood_cap == 2
                        and report.lhs_edges_doubled == 2 * (len(u_set) + 1)
                        and report.lhs_edges_doubled == report.rhs_bound_doubled
                    ):
                        problems.append(
                            ("critical", serialize_graph6(g), (b1, b2), sorted(u_set))
                        )
    announce(
        6, not problems,
        f"constructive certificates: {checked_infeasible} infeasible m<=1 instances, "
        f"{checked_critical} critically feasible m=0 instances",
    )
    assert not problems, problems[:5]


def test_criterion_7_planar_certificate_equivalence(exhaustive_m2):
    planar_mismatches = [
        t for t in exhaustive_m2.failures if "planar certificate" in str(t.get("detail", ""))
    ]
    ok = not planar_mismatches and exhaustive_m2.counts["failures"] == 0
    announce(
        7, ok,
        f"two-rooted infeasibility matches planar-certificate existence on "
        f"{exhaustive_m2.extras['instances']} instances (n<=6)",
    )
    assert not planar_mismatches, planar_mismatches[:5]
    assert exhaustive_m2.counts["failures"] == 0, exhaustive_m2.failures[:5]


def test_criterion_8_oracle_equivalences():
    # (a) feasibility vs the all-paths oracle, n <= 7, m <= 2.
    feas_mism = 0
    feas_checked = 0
    for g in small_graphs(7):
        n = g.vertex_count
        for b1, b2 in itertools.combinations(range(n), 2):
            labelings = []
            for mask in {frozenset(p) for p in all_simple_paths(g, b1, b2)}:
                label = {}
                for i, comp in enumerate(_components_of(g, set(mask))):
                    for v in comp:
                        label[v] = i
                labelings.append(label)
            others = [v for v in range(n) if v not in (b1, b2)]
            for m in (0, 1, 2):
                for a in itertools.combinations(others, m):
                    feas_checked += 1
                    lib = is_feasible(RootedGraph(g, a, b1, b2))
                    oracle = any(
                        all(v in lab for v in a) and len({lab[v] for v in a}) <= 1
                        for lab in labelings
                    )
                    if lib != oracle:
                        feas_mism += 1

    # (b) connectivity vs brute-force minimum separator, n <= 8.
    conn_mism = 0
    conn_checked = 0
    for g in itertools.chain(small_graphs(7), eight_vertex_sample()):
        conn_checked += 1
        if vertex_connectivity(g) != brute_min_separator(g):
            conn_mism += 1

    # (c) planarity vs exhaustive rotation-system search, n <= 7.
    planar_mism = 0
    planar_checked = 0
    for g in small_graphs(7):
        planar_checked += 1
        if is_planar(g) != rotation_system_is_planar(g):
            planar_mism += 1

    ok = feas_mism == conn_mism == planar_mism == 0
    announce(
        8, ok,
        f"oracle equivalences: feasibility {feas_mism}/{feas_checked}, "
        f"connectivity {conn_mism}/{conn_checked}, planarity {planar_mism}/{planar_checked} mismatches",
    )
    assert feas_mism == 0
    assert conn_mism == 0
    assert planar_mism == 0
