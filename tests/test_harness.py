"""Instance generation determinism, campaign reports, small-graph enumeration."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from linklab.budget import EXHAUSTIVE, BudgetClock, SearchBudget
import linklab.harness
from linklab.connectivity import has_connectivity_at_least, vertex_connectivity
from linklab.errors import SearchBudgetExceeded
from linklab.feasibility import find_linkage_pair
from linklab.graphio import parse_graph6, serialize_graph6
from linklab.graphs import Graph, RootedGraph
from linklab.harness import (
    CampaignConfig,
    GenerationError,
    _verify_removable,
    campaign_connected_feasible,
    campaign_exhaustive_small,
    campaign_removable_path,
    gen_random_rooted,
    rooted_instances,
    small_graphs,
)
from oracles import witness_paths


def config(**overrides) -> CampaignConfig:
    base = dict(seed=7, trials=5, n_min=6, n_max=8, m=1, model="kconn")
    base.update(overrides)
    return CampaignConfig(**base)


def filter_every_step(config: CampaignConfig, trial: int) -> RootedGraph:
    """The ``kconn`` generator without its degree gate: the sorted missing-edge
    list rebuilt and the connectivity filter run after every added edge."""
    rng = random.Random(f"{config.seed}:{trial}")
    n = rng.randint(config.n_min, config.n_max)
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph.from_edges(n, [e for e in pairs if rng.random() < config.p])
    k = config.filter_k
    if n <= k:
        raise GenerationError(f"no graph on {n} vertices is {k}-connected")
    while not has_connectivity_at_least(g, k):
        missing = sorted(set(pairs) - g.edges)
        g = Graph.from_edges(n, [*g.edges, rng.choice(missing)])
    picks = rng.sample(range(n), config.m + 2)
    return RootedGraph(g, tuple(picks[: config.m]), picks[config.m], picks[config.m + 1])


class TestGeneration:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_degree_gate_draws_the_same_instances(self, m, p):
        c = config(seed=10 * m + int(10 * p), m=m, n_min=2 * m + 3, n_max=22, p=p)
        for t in range(4):
            assert gen_random_rooted(c, t) == filter_every_step(c, t)

    @pytest.mark.parametrize("seed", range(5, 10))
    @pytest.mark.parametrize("m, n_min, n_max, p", [(2, 14, 18, 0.3), (4, 18, 22, 0.35)])
    def test_degree_gate_draws_the_same_instances_at_fuzz_settings(self, m, n_min, n_max, p, seed):
        # The settings of the removable fuzz campaign's benchmark, where the
        # generator's draw loop is timed; the oracle draws with rng.choice.
        c = config(seed=seed, m=m, n_min=n_min, n_max=n_max, p=p)
        for t in range(10):
            assert gen_random_rooted(c, t) == filter_every_step(c, t)

    @pytest.mark.parametrize("m, n_min, n_max, p, ticks", [(2, 14, 18, 0.3, 1_414), (4, 18, 22, 0.35, 2_399)])
    def test_filter_ticks_at_fuzz_settings(self, monkeypatch, m, n_min, n_max, p, ticks):
        # The effort of the connectivity filter over the draws above, pinned:
        # seeded paths plus the network nodes of 620 augmenting-search
        # dequeues over both settings, one tick each, on one shared clock.
        clock = BudgetClock(EXHAUSTIVE)
        checks = []

        def on_shared_clock(g, k, budget):
            checks.append(k)
            return has_connectivity_at_least(g, k, clock)

        monkeypatch.setattr(linklab.harness, "has_connectivity_at_least", on_shared_clock)
        c = config(seed=5, m=m, n_min=n_min, n_max=n_max, p=p)
        for t in range(10):
            gen_random_rooted(c, t)
        assert checks == [2 * m + 2] * 10
        assert clock.ticks == ticks

    def test_generated_rows_are_the_adjacency_masks(self):
        # Every draw of the degree-gate and fuzz-setting tests above: the rows
        # the generator keeps and hands to its graph are the ones its edges give.
        gate = [(config(seed=10 * m + int(10 * p), m=m, n_min=2 * m + 3, n_max=22, p=p), 4)
                for m in (1, 2, 3, 4) for p in (0.0, 0.3, 0.5, 1.0)]
        fuzz = [(config(seed=5, m=m, n_min=n_min, n_max=n_max, p=p), 10)
                for m, n_min, n_max, p in ((2, 14, 18, 0.3), (4, 18, 22, 0.35))]
        for c, trials in [*gate, *fuzz, (config(k=0, n_min=8, n_max=12, p=0.3), 4)]:
            for t in range(trials):
                g = gen_random_rooted(c, t).graph
                assert g.adjacency_masks == Graph(g.vertex_count, g.edges).adjacency_masks

    def test_degree_gate_with_no_filter(self):
        c = config(k=0, n_min=8, n_max=12, p=0.3)
        for t in range(4):
            assert gen_random_rooted(c, t) == filter_every_step(c, t)

    def test_instances_are_pinned(self):
        # A digest of the generator's instances: kconn at both fuzz settings
        # and with p = 0 (generation errors included), G(n, p) up to n = 70
        # and the complete graph at p = 1.  A change to the RNG stream or to
        # the rows changes it, so no change moves the instances unnoticed.
        configs = [
            config(seed=1, trials=20, n_min=14, n_max=18, m=2, p=0.3),
            config(seed=2, trials=20, n_min=18, n_max=22, m=4, p=0.35),
            config(seed=3, trials=20, n_min=4, n_max=12, m=1, p=0.0),
            config(seed=4, trials=20, n_min=8, n_max=70, m=2, model="gnp", p=0.5),
            config(seed=5, trials=20, n_min=2, n_max=9, m=0, model="gnp", p=1.0),
        ]
        digest = hashlib.sha256()
        for c in configs:
            for t in range(c.trials):
                try:
                    rg = gen_random_rooted(c, t)
                except GenerationError as exc:
                    digest.update(f"{exc}\n".encode())
                    continue
                digest.update(repr((serialize_graph6(rg.graph), rg.a_set, rg.b1, rg.b2)).encode() + b"\n")
        assert digest.hexdigest() == "2be85b0e3f724e9ede79903a20b3e132945e6e89c4ba09551c486fbbc80e8317"

    def test_degree_gate_keeps_the_generation_error(self):
        c = config(m=2, n_min=4, n_max=6)
        for f in (gen_random_rooted, filter_every_step):
            with pytest.raises(GenerationError, match="no graph on [456] vertices is 6-connected"):
                f(c, 0)

    def test_deterministic(self):
        c = config()
        a = gen_random_rooted(c, 0)
        b = gen_random_rooted(c, 0)
        assert a == b
        assert gen_random_rooted(c, 1) != a

    def test_filter_soundness(self):
        c = config(trials=8)
        for t in range(8):
            rg = gen_random_rooted(c, t)
            assert vertex_connectivity(rg.graph) >= 4

    def test_gnp_extremes(self):
        full = config(model="gnp", p=1.0, n_min=5, n_max=5)
        assert gen_random_rooted(full, 0).graph == Graph.complete(5)
        empty = config(model="gnp", p=0.0, n_min=5, n_max=5)
        assert gen_random_rooted(empty, 0).graph.edge_count == 0

    def test_impossible_filter(self):
        c = config(n_min=4, n_max=4, k=4)
        with pytest.raises(GenerationError):
            gen_random_rooted(c, 0)

    def test_filter_spends_the_campaign_budget(self):
        # On 30 vertices the final connectivity check, its flows capped at
        # k = 4, spends 192 budget ticks, so a campaign budget of 100 must stop it.
        c = config(n_min=30, n_max=30, budget=SearchBudget(max_nodes_expanded=100))
        with pytest.raises(SearchBudgetExceeded):
            gen_random_rooted(c, 0)

    def test_roots_are_distinct_vertices(self):
        c = config(m=2, n_min=8, n_max=8)
        rg = gen_random_rooted(c, 3)
        roots = (*rg.a_set, rg.b1, rg.b2)
        assert len(set(roots)) == 4
        assert all(0 <= v < rg.graph.vertex_count for v in roots)


class TestCampaigns:
    def test_connected_feasible_all_pass(self):
        report = campaign_connected_feasible(config(trials=10))
        assert report.counts == {"feasible": 10, "certified": 0, "failures": 0}
        assert len(report.trials) == 10
        assert sum(report.counts.values()) == 10

    def test_connected_feasible_spends_the_campaign_budget(self):
        # With k = 0 the filter does no work; at m = 1 the reachability
        # search of some trials dequeues more than 2 vertices.
        c = config(seed=1, trials=20, n_min=8, n_max=8, k=0, p=0.3,
                   budget=SearchBudget(max_nodes_expanded=2))
        with pytest.raises(SearchBudgetExceeded):
            campaign_connected_feasible(c)

    def test_exhaustive_cross_checks_spend_the_campaign_budget(self):
        # On the m = 2, n <= 5 sweep every verdict fits 4 nodes, but the
        # planar certificate search needs 5 on some instances.
        c = CampaignConfig(seed=0, trials=1, n_min=4, n_max=5, m=2, model="gnp",
                           budget=SearchBudget(max_nodes_expanded=4))
        with pytest.raises(SearchBudgetExceeded):
            campaign_exhaustive_small(c)
        report = campaign_exhaustive_small(replace(c, budget=SearchBudget(max_nodes_expanded=5)))
        assert report.counts == {"feasible": 412, "certified": 674, "failures": 0}

    def test_removable_all_pass(self):
        report = campaign_removable_path(config(trials=10))
        assert report.counts["failures"] == 0
        assert report.counts["feasible"] == 10
        assert "max_iterations" in report.extras

    def test_removable_m3_sample(self):
        report = campaign_removable_path(
            CampaignConfig(seed=11, trials=50, n_min=10, n_max=12, m=3, model="kconn")
        )
        assert report.counts == {"feasible": 50, "certified": 0, "failures": 0}

    def test_connected_feasible_m0(self):
        report = campaign_connected_feasible(
            CampaignConfig(seed=2, trials=40, n_min=5, n_max=8, m=0, model="kconn", k=1)
        )
        assert report.counts["feasible"] == 40

    def test_exhaustive_m0_critical_certificates(self):
        # Every critically feasible pinned set found along witness paths on
        # graphs with up to 5 vertices admits a verified critical certificate.
        report = campaign_exhaustive_small(
            CampaignConfig(seed=0, trials=1, n_min=2, n_max=5, m=0, model="gnp")
        )
        assert report.counts["failures"] == 0
        assert report.extras["instances"] == sum(
            1 for g in small_graphs(5) if g.vertex_count >= 2
            for _ in rooted_instances(g, 0)
        )

    def test_exhaustive_certifies_exactly_the_critical_pinned_sets(self, monkeypatch):
        # The m <= 1 sweep must run one critical search per pinned set U on
        # the interior of each witness path found, for exactly the sets that
        # every witness path covers, by size and then in combination order.
        verdicts, searched = [], []
        decide = linklab.harness.theorem_check

        def record_verdict(rg, budget=EXHAUSTIVE):
            verdict = decide(rg, budget)
            verdicts.append((rg, verdict))
            return verdict

        def record_search(rg, kind, u_set=(), budget=EXHAUSTIVE):
            searched.append((rg, kind, frozenset(u_set)))
            return "found"

        monkeypatch.setattr(linklab.harness, "theorem_check", record_verdict)
        monkeypatch.setattr(linklab.harness, "search_collection", record_search)
        for m, n_max in ((0, 7), (1, 6)):
            verdicts.clear()
            searched.clear()
            report = campaign_exhaustive_small(
                CampaignConfig(seed=0, trials=1, n_min=m + 2, n_max=n_max, m=m, model="gnp")
            )
            assert report.counts["failures"] == 0
            expected = []
            for rg, verdict in verdicts:
                if verdict.outcome != "feasible":
                    continue
                witnesses = [set(p) for p in witness_paths(rg)]
                interior = [v for v in verdict.pair.b_path.vertices if v not in (rg.b1, rg.b2)]
                for size in range(len(interior) + 1):
                    for u_combo in itertools.combinations(interior, size):
                        if all(set(u_combo) <= p for p in witnesses):
                            expected.append((rg, "critical", frozenset(u_combo)))
            assert expected
            assert searched == expected

    def test_generation_failures_are_reported_not_fatal(self):
        report = campaign_connected_feasible(config(trials=3, n_min=4, n_max=4, k=4))
        assert report.counts["failures"] == 3
        assert all(t["outcome"] == "generation-failure" for t in report.trials)

    def test_exhaustive_small_m1(self):
        report = campaign_exhaustive_small(config(trials=1, model="gnp", n_min=3, n_max=4, m=1))
        assert report.counts["failures"] == 0
        assert report.counts["feasible"] + report.counts["certified"] == report.extras["instances"]
        # 3 placements on each 3-vertex graph, 12 on each 4-vertex graph.
        assert report.extras["instances"] == 3 * 4 + 12 * 11

    def test_report_determinism(self):
        c = config(trials=6)
        a = campaign_removable_path(c).to_dict()
        b = campaign_removable_path(c).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert "wall_time_ms" not in a
        timed = campaign_removable_path(c).to_dict(include_timing=True)
        assert "wall_time_ms" in timed

    def test_failure_embeds_replay_data(self):
        # Force a violation record by running the feasibility campaign on
        # sparse low-connectivity instances with m = 2 and no filter.
        c = CampaignConfig(seed=3, trials=40, n_min=4, n_max=5, m=2, model="gnp", p=0.15)
        report = campaign_connected_feasible(c)
        violations = [t for t in report.trials if t["outcome"] == "violation-infeasible"]
        assert violations, "expected sparse m=2 instances to include infeasible draws"
        for v in violations:
            assert "graph6" in v and "roots" in v

    def test_exhaustive_violation_records_replay(self, monkeypatch):
        # With no planar certificate ever found, every certified m = 2
        # instance is a violation, and its record replays to that instance.
        monkeypatch.setattr(linklab.harness, "find_seymour_certificate", lambda rg, budget=EXHAUSTIVE: None)
        report = campaign_exhaustive_small(
            CampaignConfig(seed=0, trials=1, n_min=4, n_max=5, m=2, model="gnp")
        )
        assert report.counts == {"feasible": 412, "certified": 0, "failures": 674}
        assert len(report.trials) == 674
        for record in report.trials:
            assert record["outcome"] == "violation"
            assert record["detail"] == "no planar certificate for an infeasible instance"
            roots = record["roots"]
            rg = RootedGraph(parse_graph6(record["graph6"]), tuple(roots["a"]), roots["b1"], roots["b2"])
            assert find_linkage_pair(rg) is None


class TestVerifyRemovable:
    # The 6-cycle 0-1-...-5-0 with a = (3,), b1 = 0, b2 = 2.
    CYCLE = RootedGraph(Graph.cycle(6), (3,), 0, 2)

    @pytest.mark.parametrize("path, complaint", [
        ((0, 1, 2), None),
        ((0, 5, 4, 3, 2), "path meets the a-set"),
        ((0, 1), "path does not join b1 to b2"),
        ((2, 1, 0), "path does not join b1 to b2"),
        ((0, 2), "path has a non-edge"),
    ])
    def test_complaints_on_the_cycle(self, path, complaint):
        assert _verify_removable(self.CYCLE, path) == complaint

    def test_disconnected_remainder(self):
        # A leaf 6 on vertex 1: the path 0-1-2 cuts it off from {3, 4, 5}.
        g = Graph.from_edges(7, [*Graph.cycle(6).edges, (1, 6)])
        rg = RootedGraph(g, (3,), 0, 2)
        assert _verify_removable(rg, (0, 1, 2)) == "remainder is disconnected"


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, campaign, c", [
    ("feasible_gnp_seed3.json", campaign_connected_feasible,
     CampaignConfig(seed=3, trials=40, n_min=4, n_max=5, m=2, model="gnp", p=0.15)),
    ("feasible_kconn_seed7.json", campaign_connected_feasible,
     CampaignConfig(seed=7, trials=20, n_min=6, n_max=8, m=2, model="kconn")),
    ("removable_kconn_seed3.json", campaign_removable_path,
     CampaignConfig(seed=3, trials=60, n_min=6, n_max=9, m=1, model="kconn", k=2)),
])
def test_random_campaign_reports_match_golden(name, campaign, c):
    # Byte-for-byte: verdicts, record keys and order, complaint texts, extras.
    expected = (GOLDEN / name).read_text().rstrip("\n")
    assert json.dumps(campaign(c).to_dict(), sort_keys=True) == expected


class TestSmallGraphs:
    def test_counts_by_order(self):
        from collections import Counter

        counts = Counter(g.vertex_count for g in small_graphs(6))
        assert counts == {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}

    def test_cap_enforced(self):
        with pytest.raises(Exception):
            list(small_graphs(8))

    def test_the_atlas_needs_no_networkx(self):
        # The atlas ships with the package, and planarity on at most 7
        # reduced vertices needs no networkx, so a sweep runs without it.
        script = "\n".join([
            "import sys",
            "sys.modules['networkx'] = None  # import networkx now raises ImportError",
            "from linklab.harness import CampaignConfig, campaign_exhaustive_small, small_graphs",
            "print(sum(1 for _ in small_graphs(7)))",
            "print(campaign_exhaustive_small(CampaignConfig(seed=0, trials=1, n_min=4, n_max=5, m=2)).counts)",
        ])
        src = str(Path(linklab.harness.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["1253", "{'feasible': 412, 'certified': 674, 'failures': 0}"]

    @pytest.mark.parametrize("min_n, max_n", [(0, 7), (4, 6), (2, 2), (7, 7), (5, 4)])
    def test_atlas_entries_match_networkx(self, min_n, max_n):
        import networkx as nx

        expected = [
            Graph.from_edges(nxg.number_of_nodes(), nxg.edges())
            for nxg in nx.graph_atlas_g()
            if min_n <= nxg.number_of_nodes() <= max_n
        ]
        assert list(small_graphs(max_n, min_n)) == expected

    def test_rooted_instances_count(self):
        g = Graph.complete(5)
        assert len(list(rooted_instances(g, 1))) == 5 * 6
        assert len(list(rooted_instances(g, 2))) == 10 * 3
        assert len(list(rooted_instances(g, 0))) == 10


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(Exception):
            CampaignConfig(seed=0, trials=0, n_min=4, n_max=5, m=1)
        with pytest.raises(Exception):
            CampaignConfig(seed=0, trials=1, n_min=2, n_max=5, m=1)
        with pytest.raises(Exception):
            CampaignConfig(seed=0, trials=1, n_min=4, n_max=5, m=1, p=1.5)
        with pytest.raises(Exception):
            CampaignConfig(seed=0, trials=1, n_min=4, n_max=3, m=1)

    def test_budget_passthrough(self):
        c = config(budget=SearchBudget(10**6, 10**6))
        assert c.budget.max_nodes_expanded == 10**6
