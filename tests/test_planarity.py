"""Planarity, disc planarity, and the planar infeasibility certificate."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linklab.budget import EXHAUSTIVE, BudgetClock
import linklab.planarity
from linklab.certificates import iter_collections
from linklab.errors import InvalidCollectionError, InvalidInputError
from linklab.feasibility import is_feasible
from linklab.graphio import serialize_graph
from linklab.graphs import Collection, Graph, RootedGraph, bits_of, contract_masks
from linklab.harness import rooted_instances, small_graphs
from linklab.planarity import (
    DiscInstance,
    check_seymour_certificate,
    find_seymour_certificate,
    is_disc_planar,
    is_planar,
    seymour_edge_bound,
)
from oracles import brute_seymour_certificate, rotation_system_is_planar
from strategies import graphs, trigrid


def k33() -> Graph:
    return Graph.from_edges(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])


def octahedron() -> Graph:
    non_edges = {(0, 1), (2, 3), (4, 5)}
    return Graph.from_edges(
        6, [e for e in itertools.combinations(range(6), 2) if e not in non_edges]
    )


def triangular_prism() -> Graph:
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def k5_less_01(extra) -> Graph:
    """K5 on 0..4 without the edge 0 1, plus ``extra`` edges."""
    return Graph.from_edges(6, [e for e in itertools.combinations(range(5), 2) if e != (0, 1)] + extra)


def k33_with_pendant_path_and_long_edge() -> Graph:
    # K3,3 on 0..5 with the edge 0 3 subdivided thrice (6, 7, 8) and the
    # path 1 9 10 hanging off vertex 1.
    k33_edges = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5) if (a, b) != (0, 3)]
    return Graph.from_edges(11, k33_edges + [(0, 6), (6, 7), (7, 8), (8, 3), (1, 9), (9, 10)])


def k33_chord_on_subdivision() -> Graph:
    # K3,3 on 0..5 with the edge 0 3 subdivided by 6, and the chord 6 1.
    k33_edges = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5) if (a, b) != (0, 3)]
    return Graph.from_edges(7, k33_edges + [(0, 6), (6, 3), (6, 1)])


def k5_two_subdivisions_with_chords() -> Graph:
    # K5 on 0..4 with 0 1 subdivided by 5 and 2 3 by 6, then the chords 5 2 and 6 0.
    k5_edges = [e for e in itertools.combinations(range(5), 2) if e not in ((0, 1), (2, 3))]
    return Graph.from_edges(7, k5_edges + [(0, 5), (5, 1), (2, 6), (6, 3), (5, 2), (6, 0)])


def pentagonal_bipyramid() -> Graph:
    # The 5-cycle 0..4 with both poles 5 and 6 joined to it: 15 = 3 * 7 - 6 edges.
    return Graph.from_edges(7, [*((i, (i + 1) % 5) for i in range(5)),
                                *((i, pole) for i in range(5) for pole in (5, 6))])


def cube() -> Graph:
    return Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                                (0, 4), (1, 5), (2, 6), (3, 7)])


def count_path_additions(monkeypatch) -> list:
    """A list that gets one entry per call into ``planarity._path_addition``."""
    calls = []
    add = linklab.planarity._path_addition
    monkeypatch.setattr(linklab.planarity, "_path_addition", lambda *a: calls.append(a) or add(*a))
    return calls


def test_is_planar_matches_oracles_exhaustively():
    # Every graph with n <= 7, alone and with an apex joined to every vertex,
    # against networkx and the rotation-system search, plus one seeded
    # relabelling of each, since the reductions run in vertex-id order.
    rng = random.Random(97)
    for g in small_graphs(7):
        n = g.vertex_count
        for h in (g, Graph.from_edges(n + 1, [*g.edges, *((v, n) for v in range(n))])):
            nxg = nx.Graph(h.edges)
            nxg.add_nodes_from(range(h.vertex_count))
            expected = nx.check_planarity(nxg, counterexample=False)[0]
            assert rotation_system_is_planar(h) == expected, h
            assert is_planar(h) == expected, h
            perm = rng.sample(range(h.vertex_count), h.vertex_count)
            relabelled = Graph.from_edges(h.vertex_count, ((perm[u], perm[v]) for u, v in h.edges))
            assert is_planar(relabelled) == expected, (h, perm)


class TestIsPlanar:
    def test_knowns(self):
        assert is_planar(Graph.complete(4))
        assert not is_planar(Graph.complete(5))
        assert not is_planar(k33())
        assert is_planar(octahedron())

    # Each id names the branch that decides the graph; the last five keep at
    # least 7 vertices, in one component, after the reductions and go to
    # path addition once.  None reaches networkx.
    @pytest.mark.parametrize(
        "g, planar, path_additions",
        [
            pytest.param(Graph.complete(5), False, 0, id="K5-edge-bound"),
            pytest.param(k33(), False, 0, id="K33-bipartition"),
            pytest.param(k5_less_01([(0, 5), (1, 5)]), False, 0,
                         id="K5-one-edge-subdivided-suppressed-to-K5-edge-bound"),
            pytest.param(k5_less_01([(0, 5), (1, 5), (2, 5)]), False, 0,
                         id="K5-subdivided-degree-3-sixth-vertex-K33-bipartition"),
            pytest.param(k33_with_pendant_path_and_long_edge(), False, 0,
                         id="K33-with-paths-reduced-to-K33-bipartition"),
            pytest.param(triangular_prism(), True, 0, id="prism-no-bipartition"),
            pytest.param(k33_chord_on_subdivision(), False, 1,
                         id="K33-subdivided-chord-n7-path-addition"),
            pytest.param(k5_two_subdivisions_with_chords(), False, 1,
                         id="K5-two-subdivisions-chords-n7-path-addition"),
            pytest.param(pentagonal_bipyramid(), True, 1, id="bipyramid-n7-every-contraction-planar"),
            pytest.param(cube(), True, 1, id="cube-n8-path-addition"),
            pytest.param(petersen(), False, 1, id="petersen-reduced-n10-path-addition"),
        ],
    )
    def test_branches(self, g, planar, path_additions, monkeypatch):
        calls, nx_calls = count_path_additions(monkeypatch), []
        monkeypatch.setattr(nx, "check_planarity", lambda *a, **k: nx_calls.append(a))
        assert is_planar(g) == planar
        assert (len(calls), nx_calls) == (path_additions, [])

    def test_matches_oracles_on_random_graphs_8_to_10(self):
        # Seeded graphs with 8-10 vertices, some of which reduce to 7, against
        # networkx; the rotation-system search, slow on denser graphs with 9
        # or 10 vertices, checks those with 8.
        rng = random.Random(2026)
        for _ in range(400):
            n = rng.randint(8, 10)
            p = rng.choice((0.25, 0.35, 0.45, 0.55))
            g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            nxg = nx.Graph(g.edges)
            nxg.add_nodes_from(range(n))
            expected = nx.check_planarity(nxg, counterexample=False)[0]
            assert is_planar(g) == expected, g
            if n == 8:
                assert rotation_system_is_planar(g) == expected, g

    def test_matches_networkx_on_graphs_8_to_40(self, monkeypatch):
        # Seeded sparse G(n, p) graphs with 8-40 vertices, near the density
        # where planarity fails, and relabelled triangulated grids of 3-6 x
        # 3-6 with about 20% of their edges dropped and 0-2 random edges
        # added, against networkx.  A grid stays planar unless an added edge
        # crosses it, so path addition embeds most of it before it answers.
        rng = random.Random(2032)
        cases = []
        for _ in range(800):
            n = rng.randint(8, 40)
            p = rng.uniform(1.5, 4.0) / n
            cases.append(Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                              if rng.random() < p]))
        for _ in range(800):
            grid = trigrid(rng.randint(3, 6), rng.randint(3, 6), 0).graph
            n = grid.vertex_count
            edges = {e for e in grid.edges if rng.random() >= 0.2}
            edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2))}
            perm = rng.sample(range(n), n)
            cases.append(Graph.from_edges(n, {tuple(sorted((perm[u], perm[v]))) for u, v in edges}))
        calls = count_path_additions(monkeypatch)
        verdicts = []
        for g in cases:
            nxg = nx.Graph(g.edges)
            nxg.add_nodes_from(range(g.vertex_count))
            verdicts.append(nx.check_planarity(nxg, counterexample=False)[0])
            assert is_planar(g) == verdicts[-1], g
        assert verdicts.count(False) > 400 and verdicts.count(True) > 1000
        assert len(calls) > 1000

    @given(graphs(max_n=7))
    @settings(max_examples=150)
    def test_matches_rotation_search(self, g):
        assert is_planar(g) == rotation_system_is_planar(g)

    def test_decides_below_the_cut_over_without_networkx(self, tmp_path):
        # Path addition decides up to 40 reduced vertices, so the cube, the
        # Petersen graph and a disc test on a 30-vertex grid need no networkx.
        grid = tmp_path / "grid.txt"
        grid.write_text(serialize_graph(trigrid(5, 6, 0).graph))
        script = "\n".join([
            "import sys",
            "sys.modules['networkx'] = None  # import networkx now raises ImportError",
            "from linklab.cli import cli_main",
            "from linklab.graphs import Graph",
            "from linklab.planarity import is_planar",
            f"print(is_planar(Graph.from_edges(8, {sorted(cube().edges)})))",
            f"print(is_planar(Graph.from_edges(10, {sorted(petersen().edges)})))",
            f"sys.exit(cli_main(['disc-planar', '-i', {str(grid)!r}, '--boundary', '0,5,29,24']))",
        ])
        src = str(Path(linklab.planarity.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert lines[:2] == ["True", "False"]
        assert json.loads(lines[2]) == {"schema_version": 1, "command": "disc-planar",
                                        "boundary": [0, 5, 29, 24], "disc_planar": True}


class TestIsDiscPlanar:
    def test_cycle_in_cyclic_order(self):
        assert is_disc_planar(DiscInstance(Graph.cycle(4), (0, 1, 2, 3)))

    def test_cycle_in_interleaved_order(self):
        # The apex-cycle reduction of this instance is K5; the rotation
        # oracle confirms the augmented graph is not embeddable.
        d = DiscInstance(Graph.cycle(4), (0, 2, 1, 3))
        assert not is_disc_planar(d)
        augmented = Graph.from_edges(
            5, list(Graph.cycle(4).edges) + [(0, 2), (1, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
        )
        assert augmented == Graph.complete(5)
        assert not rotation_system_is_planar(augmented)

    def test_k4_with_full_boundary(self):
        for order in itertools.permutations(range(4)):
            assert not is_disc_planar(DiscInstance(Graph.complete(4), order))

    def test_repeated_boundary_vertex(self):
        with pytest.raises(InvalidInputError):
            DiscInstance(Graph.cycle(4), (0, 0, 1))

    @given(graphs(max_n=6), st.data())
    def test_boundary_up_to_one_vertex_equals_planarity(self, g, data):
        if g.vertex_count == 0:
            return
        v = data.draw(st.integers(min_value=0, max_value=g.vertex_count - 1))
        assert is_disc_planar(DiscInstance(g, ())) == is_planar(g)
        assert is_disc_planar(DiscInstance(g, (v,))) == is_planar(g)

    @given(graphs(max_n=6), st.data())
    def test_disc_planar_implies_planar(self, g, data):
        if g.vertex_count < 2:
            return
        size = data.draw(st.integers(min_value=2, max_value=min(4, g.vertex_count)))
        boundary = data.draw(st.permutations(range(g.vertex_count)).map(lambda p: p[:size]))
        if is_disc_planar(DiscInstance(g, boundary)):
            assert is_planar(g)

    @pytest.mark.parametrize("r, c", [(3, 3), (3, 5), (4, 4), (5, 6), (6, 6)])
    def test_trigrid_corners(self, r, c):
        # A triangulated grid's corners lie on its outer face in the order
        # top-left, top-right, bottom-right, bottom-left.  An edge joining two
        # opposite corners keeps the grid planar but must cross it inside the
        # disc.  With the apex these graphs reach 10-37 vertices.
        g = trigrid(r, c, 0).graph
        n = g.vertex_count
        corners = (0, c - 1, n - 1, n - c)
        assert is_disc_planar(DiscInstance(g, corners))
        assert not is_disc_planar(DiscInstance(g, (0, n - 1, c - 1, n - c)))
        crossed = Graph.from_edges(n, [*g.edges, (0, n - 1)])
        assert is_planar(crossed)
        assert not is_disc_planar(DiscInstance(crossed, corners))

    def test_planar_does_not_imply_disc_planar(self):
        # Octahedron antipodes never share a face: planar, yet no disc
        # drawing puts them both on the boundary.
        g = octahedron()
        assert is_planar(g)
        assert not is_disc_planar(DiscInstance(g, (0, 1)))
        assert is_disc_planar(DiscInstance(g, (0, 2)))

    def test_matches_rotation_search_on_every_small_boundary(self):
        # Every graph with n <= 5 and every boundary of 2-4 vertices; the
        # oracle tests an apex augmentation built here from the edge list.
        for g in small_graphs(5):
            n = g.vertex_count
            for size in range(2, min(4, n) + 1):
                for boundary in itertools.permutations(range(n), size):
                    ring = [(boundary[i - 1], boundary[i]) for i in range(size)]
                    apex = [(s, n) for s in boundary]
                    augmented = Graph.from_edges(n + 1, [*g.edges, *ring, *apex])
                    expected = rotation_system_is_planar(augmented)
                    assert is_disc_planar(DiscInstance(g, boundary)) == expected, (g, boundary)

    @given(graphs(max_n=6), st.data())
    @settings(max_examples=150)
    def test_rotation_and_reversal_invariance(self, g, data):
        if g.vertex_count < 3:
            return
        size = data.draw(st.integers(min_value=3, max_value=min(4, g.vertex_count)))
        boundary = data.draw(st.permutations(range(g.vertex_count)).map(lambda p: p[:size]))
        value = is_disc_planar(DiscInstance(g, boundary))
        shift = data.draw(st.integers(min_value=0, max_value=size - 1))
        rotated = boundary[shift:] + boundary[:shift]
        assert is_disc_planar(DiscInstance(g, rotated)) == value
        assert is_disc_planar(DiscInstance(g, tuple(reversed(boundary)))) == value


class TestSeymourCertificate:
    def test_classic_interleaved_cycle(self):
        rg = RootedGraph(Graph.cycle(4), (0, 2), 1, 3)
        assert check_seymour_certificate(rg, Collection())
        assert not is_feasible(rg)
        assert seymour_edge_bound(rg, Collection())

    def test_nonplanar_contraction_fails(self):
        g = Graph.complete(6)
        rg = RootedGraph(g, (0, 2), 1, 3)
        assert not check_seymour_certificate(rg, Collection())

    def test_requires_two_roots(self):
        with pytest.raises(InvalidInputError):
            check_seymour_certificate(RootedGraph(Graph.complete(4), (0,), 1, 2), Collection())

    def test_edge_bound_requires_certificate(self):
        rg = RootedGraph(Graph.complete(6), (0, 2), 1, 3)
        with pytest.raises(InvalidInputError):
            seymour_edge_bound(rg, Collection())

    def test_edge_bound_rejects_an_invalid_collection(self):
        # A member on a root, and two members that touch, fail validation
        # before any certificate test.
        rg = RootedGraph(Graph.cycle(6), (0, 2), 1, 3)
        for x in (Collection([{0}]), Collection([{4}, {5}])):
            with pytest.raises(InvalidCollectionError):
                seymour_edge_bound(rg, x)

    def test_edge_bound_contracts_once(self, monkeypatch):
        # The disc test and the edge count share one contraction.
        calls = []

        def counted(g, family):
            calls.append(len(family))
            return contract_masks(g, family)

        monkeypatch.setattr(linklab.planarity, "contract_masks", counted)
        rg = RootedGraph(Graph.cycle(6), (0, 3), 1, 4)
        assert seymour_edge_bound(rg, Collection([{2}, {5}]))
        assert calls == [2]

    def test_degenerate_roots_only(self):
        rg = RootedGraph(Graph(4), (0, 2), 1, 3)
        assert check_seymour_certificate(rg, Collection())
        # Forced root edges: all pairs except b1 b2 gives 5 <= 3 * 4 - 6.
        assert seymour_edge_bound(rg, Collection())

    @given(graphs(min_n=4, max_n=6), st.data())
    @settings(max_examples=150)
    def test_certificate_implies_infeasible(self, g, data):
        a1, a2, b1, b2 = data.draw(st.permutations(range(g.vertex_count)).map(lambda p: p[:4]))
        rg = RootedGraph(g, (a1, a2), b1, b2)
        cert = find_seymour_certificate(rg)
        if cert is not None:
            assert check_seymour_certificate(rg, cert)
            assert not is_feasible(rg)
            assert seymour_edge_bound(rg, cert)

    def test_matches_oracle_on_every_small_family(self):
        # Every m = 2 placement on every graph with n <= 5, and every
        # collection the cap-3 family enumeration yields for it.
        pairs = 0
        for g in small_graphs(5, min_n=4):
            for rg in rooted_instances(g, 2):
                for family in iter_collections(g, rg.roots, 3, BudgetClock(EXHAUSTIVE)):
                    members = [frozenset(bits_of(member)) for member, _ in family]
                    expected = brute_seymour_certificate(rg, members)
                    assert check_seymour_certificate(rg, Collection(members)) == expected, (rg, members)
                    pairs += 1
        assert pairs == 1992

    def test_member_with_four_neighbours_fails_the_cap(self):
        # Contracting the hub 8 of a star on 4..7 leaves a K_4 apart from the
        # roots 0..3, a disc planar graph, so only the cap rejects the member.
        g = Graph.from_edges(9, [(8, v) for v in range(4, 8)])
        rg = RootedGraph(g, (0, 2), 1, 3)
        contracted = Graph.from_edges(8, itertools.combinations(range(4, 8), 2))
        assert is_disc_planar(DiscInstance(contracted, (0, 1, 2, 3)))
        assert brute_seymour_certificate(rg, [frozenset({8})]) is False
        assert not check_seymour_certificate(rg, Collection([{8}]))

    def test_exhaustive_equivalence_n5(self):
        # Forward direction too: infeasible two-rooted instances on at most
        # 5 vertices always admit a planar certificate.
        for g in small_graphs(5):
            if g.vertex_count < 4:
                continue
            for rg in rooted_instances(g, 2):
                cert = find_seymour_certificate(rg)
                assert (cert is None) == is_feasible(rg)
