"""Graph core: types, neighborhoods, components, contraction, augmentation."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linklab.errors import InvalidCollectionError, InvalidInputError
from linklab.graphio import parse_edge_list, parse_graph6, serialize_edge_list, serialize_graph6
from linklab.graphs import (
    Collection,
    Graph,
    Path,
    RootedGraph,
    augment_rooted,
    bits_of,
    component_mask,
    components_masks,
    contract_collection,
    is_connected_set,
    mask_of,
    neighborhood_mask,
    validate_collection,
)
from linklab.harness import small_graphs
from oracles import _components_of, brute_collection_valid, induced_subgraph, neighbourhood
from strategies import collections_in, graphs, rooted_graphs


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInputError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Graph(2, frozenset({(0, 2)}))

    def test_canonicalizes_and_dedups(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
        assert g.sorted_edges() == [(0, 2), (1, 2)]

    def test_has_edge_reads_the_edge_set_on_every_small_graph(self):
        for g in small_graphs(6):
            n = g.vertex_count
            for u, v in itertools.product(range(n), repeat=2):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in g.edges)
            for bad, good in itertools.product((-1, n), range(n)):
                for pair in ((bad, good), (good, bad)):
                    with pytest.raises(InvalidInputError, match="out of range"):
                        g.has_edge(*pair)

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(InvalidInputError, match="vertex_count must be non-negative"):
            Graph(-1)

    def test_every_constructor_gives_the_same_graph(self):
        # The atlas and seeded G(n, p) graphs up to n = 140: the validating
        # constructors, both parsers and the trusted row builder give equal
        # graphs with the same hash, edges, counts and serialized text.
        rng = random.Random("constructors")
        cases = [(g.vertex_count, sorted(g.edges)) for g in small_graphs(7)]
        for n in range(8, 141, 3):
            p = rng.choice([0.03, 0.2, 0.5, 0.9])
            cases.append((n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
        for n, edges in cases:
            rows = [0] * n
            for u, v in edges:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            text = "".join(f"{u} {v}\n" for u, v in edges)
            built = [
                Graph(n, frozenset(edges)),
                Graph.from_edges(n, [(v, u) if (u + v) % 2 else (u, v) for u, v in reversed(edges)]),
                Graph.with_rows(n, tuple(rows)),
            ]
            built += [parse_edge_list(f"{n} {len(edges)}\n{text}"), parse_graph6(serialize_graph6(built[0]))]
            for g in built:
                assert g == built[0] and hash(g) == hash(built[0])
                assert (g.vertex_count, g.adjacency_masks) == (n, tuple(rows))
                assert g.edges == frozenset(edges)
                assert g.sorted_edges() == edges
                assert g.edge_count == len(edges)
                assert serialize_edge_list(g) == f"{n} {len(edges)}\n{text}"
                assert serialize_graph6(g) == serialize_graph6(built[0])

    def test_edges_are_derived_and_read_only(self):
        g = Graph.with_rows(3, (0b110, 0b001, 0b001))
        assert g.edges == frozenset({(0, 1), (0, 2)})
        assert g.edges is g.edges
        with pytest.raises(AttributeError):
            g.edges = frozenset()

    def test_adjacency_symmetry(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        for u in range(4):
            for v in range(4):
                assert g.adjacency_masks[u] >> v & 1 == g.adjacency_masks[v] >> u & 1


class TestRootedGraph:
    def test_rejects_duplicate_roots(self):
        g = Graph.complete(4)
        with pytest.raises(InvalidInputError):
            RootedGraph(g, (0,), 0, 1)

    def test_m_zero_allowed(self):
        rg = RootedGraph(Graph.complete(3), (), 0, 1)
        assert rg.m == 0


class TestPath:
    def test_rejects_repeats(self):
        with pytest.raises(InvalidInputError):
            Path([0, 1, 0])

    def test_validate_needs_edges(self):
        g = Graph.path_graph(3)
        Path([0, 1, 2]).validate_in(g)
        with pytest.raises(InvalidInputError, match="not adjacent"):
            Path([0, 2]).validate_in(g)
        for v in (-1, 3):
            with pytest.raises(InvalidInputError, match="out of range"):
                Path([v]).validate_in(g)


class TestNeighborhood:
    def test_path_midpoint(self):
        assert neighborhood_mask(Graph.path_graph(3).adjacency_masks, mask_of({1})) == mask_of({0, 2})

    def test_empty_set(self):
        assert neighborhood_mask(Graph.complete(4).adjacency_masks, 0) == 0

    def test_cycle_opposite_pair(self):
        # Direct enumeration on the 4-cycle: 0 and 2 jointly see 1 and 3.
        assert neighborhood_mask(Graph.cycle(4).adjacency_masks, mask_of({0, 2})) == mask_of({1, 3})


class TestComponents:
    @staticmethod
    def split(g: Graph) -> list[int]:
        return components_masks(g.adjacency_masks, (1 << g.vertex_count) - 1)

    def test_edgeless(self):
        assert self.split(Graph(3)) == [mask_of({0}), mask_of({1}), mask_of({2})]

    def test_cycle(self):
        assert self.split(Graph.cycle(4)) == [mask_of({0, 1, 2, 3})]

    def test_two_edges(self):
        assert self.split(Graph.from_edges(4, [(0, 1), (2, 3)])) == [mask_of({0, 1}), mask_of({2, 3})]

    def test_early_stop_decides_cover_as_the_full_component_does(self):
        # Every graph with n <= 6, every alive mask, every seed in it and
        # every target of one or two vertices: the part found before the
        # stop lies in the component and covers the target exactly when the
        # whole component does.
        for g in small_graphs(6):
            adj, n = g.adjacency_masks, g.vertex_count
            targets = [mask_of(t) for size in (1, 2) for t in itertools.combinations(range(n), size)]
            for alive in range(1, 1 << n):
                for seed in bits_of(alive):
                    whole = component_mask(adj, alive, seed)
                    for target in targets:
                        part = component_mask(adj, alive, seed, target)
                        assert part >> seed & 1 and not part & ~whole
                        assert (not target & ~part) == (not target & ~whole)


class TestContraction:
    def test_path_interior(self):
        g, relabel = contract_collection(Graph.path_graph(3), Collection([{1}]))
        assert g.vertex_count == 2
        assert g.sorted_edges() == [(0, 1)]
        assert relabel == {0: 0, 2: 1}

    def test_empty_collection_identity(self):
        g = Graph.cycle(5)
        contracted, relabel = contract_collection(g, Collection())
        assert contracted == g
        assert relabel == {v: v for v in range(5)}

    def test_star_center_becomes_clique(self):
        contracted, _ = contract_collection(star(3), Collection([{0}]))
        assert contracted == Graph.complete(3)

    def test_invalid_collection_rejected(self):
        g = Graph.path_graph(4)
        with pytest.raises(InvalidCollectionError):
            contract_collection(g, Collection([{0}, {1}]))
        with pytest.raises(InvalidCollectionError):
            contract_collection(g, Collection([{0}, {0, 1}]))

    @given(rooted_graphs(max_m=2, max_n=7), st.data())
    def test_vertex_count_identity(self, rg, data):
        x = data.draw(collections_in(rg.graph, rg.roots))
        contracted, _ = contract_collection(rg.graph, x)
        assert contracted.vertex_count == rg.graph.vertex_count - sum(len(m) for m in x)

    @given(graphs(max_n=7), st.data())
    def test_singleton_clique_members_are_deletion(self, g, data):
        # Singletons whose neighborhoods already induce cliques contract to
        # plain vertex deletion.
        candidates = [
            v for v in range(g.vertex_count)
            if all(
                g.has_edge(a, b)
                for a in neighbourhood(g, {v})
                for b in neighbourhood(g, {v})
                if a < b
            )
        ]
        if not candidates:
            return
        v = data.draw(st.sampled_from(candidates))
        contracted, relabel = contract_collection(g, Collection([{v}]))
        deleted, relabel2 = induced_subgraph(g, set(range(g.vertex_count)) - {v})
        assert contracted == deleted
        assert relabel == relabel2
        assert is_connected_set(g, set())  # vacuous sanity


class TestAugmentation:
    def test_edgeless_roots(self):
        rg = RootedGraph(Graph(3), (0,), 1, 2)
        augmented = augment_rooted(rg, Collection())
        assert set(augmented.sorted_edges()) == {(0, 1), (0, 2)}

    def test_tight_family_small(self):
        from linklab.certificates import gmk_graph

        rg = gmk_graph(1, 1)
        augmented = augment_rooted(rg, Collection())
        assert augmented.vertex_count == 4
        assert augmented.edge_count == 5

    def test_m_zero_unchanged(self):
        rg = RootedGraph(Graph.path_graph(4), (), 0, 3)
        assert augment_rooted(rg, Collection()) == rg.graph

    @given(rooted_graphs(max_m=3, max_n=7), st.data())
    def test_sandwich_bound(self, rg, data):
        x = data.draw(collections_in(rg.graph, rg.roots))
        contracted, _ = contract_collection(rg.graph, x)
        augmented = augment_rooted(rg, x)
        m = rg.m
        assert contracted.edge_count <= augmented.edge_count
        assert augmented.edge_count <= contracted.edge_count + math.comb(m + 2, 2) - 1

    @given(rooted_graphs(max_m=2, max_n=7), st.data())
    def test_b_pair_edge_preserved_exactly(self, rg, data):
        x = data.draw(collections_in(rg.graph, rg.roots))
        contracted, relabel = contract_collection(rg.graph, x)
        augmented = augment_rooted(rg, x)
        b1, b2 = relabel[rg.b1], relabel[rg.b2]
        assert augmented.has_edge(b1, b2) == contracted.has_edge(b1, b2)


class TestCollectionValidation:
    @given(graphs(max_n=7), st.data())
    def test_matches_brute_force(self, g, data):
        # Arbitrary families, valid or not, agree with the direct pairwise check.
        n = g.vertex_count
        fam = data.draw(
            st.lists(
                st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=3),
                max_size=3,
            )
        )
        if n == 0:
            return
        members = [frozenset(m) for m in fam if m]
        expected = brute_collection_valid(g, members, set())
        coll = Collection(members)
        # Collection() dedups; mirror that for the oracle comparison.
        expected = brute_collection_valid(g, list(coll.members), set())
        try:
            validate_collection(g, coll)
            assert expected
        except InvalidCollectionError:
            assert not expected

    def test_out_of_range_member_rejected(self):
        with pytest.raises(InvalidInputError):
            validate_collection(Graph.complete(3), Collection([{5}]))

    def test_forbidden_overlap_rejected(self):
        g = Graph.path_graph(4)
        with pytest.raises(InvalidCollectionError):
            validate_collection(g, Collection([{1}]), forbidden={1})

    def test_first_touching_pair_in_pair_order_is_reported(self):
        # Members {0}, {1}, {2}, {5} with edges 0 5 and 1 2: the pair 0&5 comes
        # first in pair order, although {2} is the first member that touches
        # an earlier one.
        g = Graph.from_edges(6, [(0, 5), (1, 2)])
        with pytest.raises(InvalidCollectionError, match=r"^members \[0\] and \[5\] touch each other$"):
            validate_collection(g, Collection([{0}, {1}, {2}, {5}]))

    def test_empty_members_normalized(self):
        c = Collection([set(), {1}, set()])
        assert c.members == (frozenset({1}),)

    @given(graphs(max_n=7), st.data())
    def test_component_split_stays_valid(self, g, data):
        # Splitting members into their components keeps a collection valid,
        # which is why certificate searches may use connected members only.
        x = data.draw(collections_in(g))
        parts = []
        for member in x:
            parts.extend(frozenset(c) for c in _components_of(g, set(range(g.vertex_count)) - member))
        split = Collection(parts)
        validate_collection(g, split)
        assert all(is_connected_set(g, m) for m in split)
        assert frozenset().union(*split) == frozenset().union(*x)
