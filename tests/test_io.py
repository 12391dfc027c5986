"""Edge-list and graph6 round trips, parse errors, root-tuple syntax."""

import pytest
from hypothesis import given

from linklab.errors import ParseError
from linklab.graphio import (
    MAX_EDGE_LIST_VERTICES,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    parse_roots,
    parse_vertex_list,
    serialize_edge_list,
    serialize_graph,
    serialize_graph6,
)
from linklab.graphs import Graph
from linklab.harness import small_graphs
from strategies import graphs


class TestEdgeList:
    def test_parse_path(self):
        assert parse_edge_list("3 2\n0 1\n1 2") == Graph.path_graph(3)

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match="line 2.*out of range"):
            parse_edge_list("2 1\n0 2")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("nope\n")

    def test_header_vertex_limit(self):
        limit = MAX_EDGE_LIST_VERTICES
        assert parse_edge_list(f"{limit} 0").vertex_count == limit
        with pytest.raises(ParseError, match="line 1.*limit"):
            parse_edge_list(f"{limit + 1} 0")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="line 3.*duplicate"):
            parse_edge_list("3 2\n0 1\n0 1")

    def test_unordered_endpoints_rejected(self):
        with pytest.raises(ParseError, match="u < v"):
            parse_edge_list("3 1\n1 0")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_edge_list("3 2\n0 1")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("", 1, "missing 'n m' header"),
            ("3\n", 1, "expected header 'n m', got '3'"),
            ("3 x\n", 1, "non-integer header fields in '3 x'"),
            ("3 -1\n", 1, "header counts must be non-negative"),
            ("3 2\n0 1\n", 1, "header promises 2 edges but 1 edge lines found"),
            ("4 3\n0 1\n1 2\n2 x\n", 4, "non-integer vertex id in '2 x'"),
            ("4 2\n0 1\n1 2 3\n", 3, "expected 'u v', got '1 2 3'"),
            ("4 2\n0 1\n\n\n1 4\n", 5, "vertex 4 out of range [0, 4)"),
            ("4 2\n0 1\n\n2 2\n", 4, "edge endpoints must satisfy u < v, got 2 2"),
            ("4 3\n0 1\n\n1 2\n\n0 1\n", 6, "duplicate edge 0 1"),
        ],
    )
    def test_errors_name_their_line(self, text, line, message):
        # Line numbers count blank lines, so they point into the input as given.
        with pytest.raises(ParseError) as info:
            parse_edge_list(text)
        assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")

    def test_blank_lines_between_edges(self):
        assert parse_edge_list("4 3\n\n0 1\n  \n1 2\n\n\n2 3\n\n") == Graph.path_graph(4)

    def test_blank_lines_before_the_header(self):
        # The header is the first non-blank line, and errors keep the real line numbers.
        assert parse_graph("\n3 2\n0 1\n1 2\n") == Graph.path_graph(3)
        assert parse_edge_list(" \n\n3 2\n0 1\n1 2\n") == Graph.path_graph(3)
        for text, line, message in [
            ("\n3 x\n0 1\n", 2, "non-integer header fields in '3 x'"),
            ("\n\n4 1\n\n0 4\n", 5, "vertex 4 out of range [0, 4)"),
            ("\n  \n", 1, "missing 'n m' header"),
        ]:
            with pytest.raises(ParseError) as info:
                parse_edge_list(text)
            assert (info.value.line, str(info.value)) == (line, f"line {line}: {message}")

    @given(graphs(max_n=8))
    def test_round_trip(self, g):
        assert parse_edge_list(serialize_edge_list(g)) == g

    @given(graphs(max_n=8))
    def test_rows_are_set_while_parsing(self, g):
        # Each parser hands its own rows to the graph; they must be the rows
        # the edges give.
        rows = Graph(g.vertex_count, g.edges).adjacency_masks
        assert parse_edge_list(serialize_edge_list(g)).adjacency_masks == rows
        assert parse_graph6(serialize_graph6(g)).adjacency_masks == rows

    @given(graphs(max_n=8))
    def test_serialize_idempotent_after_parse(self, g):
        text = serialize_edge_list(g)
        assert serialize_edge_list(parse_edge_list(text)) == text


class TestGraph6:
    def test_known_value_round_trip(self):
        # "D?{" decodes to a 5-vertex graph and re-encodes identically.
        g = parse_graph6("D?{")
        assert g.vertex_count == 5
        assert serialize_graph6(g) == "D?{"

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<D?{") == parse_graph6("D?{")

    def test_bad_character(self):
        with pytest.raises(ParseError, match="character"):
            parse_graph6("D?\x1f")

    def test_wrong_length(self):
        with pytest.raises(ParseError, match="needs"):
            parse_graph6("D?")

    def test_nonzero_padding(self):
        # 2 vertices need 1 bit; the remaining 5 bits must be zero.
        with pytest.raises(ParseError, match="padding"):
            parse_graph6("A" + chr(63 + 1))

    @given(graphs(max_n=9))
    def test_round_trip(self, g):
        assert parse_graph6(serialize_graph6(g)) == g

    def test_matches_reference_encoder(self):
        # The atlas and seeded G(n, p) graphs up to n = 140 cover every
        # padding residue and both sides of the n = 63 size-field switch.
        import random

        import networkx as nx

        rng = random.Random("g6-reference")
        cases = [(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), (4, [(0, 1), (2, 3)]), (1, []), (0, [])]
        cases += [(g.vertex_count, sorted(g.edges)) for g in small_graphs(7)]
        for n in range(8, 141):
            p = rng.choice([0.03, 0.2, 0.5, 0.9])
            cases.append((n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
        for n, edges in cases:
            g = Graph.from_edges(n, edges)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(edges)
            ref = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert serialize_graph6(g) == ref
            assert parse_graph6(ref) == g
            back = nx.from_graph6_bytes(serialize_graph6(g).encode())
            assert (back.number_of_nodes(), {tuple(sorted(e)) for e in back.edges()}) == (n, g.edges)

    def test_sparse_input_costs_about_its_length(self):
        # The body is not expanded into its n(n-1)/2 bits: the 2 MB graph6 of
        # a 5,000-cycle parses within a few times its own size, where the
        # expanded bits alone take about 100 MB.
        import tracemalloc

        text = serialize_graph6(Graph.cycle(5000))
        assert len(text) > 2_000_000
        tracemalloc.start()
        try:
            g = parse_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == Graph.cycle(5000)
        assert peak < 16 * 2**20

    def test_dense_input_costs_about_its_rows(self):
        # Each set bit goes into two adjacency rows and no edge tuple is kept:
        # the 19,900 edges of K_200 parse within 256 KB, where a set of their
        # tuples alone takes over 3 MB.
        import tracemalloc

        text = serialize_graph6(Graph.complete(200))
        tracemalloc.start()
        try:
            g = parse_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == Graph.complete(200)
        assert peak < 2**18

    def test_serialize_costs_about_its_length(self):
        # Each edge sets its bit in a buffer of 6-bit groups; the 1.3 MB
        # string of a 4,000-cycle is never spelled out as 8 million bits.
        import tracemalloc

        g = Graph.cycle(4000)
        g.adjacency_masks
        tracemalloc.start()
        try:
            text = serialize_graph6(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 4 + (4000 * 3999 // 2 + 5) // 6
        assert parse_graph6(text) == g
        assert peak < 8 * 2**20

    def test_long_size_encoding(self):
        # n >= 63 switches to the three-character size field.
        import random

        import networkx as nx

        rng = random.Random("g6-long")
        n = 70
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.05]
        g = Graph.from_edges(n, edges)
        text = serialize_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        assert text == nx.to_graph6_bytes(nxg, header=False).decode().strip()


class TestAutodetect:
    def test_dispatch(self):
        assert parse_graph("3 2\n0 1\n1 2") == Graph.path_graph(3)
        assert parse_graph(serialize_graph6(Graph.cycle(4))) == Graph.cycle(4)

    def test_first_non_empty_line_decides(self):
        # Leading blank lines are skipped, and any line break str.splitlines
        # knows ends the first line; nothing after that line is read.
        assert parse_graph("\n  \r\n" + serialize_graph6(Graph.cycle(4)) + "\n") == Graph.cycle(4)
        assert parse_graph("3 2\x0b0 1\x0b1 2") == Graph.path_graph(3)
        with pytest.raises(ParseError, match="invalid graph6 character"):
            parse_graph("C~\x0c1 2")

    def test_explicit_format(self):
        assert parse_graph("3 0", fmt="edgelist") == Graph(3)
        with pytest.raises(ParseError):
            parse_graph("3 0", fmt="nonsense")

    def test_serialize_dispatch(self):
        g = Graph.cycle(4)
        assert parse_graph(serialize_graph(g, "edgelist")) == g
        assert parse_graph(serialize_graph(g, "graph6")) == g


class TestRoots:
    def test_compact_syntax(self):
        assert parse_roots("a:1,2,3 b:0,4") == ((1, 2, 3), 0, 4)

    def test_m_zero(self):
        assert parse_roots("b:0,4") == ((), 0, 4)
        assert parse_roots("a: b:0,4") == ((), 0, 4)

    def test_json_syntax(self):
        assert parse_roots('{"a": [3, 1], "b1": 0, "b2": 2}') == ((3, 1), 0, 2)

    def test_bad_tokens(self):
        with pytest.raises(ParseError):
            parse_roots("a:1 c:2")
        with pytest.raises(ParseError):
            parse_roots("a:x b:0,1")
        with pytest.raises(ParseError):
            parse_roots("a:1")
        with pytest.raises(ParseError):
            parse_roots('{"a": [], "b1": 0}')

    @pytest.mark.parametrize(
        "text, token",
        [
            ("a:1,2 a:3 b:0,4", "a:"),
            ("b:0,4 b:5,6", "b:"),
            ("a: b:0,4 a:", "a:"),
            ("b:0,4 a:1 b:0,4", "b:"),
        ],
    )
    def test_repeated_token(self, text, token):
        # A second a: or b: would silently override the first.
        with pytest.raises(ParseError, match=f"repeated root token '{token}'"):
            parse_roots(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"a": "12", "b1": 0, "b2": 3}',
            '{"a": [1.7], "b1": 0, "b2": 3}',
            '{"a": [1], "b1": true, "b2": 3}',
            '{"a": [1], "b1": "0", "b2": 3}',
            '{"a": [1], "b1": 0, "b2": 3.0}',
        ],
    )
    def test_json_ids_must_be_integers(self, text):
        with pytest.raises(ParseError):
            parse_roots(text)

    def test_vertex_list(self):
        assert parse_vertex_list("") == ()
        assert parse_vertex_list("3,1,2") == (3, 1, 2)
        for text in ("x", "0,y", "1,", ","):
            with pytest.raises(ParseError):
                parse_vertex_list(text)
