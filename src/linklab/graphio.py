"""Graph serialization: edge-list text, graph6, and root-tuple parsing.

Edge-list format: a header line ``n m`` followed by ``m`` lines ``u v`` with
``0 <= u < v < n``.  graph6 is the standard printable-ASCII encoding, one
graph per line; the optional ``>>graph6<<`` header is accepted and stripped.
Both parsers build the adjacency rows as they read, and the graph6 codec
works on those rows in both directions.

Root tuples are given either as ``a:1,2,3 b:0,4`` (the ``a:`` part may be
omitted when m = 0) or as JSON ``{"a": [...], "b1": ..., "b2": ...}``.
"""

from __future__ import annotations

import json
import re
from math import isqrt

from .errors import ParseError
from .graphs import Graph

_G6_HEADER = ">>graph6<<"
_G6_INVALID = re.compile("[^?-~]")  # graph6 characters run from chr(63) to chr(126)
_G6_SET = re.compile("[^?]")  # a body character with at least one bit set
_G6_CHARS = bytes.maketrans(bytes(range(64)), bytes(range(63, 127)))  # 6-bit group -> character
_G6_GROUPS = bytes.maketrans(bytes(range(63, 127)), bytes(range(64)))  # character -> 6-bit group
# The characters str.splitlines breaks lines at.
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")

# The largest graph either parser accepts, checked before any per-edge work:
# the vertex count on the size field or header, the edge count on the
# edge-list header or on the set bits of a graph6 body.
MAX_VERTICES = 100_000
MAX_EDGES = 1_000_000


def parse_edge_list(text: str) -> Graph:
    """The graph of an edge list, with the adjacency rows set while parsing."""
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not numbered:
        raise ParseError("missing 'n m' header", line=1)
    (at, header), body = numbered[0], numbered[1:]  # the header is the first non-blank line
    head = header.split()
    if len(head) != 2:
        raise ParseError(f"expected header 'n m', got {header!r}", line=at)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"non-integer header fields in {header!r}", line=at) from None
    if n < 0 or m < 0:
        raise ParseError("header counts must be non-negative", line=at)
    if n > MAX_VERTICES:
        raise ParseError(f"header declares {n} vertices, above the limit {MAX_VERTICES}", line=at)
    if m > MAX_EDGES:
        raise ParseError(f"header declares {m} edges, above the limit {MAX_EDGES}", line=at)
    if len(body) != m:
        raise ParseError(f"header promises {m} edges but {len(body)} edge lines found", line=at)
    rows = [0] * n
    for lineno, ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {ln!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id in {ln!r}", line=lineno) from None
        if not 0 <= u < n:
            raise ParseError(f"vertex {u} out of range [0, {n})", line=lineno)
        if not 0 <= v < n:
            raise ParseError(f"vertex {v} out of range [0, {n})", line=lineno)
        if u >= v:
            raise ParseError(f"edge endpoints must satisfy u < v, got {u} {v}", line=lineno)
        if rows[u] >> v & 1:
            raise ParseError(f"duplicate edge {u} {v}", line=lineno)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph.with_rows(n, tuple(rows))


def serialize_edge_list(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def _g6_encode_size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0))
    raise ParseError(f"graph too large for this encoder: {n} vertices")


def serialize_graph6(g: Graph) -> str:
    """The graph6 string of ``g``: each edge sets its bit of the upper triangle, read column
    by column, in a buffer of 6-bit groups; no string of the n(n-1)/2 bits is built."""
    n, rows = g.vertex_count, g.adjacency_masks
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for v in range(1, n):
        column = rows[v] & ((1 << v) - 1)
        while column:  # bit u of row v, u < v, is bit v(v-1)/2 + u of the triangle
            low = column & -column
            column ^= low
            k = v * (v - 1) // 2 + low.bit_length() - 1
            body[k // 6] |= 32 >> k % 6
    return _g6_encode_size(n) + body.translate(_G6_CHARS).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """The graph of a graph6 string, with the adjacency rows set while parsing.  Only body
    characters with a bit set are visited, so a sparse graph costs about its string's length."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :].strip()
    if not s:
        raise ParseError("empty graph6 string", line=1)
    bad = _G6_INVALID.search(s)
    if bad:
        raise ParseError(f"invalid graph6 character {bad.group()!r}", line=1)
    # The size field is one character, "~" and three, or "~~" and six, each 6 bits of n.
    start, body = (2, 8) if s.startswith("~~") else (1, 4) if s[0] == "~" else (0, 1)
    if len(s) < body:
        raise ParseError("truncated graph6 size field", line=1)
    n = 0
    for ch in s[start:body]:
        n = n << 6 | ord(ch) - 63
    if n > MAX_VERTICES:
        raise ParseError(f"graph6 size field declares {n} vertices, above the limit {MAX_VERTICES}", line=1)
    nbits = n * (n - 1) // 2
    expected, got = (nbits + 5) // 6, len(s) - body
    if got != expected:
        raise ParseError(f"graph6 body for {n} vertices needs {expected} characters, got {got}", line=1)
    if expected and (ord(s[-1]) - 63) & ((1 << (6 * expected - nbits)) - 1):
        raise ParseError("nonzero padding bits in graph6 body", line=1)
    if nbits > MAX_EDGES:  # the body may hold too many edges: count its set bits in one pass
        m = int.from_bytes(s[body:].encode("ascii").translate(_G6_GROUPS), "big").bit_count()
        if m > MAX_EDGES:
            raise ParseError(f"graph6 body holds {m} edges, above the limit {MAX_EDGES}", line=1)
    rows = [0] * n
    for char in _G6_SET.finditer(s, body):
        group, last = ord(char.group()) - 63, 6 * (char.start() - body) + 5
        while group:  # bit j of the group, counted from the low end, is bit last - j of the triangle
            low = group & -group
            group ^= low
            k = last + 1 - low.bit_length()
            v = (1 + isqrt(8 * k + 1)) // 2  # column v holds bits v(v-1)/2 .. v(v+1)/2 - 1
            u = k - v * (v - 1) // 2
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph.with_rows(n, tuple(rows))


def parse_graph(text: str, fmt: str | None = None) -> Graph:
    """Parse either format; auto-detects when ``fmt`` is None.

    graph6 strings never contain spaces, so input whose first non-empty
    line holds a space or a tab is treated as an edge list; no other line
    decides.
    """
    if fmt == "edgelist":
        return parse_edge_list(text)
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt is not None:
        raise ParseError(f"unknown graph format {fmt!r}")
    stripped = text.strip()
    end = _LINE_BREAK.search(stripped)
    first = stripped[: end.start()] if end else stripped
    if " " in first.strip() or "\t" in first:
        return parse_edge_list(text)
    return parse_graph6(text)


def serialize_graph(g: Graph, fmt: str = "edgelist") -> str:
    if fmt == "edgelist":
        return serialize_edge_list(g)
    if fmt == "graph6":
        return serialize_graph6(g)
    raise ParseError(f"unknown graph format {fmt!r}")


def parse_vertex_list(text: str) -> tuple[int, ...]:
    """Comma-separated vertex ids such as ``1,2,3``; the empty string gives ``()``."""
    try:
        return tuple(int(v) for v in text.split(",")) if text else ()
    except ValueError:
        raise ParseError(f"non-integer vertex id in {text!r}") from None


def parse_roots(text: str) -> tuple[tuple[int, ...], int, int]:
    """Parse a root tuple; returns ``(a_set, b1, b2)``.

    Accepts ``a:1,2,3 b:0,4`` (``a:`` optional) or JSON with keys
    ``a`` (a list, optional), ``b1`` and ``b2``, whose vertex ids must be
    JSON integers.
    """
    s = text.strip()
    if s.startswith("{"):
        try:
            obj = json.loads(s)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON root tuple: {exc}") from None
        a = obj.get("a", [])
        if not isinstance(a, list) or "b1" not in obj or "b2" not in obj:
            raise ParseError('JSON root tuple needs keys "b1", "b2" and an optional list "a"')
        if any(type(v) is not int for v in (*a, obj["b1"], obj["b2"])):
            raise ParseError(f"non-integer vertex id in JSON root tuple {s!r}")
        return tuple(a), obj["b1"], obj["b2"]
    a: tuple[int, ...] | None = None
    b: tuple[int, ...] | None = None
    for token in s.split():
        if token.startswith("a:"):
            if a is not None:
                raise ParseError(f"repeated root token 'a:' in {s!r}")
            a = parse_vertex_list(token[2:])
        elif token.startswith("b:"):
            if b is not None:
                raise ParseError(f"repeated root token 'b:' in {s!r}")
            b = parse_vertex_list(token[2:])
            if len(b) != 2:
                raise ParseError(f"expected b:<b1>,<b2>, got {token!r}")
        else:
            raise ParseError(f"unrecognized root token {token!r}")
    if b is None:
        raise ParseError("root tuple must include b:<b1>,<b2>")
    return a or (), b[0], b[1]
