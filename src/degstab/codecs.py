"""Graph serialization: graph6, whitespace edge lists and JSON.

graph6 is bit-exact: the order header is followed by the upper triangle of
the adjacency matrix read column by column, packed big-endian into 6-bit
groups, each offset by 63. Orders up to 258047 (the three-byte header form)
are supported; the eight-byte form is rejected as unsupported. Decoding is
strict: out-of-range bytes, wrong lengths and nonzero padding bits are all
parse errors carrying a byte offset.

The edge-list format is a "n m" header line followed by m lines "u v" with
0-indexed endpoints. JSON is {"order": n, "edges": [[u, v], ...]}.
"""

from __future__ import annotations

import json
import re

from .errors import InvalidParameterError, ParseError, UnsupportedError
from .graphs import Graph

FORMATS = ("graph6", "edge-list", "json")

_G6_MAX_ORDER = 258047
_G6_HEADER = ">>graph6<<"


def encode(g: Graph, fmt: str) -> str:
    if fmt == "graph6":
        return _encode_graph6(g)
    if fmt == "edge-list":
        return _encode_edge_list(g)
    if fmt == "json":
        return _encode_json(g)
    raise InvalidParameterError(f"unknown format {fmt!r}")


def decode(text: str, fmt: str) -> Graph:
    if fmt == "graph6":
        return _decode_graph6(text)
    if fmt == "edge-list":
        return _decode_edge_list(text)
    if fmt == "json":
        return _decode_json(text)
    raise InvalidParameterError(f"unknown format {fmt!r}")


def _pair_order(n: int):
    # Column order of the upper triangle: (0,1), (0,2), (1,2), (0,3), ...
    for j in range(1, n):
        for i in range(j):
            yield i, j


def _encode_graph6(g: Graph) -> str:
    n = g.order
    if n > _G6_MAX_ORDER:
        raise UnsupportedError(f"graph6 orders above {_G6_MAX_ORDER} are not supported")
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    chunks = []
    acc = 0
    nbits = 0
    for i, j in _pair_order(n):
        acc = (acc << 1) | ((g.adj[i] >> j) & 1)
        nbits += 1
        if nbits == 6:
            chunks.append(chr(63 + acc))
            acc = 0
            nbits = 0
    if nbits:
        chunks.append(chr(63 + (acc << (6 - nbits))))
    return head + "".join(chunks)


def _decode_graph6(text: str) -> Graph:
    base = 0
    if text.startswith(_G6_HEADER):
        base = len(_G6_HEADER)
        text = text[base:]
    body = text.rstrip("\r\n")
    if not body:
        raise ParseError("empty graph6 input", base)
    for i, ch in enumerate(body):
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"byte {ord(ch)} outside graph6 range", base + i)
    if body[0] != "~":
        n = ord(body[0]) - 63
        pos = 1
    elif len(body) >= 2 and body[1] == "~":
        raise UnsupportedError("graph6 eight-byte order header is not supported")
    else:
        if len(body) < 4:
            raise ParseError("truncated graph6 order header", base + len(body))
        n = 0
        for ch in body[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        if n <= 62:
            raise ParseError("non-canonical graph6 order header", base)
        if n > _G6_MAX_ORDER:
            raise UnsupportedError(f"graph6 orders above {_G6_MAX_ORDER} are not supported")
        pos = 4
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    have = len(body) - pos
    if have < need:
        raise ParseError("graph6 body too short", base + len(body))
    if have > need:
        raise ParseError("trailing bytes after graph6 body", base + pos + need)
    masks = [0] * n
    bit_index = 0
    pairs = _pair_order(n)
    for k in range(need):
        group = ord(body[pos + k]) - 63
        for b in range(5, -1, -1):
            if bit_index >= npairs:
                if (group >> b) & 1:
                    raise ParseError("nonzero padding bits", base + pos + k)
                continue
            if (group >> b) & 1:
                i, j = next(pairs)
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            else:
                next(pairs)
            bit_index += 1
    return Graph(n, tuple(masks))


def _encode_edge_list(g: Graph) -> str:
    lines = [f"{g.order} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _decode_edge_list(text: str) -> Graph:
    tokens = [(m.group(0), m.start()) for m in re.finditer(r"\S+", text)]
    end = len(text)

    def take(idx: int, what: str) -> tuple[int, int]:
        if idx >= len(tokens):
            raise ParseError(f"missing {what}", end)
        tok, off = tokens[idx]
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(f"{what} is not an integer: {tok!r}", off) from None
        return value, off

    n, off = take(0, "vertex count")
    if n < 0:
        raise ParseError("vertex count must be nonnegative", off)
    m, off = take(1, "edge count")
    if m < 0:
        raise ParseError("edge count must be nonnegative", off)
    if len(tokens) != 2 + 2 * m:
        if len(tokens) > 2 + 2 * m:
            raise ParseError("trailing tokens after edge list", tokens[2 + 2 * m][1])
        raise ParseError(f"expected {m} edges", end)
    seen = set()
    edges = []
    for e in range(m):
        u, off_u = take(2 + 2 * e, f"edge {e} endpoint")
        v, off_v = take(3 + 2 * e, f"edge {e} endpoint")
        if not 0 <= u < n:
            raise ParseError(f"endpoint {u} out of range", off_u)
        if not 0 <= v < n:
            raise ParseError(f"endpoint {v} out of range", off_v)
        if u == v:
            raise ParseError(f"self-loop at {u}", off_u)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge {u}-{v}", off_u)
        seen.add(key)
        edges.append(key)
    return Graph.from_edges(n, edges)


def _encode_json(g: Graph) -> str:
    return json.dumps(
        {"order": g.order, "edges": [list(e) for e in g.edges()]},
        sort_keys=True,
        separators=(",", ":"),
    )


def _decode_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from None
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object", 0)
    if set(data) != {"order", "edges"}:
        raise ParseError('JSON object must have exactly the keys "order" and "edges"', 0)
    n = data["order"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError('"order" must be a nonnegative integer', 0)
    raw = data["edges"]
    if not isinstance(raw, list):
        raise ParseError('"edges" must be a list', 0)
    seen = set()
    edges = []
    for e in raw:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        ):
            raise ParseError(f"edge {e!r} must be a pair of integers", 0)
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge {u}-{v} out of range", 0)
        if u == v:
            raise ParseError(f"self-loop at {u}", 0)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge {u}-{v}", 0)
        seen.add(key)
        edges.append(key)
    return Graph.from_edges(n, edges)
