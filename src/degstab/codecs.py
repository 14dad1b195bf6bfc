"""Graph serialization: graph6, whitespace edge lists and JSON.

graph6 is bit-exact: the order header is followed by the upper triangle of
the adjacency matrix read column by column, packed big-endian into 6-bit
groups, each offset by 63. That is base64 with another alphabet, so both
directions go through ``binascii``: the encoder writes the triangle, column
j being bits 0..j-1 of vertex j's mask, as "0"/"1" strings of whole 24-bit
groups, about 6 KB of output at a time, turns each into bytes with
``int.to_bytes``, base64-encodes them and maps the alphabet with one
``bytes.translate``; the decoder maps the alphabet back, base64-decodes the
body and reads the triangle from ``int.from_bytes``, mirroring it with one
strided slice per vertex. Orders up to 258047 (the three-byte header form)
are supported; the eight-byte form is rejected as unsupported. Decoding is
strict: out-of-range bytes, wrong lengths and nonzero padding bits are all
parse errors carrying a byte offset.

The edge-list format is a "n m" header line followed by m lines "u v" with
0-indexed endpoints. JSON is {"order": n, "edges": [[u, v], ...]}. Both
decoders refuse orders above graph6's bound as unsupported, so a short
header cannot ask for an arbitrarily large graph. Output JSON, here and in
the result and report types, is written by ``dump_json`` alone.

``_CODECS`` is the one table of formats: each one's name, its short name
(the CLI's ``--format`` value and the file suffix the CLI infers it from),
its encoder and its decoder.
"""

from __future__ import annotations

import binascii
import json
import re

from .errors import InvalidParameterError, ParseError, UnsupportedError
from .graphs import Graph, _is_int

_G6_MAX_ORDER = 258047
_G6_HEADER = ">>graph6<<"
# The 6-bit value v is base64's v-th letter and graph6's chr(63 + v).
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_FROM_BASE64 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_BASE64_FROM_G6 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
# Bits of the triangle encoded at a time: whole 24-bit groups, so that the
# encoder's working strings stay small next to its output.
_G6_CHUNK_BITS = 24 * 2048


def encode(g: Graph, fmt: str) -> str:
    return _codec(fmt)[1](g)


def decode(text: str, fmt: str) -> Graph:
    return _codec(fmt)[2](text)


def _codec(fmt: str):
    try:
        return _CODECS[fmt]
    except (KeyError, TypeError):  # TypeError: fmt is unhashable
        raise InvalidParameterError(f"unknown format {fmt!r}") from None


def _encode_graph6(g: Graph) -> str:
    n = g.order
    if n > _G6_MAX_ORDER:
        raise UnsupportedError(f"graph6 orders above {_G6_MAX_ORDER} are not supported")
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    need = (n * (n - 1) // 2 + 5) // 6
    # Room for the last 24-bit group whole; its padding characters are cut.
    out = bytearray(len(head) + -(-need // 4) * 4)
    out[: len(head)] = head.encode("ascii")
    pos = len(head)
    for bits in _triangle_groups(g.adj):
        end = pos + len(bits) // 6
        raw = int(bits, 2).to_bytes(len(bits) // 8, "big")
        out[pos:end] = binascii.b2a_base64(raw, newline=False).translate(_G6_FROM_BASE64)
        pos = end
    del out[len(head) + need :]
    return out.decode("ascii")


def _triangle_groups(adj: tuple[int, ...]):
    """The upper triangle in column order as "0"/"1" strings of whole 24-bit
    groups, about ``_G6_CHUNK_BITS`` at a time, the last one zero-padded."""
    top = 1 << len(adj)
    row, digits = None, ""
    columns, held = [], 0
    for j in range(1, len(adj)):
        if adj[j] != row:  # a blow-up class shares one row
            row = adj[j]
            digits = bin(row | top)
        # Column j is the pairs (0, j), ..., (j - 1, j): bits 0..j-1 of
        # adj[j], the last j binary digits read backwards.
        columns.append(digits[: -j - 1 : -1])
        held += j
        if held >= _G6_CHUNK_BITS:
            bits = "".join(columns)
            cut = held - held % 24
            yield bits[:cut]
            columns, held = [bits[cut:]], held - cut
    if held:
        yield "".join(columns) + "0" * (-held % 24)


def _decode_graph6(text: str) -> Graph:
    base = 0
    if text.startswith(_G6_HEADER):
        base = len(_G6_HEADER)
        text = text[base:]
    body = text.rstrip("\r\n")
    if not body:
        raise ParseError("empty graph6 input", base)
    bad = re.search("[^?-~]", body)  # compiled on first use, not at import
    if bad:
        raise ParseError(f"byte {ord(bad.group())} outside graph6 range", base + bad.start())
    if body[0] != "~":
        n = ord(body[0]) - 63
        pos = 1
    elif len(body) >= 2 and body[1] == "~":
        # Any other second byte is the three-byte form, whose largest order,
        # "~}~~", is 62 * 4096 + 4095 = _G6_MAX_ORDER: the one order check.
        raise UnsupportedError("graph6 eight-byte order header is not supported")
    else:
        if len(body) < 4:
            raise ParseError("truncated graph6 order header", base + len(body))
        n = 0
        for ch in body[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        if n <= 62:
            raise ParseError("non-canonical graph6 order header", base)
        pos = 4
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    have = len(body) - pos
    if have < need:
        raise ParseError("graph6 body too short", base + len(body))
    if have > need:
        raise ParseError("trailing bytes after graph6 body", base + pos + need)
    # "?" is graph6's zero: pad the body to whole base64 quads.
    padded = (body[pos:] + "?" * (-need % 4)).encode("ascii").translate(_BASE64_FROM_G6)
    bits = format(int.from_bytes(binascii.a2b_base64(padded), "big"), f"0{6 * len(padded)}b")
    pad = bits.find("1", npairs)
    if pad >= 0:
        raise ParseError("nonzero padding bits", base + pos + pad // 6)
    # Row j of the square is column j, the pairs (0, j)..(j - 1, j), padded
    # to n characters: row i holds vertex i's neighbours below it and
    # column i, a strided slice, those above it.
    square = "".join(bits[j * (j - 1) // 2 : j * (j + 1) // 2].ljust(n, "0") for j in range(n))
    masks = [int(square[i * n : (i + 1) * n][::-1], 2) | int(square[i::n][::-1], 2) for i in range(n)]
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

    def pairs():
        for e in range(m):
            u, off_u = take(2 + 2 * e, f"edge {e} endpoint")
            v, off_v = take(3 + 2 * e, f"edge {e} endpoint")
            yield u, v, off_u, off_v

    return _from_pairs(n, pairs())


def _encode_json(g: Graph) -> str:
    return dump_json({"order": g.order, "edges": [list(e) for e in g.edges()]})


def dump_json(value) -> str:
    """value as compact JSON with sorted keys: the one form of every JSON
    output, so equal values print byte-identical text."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def parse_json(text: str):
    """The JSON value of text, with malformed or too deeply nested input
    reported as a ParseError rather than a decoder exception."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.pos) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", 0) from None


def _decode_json(text: str) -> Graph:
    data = parse_json(text)
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object", 0)
    if set(data) != {"order", "edges"}:
        raise ParseError('JSON object must have exactly the keys "order" and "edges"', 0)
    n = data["order"]
    if not _is_int(n) or n < 0:
        raise ParseError('"order" must be a nonnegative integer', 0)
    raw = data["edges"]
    if not isinstance(raw, list):
        raise ParseError('"edges" must be a list', 0)
    for e in raw:
        if not isinstance(e, list) or len(e) != 2 or not all(map(_is_int, e)):
            raise ParseError(f"edge {e!r} must be a pair of integers", 0)
    return _from_pairs(n, ((u, v, 0, 0) for u, v in raw))


def _from_pairs(n: int, pairs) -> Graph:
    """The graph of order ``n`` on edges given as ``(u, v, offset of u,
    offset of v)``; an out-of-range endpoint, a self-loop or a repeated
    edge is a parse error at its offset. Orders above graph6's bound are
    refused before anything is allocated."""
    if n > _G6_MAX_ORDER:
        raise UnsupportedError(f"orders above {_G6_MAX_ORDER} are not supported")
    masks = [0] * n
    for u, v, off_u, off_v in pairs:
        if not 0 <= u < n:
            raise ParseError(f"endpoint {u} out of range", off_u)
        if not 0 <= v < n:
            raise ParseError(f"endpoint {v} out of range", off_v)
        if u == v:
            raise ParseError(f"self-loop at {u}", off_u)
        if (masks[u] >> v) & 1:
            raise ParseError(f"duplicate edge {u}-{v}", off_u)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, tuple(masks))


# Each format's short name, which is both its --format value on the command
# line and its file suffix, then its encoder and its decoder.
_CODECS = {
    "graph6": ("g6", _encode_graph6, _decode_graph6),
    "edge-list": ("edges", _encode_edge_list, _decode_edge_list),
    "json": ("json", _encode_json, _decode_json),
}
FORMATS = tuple(_CODECS)
SHORT_NAMES = {short: fmt for fmt, (short, _, _) in _CODECS.items()}
