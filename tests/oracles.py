"""Tiny independent oracles used to derive expected test values.

Everything here enumerates the full search space through the public Graph
API only, sharing no machinery with the package's solvers. Keep these slow
and obviously correct.

``graph6`` and ``decode_graph6`` work from the format's definition, the
decoder raising what the package's decoder raises. ``graph6_by_chunks`` is
the package's earlier encoder, one "0"/"1" character per pair cut into
6-character chunks, kept as a faster second reference for large orders.

The exception is the pair of reference kernels at the end,
``reference_hom_search`` and ``reference_odd_girth``. They are the plain
per-bit and per-state formulations of the bitset kernels in
``degstab._purecore`` and must return exactly what those return, search
node counts and witnesses included. The reference search probes with its
own singleton-arc-consistency closure, restarted round by round, where the
kernels sweep cyclically; the closure is unique, so the two must agree.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import deque

from degstab import Graph
from degstab.errors import ParseError, UnsupportedError


def edge_set(g: Graph) -> set[tuple[int, int]]:
    out = set()
    for u, v in g.edges():
        out.add((u, v))
        out.add((v, u))
    return out


def hom_exists(pattern: Graph, target: Graph) -> bool:
    if pattern.order == 0:
        return True
    if target.order == 0:
        return False
    edges = pattern.edges()
    allowed = edge_set(target)
    for phi in itertools.product(range(target.order), repeat=pattern.order):
        if all((phi[u], phi[v]) in allowed for u, v in edges):
            return True
    return False


def is_k_colorable(g: Graph, k: int) -> bool:
    if g.order == 0:
        return True
    if k <= 0:
        return False
    edges = g.edges()
    for coloring in itertools.product(range(k), repeat=g.order):
        if all(coloring[u] != coloring[v] for u, v in edges):
            return True
    return False


def find_proper_coloring(g: Graph, k: int):
    edges = g.edges()
    for coloring in itertools.product(range(k), repeat=g.order):
        if all(coloring[u] != coloring[v] for u, v in edges):
            return coloring
    return None


def chromatic_number(g: Graph) -> int:
    k = 0
    while not is_k_colorable(g, k):
        k += 1
    return k


def odd_girth(g: Graph):
    allowed = edge_set(g)
    for length in range(3, g.order + 1, 2):
        for subset in itertools.combinations(range(g.order), length):
            first = subset[0]
            for perm in itertools.permutations(subset[1:]):
                cyc = (first,) + perm
                if all(
                    (cyc[i], cyc[(i + 1) % length]) in allowed for i in range(length)
                ):
                    return length
    return None


def locally_bipartite(g: Graph, a: int):
    """(True, None), or (False, the first a-clique in lex order whose common
    neighbourhood is not 2-colourable)."""
    for clique in itertools.combinations(range(g.order), a):
        if not all(g.has_edge(u, v) for u, v in itertools.combinations(clique, 2)):
            continue
        common = [w for w in range(g.order) if all(g.has_edge(v, w) for v in clique)]
        if not is_k_colorable(g.induced(common), 2):
            return False, clique
    return True, None


def graph6(g: Graph) -> str:
    """graph6 from its definition, one pair at a time: the order byte (or
    "~" and three 6-bit bytes above 62), then the pairs (i, j), i < j, in
    column order, six bits to a byte with the most significant bit first,
    zero-padded to a whole byte, every byte offset by 63."""
    n = g.order
    head = [n] if n <= 62 else [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    bits = [int(g.has_edge(i, j)) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        sum(bit << (5 - k) for k, bit in enumerate(bits[start : start + 6]))
        for start in range(0, len(bits), 6)
    ]
    return "".join(chr(63 + b) for b in head + body)


_G6_BYTE = {format(b, "06b"): chr(63 + b) for b in range(64)}


def graph6_by_chunks(g: Graph) -> str:
    """graph6 as one string of n(n-1)/2 "0"/"1" characters, column j being
    bits 0..j-1 of vertex j's mask, cut into 6-character chunks."""
    n = g.order
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    bits = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(map(_G6_BYTE.__getitem__, re.findall(".{6}", bits)))


def decode_graph6(text: str) -> Graph:
    """graph6 decoding from its definition, one byte and one pair at a time.

    An optional ">>graph6<<" header and trailing line breaks are dropped.
    Then, in this order, each failure raising at its offset in ``text``:
    no body; a byte outside 63..126 (the first one); the eight-byte order
    form (unsupported); a three-byte order form cut short, below 63, or
    above 258047 (unsupported); a body shorter or longer than the pairs
    need; a set padding bit (at its byte)."""
    base = 0
    if text.startswith(">>graph6<<"):
        base = 10
        text = text[base:]
    body = text.rstrip("\r\n")
    if not body:
        raise ParseError("empty graph6 input", base)
    values = []
    for i, ch in enumerate(body):
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"byte {ord(ch)} outside graph6 range", base + i)
        values.append(ord(ch) - 63)
    if values[0] < 63:
        n, pos = values[0], 1
    elif len(values) > 1 and values[1] == 63:
        raise UnsupportedError("graph6 eight-byte order header is not supported")
    elif len(values) < 4:
        raise ParseError("truncated graph6 order header", base + len(values))
    else:
        n, pos = values[1] * 64 * 64 + values[2] * 64 + values[3], 4
        if n <= 62:
            raise ParseError("non-canonical graph6 order header", base)
        if n > 258047:
            raise UnsupportedError("graph6 orders above 258047 are not supported")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(values) - pos < need:
        raise ParseError("graph6 body too short", base + len(values))
    if len(values) - pos > need:
        raise ParseError("trailing bytes after graph6 body", base + pos + need)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = []
    for k in range(6 * need):
        if (values[pos + k // 6] >> (5 - k % 6)) & 1:
            if k >= len(pairs):
                raise ParseError("nonzero padding bits", base + pos + k // 6)
            edges.append(pairs[k])
    return Graph.from_edges(n, edges)


def min_edits_to_k_partite(g: Graph, k: int) -> int:
    edges = g.edges()
    best = None
    for labels in itertools.product(range(k), repeat=g.order):
        cost = sum(1 for u, v in edges if labels[u] == labels[v])
        if best is None or cost < best:
            best = cost
    return 0 if best is None else best


def max_clique_size(g: Graph) -> int:
    best = 0
    for size in range(g.order, 0, -1):
        for subset in itertools.combinations(range(g.order), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                return size
    return best


def orbits(g: Graph, fixed: tuple[int, ...] = ()) -> list[set[int]]:
    """Orbits of the automorphisms fixing each vertex in ``fixed``, found by
    trying all order! permutations (keep the order at most 7)."""
    edges = edge_set(g)
    autos = [
        perm
        for perm in itertools.permutations(range(g.order))
        if all(perm[x] == x for x in fixed)
        and all((perm[u], perm[v]) in edges for u, v in edges)
    ]
    out: list[set[int]] = []
    for v in range(g.order):
        if not any(v in orbit for orbit in out):
            out.append({perm[v] for perm in autos})
    return out


def random_graph(rng: random.Random, order: int, p: float) -> Graph:
    edges = []
    for j in range(1, order):
        for i in range(j):
            if rng.random() < p:
                edges.append((i, j))
    return Graph.from_edges(order, edges)


def exhaustive_graphs(max_order: int):
    """Every labelled graph on 0..max_order vertices, by order and then by
    edge mask, bit k of the mask being the k-th pair (i, j), i < j, in
    order of j and then i."""
    for n in range(max_order + 1):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        for mask in range(1 << len(pairs)):
            yield Graph.from_edges(n, [pair for k, pair in enumerate(pairs) if mask >> k & 1])


def twin_reduction(adj):
    """``(reduced adjacency, kept vertices, representative map)``: the
    least vertex of each neighbourhood is kept, the reduced graph is the
    one induced on the kept vertices, and each vertex maps to the position
    of its kept twin."""
    kept = [v for v in range(len(adj)) if adj.index(adj[v]) == v]
    reduced = tuple(
        sum(1 << i for i, u in enumerate(kept) if adj[v] >> u & 1) for v in kept
    )
    rep = tuple(kept.index(adj.index(adj[v])) for v in range(len(adj)))
    return reduced, tuple(kept), rep


def valid_adjacency(order, adj) -> bool:
    """Whether ``Graph(order, adj)`` should be accepted, from the definition
    of a simple graph: order a nonnegative int (not a bool), one int row
    per vertex, every row bit naming a vertex, and then, one pair u <= v at
    a time, no self-loop and u in row v exactly when v in row u."""
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        return False
    if len(adj) != order or not all(isinstance(row, int) for row in adj):
        return False
    if any(row < 0 or row >= 2**order for row in adj):
        return False
    for v in range(order):
        for u in range(v + 1):
            v_sees_u = (adj[v] >> u) & 1 == 1
            if v_sees_u and u == v:
                return False
            if v_sees_u != ((adj[u] >> v) & 1 == 1):
                return False
    return True


def mycielskian(base: Graph, k: int) -> Graph:
    """Generalized Mycielskian M_k(base), labelled layer by layer.

    Layer i occupies vertices i*n..i*n+n-1; layer 0 is a copy of the base,
    (u, i) is joined to (v, i+1) for every base edge uv, and a final apex
    is joined to the whole of layer k.
    """
    n = base.order
    edges = list(base.edges())
    for i in range(k):
        for u, v in base.edges():
            edges += [(i * n + u, (i + 1) * n + v), (i * n + v, (i + 1) * n + u)]
    apex = (k + 1) * n
    edges += [(k * n + v, apex) for v in range(n)]
    return Graph.from_edges(apex + 1, edges)


# Triangle-free patterns of at least this order are probed by
# reference_hom_search, with this many values to probe per node spent.
REFERENCE_PROBE_ORDER = 15
REFERENCE_PROBE_BUDGET = 2


def reference_hom_search(p_adj, t_adj, probe=True):
    """``hom_search`` with arc revision done one target value at a time.

    Same contract, variable order and value order as the kernel: smallest
    live domain first (lowest index on ties), values ascending, and
    arc-consistency propagation after every assignment. When ``probe`` is
    true and the pattern is triangle-free with at least
    ``REFERENCE_PROBE_ORDER`` vertices, a node other than the root whose
    first value failed, with values left, first narrows the domains to
    their singleton-arc-consistency closure (``_reference_sac``) and keeps
    only the values of the branching vertex that survive it, provided the
    unassigned vertices with two or more values have at most
    ``REFERENCE_PROBE_BUDGET`` values for each node, its own included, that
    the failed value took.
    """
    n_p = len(p_adj)
    n_t = len(t_adj)
    if n_p == 0:
        return (), 0
    if n_t == 0:
        return None, 0
    dom = [(1 << n_t) - 1] * n_p
    if not _reference_propagate(dom, p_adj, t_adj, (1 << n_p) - 1):
        return None, 0
    nodes = [0]
    triangle = any(
        p_adj[u] >> v & p_adj[v] >> w & p_adj[u] >> w & 1
        for u in range(n_p)
        for v in range(u + 1, n_p)
        for w in range(v + 1, n_p)
    )
    probe = probe and n_p >= REFERENCE_PROBE_ORDER and not triangle
    mapping = _reference_assign(dom, p_adj, t_adj, 0, nodes, probe)
    return mapping, nodes[0]


def _reference_propagate(dom, p_adj, t_adj, dirty):
    # Worklist of pattern vertices whose domain changed; revising u against
    # v keeps only u-values with a neighbour inside dom[v].
    while dirty:
        v = (dirty & -dirty).bit_length() - 1
        dirty &= dirty - 1
        dv = dom[v]
        nbrs = p_adj[v]
        while nbrs:
            u = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            du = dom[u]
            nd = 0
            rest = du
            while rest:
                bit = rest & -rest
                rest ^= bit
                if t_adj[bit.bit_length() - 1] & dv:
                    nd |= bit
            if nd != du:
                if not nd:
                    return False
                dom[u] = nd
                dirty |= 1 << u
    return True


def _reference_sac(dom, p_adj, t_adj, assigned):
    """Narrow dom to its singleton-arc-consistency closure over the vertices
    not in ``assigned``, from the definition: a value x of such a vertex u is
    removed when u = x, propagated, empties a domain; the removal is then
    propagated, and every vertex and value is tried again, until one full
    round removes nothing. Returns False when a domain empties."""
    n_p = len(dom)
    changed = True
    while changed:
        changed = False
        for u in range(n_p):
            if assigned >> u & 1:
                continue
            for x in range(len(t_adj)):
                if not dom[u] >> x & 1 or dom[u] == 1 << x:
                    continue
                trial = list(dom)
                trial[u] = 1 << x
                if not _reference_propagate(trial, p_adj, t_adj, 1 << u):
                    dom[u] &= ~(1 << x)
                    if not _reference_propagate(dom, p_adj, t_adj, 1 << u):
                        return False
                    changed = True
    return True


def _reference_assign(dom, p_adj, t_adj, assigned, nodes, probe):
    n_p = len(dom)
    all_mask = (1 << n_p) - 1
    if assigned == all_mask:
        return tuple((d & -d).bit_length() - 1 for d in dom)
    best_v = -1
    best_size = 1 << 62
    rest = all_mask & ~assigned
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        size = dom[v].bit_count()
        if size < best_size:
            best_size = size
            best_v = v
    v = best_v
    vals = dom[v]
    start = nodes[0]
    first = True
    while vals:
        bit = vals & -vals
        vals ^= bit
        nodes[0] += 1
        saved = dom[:]
        dom[v] = bit
        if _reference_propagate(dom, p_adj, t_adj, 1 << v):
            result = _reference_assign(dom, p_adj, t_adj, assigned | (1 << v), nodes, probe)
            if result is not None:
                return result
        dom[:] = saved
        if probe and assigned and first and vals:
            sizes = [dom[u].bit_count() for u in range(n_p) if not assigned >> u & 1]
            sweep = sum(size for size in sizes if size > 1)
            if sweep <= REFERENCE_PROBE_BUDGET * (nodes[0] - start):
                if not _reference_sac(dom, p_adj, t_adj, assigned):
                    return None
                vals &= dom[v]
        first = False
    return None


def reference_odd_girth(adj):
    """``odd_girth`` as a per-state BFS on the parity double cover.

    The shortest odd closed walk through any vertex is attained by an odd
    cycle, and every odd cycle is such a walk. Returns 0 when there is none.
    """
    n = len(adj)
    best = 0
    for s in range(n):
        dist = [-1] * (2 * n)
        dist[2 * s] = 0
        q = deque([2 * s])
        while q:
            state = q.popleft()
            v, p = state >> 1, state & 1
            d = dist[state]
            m = adj[v]
            while m:
                b = m & -m
                m ^= b
                nxt = ((b.bit_length() - 1) << 1) | (p ^ 1)
                if dist[nxt] < 0:
                    dist[nxt] = d + 1
                    q.append(nxt)
        cand = dist[2 * s + 1]
        if cand > 0 and (best == 0 or cand < best):
            best = cand
    return best
