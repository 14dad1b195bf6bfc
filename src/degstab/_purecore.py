"""Pure-Python search kernels.

These are the hot inner loops of the package: homomorphism backtracking,
exact coloring and odd-girth BFS. A compiled twin (``degstab._fastcore``,
plain C) implements the same three kernels, ``hom_search``,
``color_search`` and ``odd_girth``, with identical semantics and identical
tie-breaking; :mod:`degstab.backend` picks one for each call. Keep the two
in lock-step: the test suite compares their outputs bit for bit.

All functions take adjacency as a sequence of integer bitmasks, one per
vertex (bit ``u`` of ``adj[v]`` is set iff ``uv`` is an edge). The adjacency
must be symmetric and loop-free, as :class:`degstab.graphs.Graph` guarantees:
``hom_search`` and ``odd_girth`` work on whole vertex masks and rely on it.
The functions are pure and place no upper bound on the order; the compiled
twin handles orders up to 64.
"""

from __future__ import annotations

__all__ = ["hom_search", "color_search", "odd_girth"]

# hom_search probes (see there) only for triangle-free patterns of at least
# PROBE_ORDER vertices, with at most PROBE_BUDGET values to probe for each
# node that the failed first value took.
PROBE_ORDER = 15
PROBE_BUDGET = 2


def hom_search(p_adj, t_adj, minima=None):
    """Search for an edge-preserving map from pattern to target.

    Returns ``(mapping, nodes)``: ``mapping`` is a tuple over pattern
    vertices, or None if an exhaustive search proves there is no
    homomorphism; ``nodes`` counts attempted assignments.

    Backtracking with arc-consistency propagation after every assignment.
    Variable order: smallest live domain, lowest index on ties. Value
    order: ascending. Fully deterministic.

    Probing: a node below the root whose first value has failed, with
    values left, may narrow the domains to their singleton-arc-consistency
    closure over the vertices not yet branched on. Each value x of each
    such domain of two or more values is assigned and propagated; if a
    domain wipes out, x is removed and the removal propagated; this repeats
    until nothing changes. A wipe-out ends the node, and otherwise only the
    branching vertex's surviving values are tried. This is exact, since a
    value is removed only when it has no extension, and the closure is
    unique, so the order of the probes does not change it. Probes are not
    counted in ``nodes``. A node probes only if the pattern is triangle-free
    with at least ``PROBE_ORDER`` vertices, and the domains to probe hold at
    most ``PROBE_BUDGET`` values for each node its first value took: a sweep
    then costs a bounded multiple of what the node has already spent,
    since a probe costs about what a node does. Deep refutations of
    Mycielskian-like patterns pay for it; on random patterns, triangles or
    not, ungated probing was several times slower (BENCH_probing.json).
    Each test reads the pattern or the node's own subtree, never nodes
    spent elsewhere, so a subtree's search depends on its domains alone,
    as the argument below needs; the root, whose first subtree holds the
    cuts of the level below, does not probe.

    ``minima``, if given, maps a mask F of target vertices to the mask of
    the least vertex of each orbit of the pointwise stabiliser of F in
    Aut(T) (``backend.orbit_minima``). It is called only once the first
    value at a level has failed, after any probing, and only at two
    levels: at the root, with F empty, and one level down, with F the
    root's value {x}; the rest of that level's values are then cut to the
    minima. This is exact and changes no result or witness. Composing a
    homomorphism with an automorphism gives a homomorphism, and arc
    consistency and its singleton closure commute with automorphisms, so
    the propagated root domains are Aut(T)-invariant and, once x is
    assigned, the propagated and probed ones Stab(x)-invariant. A value y
    that is not the least of its orbit is then the image of a smaller value
    m of the same domain under an automorphism that fixes everything
    already assigned, so y's subtree has a solution only if m's has one. m
    comes earlier and failed, so the cut subtrees hold no solution, the
    first solution found is the same, and the node count can only fall.
    """
    n_p = len(p_adj)
    n_t = len(t_adj)
    # Lists, not tuples: CPython keeps up to 2000 freed tuples of each
    # small length for reuse, and these short-lived ones would fill that.
    p_nbrs = []
    for m in p_adj:
        nbrs = []
        while m:
            bit = m & -m
            m ^= bit
            nbrs.append(bit.bit_length() - 1)
        p_nbrs.append(nbrs)
    # Target neighbourhood of each domain mask seen in this search.
    union = {}
    dom = [(1 << n_t) - 1] * n_p
    if not _propagate(dom, p_nbrs, t_adj, union, (1 << n_p) - 1):
        return None, 0
    nodes = [0]
    probe = n_p >= PROBE_ORDER and not any(
        p_adj[u] & p_adj[w] for u, nbrs in enumerate(p_nbrs) for w in nbrs
    )
    mapping = _assign(dom, p_nbrs, t_adj, union, 0, nodes, minima, probe)
    return mapping, nodes[0]


# The indices of a mask's set bits, for cold paths elsewhere in the
# package; the kernels here walk their bits inline.
def _bits(mask):
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def _propagate(dom, p_nbrs, t_adj, union, dirty):
    # Worklist of pattern vertices whose domain changed. The u-values with a
    # neighbour inside dom[v] are, as the target is symmetric, exactly
    # dom[u] & N(dom[v]), with N(D) the union of t_adj[w] over w in D.
    while dirty:
        v = (dirty & -dirty).bit_length() - 1
        dirty &= dirty - 1
        dv = dom[v]
        nv = union.get(dv)
        if nv is None:
            nv = 0
            rest = dv
            while rest:
                bit = rest & -rest
                rest ^= bit
                nv |= t_adj[bit.bit_length() - 1]
            union[dv] = nv
        for u in p_nbrs[v]:
            du = dom[u]
            nd = du & nv
            if nd != du:
                if not nd:
                    return False
                dom[u] = nd
                dirty |= 1 << u
    return True


def _assign(dom, p_nbrs, t_adj, union, assigned, nodes, minima, probe):
    # minima is given at the root and one level down only (see hom_search).
    n_p = len(dom)
    all_mask = (1 << n_p) - 1
    if assigned == all_mask:
        return tuple([(d & -d).bit_length() - 1 for d in dom])
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
    below = None if assigned else minima
    start = nodes[0]
    first = True
    while vals:
        bit = vals & -vals
        vals ^= bit
        nodes[0] += 1
        saved = dom[:]
        dom[v] = bit
        if _propagate(dom, p_nbrs, t_adj, union, 1 << v):
            result = _assign(dom, p_nbrs, t_adj, union, assigned | (1 << v), nodes, below, probe)
            if result is not None:
                return result
        dom[:] = saved
        if first and vals:
            # The first value failed: probe (see hom_search), then keep one
            # value per orbit of the stabiliser of the root's value (of
            # nothing at the root).
            first = False
            if probe and assigned:
                budget = PROBE_BUDGET * (nodes[0] - start)
                if not _probe(dom, p_nbrs, t_adj, union, all_mask & ~assigned, budget):
                    return None
                vals &= dom[v]
            if minima is not None:
                vals &= minima(dom[assigned.bit_length() - 1] if assigned else 0)
    return None


def _probe(dom, p_nbrs, t_adj, union, free, budget):
    # Singleton arc consistency over the vertices in free (see hom_search),
    # skipped when those domains of two or more values hold more values
    # than budget. They are swept cyclically, largest domains first (about
    # 14% fewer probes than index order on the delta-structured searches),
    # stopping after a whole sweep without a removal. Returns False when a
    # domain empties.
    order = []
    while free:
        u = (free & -free).bit_length() - 1
        free &= free - 1
        size = dom[u].bit_count()
        if size > 1:
            order.append(u)
            budget -= size
    if budget < 0:
        return True
    order.sort(key=lambda u: -dom[u].bit_count())
    count = len(order)
    stable = i = 0
    while stable < count:
        u = order[i]
        i = i + 1 if i + 1 < count else 0
        stable += 1
        vals = dom[u]
        while vals:
            bit = vals & -vals
            vals ^= bit
            trial = dom[:]
            trial[u] = bit
            if not _propagate(trial, p_nbrs, t_adj, union, 1 << u):
                dom[u] ^= bit
                if not _propagate(dom, p_nbrs, t_adj, union, 1 << u):
                    return False
                vals &= dom[u]
                stable = 0
    return True


def color_search(adj, k):
    """Find a proper coloring with at most k colors, or None.

    Exact backtracking: next vertex is the uncolored one with the most
    distinct neighbour colors (ties: higher degree, then lower index), and
    at most one brand-new color is tried per vertex, which breaks color
    symmetry without losing completeness.
    """
    n = len(adj)
    if n == 0:
        return ()
    if k <= 0:
        return None
    degs = [a.bit_count() for a in adj]
    colors = [-1] * n
    sat = [0] * n
    return _color_rec(adj, degs, colors, sat, k, 0, 0)


def _color_rec(adj, degs, colors, sat, k, used, done):
    n = len(adj)
    if done == n:
        return tuple(colors)
    best = -1
    best_key = (-1, -1)
    for v in range(n):
        if colors[v] < 0:
            key = (sat[v].bit_count(), degs[v])
            if key > best_key:
                best_key = key
                best = v
    v = best
    limit = used + 1 if used < k else k
    avail = ~sat[v] & ((1 << limit) - 1)
    while avail:
        bit = avail & -avail
        avail ^= bit
        c = bit.bit_length() - 1
        colors[v] = c
        touched = 0
        m = adj[v]
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            if colors[u] < 0 and not sat[u] & bit:
                sat[u] |= bit
                touched |= b
        res = _color_rec(adj, degs, colors, sat, k, max(used, c + 1), done + 1)
        if res is not None:
            return res
        colors[v] = -1
        while touched:
            b = touched & -touched
            touched ^= b
            sat[b.bit_length() - 1] &= ~bit
    return None


def odd_girth(adj):
    """Length of the shortest odd cycle, or 0 when there is none.

    First 3 if some edge uv has a common neighbour. Otherwise BFS on the
    parity double cover from every start vertex: the shortest odd closed
    walk through any vertex is attained by an odd cycle, and every odd
    cycle is such a walk. Every edge flips parity, so the states at depth d
    all have parity d mod 2 and each BFS layer is one vertex mask; this
    needs symmetric, loop-free adjacency. A start stops at the first odd
    layer that reaches it again, or at the first layer too deep to beat
    the best cycle found so far.
    """
    n = len(adj)
    for v in range(n):
        av = adj[v]
        rest = av & -(2 << v)  # the neighbours above v
        while rest:
            bit = rest & -rest
            rest ^= bit
            if adj[bit.bit_length() - 1] & av:
                return 3
    best = 0
    for s in range(n):
        start = 1 << s
        seen = [start, 0]
        layer = start
        d = 1
        while layer and (best == 0 or d < best):
            reach = 0
            while layer:
                bit = layer & -layer
                layer ^= bit
                reach |= adj[bit.bit_length() - 1]
            if d & 1 and reach & start:
                best = d
                break
            layer = reach & ~seen[d & 1]
            seen[d & 1] |= layer
            d += 1
    return best
