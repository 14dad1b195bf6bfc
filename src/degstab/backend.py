"""Kernel selection: compiled extension when available, pure Python otherwise.

The compiled module ``degstab._fastcore`` is built from one hand-written C
source at install time and handles graphs of order at most 64, which covers
every hot path in the package. Larger instances, or installs without a
compiler, use ``degstab._purecore``. Both implement the same algorithms
with the same tie-breaking, so results are identical; only the speed
differs.

``_kernels`` applies that rule per call, to every graph argument, and
``hom_search``, ``color_search`` and ``odd_girth`` pass their arguments
to the kernel of the same name in the set it returns, unchanged but for
the first two, which pass each graph as a tuple.

``hom_search`` first tries one exact refutation above both kernel sets: a
homomorphism maps a clique injectively onto a clique, so when a greedy
clique of the pattern is larger than the target's clique number there is
none, and the call returns ``(None, 0)`` without reaching either kernel.
Otherwise it returns the chosen kernel's result unchanged. ``None`` from
``hom_search`` therefore means refuted by the clique bound (0 nodes) or by
exhaustive search. The target's exact clique number comes from
``clique_number``, a bitset branch and bound, memoized on the adjacency;
it is computed only when the pattern's greedy clique is larger than the
target's, so a target that cannot refute the pattern costs no exact search.

Otherwise both kernels get a third argument, ``minima``: a callable that
maps a mask F of target vertices to the mask of the least vertex of each
orbit of the pointwise stabiliser of F in Aut(T). The kernels use it to
break value symmetry at the first two levels of the search; see
``_purecore.hom_search`` for why this leaves every result and witness
unchanged and can only lower the node count. For triangle-free patterns
of at least ``_purecore.PROBE_ORDER`` (15) vertices, both kernels also
probe: at a node below the root whose first value failed after a search
deep enough to pay for it, they narrow the domains to their singleton arc
consistency closure before trying the rest. That is exact too, and both
kernel sets compute the same closure, so they still agree node for node.

What the package knows about one adjacency sits in one record,
``prepared(adj)``, kept in one bounded memo: its twin reduction, greedy
clique size, exact clique number and orbit minima. None is computed before
it is first read; the first three are then kept as plain attributes, so a
later read is an attribute lookup, and the minima in a dict by fixed mask.
``hom`` reads the reductions of both sides of a search from their records,
and ``hom_search`` reads the pattern's greedy clique size and the target's
other facts. A reduced adjacency is its own reduction, so a twin-free
graph has one record. A call's result and node count depend on its
arguments only, never on what the memo holds, nor on the tables the pure
``hom_search`` keeps (see ``_purecore``).

The last ``_RECENT_SIZE`` (16) answers of ``color_search`` and of the
``hom_search`` calls that get past the clique bound are kept in one memo,
``_recent``. Its key is the kernel (so the kernel set ``_kernels`` picks),
the tuple of each graph argument, and ``k`` or the target record's
``minima``; the entry asked for least recently goes first. ``certify``
asks again what ``classify`` and ``validate`` have just answered (the
failing scan step, the refutation of r-colourability), and a seed shared
by many patterns is coloured again for each: on the benchmark's
certify-random pass, 238 of 470 calls are answered from the memo. Sixteen
is small next to a pass, so no pass is served from the one before (the
nearest repeat across delta-structured passes is 123 calls away). A
kernel's answer is immutable, so a hit returns the very answer the kernel
gave, node count included: the count describes the answer, not the work
done for this call. Every call still passes through ``hom_search`` and
``color_search``, and a miss gives the kernel the caller's own tuples.
The memo is typed: ``k = 3.0`` is asked of the kernel, not answered from
``k = 3``'s entry.
``odd_girth`` is not kept: its calls are many and cheap.

Set ``DEGSTAB_BACKEND=pure`` in the environment (before import) to force
the pure kernels, e.g. for benchmarking.
"""

from __future__ import annotations

import functools
import os

from . import _purecore
from ._purecore import _bits

try:
    from . import _fastcore
except ImportError:
    _fastcore = None

if os.environ.get("DEGSTAB_BACKEND", "").strip().lower() in {"pure", "python"}:
    _fastcore = None

_FAST_MAX_ORDER = 64

# Distinct adjacencies whose record ``prepared`` keeps. The benchmark
# workloads' hit rates are in BENCH_prepared.json.
_PREPARED_MEMO_SIZE = 512

# Kernel answers kept, least recently asked for evicted first; see the
# module docstring.
_RECENT_SIZE = 16


def backend_name() -> str:
    """Name of the kernel set in use: "compiled" or "pure"."""
    return "compiled" if _fastcore is not None else "pure"


def _kernels(*graphs):
    if _fastcore is not None and max(map(len, graphs)) <= _FAST_MAX_ORDER:
        return _fastcore
    return _purecore


def hom_search(p_adj, t_adj):
    """``(None, 0)`` when the pattern has a greedy clique larger than the
    target's clique number, else the ``hom_search`` kernel's result given
    the target's orbit minima.

    The odd-girth refutation (odd girth of pattern below that of target)
    is deliberately absent: ``verify.check_hom_odd_girth`` tests exactly
    that lemma through this search, and would then only check itself.
    """
    p, t = tuple(p_adj), tuple(t_adj)
    target = prepared(t)
    k = prepared(p).greedy
    if k > target.greedy and k > target.omega:
        return None, 0
    return _recent(_kernels(p_adj, t_adj).hom_search, p, t, target.minima)


def color_search(adj, k):
    return _recent(_kernels(adj).color_search, tuple(adj), k)


@functools.lru_cache(maxsize=_RECENT_SIZE, typed=True)
def _recent(kernel, *args):
    """``kernel(*args)``, answered again from the last ``_RECENT_SIZE``
    distinct calls."""
    return kernel(*args)


def odd_girth(adj):
    return _kernels(adj).odd_girth(adj)


def greedy_clique(adj) -> int:
    """Mask of a maximal clique grown by descending degree, ties by index."""
    degree = [-m.bit_count() for m in adj]
    chosen = 0
    for v in sorted(range(len(adj)), key=degree.__getitem__):
        if chosen & ~adj[v] == 0:
            chosen |= 1 << v
    return chosen


def clique_number(adj) -> int:
    """Exact clique number of a symmetric, loop-free adjacency.

    Branch and bound over candidate masks: a greedy colouring of the
    candidates bounds the clique they can add, and the search starts from
    the greedy clique's size, so it only looks for larger cliques.
    """
    best = greedy_clique(adj).bit_count()

    def expand(size, cand):
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        # Colour classes in order: each vertex's colour bounds the clique
        # among itself and the vertices coloured before it.
        order = []
        colour = 0
        uncoloured = cand
        while uncoloured:
            colour += 1
            free = uncoloured
            while free:
                bit = free & -free
                v = bit.bit_length() - 1
                free &= ~adj[v] & ~bit
                uncoloured ^= bit
                order.append((v, colour))
        for v, bound in reversed(order):
            if size + bound <= best:
                return
            expand(size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, (1 << len(adj)) - 1)
    return best


def orbits(adj, fixed: int = 0) -> list[int]:
    """Orbits, as vertex masks in order of their least vertex, of the
    automorphisms of a symmetric, loop-free adjacency that fix every vertex
    of the mask ``fixed``.

    Colour refinement with the fixed vertices individualised gives an
    equitable partition that each such automorphism maps onto itself cell
    by cell, so an orbit lies inside one cell and a singleton cell is a
    fixed point. Inside the other cells a vertex joins the orbit of a
    smaller one when an automorphism maps the smaller one onto it, found by
    individualisation and refinement (McKay and Piperno, "Practical graph
    isomorphism, II", 2014); each automorphism found merges all its cycles.
    """
    n = len(adj)
    cells = [(1 << n) - 1] if n else []
    for x in _bits(fixed):
        cells = _individualise(cells, x)
    cells = _refine(adj, cells)[0]
    least = list(range(n))  # union-find; each root is its set's least vertex

    def find(v):
        while least[v] != v:
            v = least[v]
        return v

    for cell in cells:
        members = list(_bits(cell))
        for v in members[1:]:
            for m in members:
                if m >= v or find(v) != v:
                    break
                if find(m) != m:
                    continue
                sigma = _automorphism(adj, _individualise(cells, m), _individualise(cells, v))
                if sigma is not None:
                    for x, y in enumerate(sigma):
                        a, b = find(x), find(y)
                        least[max(a, b)] = min(a, b)
    found: dict[int, int] = {}
    for v in range(n):
        root = find(v)
        found[root] = found.get(root, 0) | 1 << v
    return list(found.values())


def orbit_minima(adj, fixed: int = 0) -> int:
    """Mask of the least vertex of each orbit of :func:`orbits`."""
    minima = 0
    for orbit in orbits(adj, fixed):
        minima |= orbit & -orbit
    return minima


def _individualise(cells: list[int], x: int) -> list[int]:
    """The ordered partition with x split off, just before the rest of its cell."""
    bit = 1 << x
    out = []
    for cell in cells:
        if cell & bit and cell != bit:
            out.append(bit)
            cell ^= bit
        out.append(cell)
    return out


def _refine(adj, cells: list[int]):
    """The coarsest equitable refinement of an ordered partition, and a
    trace of its splits.

    Each cell in turn, in a queue that starts with every cell, splits every
    cell by the number of neighbours its vertices have in it, the parts in
    increasing order of that number. A part takes its cell's place in the
    queue, or joins the end when the cell has left it, so each final cell
    has been a splitter. Each step depends on positions and counts only, so
    an isomorphism between two ordered partitions maps their refinements
    onto each other cell by cell, with equal traces.
    """
    trace = []
    queue = list(cells)
    # A discrete partition, one vertex per cell, cannot split further.
    while queue and len(cells) < len(adj):
        splitter = queue.pop(0)
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            parts: dict[int, int] = {}
            rest = cell
            while rest:
                bit = rest & -rest
                rest ^= bit
                key = (adj[bit.bit_length() - 1] & splitter).bit_count()
                parts[key] = parts.get(key, 0) | bit
            if len(parts) == 1:
                out.append(cell)
                continue
            keys = sorted(parts)
            split = [parts[k] for k in keys]
            trace.append((len(out), tuple([(k, parts[k].bit_count()) for k in keys])))
            out += split
            if cell in queue:
                i = queue.index(cell)
                queue[i : i + 1] = split
            else:
                queue += split
        cells = out
    return cells, trace


def _automorphism(adj, left: list[int], right: list[int]):
    """An automorphism, as a list of images, that maps each cell of the
    ordered partition ``left`` onto the cell at the same place in ``right``,
    or None when there is none.

    Refines both sides; an isomorphism needs equal traces and equal
    quotients, the neighbour counts from each cell into each cell. Then it
    individualises the least vertex of the first non-singleton cell on the
    left against each vertex of the matching cell on the right in turn. For
    a discrete pair of partitions the quotients are the two adjacency
    matrices in cell order, so their equality makes the map an automorphism.
    """
    left, trace = _refine(adj, left)
    right, other = _refine(adj, right)
    if trace != other or _quotient(adj, left) != _quotient(adj, right):
        return None
    for i, cell in enumerate(left):
        if cell & (cell - 1):
            pinned = _individualise(left, (cell & -cell).bit_length() - 1)
            for y in _bits(right[i]):
                sigma = _automorphism(adj, pinned, _individualise(right, y))
                if sigma is not None:
                    return sigma
            return None
    sigma = [0] * len(adj)
    for a, b in zip(left, right):
        sigma[a.bit_length() - 1] = b.bit_length() - 1
    return sigma


def _quotient(adj, cells: list[int]) -> list[list[int]]:
    """Neighbours that a vertex of each cell has in each cell; one vertex
    stands for its cell, as the partition is equitable."""
    rows = []
    for cell in cells:
        nbrs = adj[(cell & -cell).bit_length() - 1]
        rows.append([(nbrs & other).bit_count() for other in cells])
    return rows


def _twin_reduction(adj: tuple[int, ...]):
    """Drop all but the lowest-indexed vertex of each twin class, the
    vertices with one neighbourhood.

    Returns the tuples (reduced adjacency, kept original indices,
    original-to-kept representative map). One pass leaves no twins: if
    two kept vertices differ on a dropped vertex, they differ on its kept
    twin, which has the same neighbours. A twin-free adjacency is its own
    reduction, with identity maps.
    """
    first: dict[int, int] = {}
    rep = [first.setdefault(mask, v) for v, mask in enumerate(adj)]
    if len(first) == len(adj):
        identity = tuple(range(len(adj)))
        return adj, identity, identity
    kept = list(first.values())
    pos = {v: i for i, v in enumerate(kept)}
    return _induced(adj, kept), tuple(kept), tuple([pos[v] for v in rep])


def _induced(adj, kept: list[int]) -> tuple[int, ...]:
    """Adjacency of the subgraph induced on the increasing vertex list
    ``kept``, relabelled densely in that order."""
    pos = {v: i for i, v in enumerate(kept)}
    masks = []
    for v in kept:
        m = 0
        rest = adj[v]
        while rest:
            bit = rest & -rest
            rest ^= bit
            i = pos.get(bit.bit_length() - 1)
            if i is not None:
                m |= 1 << i
        masks.append(m)
    return tuple(masks)


class _Prepared:
    """What the package knows about one adjacency, each fact computed on
    its first read: ``reduction``, the tuples of :func:`_twin_reduction`;
    ``greedy``, the size of its greedy clique; ``omega``, its clique
    number; and ``minima(fixed)``, the kernels' ``minima`` argument."""

    def __init__(self, adj):
        self.adj = adj
        self._minima: dict[int, int] = {}

    def __getattr__(self, name):
        # Reached only while a fact is missing: it is computed and stored
        # as a plain attribute, which later reads find without a call.
        # functools.cached_property would take a lock at each first read on
        # Python 3.10 and 3.11, and every new adjacency makes two.
        if name == "reduction":
            value = _twin_reduction(self.adj)
        elif name == "greedy":
            value = greedy_clique(self.adj).bit_count()
        elif name == "omega":
            value = clique_number(self.adj)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def minima(self, fixed: int) -> int:
        """``orbit_minima(adj, fixed)``."""
        found = self._minima.get(fixed)
        if found is None:
            found = self._minima[fixed] = orbit_minima(self.adj, fixed)
        return found


prepared = functools.lru_cache(maxsize=_PREPARED_MEMO_SIZE)(_Prepared)
