"""Immutable simple graphs and the constructions everything else builds on.

Vertices are dense integer indices 0..order-1, adjacency is stored as one
integer bitmask per vertex, and equality is labelled equality (isomorphism
is never quotiented). All values are immutable, so sharing across threads
is safe; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import backend
from ._purecore import _bits
from .errors import InvalidParameterError


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require(name: str, value, least: int) -> None:
    """The one check of an integer parameter: reject a bool, a non-int or a
    value below least, naming the parameter, so that no float reaches a
    count, an order or the exact ``Fraction`` thresholds."""
    if not _is_int(value):
        raise InvalidParameterError(f"{name} must be an integer")
    if value < least:
        raise InvalidParameterError(f"{name} must be at least {least}")


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices 0..order-1.

    ``adj[v]`` has bit ``u`` set iff ``uv`` is an edge. The constructor
    rejects non-integer input, self-loops, asymmetric adjacency and
    out-of-range endpoints. It checks one pair of blow-up classes at a
    time: a run of equal consecutive rows (a class) is checked once,
    against its neighbours below it, and a run of at least two rows checks
    each neighbour class below it once, through the lowest member it sees.
    Every entry below the diagonal then has its mirror, so the adjacency
    is symmetric iff it has as many entries above the diagonal as below.

    Faults are reported one run at a time, in row order: a non-integer
    row as soon as it is read (a bool row once its run is read), then an
    out-of-range neighbour, a self-loop or a neighbour below the run whose
    row does not cover the run. A neighbour above a row without its mirror
    is reported only when no row has any of these faults, as the first
    such pair row by row.
    """

    order: int
    adj: tuple[int, ...]

    def __post_init__(self):
        order = self.order
        if not _is_int(order):
            raise InvalidParameterError("order must be an integer")
        if order < 0:
            raise InvalidParameterError("order must be nonnegative")
        adj = self.adj
        try:
            if type(adj) is not tuple:
                adj = tuple(adj)
                object.__setattr__(self, "adj", adj)
            if len(adj) != order:
                raise InvalidParameterError("adjacency length must equal order")
            starts = 0  # bit s set iff a run of equal rows begins at row s
            excess = 0  # entries above the diagonal minus those below it
            v = 0
            while v < order:
                mask = adj[v]
                if mask >> order:  # a negative mask shifts to -1
                    raise InvalidParameterError(f"vertex {v} has a neighbour out of range")
                # Rows v..end-1 equal mask (xor also rejects a non-int row), so
                # uv and vu are edges for all of them iff adj[u] covers the run.
                end = v + 1
                while end < order and not adj[end] ^ mask:
                    end += 1
                # A bool passes the shift and the xor, and equals 0 or 1, so
                # it can only start or join a run of one of those masks.
                if mask < 2 and bool in map(type, adj[v:end]):
                    raise TypeError
                low = 1 << v
                run = (1 << end) - low
                if mask & run:
                    v = (mask & run).bit_length() - 1
                    raise InvalidParameterError(f"vertex {v} has a self-loop")
                starts |= low
                rest = mask & (low - 1)
                excess += (end - v) * (mask.bit_count() - 2 * rest.bit_count())
                # A run of two or more rows is most likely a blow-up class,
                # whose neighbours come in runs too: skip the rest of each
                # neighbour's run, which has its row. Short runs, as in small
                # graphs, are cheaper to step through bit by bit.
                jump = end - v > 1
                while rest:
                    bit = rest & -rest
                    u = bit.bit_length() - 1
                    if adj[u] & run != run:
                        v = (run & ~adj[u]).bit_length() - 1
                        raise InvalidParameterError(f"edge {v}-{u} is not symmetric")
                    if jump:
                        above = starts & -(bit << 1)
                        rest &= -(above & -above)
                    else:
                        rest ^= bit
                v = end
        except TypeError:
            raise InvalidParameterError("adjacency must be a sequence of integer masks") from None
        if excess:
            # Some entry above the diagonal has no mirror below it: find the
            # first, one neighbour run above each row at a time.
            for v, mask in enumerate(adj):
                rest = mask & -(2 << v)
                while rest:
                    bit = rest & -rest
                    u = bit.bit_length() - 1
                    if not (adj[u] >> v) & 1:
                        raise InvalidParameterError(f"edge {v}-{u} is not symmetric")
                    above = starts & -(bit << 1)
                    rest &= -(above & -above)

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _require("order", order, 0)
        masks = [0] * order
        for u, v in edges:
            if not (_is_int(u) and _is_int(v)):
                raise InvalidParameterError(f"edge {u!r}-{v!r} has a non-integer endpoint")
            if not (0 <= u < order and 0 <= v < order):
                raise InvalidParameterError(f"edge {u}-{v} out of range for order {order}")
            if u == v:
                raise InvalidParameterError(f"self-loop at {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(order, tuple(masks))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(_bits(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for v in range(self.order):
            rest = self.adj[v] & -(2 << v)  # the neighbours above v
            while rest:
                bit = rest & -rest
                rest ^= bit
                out.append((v, bit.bit_length() - 1))
        return out

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def complement(self) -> "Graph":
        """The graph whose edges are exactly the non-edges of this one."""
        full = (1 << self.order) - 1
        return Graph(
            self.order,
            tuple([full & ~m & ~(1 << v) for v, m in enumerate(self.adj)]),
        )

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph, relabelled densely in increasing vertex order."""
        vertices = tuple(vertices)  # checked one by one: a set merges True into 1
        for v in vertices:
            self._check_vertex(v)
        keep = sorted(set(vertices))
        return Graph(len(keep), backend._induced(self.adj, keep))

    def _check_vertex(self, v: int) -> None:
        if not _is_int(v):
            raise InvalidParameterError(f"vertex {v!r} must be an integer")
        if not 0 <= v < self.order:
            raise InvalidParameterError(f"vertex {v} out of range for order {self.order}")


@dataclass(frozen=True)
class Weighting:
    """Nonnegative integer vertex weights on a base graph.

    Induces a blow-up: each vertex becomes an independent set of its weight
    (zero-weight vertices contribute nothing), adjacent classes are fully
    joined. At least one weight must be positive.
    """

    base: Graph
    weights: tuple[int, ...]

    def __post_init__(self):
        weights = tuple(self.weights)
        if len(weights) != self.base.order:
            raise InvalidParameterError("one weight per base vertex required")
        for v, w in enumerate(weights):
            if not _is_int(w) or w < 0:
                raise InvalidParameterError(f"weight of vertex {v} must be a nonnegative integer")
        if sum(weights) < 1:
            raise InvalidParameterError("total weight must be at least 1")
        object.__setattr__(self, "weights", weights)

    @property
    def total(self) -> int:
        return sum(self.weights)


def empty_graph(n: int) -> Graph:
    _require("n", n, 0)
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    """The clique on n vertices; n = 0 gives the empty graph."""
    _require("n", n, 0)
    full = (1 << n) - 1
    return Graph(n, tuple([full & ~(1 << v) for v in range(n)]))


def cycle(n: int) -> Graph:
    _require("n", n, 3)
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def wheel(k: int) -> Graph:
    """A k-cycle plus a hub (vertex k) adjacent to every cycle vertex."""
    _require("k", k, 3)
    edges = [(v, (v + 1) % k) for v in range(k)]
    edges += [(v, k) for v in range(k)]
    return Graph.from_edges(k + 1, edges)


def cycle_complement(n: int) -> Graph:
    _require("n", n, 5)
    return cycle(n).complement()


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i to i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint copies of g and h (h shifted by |g|) plus all cross edges."""
    n, m = g.order, h.order
    h_mask = ((1 << m) - 1) << n
    g_mask = (1 << n) - 1
    masks = [g.adj[v] | h_mask for v in range(n)]
    masks += [(h.adj[v] << n) | g_mask for v in range(m)]
    return Graph(n + m, tuple(masks))


def blow_up(w: Weighting) -> Graph:
    """Replace each positive-weight vertex by an independent set of its weight.

    Zero-weight vertices are dropped, so the result is a genuine blow-up of
    the subgraph induced by the positive-weight vertices. The classes are
    laid out consecutively in base-vertex order.
    """
    base = w.base
    class_mask = []
    total = 0
    for size in w.weights:
        class_mask.append(((1 << size) - 1) << total)
        total += size
    masks = []
    for v in range(base.order):
        m = 0
        for u in _bits(base.adj[v]):
            m |= class_mask[u]
        masks.extend([m] * w.weights[v])
    return Graph(total, tuple(masks))


def balanced_blow_up(base: Graph, n: int) -> Graph:
    """Blow-up on exactly n vertices with part sizes differing by at most 1.

    The larger parts go to the lowest-indexed base vertices, which keeps
    the output deterministic.
    """
    if base.order < 1:
        raise InvalidParameterError("balanced_blow_up: base must be nonempty")
    _require("n", n, base.order)
    q, r = divmod(n, base.order)
    weights = tuple([q + 1 if v < r else q for v in range(base.order)])
    return blow_up(Weighting(base, weights))


def odd_girth(g: Graph) -> int | None:
    """Length of the shortest odd cycle, or None iff the graph is bipartite."""
    value = backend.odd_girth(g.adj)
    return value if value else None


def is_bipartite(g: Graph) -> bool:
    return odd_girth(g) is None


class DegreeProfile(NamedTuple):
    min_degree: int
    max_degree: int
    regular: bool


def degree_profile(g: Graph) -> DegreeProfile:
    if g.order < 1:
        raise InvalidParameterError("degree_profile: graph must be nonempty")
    degs = [m.bit_count() for m in g.adj]
    lo, hi = min(degs), max(degs)
    return DegreeProfile(lo, hi, lo == hi)


def peel_min_degree(g: Graph, threshold) -> Graph:
    """Repeatedly delete low-degree vertices until the rest are dense enough.

    The cutoff is fixed at threshold * (original order); vertices of degree
    strictly below it are removed, lowest index first, until none remain.
    With a fixed cutoff the surviving vertex set does not depend on the
    removal order. The result is the induced subgraph on the survivors
    (relabelled densely) and may be empty. Comparisons are exact rational
    arithmetic, never floating point.
    """
    try:
        t = Fraction(threshold)
        if not 0 <= t <= 1:
            raise ValueError
    except (TypeError, ValueError, OverflowError):  # e.g. None, "x", nan, inf
        raise InvalidParameterError(
            "peel_min_degree: threshold must be a number in [0, 1]"
        ) from None
    cutoff = t * g.order
    alive = (1 << g.order) - 1
    changed = True
    while changed:
        changed = False
        for v in range(g.order):
            if (alive >> v) & 1 and (g.adj[v] & alive).bit_count() < cutoff:
                alive &= ~(1 << v)
                changed = True
                break
    return g.induced([v for v in range(g.order) if (alive >> v) & 1])
