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


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices 0..order-1.

    ``adj[v]`` has bit ``u`` set iff ``uv`` is an edge. The constructor
    rejects self-loops, asymmetric adjacency and out-of-range endpoints.
    """

    order: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.order < 0:
            raise InvalidParameterError("order must be nonnegative")
        adj = tuple(self.adj)
        if len(adj) != self.order:
            raise InvalidParameterError("adjacency length must equal order")
        for v, mask in enumerate(adj):
            if mask < 0 or mask >> self.order:
                raise InvalidParameterError(f"vertex {v} has a neighbour out of range")
            if (mask >> v) & 1:
                raise InvalidParameterError(f"vertex {v} has a self-loop")
        for v, mask in enumerate(adj):
            for u in _bits(mask):
                if not (adj[u] >> v) & 1:
                    raise InvalidParameterError(f"edge {v}-{u} is not symmetric")
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        masks = [0] * max(order, 0)
        for u, v in edges:
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
            for u in _bits(self.adj[v] >> (v + 1)):
                out.append((v, v + 1 + u))
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
        keep = sorted(set(vertices))
        for v in keep:
            self._check_vertex(v)
        return Graph(len(keep), backend._induced(self.adj, keep))

    def _check_vertex(self, v: int) -> None:
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
            if not isinstance(w, int) or w < 0:
                raise InvalidParameterError(f"weight of vertex {v} must be a nonnegative integer")
        if sum(weights) < 1:
            raise InvalidParameterError("total weight must be at least 1")
        object.__setattr__(self, "weights", weights)

    @property
    def total(self) -> int:
        return sum(self.weights)


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise InvalidParameterError("order must be nonnegative")
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    """The clique on n vertices; n = 0 gives the empty graph."""
    if n < 0:
        raise InvalidParameterError("complete: n must be nonnegative")
    full = (1 << n) - 1
    return Graph(n, tuple([full & ~(1 << v) for v in range(n)]))


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("cycle: n must be at least 3")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def wheel(k: int) -> Graph:
    """A k-cycle plus a hub (vertex k) adjacent to every cycle vertex."""
    if k < 3:
        raise InvalidParameterError("wheel: k must be at least 3")
    edges = [(v, (v + 1) % k) for v in range(k)]
    edges += [(v, k) for v in range(k)]
    return Graph.from_edges(k + 1, edges)


def cycle_complement(n: int) -> Graph:
    if n < 5:
        raise InvalidParameterError("cycle_complement: n must be at least 5")
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
    offsets = []
    total = 0
    for v in range(base.order):
        offsets.append(total)
        total += w.weights[v]
    class_mask = []
    for v in range(base.order):
        size = w.weights[v]
        class_mask.append(((1 << size) - 1) << offsets[v])
    masks = []
    for v in range(base.order):
        if w.weights[v] == 0:
            continue
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
    if n < base.order:
        raise InvalidParameterError("balanced_blow_up: n must be at least the base order")
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
    t = Fraction(threshold)
    if t < 0 or t > 1:
        raise InvalidParameterError("peel_min_degree: threshold must lie in [0, 1]")
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
