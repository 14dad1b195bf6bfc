"""Exact decision procedures on graphs.

Homomorphism existence, chromatic number, k-colorability, clique
enumeration and local bipartiteness. Everything is exact and deterministic;
non-existence answers come from the clique bound in
:func:`degstab.backend.hom_search` (a greedy clique of the pattern larger
than the target's clique number) or from exhaustive backtracking, and the
verifier cross-checks them against plain map enumeration at small scale.

Before searching, vertices with identical neighbourhoods are merged on both
sides ("twin reduction"). This is exact: twins are non-adjacent, share all
constraints, and any solution can be rewritten so they agree, so existence
is unaffected; a witness on the reduced graphs extends by copying the
representative's image. The reduction collapses blow-ups back to their
bases, which keeps blow-up-invariance properties cheap to exercise. Each
graph's reduction is kept in its record in :mod:`degstab.backend`, which
is memoized on the adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _purecore, backend
from ._purecore import _bits
from .errors import InvalidParameterError
from .graphs import Graph

__all__ = [
    "HomWitness",
    "has_homomorphism",
    "homomorphism_search",
    "brute_force_homomorphism_exists",
    "chromatic_number",
    "is_k_colorable",
    "find_coloring",
    "greedy_clique",
    "cliques_of_size",
    "clique_number",
    "is_a_locally_bipartite",
]


@dataclass(frozen=True)
class HomWitness:
    """A vertex map certifying pattern -> target, checkable in O(edges)."""

    mapping: tuple[int, ...]

    def is_valid(self, pattern: Graph, target: Graph) -> bool:
        if len(self.mapping) != pattern.order:
            return False
        if any(not 0 <= x < target.order for x in self.mapping):
            return False
        for u, v in pattern.edges():
            if not (target.adj[self.mapping[u]] >> self.mapping[v]) & 1:
                return False
        return True


def homomorphism_search(pattern: Graph, target: Graph):
    """Exact search for pattern -> target.

    Returns (HomWitness or None, nodes expanded). None means no
    homomorphism exists: either the clique bound refuted it (nodes 0) or
    the search space was exhausted.
    """
    p_red, _, p_rep = backend.prepared(pattern.adj).reduction
    t_red, t_kept, _ = backend.prepared(target.adj).reduction
    raw, nodes = backend.hom_search(p_red, t_red)
    if raw is None:
        return None, nodes
    witness = HomWitness(tuple([t_kept[raw[p_rep[v]]] for v in range(pattern.order)]))
    if not witness.is_valid(pattern, target):
        raise AssertionError("solver produced an invalid witness")
    return witness, nodes


def has_homomorphism(pattern: Graph, target: Graph) -> HomWitness | None:
    """A valid witness iff pattern -> target exists, else None."""
    witness, _ = homomorphism_search(pattern, target)
    return witness


def brute_force_homomorphism_exists(pattern: Graph, target: Graph) -> bool:
    """Oracle: enumerate all |target|^|pattern| maps. No reductions."""
    return _purecore.brute_hom(pattern.adj, target.adj)


def find_coloring(g: Graph, k: int) -> tuple[int, ...] | None:
    """A proper coloring with at most k colors, or None if impossible."""
    if k < 0:
        raise InvalidParameterError("k must be nonnegative")
    if g.order == 0:
        return ()
    if k == 0:
        return None
    reduced, _, rep = backend.prepared(g.adj).reduction
    colors = backend.color_search(reduced, k)
    if colors is None:
        return None
    full = tuple([colors[rep[v]] for v in range(g.order)])
    for u, v in g.edges():
        if full[u] == full[v]:
            raise AssertionError("coloring search produced an improper coloring")
    return full


def is_k_colorable(g: Graph, k: int) -> bool:
    return find_coloring(g, k) is not None


def greedy_clique(g: Graph) -> tuple[int, ...]:
    """A maximal clique grown greedily by descending degree (ties by index)."""
    return tuple([*_bits(backend.greedy_clique(g.adj))])


def chromatic_number(g: Graph) -> int:
    """Least k admitting a proper k-coloring (0 for the empty graph)."""
    if g.order == 0:
        return 0
    if g.edge_count == 0:
        return 1
    k = max(2, backend.prepared(g.adj).greedy)
    while not is_k_colorable(g, k):
        k += 1
    return k


def cliques_of_size(g: Graph, size: int) -> list[tuple[int, ...]]:
    """All vertex sets of the given size inducing complete subgraphs.

    Size 0 yields the single empty clique. Output is in lexicographic
    order.
    """
    if size < 0:
        raise InvalidParameterError("clique size must be nonnegative")
    out: list[tuple[int, ...]] = []
    full = (1 << g.order) - 1

    def extend(prefix: list[int], candidates: int):
        if len(prefix) == size:
            out.append(tuple(prefix))
            return
        for v in _bits(candidates):
            extend(prefix + [v], candidates & g.adj[v] & (~0 << (v + 1)))

    extend([], full)
    return out


def clique_number(g: Graph) -> int:
    """Exact clique number, by the bitset branch and bound the clique-bound
    refutation uses."""
    return backend.clique_number(g.adj)


def _mask_bipartite(adj: tuple[int, ...], subset: int) -> bool:
    color0 = 0
    color1 = 0
    seen = 0
    rest = subset
    while rest:
        start = rest & -rest
        stack = [start.bit_length() - 1]
        color0 |= start
        seen |= start
        while stack:
            v = stack.pop()
            side1 = bool((color1 >> v) & 1)
            for u in _bits(adj[v] & subset):
                bit = 1 << u
                if seen & bit:
                    if bool((color1 >> u) & 1) == side1:
                        return False
                else:
                    seen |= bit
                    if side1:
                        color0 |= bit
                    else:
                        color1 |= bit
                    stack.append(u)
        rest = subset & ~seen
    return True


def is_a_locally_bipartite(g: Graph, a: int):
    """Whether the common neighbourhood of every a-clique is bipartite.

    Returns (True, None) or (False, first violating clique in lex order).
    """
    if a < 1:
        raise InvalidParameterError("a must be at least 1")
    for clique in cliques_of_size(g, a):
        common = (1 << g.order) - 1
        for v in clique:
            common &= g.adj[v]
        if not _mask_bipartite(g.adj, common):
            return False, clique
    return True, None
