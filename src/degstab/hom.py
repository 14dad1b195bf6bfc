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
from itertools import product

from . import backend
from ._purecore import _bits
from .graphs import Graph, _require, is_bipartite

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
        mapping = self.mapping
        if len(mapping) != pattern.order:
            return False
        order = target.order
        for x in mapping:
            if type(x) is not int or not 0 <= x < order:
                return False
        t_adj = target.adj
        for u, nbrs in enumerate(pattern.adj):
            row = t_adj[mapping[u]]
            nbrs &= -(2 << u)  # the edges to neighbours above u
            while nbrs:
                bit = nbrs & -nbrs
                nbrs ^= bit
                if not row >> mapping[bit.bit_length() - 1] & 1:
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
    return brute_hom(pattern.adj, target.adj)


def brute_hom(p_adj, t_adj):
    """Existence check by trying every one of the |T|^|P| maps.

    Deliberately dumb: this is the independent oracle for ``hom_search``
    and must not share search machinery with it.
    """
    n_p = len(p_adj)
    n_t = len(t_adj)
    edges = []
    for v in range(n_p):
        m = p_adj[v] >> (v + 1)
        while m:
            bit = m & -m
            m ^= bit
            edges.append((v, v + 1 + bit.bit_length() - 1))
    for phi in product(range(n_t), repeat=n_p):
        for v, u in edges:
            if not (t_adj[phi[v]] >> phi[u]) & 1:
                break
        else:
            return True
    return False


def find_coloring(g: Graph, k: int) -> tuple[int, ...] | None:
    """A proper coloring with at most k colors, or None if impossible."""
    _require("k", k, 0)
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
    k = backend.prepared(g.adj).greedy  # a lower bound: 0 for K0, 1 if edgeless
    while not is_k_colorable(g, k):
        k += 1
    return k


def cliques_of_size(g: Graph, size: int) -> list[tuple[int, ...]]:
    """All vertex sets of the given size inducing complete subgraphs.

    Size 0 yields the single empty clique. Output is in lexicographic
    order.
    """
    _require("size", size, 0)
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


def is_a_locally_bipartite(g: Graph, a: int):
    """Whether the common neighbourhood of every a-clique is bipartite.

    Returns (True, None) or (False, first violating clique in lex order).
    """
    _require("a", a, 1)
    for clique in cliques_of_size(g, a):
        common = (1 << g.order) - 1
        for v in clique:
            common &= g.adj[v]
        if not is_bipartite(g.induced(list(_bits(common)))):
            return False, clique
    return True, None
