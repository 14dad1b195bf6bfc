"""Kernel selection: compiled extension when available, pure Python otherwise.

The compiled module ``degstab._fastcore`` is built from one hand-written C
source at install time and handles graphs of order at most 64, which covers
every hot path in the package. Larger instances, or installs without a
compiler, use ``degstab._purecore``. Both implement the same algorithms
with the same tie-breaking, so results are identical; only the speed
differs.

Every kernel is dispatched by one table, ``_KERNELS``, which maps a kernel
name to its number of leading graph arguments (adjacency masks). The module
defines one function per entry, named after the kernel: a call goes to the
compiled kernel, with its arguments unchanged, when ``_fastcore`` is loaded
and every graph argument has order at most 64, and to the pure kernel
otherwise. ``brute_hom``, the independent oracle for ``hom_search``, is not
in the table: it is pure only, so it shares no code with the compiled
search.

``hom_search`` first tries one exact refutation above both kernel sets: a
homomorphism maps a clique injectively onto a clique, so when a greedy
clique of the pattern is larger than the target's clique number there is
none, and the call returns ``(None, 0)`` without reaching either kernel.
Otherwise it returns the routed kernel's result unchanged. ``None`` from
``hom_search`` therefore means refuted by the clique bound (0 nodes) or by
exhaustive search. The target's exact clique number comes from
``clique_number``, a bitset branch and bound, memoized on the adjacency;
it is computed only when the pattern's greedy clique is larger than the
target's, so a target that cannot refute the pattern costs no exact search.

Set ``DEGSTAB_BACKEND=pure`` in the environment (before import) to force
the pure kernels, e.g. for benchmarking.
"""

from __future__ import annotations

import os
from functools import lru_cache

from . import _purecore

try:
    from . import _fastcore
except ImportError:
    _fastcore = None

if os.environ.get("DEGSTAB_BACKEND", "").strip().lower() in {"pure", "python"}:
    _fastcore = None

_FAST_MAX_ORDER = 64

# Distinct target adjacencies whose clique number hom_search keeps. The
# benchmark workloads' hit rates are in BENCH_clique_refutation.json.
_CLIQUE_MEMO_SIZE = 512

_KERNELS = {
    "hom_search": 2,
    "color_search": 1,
    "min_edits": 1,
    "odd_girth": 1,
}


def backend_name() -> str:
    """Name of the kernel set in use: "compiled" or "pure"."""
    return "compiled" if _fastcore is not None else "pure"


def has_compiled_backend() -> bool:
    return _fastcore is not None


def _dispatcher(name: str, graphs: int):
    pure = getattr(_purecore, name)

    def kernel(*args):
        if _fastcore is not None and max(map(len, args[:graphs])) <= _FAST_MAX_ORDER:
            return getattr(_fastcore, name)(*args)
        return pure(*args)

    kernel.__name__ = kernel.__qualname__ = name
    return kernel


# Defines hom_search, color_search, min_edits and odd_girth; the
# routed hom_search is then wrapped by the clique-bound refutation.
globals().update({name: _dispatcher(name, graphs) for name, graphs in _KERNELS.items()})
_routed_hom_search = hom_search


def hom_search(p_adj, t_adj):
    """The routed ``hom_search`` kernel, or ``(None, 0)`` when the pattern
    has a greedy clique larger than the target's clique number.

    The odd-girth refutation (odd girth of pattern below that of target)
    is deliberately absent: ``verify.check_hom_odd_girth`` tests exactly
    that lemma through this search, and would then only check itself.
    """
    k = greedy_clique(p_adj).bit_count()
    if k > greedy_clique(t_adj).bit_count() and k > _target_clique_number(tuple(t_adj)):
        return None, 0
    return _routed_hom_search(p_adj, t_adj)


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


_target_clique_number = lru_cache(maxsize=_CLIQUE_MEMO_SIZE)(clique_number)
