"""Kernel selection: compiled extension when available, pure Python otherwise.

The compiled module ``degstab._fastcore`` is built from Cython at install
time and handles graphs of order at most 64, which covers every hot path in
the package. Larger instances, or installs without a compiler, use
``degstab._purecore``. Both implement the same algorithms with the same
tie-breaking, so results are identical; only the speed differs.

Every kernel is dispatched by one table, ``_KERNELS``, which maps a kernel
name to its number of leading graph arguments (adjacency masks). The module
defines one function per entry, named after the kernel: a call goes to the
compiled kernel, with each graph argument converted to a list, when
``_fastcore`` is loaded and every graph argument has order at most 64, and
to the pure kernel otherwise.

Set ``DEGSTAB_BACKEND=pure`` in the environment (before import) to force
the pure kernels, e.g. for benchmarking.
"""

from __future__ import annotations

import os

from . import _purecore

try:
    from . import _fastcore
except ImportError:
    _fastcore = None

if os.environ.get("DEGSTAB_BACKEND", "").strip().lower() in {"pure", "python"}:
    _fastcore = None

_FAST_MAX_ORDER = 64

_KERNELS = {
    "hom_search": 2,
    "brute_hom": 2,
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
            return getattr(_fastcore, name)(*map(list, args[:graphs]), *args[graphs:])
        return pure(*args)

    kernel.__name__ = kernel.__qualname__ = name
    return kernel


# Defines hom_search, brute_hom, color_search, min_edits and odd_girth.
globals().update({name: _dispatcher(name, graphs) for name, graphs in _KERNELS.items()})
