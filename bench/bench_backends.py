#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Runs the same deterministic workloads through degstab._fastcore and
degstab._purecore, asserts the outputs are identical, and prints a timing
table. A last row times ``degstab.backend.hom_search`` on the refutation
workload: what ``classify`` pays, with the clique bound in front of the
active kernel set. Usage:

    python bench/bench_backends.py [--repeat N]
"""

from __future__ import annotations

import argparse
import random
import time

from degstab import _purecore, backend
from degstab.gallery import SEQUENCE, sequence_graph
from degstab.graphs import Graph, complete, cycle, join, wheel

try:
    from degstab import _fastcore
except ImportError:
    _fastcore = None


def random_adj(rng: random.Random, n: int, p: float) -> list[int]:
    adj = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def mycielskian(base: Graph, k: int) -> Graph:
    """Generalized Mycielskian M_k(base): layer 0 is the base, (u, i) is
    joined to (v, i+1) for each base edge uv, and an apex to all of layer k."""
    n = base.order
    edges = list(base.edges())
    for i in range(k):
        for u, v in base.edges():
            edges += [(i * n + u, (i + 1) * n + v), (i * n + v, (i + 1) * n + u)]
    edges += [(k * n + v, (k + 1) * n) for v in range(n)]
    return Graph.from_edges((k + 1) * n + 1, edges)


def cycle_adj(n: int) -> list[int]:
    adj = [0] * n
    for v in range(n):
        u = (v + 1) % n
        adj[v] |= 1 << u
        adj[u] |= 1 << v
    return adj


def workload_hom_search():
    rng = random.Random(11)
    cases = []
    c5 = cycle_adj(5)
    c7 = cycle_adj(7)
    for _ in range(150):
        cases.append((random_adj(rng, 9, 0.35), c5))
        cases.append((random_adj(rng, 9, 0.35), c7))

    def run(mod):
        return [mod.hom_search(p, t) for p, t in cases]

    return "hom_search (300 searches, 9-vertex patterns)", run


def workload_refutations():
    # Refutation-heavy raw-kernel cases: K_{r+1} -> K_{r-3} v W5 has no
    # homomorphism, and M_1(C_7) maps into some gallery joins but not
    # others, so most of these are exhaustive refutations. classify never
    # sends the clique cases to a kernel; what it pays for this set is the
    # backend.hom_search row.
    cases = [(complete(r + 1).adj, join(complete(r - 3), wheel(5)).adj) for r in range(3, 8)]
    m1c7 = mycielskian(cycle(7), 1).adj
    cases += [(m1c7, sequence_graph(j).adj) for j in range(1, len(SEQUENCE) + 1)]

    def run(mod):
        return [mod.hom_search(p, t) for p, t in cases]

    return "hom_search (K_r+1 -> K_r-3 v W5, M1(C7) -> gallery)", run


def workload_color():
    rng = random.Random(13)
    cases = [(random_adj(rng, 14, 0.5), k) for _ in range(120) for k in (3, 4)]

    def run(mod):
        return [mod.color_search(adj, k) for adj, k in cases]

    return "color_search (240 instances, 14 vertices)", run


def workload_edits():
    rng = random.Random(14)
    cases = [(random_adj(rng, 13, 0.5), k) for _ in range(30) for k in (2, 3)]

    def run(mod):
        return [mod.min_edits(adj, k) for adj, k in cases]

    return "min_edits (60 instances, 13 vertices)", run


def workload_odd_girth():
    rng = random.Random(15)
    cases = [random_adj(rng, 16, 0.25) for _ in range(3000)]

    def run(mod):
        return [mod.odd_girth(adj) for adj in cases]

    return "odd_girth (3000 graphs, 16 vertices)", run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3, help="timing repeats, best taken")
    args = parser.parse_args()

    workloads = [
        workload_hom_search(),
        workload_refutations(),
        workload_color(),
        workload_edits(),
        workload_odd_girth(),
    ]

    if _fastcore is None:
        print("compiled backend not available; timing pure kernels only")

    print(f"{'workload':<52} {'pure':>10} {'compiled':>10} {'speedup':>8}")
    for name, run in workloads:
        pure_best = min(
            _timed(run, _purecore) for _ in range(args.repeat)
        )
        line = f"{name:<52} {pure_best:>9.3f}s"
        if _fastcore is not None:
            expected = run(_purecore)
            got = run(_fastcore)
            if expected != got:
                raise AssertionError(f"backend outputs differ on workload {name!r}")
            fast_best = min(_timed(run, _fastcore) for _ in range(args.repeat))
            line += f" {fast_best:>9.3f}s {pure_best / fast_best:>7.1f}x"
        print(line)

    # What classify pays: the clique bound first, then the active kernels.
    _, refutations = workload_refutations()
    dispatched = min(_timed(refutations, backend) for _ in range(args.repeat))
    name = f"backend.hom_search, same cases ({backend.backend_name()})"
    print(f"{name:<52} {dispatched:>9.3f}s")
    return 0


def _timed(run, mod) -> float:
    start = time.perf_counter()
    run(mod)
    return time.perf_counter() - start


if __name__ == "__main__":
    raise SystemExit(main())
