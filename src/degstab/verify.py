"""Brute-force oracles and corpus checks at desk scale.

Corpora are either exhaustive (every labelled graph on at most seven
vertices) or seeded pseudo-random, and both are bit-reproducible. The
checks sweep a corpus and report violations of facts the rest of the
package relies on; on a correct implementation every suite passes, so any
violation localises a bug.

Strictness matters at the thresholds: the degree hypotheses here are
strict inequalities, and graphs sitting exactly on a boundary are vacuous
cases, never failures.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import codecs
from .classify import degree_threshold, scan_target
from .errors import InvalidParameterError, ResourceBudgetError
from .gallery import SEQUENCE
from .graphs import Graph, _is_int, _require, cycle, degree_profile, odd_girth
from .hom import (
    chromatic_number,
    has_homomorphism,
    is_a_locally_bipartite,
    is_k_colorable,
)
from .witness import scan_seed

__all__ = [
    "CorpusSpec",
    "VerificationReport",
    "LowerBoundHit",
    "brute_min_edits_to_k_partite",
    "check_hom_odd_girth",
    "check_haggkvist",
    "check_properties",
    "check_locally_bipartite_claims",
    "search_hom_free_lower_bound",
]

EXHAUSTIVE_MAX_ORDER = 7
EDIT_ORACLE_BUDGET = 10**8


@dataclass(frozen=True)
class CorpusSpec:
    """A reproducible stream of graphs.

    mode "exhaustive": all labelled graphs on 0..max_order vertices, in
    order of order then edge-mask value. mode "random": ``count`` graphs
    on ``order`` vertices, each pair drawn independently with probability
    ``p`` from a fixed-seed Mersenne Twister, so the stream is
    bit-reproducible from (count, order, p, seed).
    """

    mode: str
    max_order: int = 0
    count: int = 0
    order: int = 0
    p: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        # Every construction passes here, so a spec that exists is valid.
        if self.mode == "exhaustive":
            _require("max_order", self.max_order, 0)
            if self.max_order > EXHAUSTIVE_MAX_ORDER:
                raise InvalidParameterError(
                    f"exhaustive corpora support orders 0..{EXHAUSTIVE_MAX_ORDER}"
                )
        elif self.mode == "random":
            _require("count", self.count, 0)
            _require("order", self.order, 0)
            p = self.p
            if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0 <= p <= 1:
                raise InvalidParameterError("edge probability p must be a number in [0, 1]")
            if not _is_int(self.seed):
                raise InvalidParameterError("seed must be an integer")
            # A float, so that the label reads p as parse does.
            object.__setattr__(self, "p", float(p))
        else:
            raise InvalidParameterError(f"unknown corpus mode {self.mode!r}")

    @classmethod
    def exhaustive(cls, max_order: int) -> "CorpusSpec":
        return cls(mode="exhaustive", max_order=max_order)

    @classmethod
    def random(cls, count: int, order: int, p: float, seed: int) -> "CorpusSpec":
        return cls(mode="random", count=count, order=order, p=p, seed=seed)

    @classmethod
    def parse(cls, text: str) -> "CorpusSpec":
        """Parse "exhaustive:K" or "random:COUNT,ORDER,P,SEED"."""
        kind, _, rest = text.partition(":")
        try:
            if kind == "exhaustive":
                return cls.exhaustive(int(rest))
            if kind == "random":
                count, order, p, seed = rest.split(",")
                return cls.random(int(count), int(order), float(p), int(seed))
        except ValueError as e:
            raise InvalidParameterError(f"bad corpus spec {text!r}: {e}") from None
        raise InvalidParameterError(f"bad corpus spec {text!r}")

    def label(self) -> str:
        if self.mode == "exhaustive":
            return f"exhaustive:{self.max_order}"
        return f"random:{self.count},{self.order},{self.p},{self.seed}"

    def graphs(self) -> Iterator[Graph]:
        if self.mode == "exhaustive":
            # The edge mask of order n is that of order n - 1 with the
            # neighbours s of the new vertex n - 1 in its top bits, so order
            # n is every s, ascending, over every order n - 1 graph in turn.
            # Only the previous order is kept, and the last is not stored.
            previous = [()]
            yield Graph(0, ())
            for n in range(1, self.max_order + 1):
                grown = []
                for s in range(1 << (n - 1)):
                    col = [(s >> i & 1) << (n - 1) for i in range(n - 1)]
                    for base in previous:
                        adj = (*[b | c for b, c in zip(base, col)], s)
                        yield Graph(n, adj)
                        if n < self.max_order:
                            grown.append(adj)
                previous = grown
        else:
            rng = random.Random(self.seed)
            n = self.order
            pairs = [(i, j) for j in range(1, n) for i in range(j)]
            for _ in range(self.count):
                adj = [0] * n
                for i, j in pairs:
                    if rng.random() < self.p:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
                yield Graph(n, tuple(adj))

    def __iter__(self) -> Iterator[Graph]:
        # So checks take a CorpusSpec and a plain list of graphs alike.
        return self.graphs()


@dataclass(frozen=True)
class Violation:
    index: int
    graph: Graph
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checked: int
    violations: tuple[Violation, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "suite": self.suite,
            "violations": [
                {
                    "detail": v.detail,
                    "graph6": codecs.encode(v.graph, "graph6"),
                    "index": v.index,
                }
                for v in self.violations
            ],
        }

    def dumps(self) -> str:
        return codecs.dump_json(self.to_json())


def _sweep(suite: str, corpus, probe) -> VerificationReport:
    start = time.perf_counter()
    violations = []
    checked = 0
    for index, g in enumerate(corpus):
        checked += 1
        detail = probe(g)
        if detail is not None:
            violations.append(Violation(index, g, detail))
    return VerificationReport(
        suite, checked, tuple(violations), time.perf_counter() - start
    )


def brute_min_edits_to_k_partite(g: Graph, k: int) -> int:
    """Minimum intra-part edges over all k-part vertex partitions.

    Zero exactly when g is k-colorable. Raises ResourceBudgetError when
    k^order exceeds the enumeration budget of 10^8.
    """
    _require("k", k, 1)
    if k**g.order > EDIT_ORACLE_BUDGET:
        raise ResourceBudgetError(
            f"{k}^{g.order} partitions exceed the budget of {EDIT_ORACLE_BUDGET}"
        )
    return min_edits(g.adj, k)


def min_edits(adj, k):
    """Fewest intra-part edges over all partitions into at most k parts.

    Branch and bound over restricted-growth label strings (vertex 0 always
    gets label 0, each vertex may open at most one new part), which
    enumerates partitions rather than labelings. Exact.
    """
    n = len(adj)
    if k <= 0:
        raise ValueError("k must be positive")
    if n == 0 or k >= n:
        return 0
    parts = [0] * k
    # Putting everything in one part is a valid partition, so the total
    # edge count is an achievable upper bound.
    best = [sum(a.bit_count() for a in adj) // 2]
    _edits_rec(adj, parts, k, 0, -1, 0, best)
    return best[0]


def _edits_rec(adj, parts, k, v, maxlab, cost, best):
    if v == len(adj):
        best[0] = cost
        return
    lim = maxlab + 1
    if lim > k - 1:
        lim = k - 1
    av = adj[v]
    bit = 1 << v
    for lab in range(lim + 1):
        nc = cost + (av & parts[lab]).bit_count()
        if nc < best[0]:
            parts[lab] |= bit
            _edits_rec(adj, parts, k, v + 1, maxlab if lab <= maxlab else lab, nc, best)
            parts[lab] &= ~bit


def check_hom_odd_girth(spec, g_max: int) -> VerificationReport:
    """Homomorphism into a (2g+1)-cycle forces odd girth >= 2g+1.

    Checked for every corpus graph and every g up to g_max; bipartite
    graphs satisfy it vacuously.
    """
    _require("g_max", g_max, 1)
    targets = [(g, cycle(2 * g + 1)) for g in range(1, g_max + 1)]

    def probe(g: Graph):
        girth = odd_girth(g)
        if girth is None:
            return None
        for idx, target in targets:
            if has_homomorphism(g, target) is not None and girth < 2 * idx + 1:
                return f"maps into the {2 * idx + 1}-cycle but has odd girth {girth}"
        return None

    return _sweep(f"odd-girth(g_max={g_max})", spec, probe)


def check_haggkvist(spec, g: int) -> VerificationReport:
    """Non-bipartite graphs of min degree above 2n/(2g+1) have a short odd cycle.

    "Short" means length below 2g + 1; the degree hypothesis is strict, so
    graphs exactly on the boundary are vacuous.
    """
    _require("g", g, 2)

    def probe(graph: Graph):
        if graph.order == 0:
            return None
        min_deg = min(m.bit_count() for m in graph.adj)
        if min_deg * (2 * g + 1) <= 2 * graph.order:
            return None
        girth = odd_girth(graph)
        if girth is not None and girth >= 2 * g + 1:
            return f"min degree {min_deg} of {graph.order} but odd girth {girth}"
        return None

    return _sweep(f"haggkvist(g={g})", spec, probe)


def check_properties(r: int) -> VerificationReport:
    """Chromatic and degree-ratio facts about the scan targets.

    The clique-join of each of the twelve gallery graphs must be
    (r+1)-chromatic, and for each index up to 11 the matching witness
    family must hit its threshold ratio exactly.
    """
    _require("r", r, 3)
    if r > 5:
        raise InvalidParameterError("r must be 3, 4 or 5")
    start = time.perf_counter()
    violations = []
    checked = 0
    for j in range(1, len(SEQUENCE) + 1):
        target = scan_target("gallery-join", j, r)
        checked += 1
        chi = chromatic_number(target)
        if chi != r + 1:
            violations.append(
                Violation(j, target, f"join at index {j} has chromatic number {chi}")
            )
    for g in range(1, len(SEQUENCE)):
        seed = scan_seed("gallery-join", g + 1, r)
        checked += 1
        profile = degree_profile(seed)
        ratio = Fraction(profile.min_degree, seed.order)
        if ratio != degree_threshold(r, g):
            violations.append(
                Violation(
                    g,
                    seed,
                    f"witness ratio {ratio} at index {g} misses {degree_threshold(r, g)}",
                )
            )
    return VerificationReport(
        f"properties(r={r},g_max={len(SEQUENCE) - 1})",
        checked,
        tuple(violations),
        time.perf_counter() - start,
    )


def check_locally_bipartite_claims(a: int, spec) -> VerificationReport:
    """Falsification search: a-locally bipartite graphs with min degree
    strictly above (1 - 1/(a + 4/3)) n must be (a+2)-colorable."""
    _require("a", a, 1)
    threshold = 1 - 1 / (a + Fraction(4, 3))

    def probe(g: Graph):
        if g.order == 0:
            return None
        min_deg = min(m.bit_count() for m in g.adj)
        if Fraction(min_deg) <= threshold * g.order:
            return None
        ok, _ = is_a_locally_bipartite(g, a)
        if not ok:
            return None
        if not is_k_colorable(g, a + 2):
            return f"locally bipartite at a={a}, dense, but not {a + 2}-colorable"
        return None

    return _sweep(f"local-bip(a={a})", spec, probe)


@dataclass(frozen=True)
class LowerBoundHit:
    graph: Graph
    index: int
    min_degree: int
    ratio: Fraction


def search_hom_free_lower_bound(
    h: Graph, k: int, c: Fraction, spec
) -> LowerBoundHit | None:
    """Scan a corpus for a non-k-colorable graph of min-degree ratio at
    least c admitting no homomorphism from h.

    Any hit certifies that the threshold of h is at least c when
    k + 1 equals the chromatic number of h. Returns the hit with the
    largest ratio (earliest corpus index on ties), or None.
    """
    _require("k", k, 0)
    c = Fraction(c)
    best: LowerBoundHit | None = None
    for index, g in enumerate(spec):
        if g.order == 0:
            continue
        min_deg = min(m.bit_count() for m in g.adj)
        ratio = Fraction(min_deg, g.order)
        if ratio < c:
            continue
        if best is not None and ratio <= best.ratio:
            continue
        if is_k_colorable(g, k):
            continue
        if has_homomorphism(h, g) is not None:
            continue
        best = LowerBoundHit(g, index, min_deg, ratio)
    return best
