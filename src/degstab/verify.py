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

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from . import codecs
from .classify import degree_threshold, scan_target
from .errors import InvalidParameterError, ResourceBudgetError
from .gallery import SEQUENCE
from .graphs import Graph, cycle, degree_profile, odd_girth
from .hom import (
    chromatic_number,
    has_homomorphism,
    is_a_locally_bipartite,
    is_k_colorable,
)
from .witness import witness_for_gallery_index
from . import backend

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

    @classmethod
    def exhaustive(cls, max_order: int) -> "CorpusSpec":
        if not 0 <= max_order <= EXHAUSTIVE_MAX_ORDER:
            raise InvalidParameterError(
                f"exhaustive corpora support orders 0..{EXHAUSTIVE_MAX_ORDER}"
            )
        return cls(mode="exhaustive", max_order=max_order)

    @classmethod
    def random(cls, count: int, order: int, p: float, seed: int) -> "CorpusSpec":
        if count < 0 or order < 0:
            raise InvalidParameterError("count and order must be nonnegative")
        if not 0.0 <= p <= 1.0:
            raise InvalidParameterError("edge probability must lie in [0, 1]")
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
            for n in range(self.max_order + 1):
                pairs = [(i, j) for j in range(1, n) for i in range(j)]
                for mask in range(1 << len(pairs)):
                    adj = [0] * n
                    m = mask
                    idx = 0
                    while m:
                        if m & 1:
                            i, j = pairs[idx]
                            adj[i] |= 1 << j
                            adj[j] |= 1 << i
                        m >>= 1
                        idx += 1
                    yield Graph(n, tuple(adj))
        elif self.mode == "random":
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
        else:
            raise InvalidParameterError(f"unknown corpus mode {self.mode!r}")


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
            "elapsed": self.elapsed,
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
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def _graph_stream(corpus) -> Iterable[Graph]:
    # Checks accept a CorpusSpec or any plain iterable of graphs, so ad-hoc
    # corpora like a single named graph work too.
    if isinstance(corpus, CorpusSpec):
        return corpus.graphs()
    return corpus


def _sweep(suite: str, corpus, probe) -> VerificationReport:
    start = time.perf_counter()
    violations = []
    checked = 0
    for index, g in enumerate(_graph_stream(corpus)):
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
    if k < 1:
        raise InvalidParameterError("k must be at least 1")
    if k**g.order > EDIT_ORACLE_BUDGET:
        raise ResourceBudgetError(
            f"{k}^{g.order} partitions exceed the budget of {EDIT_ORACLE_BUDGET}"
        )
    return backend.min_edits(g.adj, k)


def check_hom_odd_girth(spec, g_max: int) -> VerificationReport:
    """Homomorphism into a (2g+1)-cycle forces odd girth >= 2g+1.

    Checked for every corpus graph and every g up to g_max; bipartite
    graphs satisfy it vacuously.
    """
    if g_max < 1:
        raise InvalidParameterError("g_max must be at least 1")
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
    if g < 2:
        raise InvalidParameterError("g must be at least 2")

    def probe(graph: Graph):
        if graph.order == 0:
            return None
        girth = odd_girth(graph)
        if girth is None:
            return None
        min_deg = min(m.bit_count() for m in graph.adj)
        if min_deg * (2 * g + 1) <= 2 * graph.order:
            return None
        if girth >= 2 * g + 1:
            return f"min degree {min_deg} of {graph.order} but odd girth {girth}"
        return None

    return _sweep(f"haggkvist(g={g})", spec, probe)


def check_properties(r: int, g_max: int = 11) -> VerificationReport:
    """Chromatic and degree-ratio facts about the scan targets.

    For indices up to g_max + 1 the clique-join of each gallery graph must
    be (r+1)-chromatic, and for each index up to g_max the matching witness
    family must hit its threshold ratio exactly.
    """
    if r not in (3, 4, 5):
        raise InvalidParameterError("r must be 3, 4 or 5")
    if not 1 <= g_max <= 11:
        raise InvalidParameterError("g_max must be in 1..11")
    start = time.perf_counter()
    violations = []
    checked = 0
    for j in range(1, min(g_max + 1, len(SEQUENCE)) + 1):
        target = scan_target("gallery-join", j, r)
        checked += 1
        chi = chromatic_number(target)
        if chi != r + 1:
            violations.append(
                Violation(j, target, f"join at index {j} has chromatic number {chi}")
            )
    for g in range(1, g_max + 1):
        seed = witness_for_gallery_index(r, g + 1)
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
        f"properties(r={r},g_max={g_max})",
        checked,
        tuple(violations),
        time.perf_counter() - start,
    )


def check_locally_bipartite_claims(a: int, spec) -> VerificationReport:
    """Falsification search: a-locally bipartite graphs with min degree
    strictly above (1 - 1/(a + 4/3)) n must be (a+2)-colorable."""
    if a < 1:
        raise InvalidParameterError("a must be at least 1")
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
    if k < 0:
        raise InvalidParameterError("k must be nonnegative")
    c = Fraction(c)
    best: LowerBoundHit | None = None
    for index, g in enumerate(_graph_stream(spec)):
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
