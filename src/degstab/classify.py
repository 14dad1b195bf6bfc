"""Exact minimum-degree stability thresholds.

For a graph ``h`` with chromatic number r + 1 >= 3 the threshold is the
least minimum-degree ratio above which every graph avoiding ``h`` is within
a vanishing edge fraction of r-partite. The classification is driven
entirely by homomorphism scans:

* r >= 3: first scan the twelve-member gallery sequence joined with a
  clique on r - 3 vertices, in table order and without assuming
  monotonicity. If index j is the least failure the threshold is exactly
  1 - 1/(r - 1 + C(j - 1)) with C drawn from the constant table.
* Every r: then (for r >= 3, if all twelve pass) scan joins of a clique
  on r - 2 vertices with growing odd cycles; the least failure g gives
  1 - 1/(r - 1 + 2/(2g - 1)). At r = 2 the clique is empty, the scan is
  the odd-cycle scan and this is the exact threshold 2/(2g + 1). For
  r >= 3 it is only the lower end of the rigorous interval, whose upper
  end is 1 - 1/(r - 1 + 1/7).

All thresholds are exact rationals end to end; floats appear only in
display code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .codecs import dump_json, parse_json
from .errors import (
    InvalidParameterError,
    ParseError,
    UndefinedThresholdError,
)
from .gallery import CONSTANT_TABLE, SEQUENCE, sequence_graph
from .graphs import Graph, _is_int, _require, complete, cycle, join
from .hom import HomWitness, chromatic_number, homomorphism_search, is_k_colorable

__all__ = [
    "CONSTANT_TABLE",
    "threshold_constant",
    "degree_threshold",
    "cycle_join_threshold",
    "interval_upper",
    "scan_target",
    "CertificateEntry",
    "DeltaResult",
    "classify",
]


def threshold_constant(index: int) -> Fraction:
    """Table constant for scan index 1..11, derived from the gallery's
    certified weightings (see ``degstab.gallery``)."""
    if not _is_int(index) or index not in CONSTANT_TABLE:
        raise InvalidParameterError("constant table index must be in 1..11")
    return CONSTANT_TABLE[index]


def degree_threshold(r: int, index: int) -> Fraction:
    """The exact threshold 1 - 1/(r - 1 + C(index)) for r >= 3."""
    _require("r", r, 3)
    return 1 - 1 / (r - 1 + threshold_constant(index))


def cycle_join_threshold(r: int, g: int) -> Fraction:
    """Degree ratio of the regular clique-plus-odd-cycle witness family.

    Equals 1 - 1/(r - 1 + 2/(2g - 1)): at r = 2, 2/(2g + 1), the exact
    threshold of a failure at the (2g+1)-cycle; at r >= 3, the interval
    branch's lower bound at failure index g.
    """
    _require("r", r, 2)
    _require("g", g, 1)
    return 1 - 1 / (r - 1 + Fraction(2, 2 * g - 1))


def interval_upper(r: int) -> Fraction:
    # Fixed at the last table constant, 1/7; the scan has no thirteenth entry.
    return degree_threshold(r, len(CONSTANT_TABLE))


# Scan targets ``scan_target`` keeps. Every scan, ``validate`` and ``certify``
# asks for the same few dozen immutable graphs.
_TARGET_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_TARGET_MEMO_SIZE, typed=True)
def scan_target(kind: str, index: int, r: int) -> Graph:
    """The index-th target of a scan, built once per argument triple.

    "gallery-join" joins a clique on r - 3 vertices to gallery member j.
    "cycle-join" joins a clique on r - 2 vertices to the (2g+1)-cycle, and
    "odd-cycle" names the same target at r = 2, where the clique is empty
    and the target is the labelled cycle. The checks run on a miss only."""
    if kind == "gallery-join":
        _require("index", index, 1)
        _require("r", r, 3)
        return join(complete(r - 3), sequence_graph(index))
    if kind in ("odd-cycle", "cycle-join"):
        _require("index", index, 1)
        _require("r", r, 2)
        return join(complete(r - 2), cycle(2 * index + 1))
    raise InvalidParameterError(f"unknown scan kind {kind!r}")


@dataclass(frozen=True)
class CertificateEntry:
    """One passing homomorphism from a scan, with enough data to rebuild
    the target: kind is "odd-cycle", "gallery-join" or "cycle-join"."""

    kind: str
    index: int
    witness: HomWitness

    def target(self, r: int) -> Graph:
        return scan_target(self.kind, self.index, r)


# The branch decided by a failure at each kind of scan step, and back.
_BRANCH = {"odd-cycle": "odd-cycle", "gallery-join": "gallery", "cycle-join": "interval"}
_KIND = {branch: kind for kind, branch in _BRANCH.items()}


def _steps(h: Graph, r: int) -> list[tuple[str, int]]:
    """Every (kind, index) scan step of h at r, in scan order.

    For r >= 3, first the twelve gallery joins in table order, none
    skipped since the sequence is not homomorphism-monotone. Then, for
    every r, the cycle joins for g = 1..(|h| + 1)/2, named "odd-cycle" at
    r = 2. As chi(h) = r + 1, a homomorphism into K_{r-2} joined to the
    (2g+1)-cycle sends a non-bipartite part of h to the cycle, so it winds
    an odd cycle of h, at most |h| long, onto the cycle, which takes at
    least 2g + 1 vertices. The last step, where 2g + 1 > |h|, fails.
    """
    kind = "odd-cycle" if r == 2 else "cycle-join"
    gallery = [] if r == 2 else [("gallery-join", j) for j in range(1, len(SEQUENCE) + 1)]
    return gallery + [(kind, g) for g in range(1, (h.order + 1) // 2 + 1)]


def _threshold(branch: str, r: int, index: int):
    """(value, lower, upper) for a failure at index on branch."""
    if branch == "odd-cycle":
        return cycle_join_threshold(r, index), None, None
    if branch == "gallery":
        return degree_threshold(r, index - 1), None, None
    if branch == "interval":
        return None, cycle_join_threshold(r, index), interval_upper(r)
    raise InvalidParameterError(f"unknown branch {branch!r}")


@dataclass(frozen=True)
class DeltaResult:
    """The classified threshold.

    branch is "odd-cycle" (exact, r = 2), "gallery" (exact, r >= 3) or
    "interval" (rigorous bounds only). index is the least failing scan
    index (g for the cycle scans, j for the gallery scan). Exactly one of
    value or (lower, upper) is populated. certificate holds witnesses for
    every index that passed before the failure.
    """

    r: int
    branch: str
    index: int
    value: Fraction | None
    lower: Fraction | None
    upper: Fraction | None
    certificate: tuple[CertificateEntry, ...]
    nodes_expanded: int

    def describe(self) -> str:
        if self.branch == "interval":
            return (
                f"{self.lower}..{self.upper} ({float(self.lower):g}..{float(self.upper):g}) "
                f"[interval branch, g={self.index}]"
            )
        label = "g" if self.branch == "odd-cycle" else "j"
        return (
            f"{self.value} ({float(self.value):g}) "
            f"[{self.branch} branch, {label}={self.index}]"
        )

    def to_json(self) -> dict:
        def frac(x: Fraction | None):
            return None if x is None else {"den": x.denominator, "num": x.numerator}

        return {
            "branch": self.branch,
            "certificate": [
                {"index": e.index, "kind": e.kind, "mapping": list(e.witness.mapping)}
                for e in self.certificate
            ],
            "index": self.index,
            "lower": frac(self.lower),
            "nodes_expanded": self.nodes_expanded,
            "r": self.r,
            "upper": frac(self.upper),
            "value": frac(self.value),
        }

    @classmethod
    def from_json(cls, data: dict) -> "DeltaResult":
        def integer(value):
            # JSON true and false load as bool, a subclass of int.
            if not _is_int(value):
                raise TypeError(f"{value!r} is not an integer")
            return value

        def frac(obj):
            return None if obj is None else Fraction(integer(obj["num"]), integer(obj["den"]))

        try:
            return cls(
                r=integer(data["r"]),
                branch=data["branch"],
                index=integer(data["index"]),
                value=frac(data["value"]),
                lower=frac(data["lower"]),
                upper=frac(data["upper"]),
                certificate=tuple(
                    CertificateEntry(
                        e["kind"],
                        integer(e["index"]),
                        HomWitness(tuple([integer(x) for x in e["mapping"]])),
                    )
                    for e in data["certificate"]
                ),
                nodes_expanded=integer(data["nodes_expanded"]),
            )
        except (KeyError, TypeError, ZeroDivisionError) as e:
            raise ParseError(f"malformed threshold result: {e}") from None

    def dumps(self) -> str:
        return dump_json(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "DeltaResult":
        return cls.from_json(parse_json(text))

    def validate(self, h: Graph) -> bool:
        """Recheck r, the threshold arithmetic and the stored certificate
        against h. The failing step must be one of h's scan steps after the
        first, and the certificate must hold a valid witness for exactly
        the steps before it, in scan order. That the failing step fails is
        not re-proved here; ``certify`` checks it."""
        try:
            # The first step's target is K_{r+1}, so a valid first witness
            # proves chi(h) <= r + 1, leaving chi(h) > r to check; and as
            # every (r+1)-chromatic h maps into it, no true result fails there.
            if not self.certificate or is_k_colorable(h, self.r):
                return False
            if (self.value, self.lower, self.upper) != _threshold(self.branch, self.r, self.index):
                return False
            steps = _steps(h, self.r)
            failing = (_KIND[self.branch], self.index)
            if failing not in steps:
                return False
            if [(e.kind, e.index) for e in self.certificate] != steps[: steps.index(failing)]:
                return False
            return all(e.witness.is_valid(h, e.target(self.r)) for e in self.certificate)
        except InvalidParameterError:
            return False


def classify(h: Graph) -> DeltaResult:
    """Compute the stability threshold of h, exactly or as an interval.

    Raises UndefinedThresholdError for graphs of chromatic number below 3.
    """
    chi = chromatic_number(h)
    if chi < 3:
        raise UndefinedThresholdError(
            "the threshold is defined only for chromatic number at least 3"
        )
    r = chi - 1
    certificate = []
    nodes = 0
    for kind, i in _steps(h, r):
        witness, n = homomorphism_search(h, scan_target(kind, i, r))
        nodes += n
        if witness is None:
            branch = _BRANCH[kind]
            value, lower, upper = _threshold(branch, r, i)
            return DeltaResult(r, branch, i, value, lower, upper, tuple(certificate), nodes)
        certificate.append(CertificateEntry(kind, i, witness))
    raise AssertionError(f"the {kind} scan passed every step, past its bound")
