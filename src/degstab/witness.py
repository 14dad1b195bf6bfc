"""Extremal witness families and threshold certification.

Each exact classification is backed by a concrete family of graphs that
avoid the classified pattern while holding minimum degree arbitrarily close
to the threshold. Its members are balanced blow-ups of a seed, and every
seed comes from one rule, ``scan_seed(kind, index, r)``, keyed like
``scan_target``: the failing step's target K_a + B blown up by a weighting
w of B on B and by (1 - t)|w| on each clique vertex, where
t = min_v (Aw)_v / |w|. The seed's ratio is then exactly
1 - 1/(a + 1/(1 - t)).

* gallery branch: a = r - 3 and the failing member's certified weighting,
  except for a wheel of rim length k = 2g + 1, K4 = W3 included, whose
  seed is the cycle-join seed of g, since W(k) = K1 + C(k): the same
  graph, labelled clique first;
* odd-cycle and interval branches, the cycle joins at r = 2 and r >= 3:
  a = r - 2 and the unit (2g+1)-cycle, so the seed is regular, with
  (2g - 1)(r - 1) + 2 vertices and ratio ``cycle_join_threshold(r, g)``.
  At r = 2 the clique is empty and the seed is the failing odd cycle
  itself.

``certify`` builds the family member near a requested order and checks the
three facts that make it a witness: the classified pattern has no
homomorphism into the family's base (so no member contains it), the member
is within the unavoidable rounding slack of the threshold ratio, and the
seed is not r-colorable, so the counting bound on edge edits holds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .classify import _KIND, DeltaResult, scan_target
from .errors import InvalidParameterError
from .gallery import (
    _WEIGHTINGS,
    _WHEELS,
    _weighted_degrees,
    gallery_weighting,
    sequence_tag,
)
from .graphs import (
    Graph,
    Weighting,
    _require,
    balanced_blow_up,
    blow_up,
    degree_profile,
)
from .hom import has_homomorphism, is_k_colorable

__all__ = [
    "scan_seed",
    "scaled_gallery_weighting",
    "edit_lower_bound",
    "witness_base",
    "CertificationCheck",
    "CertificationReport",
    "certify",
]

# Seeds ``scan_seed`` keeps: ``certify`` asks for the same few immutable
# seeds again and again.
_SEED_MEMO_SIZE = 128

# Members ``certify`` keeps: many patterns share a seed, and a ``Graph`` is
# immutable, so every report may hold the same member.
_MEMBER_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_SEED_MEMO_SIZE, typed=True)
def scan_seed(kind: str, index: int, r: int) -> Graph:
    """The seed of a failure at scan step (kind, index) at r, by the rule
    above, built once per argument triple. It checks its arguments by
    building the target first, so it raises what ``scan_target`` raises."""
    target = scan_target(kind, index, r)
    tag = sequence_tag(index) if kind == "gallery-join" else None
    if tag in _WHEELS:
        return scan_seed("cycle-join", _WHEELS[tag] // 2, r)
    weights = _WEIGHTINGS[tag].weights if tag else (1,) * (2 * index + 1)
    a = target.order - len(weights)
    # A clique vertex's weighted degree is |w|, never below a base vertex's.
    clique = sum(weights) - min(_weighted_degrees(target, (0,) * a + weights))
    return blow_up(Weighting(target, (clique,) * a + weights))


def scaled_gallery_weighting(tag: str, scale: int, strict: bool = False) -> Weighting:
    """The stored weighting with all weights multiplied by scale.

    With ``strict=True`` zero weights become 1, producing a genuine blow-up
    of the whole gallery graph; its degree ratio then approaches the stored
    optimum from below as scale grows.
    """
    _require("scale", scale, 1)
    w = gallery_weighting(tag)
    weights = tuple(
        x * scale if x or not strict else 1
        for x in w.weights
    )
    return Weighting(w.base, weights)


def edit_lower_bound(base_order: int, n: int) -> int:
    """Counting bound: a balanced blow-up of a base with a non-colorable
    core needs at least floor(n / base_order)^2 edge deletions to lose it.
    """
    _require("base_order", base_order, 1)
    _require("n", n, base_order)
    return (n // base_order) ** 2


@functools.lru_cache(maxsize=_MEMBER_MEMO_SIZE, typed=True)
def _member(seed: Graph, n: int) -> Graph:
    """``balanced_blow_up(seed, n)``, built once per (seed, n)."""
    return balanced_blow_up(seed, n)


def witness_base(result: DeltaResult) -> tuple[Graph, Graph]:
    """The witness family's seed graph and its homomorphism base.

    Returns (seed, base): members of the family are balanced blow-ups of
    seed, and seed is itself a blow-up of base, so any graph with no
    homomorphism into base appears in no member. The base is the scan
    target that failed.
    """
    kind = _KIND.get(result.branch)
    if kind is None:
        raise InvalidParameterError(f"unknown branch {result.branch!r}")
    step = (kind, result.index, result.r)
    return scan_seed(*step), scan_target(*step)


@dataclass(frozen=True)
class CertificationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CertificationReport:
    witness: Graph
    seed_order: int
    checks: tuple[CertificationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def certify(h: Graph, result: DeltaResult, n: int) -> CertificationReport:
    """Build the witness near order n and check it certifies the result.

    Checks, in order: (a) h has no homomorphism into the family base, which
    proves every family member avoids h; (b) the member's min-degree ratio
    is at least the claimed threshold minus seed_order/n, the exact worst
    case of balancing loss; (c) the seed is not r-colorable, without which
    the edit counting bound does not hold.
    """
    if not result.validate(h):
        raise InvalidParameterError("result does not match the supplied graph")
    seed, base = witness_base(result)
    member = _member(seed, n)
    target_value = result.value if result.value is not None else result.lower

    hom = has_homomorphism(h, base)
    check_a = CertificationCheck(
        "hom-free",
        hom is None,
        "no homomorphism into the witness base"
        if hom is None
        else "pattern maps into the witness base; family is not pattern-free",
    )

    ratio = Fraction(degree_profile(member).min_degree, member.order)
    slack = Fraction(seed.order, n)
    check_b = CertificationCheck(
        "degree-ratio",
        ratio >= target_value - slack,
        f"min degree ratio {ratio} vs threshold {target_value} with slack {slack}",
    )

    bound = edit_lower_bound(seed.order, n)
    colorable = is_k_colorable(seed, result.r)
    check_c = CertificationCheck(
        "edit-bound",
        not colorable,
        f"seed is {result.r}-colorable; the counting bound does not hold"
        if colorable
        else f"seed is not {result.r}-colorable; counting bound {bound} edge deletions",
    )
    return CertificationReport(member, seed.order, (check_a, check_b, check_c))
