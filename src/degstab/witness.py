"""Extremal witness families and threshold certification.

Each exact classification is backed by a concrete family of graphs that
avoid the classified pattern while holding minimum degree arbitrarily close
to the threshold. Its members are balanced blow-ups of a seed, and every
seed comes from one rule, ``_join_seed(a, w)``: a clique on a vertices
joined to the base of a weighting w, blown up by w on the base and
(1 - t)|w| on each clique vertex, where t = min_v (Aw)_v / |w|. The seed's
ratio is then exactly 1 - 1/(a + 1/(1 - t)).

* gallery branch: a = r - 3 and the failing member's certified weighting,
  but a = r - 2 and the unit k-cycle for a wheel of rim length k, K4 = W3
  included, since W(k) = K1 + C(k): the same seed, labelled clique first;
* odd-cycle and interval branches, the cycle joins at r = 2 and r >= 3:
  a = r - 2 and the unit (2g+1)-cycle. At r = 2 the clique is empty and
  the seed is the failing odd cycle itself.

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
    SEQUENCE,
    _weighted_degrees,
    canonical_tag,
    gallery_weighting,
    sequence_tag,
)
from .graphs import (
    Graph,
    Weighting,
    _require,
    balanced_blow_up,
    blow_up,
    complete,
    cycle,
    degree_profile,
    join,
)
from .hom import has_homomorphism, is_k_colorable

__all__ = [
    "odd_cycle_witness",
    "regular_join_witness",
    "gallery_join_witness",
    "scaled_gallery_weighting",
    "edit_lower_bound",
    "witness_base",
    "CertificationCheck",
    "CertificationReport",
    "certify",
]

def odd_cycle_witness(g: int, n: int) -> Graph:
    """Balanced blow-up of the (2g+1)-cycle on n vertices: the cycle-join
    family at r = 2, whose clique is empty."""
    return balanced_blow_up(regular_join_witness(2, g), n)


def _join_seed(a: int, w: Weighting) -> Graph:
    # The clique weight (1 - t)|w|: |w| minus the least weighted degree.
    clique = w.total - min(_weighted_degrees(w.base, w.weights))
    return blow_up(Weighting(join(complete(a), w.base), (clique,) * a + w.weights))


# Seeds each of ``regular_join_witness`` and ``witness_for_gallery_index``
# keeps: ``certify`` asks for the same few immutable seeds again and again.
_SEED_MEMO_SIZE = 128


@functools.lru_cache(maxsize=_SEED_MEMO_SIZE, typed=True)
def regular_join_witness(r: int, g: int) -> Graph:
    """Clique on r - 2 vertices blown up by 2g - 1, joined to a (2g+1)-cycle.

    Has (2g-1)(r-1) + 2 vertices, is regular of degree (2g-1)(r-2) + 2,
    and its degree/order ratio equals cycle_join_threshold(r, g) exactly.
    At r = 2 the clique is empty and this is the labelled (2g+1)-cycle,
    2-regular with ratio 2/(2g + 1). Built once per argument pair.
    """
    _require("r", r, 2)
    _require("g", g, 1)
    return _join_seed(r - 2, Weighting(cycle(2 * g + 1), (1,) * (2 * g + 1)))


def gallery_join_witness(r: int, tag: str) -> Graph:
    """Extremal join witness for the locally bipartite gallery members.

    The member carries its certified weighting (unit weights for C7bar),
    joined to a clique on r - 3 vertices whose classes have weight
    (1 - t)|w|, which is 7 - 4 = 3 for C7bar. For r = 3 the clique part is
    empty and the weighted blow-up itself is returned. The tag is any name
    ``canonical_tag`` accepts; the wheels (K4 = W3 included) and the
    Petersen graph have no join witness.
    """
    _require("r", r, 3)
    tag = canonical_tag(tag)
    if tag in _WHEELS or tag not in SEQUENCE:
        raise InvalidParameterError(f"no join witness for gallery graph {tag!r}")
    return _join_seed(r - 3, _WEIGHTINGS[tag])


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


@functools.lru_cache(maxsize=_SEED_MEMO_SIZE, typed=True)
def witness_for_gallery_index(r: int, index: int) -> Graph:
    """Witness family seed for a failure at the given 1..12 scan index.

    A wheel of rim length k = 2g + 1, K4 = W3 included, uses the cycle-join
    seed of g; the other members their certified weighting. Built once per
    argument pair.
    """
    _require("r", r, 3)
    tag = sequence_tag(index)
    if tag in _WHEELS:
        return regular_join_witness(r, _WHEELS[tag] // 2)
    return gallery_join_witness(r, tag)


def witness_base(result: DeltaResult) -> tuple[Graph, Graph]:
    """The witness family's seed graph and its homomorphism base.

    Returns (seed, base): members of the family are balanced blow-ups of
    seed, and seed is itself a blow-up of base, so any graph with no
    homomorphism into base appears in no member. The base is the scan
    target that failed.
    """
    r, index = result.r, result.index
    kind = _KIND.get(result.branch)
    if kind is None:
        raise InvalidParameterError(f"unknown branch {result.branch!r}")
    if kind == "gallery-join":
        return witness_for_gallery_index(r, index), scan_target(kind, index, r)
    return regular_join_witness(r, index), scan_target(kind, index, r)


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
    member = balanced_blow_up(seed, n)
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
