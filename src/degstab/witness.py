"""Extremal witness families and threshold certification.

Each exact classification is backed by a concrete family of graphs that
avoid the classified pattern while holding minimum degree arbitrarily close
to the threshold. The families are blow-ups of small join constructions:

* odd-cycle branch: balanced blow-ups of the failing odd cycle;
* gallery branch, wheel failures: a clique on r - 2 vertices blown up by
  2g - 1 joined to the (2g+1)-cycle, which is regular and meets the
  threshold ratio exactly;
* gallery branch, other failures: the stored extremal weighting of the
  failing gallery graph, joined to a clique on r - 3 vertices blown up by
  (order - min degree) of that weighted graph; again exact;
* interval branch: the regular clique-cycle family at the failing index,
  which meets the interval's lower bound.

``certify`` builds the family member near a requested order and checks the
three facts that make it a witness: the classified pattern has no
homomorphism into the family's base (so no member contains it), the member
is within the unavoidable rounding slack of the threshold ratio, and the
seed is not r-colorable, so the counting bound on edge edits holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import DeltaResult, scan_target
from .errors import InvalidParameterError
from .gallery import SEQUENCE, WEIGHTED_TAGS, gallery_graph, gallery_weighting
from .graphs import (
    Graph,
    Weighting,
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
    """Balanced blow-up of the (2g+1)-cycle on n vertices."""
    if g < 1:
        raise InvalidParameterError("g must be at least 1")
    if n < 2 * g + 1:
        raise InvalidParameterError("n must be at least the cycle length")
    return balanced_blow_up(cycle(2 * g + 1), n)


def regular_join_witness(r: int, g: int) -> Graph:
    """Clique on r - 2 vertices blown up by 2g - 1, joined to a (2g+1)-cycle.

    Has (2g-1)(r-1) + 2 vertices, is regular of degree (2g-1)(r-2) + 2,
    and its degree/order ratio equals cycle_join_threshold(r, g) exactly.
    """
    if r < 3:
        raise InvalidParameterError("r must be at least 3")
    if g < 1:
        raise InvalidParameterError("g must be at least 1")
    base = join(complete(r - 2), cycle(2 * g + 1))
    weights = (2 * g - 1,) * (r - 2) + (1,) * (2 * g + 1)
    return blow_up(Weighting(base, weights))


def gallery_join_witness(r: int, tag: str) -> Graph:
    """Extremal join witness for the locally bipartite gallery members.

    For C7bar the clique classes carry weight 3; for the four weighted
    members the stored weighting is blown up and the clique classes carry
    weight (order - min degree) of that blow-up. For r = 3 the clique part
    is empty and the blow-up itself is returned.
    """
    if r < 3:
        raise InvalidParameterError("r must be at least 3")
    if tag == "C7bar":
        base = join(complete(r - 3), gallery_graph("C7bar"))
        weights = (3,) * (r - 3) + (1,) * 7
        return blow_up(Weighting(base, weights))
    if tag not in WEIGHTED_TAGS:
        raise InvalidParameterError(f"no join witness for gallery graph {tag!r}")
    w = gallery_weighting(tag)
    blown = blow_up(w)
    clique_weight = blown.order - degree_profile(blown).min_degree
    base = join(complete(r - 3), w.base)
    weights = (clique_weight,) * (r - 3) + w.weights
    return blow_up(Weighting(base, weights))


def scaled_gallery_weighting(tag: str, scale: int, strict: bool = False) -> Weighting:
    """The stored weighting with all weights multiplied by scale.

    With ``strict=True`` zero weights become 1, producing a genuine blow-up
    of the whole gallery graph; its degree ratio then approaches the stored
    optimum from below as scale grows.
    """
    if scale < 1:
        raise InvalidParameterError("scale must be at least 1")
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
    if base_order < 1:
        raise InvalidParameterError("base order must be positive")
    if n < base_order:
        raise InvalidParameterError("n must be at least the base order")
    return (n // base_order) ** 2


def _wheel_cycle_param(tag: str) -> int:
    # W(2k+1) -> k
    return (int(tag[1:]) - 1) // 2


def witness_for_gallery_index(r: int, index: int) -> Graph:
    """Witness family seed for a failure at the given 1..12 scan index.

    Wheels (and the clique at index 1) use the regular clique-cycle family;
    the locally bipartite members use their stored extremal weighting.
    """
    if not 1 <= index <= len(SEQUENCE):
        raise InvalidParameterError(f"scan index must be in 1..{len(SEQUENCE)}")
    tag = SEQUENCE[index - 1]
    if tag == "K4":
        return regular_join_witness(r, 1)
    if tag.startswith("W"):
        return regular_join_witness(r, _wheel_cycle_param(tag))
    return gallery_join_witness(r, tag)


def witness_base(result: DeltaResult) -> tuple[Graph, Graph]:
    """The witness family's seed graph and its homomorphism base.

    Returns (seed, base): members of the family are balanced blow-ups of
    seed, and seed is itself a blow-up of base, so any graph with no
    homomorphism into base appears in no member. The base is the scan
    target that failed.
    """
    r, index = result.r, result.index
    if result.branch == "odd-cycle":
        seed = scan_target("odd-cycle", index, r)
        return seed, seed
    if result.branch == "interval":
        return regular_join_witness(r, index), scan_target("cycle-join", index, r)
    if result.branch != "gallery":
        raise InvalidParameterError(f"unknown branch {result.branch!r}")
    return witness_for_gallery_index(r, index), scan_target("gallery-join", index, r)


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
    if n < seed.order:
        raise InvalidParameterError(f"n must be at least the seed order {seed.order}")
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
