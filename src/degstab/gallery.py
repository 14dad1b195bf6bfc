"""The fixed gallery of 4-chromatic target graphs and their weightings.

The twelve-graph scan sequence is, in order:

    K4, W5, W7, C7bar, W9, H2plus, W11, H2, W13, T0, W15, H1plusplus

plus the Petersen graph as an extra named construction. Each member is
stated once, in one of two tables. ``_WHEELS`` lists the wheels by rim
length k: ``wheel(k)`` is the k-cycle 0..k-1 plus hub k, and K4 is W3, as
``wheel(3)`` equals ``complete(4)`` labels included. ``_EDGES`` lists the
other five as (order, edge list); they all live on a 7-cycle v0..v6
(vertices 0..6, extra vertices after):

* ``C7bar``  -- the 7-cycle plus all seven distance-2 chords. As a labelled
  graph this is the square of the cycle; it is isomorphic to the complement.
* ``H2``     -- C7bar minus the chord {1, 6} (13 edges).
* ``H2plus`` -- H2 plus vertex 7 adjacent to {0, 2, 5}.
* ``T0``     -- the 7-cycle, vertex 7 adjacent to every cycle vertex but 1,
  vertex 8 adjacent to every cycle vertex but 6, and vertex 9 adjacent to
  {0, 7, 8}.
* ``H1plusplus`` -- the 7-cycle with chords {3,5}, {5,0}, {0,2}, {2,4},
  {6,1}, plus vertex 7 adjacent to {0, 2, 3} and vertex 8 adjacent to
  {0, 3, 5}.

Each scan member j stores one extremal weighting w, of ratio
t_j = min_v (Aw)_v / |w| over every vertex, and ``CONSTANT_TABLE`` is
derived as C(j - 1) = 1/(1 - t_j) - 2. A wheel's w is 1 on the rim and
k - 2 on the hub (unit weights on K4). A dual y >= 0 (y = w unless stored)
with max_v (Ay)_v <= t_j |y| proves t_j optimal, by LP duality: every
weighting x has min_v (Ax)_v <= x.Ay / |y| <= t_j |x| (Chvatal, *Linear
Programming*, 1983). At import each member is checked 4-chromatic and each
(w, y) pair checked, so a slip in an edge list, a weight or a dual fails
``import degstab`` rather than corrupting results downstream.
"""

from __future__ import annotations

from fractions import Fraction

from ._purecore import _bits
from .errors import InvalidParameterError, UnsupportedError
from .graphs import Graph, Weighting, _is_int, petersen, wheel
from .hom import chromatic_number

SEQUENCE = (
    "K4",
    "W5",
    "W7",
    "C7bar",
    "W9",
    "H2plus",
    "W11",
    "H2",
    "W13",
    "T0",
    "W15",
    "H1plusplus",
)
TAGS = SEQUENCE + ("Petersen",)
WEIGHTED_TAGS = ("H2plus", "H2", "T0", "H1plusplus")

_WHEELS = {"K4": 3, **{f"W{k}": k for k in range(5, 16, 2)}}

_C7 = [(v, (v + 1) % 7) for v in range(7)]
_H2 = _C7 + [(1, 3), (3, 5), (5, 0), (0, 2), (2, 4), (4, 6)]
_EDGES = {
    "C7bar": (7, _C7 + [(v, (v + 2) % 7) for v in range(7)]),
    "H2plus": (8, _H2 + [(7, 0), (7, 2), (7, 5)]),
    "H2": (7, _H2),
    "T0": (
        10,
        _C7
        + [(7, v) for v in range(7) if v != 1]
        + [(8, v) for v in range(7) if v != 6]
        + [(9, 0), (9, 7), (9, 8)],
    ),
    "H1plusplus": (
        9,
        _C7
        + [(3, 5), (5, 0), (0, 2), (2, 4), (6, 1)]
        + [(7, 0), (7, 2), (7, 3), (8, 0), (8, 5), (8, 3)],
    ),
}

_GRAPHS = {
    **{tag: wheel(k) for tag, k in _WHEELS.items()},
    **{tag: Graph.from_edges(order, edges) for tag, (order, edges) in _EDGES.items()},
    "Petersen": petersen(),
}

# Weights indexed by gallery vertex number; see the layouts above.
_WEIGHTS = {
    **{tag: (1,) * k + (k - 2,) for tag, k in _WHEELS.items()},
    "C7bar": (1,) * 7,
    "H2plus": (2, 0, 2, 1, 1, 2, 0, 1),
    "H2": (3, 1, 2, 1, 1, 2, 1),
    "T0": (4, 0, 0, 1, 1, 0, 0, 3, 3, 1),
    "H1plusplus": (5, 0, 3, 2, 0, 3, 0, 1, 1),
}

# Duals of the three members whose weighting is not its own dual.
_DUALS = {
    "H2plus": (2, 1, 1, 1, 1, 2, 1, 0),
    "T0": (2, 1, 1, 0, 1, 2, 1, 1, 4, 0),
    "H1plusplus": (3, 1, 3, 2, 2, 3, 1, 0, 0),
}


def _weighted_degrees(g: Graph, weights) -> list[int]:
    # (Aw)_v for every vertex v of g.
    return [sum(weights[u] for u in _bits(m)) for m in g.adj]


def _ratio(w: Weighting) -> Fraction:
    """t = min_v (Aw)_v / |w| over every base vertex, zero weights included."""
    return Fraction(min(_weighted_degrees(w.base, w.weights)), w.total)


def _certify(tag: str) -> Weighting:
    """The member's stored weighting, once the member is checked 4-chromatic
    and its dual checked to prove the weighting's ratio optimal."""
    g = _GRAPHS[tag]
    if chromatic_number(g) != 4:
        raise AssertionError(f"gallery transcription of {tag} is not 4-chromatic")
    w = Weighting(g, _WEIGHTS[tag])
    y = Weighting(g, _DUALS.get(tag, w.weights))
    t = _ratio(w)
    if max(_weighted_degrees(g, y.weights)) > t * y.total:
        raise AssertionError(f"the dual of {tag} does not prove its ratio {t} optimal")
    return w


_WEIGHTINGS = {tag: _certify(tag) for tag in SEQUENCE}
CONSTANT_TABLE: dict[int, Fraction] = {
    j: 1 / (1 - _ratio(_WEIGHTINGS[tag])) - 2 for j, tag in enumerate(SEQUENCE) if j
}

_CANONICAL = {tag.lower(): tag for tag in TAGS}
_CANONICAL.update({f"f{i}": tag for i, tag in enumerate(SEQUENCE, start=1)})


def canonical_tag(name: str) -> str:
    """Normalize a gallery name; F1..F12 are accepted as positional aliases."""
    tag = _CANONICAL.get(name.strip().lower()) if isinstance(name, str) else None
    if tag is None:
        raise InvalidParameterError(f"unknown gallery graph {name!r}")
    return tag


def gallery_graph(name: str) -> Graph:
    return _GRAPHS[canonical_tag(name)]


def sequence_tag(index: int) -> str:
    """The tag of the index-th scan graph, 1-based over the twelve-member
    sequence."""
    if not _is_int(index) or not 1 <= index <= len(SEQUENCE):
        raise InvalidParameterError(f"sequence index must be in 1..{len(SEQUENCE)}")
    return SEQUENCE[index - 1]


def sequence_graph(index: int) -> Graph:
    """The index-th scan graph, 1-based over the twelve-member sequence."""
    return _GRAPHS[sequence_tag(index)]


def gallery_weighting(name: str) -> Weighting:
    """The stored extremal weighting for H2plus, H2, T0 or H1plusplus.

    These maximise the blow-up's minimum degree relative to its order; the
    import-time check proves each optimal.
    """
    tag = canonical_tag(name)
    if tag not in WEIGHTED_TAGS:
        raise UnsupportedError(f"no stored weighting for gallery graph {tag}")
    return _WEIGHTINGS[tag]
