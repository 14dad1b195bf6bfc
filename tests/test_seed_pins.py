"""Byte pins for the gallery, every seed graph the witness families can
start from, and ``classify``'s serialized results.

Each seed value is the first 16 hex digits of the sha256 of the seed's
graph6 text, written by the independent encoder in ``tests.oracles``; the
odd cycles and the gallery graphs are short enough to pin as text. A change
to how a gallery graph or a seed is built that moves a single vertex label
shows up here, and in ``certify``'s and ``degstab witness``'s output.
``DeltaResult.dumps`` is pinned the same way: its bytes hold the branch,
the index, every certificate mapping and the node count, so a change to
the scan order, a search's witness or its node count shows up here.
"""

import hashlib
from fractions import Fraction

import pytest

from degstab import gallery
from degstab.classify import CONSTANT_TABLE, classify, scan_target
from degstab.codecs import decode
from degstab.graphs import balanced_blow_up, complete, cycle, join, petersen, wheel
from degstab.witness import scan_seed

from . import oracles

GALLERY_SEEDS = {
    (3, 1): "d65ffb1d8d01ba8a",
    (3, 2): "64e5ae9007134065",
    (3, 3): "e39565c99999ae39",
    (3, 4): "8a34c00520b2ea2c",
    (3, 5): "38c25e046c95fb57",
    (3, 6): "314739dd7d1653f0",
    (3, 7): "f285d24f38148ef1",
    (3, 8): "c5c14f43303e23eb",
    (3, 9): "5e39fa10b1ff0ec0",
    (3, 10): "412aab2005054464",
    (3, 11): "dcad1f495259baa7",
    (3, 12): "c71b9a1040adb39a",
    (4, 1): "41ea650d4b1c1114",
    (4, 2): "f6e5777f35a7d609",
    (4, 3): "09f6e2e0cfaf77e7",
    (4, 4): "8bad47b7bebdcce6",
    (4, 5): "8c5ca747f3282d19",
    (4, 6): "bd2e9c490dc2faa0",
    (4, 7): "7f474d17bbb4a17a",
    (4, 8): "b329ba93512ead0c",
    (4, 9): "bdf7959e8d7067cd",
    (4, 10): "88cb7ddc108c07e0",
    (4, 11): "53262729d1ac39dc",
    (4, 12): "d5a954e98d62f16f",
    (5, 1): "e121f3992397cffb",
    (5, 2): "2f7d1578748099e2",
    (5, 3): "9f608f5c4395f6bc",
    (5, 4): "8445badd422d79df",
    (5, 5): "500acb3479bc9a28",
    (5, 6): "7fc032ed782215ec",
    (5, 7): "d4efe4dd0c02d19e",
    (5, 8): "e7d0cd0dd6fbb5eb",
    (5, 9): "2494b0de22c5fee9",
    (5, 10): "bfcafc19e034435f",
    (5, 11): "f78a2142b8c4c2e1",
    (5, 12): "7f267ca3979791a9",
}

CYCLE_JOIN_SEEDS = {
    (3, 1): "d65ffb1d8d01ba8a",
    (3, 2): "64e5ae9007134065",
    (3, 3): "e39565c99999ae39",
    (3, 4): "38c25e046c95fb57",
    (3, 5): "f285d24f38148ef1",
    (3, 6): "5e39fa10b1ff0ec0",
    (4, 1): "41ea650d4b1c1114",
    (4, 2): "f6e5777f35a7d609",
    (4, 3): "09f6e2e0cfaf77e7",
    (4, 4): "8c5ca747f3282d19",
    (4, 5): "7f474d17bbb4a17a",
    (4, 6): "bdf7959e8d7067cd",
    (5, 1): "e121f3992397cffb",
    (5, 2): "2f7d1578748099e2",
    (5, 3): "9f608f5c4395f6bc",
    (5, 4): "500acb3479bc9a28",
    (5, 5): "d4efe4dd0c02d19e",
    (5, 6): "2494b0de22c5fee9",
}

GALLERY_GRAPHS = {
    "K4": "C~",
    "W5": "Ehfw",
    "W7": "GhCKN{",
    "C7bar": "FzM]W",
    "W9": "IhCGGE@~w",
    "H2plus": "GzM[\\G",
    "W11": "KhCGGC@?K?~~",
    "H2": "FzM[W",
    "W13": "MhCGGC@?G?_@_@~~_",
    "T0": "IhCKL~{_W",
    "W15": "OhCGGC@?G?_@?@??o?N~~",
    "H1plusplus": "HxM]LaS",
    "Petersen": "IheA@GUAo",
}

GALLERY_WEIGHTS = {
    "K4": (1, 1, 1, 1),
    "W5": (1, 1, 1, 1, 1, 3),
    "W7": (1, 1, 1, 1, 1, 1, 1, 5),
    "C7bar": (1, 1, 1, 1, 1, 1, 1),
    "W9": (1, 1, 1, 1, 1, 1, 1, 1, 1, 7),
    "H2plus": (2, 0, 2, 1, 1, 2, 0, 1),
    "W11": (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9),
    "H2": (3, 1, 2, 1, 1, 2, 1),
    "W13": (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 11),
    "T0": (4, 0, 0, 1, 1, 0, 0, 3, 3, 1),
    "W15": (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 13),
    "H1plusplus": (5, 0, 3, 2, 0, 3, 0, 1, 1),
}

CONSTANTS = {
    1: Fraction(2, 3),
    2: Fraction(2, 5),
    3: Fraction(1, 3),
    4: Fraction(2, 7),
    5: Fraction(1, 4),
    6: Fraction(2, 9),
    7: Fraction(1, 5),
    8: Fraction(2, 11),
    9: Fraction(1, 6),
    10: Fraction(2, 13),
    11: Fraction(1, 7),
}

ODD_CYCLE_SEEDS = {
    1: "Bw",
    2: "Dhc",
    3: "FhCKG",
    4: "HhCGGE@",
    5: "JhCGGC@?K?_",
    6: "LhCGGC@?G?_@_@",
}

# (branch, index, first 16 hex digits of the sha256 of classify(h).dumps()).
DUMPS = {
    "K3": ("odd-cycle", 2, "661cab8891392895"),
    "K4": ("gallery", 2, "a07df734f703b56c"),
    "K5": ("gallery", 2, "d1e7c4e2a9dd82a3"),
    "K6": ("gallery", 2, "e1eab030ed2c802f"),
    "C5": ("odd-cycle", 3, "07fdade42948b47b"),
    "C9": ("odd-cycle", 5, "afb20a29c3e9a12c"),
    "Petersen": ("odd-cycle", 2, "baa5f1584c94ae20"),
    "K1+Petersen": ("gallery", 2, "e07bf940f0ee3cf0"),
    "W5": ("gallery", 3, "6521a6554e66d444"),
    "W7": ("gallery", 4, "db6ede21de302d50"),
    "C7bar": ("gallery", 2, "fd74d9a3053ccbbe"),
    "W9": ("gallery", 4, "7c5d0821ac68f423"),
    "H2plus": ("gallery", 3, "804aef293b6186c7"),
    "W11": ("gallery", 4, "99c95146e6b61130"),
    "H2": ("gallery", 3, "651c34450fccd22e"),
    "W13": ("gallery", 4, "cc54eed92c75832b"),
    "T0": ("gallery", 4, "505037d20ed70748"),
    "W15": ("gallery", 4, "82f17be4f8cb6672"),
    "H1plusplus": ("gallery", 3, "d38380125bad4551"),
    "HFaHJvH": ("gallery", 5, "baef8f7631ebd910"),
    # M_1(C_7) is triangle-free on 15 vertices, so its searches pass probing's gate.
    "M1(C7)": ("gallery", 4, "12e00ca5dc384ccf"),
}


def dumps_pattern(name):
    if name in gallery.SEQUENCE:
        return gallery.gallery_graph(name)
    patterns = {f"K{n}": complete(n) for n in range(3, 7)}
    patterns.update(
        {
            "C5": cycle(5),
            "C9": cycle(9),
            "Petersen": petersen(),
            "K1+Petersen": join(complete(1), petersen()),
            "HFaHJvH": decode("HFaHJvH", "graph6"),
            "M1(C7)": oracles.mycielskian(cycle(7), 1),
        }
    )
    return patterns[name]


def digest(g):
    return hashlib.sha256(oracles.graph6(g).encode()).hexdigest()[:16]


@pytest.mark.parametrize("r,j", sorted(GALLERY_SEEDS))
def test_gallery_seed_bytes(r, j):
    assert digest(scan_seed("gallery-join", j, r)) == GALLERY_SEEDS[r, j]


@pytest.mark.parametrize("r,g", sorted(CYCLE_JOIN_SEEDS))
def test_cycle_join_seed_bytes(r, g):
    assert digest(scan_seed("cycle-join", g, r)) == CYCLE_JOIN_SEEDS[r, g]


@pytest.mark.parametrize("g", sorted(ODD_CYCLE_SEEDS))
def test_odd_cycle_seed_bytes(g):
    # witness_base's odd-cycle seed is the scan target itself.
    assert oracles.graph6(scan_target("odd-cycle", g, 2)) == ODD_CYCLE_SEEDS[g]
    seed = balanced_blow_up(scan_seed("odd-cycle", g, 2), 2 * g + 1)
    assert oracles.graph6(seed) == ODD_CYCLE_SEEDS[g]
    # Seeds and targets skip Graph's check, so each must pass it; r >= 3 is
    # in test_witness's TestMemos.
    oracles.assert_checked(scan_seed("odd-cycle", g, 2))
    oracles.assert_checked(scan_target("cycle-join", g, 2))


@pytest.mark.parametrize("name", sorted(DUMPS))
def test_classify_dumps_bytes(name):
    result = classify(dumps_pattern(name))
    branch, index, sha = DUMPS[name]
    assert (result.branch, result.index) == (branch, index)
    assert hashlib.sha256(result.dumps().encode()).hexdigest()[:16] == sha


@pytest.mark.parametrize("tag", gallery.TAGS)
def test_gallery_graph_bytes(tag):
    assert oracles.graph6(gallery.gallery_graph(tag)) == GALLERY_GRAPHS[tag]


def test_gallery_weights():
    assert {tag: w.weights for tag, w in gallery._WEIGHTINGS.items()} == GALLERY_WEIGHTS


def test_constant_table():
    assert CONSTANT_TABLE == CONSTANTS


def test_k4_is_the_wheel_w3():
    assert wheel(3) == complete(4)


def test_each_member_is_stated_once():
    for tag in gallery.SEQUENCE:
        assert (tag in gallery._WHEELS) + (tag in gallery._EDGES) == 1
    assert len(gallery._WHEELS) + len(gallery._EDGES) == len(gallery.SEQUENCE)
