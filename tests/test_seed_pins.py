"""Byte pins for every seed graph the witness families can start from.

Each value is the first 16 hex digits of the sha256 of the seed's graph6
text, written by the independent encoder in ``tests.oracles``; the odd
cycles are short enough to pin as text. A change to how a seed is built
that moves a single vertex label shows up here, and in ``certify``'s and
``degstab witness``'s output.
"""

import hashlib

import pytest

from degstab.classify import scan_target
from degstab.witness import odd_cycle_witness, regular_join_witness, witness_for_gallery_index

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

ODD_CYCLE_SEEDS = {
    1: "Bw",
    2: "Dhc",
    3: "FhCKG",
    4: "HhCGGE@",
    5: "JhCGGC@?K?_",
    6: "LhCGGC@?G?_@_@",
}


def digest(g):
    return hashlib.sha256(oracles.graph6(g).encode()).hexdigest()[:16]


@pytest.mark.parametrize("r,j", sorted(GALLERY_SEEDS))
def test_gallery_seed_bytes(r, j):
    assert digest(witness_for_gallery_index(r, j)) == GALLERY_SEEDS[r, j]


@pytest.mark.parametrize("r,g", sorted(CYCLE_JOIN_SEEDS))
def test_cycle_join_seed_bytes(r, g):
    assert digest(regular_join_witness(r, g)) == CYCLE_JOIN_SEEDS[r, g]


@pytest.mark.parametrize("g", sorted(ODD_CYCLE_SEEDS))
def test_odd_cycle_seed_bytes(g):
    # witness_base's odd-cycle seed is the scan target itself.
    assert oracles.graph6(scan_target("odd-cycle", g, 2)) == ODD_CYCLE_SEEDS[g]
    assert oracles.graph6(odd_cycle_witness(g, 2 * g + 1)) == ODD_CYCLE_SEEDS[g]
