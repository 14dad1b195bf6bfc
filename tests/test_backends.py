import random

import pytest

from degstab import _purecore

fastcore = pytest.importorskip(
    "degstab._fastcore", reason="compiled kernels not built"
)


def random_adj(rng, n, p=0.5):
    adj = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def test_hom_search_parity_including_witnesses_and_counts():
    rng = random.Random(60)
    for _ in range(400):
        p = random_adj(rng, rng.randint(0, 7), rng.random())
        t = random_adj(rng, rng.randint(0, 6), rng.random())
        assert _purecore.hom_search(p, t) == fastcore.hom_search(p, t)


def test_brute_hom_parity():
    rng = random.Random(61)
    for _ in range(300):
        p = random_adj(rng, rng.randint(0, 6), rng.random())
        t = random_adj(rng, rng.randint(0, 5), rng.random())
        assert _purecore.brute_hom(p, t) == fastcore.brute_hom(p, t)


def test_color_search_parity():
    rng = random.Random(62)
    for _ in range(300):
        g = random_adj(rng, rng.randint(0, 10), rng.random())
        k = rng.randint(1, 5)
        assert _purecore.color_search(g, k) == fastcore.color_search(g, k)


def test_min_edits_parity():
    rng = random.Random(63)
    for _ in range(150):
        g = random_adj(rng, rng.randint(0, 9), rng.random())
        k = rng.randint(1, 4)
        assert _purecore.min_edits(g, k) == fastcore.min_edits(g, k)


def test_odd_girth_parity():
    rng = random.Random(64)
    for _ in range(400):
        g = random_adj(rng, rng.randint(0, 12), rng.random())
        assert _purecore.odd_girth(g) == fastcore.odd_girth(g)


def test_edge_cases_match():
    for p, t in [([], []), ([0], []), ([], [0]), ([0, 0], [0])]:
        assert _purecore.hom_search(p, t) == fastcore.hom_search(p, t)
        assert _purecore.brute_hom(p, t) == fastcore.brute_hom(p, t)
    assert _purecore.color_search([], 3) == fastcore.color_search([], 3) == ()
    assert _purecore.min_edits([], 2) == fastcore.min_edits([], 2) == 0
    assert _purecore.odd_girth([]) == fastcore.odd_girth([]) == 0
