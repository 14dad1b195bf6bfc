import random

import pytest

from degstab import _purecore, backend
from degstab.graphs import cycle

# Entry point -> arguments after the graph ones.
ENTRY_POINTS = {
    "hom_search": (),
    "color_search": (3,),
    "odd_girth": (),
}


def random_adj(rng, n, p=0.5):
    adj = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def test_hom_search_parity_including_witnesses_and_counts(fastcore):
    rng = random.Random(60)
    for _ in range(400):
        p = random_adj(rng, rng.randint(0, 7), rng.random())
        t = random_adj(rng, rng.randint(0, 6), rng.random())
        assert _purecore.hom_search(p, t) == fastcore.hom_search(p, t)
    # 9-vertex patterns into C5 and C7.
    rng = random.Random(11)
    for _ in range(150):
        for t in (cycle(5).adj, cycle(7).adj):
            p = random_adj(rng, 9, 0.35)
            assert _purecore.hom_search(p, t) == fastcore.hom_search(p, t)


def test_color_search_parity(fastcore):
    rng = random.Random(62)
    for _ in range(300):
        g = random_adj(rng, rng.randint(0, 10), rng.random())
        k = rng.randint(1, 5)
        assert _purecore.color_search(g, k) == fastcore.color_search(g, k)
    # 14-vertex graphs at k = 3 and 4.
    rng = random.Random(13)
    for _ in range(120):
        g = random_adj(rng, 14)
        for k in (3, 4):
            assert _purecore.color_search(g, k) == fastcore.color_search(g, k)


def test_odd_girth_parity(fastcore):
    rng = random.Random(64)
    for _ in range(400):
        g = random_adj(rng, rng.randint(0, 12), rng.random())
        assert _purecore.odd_girth(g) == fastcore.odd_girth(g)
    # Sparse 16-vertex graphs.
    rng = random.Random(15)
    for _ in range(3000):
        g = random_adj(rng, 16, 0.25)
        assert _purecore.odd_girth(g) == fastcore.odd_girth(g)


def test_edge_cases_match(fastcore):
    for p, t in [([], []), ([0], []), ([], [0]), ([0, 0], [0])]:
        assert _purecore.hom_search(p, t) == fastcore.hom_search(p, t)
    assert _purecore.color_search([], 3) == fastcore.color_search([], 3) == ()
    assert _purecore.color_search([0], 0) is fastcore.color_search([0], 0) is None
    assert _purecore.odd_girth([]) == fastcore.odd_girth([]) == 0
    # Counts beyond 64 bits behave as in the pure kernels.
    assert fastcore.color_search([0, 0], 2**70) == _purecore.color_search([0, 0], 2**70)


def test_kernel_sets_in_lock_step(fastcore):
    # A kernel that leaves one set must leave both, and backend's entry
    # points with them.
    compiled = {name for name in dir(fastcore) if not name.startswith("_")}
    assert compiled == set(_purecore.__all__) == set(ENTRY_POINTS)


def test_tuples_and_lists_give_the_same_result(fastcore):
    p, t = cycle(9).adj, cycle(7).adj
    assert fastcore.hom_search(p, t) == fastcore.hom_search(list(p), list(t))
    assert fastcore.odd_girth(p) == fastcore.odd_girth(list(p)) == 9


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_graph_above_64_vertices_raises_value_error(fastcore, name):
    graphs = 2 if name == "hom_search" else 1
    for big in range(graphs):
        orders = [65 if i == big else 3 for i in range(graphs)]
        with pytest.raises(ValueError, match="order 65"):
            getattr(fastcore, name)(*([0] * n for n in orders), *ENTRY_POINTS[name])


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("mask", [-1, 1 << 64])
def test_negative_or_over_wide_mask_raises_overflow_error(fastcore, name, mask):
    graphs = 2 if name == "hom_search" else 1
    for bad in range(graphs):
        args = [[mask, 0] if i == bad else [0, 0] for i in range(graphs)]
        with pytest.raises(OverflowError):
            getattr(fastcore, name)(*args, *ENTRY_POINTS[name])


def test_backend_routes_order_65_to_pure_with_the_extension_loaded(fastcore, monkeypatch):
    monkeypatch.setattr(backend, "_fastcore", fastcore)
    assert backend.backend_name() == "compiled"
    p, t = cycle(65).adj, cycle(63).adj
    with pytest.raises(ValueError):
        fastcore.hom_search(p, t)
    assert backend.hom_search(p, t) == _purecore.hom_search(p, t)
    assert backend.odd_girth(p) == _purecore.odd_girth(p) == 65
