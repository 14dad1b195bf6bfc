"""The pure kernels against their plain reference formulations.

``degstab._purecore`` revises search domains by neighbourhood union and
runs odd-girth BFS one layer mask at a time. ``tests.oracles`` keeps the
per-bit and per-state versions those replaced; both must agree exactly,
search node counts and witnesses included. Needs no compiled backend.
"""

import random

import pytest

from degstab import _purecore
from degstab.gallery import SEQUENCE, sequence_graph
from degstab.graphs import complete, cycle, join, petersen, wheel

from tests.oracles import (
    mycielskian,
    random_graph,
    reference_hom_search,
    reference_odd_girth,
)


def test_hom_search_matches_reference_on_random_pairs():
    rng = random.Random(70)
    for _ in range(600):
        p = random_graph(rng, rng.randint(0, 8), rng.random())
        t = random_graph(rng, rng.randint(0, 7), rng.random())
        assert _purecore.hom_search(p.adj, t.adj) == reference_hom_search(p.adj, t.adj)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_hom_search_matches_reference_on_clique_refutations(r):
    # K_{r+1} -> K_{r-3} v W5 has no homomorphism; the search must refute
    # it with exactly the reference's node count.
    p = complete(r + 1).adj
    t = join(complete(r - 3), wheel(5)).adj
    got = _purecore.hom_search(p, t)
    assert got == reference_hom_search(p, t)
    assert got[0] is None and got[1] > 0


@pytest.mark.parametrize("j", range(1, len(SEQUENCE) + 1))
def test_hom_search_matches_reference_on_gallery_joins(j):
    cases = [
        (mycielskian(cycle(5), 1), sequence_graph(j)),
        (mycielskian(cycle(7), 1), sequence_graph(j)),
        (join(complete(1), petersen()), sequence_graph(j)),
        (complete(5), join(complete(1), sequence_graph(j))),
    ]
    for pattern, target in cases:
        assert _purecore.hom_search(pattern.adj, target.adj) == reference_hom_search(
            pattern.adj, target.adj
        )


@pytest.mark.parametrize("a, b", [(65, 63), (64, 63), (63, 65)])
def test_hom_search_matches_reference_across_64_vertices(a, b):
    p, t = cycle(a).adj, cycle(b).adj
    assert _purecore.hom_search(p, t) == reference_hom_search(p, t)


def test_odd_girth_matches_reference_on_random_graphs():
    rng = random.Random(71)
    for _ in range(600):
        g = random_graph(rng, rng.randint(0, 16), rng.random() * 0.6)
        assert _purecore.odd_girth(g.adj) == reference_odd_girth(g.adj)


@pytest.mark.parametrize(
    "graph",
    [
        cycle(63),
        cycle(64),
        cycle(65),
        mycielskian(cycle(31), 1),  # order 63
        mycielskian(cycle(21), 2),  # order 64
        mycielskian(cycle(7), 8),  # order 64
        mycielskian(cycle(32), 1),  # order 65
        mycielskian(cycle(16), 3),  # order 65
    ],
    ids=lambda g: f"order{g.order}",
)
def test_odd_girth_matches_reference_around_64_vertices(graph):
    assert graph.order in (63, 64, 65)
    assert _purecore.odd_girth(graph.adj) == reference_odd_girth(graph.adj)

