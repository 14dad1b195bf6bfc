import itertools
import random

import pytest

from degstab import (
    Graph,
    HomWitness,
    Weighting,
    blow_up,
    brute_force_homomorphism_exists,
    chromatic_number,
    clique_number,
    cliques_of_size,
    complete,
    cycle,
    cycle_complement,
    empty_graph,
    find_coloring,
    has_homomorphism,
    homomorphism_search,
    is_a_locally_bipartite,
    is_k_colorable,
    join,
    petersen,
    wheel,
)
from degstab import backend
from degstab.errors import InvalidParameterError
from degstab.gallery import gallery_graph
from degstab.hom import greedy_clique
from degstab.verify import CorpusSpec, check_hom_odd_girth
from tests import oracles


class TestHomomorphism:
    def test_c5_into_triangle(self):
        w = has_homomorphism(cycle(5), complete(3))
        assert w is not None and w.is_valid(cycle(5), complete(3))

    def test_triangle_into_c5_none(self):
        assert oracles.hom_exists(complete(3), cycle(5)) is False
        assert has_homomorphism(complete(3), cycle(5)) is None

    def test_petersen_into_c5_none(self):
        assert has_homomorphism(petersen(), cycle(5)) is None
        assert brute_force_homomorphism_exists(petersen(), cycle(5)) is False

    def test_triangle_into_wheel_at_the_clique_bound(self):
        # The greedy clique of K3 equals the clique number of W5: the bound
        # does not refute, and the map exists.
        witness, nodes = homomorphism_search(complete(3), wheel(5))
        assert witness is not None and witness.is_valid(complete(3), wheel(5))
        assert nodes > 0

    def test_no_adjacency_is_reduced_twice(self, monkeypatch):
        # Patterns and targets alike: the verify probe searches each
        # non-bipartite corpus graph into three cycles, and chromatic_number tries k = 2 and 3 on
        # Petersen.
        reduced = []
        real = backend._twin_reduction
        monkeypatch.setattr(backend, "_twin_reduction", lambda adj: reduced.append(adj) or real(adj))
        backend.prepared.cache_clear()
        check_hom_odd_girth(CorpusSpec.exhaustive(4), 3)
        assert chromatic_number(petersen()) == 3
        assert petersen().adj in reduced and cycle(5).adj in reduced
        assert len(reduced) == len(set(reduced))

    @pytest.mark.parametrize("bad", [1.0, True, "1", None])
    def test_non_integer_images_are_invalid(self, bad):
        # False, not a TypeError; a bool equal to a vertex is no vertex.
        assert HomWitness((0, 1, 2)).is_valid(complete(3), complete(4))
        assert not HomWitness((0, bad, 2)).is_valid(complete(3), complete(4))

    def test_c7_into_c5(self):
        # derived by full enumeration before trusting the solver
        assert oracles.hom_exists(cycle(7), cycle(5)) is True
        w = has_homomorphism(cycle(7), cycle(5))
        assert w is not None and w.is_valid(cycle(7), cycle(5))

    def test_empty_cases(self):
        assert has_homomorphism(empty_graph(0), empty_graph(0)) == HomWitness(())
        assert has_homomorphism(empty_graph(0), complete(3)) == HomWitness(())
        assert has_homomorphism(empty_graph(2), empty_graph(0)) is None
        assert has_homomorphism(complete(2), empty_graph(3)) is None
        # The oracle too: K0 maps by the one empty map, and a vertex has
        # nowhere to go in K0.
        assert brute_force_homomorphism_exists(empty_graph(0), empty_graph(0)) is True
        assert brute_force_homomorphism_exists(empty_graph(0), complete(3)) is True
        assert brute_force_homomorphism_exists(empty_graph(2), empty_graph(0)) is False

    def test_agrees_with_oracle_on_random_pairs(self):
        rng = random.Random(30)
        for _ in range(250):
            p = oracles.random_graph(rng, rng.randint(0, 6), 0.5)
            t = oracles.random_graph(rng, rng.randint(0, 5), 0.5)
            expected = oracles.hom_exists(p, t)
            witness = has_homomorphism(p, t)
            assert (witness is not None) == expected
            if witness is not None:
                assert witness.is_valid(p, t)
            assert brute_force_homomorphism_exists(p, t) == expected

    def test_monotone_under_pattern_edge_removal(self):
        rng = random.Random(31)
        for _ in range(60):
            p = oracles.random_graph(rng, rng.randint(1, 6), 0.6)
            t = oracles.random_graph(rng, rng.randint(1, 5), 0.6)
            if has_homomorphism(p, t) is None:
                continue
            edges = p.edges()
            keep = [e for e in edges if rng.random() < 0.5]
            sub = Graph.from_edges(p.order, keep)
            assert has_homomorphism(sub, t) is not None

    def test_composition(self):
        rng = random.Random(32)
        found = 0
        while found < 25:
            g = oracles.random_graph(rng, rng.randint(1, 5), 0.4)
            h = oracles.random_graph(rng, rng.randint(1, 5), 0.6)
            k = oracles.random_graph(rng, rng.randint(1, 5), 0.7)
            gh = has_homomorphism(g, h)
            hk = has_homomorphism(h, k)
            if gh is None or hk is None:
                continue
            composed = HomWitness(tuple(hk.mapping[x] for x in gh.mapping))
            assert composed.is_valid(g, k)
            found += 1

    def test_blow_up_pattern_equivalence(self):
        # a blow-up maps somewhere iff its base does
        doubled = blow_up(Weighting(petersen(), (2,) * 10))
        assert has_homomorphism(doubled, cycle(5)) is None
        c5_doubled = blow_up(Weighting(cycle(5), (2,) * 5))
        w = has_homomorphism(c5_doubled, cycle(5))
        assert w is not None and w.is_valid(c5_doubled, cycle(5))

    def test_twin_reduction_keeps_the_least_vertex_of_each_class(self):
        rng = random.Random(12)
        graphs = [blow_up(Weighting(cycle(5), (3, 1, 2, 1, 2))), empty_graph(4), complete(4)]
        graphs += [oracles.random_graph(rng, rng.randint(0, 10), rng.random()) for _ in range(300)]
        for g in graphs:
            reduced, kept, rep = backend._twin_reduction(g.adj)
            # The least vertex of each neighbourhood, in increasing order.
            assert list(kept) == sorted({g.adj.index(mask) for mask in g.adj})
            assert all(g.adj[kept[rep[v]]] == g.adj[v] for v in range(g.order))
            assert Graph(len(kept), reduced) == g.induced(kept)
            # No twins are left.
            assert len(set(reduced)) == len(reduced)

    def test_twin_reduction_matches_the_general_construction(self):
        for g in CorpusSpec.exhaustive(5).graphs():
            assert backend._twin_reduction(g.adj) == oracles.twin_reduction(g.adj)

    def test_twin_free_adjacency_is_its_own_reduction(self):
        for g in (petersen(), cycle(7), complete(4)):
            reduced, kept, rep = backend._twin_reduction(g.adj)
            assert reduced is g.adj
            assert kept == rep == tuple(range(g.order))

    def test_deterministic_witness(self):
        a, n_a = homomorphism_search(cycle(9), cycle(5))
        b, n_b = homomorphism_search(cycle(9), cycle(5))
        assert a == b and n_a == n_b


class TestColoring:
    def test_chromatic_examples(self):
        assert chromatic_number(cycle(7)) == 3
        assert chromatic_number(cycle_complement(7)) == 4
        assert chromatic_number(empty_graph(0)) == 0
        assert chromatic_number(empty_graph(4)) == 1
        assert chromatic_number(complete(5)) == 5

    def test_join_targets_chromatic(self):
        for r in (3, 4):
            for tag in ("K4", "C7bar", "H2"):
                target = join(complete(r - 3), gallery_graph(tag))
                assert chromatic_number(target) == r + 1

    def test_against_oracle(self):
        rng = random.Random(33)
        for _ in range(120):
            g = oracles.random_graph(rng, rng.randint(0, 6), 0.5)
            assert chromatic_number(g) == oracles.chromatic_number(g)

    def test_petersen_three_colorable(self):
        # oracle exhibits a proper 3-coloring by full enumeration first
        assert oracles.find_proper_coloring(petersen(), 3) is not None
        assert is_k_colorable(petersen(), 3)
        coloring = find_coloring(petersen(), 3)
        assert max(coloring) <= 2

    def test_clique_not_colorable_below_size(self):
        assert not is_k_colorable(complete(5), 4)

    def test_zero_colors(self):
        assert is_k_colorable(empty_graph(0), 0)
        assert not is_k_colorable(empty_graph(3), 0)

    def test_coloring_of_blow_up(self):
        g = blow_up(Weighting(cycle(5), (3, 1, 2, 1, 2)))
        assert not is_k_colorable(g, 2)
        coloring = find_coloring(g, 3)
        assert coloring is not None

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            is_k_colorable(complete(3), -1)


@pytest.fixture(params=["pure", "compiled"])
def kernel_set(request, monkeypatch):
    """Routes backend's kernels to one kernel set for the test."""
    fast = request.getfixturevalue("fastcore") if request.param == "compiled" else None
    monkeypatch.setattr(backend, "_fastcore", fast)
    return request.param


class TestFindColoringEdgeCases:
    # No colours and no vertices, on each kernel set.
    def test_order_zero_has_the_empty_colouring(self, kernel_set):
        assert find_coloring(empty_graph(0), 0) == ()
        assert find_coloring(empty_graph(0), 3) == ()

    def test_zero_colours_colour_no_vertex(self, kernel_set):
        assert find_coloring(complete(3), 0) is None
        assert find_coloring(empty_graph(2), 0) is None

    def test_negative_k_rejected(self, kernel_set):
        with pytest.raises(InvalidParameterError):
            find_coloring(complete(3), -1)

    def test_chromatic_number_of_tiny_graphs(self, kernel_set):
        assert chromatic_number(empty_graph(0)) == 0
        assert chromatic_number(complete(1)) == 1
        assert chromatic_number(empty_graph(3)) == 1
        assert chromatic_number(complete(2)) == 2


class TestCliques:
    def test_edges_of_c5(self):
        assert cliques_of_size(cycle(5), 2) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_no_4_clique_in_c7bar(self):
        g = gallery_graph("C7bar")
        # oracle: every 4-subset has a missing pair
        for sub in itertools.combinations(range(7), 4):
            assert not all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2))
        assert cliques_of_size(g, 4) == []
        assert clique_number(g) == 3

    def test_triangles_of_k4(self):
        assert cliques_of_size(complete(4), 3) == [
            (0, 1, 2),
            (0, 1, 3),
            (0, 2, 3),
            (1, 2, 3),
        ]

    def test_size_zero_and_oversize(self):
        assert cliques_of_size(cycle(5), 0) == [()]
        assert cliques_of_size(cycle(5), 6) == []
        with pytest.raises(InvalidParameterError):
            cliques_of_size(cycle(5), -1)

    def test_clique_number_against_oracle(self):
        rng = random.Random(34)
        for _ in range(80):
            g = oracles.random_graph(rng, rng.randint(0, 7), 0.5)
            assert clique_number(g) == oracles.max_clique_size(g)

    def test_greedy_clique_is_clique(self):
        rng = random.Random(35)
        for _ in range(40):
            g = oracles.random_graph(rng, rng.randint(1, 8), 0.5)
            clique = greedy_clique(g)
            assert all(
                g.has_edge(u, v) for u, v in itertools.combinations(clique, 2)
            )


class TestLocallyBipartite:
    def test_wheel_fails_at_hub(self):
        ok, clique = is_a_locally_bipartite(wheel(5), 1)
        assert not ok and clique == (5,)

    def test_k4_fails(self):
        ok, clique = is_a_locally_bipartite(complete(4), 1)
        assert not ok and clique == (0,)

    def test_c7bar_passes(self):
        ok, clique = is_a_locally_bipartite(gallery_graph("C7bar"), 1)
        assert ok and clique is None

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            is_a_locally_bipartite(complete(3), 0)

    def test_matches_the_brute_force_oracle(self):
        rng = random.Random(38)
        corpus = list(CorpusSpec.exhaustive(5).graphs())
        corpus += [oracles.random_graph(rng, 8, 0.6) for _ in range(300)]
        for g in corpus:
            for a in (1, 2):
                assert is_a_locally_bipartite(g, a) == oracles.locally_bipartite(g, a)

    def test_blow_up_inherits_verdict(self):
        rng = random.Random(36)
        for _ in range(25):
            base = oracles.random_graph(rng, rng.randint(1, 5), 0.6)
            weights = tuple(rng.randint(1, 2) for _ in range(base.order))
            blown = blow_up(Weighting(base, weights))
            assert (
                is_a_locally_bipartite(base, 1)[0]
                == is_a_locally_bipartite(blown, 1)[0]
            )
