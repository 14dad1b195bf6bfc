import random
import re
from fractions import Fraction

import pytest

from degstab import (
    Graph,
    Weighting,
    balanced_blow_up,
    blow_up,
    complete,
    cycle,
    cycle_complement,
    degree_profile,
    empty_graph,
    is_bipartite,
    join,
    odd_girth,
    peel_min_degree,
    petersen,
    wheel,
)
from degstab.classify import classify, scan_target
from degstab.errors import InvalidParameterError
from degstab.gallery import sequence_graph
from degstab.hom import cliques_of_size, find_coloring, is_a_locally_bipartite
from degstab.verify import (
    CorpusSpec,
    brute_min_edits_to_k_partite,
    check_haggkvist,
    check_hom_odd_girth,
    check_locally_bipartite_claims,
    check_properties,
    search_hom_free_lower_bound,
)
from degstab.witness import (
    certify,
    edit_lower_bound,
    scaled_gallery_weighting,
    scan_seed,
)
from tests import oracles


class TestGraphValue:
    def test_from_edges_and_queries(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.order == 4
        assert g.edge_count == 3
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.degree(1) == 2
        assert g.neighbors(2) == (1, 3)
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)
        # Any sequence of masks is stored as a tuple.
        listed = Graph(4, list(g.adj))
        assert listed == g and type(listed.adj) is tuple

    def test_equality_is_labelled(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(1, 2)])
        assert a != b
        assert a == Graph.from_edges(3, [(0, 1)])
        assert hash(a) == hash(Graph.from_edges(3, [(0, 1)]))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            Graph(-1, ())
        with pytest.raises(InvalidParameterError):
            Graph(2, (0,))
        with pytest.raises(InvalidParameterError):
            Graph(2, (1, 0))  # self-loop at vertex 0
        with pytest.raises(InvalidParameterError):
            Graph(2, (2, 0))  # 0-1 not mirrored at 1
        with pytest.raises(InvalidParameterError):
            Graph(1, (2,))  # neighbour out of range
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(InvalidParameterError):
            Graph(1, (-1,))  # negative mask
        with pytest.raises(InvalidParameterError):
            Graph.from_edges(2, [(1, 1)])
        with pytest.raises(InvalidParameterError, match="out of range"):
            complete(3).degree(3)
        # Non-integer input is a parameter error, not a TypeError.
        for order, adj in [
            (2, (2.0, 1.0)),
            (2.0, (2, 1)),
            (2, ("a", 1)),
            (2, (0, 0.0)),  # a float row equal to the int row before it
            (True, (0,)),
            (2, 5),  # not a sequence
            (2, None),
        ]:
            with pytest.raises(InvalidParameterError):
                Graph(order, adj)
        # A bool row passes an int's shift and xor, and equals 0 or 1: it is
        # rejected at the start of a run and inside a run of an equal int.
        for order, adj in [
            (2, (2, True)),
            (1, (False,)),
            (2, (False, 0)),
            (2, (0, False)),
            (3, (6, 1, True)),
        ]:
            with pytest.raises(InvalidParameterError, match="integer masks"):
                Graph(order, adj)
        for order, edges in [(2.0, [(0, 1)]), (2, [(0.0, 1)]), (2, [(0, 1.0)]), (2, [(True, 0)])]:
            with pytest.raises(InvalidParameterError):
                Graph.from_edges(order, edges)

    @pytest.mark.parametrize("vertex", [True, 1.0])
    @pytest.mark.parametrize(
        "query",
        [
            lambda g, v: g.degree(v),
            lambda g, v: g.neighbors(v),
            lambda g, v: g.has_edge(0, v),
            lambda g, v: g.has_edge(v, 0),
            lambda g, v: g.induced([0, v]),
            lambda g, v: g.induced([1, v]),
        ],
        ids=["degree", "neighbors", "has_edge.v", "has_edge.u", "induced", "induced.equal"],
    )
    def test_vertex_must_be_an_int(self, query, vertex):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            query(complete(3), vertex)

    @pytest.mark.parametrize("order", [1, 64, 65])
    def test_out_of_range_bit_rejected(self, order):
        for bit in (order, order + 1, 2 * order + 7):
            adj = (1 << bit,) + (0,) * (order - 1)
            with pytest.raises(InvalidParameterError, match="out of range"):
                Graph(order, adj)
        # The highest in-range bit is accepted when mirrored.
        top = order - 1
        if top > 0:
            adj = [0] * order
            adj[0], adj[top] = 1 << top, 1
            assert Graph(order, tuple(adj)).has_edge(0, top)

    def test_fault_precedence(self):
        # A neighbour above a row without its mirror is reported only when
        # no row has a fault of another kind or one below the diagonal.
        for adj, message in [
            ((0b100, 0, 0b1000), "vertex 2 has a neighbour out of range"),
            ((0b100, 0b001, 0b000), "edge 1-0 is not symmetric"),
            ((0b110, 0b001, 0b100), "vertex 2 has a self-loop"),
            ((0b010, 0, 0), "edge 0-1 is not symmetric"),
            ((0b110, 0b001, 0), "edge 0-2 is not symmetric"),
        ]:
            with pytest.raises(InvalidParameterError) as info:
                Graph(3, adj)
            assert str(info.value) == message, adj

    def test_induced(self):
        g = cycle(5)
        sub = g.induced([0, 1, 3])
        assert sub.order == 3
        assert sub.edges() == [(0, 1)]


def _flip(adj, v, bit):
    rows = list(adj)
    rows[v] ^= 1 << bit
    return tuple(rows)


def _agrees_with_oracle(order, adj):
    """Graph(order, adj) accepts exactly what the oracle accepts; a
    rejection is an InvalidParameterError, and the asymmetric pair or
    self-loop it names is real."""
    if oracles.valid_adjacency(order, adj):
        assert Graph(order, adj).adj == adj
        return
    with pytest.raises(InvalidParameterError) as info:
        Graph(order, adj)
    pair = re.fullmatch(r"edge (\d+)-(\d+) is not symmetric", str(info.value))
    if pair:
        v, u = int(pair[1]), int(pair[2])
        assert (adj[v] >> u) & 1 and not (adj[u] >> v) & 1, (adj, str(info.value))
    loop = re.fullmatch(r"vertex (\d+) has a self-loop", str(info.value))
    if loop:
        assert (adj[int(loop[1])] >> int(loop[1])) & 1, (adj, str(info.value))


class TestConstructorAgainstOracle:
    @pytest.mark.parametrize("r", [3, 4])
    @pytest.mark.parametrize("n", [60, 200])
    def test_blow_up_mutants(self, r, n):
        for j in range(1, 13):
            g = balanced_blow_up(scan_seed("gallery-join", j, r), n)
            adj = g.adj
            _agrees_with_oracle(n, adj)
            starts = [v for v in range(n) if v == 0 or adj[v] != adj[v - 1]]
            runs = list(zip(starts, starts[1:] + [n]))
            rng = random.Random(f"{r}-{j}-{n}")
            for a, b in rng.sample(runs, min(4, len(runs))):
                first, last = a, b - 1
                inner = rng.randrange(a, b)
                nbrs = [u for u in range(n) if (adj[a] >> u) & 1]
                u = rng.choice(nbrs)
                stranger = rng.choice([w for w in range(n) if not (adj[a] >> w) & 1])
                mutants = [
                    # inside the run: a self-loop, and an edge within the class
                    _flip(adj, inner, inner),
                    _flip(adj, first, last),
                    _flip(adj, last, first),
                    # the first and last member lose a neighbour or gain one
                    _flip(adj, first, u),
                    _flip(adj, last, u),
                    _flip(adj, first, stranger),
                    _flip(adj, last, stranger),
                    # a neighbour's row loses the first, last or an inner member
                    _flip(adj, u, first),
                    _flip(adj, u, last),
                    _flip(adj, u, inner),
                    # mirrored flips give valid graphs, split runs included
                    _flip(_flip(adj, last, u), u, last),
                    _flip(_flip(adj, first, stranger), stranger, first),
                ]
                for mutant in mutants:
                    _agrees_with_oracle(n, mutant)

    @pytest.mark.parametrize("r", [3, 4])
    @pytest.mark.parametrize("n", [60, 200, 2000])
    def test_blow_up_neighbour_class_cuts(self, r, n):
        # A row of one class loses an inner or the last member of a
        # neighbour class, so that class is no longer covered whole: with
        # the mirror flip the graph is valid, without it the one asymmetric
        # pair is named.
        for j in range(1, 13):
            adj = balanced_blow_up(scan_seed("gallery-join", j, r), n).adj
            starts = [v for v in range(n) if v == 0 or adj[v] != adj[v - 1]]
            runs = list(zip(starts, starts[1:] + [n]))
            rng = random.Random(f"cut-{r}-{j}-{n}")
            for a, b in rng.sample(runs, min(2, len(runs))):
                u = rng.choice([w for w in range(n) if (adj[a] >> w) & 1])
                c, d = next((c, d) for c, d in runs if c <= u < d)
                for x in (a, b - 1, rng.randrange(a, b)):
                    for w in (rng.randrange(c, d), d - 1):
                        cut = _flip(adj, x, w)
                        with pytest.raises(InvalidParameterError) as info:
                            Graph(n, cut)
                        assert str(info.value) == f"edge {w}-{x} is not symmetric"
                        mirrored = _flip(cut, w, x)
                        assert Graph(n, mirrored).adj == mirrored
                        if n <= 200:
                            _agrees_with_oracle(n, cut)
                            _agrees_with_oracle(n, mirrored)

    @pytest.mark.parametrize("corpus", ["exhaustive:4", "random:40,9,0.5,9"])
    def test_every_one_bit_mutant(self, corpus):
        for g in CorpusSpec.parse(corpus).graphs():
            _agrees_with_oracle(g.order, g.adj)
            for v in range(g.order):
                for bit in range(g.order + 1):  # the first out-of-range bit too
                    _agrees_with_oracle(g.order, _flip(g.adj, v, bit))

    @pytest.mark.parametrize("order", [63, 64, 65])
    def test_word_boundary_mutants(self, order):
        rng = random.Random(order)
        for p in (0.1, 0.5, 0.9):
            adj = oracles.random_graph(rng, order, p).adj
            _agrees_with_oracle(order, adj)
            for _ in range(60):
                v = rng.randrange(order)
                bit = rng.choice([v, order - 1, order, rng.randrange(order)])
                _agrees_with_oracle(order, _flip(adj, v, bit))
            top = order - 1
            _agrees_with_oracle(order, _flip(_flip(adj, 0, top), top, 0))


class TestConstructors:
    def test_complete(self):
        g = complete(3)
        assert (g.order, g.edge_count) == (3, 3)
        assert complete(0) == empty_graph(0)
        assert complete(1) == empty_graph(1)
        with pytest.raises(InvalidParameterError):
            complete(-1)

    def test_cycle(self):
        g = cycle(5)
        assert g.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        with pytest.raises(InvalidParameterError):
            cycle(2)

    def test_wheel(self):
        g = wheel(7)
        assert (g.order, g.edge_count) == (8, 14)
        assert g.degree(7) == 7  # hub is the last vertex
        assert degree_profile(wheel(5)) == (3, 5, False)
        with pytest.raises(InvalidParameterError):
            wheel(2)

    def test_cycle_complement(self):
        g = cycle_complement(7)
        assert (g.order, g.edge_count) == (7, 14)
        assert degree_profile(g) == (4, 4, True)
        with pytest.raises(InvalidParameterError):
            cycle_complement(4)

    def test_petersen(self):
        g = petersen()
        assert (g.order, g.edge_count) == (10, 15)
        assert degree_profile(g) == (3, 3, True)
        assert odd_girth(g) == 5


class TestComplement:
    def test_complement_of_clique_is_empty(self):
        assert complete(4).complement() == empty_graph(4)

    def test_empty_case(self):
        assert empty_graph(0).complement() == empty_graph(0)

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(50):
            g = oracles.random_graph(rng, rng.randint(0, 9), 0.5)
            assert g.complement().complement() == g

    def test_cycle_complement_matches_square_invariants(self):
        # The complement of a 7-cycle is isomorphic (not equal) to the
        # 7-cycle plus its distance-2 chords; compare labelling-free facts.
        comp = cycle(7).complement()
        square = Graph.from_edges(
            7, [(v, (v + 1) % 7) for v in range(7)] + [(v, (v + 2) % 7) for v in range(7)]
        )
        assert comp.edge_count == square.edge_count == 14
        assert degree_profile(comp) == degree_profile(square)
        assert oracles.chromatic_number(comp) == oracles.chromatic_number(square) == 4


class TestJoin:
    def test_join_of_cycle_and_hub_is_wheel(self):
        assert join(cycle(5), complete(1)) == wheel(5)

    def test_identity_element(self):
        g = petersen()
        assert join(empty_graph(0), g) == g
        assert join(g, empty_graph(0)) == g

    def test_degree_law(self):
        rng = random.Random(6)
        for _ in range(30):
            g = oracles.random_graph(rng, rng.randint(0, 6), 0.5)
            h = oracles.random_graph(rng, rng.randint(0, 6), 0.5)
            j = join(g, h)
            for v in range(g.order):
                assert j.degree(v) == g.degree(v) + h.order
            for v in range(h.order):
                assert j.degree(g.order + v) == h.degree(v) + g.order

    def test_chromatic_number_adds(self):
        rng = random.Random(7)
        for _ in range(15):
            g = oracles.random_graph(rng, rng.randint(1, 4), 0.5)
            h = oracles.random_graph(rng, rng.randint(1, 4), 0.5)
            assert oracles.chromatic_number(join(g, h)) == oracles.chromatic_number(
                g
            ) + oracles.chromatic_number(h)

    def test_wheel_join_absorbs_hub(self):
        # A clique joined to a wheel is the bigger clique joined to the rim:
        # same graph up to labels, so homomorphisms run both ways.
        from degstab import has_homomorphism

        for r, k in [(3, 2), (4, 2), (3, 3)]:
            a = join(complete(r - 3), wheel(2 * k + 1))
            b = join(complete(r - 2), cycle(2 * k + 1))
            assert a.order == b.order and a.edge_count == b.edge_count
            assert has_homomorphism(a, b) is not None
            assert has_homomorphism(b, a) is not None


class TestBlowUp:
    def test_balanced_c5_doubled(self):
        g = blow_up(Weighting(cycle(5), (2, 2, 2, 2, 2)))
        assert (g.order, g.edge_count) == (10, 20)
        assert degree_profile(g) == (4, 4, True)
        assert g == balanced_blow_up(cycle(5), 10)

    def test_zero_weights_drop_vertices(self):
        # C5 weighted (0,1,1,0,1): survivors 1,2,4 keep only the edge 1-2.
        g = blow_up(Weighting(cycle(5), (0, 1, 1, 0, 1)))
        assert g.order == 3
        assert g.edges() == [(0, 1)]

    def test_weighting_validation(self):
        with pytest.raises(InvalidParameterError):
            Weighting(cycle(5), (0, 0, 0, 0, 0))
        with pytest.raises(InvalidParameterError):
            Weighting(cycle(5), (1, 1, 1, 1))
        with pytest.raises(InvalidParameterError):
            Weighting(cycle(5), (1, 1, 1, 1, -1))
        with pytest.raises(InvalidParameterError):
            Weighting(complete(3), (True, 1, 1))

    def test_balanced_uneven_parts(self):
        g = balanced_blow_up(cycle(5), 11)
        assert g.order == 11
        # largest part goes to vertex 0
        assert degree_profile(g).min_degree == 4 == 2 * (11 // 5)
        assert g.degree(0) == 4  # vertex in the size-3 class sees 2+2

    def test_balanced_of_clique_is_turan(self):
        for r, n in [(2, 5), (3, 7), (4, 9)]:
            g = balanced_blow_up(complete(r), n)
            assert oracles.max_clique_size(g) == r
            assert oracles.chromatic_number(g) == r
            q, rem = divmod(n, r)
            assert degree_profile(g).min_degree == n - (q + (1 if rem else 0))

    def test_balanced_min_degree_bound(self):
        for g in range(1, 6):
            length = 2 * g + 1
            for n in range(length, 61, 7):
                blowup = balanced_blow_up(cycle(length), n)
                assert degree_profile(blowup).min_degree >= 2 * (n // length)

    def test_balanced_validation(self):
        with pytest.raises(InvalidParameterError):
            balanced_blow_up(cycle(5), 4)
        with pytest.raises(InvalidParameterError):
            balanced_blow_up(empty_graph(0), 3)

    def test_blow_up_preserves_clique_and_chromatic_numbers(self):
        rng = random.Random(8)
        for _ in range(20):
            base = oracles.random_graph(rng, rng.randint(1, 5), 0.5)
            weights = tuple(rng.randint(0, 2) for _ in range(base.order))
            if sum(weights) < 1:
                weights = (1,) + weights[1:]
            blown = blow_up(Weighting(base, weights))
            core = base.induced([v for v in range(base.order) if weights[v] > 0])
            assert oracles.chromatic_number(blown) == oracles.chromatic_number(core)
            assert oracles.max_clique_size(blown) == oracles.max_clique_size(core)


class TestOddGirth:
    def test_examples(self):
        assert odd_girth(cycle(7)) == 7
        assert odd_girth(cycle(6)) is None
        assert odd_girth(petersen()) == 5
        assert odd_girth(empty_graph(3)) is None

    def test_against_oracle(self):
        rng = random.Random(9)
        for _ in range(120):
            g = oracles.random_graph(rng, rng.randint(0, 7), 0.4)
            assert odd_girth(g) == oracles.odd_girth(g)

    def test_none_iff_two_colorable(self):
        from degstab import is_k_colorable

        rng = random.Random(10)
        for _ in range(80):
            g = oracles.random_graph(rng, rng.randint(0, 8), 0.4)
            assert (odd_girth(g) is None) == is_k_colorable(g, 2)
            assert is_bipartite(g) == (odd_girth(g) is None)


class TestDegreeProfile:
    def test_examples(self):
        assert degree_profile(complete(4)) == (3, 3, True)
        assert degree_profile(wheel(5)) == (3, 5, False)

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidParameterError):
            degree_profile(empty_graph(0))

    def test_regular_cycle_clique_join(self):
        # one clique class of weight 3 joined to a 5-cycle is 5-regular
        base = join(complete(1), cycle(5))
        g = blow_up(Weighting(base, (3, 1, 1, 1, 1, 1)))
        assert (g.order,) + tuple(degree_profile(g)) == (8, 5, 5, True)


class TestPeel:
    def test_dense_graph_unchanged(self):
        assert peel_min_degree(complete(4), Fraction(1, 2)) == complete(4)

    def test_zero_threshold_is_identity(self):
        g = petersen()
        assert peel_min_degree(g, 0) == g

    def test_star_cascades_to_empty(self):
        # Cutoff is 3 throughout: the five leaves fall one by one, then the
        # hub has degree 0 and falls too.
        star = Graph.from_edges(6, [(0, leaf) for leaf in range(1, 6)])
        assert peel_min_degree(star, Fraction(1, 2)) == empty_graph(0)

    def test_path_cascades_to_empty(self):
        # Cutoff 1.5: endpoint falls, then the remaining edge's degrees are
        # both 1, still below the original cutoff.
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert peel_min_degree(path, Fraction(1, 2)) == empty_graph(0)

    def test_survivors_meet_cutoff(self):
        rng = random.Random(11)
        for _ in range(40):
            g = oracles.random_graph(rng, rng.randint(0, 9), 0.5)
            t = Fraction(rng.randint(0, 4), 4)
            peeled = peel_min_degree(g, t)
            cutoff = t * g.order
            for v in range(peeled.order):
                assert peeled.degree(v) >= cutoff

    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError):
            peel_min_degree(complete(3), Fraction(3, 2))
        with pytest.raises(InvalidParameterError):
            peel_min_degree(complete(3), -1)

    @pytest.mark.parametrize("threshold", ["x", float("nan"), float("inf"), None])
    def test_non_numeric_threshold_rejected(self, threshold):
        with pytest.raises(InvalidParameterError, match="threshold must be a number"):
            peel_min_degree(complete(3), threshold)


# Every public entry point that takes an integer count, order or index, as
# (entry point, the parameter, its least valid value), the parameter passed
# last. Each rejects a float, a bool and a value below the bound with an
# InvalidParameterError that names the parameter.
INTEGER_PARAMETERS = {
    "empty_graph": (empty_graph, "n", 0),
    "complete": (complete, "n", 0),
    "cycle": (cycle, "n", 3),
    "wheel": (wheel, "k", 3),
    "cycle_complement": (cycle_complement, "n", 5),
    "from_edges": (lambda order: Graph.from_edges(order, []), "order", 0),
    "balanced_blow_up": (lambda n: balanced_blow_up(complete(3), n), "n", 3),
    "find_coloring": (lambda k: find_coloring(complete(3), k), "k", 0),
    "cliques_of_size": (lambda size: cliques_of_size(complete(3), size), "size", 0),
    "is_a_locally_bipartite": (lambda a: is_a_locally_bipartite(complete(3), a), "a", 1),
    "exhaustive": (CorpusSpec.exhaustive, "max_order", 0),
    "random.count": (lambda count: CorpusSpec.random(count, 5, 0.5, 1), "count", 0),
    "random.order": (lambda order: CorpusSpec.random(3, order, 0.5, 1), "order", 0),
    "brute_min_edits": (lambda k: brute_min_edits_to_k_partite(complete(3), k), "k", 1),
    "check_hom_odd_girth": (lambda g_max: check_hom_odd_girth([], g_max), "g_max", 1),
    "check_properties": (check_properties, "r", 3),
    "check_haggkvist": (lambda g: check_haggkvist([], g), "g", 2),
    "check_locally_bipartite": (lambda a: check_locally_bipartite_claims(a, []), "a", 1),
    "search_lower_bound": (
        lambda k: search_hom_free_lower_bound(complete(3), k, Fraction(1, 2), []),
        "k",
        0,
    ),
    "scaled_weighting": (lambda scale: scaled_gallery_weighting("H2", scale), "scale", 1),
    "edit_bound.base_order": (lambda base_order: edit_lower_bound(base_order, 10), "base_order", 1),
    "edit_bound.n": (lambda n: edit_lower_bound(3, n), "n", 3),
    "certify": (lambda n: certify(complete(4), classify(complete(4)), n), "n", 8),
    "sequence_graph": (sequence_graph, "index", 1),
    "scan_target.index": (lambda index: scan_target("cycle-join", index, 3), "index", 1),
    "scan_target.r": (lambda r: scan_target("gallery-join", 1, r), "r", 3),
    "scan_seed.index": (lambda index: scan_seed("gallery-join", index, 3), "index", 1),
    "scan_seed.r": (lambda r: scan_seed("cycle-join", 1, r), "r", 2),
}


@pytest.mark.parametrize("kind", ["float", "bool", "below"])
@pytest.mark.parametrize("entry", sorted(INTEGER_PARAMETERS))
def test_integer_parameters_share_one_rule(entry, kind):
    call, name, least = INTEGER_PARAMETERS[entry]
    value = {"float": float(least), "bool": True, "below": least - 1}[kind]
    with pytest.raises(InvalidParameterError, match=rf"\b{name}\b"):
        call(value)
