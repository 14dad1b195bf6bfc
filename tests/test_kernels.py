"""Both kernel sets against their plain reference formulations.

``degstab._purecore`` and the compiled ``degstab._fastcore`` revise search
domains by neighbourhood union and run odd-girth BFS one layer mask at a
time. ``tests.oracles`` keeps the per-bit and per-state versions those
replaced; both kernel sets must agree with them exactly, search node counts
and witnesses included. Each test takes the kernel set as the ``kernels``
fixture: the module-level tests run the pure kernels, and ``TestCompiled``
runs the same tests on the compiled ones.
"""

import random

import pytest

from degstab import _purecore, decode
from degstab.backend import orbit_minima
from degstab.classify import scan_target
from degstab.gallery import SEQUENCE, sequence_graph
from degstab.graphs import Graph, complete, cycle, cycle_complement, join, petersen, wheel
from degstab.hom import brute_hom
from degstab.verify import CorpusSpec

from tests import oracles
from tests.oracles import (
    mycielskian,
    random_graph,
    reference_hom_search,
    reference_odd_girth,
)


@pytest.fixture
def kernels():
    return _purecore


def above_compiled_limit(kernels, *graphs):
    """True when kernels is the compiled set and a graph has order above 64,
    which it must refuse."""
    return kernels is not _purecore and max(map(len, graphs)) > 64


def test_hom_search_matches_reference_on_random_pairs(kernels):
    rng = random.Random(70)
    for _ in range(600):
        p = random_graph(rng, rng.randint(0, 8), rng.random())
        t = random_graph(rng, rng.randint(0, 7), rng.random())
        assert kernels.hom_search(p.adj, t.adj) == reference_hom_search(p.adj, t.adj)


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_hom_search_matches_reference_on_clique_refutations(kernels, r):
    # K_{r+1} -> K_{r-3} v W5 has no homomorphism; the search must refute
    # it with exactly the reference's node count.
    p = complete(r + 1).adj
    t = join(complete(r - 3), wheel(5)).adj
    got = kernels.hom_search(p, t)
    assert got == reference_hom_search(p, t)
    assert got[0] is None and got[1] > 0


@pytest.mark.parametrize("j", range(1, len(SEQUENCE) + 1))
def test_hom_search_matches_reference_on_gallery_joins(kernels, j):
    cases = [
        (mycielskian(cycle(5), 1), sequence_graph(j)),
        (mycielskian(cycle(7), 1), sequence_graph(j)),
        (join(complete(1), petersen()), sequence_graph(j)),
        (complete(5), join(complete(1), sequence_graph(j))),
    ]
    for pattern, target in cases:
        assert kernels.hom_search(pattern.adj, target.adj) == reference_hom_search(
            pattern.adj, target.adj
        )


@pytest.mark.parametrize("a, b", [(65, 63), (64, 63), (63, 65), (63, 64), (64, 64)])
def test_hom_search_matches_reference_across_64_vertices(kernels, a, b):
    p, t = cycle(a).adj, cycle(b).adj
    if above_compiled_limit(kernels, p, t):
        with pytest.raises(ValueError):
            kernels.hom_search(p, t)
    else:
        assert kernels.hom_search(p, t) == reference_hom_search(p, t)


@pytest.mark.parametrize(
    "pattern, target",
    [
        (mycielskian(cycle(31), 1), complete(4)),
        (mycielskian(cycle(21), 2), complete(4)),
        (complete(3), mycielskian(cycle(21), 2)),
        (mycielskian(cycle(5), 1), mycielskian(cycle(21), 2)),
    ],
    ids=lambda g: f"order{g.order}",
)
def test_hom_search_matches_reference_at_63_and_64_vertices(kernels, pattern, target):
    # Order 64 fills every bit of a domain or pattern mask.
    assert kernels.hom_search(pattern.adj, target.adj) == reference_hom_search(
        pattern.adj, target.adj
    )


def _is_hom(mapping, p_adj, t_adj):
    n = len(p_adj)
    edges = [(v, u) for v in range(n) for u in range(n) if p_adj[v] >> u & 1]
    return all(t_adj[mapping[v]] >> mapping[u] & 1 for v, u in edges)


def _triangle_free(rng, order, p):
    """Each pair joined with probability p unless it would close a triangle."""
    adj = [0] * order
    for j in range(1, order):
        for i in range(j):
            if rng.random() < p and not adj[i] & adj[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    edges = [(i, j) for j in range(order) for i in range(j) if adj[i] >> j & 1]
    return Graph.from_edges(order, edges)


def test_probing_keeps_every_answer_on_random_pairs(kernels):
    # Triangle-free patterns of order 15 to 18, half of them Mycielskians,
    # may be probed: the answer must be the one the unprobed reference
    # gives, and the witness a homomorphism. Patterns with a triangle never
    # are: their search is the unprobed one exactly.
    rng = random.Random(73)
    changed = refuted = 0
    for i in range(150):
        if i % 3 == 0:
            p = random_graph(rng, rng.randint(15, 18), rng.uniform(0.3, 0.5)).adj
        elif i % 3 == 1:
            p = _triangle_free(rng, rng.randint(15, 18), rng.uniform(0.15, 0.4)).adj
        else:
            p = mycielskian(_triangle_free(rng, rng.randint(7, 8), 0.5), 1).adj
        t = random_graph(rng, rng.randint(3, 7), rng.uniform(0.4, 0.8)).adj
        got = kernels.hom_search(p, t)
        plain = reference_hom_search(p, t, probe=False)
        assert got == reference_hom_search(p, t)
        assert (got[0] is None) == (plain[0] is None)
        if got[0] is not None:
            assert _is_hom(got[0], p, t)
        if i % 3 == 0:
            assert got == plain
        changed += got[1] != plain[1]
        refuted += got[0] is None
    assert changed > 0 and refuted > 0


# Maximal triangle-free graphs on 14 and 15 vertices (edges added in a
# random order unless they close a triangle), with no homomorphism to C7bar:
# graph6 text, then the node counts of the search without and with probing.
GATE_PATTERNS = {
    14: ("MPERJHOqAWP[HKGF?", 5215, 2356),
    15: ("NHoGUk`hclBEt_AGgBG", 4081, 2269),
}


@pytest.mark.parametrize("order", [14, 15])
def test_probing_starts_at_pattern_order_15(kernels, monkeypatch, order):
    # Probing changes the node count of both refutations, once the gate
    # admits their order, so a kernel whose gate is not at 15 gets one of
    # them wrong.
    text, plain, probed = GATE_PATTERNS[order]
    p = decode(text, "graph6").adj
    t = cycle_complement(7).adj
    got = kernels.hom_search(p, t)
    assert got == _purecore.hom_search(p, t) == reference_hom_search(p, t)
    assert got == (None, probed if order >= 15 else plain)
    assert reference_hom_search(p, t, probe=False) == (None, plain)
    monkeypatch.setattr(oracles, "REFERENCE_PROBE_ORDER", order)
    assert reference_hom_search(p, t) == (None, probed)


def test_probing_skips_the_root(kernels):
    # M_1(C_9) into a 6-vertex graph with two triangles (no homomorphism):
    # the probes below the root take 1,570 nodes to 608; a probe at the
    # root too would take them to 564.
    p = mycielskian(cycle(9), 1).adj
    t = decode("EPl_", "graph6").adj
    assert kernels.hom_search(p, t) == reference_hom_search(p, t) == (None, 608)
    assert reference_hom_search(p, t, probe=False) == (None, 1570)


_M2_C21 = mycielskian(cycle(21), 2)


@pytest.mark.parametrize(
    "pattern",
    [
        _M2_C21.induced(range(1, 64)),
        _M2_C21,
        Graph.from_edges(65, list(_M2_C21.edges()) + [(63, 64)]),
    ],
    ids=lambda g: f"order{g.order}",
)
def test_probing_around_64_vertices(kernels, monkeypatch, pattern):
    # M_2(C_21) into C5 has no homomorphism and takes 25,815 nodes
    # unprobed, less its first vertex or with a pendant vertex too; order
    # 64 uses every bit of a pattern mask, and order 65 is pure only.
    p, t = pattern.adj, cycle(5).adj
    if above_compiled_limit(kernels, p):
        with pytest.raises(ValueError):
            kernels.hom_search(p, t)
        return
    got = kernels.hom_search(p, t)
    assert got == _purecore.hom_search(p, t) == reference_hom_search(p, t)
    monkeypatch.setattr(_purecore, "PROBE_ORDER", 66)
    assert got[0] is None
    assert got[1] < _purecore.hom_search(p, t)[1] == 25815


@pytest.mark.parametrize(
    "graph",
    [cycle(63), cycle(64), mycielskian(cycle(31), 1), mycielskian(cycle(21), 2)],
    ids=lambda g: f"order{g.order}",
)
def test_color_search_at_63_and_64_vertices(kernels, graph):
    # Odd cycles have chromatic number 3, and Mycielskians of odd cycles 4.
    for k in (2, 4):
        coloring = kernels.color_search(graph.adj, k)
        assert coloring == _purecore.color_search(graph.adj, k)
        assert (coloring is None) == (k == 2 and reference_odd_girth(graph.adj) > 0)
        if coloring is not None:
            assert all(0 <= c < k for c in coloring)
            assert all(coloring[u] != coloring[v] for u, v in graph.edges())


def _minima(t_adj, calls):
    """The target's orbit minima, as backend passes them, logging each F."""

    def minima(fixed):
        calls.append(fixed)
        return orbit_minima(t_adj, fixed)

    return minima


def _restricted_agrees(kernels, p_adj, t_adj):
    """Searches with and without orbit minima find the same mapping, the
    restricted one in no more nodes; both kernel sets agree bit for bit."""
    calls = []
    got = kernels.hom_search(p_adj, t_adj, _minima(t_adj, calls))
    plain = kernels.hom_search(p_adj, t_adj)
    assert got[0] == plain[0]
    assert got[1] <= plain[1]
    assert got == _purecore.hom_search(p_adj, t_adj, _minima(t_adj, []))
    return got, plain, calls


def test_minima_leave_random_searches_unchanged(kernels):
    rng = random.Random(72)
    for _ in range(400):
        p = random_graph(rng, rng.randint(1, 8), rng.random())
        t = random_graph(rng, rng.randint(1, 7), rng.random())
        got, _, calls = _restricted_agrees(kernels, p.adj, t.adj)
        # Levels whose first value succeeds never ask for symmetry: with
        # no failed node at all, minima is not called.
        if got[0] is not None and got[1] == p.order:
            assert calls == []


@pytest.mark.parametrize("r", [3, 4])
def test_minima_leave_scan_target_searches_unchanged(kernels, r):
    # M_1(C_7), M_2(C_5) and M_1(C_9) are triangle-free with 15 to 19
    # vertices, so their deep searches are probed: with minima, still the
    # same witness in no more nodes. C19(1,2) has triangles and is not.
    patterns = [
        mycielskian(cycle(5), 1),
        mycielskian(cycle(7), 1),
        mycielskian(cycle(5), 2),
        mycielskian(cycle(9), 1),
        Graph.from_edges(19, [(v, (v + s) % 19) for v in range(19) for s in (1, 2)]),
        join(complete(1), petersen()),
        join(complete(r - 3), cycle_complement(7)),
    ]
    targets = [scan_target("gallery-join", j, r) for j in range(1, len(SEQUENCE) + 1)]
    targets += [cycle(2 * g + 1) for g in (1, 2, 3)]
    targets += [scan_target("cycle-join", g, r) for g in (1, 2, 3)]
    pruned = 0
    for pattern in patterns:
        for target in targets:
            got, plain, _ = _restricted_agrees(kernels, pattern.adj, target.adj)
            pruned += got[1] < plain[1]
    assert pruned > 0


def test_minima_that_drop_an_orbit_are_caught_by_enumeration(kernels):
    # K3 -> C5 + K3 (disjoint): the root's first value, on the C5, fails,
    # and the triangle's orbit holds every solution.
    p = complete(3).adj
    t = Graph.from_edges(8, [(v, (v + 1) % 5) for v in range(5)] + [(5, 6), (5, 7), (6, 7)]).adj
    assert brute_hom(p, t)
    assert kernels.hom_search(p, t, _minima(t, []))[0] == (5, 6, 7)

    def drop_last_orbit(fixed):
        minima = orbit_minima(t, fixed)
        return minima & ~(1 << (minima.bit_length() - 1))

    assert kernels.hom_search(p, t, drop_last_orbit)[0] is None


def test_minima_are_not_called_when_the_first_values_succeed(kernels):
    def fail(fixed):
        raise AssertionError(f"minima({fixed}) called")

    for p, t in [
        (complete(3), wheel(5)),
        (cycle(5), cycle_complement(7)),
        (petersen(), complete(3)),
        (mycielskian(cycle(5), 1), complete(4)),
    ]:
        assert kernels.hom_search(p.adj, t.adj, fail)[0] is not None
    # K3 -> K2: the first root value fails, so the root asks, and an error
    # raised by minima reaches the caller.
    with pytest.raises(AssertionError, match=r"minima\(0\) called"):
        kernels.hom_search(complete(3).adj, complete(2).adj, fail)


def test_hom_search_edge_cases(kernels):
    # The empty pattern maps, by the empty map, without a node; a pattern
    # vertex with no target vertex to go to cannot. No search here asks
    # for the target's orbit minima.
    def fail(fixed):
        raise AssertionError(f"minima({fixed}) called")

    for p, t, want in [
        ([], [], ((), 0)),
        ([0], [], (None, 0)),
        ([2, 1], [], (None, 0)),
        ([], [0], ((), 0)),
        ([0, 0], [0], ((0, 0), 2)),
    ]:
        assert kernels.hom_search(p, t) == want, (p, t)
        assert kernels.hom_search(p, t, fail) == want, (p, t)


def test_odd_girth_matches_reference_on_random_graphs(kernels):
    rng = random.Random(71)
    for _ in range(600):
        g = random_graph(rng, rng.randint(0, 16), rng.random() * 0.6)
        assert kernels.odd_girth(g.adj) == reference_odd_girth(g.adj)


def test_odd_girth_matches_reference_on_every_graph_up_to_5_vertices(kernels):
    # Both paths: a triangle returns 3 before the BFS, the rest is BFS.
    girths = set()
    for g in CorpusSpec.exhaustive(5).graphs():
        girth = kernels.odd_girth(g.adj)
        assert girth == reference_odd_girth(g.adj)
        girths.add(girth)
    assert girths == {0, 3, 5}


@pytest.mark.parametrize(
    "graph",
    [
        cycle(63),
        cycle(64),
        cycle(65),
        mycielskian(cycle(31), 1),  # order 63
        mycielskian(cycle(21), 2),  # order 64
        mycielskian(cycle(7), 8),  # order 64
        Graph.from_edges(64, [(61, 62), (62, 63), (61, 63)]),  # a triangle on the top bits
        mycielskian(cycle(32), 1),  # order 65
        mycielskian(cycle(16), 3),  # order 65
    ],
    ids=lambda g: f"order{g.order}",
)
def test_odd_girth_matches_reference_around_64_vertices(kernels, graph):
    assert graph.order in (63, 64, 65)
    if above_compiled_limit(kernels, graph.adj):
        with pytest.raises(ValueError):
            kernels.odd_girth(graph.adj)
    else:
        assert kernels.odd_girth(graph.adj) == reference_odd_girth(graph.adj)


# A class rather than a parametrized fixture keeps the pure tests' IDs.
class TestCompiled:
    """Every test above, on the compiled kernels."""

    @pytest.fixture
    def kernels(self, fastcore):
        return fastcore


for _name, _test in list(globals().items()):
    if _name.startswith("test_"):
        setattr(TestCompiled, _name, staticmethod(_test))

