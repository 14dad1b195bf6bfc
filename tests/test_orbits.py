"""``backend.orbits`` and ``orbit_minima`` against permutation enumeration."""

import random

import pytest

from degstab.backend import orbit_minima, orbits
from degstab.graphs import (
    Graph,
    complete,
    cycle,
    cycle_complement,
    empty_graph,
    join,
    petersen,
    wheel,
)

from tests import oracles
from tests.oracles import random_graph

NAMED = {
    "C5": cycle(5),
    "C7": cycle(7),
    "C7bar": cycle_complement(7),
    "W5": wheel(5),
    "K13": join(complete(1), empty_graph(3)),
    "K3+2K1": join(complete(3), empty_graph(2)),
}


def _masks(sets):
    return [sum(1 << v for v in orbit) for orbit in sets]


def _agree(g):
    for fixed in [()] + [(x,) for x in range(g.order)]:
        mask = sum(1 << x for x in fixed)
        want = _masks(oracles.orbits(g, fixed))
        assert orbits(g.adj, mask) == want, (g.adj, fixed)
        assert orbit_minima(g.adj, mask) == sum(o & -o for o in want)


@pytest.mark.parametrize("name", NAMED)
def test_orbits_match_enumeration_on_named_graphs(name):
    _agree(NAMED[name])


def test_orbits_match_enumeration_on_random_graphs():
    rng = random.Random(90)
    for _ in range(150):
        _agree(random_graph(rng, rng.randint(0, 7), rng.random()))


def test_empty_and_rigid_graphs():
    assert orbits((), 0) == []
    # A path 0-1-2-3-4 with vertex 5 on 2 and 3 has no automorphism but
    # the identity, and colour refinement alone splits it into singletons.
    rigid = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)])
    assert orbits(rigid.adj) == [1 << v for v in range(6)]
    _agree(rigid)


def test_vertex_transitive_targets_have_one_orbit():
    assert orbits(cycle_complement(7).adj) == [(1 << 7) - 1]
    assert orbits(petersen().adj) == [(1 << 10) - 1]
    # Aut(C7bar) is dihedral of order 14: the stabiliser of 0 is a reflection.
    assert orbits(cycle_complement(7).adj, 1) == [0b1, 0b1000010, 0b100100, 0b11000]


def test_petersen_stabiliser_orbits_are_the_distance_classes():
    adj = petersen().adj
    for x in range(10):
        found = orbits(adj, 1 << x)
        assert sorted(o.bit_count() for o in found) == [1, 3, 6]
        assert adj[x] in found


def test_non_isomorphic_strongly_regular_components_stay_apart():
    # The 4x4 rook's graph and the Shrikhande graph are both srg(16, 6, 2, 2)
    # and vertex-transitive, but not isomorphic. Colour refinement cannot
    # tell their vertices apart, so only the search keeps the orbits apart.
    cells = [(a, b) for a in range(4) for b in range(4)]
    rook = [(p, q) for p in cells for q in cells if (p[0] == q[0]) != (p[1] == q[1])]
    steps = [(0, 1), (1, 0), (1, 1)]
    shrikhande = [((a, b), ((a + x) % 4, (b + y) % 4)) for a, b in cells for x, y in steps]
    edges = {(4 * a + b, 4 * c + d) for (a, b), (c, d) in rook}
    edges |= {(16 + 4 * a + b, 16 + 4 * c + d) for (a, b), (c, d) in shrikhande}
    g = Graph.from_edges(32, edges)
    assert {m.bit_count() for m in g.adj} == {6}
    assert orbits(g.adj) == [(1 << 16) - 1, ((1 << 16) - 1) << 16]
