from fractions import Fraction

import pytest

from degstab import (
    HomWitness,
    blow_up,
    chromatic_number,
    complete,
    cycle,
    degree_profile,
    gallery,
    has_homomorphism,
    is_a_locally_bipartite,
    join,
    odd_girth,
)
from degstab.errors import InvalidParameterError, UnsupportedError
from degstab.gallery import (
    SEQUENCE,
    WEIGHTED_TAGS,
    canonical_tag,
    gallery_graph,
    gallery_weighting,
    sequence_graph,
)

EXPECTED_SIZES = {
    "K4": (4, 6),
    "W5": (6, 10),
    "W7": (8, 14),
    "C7bar": (7, 14),
    "W9": (10, 18),
    "H2plus": (8, 16),
    "W11": (12, 22),
    "H2": (7, 13),
    "W13": (14, 26),
    "T0": (10, 22),
    "W15": (16, 30),
    "H1plusplus": (9, 18),
    "Petersen": (10, 15),
}

LOCALLY_BIPARTITE = {"C7bar", "H2plus", "H2", "T0", "H1plusplus"}


class TestTranscriptions:
    @pytest.mark.parametrize("tag", sorted(EXPECTED_SIZES))
    def test_orders_and_sizes(self, tag):
        g = gallery_graph(tag)
        assert (g.order, g.edge_count) == EXPECTED_SIZES[tag]

    def test_t0_degrees(self):
        g = gallery_graph("T0")
        assert g.degree(7) == 7 and g.degree(8) == 7
        assert g.degree(9) == 3
        assert g.neighbors(9) == (0, 7, 8)

    def test_h2plus_low_vertex(self):
        g = gallery_graph("H2plus")
        assert g.neighbors(7) == (0, 2, 5)

    def test_h1plusplus_extra_vertices(self):
        g = gallery_graph("H1plusplus")
        assert g.neighbors(7) == (0, 2, 3)
        assert g.neighbors(8) == (0, 3, 5)

    def test_sequence_all_4_chromatic(self):
        for index in range(1, 13):
            assert chromatic_number(sequence_graph(index)) == 4

    def test_wheels_and_k4_are_not_locally_bipartite(self):
        for tag in SEQUENCE:
            expected = tag in LOCALLY_BIPARTITE
            assert is_a_locally_bipartite(gallery_graph(tag), 1)[0] == expected

    def test_edge_deletion_chain(self):
        # H2 sits inside C7bar, and H2 inside H2plus, under identity labels.
        h2 = gallery_graph("H2")
        assert HomWitness(tuple(range(7))).is_valid(h2, gallery_graph("C7bar"))
        assert HomWitness(tuple(range(7))).is_valid(h2, gallery_graph("H2plus"))
        assert gallery_graph("C7bar").edge_count == h2.edge_count + 1

    def test_petersen_odd_girth(self):
        assert odd_girth(gallery_graph("Petersen")) == 5

    def test_w9_identity(self):
        assert gallery_graph("W9") == join(cycle(9), complete(1))


class TestWeightings:
    @pytest.mark.parametrize(
        "tag,total,min_degree",
        [("H2plus", 9, 5), ("H2", 11, 6), ("T0", 13, 7), ("H1plusplus", 15, 8)],
    )
    def test_blow_up_ratios(self, tag, total, min_degree):
        w = gallery_weighting(tag)
        assert w.total == total
        blown = blow_up(w)
        profile = degree_profile(blown)
        assert (profile.min_degree, blown.order) == (min_degree, total)

    def test_weighting_only_for_four_tags(self):
        assert set(WEIGHTED_TAGS) == {"H2plus", "H2", "T0", "H1plusplus"}
        with pytest.raises(UnsupportedError):
            gallery_weighting("W5")
        with pytest.raises(UnsupportedError):
            gallery_weighting("Petersen")


class TestCertificates:
    def test_import_certifies_every_member(self):
        assert gallery._WEIGHTINGS == {tag: gallery._certify(tag) for tag in SEQUENCE}
        assert gallery._WEIGHTINGS["K4"].weights == (1, 1, 1, 1)
        assert gallery._ratio(gallery._WEIGHTINGS["K4"]) == Fraction(3, 4)
        for k in range(2, 8):
            w = gallery._WEIGHTINGS[f"W{2 * k + 1}"]
            assert w.weights == (1,) * (2 * k + 1) + (2 * k - 1,)

    @pytest.mark.parametrize(
        "table,tag,vertex,value",
        [
            ("_WEIGHTS", "H2plus", 0, 1),  # weight 2 -> 1
            ("_DUALS", "T0", 8, 3),  # dual entry 4 -> 3
            ("_WEIGHTS", "W7", 7, 4),  # hub weight 5 -> 4
        ],
    )
    def test_one_wrong_entry_fails_the_check(self, monkeypatch, table, tag, vertex, value):
        entries = list(getattr(gallery, table)[tag])
        assert entries[vertex] != value
        entries[vertex] = value
        monkeypatch.setitem(getattr(gallery, table), tag, tuple(entries))
        with pytest.raises(AssertionError, match=f"dual of {tag} does not prove"):
            gallery._certify(tag)

    def test_a_negative_dual_is_rejected(self, monkeypatch):
        monkeypatch.setitem(gallery._DUALS, "H2plus", (2, 1, 1, 1, 1, 2, 1, -1))
        with pytest.raises(InvalidParameterError):
            gallery._certify("H2plus")


class TestNaming:
    def test_aliases(self):
        assert canonical_tag("f6") == "H2plus"
        assert canonical_tag("F12") == "H1plusplus"
        assert canonical_tag("petersen") == "Petersen"
        assert canonical_tag("c7bar") == "C7bar"

    def test_unknown_names(self):
        with pytest.raises(InvalidParameterError):
            canonical_tag("F13")
        with pytest.raises(InvalidParameterError):
            gallery_graph("nope")
        for name in (3, None, b"K4"):
            with pytest.raises(InvalidParameterError, match="unknown gallery graph"):
                gallery_graph(name)
        with pytest.raises(InvalidParameterError):
            sequence_graph(0)
        with pytest.raises(InvalidParameterError):
            sequence_graph(13)


class TestSequenceNonMonotone:
    def test_w9_maps_to_w7_but_not_c7bar(self):
        # A graph can map to the third and fifth members but not the fourth:
        # the 9-wheel winds onto the 7-wheel, yet no odd wheel maps into a
        # locally bipartite target.
        w9 = gallery_graph("W9")
        assert has_homomorphism(w9, gallery_graph("W7")) is not None
        assert has_homomorphism(w9, gallery_graph("W9")) is not None
        assert has_homomorphism(w9, gallery_graph("C7bar")) is None

    def test_h2plus_does_not_map_to_w9(self):
        # successor member not homomorphic to its predecessor
        assert has_homomorphism(gallery_graph("H2plus"), gallery_graph("W9")) is None
