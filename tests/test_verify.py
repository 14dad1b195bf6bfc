import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from degstab import (
    CorpusSpec,
    HomWitness,
    Weighting,
    blow_up,
    brute_min_edits_to_k_partite,
    check_haggkvist,
    check_hom_odd_girth,
    check_locally_bipartite_claims,
    check_properties,
    complete,
    cycle,
    edit_lower_bound,
    empty_graph,
    is_k_colorable,
    petersen,
    search_hom_free_lower_bound,
)
from degstab import verify
from degstab.errors import InvalidParameterError, ResourceBudgetError
from degstab.gallery import gallery_graph
from degstab.verify import VerificationReport, Violation, min_edits
from tests import oracles


def c5_doubled():
    return blow_up(Weighting(cycle(5), (2, 2, 2, 2, 2)))


class TestCorpus:
    def test_exhaustive_counts(self):
        assert sum(1 for _ in CorpusSpec.exhaustive(0).graphs()) == 1
        assert sum(1 for _ in CorpusSpec.exhaustive(4).graphs()) == 76
        assert sum(1 for _ in CorpusSpec.exhaustive(5).graphs()) == 1100
        assert sum(1 for _ in CorpusSpec.exhaustive(6).graphs()) == 33868

    def test_exhaustive_order(self):
        # Graph for graph, in order: a violation is reported by its index.
        for k in range(6):
            assert list(CorpusSpec.exhaustive(k).graphs()) == list(oracles.exhaustive_graphs(k))

    def test_exhaustive_stream_keeps_one_order(self):
        # The stream keeps the previous order's adjacencies only: storing
        # every order, or the last one, costs several MB on exhaustive:6.
        tracemalloc.start()
        try:
            for _ in CorpusSpec.exhaustive(6).graphs():
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_exhaustive_bound(self):
        with pytest.raises(InvalidParameterError):
            CorpusSpec.exhaustive(8)

    def test_random_reproducible(self):
        spec = CorpusSpec.random(50, 9, 0.5, 7)
        first = list(spec.graphs())
        second = list(spec.graphs())
        assert first == second
        assert len(first) == 50
        assert all(g.order == 9 for g in first)

    def test_random_differs_across_seeds(self):
        a = list(CorpusSpec.random(20, 8, 0.5, 1).graphs())
        b = list(CorpusSpec.random(20, 8, 0.5, 2).graphs())
        assert a != b

    def test_parse_round_trip(self):
        for text in ("exhaustive:5", "random:100,9,0.5,7"):
            spec = CorpusSpec.parse(text)
            assert spec.label() == text

    @pytest.mark.parametrize(
        "spec",
        [
            CorpusSpec.random(3, 4, 1, 5),
            CorpusSpec.random(3, 4, 0, -1),
            CorpusSpec.exhaustive(2),
            # Fields the mode does not read may be given at their defaults.
            CorpusSpec("exhaustive", max_order=3, count=0, order=0, p=0.0, seed=0),
            CorpusSpec("random", count=2, order=5, p=0.5, seed=3, max_order=0),
        ],
    )
    def test_label_round_trips(self, spec):
        assert CorpusSpec.parse(spec.label()) == spec
        assert CorpusSpec.parse(spec.label()).label() == spec.label()

    @pytest.mark.parametrize(
        "fields,message",
        [
            (dict(mode="exhaustive", max_order=9), "orders 0..7"),
            (dict(mode="exhaustive", max_order=-1), "max_order must be at least 0"),
            (dict(mode="random", count=-3, order=4, p=0.5), "count must be at least 0"),
            (dict(mode="random", count=3, order=4, p=2.0), "edge probability p"),
            (dict(mode="random", count=3, order=4, p=0.5, seed=1.0), "seed must be an integer"),
            (dict(mode="bogus"), "unknown corpus mode 'bogus'"),
            # One label, one spec: exhaustive:3 does not name this one.
            (dict(mode="exhaustive", max_order=3, count=5, p=0.5), "exhaustive .* no count"),
            (dict(mode="exhaustive", max_order=3, p=0.5), "exhaustive corpora take no p"),
            (dict(mode="exhaustive", max_order=3, order=4), "exhaustive corpora take no order"),
            (dict(mode="exhaustive", max_order=3, seed=7), "exhaustive corpora take no seed"),
            (dict(mode="random", count=3, order=4, p=0.5, max_order=2), "random .* no max_order"),
        ],
    )
    def test_direct_construction_is_checked(self, fields, message):
        with pytest.raises(InvalidParameterError, match=message):
            CorpusSpec(**fields)

    def test_parse_errors(self):
        for text in ("exhaustive", "exhaustive:x", "random:1,2", "weird:3"):
            with pytest.raises(InvalidParameterError):
                CorpusSpec.parse(text)

    def test_unknown_mode(self):
        with pytest.raises(InvalidParameterError, match="unknown corpus mode"):
            next(CorpusSpec("bogus").graphs())

    def test_probability_bounds(self):
        with pytest.raises(InvalidParameterError):
            CorpusSpec.random(10, 5, 1.5, 0)

    @pytest.mark.parametrize(
        "p,seed,name",
        [
            (True, 1, "p"),
            ("0.5", 1, "p"),
            (None, 1, "p"),
            (0.5, True, "seed"),
            (0.5, 1.5, "seed"),
            (0.5, "1", "seed"),
        ],
    )
    def test_random_types(self, p, seed, name):
        with pytest.raises(InvalidParameterError, match=rf"\b{name}\b"):
            CorpusSpec.random(3, 4, p, seed)

    def test_random_accepts_int_probability_and_negative_seed(self):
        assert CorpusSpec.random(3, 4, 1, -5).label() == "random:3,4,1.0,-5"
        assert len(list(CorpusSpec.random(3, 4, 0.5, -1).graphs())) == 3


class TestEditOracle:
    def test_c5_doubled_matches_counting_bound(self):
        # derived independently by enumerating all 2^10 labelings
        assert oracles.min_edits_to_k_partite(c5_doubled(), 2) == 4
        assert brute_min_edits_to_k_partite(c5_doubled(), 2) == 4
        assert edit_lower_bound(5, 10) == 4

    def test_k4_cases(self):
        assert oracles.min_edits_to_k_partite(complete(4), 2) == 2
        assert brute_min_edits_to_k_partite(complete(4), 2) == 2
        assert brute_min_edits_to_k_partite(complete(4), 4) == 0

    def test_against_oracle_on_random_graphs(self):
        rng = random.Random(50)
        for _ in range(60):
            g = oracles.random_graph(rng, rng.randint(0, 7), 0.5)
            for k in (1, 2, 3):
                assert brute_min_edits_to_k_partite(
                    g, k
                ) == oracles.min_edits_to_k_partite(g, k)

    def test_zero_iff_colorable(self):
        for g in CorpusSpec.exhaustive(4).graphs():
            for k in (1, 2, 3):
                assert (brute_min_edits_to_k_partite(g, k) == 0) == is_k_colorable(g, k)

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            brute_min_edits_to_k_partite(empty_graph(30), 2)
        with pytest.raises(InvalidParameterError):
            brute_min_edits_to_k_partite(complete(3), 0)

    def test_pure_kernel_edge_cases(self):
        assert min_edits([], 2) == 0
        # Counts beyond 64 bits are plain integers to the kernel.
        assert min_edits([2, 1], 2**70) == 0
        for k in (0, -(2**70)):
            with pytest.raises(ValueError, match="k must be positive"):
                min_edits([2, 1], k)

    def test_blow_up_bound_holds_at_oracle_scale(self):
        for g in range(1, 6):
            length = 2 * g + 1
            for n in range(length, 13):
                from degstab import balanced_blow_up

                blown = balanced_blow_up(cycle(length), n)
                assert brute_min_edits_to_k_partite(blown, 2) >= edit_lower_bound(
                    length, n
                )


class TestLemmaSuites:
    def test_odd_girth_suite_exhaustive(self):
        report = check_hom_odd_girth(CorpusSpec.exhaustive(5), 3)
        assert report.passed
        assert report.checked == 1100

    def test_odd_girth_petersen_vacuous(self):
        report = check_hom_odd_girth([petersen()], 2)
        assert report.passed and report.checked == 1

    def test_odd_girth_long_cycle(self):
        report = check_hom_odd_girth([cycle(9)], 4)
        assert report.passed

    def test_odd_girth_suite_can_fail(self, monkeypatch):
        # The suite checks the search against the odd-girth lemma, so it
        # must report a search that claims K3 -> C5.
        monkeypatch.setattr(verify, "has_homomorphism", lambda g, t: HomWitness((0,) * g.order))
        report = check_hom_odd_girth([complete(3)], 2)
        assert not report.passed
        assert [v.detail for v in report.violations] == [
            "maps into the 5-cycle but has odd girth 3"
        ]

    def test_haggkvist_exhaustive(self):
        for g in (2, 3):
            report = check_haggkvist(CorpusSpec.exhaustive(5), g)
            assert report.passed

    def test_haggkvist_suite_can_fail(self, monkeypatch):
        # K4 meets the hypothesis at g = 2 (3/4 > 2/5), so an odd girth of
        # 5 there must be reported.
        monkeypatch.setattr(verify, "odd_girth", lambda graph: 5)
        report = check_haggkvist([complete(4)], 2)
        assert [v.detail for v in report.violations] == ["min degree 3 of 4 but odd girth 5"]

    def test_haggkvist_runs_odd_girth_only_under_the_hypothesis(self, monkeypatch):
        calls = []
        real = verify.odd_girth
        monkeypatch.setattr(verify, "odd_girth", lambda graph: calls.append(graph) or real(graph))
        report = check_haggkvist(CorpusSpec.exhaustive(6), 2)
        assert report.passed and report.checked == 33868
        dense = [
            g
            for g in oracles.exhaustive_graphs(6)
            if g.order and Fraction(min(map(int.bit_count, g.adj)), g.order) > Fraction(2, 5)
        ]
        assert calls == dense
        assert len(dense) == 1896

    def test_haggkvist_boundary_is_vacuous(self):
        # min degree exactly 2n/(2g+1) does not trigger the hypothesis
        report = check_haggkvist([c5_doubled()], 2)
        assert report.passed

    def test_haggkvist_parameter(self):
        with pytest.raises(InvalidParameterError):
            check_haggkvist(CorpusSpec.exhaustive(3), 1)


class TestProperties:
    def test_r3_and_r4(self):
        for r in (3, 4):
            report = check_properties(r)
            assert report.passed
            assert report.checked == 23  # 12 chromatic checks + 11 ratios

    def test_chromatic_check_can_fail(self, monkeypatch):
        monkeypatch.setattr(verify, "chromatic_number", lambda g: 3)
        report = check_properties(4)
        assert report.checked == 23
        assert [v.detail for v in report.violations] == [
            f"join at index {j} has chromatic number 3" for j in range(1, 13)
        ]

    def test_ratio_check_can_fail(self, monkeypatch):
        # Blow-ups of C5 have ratio 2/5, below every threshold at r = 3.
        monkeypatch.setattr(verify, "scan_seed", lambda kind, j, r: cycle(5))
        report = check_properties(3)
        assert report.checked == 23
        assert [v.detail for v in report.violations] == [
            f"witness ratio 2/5 at index {g} misses {verify.degree_threshold(3, g)}"
            for g in range(1, 12)
        ]

    def test_seed_ratio_above_the_table_is_reported(self, monkeypatch):
        # With the table value at index 5 lowered by 1/1000, the true seed
        # ratio lies above it: a miss on that side is a violation too.
        real = verify.degree_threshold
        low = Fraction(1, 1000)
        monkeypatch.setattr(
            verify, "degree_threshold", lambda r, g: real(r, g) - low if g == 5 else real(r, g)
        )
        report = check_properties(3)
        assert [(v.index, v.detail) for v in report.violations] == [
            (5, f"witness ratio {real(3, 5)} at index 5 misses {real(3, 5) - low}")
        ]

    def test_parameters(self):
        with pytest.raises(InvalidParameterError):
            check_properties(6)


class TestLocallyBipartiteClaims:
    def test_exhaustive(self):
        report = check_locally_bipartite_claims(1, CorpusSpec.exhaustive(5))
        assert report.passed

    def test_c7bar_boundary_vacuous(self):
        # min degree 4 equals the threshold exactly, so nothing is asserted
        g = gallery_graph("C7bar")
        assert Fraction(4) == (1 - 1 / (1 + Fraction(4, 3))) * 7
        report = check_locally_bipartite_claims(1, [g])
        assert report.passed

    def test_random_a2(self):
        report = check_locally_bipartite_claims(2, CorpusSpec.random(300, 8, 0.6, 11))
        assert report.passed

    def test_suite_can_fail(self, monkeypatch):
        # K3 meets the hypothesis at a = 1 (min degree 2 > 12/7), so a
        # colouring search that finds no 3-colouring must be reported.
        monkeypatch.setattr(verify, "is_k_colorable", lambda g, k: False)
        report = check_locally_bipartite_claims(1, [complete(3)])
        assert [v.detail for v in report.violations] == [
            "locally bipartite at a=1, dense, but not 3-colorable"
        ]


class TestLowerBoundSearch:
    def test_c5_corpus_hit(self):
        hit = search_hom_free_lower_bound(complete(3), 2, Fraction(2, 5), [cycle(5)])
        assert hit is not None
        assert hit.graph == cycle(5)
        assert hit.ratio == Fraction(2, 5)

    def test_none_above_threshold(self):
        # no dense triangle-free non-bipartite witness exists at this scale
        hit = search_hom_free_lower_bound(
            complete(3), 2, Fraction(1, 2), CorpusSpec.exhaustive(6)
        )
        assert hit is None

    def test_none_for_k4_above_its_threshold(self):
        hit = search_hom_free_lower_bound(
            complete(4), 3, Fraction(5, 8), CorpusSpec.exhaustive(6)
        )
        assert hit is None

    def test_picks_largest_ratio(self):
        corpus = [cycle(5), cycle(7), blow_up(Weighting(cycle(5), (2,) * 5))]
        hit = search_hom_free_lower_bound(complete(3), 2, Fraction(1, 4), corpus)
        assert hit.ratio == Fraction(2, 5)
        assert hit.index == 0  # earliest graph attaining the best ratio


class TestReports:
    def test_json_shape(self):
        report = check_hom_odd_girth(CorpusSpec.exhaustive(3), 2)
        data = json.loads(report.dumps())
        assert data["suite"] == "odd-girth(g_max=2)"
        assert data["checked"] == 12
        assert data["violations"] == []
        # Timings go to stderr: the JSON is the same on every run.
        assert "elapsed" not in data

    def test_violation_serialization(self):
        report = VerificationReport(
            "demo", 1, (Violation(0, complete(3), "boom"),), 0.0
        )
        data = json.loads(report.dumps())
        assert data["violations"] == [
            {"detail": "boom", "graph6": "Bw", "index": 0}
        ]
        assert not report.passed
