from dataclasses import replace
from fractions import Fraction

import pytest

from degstab import (
    DeltaResult,
    HomWitness,
    Weighting,
    balanced_blow_up,
    blow_up,
    certify,
    chromatic_number,
    classify,
    complete,
    cycle,
    cycle_join_threshold,
    degree_profile,
    degree_threshold,
    edit_lower_bound,
    join,
    petersen,
    scaled_gallery_weighting,
    scan_seed,
)
from degstab import witness
from degstab.classify import scan_target
from degstab.errors import InvalidParameterError
from degstab.gallery import SEQUENCE, WEIGHTED_TAGS, gallery_graph
from degstab.verify import EDIT_ORACLE_BUDGET, brute_min_edits_to_k_partite
from degstab.witness import witness_base
from tests.test_classify import only_cycle_joins


class TestOddCycleWitness:
    def test_examples(self):
        g = balanced_blow_up(scan_seed("odd-cycle", 2, 2), 10)
        assert degree_profile(g) == (4, 4, True)
        g = balanced_blow_up(scan_seed("odd-cycle", 2, 2), 11)
        assert degree_profile(g).min_degree == 4
        g = balanced_blow_up(scan_seed("odd-cycle", 3, 2), 21)
        assert degree_profile(g) == (6, 6, True)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            balanced_blow_up(scan_seed("odd-cycle", 2, 2), 4)
        with pytest.raises(InvalidParameterError):
            scan_seed("odd-cycle", 0, 2)

    def test_is_the_cycle_join_family_at_r_2(self):
        for g in range(1, 9):
            for n in (2 * g + 1, 2 * g + 2, 60):
                seed = scan_seed("odd-cycle", g, 2)
                assert balanced_blow_up(seed, n) == balanced_blow_up(cycle(2 * g + 1), n)


class TestRegularJoinWitness:
    def test_small_cases(self):
        g = scan_seed("cycle-join", 2, 3)
        assert (g.order,) + tuple(degree_profile(g)) == (8, 5, 5, True)
        assert scan_seed("cycle-join", 1, 4) == complete(5)
        g = scan_seed("cycle-join", 3, 3)
        assert (g.order,) + tuple(degree_profile(g)) == (12, 7, 7, True)

    def test_threshold_identity_grid(self):
        for r in (3, 4, 5):
            for g in range(1, 6):
                w = scan_seed("cycle-join", g, r)
                profile = degree_profile(w)
                assert profile.regular
                assert w.order == (2 * g - 1) * (r - 1) + 2
                assert profile.min_degree == (2 * g - 1) * (r - 2) + 2
                assert Fraction(profile.min_degree, w.order) == cycle_join_threshold(r, g)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            scan_seed("cycle-join", 2, 1)
        with pytest.raises(InvalidParameterError):
            scan_seed("cycle-join", 0, 3)

    def test_empty_clique_gives_the_odd_cycle(self):
        for g in range(1, 9):
            seed = scan_seed("cycle-join", g, 2)
            assert seed == cycle(2 * g + 1)
            assert Fraction(2, seed.order) == cycle_join_threshold(2, g)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: scan_seed("cycle-join", 2, 3.0),
            lambda: scan_seed("cycle-join", 2.0, 3),
            lambda: scan_seed("cycle-join", True, 3),
            lambda: scan_seed("gallery-join", 8, 3.0),
            lambda: scan_seed("gallery-join", 1.0, 3),
            lambda: scan_seed("gallery-join", True, 3),
            lambda: scan_seed("gallery-join", 2, 3.0),
        ],
    )
    def test_non_integer_parameters_rejected(self, call):
        with pytest.raises(InvalidParameterError):
            call()


class TestGalleryJoinWitness:
    def test_c7bar_ratio(self):
        g = scan_seed("gallery-join", 4, 3)
        assert g == gallery_graph("C7bar")
        profile = degree_profile(g)
        assert Fraction(profile.min_degree, g.order) == Fraction(4, 7)

    def test_h2_at_r4(self):
        g = scan_seed("gallery-join", 8, 4)
        profile = degree_profile(g)
        assert (g.order, profile.min_degree) == (16, 11)
        # closed form: 1 - 1/(r - 3 + 1/(1 - d/m)) at r=4, d/m = 6/11
        assert Fraction(11, 16) == 1 - 1 / (1 + 1 / (1 - Fraction(6, 11)))

    def test_r3_returns_the_weighted_blow_up(self):
        from degstab import gallery_weighting

        for tag in WEIGHTED_TAGS:
            seed = scan_seed("gallery-join", SEQUENCE.index(tag) + 1, 3)
            assert seed == blow_up(gallery_weighting(tag))

    def test_ratio_grid(self):
        expected_index = {"C7bar": 3, "H2plus": 5, "H2": 7, "T0": 9, "H1plusplus": 11}
        for r in (3, 4, 5):
            for tag, index in expected_index.items():
                w = scan_seed("gallery-join", SEQUENCE.index(tag) + 1, r)
                profile = degree_profile(w)
                assert Fraction(profile.min_degree, w.order) == degree_threshold(r, index)

    def test_c7bar_follows_the_weighted_rule(self):
        # The unit weighting of C7bar has 7 - 4 = 3 as its clique weight.
        for r in range(3, 8):
            base = join(complete(r - 3), gallery_graph("C7bar"))
            weights = (3,) * (r - 3) + (1,) * 7
            assert scan_seed("gallery-join", 4, r) == blow_up(Weighting(base, weights))

    def test_validation(self):
        # A gallery join needs r >= 3, and a wheel's cycle-join seed, which
        # would accept r = 2, does not lift that.
        for j in range(1, 13):
            with pytest.raises(InvalidParameterError, match="r must be at least 3"):
                scan_seed("gallery-join", j, 2)


class TestWitnessForIndex:
    def test_full_identity_sweep(self):
        for r in (3, 4, 5):
            for index in range(2, 13):
                seed = scan_seed("gallery-join", index, r)
                profile = degree_profile(seed)
                assert Fraction(profile.min_degree, seed.order) == degree_threshold(
                    r, index - 1
                )

    def test_index_one_degenerates_to_clique(self):
        assert scan_seed("gallery-join", 1, 3) == complete(4)
        with pytest.raises(InvalidParameterError):
            scan_seed("gallery-join", 13, 3)
        # The cycle-join seed of a wheel accepts r = 2; a gallery index does not.
        with pytest.raises(InvalidParameterError):
            scan_seed("gallery-join", 1, 2)


class TestMemos:
    """Scan targets and seeds are built once; what the memo returns is what
    a fresh build returns."""

    MEMOS = (scan_target, scan_seed)

    def test_memos_are_bounded(self):
        for memo in self.MEMOS:
            assert 0 < memo.cache_info().maxsize < 10**4

    def test_scan_targets_equal_fresh_builds(self):
        for r in range(3, 9):
            for kind, last in (("odd-cycle", 8), ("gallery-join", 12), ("cycle-join", 8)):
                for j in range(1, last + 1):
                    target = scan_target(kind, j, r)
                    assert target == scan_target.__wrapped__(kind, j, r)
                    assert scan_target(kind, j, r) is target

    def test_seeds_equal_fresh_builds(self):
        for r in range(3, 9):
            for kind, last in (("odd-cycle", 8), ("gallery-join", 12), ("cycle-join", 8)):
                for j in range(1, last + 1):
                    seed = scan_seed(kind, j, r)
                    assert seed == scan_seed.__wrapped__(kind, j, r)
                    assert scan_seed(kind, j, r) is seed

    def test_invalid_arguments_still_raise(self):
        for _ in range(2):
            with pytest.raises(InvalidParameterError):
                scan_target("wheel-join", 1, 3)
            with pytest.raises(InvalidParameterError):
                scan_seed("cycle-join", 1, 1)
            with pytest.raises(InvalidParameterError):
                scan_seed("gallery-join", 13, 3)


# Triples that name no scan step: a bad kind, index or r, the others valid.
BAD_STEPS = (
    [(kind, 1, 3) for kind in ("wheel-join", "", "Gallery-join")]
    + [
        (kind, index, 3)
        for kind in ("gallery-join", "cycle-join", "odd-cycle")
        for index in (0, True, 2.0)
    ]
    + [("gallery-join", 13, 3)]
    + [(kind, 1, r) for kind in ("gallery-join", "cycle-join", "odd-cycle") for r in (1, True, 3.0)]
    + [("gallery-join", j, 2) for j in range(1, 13)]
)


class TestScanSeed:
    @pytest.mark.parametrize("kind,index,r", BAD_STEPS)
    def test_rejects_what_scan_target_rejects(self, kind, index, r):
        with pytest.raises(InvalidParameterError) as target_error:
            scan_target(kind, index, r)
        with pytest.raises(InvalidParameterError) as seed_error:
            scan_seed(kind, index, r)
        assert str(seed_error.value) == str(target_error.value)

    def test_wheels_take_the_cycle_join_seed(self):
        for r in range(3, 7):
            for j, tag in enumerate(SEQUENCE, start=1):
                if tag == "K4" or tag.startswith("W"):
                    g = (gallery_graph(tag).order - 2) // 2  # rim 2g + 1, plus the hub
                    assert scan_seed("gallery-join", j, r) is scan_seed("cycle-join", g, r)


class TestScaledWeighting:
    def test_scaling_preserves_ratio(self):
        base = blow_up(scaled_gallery_weighting("H2plus", 1))
        tripled = blow_up(scaled_gallery_weighting("H2plus", 3))
        assert tripled.order == 3 * base.order
        assert degree_profile(tripled).min_degree == 3 * degree_profile(base).min_degree

    def test_strict_blow_up_reaches_half(self):
        # a genuine blow-up (every class nonempty) with ratio >= 1/2 < 5/9
        w = scaled_gallery_weighting("H2plus", 2, strict=True)
        assert all(x >= 1 for x in w.weights)
        blown = blow_up(w)
        profile = degree_profile(blown)
        assert blown.order == 20 and profile.min_degree == 10
        assert Fraction(profile.min_degree, blown.order) >= Fraction(1, 2)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            scaled_gallery_weighting("H2plus", 0)


class TestEditLowerBound:
    def test_values(self):
        assert edit_lower_bound(5, 10) == 4
        assert edit_lower_bound(5, 11) == 4
        assert edit_lower_bound(7, 21) == 9

    def test_against_brute_force(self):
        # Every seed of more than r colours, blown up to each order from its
        # own to twice that, at most 16 and within the oracle's budget (13 at
        # r = 4). The seeds of j = 6, 10 and 12 are r-colourable and stay
        # out: at r = 3 the j = 6 seed needs 0 edits against a bound of 1.
        # Their strict seeds, blow-ups of the whole member, will cover them.
        for r in (3, 4):
            seeds = {j: scan_seed("gallery-join", j, r) for j in range(1, 13)}
            seeds.update({("g", g): scan_seed("cycle-join", g, r) for g in range(1, 7)})
            colourable = {j for j, s in seeds.items() if chromatic_number(s) <= r}
            assert colourable == {6, 10, 12}, r
            for key, seed in seeds.items():
                if key in colourable:
                    continue
                for n in range(seed.order, min(2 * seed.order, 16) + 1):
                    if r**n > EDIT_ORACLE_BUDGET:
                        break
                    edits = brute_min_edits_to_k_partite(balanced_blow_up(seed, n), r)
                    assert edits >= edit_lower_bound(seed.order, n), (r, key, n)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            edit_lower_bound(0, 5)
        with pytest.raises(InvalidParameterError):
            edit_lower_bound(5, 4)


class TestCertify:
    def test_triangle_at_fifty(self):
        h = complete(3)
        result = classify(h)
        report = certify(h, result, 50)
        assert report.passed
        assert report.witness.order == 50
        assert degree_profile(report.witness).min_degree == 20  # exactly 2/5
        assert report.seed_order == 5

    def test_petersen_same_family(self):
        h = petersen()
        report = certify(h, classify(h), 50)
        assert report.passed and report.seed_order == 5

    def test_k4_ratio_slack(self):
        h = complete(4)
        result = classify(h)
        report = certify(h, result, 40)
        assert report.passed
        ratio = Fraction(degree_profile(report.witness).min_degree, 40)
        assert ratio >= Fraction(5, 8) - Fraction(8, 40)

    def test_witness_chromatic_matches_base(self):
        h = complete(4)
        report = certify(h, classify(h), 40)
        assert chromatic_number(report.witness) == 4

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(InvalidParameterError):
            certify(complete(4), classify(complete(3)), 40)

    def test_float_certificate_is_a_mismatch(self):
        h = complete(4)
        result = classify(h)
        first = result.certificate[0]
        floats = HomWitness(tuple(float(x) for x in first.witness.mapping))
        certificate = (replace(first, witness=floats),) + result.certificate[1:]
        forged = replace(result, certificate=certificate)
        assert not forged.validate(h)
        with pytest.raises(InvalidParameterError, match="result does not match"):
            certify(h, forged, 60)

    def test_n_too_small_rejected(self):
        h = complete(4)
        result = classify(h)
        with pytest.raises(InvalidParameterError):
            certify(h, result, 7)  # seed has 8 vertices

    def test_hom_free_check_can_fail(self, monkeypatch):
        # A search that claims K4 maps into the 5-wheel base must be reported.
        monkeypatch.setattr(witness, "has_homomorphism", lambda g, t: HomWitness((0,) * g.order))
        h = complete(4)
        report = certify(h, classify(h), 60)
        check = {c.name: c for c in report.checks}["hom-free"]
        assert not check.passed
        assert check.detail == "pattern maps into the witness base; family is not pattern-free"
        assert not report.passed

    def test_degree_ratio_check_can_fail(self, monkeypatch):
        # Blow-ups of C5 have ratio 2/5, below K4's 5/8 less the slack 5/60.
        h = complete(4)
        result = classify(h)
        _, base = witness_base(result)
        monkeypatch.setattr(witness, "witness_base", lambda result: (cycle(5), base))
        report = certify(h, result, 60)
        check = {c.name: c for c in report.checks}["degree-ratio"]
        assert not check.passed
        assert check.detail == "min degree ratio 2/5 vs threshold 5/8 with slack 1/12"
        assert not report.passed


class TestEditBoundCheck:
    def test_passes_on_real_results(self):
        for h in (complete(4), gallery_graph("W9")):
            report = certify(h, classify(h), 60)
            check = {c.name: c for c in report.checks}["edit-bound"]
            assert check.passed
            assert "not 3-colorable" in check.detail

    def test_fails_on_a_colorable_seed(self, monkeypatch):
        # The stored H2plus weighting puts weight 0 on two vertices, and the
        # index-6 seed it blows up to is 3-colorable at r = 3.
        seed = scan_seed("gallery-join", 6, 3)
        assert chromatic_number(seed) == 3
        base = join(complete(0), gallery_graph("H2plus"))
        monkeypatch.setattr(witness, "witness_base", lambda result: (seed, base))
        h = complete(4)
        report = certify(h, classify(h), 60)
        check = {c.name: c for c in report.checks}["edit-bound"]
        assert not check.passed
        assert "is 3-colorable" in check.detail
        assert not report.passed


class TestWitnessBase:
    def test_unknown_branch(self):
        result = DeltaResult(3, "bogus", 2, None, None, None, (), 0)
        with pytest.raises(InvalidParameterError, match="unknown branch"):
            witness_base(result)

    def test_odd_cycle_branch(self):
        result = classify(cycle(5))
        seed, base = witness_base(result)
        assert seed == base == cycle(7)

    def test_gallery_branch(self):
        result = classify(complete(4))
        seed, base = witness_base(result)
        assert base == join(complete(0), gallery_graph("W5"))
        assert seed == scan_seed("cycle-join", 2, 3)

    def test_seed_is_blow_up_of_base(self):
        # every seed maps homomorphically onto its base and back-contains it
        from degstab import has_homomorphism

        for h in (complete(3), complete(4), complete(5), gallery_graph("W5")):
            result = classify(h)
            seed, base = witness_base(result)
            assert has_homomorphism(seed, base) is not None
            assert has_homomorphism(h, base) is None
        # Every seed that witness_base can return, at every scan index.
        for r in (3, 4, 5):
            for kind, last in (("gallery-join", 12), ("cycle-join", 6)):
                for j in range(1, last + 1):
                    seed = scan_seed(kind, j, r)
                    assert has_homomorphism(seed, scan_target(kind, j, r)) is not None

    def test_interval_branch(self, monkeypatch):
        # No known pattern reaches the interval branch; walking the
        # cycle-join steps alone sends K4 there at g = 2.
        only_cycle_joins(monkeypatch)
        h = complete(4)
        result = classify(h)
        assert result.describe() == "5/8..8/15 (0.625..0.533333) [interval branch, g=2]"
        seed, base = witness_base(result)
        assert seed == scan_seed("cycle-join", 2, 3)
        assert base == scan_target("cycle-join", 2, 3)
        report = certify(h, result, 60)
        assert [(c.name, c.passed, c.detail) for c in report.checks] == [
            ("hom-free", True, "no homomorphism into the witness base"),
            ("degree-ratio", True, "min degree ratio 3/5 vs threshold 5/8 with slack 2/15"),
            ("edit-bound", True, "seed is not 3-colorable; counting bound 49 edge deletions"),
        ]
