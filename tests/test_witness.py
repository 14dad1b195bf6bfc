from fractions import Fraction

import pytest

from degstab import (
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
    gallery_join_witness,
    join,
    odd_cycle_witness,
    petersen,
    regular_join_witness,
    scaled_gallery_weighting,
    witness_for_gallery_index,
)
from degstab import witness
from degstab.classify import scan_target
from degstab.errors import InvalidParameterError
from degstab.gallery import gallery_graph
from degstab.verify import EDIT_ORACLE_BUDGET, brute_min_edits_to_k_partite
from degstab.witness import witness_base


class TestOddCycleWitness:
    def test_examples(self):
        g = odd_cycle_witness(2, 10)
        assert degree_profile(g) == (4, 4, True)
        assert degree_profile(odd_cycle_witness(2, 11)).min_degree == 4
        assert degree_profile(odd_cycle_witness(3, 21)) == (6, 6, True)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            odd_cycle_witness(2, 4)
        with pytest.raises(InvalidParameterError):
            odd_cycle_witness(0, 10)


class TestRegularJoinWitness:
    def test_small_cases(self):
        g = regular_join_witness(3, 2)
        assert (g.order,) + tuple(degree_profile(g)) == (8, 5, 5, True)
        assert regular_join_witness(4, 1) == complete(5)
        g = regular_join_witness(3, 3)
        assert (g.order,) + tuple(degree_profile(g)) == (12, 7, 7, True)

    def test_threshold_identity_grid(self):
        for r in (3, 4, 5):
            for g in range(1, 6):
                w = regular_join_witness(r, g)
                profile = degree_profile(w)
                assert profile.regular
                assert w.order == (2 * g - 1) * (r - 1) + 2
                assert profile.min_degree == (2 * g - 1) * (r - 2) + 2
                assert Fraction(profile.min_degree, w.order) == cycle_join_threshold(r, g)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            regular_join_witness(2, 2)
        with pytest.raises(InvalidParameterError):
            regular_join_witness(3, 0)


class TestGalleryJoinWitness:
    def test_c7bar_ratio(self):
        g = gallery_join_witness(3, "C7bar")
        assert g == gallery_graph("C7bar")
        profile = degree_profile(g)
        assert Fraction(profile.min_degree, g.order) == Fraction(4, 7)

    def test_h2_at_r4(self):
        g = gallery_join_witness(4, "H2")
        profile = degree_profile(g)
        assert (g.order, profile.min_degree) == (16, 11)
        # closed form: 1 - 1/(r - 3 + 1/(1 - d/m)) at r=4, d/m = 6/11
        assert Fraction(11, 16) == 1 - 1 / (1 + 1 / (1 - Fraction(6, 11)))

    def test_r3_returns_the_weighted_blow_up(self):
        from degstab import gallery_weighting

        # Any name canonical_tag accepts, as in gallery_weighting.
        for name in ("H2plus", "H2", "T0", "H1plusplus", "h2plus", "F6", " H2 "):
            assert gallery_join_witness(3, name) == blow_up(gallery_weighting(name))

    def test_ratio_grid(self):
        expected_index = {"C7bar": 3, "H2plus": 5, "H2": 7, "T0": 9, "H1plusplus": 11}
        for r in (3, 4, 5):
            for tag, index in expected_index.items():
                w = gallery_join_witness(r, tag)
                profile = degree_profile(w)
                assert Fraction(profile.min_degree, w.order) == degree_threshold(r, index)

    def test_c7bar_follows_the_weighted_rule(self):
        # The unit weighting of C7bar has 7 - 4 = 3 as its clique weight.
        for r in range(3, 8):
            base = join(complete(r - 3), gallery_graph("C7bar"))
            weights = (3,) * (r - 3) + (1,) * 7
            assert gallery_join_witness(r, "C7bar") == blow_up(Weighting(base, weights))

    def test_validation(self):
        for name in ("W5", "w15", "K4", "F1", "Petersen"):
            with pytest.raises(InvalidParameterError, match="no join witness"):
                gallery_join_witness(3, name)
        with pytest.raises(InvalidParameterError):
            gallery_join_witness(2, "H2")


class TestWitnessForIndex:
    def test_full_identity_sweep(self):
        for r in (3, 4, 5):
            for index in range(2, 13):
                seed = witness_for_gallery_index(r, index)
                profile = degree_profile(seed)
                assert Fraction(profile.min_degree, seed.order) == degree_threshold(
                    r, index - 1
                )

    def test_index_one_degenerates_to_clique(self):
        assert witness_for_gallery_index(3, 1) == complete(4)
        with pytest.raises(InvalidParameterError):
            witness_for_gallery_index(3, 13)


class TestMemos:
    """Scan targets and seeds are built once; what the memo returns is what
    a fresh build returns."""

    MEMOS = (scan_target, regular_join_witness, witness_for_gallery_index)

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
            for g in range(1, 9):
                seed = regular_join_witness(r, g)
                assert seed == regular_join_witness.__wrapped__(r, g)
                assert regular_join_witness(r, g) is seed
            for j in range(1, 13):
                seed = witness_for_gallery_index(r, j)
                assert seed == witness_for_gallery_index.__wrapped__(r, j)
                assert witness_for_gallery_index(r, j) is seed

    def test_invalid_arguments_still_raise(self):
        for _ in range(2):
            with pytest.raises(InvalidParameterError):
                scan_target("wheel-join", 1, 3)
            with pytest.raises(InvalidParameterError):
                regular_join_witness(2, 1)
            with pytest.raises(InvalidParameterError):
                witness_for_gallery_index(3, 13)


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
            seeds = {j: witness_for_gallery_index(r, j) for j in range(1, 13)}
            seeds.update({("g", g): regular_join_witness(r, g) for g in range(1, 7)})
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
        seed = witness_for_gallery_index(3, 6)
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
    def test_odd_cycle_branch(self):
        result = classify(cycle(5))
        seed, base = witness_base(result)
        assert seed == base == cycle(7)

    def test_gallery_branch(self):
        result = classify(complete(4))
        seed, base = witness_base(result)
        assert base == join(complete(0), gallery_graph("W5"))
        assert seed == regular_join_witness(3, 2)

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
            for j in range(1, 13):
                seed = witness_for_gallery_index(r, j)
                assert has_homomorphism(seed, scan_target("gallery-join", j, r)) is not None
            for g in range(1, 7):
                seed = regular_join_witness(r, g)
                assert has_homomorphism(seed, scan_target("cycle-join", g, r)) is not None
