import gc
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from degstab import (
    DeltaResult,
    HomWitness,
    Weighting,
    blow_up,
    brute_force_homomorphism_exists,
    certify,
    classify,
    complete,
    cycle,
    cycle_join_threshold,
    degree_threshold,
    empty_graph,
    homomorphism_search,
    interval_upper,
    join,
    odd_girth,
    petersen,
    threshold_constant,
)
from degstab.errors import (
    InvalidParameterError,
    ParseError,
    UndefinedThresholdError,
)
from degstab.classify import CertificateEntry, _steps, scan_target
from degstab.gallery import gallery_graph
from tests import oracles

EXPECTED_CONSTANTS = {
    1: Fraction(2, 3),
    2: Fraction(2, 5),
    3: Fraction(1, 3),
    4: Fraction(2, 7),
    5: Fraction(1, 4),
    6: Fraction(2, 9),
    7: Fraction(1, 5),
    8: Fraction(2, 11),
    9: Fraction(1, 6),
    10: Fraction(2, 13),
    11: Fraction(1, 7),
}


class TestConstants:
    def test_table(self):
        for index, value in EXPECTED_CONSTANTS.items():
            assert threshold_constant(index) == value

    def test_table_bounds(self):
        with pytest.raises(InvalidParameterError):
            threshold_constant(0)
        with pytest.raises(InvalidParameterError):
            threshold_constant(12)

    def test_degree_threshold_values(self):
        assert degree_threshold(3, 1) == Fraction(5, 8)
        assert degree_threshold(4, 1) == Fraction(8, 11)  # 1 - 1/(3 + 2/3)
        assert degree_threshold(3, 5) == Fraction(5, 9)  # 1 - 1/(2 + 1/4)
        with pytest.raises(InvalidParameterError):
            degree_threshold(2, 1)

    def test_cycle_join_threshold(self):
        assert cycle_join_threshold(3, 2) == Fraction(5, 8)
        assert cycle_join_threshold(3, 1) == Fraction(3, 4)  # 1 - 1/(2 + 2)
        with pytest.raises(InvalidParameterError):
            cycle_join_threshold(3, 0)
        with pytest.raises(InvalidParameterError):
            cycle_join_threshold(1, 1)

    def test_odd_cycle_threshold_is_the_cycle_join_ratio_at_r_2(self):
        for g in range(1, 9):
            assert cycle_join_threshold(2, g) == Fraction(2, 2 * g + 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: threshold_constant(1.0),
            lambda: threshold_constant(True),
            lambda: degree_threshold(3.0, 1),
            lambda: degree_threshold(3, 1.0),
            lambda: degree_threshold(3, True),
            lambda: cycle_join_threshold(3.0, 2),
            lambda: cycle_join_threshold(3, 2.0),
            lambda: cycle_join_threshold(3, True),
        ],
    )
    def test_non_integer_parameters_rejected(self, call):
        # A float would leave Fraction arithmetic, and a bool stands for 0 or 1.
        with pytest.raises(InvalidParameterError):
            call()

    def test_interval_shape(self):
        # An all-pass gallery certificate includes every wheel member, and a
        # clique joined to a wheel is a clique joined to an odd cycle, so an
        # interval result's failing cycle-join index is always at least 8.
        # From there the bounds are ordered and sit above 1 - 1/(r-1).
        for r in range(3, 7):
            for g in range(1, 13):
                assert cycle_join_threshold(r, g) > 1 - Fraction(1, r - 1)
            for g in range(8, 13):
                assert cycle_join_threshold(r, g) < interval_upper(r)


def only_cycle_joins(monkeypatch):
    """Patch classify to walk the cycle-join steps alone, the steps an
    interval result reaches after passing all twelve gallery joins."""
    module = sys.modules["degstab.classify"]
    steps = module._steps
    monkeypatch.setattr(
        module, "_steps", lambda h, r: [s for s in steps(h, r) if s[0] == "cycle-join"]
    )


class TestScans:
    def test_odd_cycle_scan(self):
        k3 = classify(complete(3))
        assert (k3.branch, k3.index) == ("odd-cycle", 2)
        assert classify(petersen()).index == 2
        # derived: C5 winds onto C5 but full enumeration rules out C7
        assert oracles.hom_exists(cycle(5), cycle(7)) is False
        assert classify(cycle(5)).index == 3
        assert classify(cycle(9)).index == 5

    def test_gallery_scan(self):
        k4 = classify(complete(4))
        assert (k4.branch, k4.index) == ("gallery", 2)
        assert classify(complete(5)).index == 2
        # derived: full enumeration of all 8^6 maps rules out W5 -> W7
        assert oracles.hom_exists(gallery_graph("W5"), gallery_graph("W7")) is False
        assert classify(gallery_graph("W5")).index == 3

    def test_cycle_join_scan(self, monkeypatch):
        # derived by enumeration: K4 maps to the 4-clique but not the 5-wheel
        assert oracles.hom_exists(complete(4), join(complete(1), cycle(3))) is True
        assert oracles.hom_exists(complete(4), join(complete(1), cycle(5))) is False
        only_cycle_joins(monkeypatch)
        assert classify(complete(4)).index == 2
        assert classify(join(complete(1), petersen())).index == 2
        assert classify(complete(5)).index == 2

    def test_interval_branch(self, monkeypatch):
        # No known pattern passes all twelve gallery joins, so the branch
        # is reached by walking the cycle-join steps alone.
        only_cycle_joins(monkeypatch)
        h = complete(4)
        result = classify(h)
        assert (result.r, result.branch, result.index) == (3, "interval", 2)
        assert result.value is None
        assert result.lower == cycle_join_threshold(3, 2)
        assert result.upper == interval_upper(3)
        assert [(e.kind, e.index) for e in result.certificate] == [("cycle-join", 1)]
        assert result.validate(h)

    def test_scan_certificates_validate(self):
        h = gallery_graph("W9")
        result = classify(h)
        assert result.index == 4
        assert [e.index for e in result.certificate] == [1, 2, 3]
        for entry in result.certificate:
            assert entry.witness.is_valid(h, entry.target(3))


class TestClassify:
    def test_clique_row(self):
        k3 = classify(complete(3))
        assert (k3.r, k3.value) == (2, Fraction(2, 5))
        for r in range(3, 13):
            result = classify(complete(r + 1))
            assert (result.r, result.index) == (r, 2)
            assert result.value == Fraction(3 * r - 4, 3 * r - 1)
            # The failing step, K_{r+1} -> K_{r-3} v W5, is refuted by the
            # clique bound without a search.
            target = scan_target("gallery-join", 2, r)
            assert homomorphism_search(complete(r + 1), target) == (None, 0)

    def test_petersen(self):
        result = classify(petersen())
        assert result.branch == "odd-cycle"
        assert result.index == 2
        assert result.value == Fraction(2, 5)

    def test_odd_cycles(self):
        assert classify(cycle(5)).value == Fraction(2, 7)
        assert classify(cycle(9)).value == Fraction(2, 11)

    def test_wheel(self):
        result = classify(gallery_graph("W5"))
        assert (result.branch, result.index) == ("gallery", 3)
        assert result.value == Fraction(7, 12)

    def test_w9_hits_the_locally_bipartite_member(self):
        result = classify(gallery_graph("W9"))
        assert (result.branch, result.index) == ("gallery", 4)
        assert result.value == Fraction(4, 7)

    def test_two_layer_mycielskian_of_c7(self):
        # Its failing step, M_2(C_7) -> C7bar, is a deep refutation into a
        # symmetric target: 397,490 nodes without probing.
        h = oracles.mycielskian(cycle(7), 2)
        result = classify(h)
        assert (result.r, result.branch, result.index, result.value) == (
            3,
            "gallery",
            4,
            Fraction(4, 7),
        )
        assert result.validate(h)

    def test_hub_plus_petersen(self):
        result = classify(join(complete(1), petersen()))
        assert (result.branch, result.index) == ("gallery", 2)
        assert result.value == Fraction(5, 8)

    def test_clique_join_cycle(self):
        # The 5-chromatic join of an edge with a 5-cycle: index 2 is the
        # same graph relabelled so it passes; enumeration of all 9^7 maps
        # confirms index 3 fails.
        h = join(complete(2), cycle(5))
        assert brute_force_homomorphism_exists(
            h, join(complete(1), gallery_graph("W5"))
        )
        assert not brute_force_homomorphism_exists(
            h, join(complete(1), gallery_graph("W7"))
        )
        result = classify(h)
        assert (result.branch, result.index) == ("gallery", 3)
        assert result.value == Fraction(12, 17)

    def test_undefined_for_low_chromatic(self):
        for g in (empty_graph(0), empty_graph(3), cycle(4), complete(2)):
            with pytest.raises(UndefinedThresholdError):
                classify(g)

    def test_scale_invariance(self):
        for h in (complete(3), complete(4), cycle(5), gallery_graph("W5"), petersen()):
            doubled = blow_up(Weighting(h, (2,) * h.order))
            a = classify(h)
            b = classify(doubled)
            assert (a.r, a.branch, a.index, a.value) == (b.r, b.branch, b.index, b.value)

    def test_odd_cycle_invariants(self):
        for h in (complete(3), cycle(5), cycle(9), petersen()):
            result = classify(h)
            g = result.index
            assert odd_girth(h) >= 2 * g - 1
            if g >= 2:
                tail = result.certificate[-1]
                assert tail.index == g - 1
                assert tail.witness.is_valid(h, cycle(2 * g - 1))

    def test_gallery_failures_reverified_by_enumeration(self):
        from degstab.gallery import SEQUENCE

        # failing target small enough for the full map count in each case
        cases = [
            (complete(4), 3),
            (complete(5), 4),
            (gallery_graph("W5"), 3),
        ]
        for h, r in cases:
            result = classify(h)
            failing = join(complete(r - 3), gallery_graph(SEQUENCE[result.index - 1]))
            assert failing.order ** h.order <= 10**7
            assert not brute_force_homomorphism_exists(h, failing)

    def test_result_validates(self):
        for h in (complete(4), petersen(), gallery_graph("W9")):
            result = classify(h)
            assert result.validate(h)
            assert not result.validate(complete(6))


class TestResultSerialization:
    def test_round_trip(self):
        for h in (complete(3), complete(4), gallery_graph("W9")):
            result = classify(h)
            again = DeltaResult.loads(result.dumps())
            assert again == result
            assert again.validate(h)

    def test_tampered_witness_fails_validation(self):
        h = gallery_graph("W9")
        result = classify(h)
        data = result.to_json()
        data["certificate"][0]["mapping"] = [0] * h.order
        tampered = DeltaResult.from_json(data)
        assert not tampered.validate(h)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            DeltaResult.loads("{nope")
        with pytest.raises(ParseError):
            DeltaResult.loads('{"branch": "gallery"}')
        with pytest.raises(ParseError, match="nested too deeply"):
            DeltaResult.loads("[" * 200000)

    @pytest.mark.parametrize(
        "path, bad",
        [
            (("r",), "3"),
            (("r",), True),
            (("index",), 3.0),
            (("nodes_expanded",), None),
            (("certificate", 0, "index"), "1"),
            (("certificate", 1, "mapping", 2), 1.0),
            (("certificate", 0, "mapping", 0), False),
            (("value", "num"), "4"),
            (("value", "den"), 0),
        ],
    )
    def test_non_integer_fields_are_rejected(self, path, bad):
        h = gallery_graph("W5")
        text = classify(h).dumps()
        assert DeltaResult.loads(text).validate(h)
        data = json.loads(text)
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        node[last] = bad
        with pytest.raises(ParseError):
            DeltaResult.from_json(data)
        with pytest.raises(ParseError):
            DeltaResult.loads(json.dumps(data))


class TestCertificateCompleteness:
    """A certificate must cover exactly the scan steps that pass before the
    failure, in scan order; dropping or reordering entries is rejected."""

    def test_empty_certificate_rejected(self):
        h = gallery_graph("W9")
        result = classify(h)
        assert len(result.certificate) == 3
        assert not replace(result, certificate=()).validate(h)

    def test_reversed_certificate_rejected(self):
        h = gallery_graph("W9")
        result = classify(h)
        reordered = replace(result, certificate=result.certificate[::-1])
        assert not reordered.validate(h)

    def test_unearned_index_rejected(self):
        # K4 fails at index 2 (value 5/8); claiming a failure at index 6
        # with no witnesses for indices 1..5 must not validate or certify.
        h = complete(4)
        fake = DeltaResult(
            r=3,
            branch="gallery",
            index=6,
            value=degree_threshold(3, 5),
            lower=None,
            upper=None,
            certificate=(),
            nodes_expanded=0,
        )
        assert not fake.validate(h)
        with pytest.raises(InvalidParameterError):
            certify(h, fake, 60)

    def test_interval_steps_are_all_gallery_joins_then_cycle_joins(self):
        # K4 has 4 vertices, so its cycle-join steps stop at g = 2.
        assert _steps(complete(4), 3) == [("gallery-join", j) for j in range(1, 13)] + [
            ("cycle-join", 1),
            ("cycle-join", 2),
        ]
        # C5 has 5 vertices, so its odd-cycle steps stop at g = 3.
        assert _steps(cycle(5), 2) == [("odd-cycle", 1), ("odd-cycle", 2), ("odd-cycle", 3)]

    def test_odd_cycle_steps_are_bounded_by_the_order(self):
        # Petersen has 10 vertices, so its odd-cycle steps run to g = 5,
        # past its odd girth; it fails at g = 2, and a failure claimed
        # later needs a witness into the 5-cycle, which does not exist.
        h = petersen()
        assert _steps(h, 2) == [("odd-cycle", g) for g in range(1, 6)]
        result = classify(h)
        assert (result.branch, result.index) == ("odd-cycle", 2)
        assert result.validate(h)
        (first,) = result.certificate
        for g in (4, 5):
            claim = replace(result, index=g, value=Fraction(2, 2 * g + 1))
            assert not claim.validate(h)
            # Listing every earlier step does not help: the 3-colouring is
            # no homomorphism into the 5-cycle.
            steps = tuple(replace(first, index=i) for i in range(1, g))
            assert not replace(claim, certificate=steps).validate(h)

    def test_index_past_the_scan_bound_rejected(self):
        # C5's odd-cycle scan must fail by g = 3 (it has 5 vertices).
        h = cycle(5)
        result = classify(h)
        for g in (0, 4, 10**6):
            claim = replace(result, index=g, value=Fraction(2, 2 * g + 1))
            assert not claim.validate(h)


    def test_odd_cycle_failure_at_r_3_rejected(self):
        # K4's certificate with an odd-cycle failure claimed at r = 3: no
        # odd-cycle step is among K4's scan steps at r = 3.
        # The forged value is the r = 3 ratio, so only the step check rejects it.
        h = complete(4)
        value = cycle_join_threshold(3, 1)
        forged = replace(classify(h), branch="odd-cycle", index=1, value=value)
        assert not forged.validate(h)

    def test_failure_at_the_first_step_rejected(self):
        # The first scan target is K_{r+1}, into which every (r+1)-chromatic
        # pattern maps, so no true result fails there. C5 fails at g = 3.
        forged = DeltaResult(2, "odd-cycle", 1, Fraction(2, 3), None, None, (), 0)
        assert not forged.validate(cycle(5))

    def test_r_one_too_large_rejected(self):
        # K4 is 4-colourable, so a result at r = 4 is false, though its one
        # witness maps K4 into the first target at r = 4, K1 joined to K4.
        entry = CertificateEntry("gallery-join", 1, HomWitness((0, 1, 2, 3)))
        forged = DeltaResult(4, "gallery", 2, degree_threshold(4, 1), None, None, (entry,), 0)
        assert not forged.validate(complete(4))

    def test_wrong_threshold_rejected(self):
        h = complete(4)
        result = classify(h)
        assert not replace(result, value=Fraction(2, 3)).validate(h)
        assert not replace(result, value=None, lower=result.value, upper=result.value).validate(h)

    def test_unknown_branch_and_gallery_at_r_2_rejected(self):
        h = complete(4)
        assert not replace(classify(h), branch="clique").validate(h)
        # The gallery branch needs r >= 3, so its threshold at r = 2 raises.
        k3 = complete(3)
        assert not replace(classify(k3), branch="gallery").validate(k3)

    def test_short_and_out_of_range_witnesses_rejected(self):
        # W9's first witness maps into K4 at r = 3.
        h = gallery_graph("W9")
        data = json.loads(classify(h).dumps())
        first = data["certificate"][0]["mapping"]
        for bad in (first[:-1], first + [0], [4] + first[1:], [-1] + first[1:]):
            data["certificate"][0]["mapping"] = bad
            assert not DeltaResult.loads(json.dumps(data)).validate(h), bad


class TestChromaticNumberOnce:
    def test_classify_computes_chi_once(self, monkeypatch):
        module = sys.modules["degstab.classify"]
        original = module.chromatic_number
        calls = []

        def counting(g):
            calls.append(g)
            return original(g)

        for h in (complete(3), complete(4), petersen(), gallery_graph("W9")):
            monkeypatch.setattr(module, "chromatic_number", counting)
            calls.clear()
            classify(h)
            monkeypatch.undo()
            assert calls == [h]


class TestRepeatedClassify:
    def test_heap_stays_flat(self):
        # tuple() of a generator allocates ten slots and shrinks to fit;
        # freed, it parks on CPython's free list for its real length, which
        # nothing drains at that rate, so each length can hold up to 2000
        # idle tuples until a full collection. Hot paths build their tuples
        # from lists, so repeating a job must not grow the heap.
        h = gallery_graph("W5")
        for _ in range(3):
            classify(h).dumps()
        gc.collect()
        start = sys.getallocatedblocks()
        for _ in range(300):
            classify(h).dumps()
        assert sys.getallocatedblocks() - start < 600


class TestIntervalBranchSearch:
    """No natural input reaching the interval branch is known; the branch
    is exercised through a patched step list (``TestScans``) and a bounded
    search documents the absence.
    """

    def test_candidates_all_classify_exactly(self):
        from degstab import chromatic_number

        candidates = [
            gallery_graph("W15"),
            join(complete(1), cycle(13)),  # a wide wheel
            join(complete(2), cycle(9)),
            gallery_graph("T0"),
            gallery_graph("H1plusplus"),
        ]
        rng = random.Random(40)
        while len(candidates) < 25:
            g = oracles.random_graph(rng, 10, 0.45)
            if chromatic_number(g) >= 4:
                candidates.append(g)
        branches = set()
        for h in candidates:
            result = classify(h)
            branches.add(result.branch)
            assert result.validate(h)
            if result.branch == "interval":
                assert result.index >= 8
                assert result.lower < result.upper
        assert branches <= {"gallery", "interval"}
