"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Every criterion asserts exact values (rationals compared with no
tolerance) and its own wall-clock budget.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from degstab import (
    CorpusSpec,
    Weighting,
    balanced_blow_up,
    blow_up,
    brute_force_homomorphism_exists,
    brute_min_edits_to_k_partite,
    certify,
    check_haggkvist,
    check_hom_odd_girth,
    chromatic_number,
    classify,
    complete,
    cycle,
    cycle_join_threshold,
    degree_profile,
    edit_lower_bound,
    gallery_weighting,
    has_homomorphism,
    join,
    petersen,
    threshold_constant,
)
from degstab import backend
from degstab.gallery import SEQUENCE, gallery_graph
from degstab.witness import scan_seed


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:02d}] {status} {elapsed:8.2f}s  {name}")
    assert elapsed < budget_seconds, f"criterion {number} over budget: {elapsed:.1f}s"


def test_criterion_01_clique_thresholds():
    expected = {
        2: Fraction(2, 5),
        3: Fraction(5, 8),
        4: Fraction(8, 11),
        5: Fraction(11, 14),
    }
    with criterion(1, "clique thresholds 2/5, 5/8, 8/11, 11/14", 4.0):
        for r, value in expected.items():
            start = time.perf_counter()
            result = classify(complete(r + 1))
            assert result.value == value, (r, result)
            assert time.perf_counter() - start < 1.0


def test_criterion_02_petersen():
    with criterion(2, "petersen classifies to 2/5 with no map into the 5-cycle", 5.0):
        result = classify(petersen())
        assert result.branch == "odd-cycle"
        assert result.index == 2
        assert result.value == Fraction(2, 5)
        assert has_homomorphism(petersen(), cycle(5)) is None


def test_criterion_03_constant_table():
    expected = [
        Fraction(2, 3),
        Fraction(2, 5),
        Fraction(1, 3),
        Fraction(2, 7),
        Fraction(1, 4),
        Fraction(2, 9),
        Fraction(1, 5),
        Fraction(2, 11),
        Fraction(1, 6),
        Fraction(2, 13),
        Fraction(1, 7),
    ]
    with criterion(3, "constant table matches all eleven entries", 1.0):
        for index, value in enumerate(expected, start=1):
            assert threshold_constant(index) == value


def test_criterion_04_weighting_ratios():
    expected = {
        "H2plus": (5, 9),
        "H2": (6, 11),
        "T0": (7, 13),
        "H1plusplus": (8, 15),
    }
    with criterion(4, "stored weightings blow up to 5/9, 6/11, 7/13, 8/15", 2.0):
        for tag, (min_degree, order) in expected.items():
            blown = blow_up(gallery_weighting(tag))
            profile = degree_profile(blown)
            assert (profile.min_degree, blown.order) == (min_degree, order), tag


def test_criterion_05_gallery_chromatic_numbers():
    with criterion(5, "gallery members 4-chromatic, hub joins 5-chromatic", 30.0):
        for tag in SEQUENCE:
            g = gallery_graph(tag)
            assert chromatic_number(g) == 4, tag
            assert chromatic_number(join(complete(1), g)) == 5, tag


def test_criterion_06_regular_witness_identity():
    with criterion(6, "regular witnesses meet their threshold ratio exactly", 2.0):
        for r in (3, 4, 5):
            for g in range(1, 6):
                w = scan_seed("cycle-join", g, r)
                profile = degree_profile(w)
                assert profile.regular, (r, g)
                assert profile.min_degree == cycle_join_threshold(r, g) * w.order, (r, g)


def test_criterion_07_edit_oracle_vs_counting_bound():
    with criterion(7, "edit oracle meets the counting bound on cycle blow-ups", 10.0):
        doubled = blow_up(Weighting(cycle(5), (2, 2, 2, 2, 2)))
        assert brute_min_edits_to_k_partite(doubled, 2) == 4 == edit_lower_bound(5, 10)
        for g in range(1, 6):
            length = 2 * g + 1
            for n in range(length, 13):
                blown = balanced_blow_up(cycle(length), n)
                assert brute_min_edits_to_k_partite(blown, 2) >= edit_lower_bound(
                    length, n
                ), (g, n)


def test_criterion_08_lemma_suites():
    with criterion(8, "verification suites clean on exhaustive(6) and random(2000,9,0.5,7)", 600.0):
        corpora = [CorpusSpec.exhaustive(6), CorpusSpec.random(2000, 9, 0.5, 7)]
        for corpus in corpora:
            report = check_hom_odd_girth(corpus, 3)
            assert report.passed, report.violations[:3]
            for g in (2, 3):
                report = check_haggkvist(corpus, g)
                assert report.passed, report.violations[:3]


def test_criterion_09_solver_matches_enumeration(monkeypatch):
    # A search that reaches no kernel was refuted by the clique bound; the
    # equality with enumeration below then checks that refutation.
    searched = []
    pick = backend._kernels
    monkeypatch.setattr(
        backend, "_kernels", lambda *graphs: searched.append(graphs) or pick(*graphs)
    )
    with criterion(9, "solver equals map enumeration on <=5 x <=4 vertices", 600.0):
        patterns = list(CorpusSpec.exhaustive(5).graphs())
        targets = list(CorpusSpec.exhaustive(4).graphs())
        refuted = 0
        for p in patterns:
            for t in targets:
                before = len(searched)
                witness = has_homomorphism(p, t)
                exists = brute_force_homomorphism_exists(p, t)
                assert (witness is not None) == exists, (p, t)
                if witness is not None:
                    assert witness.is_valid(p, t)
                refuted += len(searched) == before
        assert refuted > 0


def test_criterion_10_certification_loop():
    cases = [
        ("K3", complete(3)),
        ("K4", complete(4)),
        ("Petersen", petersen()),
        ("C5", cycle(5)),
        ("W5", gallery_graph("W5")),
    ]
    with criterion(10, "certification loop passes for K3, K4, Petersen, C5, W5", 60.0):
        for name, h in cases:
            result = classify(h)
            report = certify(h, result, 60)
            assert report.passed, (name, report.checks)
