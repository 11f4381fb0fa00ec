import itertools
from fractions import Fraction
from math import factorial

import pytest

import majpat.asymptotics
from majpat.asymptotics import (
    _smallest_d,
    DegreePrediction,
    PredictionKind,
    Verdict,
    bounded_degree_criterion,
    degree_for_magnitude,
    degree_report,
    detect_degree,
    largest_triangular_index,
    limit_probability,
    magnitude_two_core,
    max_length_core,
    predicted_degree,
)
from majpat.enumeration import PatternSet, major_count_series
from majpat.errors import InvalidInputError, VerificationError
from majpat.perms import contains, descents, magnitude, maj_plus
from majpat.poly import Polynomial


class TestDegreeFormula:
    def test_examples(self):
        assert degree_for_magnitude(15, 3) == 6
        assert degree_for_magnitude(5, 2) == 2
        for k in (3, 4, 5):
            for m in range(1, k):
                assert degree_for_magnitude(m, k) == m

    def test_agrees_with_triangular_form_for_k2(self):
        for m in range(1, 10001):
            assert degree_for_magnitude(m, 2) == largest_triangular_index(m)

    def test_closed_forms_meet_their_definitions(self):
        # l is the largest with l(l + 1)/2 <= m, and d the least d >= 1 with
        # d(d + 1)(k - 1) >= 2m: on every m < 5000 and around 10^18, where
        # the boundaries m = l(l + 1)/2 and 2m = d(d + 1)(k - 1) are hit exactly.
        big = [t + e for t in (10 ** 18, (10 ** 9) * (10 ** 9 + 1) // 2,
                               (10 ** 9 - 7) * (10 ** 9 - 6)) for e in (-1, 0, 1)]
        for m in [*range(5000), *big]:
            l = largest_triangular_index(m)
            assert l * (l + 1) // 2 <= m < (l + 1) * (l + 2) // 2, m
            for k in range(2, 12):
                if m:
                    d = _smallest_d(m, k)
                    assert d * (d + 1) * (k - 1) >= 2 * m, (m, k)
                    assert d == 1 or (d - 1) * d * (k - 1) < 2 * m, (m, k)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            degree_for_magnitude(0, 3)
        with pytest.raises(InvalidInputError):
            degree_for_magnitude(3, 1)


class TestWitnessCores:
    def test_co_layered_witness(self):
        w = max_length_core(15, 3)
        assert w == (6, 4, 5, 2, 3, 1)
        assert descents(w) == (1, 3, 5)

    def test_validity_sweep(self):
        for k in (3, 4, 5):
            increasing = tuple(range(1, k + 1))
            for m in range(1, 31):
                w = max_length_core(m, k)
                assert maj_plus(w) == m
                assert not contains(w, increasing)
                assert len(w) == degree_for_magnitude(m, k)

    def test_degenerate_short_m(self):
        # Below the magnitude the construction is the identity of length m.
        assert max_length_core(2, 4) == (1, 2)

    def test_magnitude_two_cores(self):
        assert magnitude_two_core(13, 1) == (5, 1, 4, 3, 2)
        for i in (1, 2, 3):
            assert magnitude_two_core(15, i) == (5, 4, 3, 2, 1)
            for m in range(1, 31):
                assert maj_plus(magnitude_two_core(m, i)) == m

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            max_length_core(3, 2)
        with pytest.raises(InvalidInputError):
            magnitude_two_core(3, 4)
        with pytest.raises(InvalidInputError):
            magnitude_two_core(0, 1)

    def test_a_failed_self_check_is_a_verification_error(self, monkeypatch):
        # A core that fails its own check is the construction's fault, not
        # bad input.
        monkeypatch.setattr(majpat.asymptotics, "co_layered",
                            lambda positions, length: tuple(range(1, length + 1)))
        with pytest.raises(VerificationError, match="core construction failed"):
            max_length_core(6, 3)
        monkeypatch.setattr(majpat.asymptotics, "insert", lambda pi, k, l: pi)
        with pytest.raises(VerificationError, match="core construction failed"):
            magnitude_two_core(13, 1)


class TestBoundedDegreeCriterion:
    def test_examples(self):
        assert bounded_degree_criterion(PatternSet.of("2314", "321")) == 1
        assert bounded_degree_criterion(PatternSet.of("1324")) is None
        assert bounded_degree_criterion(PatternSet.of("21")) == 0
        assert bounded_degree_criterion(PatternSet.of("123")) == 0
        assert bounded_degree_criterion(PatternSet.of("3412")) is None


class TestPredictedDegree:
    def test_exact_cases(self):
        assert predicted_degree(3, PatternSet.of("1324")) == DegreePrediction(
            PredictionKind.EXACT, 2, 2)
        assert predicted_degree(7, PatternSet()).degree == 7
        assert predicted_degree(0, PatternSet.of("1324")).degree == 0
        p = predicted_degree(4, PatternSet.of("1243"))
        assert p.kind is PredictionKind.EXACT and p.degree == degree_for_magnitude(4, 3)

    def test_zero_and_constant_cases(self):
        assert predicted_degree(4, PatternSet.of("123")).kind is PredictionKind.ZERO_SEQUENCE
        p = predicted_degree(4, PatternSet.of("4123"))
        assert p.kind is PredictionKind.EXACT and p.degree == 0

    def test_upper_bound_cases(self):
        # 3412 and 1324 disagree on every profile coordinate, so only the
        # magnitude bound remains.
        p = predicted_degree(5, PatternSet.of("3412", "1324"))
        assert p.kind is PredictionKind.UPPER_BOUND and p.degree == 2
        # Mixed finite and infinite magnitude, clamped by the core criterion.
        p = predicted_degree(6, PatternSet.of("2314", "321"))
        assert p.kind is PredictionKind.UPPER_BOUND and p.degree == 1

    def test_singleton_degree_inequality(self):
        # Finite nonzero magnitude k: degree m below k, strictly less after.
        patterns = [
            p for j in (3, 4) for p in itertools.permutations(range(1, j + 1))
            if magnitude(p).is_finite and magnitude(p).value >= 1
        ]
        for sigma in patterns:
            k = magnitude(sigma).value
            for m in range(1, 13):
                pred = predicted_degree(m, PatternSet((sigma,)))
                assert pred.kind is PredictionKind.EXACT
                if m < k:
                    assert pred.degree == m
                else:
                    assert pred.degree < m


class TestDetectDegree:
    def test_linear_columns(self):
        d = detect_degree([0, 1, 2, 3, 4, 5, 6])
        assert (d.degree, d.onset) == (1, 1)
        assert d.polynomial == Polynomial.of(-1, 1)
        d = detect_degree([0, 0, 2, 4, 6, 8, 10])
        assert d.degree == 1 and d.polynomial == Polynomial.of(-4, 2) and d.onset == 2

    def test_constant_and_zero(self):
        d = detect_degree([1, 1, 1, 1, 1])
        assert d.degree == 0 and d.polynomial == Polynomial.of(1)
        d = detect_degree([5, 2, 0, 0, 0, 0])
        assert d.degree == 0 and d.polynomial.is_zero and d.onset == 3

    def test_inconclusive_is_flagged(self):
        d = detect_degree([1, 2, 6, 24, 120, 720], window=3)
        assert d.inconclusive and d.degree is None

    def test_short_series_rejected(self):
        with pytest.raises(InvalidInputError):
            detect_degree([1, 2, 3], window=3)
        with pytest.raises(InvalidInputError):
            detect_degree([1, 2, 3, 4], window=0)


class TestLimitProbability:
    def test_examples(self):
        assert limit_probability(1, PatternSet.of("1324")) == 1
        assert limit_probability(2, PatternSet.of("1324")) == 0
        for m in range(0, 20):
            assert limit_probability(m, PatternSet()) == 1
        # The magnitude of {123} is 0, so even the m = 0 column loses: the
        # lone identity permutation eventually contains the pattern.
        assert limit_probability(0, PatternSet.of("123")) == 0
        assert limit_probability(0, PatternSet.of("132")) == 1
        assert limit_probability(1, PatternSet.of("21")) == 0


class TestDegreeReport:
    def test_match_with_witness(self):
        rep = degree_report(3, PatternSet.of("1324"))
        assert rep.verdict is Verdict.MATCH
        assert rep.detected.degree == 2
        assert rep.witness == (2, 1)  # decreasing core, extended major index 3
        obj = rep.to_json_obj()
        assert obj["schema"] == 1 and obj["verdict"] == "match"
        assert obj["prediction"] == {"kind": "exact", "degree": 2}
        assert obj["detected"]["polynomial"] == [[-8, 1], [3, 2], [1, 2]]

    def test_empty_set_leading_coefficient(self):
        for m in range(0, 5):
            rep = degree_report(m, PatternSet())
            assert rep.verdict is Verdict.MATCH
            assert rep.detected.degree == m
            assert rep.detected.polynomial.leading_coefficient == Fraction(1, factorial(m))

    def test_zero_sequence_match(self):
        rep = degree_report(4, PatternSet.of("123"))
        assert rep.prediction.kind is PredictionKind.ZERO_SEQUENCE
        assert rep.verdict is Verdict.MATCH and rep.detected.polynomial.is_zero

    def test_honest_mismatch_on_truncated_series(self):
        # The column for {123} at m = 2 looks constant over n <= 4 but is
        # eventually zero; a narrow window on the short series must flag it.
        rep = degree_report(2, PatternSet.of("123"), n_max=4, window=1)
        assert rep.verdict is Verdict.MISMATCH

    @pytest.mark.parametrize("n_max", [None, 6])
    def test_unknown_algorithm_is_refused_first(self, n_max):
        # With --max-n or without, in the words of maj_table and major_count_series.
        with pytest.raises(InvalidInputError, match="unknown algorithm 'bogus'"):
            degree_report(3, PatternSet.of("1324"), n_max=n_max, algorithm="bogus")

    def test_bad_window_is_refused_before_the_column_walk(self):
        # The column alone would exceed the node ceiling.
        with pytest.raises(InvalidInputError, match="window must be >= 1, got 0"):
            degree_report(40, PatternSet.of("1324"), window=0, max_nodes=1000)

    def test_inconclusive_on_short_window(self):
        rep = degree_report(3, PatternSet.of("1324"), n_max=6, window=3)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.detected.inconclusive

    def test_triangular_spikes_for_valley_class(self):
        # Columns are nonconstant exactly at the triangular major indices.
        ps = PatternSet.of("132", "231")
        triangular = {d * (d + 1) // 2 for d in range(1, 6)}
        for m in range(0, 16):
            series = major_count_series(m, ps, 13, algorithm="brute")
            det = detect_degree(series)
            assert not det.inconclusive
            assert (det.degree >= 1) == (m in triangular), (m, det.degree)
