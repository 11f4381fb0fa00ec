import itertools

import pytest

from majpat.enumeration import PatternSet, maj_table
from majpat.errors import InvalidInputError, PreconditionError, UnsupportedPatternError
from majpat.monotone import (
    InjectionTag,
    monotone_injection,
    verify_monotonicity,
)
from majpat.perms import contains, descents, major_index, slope, tail


class TestInjectionCases:
    def test_append_max(self):
        image, case = monotone_injection((2, 1), (2, 3, 1))
        assert image == (2, 1, 3)
        assert case.tag is InjectionTag.APPEND_MAX
        assert case.position == 3 and case.value == 3

    def test_expand_at_tail(self):
        # slope(421356) = 4 covers the pattern's tail of 3: the letter at
        # position n + 1 - 3 is doubled.
        sigma = (1, 3, 2, 4, 5, 6)
        assert tail(sigma) == 3
        image, case = monotone_injection((4, 2, 1, 3, 5, 6), sigma)
        assert image == (5, 2, 1, 3, 4, 6, 7)
        assert case.tag is InjectionTag.EXPAND_AT_TAIL
        assert case.position == 4

    def test_insert_min_into_slope(self):
        # The pattern's tail of 5 exceeds slope(421356) = 4: the letter 1
        # goes to the rightmost position that creates no descent.
        sigma = (2, 1, 3, 4, 5, 6, 7)
        assert tail(sigma) == 5
        image, case = monotone_injection((4, 2, 1, 3, 5, 6), sigma)
        assert image == (5, 3, 1, 2, 4, 6, 7)
        assert case.tag is InjectionTag.INSERT_MIN_INTO_SLOPE
        assert case.position == 3 and case.value == 1

    def test_empty_avoider(self):
        image, case = monotone_injection((), (1, 3, 2))
        assert image == (1,)

    def test_case_selection_is_forced_by_statistics(self):
        patterns = [p for p in itertools.permutations(range(1, 5)) if descents(p)]
        for sigma in patterns:
            t = tail(sigma)
            for n in range(0, 6):
                for pi in itertools.permutations(range(1, n + 1)):
                    if contains(pi, sigma):
                        continue
                    image, case = monotone_injection(pi, sigma)
                    assert major_index(image) == major_index(pi)
                    if t == 0:
                        expected = InjectionTag.APPEND_MAX
                    elif slope(pi) >= t:
                        expected = InjectionTag.EXPAND_AT_TAIL
                    else:
                        expected = InjectionTag.INSERT_MIN_INTO_SLOPE
                    assert case.tag is expected


class TestErrors:
    def test_increasing_pattern_unsupported(self):
        with pytest.raises(UnsupportedPatternError):
            monotone_injection((2, 1), (1, 2, 3))
        with pytest.raises(UnsupportedPatternError):
            verify_monotonicity((1, 2, 3), 4)

    def test_negative_bounds_rejected(self):
        with pytest.raises(InvalidInputError):
            verify_monotonicity((2, 1, 3, 4), 5, -3)
        with pytest.raises(InvalidInputError):
            verify_monotonicity((2, 1, 3, 4), -2)

    def test_containing_permutation_rejected(self):
        with pytest.raises(PreconditionError):
            monotone_injection((1, 3, 2), (1, 3, 2))


class TestVerification:
    def test_known_patterns_verify(self):
        report = verify_monotonicity((1, 3, 2, 4), 6, 12)
        assert report.verified and report.counterexample is None
        assert sum(report.case_tally.values()) > 0
        report = verify_monotonicity((2, 3, 1), 5, 10)
        assert report.verified

    def test_counts_are_recorded(self):
        report = verify_monotonicity((2, 3, 1), 4, 6)
        assert report.counts[0] == (1, 1)
        for m, (at_n, at_n1) in report.counts.items():
            assert at_n <= at_n1

    def test_report_json_shape(self):
        obj = verify_monotonicity((1, 3, 2), 4).to_json_obj()
        assert obj["schema"] == 1
        assert obj["pattern"] == "132"
        assert obj["verified"] is True
        assert set(obj["cases"]) == {t.value for t in InjectionTag}
        assert obj["counterexample"] is None


def test_single_pattern_columns_weakly_increase():
    for text in ("1324", "132", "321"):
        t = maj_table(7, 21, PatternSet.of(text))
        for m in range(0, 22):
            col = t.column(m)
            assert all(a <= b for a, b in zip(col, col[1:])), (text, m)
