import itertools

import pytest

import majpat.monotone
from majpat.enumeration import PatternSet, maj_table
from majpat.errors import InvalidInputError, PreconditionError, UnsupportedPatternError
from majpat.monotone import (
    InjectionCase,
    InjectionTag,
    monotone_injection,
    verify_monotonicity,
)
from majpat.perms import contains, descents, insert, major_index, parse_perm, slope, tail
from oracles import oracle_rows, oracle_rows_by_deletion


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


@pytest.mark.parametrize("text", ["2134", "1324", "231", "321", "21"])
def test_harness_counts_match_the_oracle(text):
    # The harness reads its sources off the walk that counts row n + 1; the
    # counts of both rows, and the number of sources injected, must be the
    # oracle's, up to the triangle and past it.
    sigma = parse_perm(text)
    rows = [[1]] + oracle_rows_by_deletion([sigma], 8)
    assert rows[1:7] == oracle_rows([sigma], 6)

    def cell(n, m):
        return rows[n][m] if m < len(rows[n]) else 0

    for n in range(8):
        for m_max in (None, 0, 4, n * (n + 1) // 2 + 1):
            report = verify_monotonicity(sigma, n, m_max)
            limit = n * (n - 1) // 2 if m_max is None else m_max
            assert report.verified, (text, n, m_max)
            assert report.counts == {m: (cell(n, m), cell(n + 1, m))
                                     for m in range(limit + 1)}, (text, n, m_max)
            assert sum(report.case_tally.values()) == sum(
                cell(n, m) for m in range(limit + 1)), (text, n, m_max)


class TestVerifierCatchesBadInjections:
    # The verifier checks an image only through its inserted letter; these
    # injections break it in the two ways that check must still see.

    def test_image_with_an_occurrence_through_the_inserted_letter(self, monkeypatch):
        sigma = (2, 1, 3, 4)
        real = majpat.monotone._inject

        def bad(pi, s):
            # An insertion that keeps the major index and completes sigma.
            n = len(pi)
            for k in range(1, n + 2):
                for l in range(1, n + 2):
                    image = insert(pi, k, l)
                    if major_index(image) == major_index(pi) and contains(image, s):
                        return image, InjectionCase(InjectionTag.APPEND_MAX, k, l)
            return real(pi, s)

        monkeypatch.setattr(majpat.monotone, "_inject", bad)
        report = verify_monotonicity(sigma, 5)
        assert not report.verified
        assert report.counterexample[1] == "image contains the pattern"

    def test_image_that_changes_another_letter(self, monkeypatch):
        sigma = (2, 1, 3, 4)
        real = majpat.monotone._inject

        def bad(pi, s):
            # The image of another avoider with the same major index: it
            # avoids sigma and keeps the major index, but deleting the
            # inserted letter does not give pi back.
            others = [q for q in itertools.permutations(range(1, len(pi) + 1))
                      if q != pi and major_index(q) == major_index(pi) and not contains(q, s)]
            return real(others[0] if others else pi, s)

        monkeypatch.setattr(majpat.monotone, "_inject", bad)
        report = verify_monotonicity(sigma, 5)
        assert not report.verified
        assert report.counterexample[1] == "image is not the avoider plus one letter"


def test_single_pattern_columns_weakly_increase():
    for text in ("1324", "132", "321"):
        t = maj_table(7, 21, PatternSet.of(text))
        for m in range(0, 22):
            col = t.column(m)
            assert all(a <= b for a, b in zip(col, col[1:])), (text, m)
