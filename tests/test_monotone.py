import itertools
import json
from pathlib import Path

import pytest

import majpat.monotone
from majpat.enumeration import PatternSet, maj_table
from majpat.errors import InvalidInputError, PreconditionError, UnsupportedPatternError
from majpat.monotone import (
    InjectionCase,
    InjectionTag,
    MonotonicityReport,
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
        # The case is the one tail(sigma) and slope(pi) force, and the image,
        # read off relabel tables, is the spec's insertion for that case.
        patterns = [p for l in (3, 4) for p in itertools.permutations(range(1, l + 1))
                    if descents(p)]
        for sigma in patterns:
            t = tail(sigma)
            for n in range(0, 7):
                for pi in itertools.permutations(range(1, n + 1)):
                    if contains(pi, sigma):
                        continue
                    image, case = majpat.monotone._inject(pi, sigma)
                    if t == 0:
                        expected = (InjectionTag.APPEND_MAX, n + 1, n + 1)
                    elif slope(pi) >= t:
                        expected = (InjectionTag.EXPAND_AT_TAIL, n + 1 - t, pi[n - t])
                    else:
                        expected = (InjectionTag.INSERT_MIN_INTO_SLOPE, n + 1 - slope(pi), 1)
                    assert case == InjectionCase(*expected), (sigma, pi)
                    assert image == insert(pi, case.position, case.value), (sigma, pi)
                    assert major_index(image) == major_index(pi)


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

    def test_non_permutations_rejected(self):
        # The library refuses them itself, not only the CLI's parser.
        for call in (lambda: maj_table(3, 3, PatternSet(((1, 1),))),
                     lambda: maj_table(3, 3, PatternSet(((1, 3),))),
                     lambda: verify_monotonicity((3, 1), 3),
                     lambda: monotone_injection((1,), (3, 1))):
            with pytest.raises(InvalidInputError, match="not a permutation"):
                call()

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
        report = verify_monotonicity((1, 3, 2), 4)
        obj = report.to_json_obj()
        assert obj["schema"] == 1
        assert obj["pattern"] == "132"
        assert obj["verified"] is True
        assert set(obj["cases"]) == {t.value for t in InjectionTag}
        assert obj["counterexample"] is None
        again = MonotonicityReport(report.sigma, report.n, report.m_max, report.verified,
                                   report.counterexample, report.case_tally, report.counts)
        assert again == report and again.to_json_obj() == obj


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
    # injections break it in the ways each of its checks must still see.

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

    @pytest.mark.parametrize("extra", [(10,), ()])
    def test_image_that_is_not_a_permutation(self, monkeypatch, extra):
        # pi followed by 10 keeps the major index and gives pi back when its
        # last letter is deleted, but it is no permutation of length 6; pi
        # alone is one letter short.
        def bad(pi, s):
            return pi + extra, InjectionCase(InjectionTag.APPEND_MAX, len(pi) + 1, 10)

        monkeypatch.setattr(majpat.monotone, "_inject", bad)
        report = verify_monotonicity((2, 1, 3, 4), 5)
        assert report.verified is False
        assert report.counterexample == ((1, 2, 3, 4, 5),
                                         "image is not the avoider plus one letter")

    def test_image_that_changes_the_major_index(self, monkeypatch):
        sigma = (2, 1, 3, 4)
        real = majpat.monotone._inject

        def bad(pi, s):
            # The right letter, moved to the front: deleting it still gives
            # pi back, but 12345 -> 412356 gains a descent.
            _, case = real(pi, s)
            return insert(pi, 1, case.value), InjectionCase(case.tag, 1, case.value)

        monkeypatch.setattr(majpat.monotone, "_inject", bad)
        report = verify_monotonicity(sigma, 5)
        assert report.verified is False
        assert report.counterexample == ((1, 2, 3, 4, 5), "image changes major index to 1")

    def test_two_avoiders_with_one_image(self, monkeypatch):
        sigma, n = (2, 1, 3, 4), 5
        real = majpat.monotone._inject
        # The first word that extends two avoiders of one column, keeping
        # their major index and avoiding sigma, is the image of both.
        extends: dict = {}
        shared = None
        for pi in itertools.permutations(range(1, n + 1)):
            if contains(pi, sigma):
                continue
            for k, l in itertools.product(range(1, n + 2), repeat=2):
                word = insert(pi, k, l)
                if major_index(word) == major_index(pi) and not contains(word, sigma):
                    first = extends.setdefault(word, (pi, k, l))
                    if first[0] != pi:
                        shared = {first[0]: first[1:], pi: (k, l)}
                        break
            if shared:
                break

        def bad(pi, s):
            if pi in shared:
                k, l = shared[pi]
                return insert(pi, k, l), InjectionCase(InjectionTag.APPEND_MAX, k, l)
            return real(pi, s)

        monkeypatch.setattr(majpat.monotone, "_inject", bad)
        report = verify_monotonicity(sigma, n)
        assert report.verified is False
        assert report.counterexample[0] in shared
        assert report.counterexample[1] == "image collides with another avoider"

    def test_column_that_drops(self, monkeypatch):
        # Row n + 1 one short in column 0, where both rows hold the identity.
        real = majpat.monotone._brute_rows

        def short(*args):
            rows = real(*args)
            rows[-1][0] -= 1
            return rows

        monkeypatch.setattr(majpat.monotone, "_brute_rows", short)
        report = verify_monotonicity((2, 1, 3, 4), 5)
        assert report.verified is False
        assert report.counterexample == ((1, 2, 3, 4, 5), "column drops: 1 > 0 at m=0")


class TestMonotonicityCensus:
    # tools/monotone_census.py writes the fixture: verify_monotonicity at
    # n = 9 on every length-4 pattern with a descent.
    CENSUS = json.loads((Path(__file__).parent / "data" / "monotone_census_n9.json").read_text())

    def test_every_pattern_verifies(self):
        reports = {r["pattern"]: r for r in self.CENSUS["reports"]}
        assert sorted(reports) == sorted(
            "".join(map(str, p)) for p in itertools.permutations(range(1, 5)) if descents(p))
        for text, report in reports.items():
            assert report["verified"] and report["counterexample"] is None, text
            assert all(a <= b for a, b in report["counts"].values()), text
            assert sum(report["cases"].values()) == sum(
                a for a, _ in report["counts"].values()), text

    @pytest.mark.parametrize("text", ["2143", "2134"])
    def test_recomputed_reports_match(self, text):
        # 2143 appends the maximum to every avoider; 2134 takes two branches.
        expected = next(r for r in self.CENSUS["reports"] if r["pattern"] == text)
        assert verify_monotonicity(parse_perm(text), 9).to_json_obj() == expected


def test_single_pattern_columns_weakly_increase():
    for text in ("1324", "132", "321"):
        t = maj_table(7, 21, PatternSet.of(text))
        for m in range(0, 22):
            col = t.column(m)
            assert all(a <= b for a, b in zip(col, col[1:])), (text, m)
