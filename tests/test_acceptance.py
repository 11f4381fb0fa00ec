"""Release-gate checks, one per shipped guarantee; run with `pytest -v -s`.

Each check prints a PASS line when its assertions hold, so a `-s` run reads
as a checklist.  Expected values are either published reference numbers or
were frozen from the independent brute-force oracles in oracles.py.
"""
import itertools
import os
from fractions import Fraction

from majpat.asymptotics import (
    degree_for_magnitude,
    degree_report,
    detect_degree,
    Verdict,
)
from majpat.decomp import cap_profile, compose, decompose
from majpat.enumeration import (
    PatternSet,
    downset_spot_check,
    maj_table,
    major_count_series,
)
from majpat.monotone import verify_monotonicity
from majpat.oeis import diff_triangle, read_integer_file
from majpat.perms import contains, descents, maj_plus, major_index
from majpat.asymptotics import max_length_core

from oracles import compositions

DATA = os.path.join(os.path.dirname(__file__), "data", "a008302.txt")


def _ok(name):
    print(f"PASS {name}")


def test_01_single_pattern_table_reproduction():
    """Every cell of the 1324 table up to n = 7, m = 12, both paths."""
    t = maj_table(7, 12, PatternSet.of("1324"), algorithm="both")
    expected = {
        1: [1],
        2: [1, 1],
        3: [1, 2, 2, 1],
        4: [1, 3, 4, 6, 5, 3, 1],
        5: [1, 4, 6, 12, 16, 19, 16, 15, 9, 4, 1],
        6: [1, 5, 8, 19, 29, 45, 58, 65, 73, 65, 57, 39, 29],
        7: [1, 6, 10, 27, 44, 76, 119, 164, 212, 260, 287, 299, 303],
    }
    for n, values in expected.items():
        assert [t.entry(n, m) for m in range(len(values))] == values, n
    assert t.entry(5, 5) == 19 and t.entry(6, 8) == 73 and t.entry(7, 12) == 303
    _ok("table-1324: all printed cells reproduced, brute and core paths agree")


def test_02_two_pattern_column_dip():
    """{3412, 1324} column m=5 dips: 21, 20, 21 at n = 6, 7, 8."""
    t = maj_table(8, 5, PatternSet.of("3412", "1324"), algorithm="both")
    assert (t.entry(6, 5), t.entry(7, 5), t.entry(8, 5)) == (21, 20, 21)
    _ok("two-pattern-dip: column m=5 runs 21, 20, 21 at n = 6, 7, 8")


def test_03_mahonian_cross_check():
    """The no-pattern table equals the vendored Mahonian triangle, n <= 6."""
    t = maj_table(6, 15, PatternSet())
    diff = diff_triangle(t, read_integer_file(DATA))
    assert diff.ok and diff.matched == 41
    assert [t.entry(4, m) for m in range(7)] == [1, 3, 5, 6, 5, 3, 1]
    _ok("mahonian-reference: 41 entries match the vendored triangle")


def test_04_monotone_injection_exhaustive():
    """Injective, major-index- and avoidance-preserving image for every
    avoider, every non-increasing pattern of lengths 3 and 4, n <= 7."""
    patterns = [
        p for k in (3, 4) for p in itertools.permutations(range(1, k + 1))
        if descents(p)
    ]
    assert len(patterns) == 28
    for sigma in patterns:
        for n in range(1, 8):
            report = verify_monotonicity(sigma, n)
            assert report.verified, (sigma, n, report.counterexample)
    _ok("monotone-injection: 28 patterns, n <= 7, all columns weakly increase")


def test_05_dual_path_equivalence():
    """Brute-force and core-based counts agree cell by cell, all m, n <= 10
    (n <= 9 for the empty set)."""
    for text, n in (("", 9), ("1324", 10), ("132", 10), ("1243", 10),
                    ("3412;1324", 10), ("132;231", 10)):
        ps = PatternSet.from_text(text)
        maj_table(n, n * (n - 1) // 2, ps, algorithm="both")
    _ok("dual-path: six pattern sets, every cell n <= 9 or 10 agrees")


def test_06_degree_verdicts():
    """Closed-form degree predictions match finite-difference detection."""
    for text in ("1324", "132", "1243"):
        for m in range(0, 7):
            rep = degree_report(m, PatternSet.of(text))
            assert rep.verdict is Verdict.MATCH, (text, m)
    rep = degree_report(3, PatternSet.of("1324"))
    assert rep.prediction.degree == 2 and rep.detected.degree == 2
    _ok("degree-verdicts: three singletons, m <= 6, prediction = detection")


def test_07_witness_maximality():
    """No 123-avoider with extended major index m <= 12 beats the formula
    length; the constructed core achieves it; the m=15 instance has length 6."""
    inc = PatternSet.of("123")
    best = {m: degree_for_magnitude(m, 3) for m in range(1, 13)}
    cap = max(m - best[m] - 1 for m in best)
    t = maj_table(12, cap, inc)
    for m, s in best.items():
        for length in range(s + 1, 13):
            mj = m - length
            if 0 <= mj <= cap:
                assert t.entry(length, mj) == 0, (m, length)
        w = max_length_core(m, 3)
        assert maj_plus(w) == m and len(w) == s and not contains(w, (1, 2, 3))
    w15 = max_length_core(15, 3)
    assert len(w15) == 6 and len(descents(w15)) == 3  # four blocks
    _ok("witness-maximality: lengths are optimal for m <= 12; m=15 gives length 6")


def test_08_bounded_degree_class():
    """{2314, 321} columns stay at degree <= 1 for every m <= 8."""
    t = maj_table(12, 8, PatternSet.of("2314", "321"))
    for m in range(0, 9):
        det = detect_degree(t.column(m))
        assert not det.inconclusive and det.degree <= 1, (m, det)
    _ok("bounded-degree: {2314,321} detected degree <= 1 for m <= 8")


def test_09_limit_probability_gap():
    """Vanishing-ratio dichotomy between m below and above the magnitude.

    At n = 13 the m=1 ratio is 1 (> 0.9 as specified).  The exact m=4 values
    are 176 / 1274 = 0.138, above the provisional 0.1 threshold, which the
    degree gap first reaches at n = 16; both facts are pinned exactly.
    """
    ps = PatternSet.of("1324")
    ratio = Fraction(major_count_series(1, ps, 13)[-1],
                     major_count_series(1, PatternSet(), 13)[-1])
    assert ratio == 1 > Fraction(9, 10)
    top = major_count_series(4, ps, 16)
    bottom = major_count_series(4, PatternSet(), 16)
    assert (top[12], bottom[12]) == (176, 1274)
    assert Fraction(top[12], bottom[12]) > Fraction(1, 10)  # 0.138 at n = 13
    assert Fraction(top[15], bottom[15]) < Fraction(1, 10)  # 0.092 at n = 16
    _ok("limit-ratio: m=1 ratio 1.0 at n=13; m=4 ratio 176/1274 at n=13, "
        "below 0.1 from n=16")


def test_10_property_suites():
    """Capped-containment equivalence, decomposition round trips, the major
    index as the core's extended major index, and down-set sampling, at the
    full quantifier bounds."""
    # Capped containment: cores to length 3, patterns to length 4, profiles
    # of size up to 6.
    sigmas = [s for j in range(1, 5) for s in itertools.permutations(range(1, j + 1))]
    for k in range(0, 4):
        for gamma in itertools.permutations(range(1, k + 1)):
            for total in range(0, 7):
                for a in compositions(total, k + 1):
                    pi = compose(gamma, a)
                    for s in sigmas:
                        capped = compose(gamma, cap_profile(a, len(s)))
                        assert contains(pi, s) == contains(capped, s), (gamma, a, s)

    # Round trips and the major-index refinement over everything to length 9.
    for n in range(0, 10):
        for pi in itertools.permutations(range(1, n + 1)):
            core, profile = decompose(pi)
            assert compose(core, profile) == pi
            assert major_index(pi) == maj_plus(core)

    # The inverse direction: every admissible (core, profile) pair of total
    # size up to 9 is recovered unchanged.
    for k in range(0, 9):
        for gamma in itertools.permutations(range(1, k + 1)):
            gk = gamma[-1] if k else 0
            for total in range(0 if k == 0 else 1, 10 - k):
                for a in compositions(total, k + 1):
                    if k and not any(a[i] > 0 for i in range(gk)):
                        continue
                    assert decompose(compose(gamma, a)) == (gamma, a)

    # Seeded down-set sampling over representative cores and sets.
    for text in ("1324", "3412;1324", "132", "132;231"):
        ps = PatternSet.from_text(text)
        for gamma in ((1, 2), (2, 1), (1, 3, 2), (2, 1, 3), (3, 2, 1)):
            assert downset_spot_check(gamma, ps, trials=100, seed=0) is None

    _ok("property-suites: capped equivalence, round trips, maj refinement, "
        "down-set sampling all clean")
