"""
Eventual-polynomial degrees of the fixed-major-index columns.

Closed-form predictions by the minimal pattern magnitude, explicit core
constructions achieving the predicted degree, and an independent empirical
detector that reads the degree off exact count series by finite differences.
All arithmetic is exact: the quadratic parameter d comes from a closed form
in isqrt, never from floating point.
"""
from __future__ import annotations

import enum
from math import isqrt
from typing import NamedTuple, Optional, Sequence

from .decomp import co_layered, decompose
from .enumeration import PatternSet, column_counts, major_count_series
from .errors import InvalidInputError, VerificationError
from .perms import (
    Perm,
    contains,
    format_perm,
    insert,
    is_decreasing,
    is_increasing,
    magnitude,
    maj_plus,
)
from .poly import Polynomial, ZERO


def _smallest_d(m: int, k: int) -> int:
    """Smallest positive d with d(d+1)(k-1)/2 >= m, for m >= 1: the least d
    with d(d+1) >= q = ceil(2m/(k-1)), that is (2d+1)^2 > 4q - 3."""
    q = -(-2 * m // (k - 1))
    return (isqrt(4 * q - 3) + 1) // 2


def degree_for_magnitude(m: int, k: int) -> int:
    """floor((d-1)(k-1)/2 + m/d), the column degree for magnitude-k sets.

    >>> degree_for_magnitude(15, 3)
    6
    """
    if k < 2 or m < 1:
        raise InvalidInputError(f"need k >= 2 and m >= 1, got k={k}, m={m}")
    d = _smallest_d(m, k)
    return ((d - 1) * (k - 1) * d + 2 * m) // (2 * d)


def largest_triangular_index(m: int) -> int:
    """Largest l with l(l+1)/2 <= m, i.e. floor((-1 + sqrt(1+8m)) / 2)."""
    return (isqrt(8 * m + 1) - 1) // 2


def max_length_core(m: int, k: int) -> Perm:
    """The longest 12..k-avoiding permutation with extended major index m.

    Co-layered with descent gaps of at most k - 1; its length realizes
    degree_for_magnitude(m, k) and is validated on construction.
    """
    if k < 3 or m < 1:
        raise InvalidInputError(f"need k >= 3 and m >= 1, got k={k}, m={m}")
    d = _smallest_d(m, k)
    total = d * (d + 1) // 2 * (k - 1)
    s = (total - m) // d
    p = total - d * s - m
    positions = [i * (k - 1) - s - (1 if i > d - p else 0) for i in range(1, d + 1)]
    length = positions[-1]
    core = co_layered(positions[:-1], length)
    expect_len = degree_for_magnitude(m, k)
    if maj_plus(core) != m or len(core) != expect_len or contains(core, tuple(range(1, k + 1))):
        raise VerificationError(f"core construction failed for m={m}, k={k}: got {core}")
    return core


def magnitude_two_core(m: int, i: int) -> Perm:
    """A core of maximal length with maj_plus = m whose paddings dodge the
    i-th profile coordinate of every magnitude-2 pattern.

    At triangular m it is the decreasing permutation; otherwise one letter is
    inserted into the decreasing permutation, placed by which coordinate
    i in {1, 2, 3} is guaranteed nonzero.
    """
    if m < 1:
        raise InvalidInputError(f"need m >= 1, got m={m}")
    if i not in (1, 2, 3):
        raise InvalidInputError(f"coordinate index must be 1, 2 or 3, got {i}")
    l = largest_triangular_index(m)
    rem = m - l * (l + 1) // 2
    eps = tuple(range(l, 0, -1))
    if rem == 0:
        return eps
    d = rem
    if i == 1:
        core = insert(eps, l + 1 - d, 1)
    elif i == 2:
        core = insert(eps, l + 1 - d, d)
    else:
        core = insert(eps, l + 2 - d, l + 1)
    if maj_plus(core) != m:
        raise VerificationError(f"core construction failed for m={m}, i={i}: got {core}")
    return core


def bounded_degree_criterion(patterns: PatternSet) -> Optional[int]:
    """(k-1)(l-1) when the set has members with an increasing core of length k
    and a decreasing core of length l; None otherwise.

    A member whose core is empty is an increasing pattern, contained cores of
    every permutation, which pins the degree at 0.
    """
    inc: list[int] = []
    dec: list[int] = []
    for p in patterns:
        core = decompose(p).core
        if is_increasing(core):
            inc.append(len(core))
        if is_decreasing(core):
            dec.append(len(core))
    if not inc or not dec:
        return None
    k, l = min(inc), min(dec)
    if k == 0 or l == 0:
        return 0
    return (k - 1) * (l - 1)


class PredictionKind(enum.Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper_bound"
    ZERO_SEQUENCE = "zero_sequence"


class DegreePrediction(NamedTuple):
    kind: PredictionKind
    degree: int
    side_index: Optional[int] = None  # certified profile coordinate for magnitude-2 sets

    def to_json_obj(self) -> dict:
        return {"kind": self.kind.value, "degree": self.degree}


def _magnitude_two_side_index(patterns: PatternSet) -> Optional[int]:
    # Magnitude-2 patterns have core 12 and a length-3 profile; the condition
    # asks for one coordinate that is nonzero in all of them.
    for i in (1, 2, 3):
        if all(
            decompose(p).profile[i - 1] != 0
            for p in patterns
            if magnitude(p) == magnitude((1, 3, 2))
        ):
            return i
    return None


def predicted_degree(m: int, patterns: PatternSet) -> DegreePrediction:
    """Closed-form degree of the m-column, by the minimal pattern magnitude.

    Exact for: infinite magnitude (degree m), magnitude <= 1 (degree 0, an
    eventually-zero column when an increasing pattern is present), m = 0,
    all-finite sets of magnitude k >= 3, and all-finite magnitude-2 sets
    passing the common-coordinate side condition.  Everything else gets an
    upper bound via a minimal-magnitude member, clamped by the
    increasing/decreasing-core criterion when it applies.
    """
    if m < 0:
        raise InvalidInputError(f"major index must be non-negative, got {m}")
    mag = patterns.magnitude
    if not mag.is_finite:
        return DegreePrediction(PredictionKind.EXACT, m)
    if mag.value == 0:
        return DegreePrediction(PredictionKind.ZERO_SEQUENCE, 0)
    if mag.value == 1:
        return DegreePrediction(PredictionKind.EXACT, 0)
    if m == 0:
        return DegreePrediction(PredictionKind.EXACT, 0)
    k = mag.value
    if patterns.all_finite_magnitude:
        if k >= 3:
            return DegreePrediction(PredictionKind.EXACT, degree_for_magnitude(m, k))
        side = _magnitude_two_side_index(patterns)
        if side is not None:
            return DegreePrediction(PredictionKind.EXACT, largest_triangular_index(m), side)
    bound = degree_for_magnitude(m, k)
    clamp = bounded_degree_criterion(patterns)
    if clamp is not None:
        bound = min(bound, clamp)
    return DegreePrediction(PredictionKind.UPPER_BOUND, bound)


class DetectedDegree(NamedTuple):
    degree: Optional[int]
    polynomial: Optional[Polynomial]
    onset: Optional[int]
    inconclusive: bool

    def to_json_obj(self) -> dict:
        if self.inconclusive:
            return {"inconclusive": True}
        return {
            "inconclusive": False,
            "degree": self.degree,
            "polynomial": self.polynomial.to_pairs(),
            "polynomial_text": str(self.polynomial),
            "onset": self.onset,
        }


def detect_degree(series: Sequence[int], *, window: int = 3) -> DetectedDegree:
    """Read the eventual polynomial off an exact count series, whose first
    entry is the count at n = 1.

    Takes finite differences until some order is constant over the trailing
    window + 1 entries, rebuilds the polynomial by Newton's forward form
    anchored in the stable tail, and reports the earliest n from which it
    matches every later value.  No order stabilizing is a first-class
    inconclusive result, never an error.
    """
    if window < 1:
        raise InvalidInputError(f"window must be >= 1, got {window}")
    length = len(series)
    if length < window + 2:
        raise InvalidInputError(
            f"series of length {length} is too short for window {window}"
        )
    levels = [list(series)]
    for order in range(0, length - window):
        seq = levels[-1]
        tail_vals = seq[-(window + 1):]
        if len(tail_vals) >= window + 1 and all(v == tail_vals[0] for v in tail_vals):
            degree = order
            anchor = length - order - (window + 1)  # offset into the series
            poly = ZERO
            for r in range(degree + 1):
                poly = poly + Polynomial.binomial(r, anchor + 1).scaled(levels[r][anchor])
            onset = length + 1
            for n in range(length, 0, -1):
                if poly(n) != series[n - 1]:
                    break
                onset = n
            return DetectedDegree(degree, poly, onset, False)
        levels.append([b - a for a, b in zip(seq, seq[1:])])
    return DetectedDegree(None, None, None, True)


def limit_probability(m: int, patterns: PatternSet) -> int:
    """1 when every long permutation with major index m avoids the set
    (m below the set magnitude), else 0."""
    if m < 0:
        raise InvalidInputError(f"major index must be non-negative, got {m}")
    return 1 if patterns.magnitude.exceeds(m) else 0


class Verdict(enum.Enum):
    MATCH = "match"
    MISMATCH = "mismatch"
    INCONCLUSIVE = "inconclusive"


class DegreeReport(NamedTuple):
    m: int
    patterns: PatternSet
    prediction: DegreePrediction
    detected: Optional[DetectedDegree]
    witness: Optional[Perm]
    verdict: Verdict

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "patterns": self.patterns.texts(),
            "maj": self.m,
            "prediction": self.prediction.to_json_obj(),
            "detected": None if self.detected is None else self.detected.to_json_obj(),
            "witness": None if self.witness is None else format_perm(self.witness),
            "verdict": self.verdict.value,
        }


def _witness(m: int, patterns: PatternSet, prediction: DegreePrediction) -> Optional[Perm]:
    if m == 0 or prediction.kind is not PredictionKind.EXACT or prediction.degree == 0:
        return None
    mag = patterns.magnitude
    if not mag.is_finite:
        return tuple(range(1, m + 1))
    if mag.value >= 3:
        return max_length_core(m, mag.value)
    if mag.value == 2 and prediction.side_index is not None:
        return magnitude_two_core(m, prediction.side_index)
    return None


def degree_report(m: int, patterns: PatternSet, *, n_max: int | None = None,
                  window: int = 3, algorithm: str = "cores",
                  max_nodes: int | None = None) -> DegreeReport:
    """Predict the column degree, detect it from exact counts, and compare."""
    if algorithm not in ("cores", "brute"):
        raise InvalidInputError(f"unknown algorithm {algorithm!r}")
    if window < 1:
        raise InvalidInputError(f"window must be >= 1, got {window}")
    if n_max is not None and 1 <= n_max < window + 2:
        raise InvalidInputError(
            f"series of length {n_max} is too short for window {window}")
    prediction = predicted_degree(m, patterns)
    if n_max is None:
        if algorithm != "cores":
            raise InvalidInputError("an explicit --max-n is required for the brute path")
        # One walk of the column's signatures gives the onset and the series.
        counts = column_counts(m, patterns, max_nodes=max_nodes)
        poly, onset = counts.eventual_polynomial(1, f"m={m} column")
        n_max = max(onset + poly.degree + window + 2, window + 2)
        series = counts.series(n_max)
    else:
        series = major_count_series(m, patterns, n_max, algorithm=algorithm,
                                    max_nodes=max_nodes)
    detected = detect_degree(series, window=window)
    if detected.inconclusive:
        verdict = Verdict.INCONCLUSIVE
    elif prediction.kind is PredictionKind.ZERO_SEQUENCE:
        verdict = Verdict.MATCH if detected.polynomial.is_zero else Verdict.MISMATCH
    elif prediction.kind is PredictionKind.EXACT:
        verdict = Verdict.MATCH if detected.degree == prediction.degree else Verdict.MISMATCH
    else:
        verdict = Verdict.MATCH if detected.degree <= prediction.degree else Verdict.MISMATCH
    return DegreeReport(m, patterns, prediction, detected, _witness(m, patterns, prediction), verdict)
