"""
Constructive monotonicity of fixed-major-index columns for single patterns.

For a pattern sigma with at least one descent, an explicit injection maps
each sigma-avoiding permutation of length n with major index m to one of
length n + 1 with the same major index, by one of three insertions selected
from tail(sigma) and slope(pi).  The harness enumerates the avoiders of
length n, checks injectivity, avoidance and major-index preservation
directly, and counts length n + 1 by the brute-force table.

Avoidance of an image is checked only through its inserted letter, and that
is exact: the injection refuses a source that contains sigma, and the
harness checks that deleting the inserted letter gives the source back, so
any occurrence in the image must use that letter.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .enumeration import PatternSet, _brute_rows, _Budget, generate_avoiders
from .errors import InvalidInputError, PreconditionError, UnsupportedPatternError
from .perms import (
    Perm,
    contains,
    contains_through,
    delete_at,
    descents,
    format_perm,
    insert,
    major_index,
    slope,
    tail,
)


class InjectionTag(enum.Enum):
    APPEND_MAX = "append_max"
    EXPAND_AT_TAIL = "expand_at_tail"
    INSERT_MIN_INTO_SLOPE = "insert_min_into_slope"


@dataclass(frozen=True)
class InjectionCase:
    tag: InjectionTag
    position: int
    value: int


def monotone_injection(pi: Perm, sigma: Perm) -> tuple[Perm, InjectionCase]:
    """The image of pi under the column injection for the pattern sigma.

    Case selection: append the new maximum when tail(sigma) = 0; expand the
    letter at position n + 1 - tail(sigma) when the slope of pi reaches
    tail(sigma); otherwise insert the letter 1 at the leftmost end of the
    slope, the rightmost position that creates no descent.
    """
    if not descents(sigma):
        raise UnsupportedPatternError(
            f"pattern {format_perm(sigma) or '(empty)'} is increasing: its columns are "
            "eventually zero (any long permutation contains an increasing or a long "
            "decreasing pattern), so no length-increasing injection exists"
        )
    if contains(pi, sigma):
        raise PreconditionError(
            f"{format_perm(pi)} contains {format_perm(sigma)}; the injection is only "
            "defined on avoiders"
        )
    n = len(pi)
    t = tail(sigma)
    if t == 0:
        case = InjectionCase(InjectionTag.APPEND_MAX, n + 1, n + 1)
    elif slope(pi) >= t:
        pos = n + 1 - t
        case = InjectionCase(InjectionTag.EXPAND_AT_TAIL, pos, pi[pos - 1])
    else:
        case = InjectionCase(InjectionTag.INSERT_MIN_INTO_SLOPE, n + 1 - slope(pi), 1)
    return insert(pi, case.position, case.value), case


@dataclass(frozen=True)
class MonotonicityReport:
    sigma: Perm
    n: int
    m_max: int
    verified: bool
    counterexample: Optional[tuple[Perm, str]]
    case_tally: dict[str, int] = field(default_factory=dict)
    counts: dict[int, tuple[int, int]] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "pattern": format_perm(self.sigma),
            "n": self.n,
            "max_maj": self.m_max,
            "verified": self.verified,
            "cases": dict(self.case_tally),
            "counts": {str(m): list(pair) for m, pair in sorted(self.counts.items())},
            "counterexample": None if self.counterexample is None else {
                "pi": format_perm(self.counterexample[0]),
                "reason": self.counterexample[1],
            },
        }


def verify_monotonicity(sigma: Perm, n: int, m_max: int | None = None, *,
                        max_nodes: int | None = None) -> MonotonicityReport:
    """Exhaustively check the injection on every avoider of length n.

    For each major index m <= m_max: the image of every avoider must avoid
    sigma, keep its major index, and be distinct from every other image; the
    column counts at n + 1 come independently from the brute table and are
    compared with the counts at n.  One node ceiling covers both walks.
    """
    if not descents(sigma):
        raise UnsupportedPatternError(
            f"pattern {format_perm(sigma)} is increasing; see monotone_injection"
        )
    if n < 0:
        raise InvalidInputError(f"length must be non-negative, got {n}")
    limit = m_max if m_max is not None else n * (n - 1) // 2
    if limit < 0:
        raise InvalidInputError(f"max_maj must be >= 0, got {limit}")
    single = PatternSet((sigma,))

    budget = _Budget(max_nodes)
    row_next = _brute_rows(single, n + 1, min(limit, n * (n + 1) // 2), 1, budget)[n]
    by_m: dict[int, list[Perm]] = {}
    for pi in generate_avoiders(n, single, max_nodes=budget.left):
        m = major_index(pi)
        if m <= limit:
            by_m.setdefault(m, []).append(pi)

    tally = {tag.value: 0 for tag in InjectionTag}
    counts: dict[int, tuple[int, int]] = {}

    def failed(pi: Perm, reason: str) -> MonotonicityReport:
        return MonotonicityReport(sigma, n, limit, False, (pi, reason), tally, counts)

    for m in range(limit + 1):
        source = by_m.get(m, [])
        count_next = row_next[m] if m < len(row_next) else 0
        counts[m] = (len(source), count_next)
        images = set()
        for pi in source:
            image, case = monotone_injection(pi, sigma)
            tally[case.tag.value] += 1
            if major_index(image) != m:
                return failed(pi, f"image changes major index to {major_index(image)}")
            if delete_at(image, case.position) != pi:
                return failed(pi, "image is not the avoider plus one letter")
            if contains_through(image, sigma, case.position):
                return failed(pi, "image contains the pattern")
            if image in images:
                return failed(pi, "image collides with another avoider")
            images.add(image)
        if len(source) > count_next:
            return failed(source[0] if source else (),
                          f"column drops: {len(source)} > {count_next} at m={m}")
    return MonotonicityReport(sigma, n, limit, True, None, tally, counts)
