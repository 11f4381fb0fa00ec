"""
Constructive monotonicity of fixed-major-index columns for single patterns.

For a pattern sigma with at least one descent, an explicit injection maps
each sigma-avoiding permutation of length n with major index m to one of
length n + 1 with the same major index, by one of three insertions selected
from tail(sigma) and slope(pi).  The harness walks the prefix tree once, to
count length n + 1 by the brute-force table; the avoiders of length n are
that walk's nodes one letter short, each with the major index it carries.
It checks each image in one pass, every check read off the image itself:
its major index is the source's, it is a permutation and deleting the
inserted letter gives the source back, no occurrence of sigma goes through
the inserted letter, and no other image of the column equals it.

Avoidance of an image is checked only through its inserted letter, and that
is exact: the walk yields only avoiders, and the harness checks that deleting
the inserted letter gives the source back, so any occurrence in the image
must use that letter.  The public `monotone_injection` checks its input
itself; the harness calls the bare insertion `_inject`.

An image is built, and its deletion checked, by one `itemgetter` over the
relabel table of its inserted letter, as the prefix-tree walk appends a
letter (`enumeration._Relabel`); tail(sigma) and sigma's compiled search
through one letter are looked up once per pattern (`_plan`).
"""
from __future__ import annotations

import enum
from functools import lru_cache
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from .enumeration import PatternSet, _brute_rows, _Budget, _Relabel, _triangle, generate_avoiders
from .errors import InvalidInputError, PreconditionError, UnsupportedPatternError
from .perms import (
    Perm,
    _through_search,
    check_perm,
    contains,
    descents,
    format_perm,
    tail,
)

# generate_avoiders is here only for bench/tracing.py, which wraps it by name.
__all__ = ["InjectionCase", "InjectionTag", "MonotonicityReport", "generate_avoiders",
           "monotone_injection", "verify_monotonicity"]


class InjectionTag(enum.Enum):
    APPEND_MAX = "append_max"
    EXPAND_AT_TAIL = "expand_at_tail"
    INSERT_MIN_INTO_SLOPE = "insert_min_into_slope"


# A global lookup costs less than a member lookup on the Enum class.
_APPEND_MAX, _EXPAND_AT_TAIL, _INSERT_MIN_INTO_SLOPE = InjectionTag


class InjectionCase(NamedTuple):
    tag: InjectionTag
    position: int
    value: int


def monotone_injection(pi: Perm, sigma: Perm) -> tuple[Perm, InjectionCase]:
    """The image of pi under the column injection for the pattern sigma,
    refusing a non-permutation or increasing sigma and a pi that contains sigma."""
    sigma = check_perm(sigma)
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
    return _inject(pi, sigma)


class _Plan(NamedTuple):
    tail: int
    through: Callable[[Perm, int], bool]


@lru_cache(maxsize=256)
def _plan(sigma: Perm) -> _Plan:
    """tail(sigma), which selects every case of the injection, and sigma's
    compiled search for an occurrence through one letter."""
    return _Plan(tail(sigma), _through_search(sigma))


# _raising(n)[v] inserts the letter v into a word of length <= n (`_Relabel`):
# the injection builds its images with it, and the harness checks them.
_raising = lru_cache(maxsize=16)(_Relabel)


def _inject(pi: Perm, sigma: Perm) -> tuple[Perm, InjectionCase]:
    """The column injection on a sigma-avoider pi, for sigma with a descent.

    Case selection: append the new maximum when tail(sigma) = 0; expand the
    letter at position n + 1 - tail(sigma) when the slope of pi reaches
    tail(sigma); otherwise insert the letter 1 at the leftmost end of the
    slope, the rightmost position that creates no descent.

    The image is `insert(pi, position, value)`: pi with the index 0 put at
    the position, looked up by one itemgetter in the relabel table of the
    value, which maps 0 to the value and raises every letter >= value by
    one.  Only the last tail(sigma) letters of pi are read to choose the case.
    """
    n = len(pi)
    t = _plan(sigma).tail
    if t == 0:
        return pi + (n + 1,), InjectionCase(_APPEND_MAX, n + 1, n + 1)
    # An itemgetter of one index returns a bare letter, not a word.
    if n == 0:
        return (1,), InjectionCase(_INSERT_MIN_INTO_SLOPE, 1, 1)
    # Walk back over the slope of pi, at most t letters: pi[k:] rises.
    k = n - 1
    while k > n - t and k and pi[k - 1] < pi[k]:
        k -= 1
    if k == n - t:
        case = InjectionCase(_EXPAND_AT_TAIL, k + 1, pi[k])
    else:
        case = InjectionCase(_INSERT_MIN_INTO_SLOPE, k + 1, 1)
    return itemgetter(*(pi[:k] + (0,) + pi[k:]))(_raising(n)[case.value]), case


class MonotonicityReport(NamedTuple):
    sigma: Perm
    n: int
    m_max: int
    verified: bool
    counterexample: Optional[tuple[Perm, str]]
    case_tally: dict[str, int]
    counts: dict[int, tuple[int, int]]

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

    For each major index m <= m_max, the image `_inject` gives each avoider
    must keep its major index m, computed by a loop over the image; be a
    permutation that gives the avoider back when the letter r at the case's
    position is deleted, that is, hold the avoider raised past r, by one
    itemgetter over r's relabel table, around r; have no occurrence of
    sigma through r, by sigma's compiled search; and differ from every
    other image of the column.  The column counts at n + 1 come
    independently from the brute table and are compared with the counts at
    n.  The sources are the length-n nodes of that table's one walk, which
    the node ceiling covers, and each m past n(n + 1)/2 costs it one node.
    """
    sigma = check_perm(sigma)
    if not descents(sigma):
        raise UnsupportedPatternError(
            f"pattern {format_perm(sigma)} is increasing; see monotone_injection"
        )
    if n < 0:
        raise InvalidInputError(f"length must be non-negative, got {n}")
    limit = m_max if m_max is not None else _triangle(n)
    if limit < 0:
        raise InvalidInputError(f"max_maj must be >= 0, got {limit}")
    # The (0, 0) cells past the triangle of row n + 1 are charged up front.
    budget = _Budget(max_nodes)
    budget.spend(max(0, limit - _triangle(n + 1)))
    # The walk keeps every length-n avoider with maj <= limit, in preorder.
    by_m: dict[int, list[Perm]] = {}
    row_next = _brute_rows(PatternSet((sigma,)), n + 1, min(limit, _triangle(n + 1)), 1,
                           budget, by_m)[n]

    through = _plan(sigma).through
    raising = _raising(n)
    letters = range(1, n + 1)
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
            image, case = _inject(pi, sigma)
            # _value_ is the plain attribute behind the property .value.
            tally[case.tag._value_] += 1
            if len(image) != n + 1:
                return failed(pi, "image is not the avoider plus one letter")
            mj = 0
            a = image[0]
            for i in letters:
                b = image[i]
                if a > b:
                    mj += i
                a = b
            if mj != m:
                return failed(pi, f"image changes major index to {mj}")
            k = case.position - 1
            r = image[k]
            # Deleting r gives pi back, and the image is a permutation, iff r
            # is a letter of length n + 1 and the other letters are pi's
            # raised past r.  (An itemgetter of one index returns a bare
            # letter, and of none raises.)
            if not 0 < r <= n + 1 or image[:k] + image[k + 1:] != (
                    itemgetter(*pi)(raising[r]) if n > 1 else tuple(raising[r][v] for v in pi)):
                return failed(pi, "image is not the avoider plus one letter")
            if through(image, k):
                return failed(pi, "image contains the pattern")
            if image in images:
                return failed(pi, "image collides with another avoider")
            images.add(image)
        if len(source) > count_next:
            return failed(source[0] if source else (),
                          f"column drops: {len(source)} > {count_next} at m={m}")
    return MonotonicityReport(sigma, n, limit, True, None, tally, counts)
