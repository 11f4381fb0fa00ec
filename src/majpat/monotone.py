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
itself; the harness binds the bare injection once per run (`_injection`),
which reads tail(sigma) and the relabel table of length n then, and it
reads sigma's compiled search through one letter once per run too.

An image is built, and its deletion checked, by one `itemgetter` over the
relabel table of its inserted letter, as the prefix-tree walk appends a
letter (`enumeration._Relabel`).
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
    refusing a non-permutation or increasing sigma, a non-permutation pi and
    a pi that contains sigma."""
    sigma = check_perm(sigma)
    pi = check_perm(pi)
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
    image, tag, k = _injection(sigma, len(pi))(pi)
    return image, InjectionCase(tag, k + 1, image[k])


# _raising(n)[v] inserts the letter v into a word of length <= n (`_Relabel`):
# the injection builds its images with it, and the harness checks them.
_raising = lru_cache(maxsize=16)(_Relabel)


def _injection(sigma: Perm, n: int) -> Callable[[Perm], tuple[Perm, InjectionTag, int]]:
    """The column injection on the sigma-avoiders of length n, for sigma with
    a descent, as inject(pi) -> (image, tag, k), k the 0-based index of the
    inserted letter.

    Case selection: append the new maximum when tail(sigma) = 0; expand the
    letter at position n + 1 - tail(sigma) when the slope of pi reaches
    tail(sigma); otherwise insert the letter 1 at the leftmost end of the
    slope, the rightmost position that creates no descent.

    The image is `insert(pi, k + 1, value)`: pi with the index 0 put at k,
    looked up by one itemgetter in the relabel table of the value, which
    maps 0 to the value and raises every letter >= value by one.  Only the
    last tail(sigma) letters of pi are read to choose the case.
    """
    t = tail(sigma)
    if t == 0:
        top = (n + 1,)
        return lambda pi: (pi + top, _APPEND_MAX, n)
    # An itemgetter of one index returns a bare letter, not a word.
    if n == 0:
        return lambda pi: ((1,), _INSERT_MIN_INTO_SLOPE, 0)
    raising = _raising(n)
    stop = n - t
    floor = max(stop, 0)

    def inject(pi: Perm) -> tuple[Perm, InjectionTag, int]:
        # Walk back over the slope of pi, at most t letters: pi[k:] rises.
        k = n - 1
        while k > floor and pi[k - 1] < pi[k]:
            k -= 1
        if k == stop:
            tag, value = _EXPAND_AT_TAIL, pi[k]
        else:
            tag, value = _INSERT_MIN_INTO_SLOPE, 1
        return itemgetter(*(pi[:k] + (0,) + pi[k:]))(raising[value]), tag, k

    return inject


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

    For each major index m <= m_max, the image that the injection, bound
    once for the run (`_injection`), gives each avoider must keep its major
    index m, computed by a loop over the image; be a permutation that gives
    the avoider back when its inserted letter r is deleted, that is, hold
    the avoider raised past r, by one itemgetter over r's relabel table,
    around r; have no occurrence of sigma through r, by sigma's compiled
    search; and differ from every other image of the column, by one hash
    into the column's set.  The cases are tallied by tag.  The column counts at n + 1 come
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

    inject = _injection(sigma, n)
    through = _through_search(sigma)
    raising = _raising(n)
    letters = range(1, n + 1)
    # Keyed by _value_, the plain attribute behind .value: a member's own
    # hash is a Python-level call.
    tally = {tag._value_: 0 for tag in InjectionTag}
    counts: dict[int, tuple[int, int]] = {}

    def failed(pi: Perm, reason: str) -> MonotonicityReport:
        return MonotonicityReport(sigma, n, limit, False, (pi, reason), tally, counts)

    for m in range(limit + 1):
        source = by_m.get(m, [])
        count_next = row_next[m] if m < len(row_next) else 0
        counts[m] = (len(source), count_next)
        images: set[Perm] = set()
        add = images.add
        for seen, pi in enumerate(source, 1):
            image, tag, k = inject(pi)
            tally[tag._value_] += 1
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
            # One hash per image: the set grows unless the image is already in it.
            add(image)
            if len(images) < seen:
                return failed(pi, "image collides with another avoider")
        if len(source) > count_next:
            return failed(source[0] if source else (),
                          f"column drops: {len(source)} > {count_next} at m={m}")
    return MonotonicityReport(sigma, n, limit, True, None, tally, counts)
