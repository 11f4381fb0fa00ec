"""
Permutations of [n] = {1, ..., n} in one-line notation.

A permutation is represented by the tuple of its values ``(p(1), ..., p(n))``;
the empty tuple is the (valid) empty permutation.  All positions and values in
this package are 1-based, matching the usual combinatorics conventions; the
0-based shift happens only when indexing into the underlying tuples.

Text forms: a digit string for n <= 9 (``"1324"``) and a comma-separated list
for n >= 10 (``"10,1,2,..."``).  Both are accepted wherever a permutation is
parsed; `format_perm` emits the digit form whenever it is unambiguous.

Every containment question runs on one kernel.  A pattern is compiled once
into its value-neighbour plan (`pattern_neighbours`): for each slot, the
already placed slots just below and just above it in value.  A plain
recursive search places the slots left to right, reading each slot's value
window off those two placed letters.  Pinning one slot to a given position
first (with a plan that counts the pinned slot as placed) answers the
questions about occurrences through one letter: `contains_through` and
`contains_ending_at_last`.  `contains`, `avoids` and `occurrences` run it
unpinned.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InvalidInputError

Perm = tuple[int, ...]


def check_perm(values: Sequence[int]) -> Perm:
    """Validate that values is a permutation of 1..n and return it as a tuple.

    >>> check_perm([2, 1, 3])
    (2, 1, 3)
    """
    word = tuple(values)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise InvalidInputError(f"not a permutation of 1..{len(word)}: {word!r}")
    return word


def parse_perm(text: str) -> Perm:
    """Parse a permutation from its text form (digit string or comma form)."""
    text = text.strip()
    if not text:
        raise InvalidInputError("empty permutation text")
    if "," in text:
        try:
            values = [int(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise InvalidInputError(f"bad permutation text {text!r}") from exc
    elif text.isdigit():
        values = [int(ch) for ch in text]
    else:
        raise InvalidInputError(f"bad permutation text {text!r}")
    return check_perm(values)


def format_perm(pi: Perm) -> str:
    """Inverse of parse_perm: digit string for n <= 9, comma form for n >= 10."""
    if len(pi) <= 9:
        return "".join(str(v) for v in pi)
    return ",".join(str(v) for v in pi)


def order_pattern(seq: Sequence[int]) -> Perm:
    """The permutation order-isomorphic to a sequence of distinct integers.

    >>> order_pattern((3, 8, 7))
    (1, 3, 2)
    """
    if len(set(seq)) != len(seq):
        raise InvalidInputError(f"entries are not pairwise distinct: {tuple(seq)!r}")
    rank = {v: r for r, v in enumerate(sorted(seq), start=1)}
    return tuple(rank[v] for v in seq)


def descents(pi: Perm) -> tuple[int, ...]:
    """Positions i (1-based) with pi_i > pi_{i+1}, in increasing order."""
    return tuple(i + 1 for i in range(len(pi) - 1) if pi[i] > pi[i + 1])


def major_index(pi: Perm) -> int:
    """Sum of the descent positions."""
    return sum(i + 1 for i in range(len(pi) - 1) if pi[i] > pi[i + 1])


def maj_plus(pi: Perm) -> int:
    """Length plus major index; invariant under passing to the core."""
    return len(pi) + major_index(pi)


def insert(pi: Perm, k: int, l: int) -> Perm:
    """Insert the letter l at position k, shifting values >= l up by one.

    The result is order-isomorphic to pi_1 ... pi_{k-1} (l - 1/2) pi_k ... pi_n.

    >>> insert((2, 3, 1, 5, 4), 3, 2)
    (3, 4, 2, 1, 6, 5)
    """
    n = len(pi)
    if not (1 <= k <= n + 1 and 1 <= l <= n + 1):
        raise InvalidInputError(f"insert position/value out of range: k={k}, l={l}, n={n}")
    shifted = [v + 1 if v >= l else v for v in pi]
    shifted.insert(k - 1, l)
    return tuple(shifted)


def delete_at(pi: Perm, k: int) -> Perm:
    """Remove the letter at position k and renormalize the values."""
    n = len(pi)
    if not (1 <= k <= n):
        raise InvalidInputError(f"delete position out of range: k={k}, n={n}")
    removed = pi[k - 1]
    return tuple(v - 1 if v > removed else v for i, v in enumerate(pi) if i != k - 1)


def tail(pi: Perm) -> int:
    """Largest i such that the last i letters are all fixed points."""
    t = 0
    for j in range(len(pi), 0, -1):
        if pi[j - 1] != j:
            break
        t += 1
    return t


def slope(pi: Perm) -> int:
    """Largest i such that the last i letters are strictly increasing."""
    n = len(pi)
    if n == 0:
        return 0
    s = 1
    for j in range(n - 1, 0, -1):
        if pi[j - 1] >= pi[j]:
            break
        s += 1
    return s


@lru_cache(maxsize=256)
def pattern_neighbours(sigma: Perm, pin: int | None = None) -> tuple[tuple[int, int], ...]:
    """The value-neighbour plan of sigma: for each slot j, the slots just
    below and just above sigma[j] in value among the slots placed before it
    (those left of j, and the slot pin when one is given), with -2 and -1
    when there is none below or above.

    A search that keeps the values it placed in a list ending with the floor
    0 and the ceiling n + 1 reads the window of slot j as
    chosen[below] < v < chosen[above]; a letter in that window is ordered
    against every placed slot as sigma says.

    >>> pattern_neighbours((2, 4, 1, 3))
    ((-2, -1), (0, -1), (-2, 0), (0, 1))
    """
    plan = []
    for j, t in enumerate(sigma):
        placed = [i for i in range(len(sigma)) if i != j and (i < j or i == pin)]
        plan.append((max((i for i in placed if sigma[i] < t), key=sigma.__getitem__, default=-2),
                     min((i for i in placed if sigma[i] > t), key=sigma.__getitem__, default=-1)))
    return tuple(plan)


def _embed(word: Perm, plan: tuple[tuple[int, int], ...], chosen: list[int], r: int,
           start: int, pin: int, at: int, found: list | None) -> bool:
    # chosen holds the values of the slots placed so far (slots 0..r-1, and
    # the slot pin when r < pin), the last of them before position start.
    # Slot pin sits at position at, so slot r < pin ends by at - (pin - r);
    # past the pin the fence moves to the virtual slot len(plan) at the end.
    # With found, every occurrence's values are collected; without, the
    # search stops at the first.
    if r == pin:
        if r == len(plan):
            if found is None:
                return True
            found.append(tuple(chosen[:r]))
            return False
        return _embed(word, plan, chosen, r + 1, at + 1, len(plan), len(word), found)
    below, above = plan[r]
    lo = chosen[below]
    hi = chosen[above]
    for pos in range(start, at - pin + r + 1):
        v = word[pos]
        if lo < v < hi:
            chosen[r] = v
            if _embed(word, plan, chosen, r + 1, pos + 1, pin, at, found):
                return True
    return False


def _search(pi: Perm, sigma: Perm, slot: int | None = None, position: int = 0,
            found: list | None = None) -> bool:
    # One kernel call: sigma in pi, with slot pinned to the letter at the
    # 1-based position when slot is given.
    l, n = len(sigma), len(pi)
    chosen = [0] * l + [0, n + 1]
    if slot is None:
        return _embed(pi, pattern_neighbours(sigma), chosen, 0, 0, l, n, found)
    chosen[slot] = pi[position - 1]
    return _embed(pi, pattern_neighbours(sigma, slot), chosen, 0, 0, slot, position - 1, found)


def occurrences(pi: Perm, sigma: Perm) -> list[tuple[int, ...]]:
    """All index sets I (1-based, increasing) with pi[I] order-isomorphic to sigma.

    >>> occurrences((3, 1, 4, 2), (2, 1))
    [(1, 2), (1, 4), (3, 4)]
    """
    found: list[tuple[int, ...]] = []
    _search(pi, sigma, found=found)
    where = {v: i for i, v in enumerate(pi, start=1)}
    return [tuple(where[v] for v in values) for values in found]


def contains(pi: Perm, sigma: Perm) -> bool:
    """Exact pattern containment test (backtracking with value-bound pruning).

    >>> contains((3, 8, 7, 1, 2, 4, 5, 6, 9), (1, 3, 2))
    True
    >>> contains((1, 2, 3), (2, 1))
    False
    """
    return _search(pi, sigma)


def avoids(pi: Perm, patterns: Iterable[Perm]) -> bool:
    """True iff pi contains none of the given patterns."""
    return not any(contains(pi, sigma) for sigma in patterns)


def contains_through(pi: Perm, sigma: Perm, position: int) -> bool:
    """Whether some occurrence of sigma in pi uses the letter at position.

    When deleting that letter leaves a sigma-avoiding permutation, this is
    equivalent to full containment.

    >>> contains_through((1, 3, 2, 4), (1, 3, 2), 2)
    True
    >>> contains_through((1, 3, 2, 4), (1, 3, 2), 4)
    False
    """
    l, n = len(sigma), len(pi)
    if not 1 <= position <= n:
        raise InvalidInputError(f"position out of range: k={position}, n={n}")
    # The letter v can only play a slot j with sigma[j] - 1 letters below v
    # and l - sigma[j] above it.
    v = pi[position - 1]
    for j, t in enumerate(sigma):
        if t <= v and l - t <= n - v and _search(pi, sigma, j, position):
            return True
    return False


def contains_ending_at_last(pi: Perm, sigma: Perm) -> bool:
    """Containment restricted to occurrences whose last letter is pi's last letter.

    When pi was produced by appending one letter to a sigma-avoiding prefix,
    this is equivalent to full containment.  The prefix-tree walker does not
    call it (it reads the children off forbidden-site masks); the tests keep
    it as the oracle for those masks.
    """
    return not sigma or (len(sigma) <= len(pi) and _search(pi, sigma, len(sigma) - 1, len(pi)))


@dataclass(frozen=True, order=True)
class Magnitude:
    """Three-valued pattern statistic: 0, a single descent position k, or infinite.

    Ordering places the infinite value above every finite one; internally the
    infinite value sorts via a rank flag so comparisons never touch a sentinel
    integer.
    """

    _rank: int  # 0 = finite, 1 = infinite; leading sort key
    _value: int

    @staticmethod
    def finite(k: int) -> "Magnitude":
        if k < 0:
            raise InvalidInputError(f"magnitude must be non-negative, got {k}")
        return Magnitude(0, k)

    @classmethod
    def infinite(cls) -> "Magnitude":
        return cls(1, 0)

    @property
    def is_finite(self) -> bool:
        return self._rank == 0

    @property
    def value(self) -> int:
        """The finite value; raises on the infinite magnitude."""
        if not self.is_finite:
            raise InvalidInputError("infinite magnitude has no finite value")
        return self._value

    def exceeds(self, m: int) -> bool:
        """True iff this magnitude is strictly greater than the integer m."""
        return not self.is_finite or self._value > m

    def __str__(self) -> str:
        return "inf" if not self.is_finite else str(self._value)


MAGNITUDE_INFINITE = Magnitude.infinite()


def magnitude(pi: Perm) -> Magnitude:
    """0 for no descents, k for descent set {k}, infinite for two or more."""
    d = descents(pi)
    if len(d) == 0:
        return Magnitude.finite(0)
    if len(d) == 1:
        return Magnitude.finite(d[0])
    return MAGNITUDE_INFINITE


def set_magnitude(patterns: Iterable[Perm]) -> Magnitude:
    """Minimal magnitude over the set; infinite for the empty set."""
    mags = [magnitude(p) for p in patterns]
    return min(mags) if mags else MAGNITUDE_INFINITE


def is_increasing(pi: Perm) -> bool:
    return all(pi[i] == i + 1 for i in range(len(pi)))


def is_decreasing(pi: Perm) -> bool:
    n = len(pi)
    return all(pi[i] == n - i for i in range(n))
