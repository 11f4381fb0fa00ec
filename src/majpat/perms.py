"""
Permutations of [n] = {1, ..., n} in one-line notation.

A permutation is represented by the tuple of its values ``(p(1), ..., p(n))``;
the empty tuple is the (valid) empty permutation.  All positions and values in
this package are 1-based, matching the usual combinatorics conventions; the
0-based shift happens only when indexing into the underlying tuples.

Text forms: a digit string for n <= 9 (``"1324"``) and a comma-separated list
for n >= 10 (``"10,1,2,..."``).  Both are accepted wherever a permutation is
parsed; `format_perm` emits the digit form whenever it is unambiguous.

A pattern is compiled once into its embedding plan (`embedding_plan`): for
each slot, the entries of a partial embedding just below and just above it
in value, so the slot's value window is read off two placed letters.  A
partial embedding is laid out as (0, n + 1, pinned letter, the other slots
in order): the floor and the ceiling first, then a pinned slot when there is
one, since it is placed first.

One search runs on that plan: `_grow` extends every partial embedding by
every letter that can fill the next slot.  `_embeddings` grows them level by
level and stops at the first empty level.  `contains`, `avoids` and
`occurrences` read it unpinned; `contains_through` and
`contains_ending_at_last` pin one slot to a given letter.  The prefix-tree
masks and the core obstructions of the enumeration module call `_grow`
themselves, because they read the embeddings of the pattern's prefixes.
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


def value_neighbours(sigma: Perm, placed: Sequence[int], t: int) -> tuple[int, int]:
    """Where the value t falls among the placed slots of sigma: the indices
    of the entries just below and just above t in the layout
    (0, len(sigma) + 1, the placed slots' values in order).  So 0 and 1
    stand for no placed slot below and none above.

    >>> value_neighbours((2, 4, 1, 3), (0, 1), 3)
    (2, 3)
    """
    layout = (0, len(sigma) + 1, *(sigma[i] for i in placed))
    return (layout.index(max(v for v in layout if v < t)),
            layout.index(min(v for v in layout if v > t)))


@lru_cache(maxsize=256)
def embedding_plan(sigma: Perm, pin: int | None = None) -> tuple[tuple[int, int], ...]:
    """For each slot j, the value_neighbours of sigma[j] among the slots
    placed before it, as indices into a partial embedding laid out as
    (0, n + 1, pinned letter, the other slots in order).

    The slot pin, when given, is placed first; with no pin, slot i sits at
    i + 2.  A letter strictly between the entries below and above of its
    slot is ordered against every placed slot as sigma says.

    >>> embedding_plan((2, 4, 1, 3))
    ((0, 1), (2, 1), (0, 2), (2, 3))
    >>> embedding_plan((2, 4, 1, 3), 2)
    ((2, 1), (3, 1), (0, 1), (3, 4))
    """
    order = sorted(range(len(sigma)), key=lambda j: j != pin)
    plan = {j: value_neighbours(sigma, order[:k], sigma[j]) for k, j in enumerate(order)}
    return tuple(plan[j] for j in range(len(sigma)))


def _grow(word: Perm, partial: list[tuple[tuple[int, ...], int]], lo: int, hi: int,
          stop: int) -> list[tuple[tuple[int, ...], int]]:
    """Each partial embedding (values, start) extended, in order, by every
    letter of word[start:stop] strictly between values[lo] and values[hi],
    with the position after it as the new start."""
    grown = []
    for values, start in partial:
        low = values[lo]
        high = values[hi]
        for pos in range(start, stop):
            v = word[pos]
            if low < v < high:
                grown.append((values + (v,), pos + 1))
    return grown


def _embeddings(pi: Perm, sigma: Perm, slot: int | None = None,
                position: int = 0) -> list[tuple[tuple[int, ...], int]]:
    """Every embedding of sigma in pi, laid out as embedding_plan says, with
    slot pinned to the letter at the 1-based position when slot is given.
    Empty as soon as one level is."""
    l, n = len(sigma), len(pi)
    plan = embedding_plan(sigma, slot)
    if slot is None:
        # Unpinned, every slot is fenced as if a pin sat past the end.
        slot, position, partial = l, n + 1, [((0, n + 1), 0)]
    else:
        partial = [((0, n + 1, pi[position - 1]), 0)]
    for r, (lo, hi) in enumerate(plan):
        if r == slot:
            partial = [(values, position) for values, _ in partial]
            continue
        # Slot r leaves room for the slots between it and the pin, or the end.
        partial = _grow(pi, partial, lo, hi, position - slot + r if r < slot else n - l + r + 1)
        if not partial:
            break
    return partial


def occurrences(pi: Perm, sigma: Perm) -> list[tuple[int, ...]]:
    """All index sets I (1-based, increasing) with pi[I] order-isomorphic to sigma.

    >>> occurrences((3, 1, 4, 2), (2, 1))
    [(1, 2), (1, 4), (3, 4)]
    """
    return [tuple(pi.index(v) + 1 for v in values[2:]) for values, _ in _embeddings(pi, sigma)]


def contains(pi: Perm, sigma: Perm) -> bool:
    """Exact pattern containment test.

    >>> contains((3, 8, 7, 1, 2, 4, 5, 6, 9), (1, 3, 2))
    True
    >>> contains((1, 2, 3), (2, 1))
    False
    """
    return bool(_embeddings(pi, sigma))


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
    return any(t <= v and l - t <= n - v and _embeddings(pi, sigma, j, position)
               for j, t in enumerate(sigma))


def contains_ending_at_last(pi: Perm, sigma: Perm) -> bool:
    """Containment restricted to occurrences whose last letter is pi's last letter.

    When pi was produced by appending one letter to a sigma-avoiding prefix,
    this is equivalent to full containment.  No command calls it; the
    benchmark's tracer still looks it up by name.
    """
    return not sigma or (len(sigma) <= len(pi)
                         and bool(_embeddings(pi, sigma, len(sigma) - 1, len(pi))))


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
