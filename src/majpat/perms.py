"""
Permutations of [n] = {1, ..., n} in one-line notation.

A permutation is represented by the tuple of its values ``(p(1), ..., p(n))``;
the empty tuple is the (valid) empty permutation.  All positions and values in
this package are 1-based, matching the usual combinatorics conventions; the
0-based shift happens only when indexing into the underlying tuples.

Text forms: a digit string for n <= 9 (``"1324"``) and a comma-separated list
for n >= 10 (``"10,1,2,..."``).  Both are accepted wherever a permutation is
parsed; `format_perm` emits the digit form whenever it is unambiguous.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


def _occurs(word: Perm, sig: Perm, start: int, chosen: list[int], out_pos: list[int] | None) -> Iterator[tuple[int, ...]]:
    # Backtracking over positions for the next pattern slot, pruning by the
    # value interval forced by the already-chosen letters.
    j = len(chosen)
    if j == len(sig):
        yield tuple(p + 1 for p in out_pos) if out_pos is not None else ()
        return
    lo, hi = 0, len(word) + 1
    for t in range(j):
        if sig[t] < sig[j]:
            lo = max(lo, chosen[t])
        else:
            hi = min(hi, chosen[t])
    remaining = len(sig) - j
    for pos in range(start, len(word) - remaining + 1):
        v = word[pos]
        if lo < v < hi:
            chosen.append(v)
            if out_pos is not None:
                out_pos.append(pos)
            yield from _occurs(word, sig, pos + 1, chosen, out_pos)
            chosen.pop()
            if out_pos is not None:
                out_pos.pop()


def occurrences(pi: Perm, sigma: Perm) -> Iterator[tuple[int, ...]]:
    """All index sets I (1-based, increasing) with pi[I] order-isomorphic to sigma."""
    if len(sigma) > len(pi):
        return iter(())
    return _occurs(pi, sigma, 0, [], [])


def contains(pi: Perm, sigma: Perm) -> bool:
    """Exact pattern containment test (backtracking with value-bound pruning).

    >>> contains((3, 8, 7, 1, 2, 4, 5, 6, 9), (1, 3, 2))
    True
    >>> contains((1, 2, 3), (2, 1))
    False
    """
    if len(sigma) == 0:
        return True
    if len(sigma) > len(pi):
        return False
    for _ in _occurs(pi, sigma, 0, [], None):
        return True
    return False


def avoids(pi: Perm, patterns: Iterable[Perm]) -> bool:
    """True iff pi contains none of the given patterns."""
    return not any(contains(pi, sigma) for sigma in patterns)


def contains_ending_at_last(pi: Perm, sigma: Perm) -> bool:
    """Containment restricted to occurrences whose last letter is pi's last letter.

    When pi was produced by appending one letter to a sigma-avoiding prefix,
    this is equivalent to full containment: any new occurrence must use the
    appended position.  The prefix-tree walker does not call it (it reads the
    children off forbidden-site masks); the tests keep it as the oracle for
    those masks.
    """
    s = len(sigma)
    if s == 0:
        return True
    if s > len(pi):
        return False
    last = pi[-1]
    trimmed = pi[:-1]
    # Fix sigma's last slot at the final position; match the rest before it.
    need_above = sigma[s - 1]
    for _ in _match_with_fixed_last(trimmed, sigma, last, need_above, 0, []):
        return True
    return False


def _match_with_fixed_last(word, sig, last_value, last_rank, start, chosen):
    j = len(chosen)
    if j == len(sig) - 1:
        yield True
        return
    lo, hi = 0, len(word) + len(sig) + 2
    for t in range(j):
        if sig[t] < sig[j]:
            lo = max(lo, chosen[t])
        else:
            hi = min(hi, chosen[t])
    # Constraint against the fixed final letter.
    if sig[j] < last_rank:
        hi = min(hi, last_value)
    else:
        lo = max(lo, last_value)
    remaining = len(sig) - 1 - j
    for pos in range(start, len(word) - remaining + 1):
        v = word[pos]
        if lo < v < hi:
            chosen.append(v)
            yield from _match_with_fixed_last(word, sig, last_value, last_rank, pos + 1, chosen)
            chosen.pop()


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
