"""
The core / padding-profile calculus.

Every permutation pi splits uniquely as a core gamma (the pattern of the
prefix up to the last descent) plus a padding profile a, a (k+1)-tuple of
vertical gap sizes filled by the increasing suffix:

    pi_i = gamma_i + sum(a_j for j <= gamma_i)        for i <= k,

with the remaining values placed after position k in increasing order.  The
pair is a valid core decomposition when some coordinate a_i with i <= gamma_k
is positive (equivalently, k really is the last descent); the identity
permutations decompose as the empty core with the single-coordinate profile
(n).
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import InvalidInputError
from .perms import Perm, descents, order_pattern

Profile = tuple[int, ...]


class CoreDecomposition(NamedTuple):
    core: Perm
    profile: Profile


def format_profile(a: Profile) -> str:
    return "(" + ",".join(str(c) for c in a) + ")"


def compose(gamma: Perm, a: Profile) -> Perm:
    """Rebuild the permutation gamma . a of length len(gamma) + sum(a).

    >>> compose((1, 3, 2), (2, 3, 0, 1))
    (3, 8, 7, 1, 2, 4, 5, 6, 9)
    """
    k = len(gamma)
    if len(a) != k + 1:
        raise InvalidInputError(f"profile length {len(a)} != core length {k} + 1")
    if any(c < 0 for c in a):
        raise InvalidInputError(f"profile coordinates must be non-negative: {a!r}")
    n = k + sum(a)
    prefix = []
    running = [0] * (k + 1)
    acc = 0
    for j in range(k + 1):
        acc += a[j]
        running[j] = acc
    for g in gamma:
        prefix.append(g + running[g - 1])
    used = set(prefix)
    suffix = [v for v in range(1, n + 1) if v not in used]
    return tuple(prefix + suffix)


def decompose(pi: Perm) -> CoreDecomposition:
    """Split pi into its core and padding profile (inverse of compose).

    >>> decompose((3, 8, 7, 1, 2, 4, 5, 6, 9))
    CoreDecomposition(core=(1, 3, 2), profile=(2, 3, 0, 1))
    """
    n = len(pi)
    d = descents(pi)
    k = d[-1] if d else 0
    if k == 0:
        return CoreDecomposition((), (n,))
    core = order_pattern(pi[:k])
    values = sorted(pi[:k])
    profile = []
    prev = 0
    for r, v in enumerate(values, start=1):
        profile.append(v - prev - 1)
        prev = v
    profile.append(n - values[-1])
    return CoreDecomposition(core, tuple(profile))


def cap_profile(a: Profile, cap: int) -> Profile:
    """Coordinate-wise min(a_i, cap)."""
    if cap < 1:
        raise InvalidInputError(f"cap must be positive, got {cap}")
    return tuple(min(c, cap) for c in a)


def co_layered(desc: Iterable[int], n: int) -> Perm:
    """The unique 132- and 213-avoiding permutation of length n with descent set desc.

    Built as consecutive increasing runs taking values top-down, so each run
    boundary is a descent.

    >>> co_layered({1, 3, 5}, 6)
    (6, 4, 5, 2, 3, 1)
    """
    positions = sorted(set(desc))
    if positions and not (1 <= positions[0] and positions[-1] <= n - 1):
        raise InvalidInputError(f"descent set {positions} not inside [{n - 1}]")
    boundaries = positions + [n]
    word: list[int] = []
    top = n
    prev = 0
    for b in boundaries:
        run = b - prev
        word.extend(range(top - run + 1, top + 1))
        top -= run
        prev = b
    return tuple(word)
