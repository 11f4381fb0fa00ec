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

One search runs on that plan, compiled once into Python source
(`compile_search`): one nested `for` per slot over the letters after the
slot placed before it, with one test of the slot's value window, so the
embeddings are found depth first with every placed letter in a local.  The
plan also flags a slot dead when no later step of the plan reads the entry
it places and neither does the caller at the end; its loop then stops after
the subtree of its first fitting letter.  That is exact: that letter has the
earliest position, so every completion of a later letter completes it too,
and the entry that tells them apart is never read.  What a question does
with an embedding is a statement the compiled function runs at a fixed
depth: `contains` and `avoids` return at the first one, unpinned;
`contains_through` and `contains_ending_at_last` pin one slot to a given
letter and return at the first one; `occurrences` collects them all.  The
prefix-tree masks and the core obstructions of the enumeration module
compile their own statements, because they read the embeddings of the
pattern's prefixes.  Each compiled search is cached with its pattern and
built on first use.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
def embedding_plan(sigma: Perm, pin: int | None = None,
                   reads: tuple[int, ...] = ()) -> tuple[tuple[int, int, bool], ...]:
    """For each slot j, (lo, hi, dead): the value_neighbours of sigma[j]
    among the slots placed before it, as indices into a partial embedding
    laid out as (0, n + 1, pinned letter, the other slots in order), and
    whether the slot is dead.

    The slot pin, when given, is placed first; with no pin, slot i sits at
    i + 2.  A letter strictly between the entries below and above of its
    slot is ordered against every placed slot as sigma says.  A slot is
    dead when no step of a slot placed after it reads the entry it places,
    and reads, the entries the caller reads once the search is done, leave
    it out too.

    >>> embedding_plan((2, 4, 1, 3))
    ((0, 1, False), (2, 1, False), (0, 2, True), (2, 3, True))
    >>> embedding_plan((2, 4, 1, 3), 2)
    ((2, 1, False), (3, 1, False), (0, 1, False), (3, 4, True))
    >>> embedding_plan((1, 3, 2, 4), reads=(4,))
    ((0, 1, False), (2, 1, False), (2, 3, False), (3, 1, True))
    """
    order = sorted(range(len(sigma)), key=lambda j: j != pin)
    read = set(reads)
    plan = [None] * len(sigma)
    # The k-th slot placed sits at entry k + 2; walk back from the last one.
    for k in range(len(sigma) - 1, -1, -1):
        j = order[k]
        lo, hi = value_neighbours(sigma, order[:k], sigma[j])
        plan[j] = (lo, hi, k + 2 not in read)
        read.update((lo, hi))
    return tuple(plan)


class Nest(NamedTuple):
    """A search over slots 0 .. depth - 1 of an embedding plan; compile_search
    says what each field does."""

    plan: tuple[tuple[int, int, bool], ...]
    pin: int | None
    depth: int
    at: dict[int, str]
    room: bool = True
    guard: str = ""


# CPython compiles at most 20 nested blocks into one function, so a longer
# loop nest goes on in a function defined inside the one that runs out.
_LOOPS_PER_FUNCTION = 20


def _plus(var: str, k: int) -> str:
    """The source of var + k, where the empty var stands for 0."""
    if not var:
        return str(k)
    if k == 0:
        return var
    return f"{var} + {k}" if k > 0 else f"{var} - {-k}"


def _loop_nest(nest: Nest, first: int, start: tuple[str, int], state: str,
               names: Iterator[int]) -> list[str]:
    """Source lines that place slots first .. depth - 1 of nest, the first
    of them searched from the 0-based position _plus(*start) on."""
    plan, pin, depth, at, room, _ = nest
    l = len(plan)
    entry = {j: k + 2 for k, j in enumerate(sorted(range(l), key=lambda j: j != pin))}
    lines: list[str] = []
    breaks: list[str] = []
    pad = ""
    loops = 0
    for r in range(first, depth):
        if loops == _LOOPS_PER_FUNCTION and r != pin:
            name = f"_more{next(names)}"
            more = _loop_nest(nest, r, start, state, names)
            lines[:0] = [f"def {name}():", *[f"    nonlocal {state}"] * bool(state),
                         *("    " + line for line in more)]
            lines += [f"{pad}hit = {name}()", f"{pad}if hit is not None:", f"{pad}    return hit"]
            break
        if r in at:
            lines.append(pad + at[r])
        if r == pin:
            start = ("q", 1)
            continue
        i = entry[r]
        lo, hi, dead = plan[r]
        # Slot r leaves room for the slots between it and the pin, or the end.
        if not room:
            stop = "n"
        elif pin is not None and r < pin:
            stop = _plus("q", r + 1 - pin)
        else:
            stop = _plus("n", r + 1 - l)
        var, k = start
        letters = f"word[{_plus(var, k)}:{stop}]"
        if r + 1 < depth and r + 1 != pin:
            lines.append(f"{pad}for p{i}, e{i} in enumerate({letters}, {_plus(var, k + 1)}):")
            start = (f"p{i}", 0)
        else:
            lines.append(f"{pad}for e{i} in {letters}:")
        pad += "    "
        # The floor e0 and the ceiling e1 bound every letter.
        if lo or hi != 1:
            below = f"e{lo} < " if lo else ""
            above = f" < e{hi}" if hi != 1 else ""
            lines.append(f"{pad}if {below}e{i}{above}:")
            pad += "    "
        if dead:
            breaks.append(pad + "break")
        loops += 1
    else:
        lines.append(pad + at[depth])
        # A break straight after a return would never be reached.
        if breaks and breaks[-1] == pad + "break" and at[depth].startswith("return"):
            breaks.pop()
    return lines + breaks[::-1]


def compile_search(nests: Sequence[Nest], args: str, setup: Sequence[str] = (),
                   finish: Sequence[str] = (), state: str = "") -> Callable:
    """One Python function that runs the embedding search of each nest.

    The function takes args, among them the word, binds n = len(word), the
    floor e0 = 0 and the ceiling e1 = n + 1, runs the setup lines, then each
    nest in turn, then the finish lines.  A nest places slots 0 .. depth - 1
    of its plan, an embedding_plan, left to right, where its guard holds.
    The pinned slot, if any, is the letter e2 at the 0-based position q,
    which the setup binds.  Every other slot is one `for` over the letters
    after the last placed one, binding e<i> for its entry i in the plan's
    layout (and p<i>, the position after it, when the next slot starts
    there), with one test of the slot's window.  With room a slot stops
    where it leaves one letter for each later slot of the plan, before the
    pin or before the end; without it, at the end.  at[r] runs each time
    slots 0 .. r - 1 are placed, at[depth] once per embedding.

    A dead slot breaks after the subtree of its first fitting letter.  That
    letter has the earliest position, so every completion through a later
    letter completes it too, and the entry that tells them apart is never
    read.  Where that subtree is at[depth] alone and it returns, no break
    is written.

    state names the variable the statements rebind, for the functions a nest
    of more than _LOOPS_PER_FUNCTION loops goes on in; what one of those
    returns, unless None, the whole search returns.  The source holds only
    integers from the plans, fixed templates and the caller's statements.
    """
    names = itertools.count(1)
    lines = [f"def search({args}):", "n = len(word)", "e0 = 0", "e1 = n + 1", *setup]
    for nest in nests:
        plan, pin, depth, _, room, guard = nest
        # A word too short for the nest would slice from its end.
        guards = [guard] if guard else []
        if room and pin is None:
            guards.append(f"{len(plan)} <= n")
        elif room:
            guards += [f"{pin} <= q"] * (pin > 0)
            guards += [f"q < {_plus('n', pin + 1 - depth)}"] * (depth - 1 > pin)
        body = _loop_nest(nest, 0, ("", 0), state, names)
        if guards:
            body = [f"if {' and '.join(guards)}:", *("    " + line for line in body)]
        lines += body
    lines += finish
    namespace: dict = {}
    exec("\n    ".join(lines), namespace)
    return namespace["search"]


@lru_cache(maxsize=256)
def _contains_search(sigma: Perm) -> Callable[[Perm], bool]:
    l = len(sigma)
    return compile_search([Nest(embedding_plan(sigma), None, l, {l: "return True"})], "word",
                          finish=["return False"])


@lru_cache(maxsize=256)
def _through_search(sigma: Perm) -> Callable[[Perm, int], bool]:
    # The letter v can only play a slot j with sigma[j] - 1 letters below v
    # and l - sigma[j] above it.
    l = len(sigma)
    nests = [Nest(embedding_plan(sigma, j), j, l, {l: "return True"},
                  guard=f"{t} <= e2 <= {_plus('n', t - l)}") for j, t in enumerate(sigma)]
    return compile_search(nests, "word, q", ["e2 = word[q]"], ["return False"])


@lru_cache(maxsize=256)
def _occurrence_search(sigma: Perm) -> Callable[[Perm], list[tuple[int, ...]]]:
    l = len(sigma)
    every = tuple(range(2, l + 2))
    letters = "".join(f"e{i}, " for i in every)
    nest = Nest(embedding_plan(sigma, None, every), None, l, {l: f"append(({letters}))"})
    return compile_search([nest], "word", ["found = []", "append = found.append"],
                          ["return found"])


def occurrences(pi: Perm, sigma: Perm) -> list[tuple[int, ...]]:
    """All index sets I (1-based, increasing) with pi[I] order-isomorphic to sigma.

    >>> occurrences((3, 1, 4, 2), (2, 1))
    [(1, 2), (1, 4), (3, 4)]
    """
    return [tuple(pi.index(v) + 1 for v in letters) for letters in _occurrence_search(sigma)(pi)]


def contains(pi: Perm, sigma: Perm) -> bool:
    """Exact pattern containment test.

    >>> contains((3, 8, 7, 1, 2, 4, 5, 6, 9), (1, 3, 2))
    True
    >>> contains((1, 2, 3), (2, 1))
    False
    """
    return _contains_search(sigma)(pi)


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
    if not 1 <= position <= len(pi):
        raise InvalidInputError(f"position out of range: k={position}, n={len(pi)}")
    return _through_search(sigma)(pi, position - 1)


def contains_ending_at_last(pi: Perm, sigma: Perm) -> bool:
    """Containment restricted to occurrences whose last letter is pi's last letter.

    When pi was produced by appending one letter to a sigma-avoiding prefix,
    this is equivalent to full containment.  No command calls it; the
    benchmark's tracer still looks it up by name.
    """
    return not sigma or (len(sigma) <= len(pi) and contains_through(pi, sigma, len(pi)))


class Magnitude(NamedTuple):
    """Three-valued pattern statistic: 0, a single descent position k, or infinite.

    Ordering places the infinite value above every finite one; internally the
    infinite value sorts via a rank flag so comparisons never touch a sentinel
    integer.
    """

    rank: int  # 0 = finite, 1 = infinite; leading sort key
    k: int  # the finite value; 0 when infinite

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
        return self.rank == 0

    @property
    def value(self) -> int:
        """The finite value; raises on the infinite magnitude."""
        if not self.is_finite:
            raise InvalidInputError("infinite magnitude has no finite value")
        return self.k

    def exceeds(self, m: int) -> bool:
        """True iff this magnitude is strictly greater than the integer m."""
        return not self.is_finite or self.k > m

    def __str__(self) -> str:
        return "inf" if not self.is_finite else str(self.k)


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
