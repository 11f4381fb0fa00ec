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
with an embedding is one statement the compiled function runs once per
embedding, with every slot placed: `contains` and `avoids` return at the
first one, unpinned; `contains_through` and `contains_ending_at_last` pin
one slot to a given letter and return at the first one.  The prefix-tree
masks and the core obstructions of the enumeration module compile their
own statements, because they read the embeddings of the pattern's
prefixes: a mask's nest places the plan's head, every slot but the last,
and the obstructions take one nest per prefix they record, each with its
own plan.  A pin may be virtual, a loop over the values of a letter
appended to the word: the word's letters are read in their own values, a
letter x below the pin v iff x < v, so one call makes the sites of every
child of a node, to push the children or to count them without building
one.  The masks use only the virtual pin.  Each compiled search is cached
with its pattern and built on first use.
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
    """A search over every slot of plan, an embedding plan or a head of one,
    that runs statement once per placement of them all; compile_search says
    what each field does."""

    plan: tuple[tuple[int, int, bool], ...]
    pin: int | None
    statement: str
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


def _indent(lines: Iterable[str]) -> list[str]:
    return ["    " + line for line in lines]


def _loop_nest(nest: Nest, state: str, names: Iterator[int], hoist: dict[str, str] | None,
               first: int = 0, start: tuple[str, int] = ("", 0), loops: int = 0) -> list[str]:
    """Source lines that place the slots of nest from first on, the first of
    them searched from the 0-based position _plus(*start) on, inside loops
    enclosing loops: first the functions that a nest too deep for this one
    goes on in, then its loops.  hoist is None unless the pin is virtual;
    then it names each slice of word that no pin moves, for the caller to
    bind once."""
    plan, pin, statement, _ = nest
    l = len(plan)
    entry = {j: k + 2 for k, j in enumerate(sorted(range(l), key=lambda j: j != pin))}
    read = set("".join(c if c.isalnum() else " " for c in statement).split())
    once = not statement.startswith("return") and not read & {
        f"e{entry[r]}" for r in range(l) if r != pin}
    defs: list[str] = []

    def place(r: int, start: tuple[str, int], depth: int) -> list[str]:
        """The lines of slot r, wrapped around those of the slots after it,
        inside depth enclosing loops, of which those past the first loops
        are this function's."""
        if r == l:
            return [statement]
        if r == pin:
            return place(r + 1, ("q", 1), depth)
        if depth == _LOOPS_PER_FUNCTION:
            name = f"_more{next(names)}"
            more = _loop_nest(nest, state, names, hoist, r, start)
            more += ["else:", "    return False", "return True"] * once
            defs.extend([f"def {name}():", *[f"    nonlocal {state}"] * bool(state),
                         *_indent(more)])
            # What it returns is passed on only where the statement returns; a
            # nest that ends at its first placement asks whether it found one.
            if once:
                return [f"if not {name}():", "    continue"]
            if statement.startswith("return"):
                return [f"hit = {name}()", "if hit is not None:", "    return hit"]
            return [f"{name}()"]
        i = entry[r]
        lo, hi, dead = plan[r]
        # Slot r leaves room for the slots between it and the pin, or the end.
        stop = _plus("q", r + 1 - pin) if pin is not None and r < pin else _plus("n", r + 1 - l)
        var, k = start
        letters = f"word[{_plus(var, k)}:{stop}]"
        if hoist is not None and not var:
            letters = hoist.setdefault(letters, f"w{len(hoist)}")
        if r + 1 < l and r + 1 != pin:
            loop = f"for p{i}, e{i} in enumerate({letters}, {_plus(var, k + 1)}):"
            start = (f"p{i}", 0)
        else:
            loop = f"for e{i} in {letters}:"
        if once and dead and depth > loops and r < l - 1 - (pin == l - 1):
            # A dead slot between two loops of a for-else chain keeps its
            # first fitting letter, and the later slots go on after its loop.
            body, after = ["break"], ["else:", "    continue", *place(r + 1, start, depth)]
        else:
            body, after = place(r + 1, start, depth + 1), []
            if once:
                # A placement breaks out; the loop inside, if any, running
                # out goes on to this slot's next letter.
                body += ["else:", "    continue"] * body[0].startswith("for") + ["break"]
            elif dead and not body[-1].startswith("return"):
                # A break straight after a return would never be reached.
                body.append("break")
        # The floor e0 and the ceiling e1 bound every letter.
        if lo or hi != 1:
            below = f"e{lo} {'<=' if lo == 2 and hoist is not None else '<'} " if lo else ""
            above = f" < e{hi}" if hi != 1 else ""
            body = [f"if {below}e{i}{above}:", *_indent(body)]
        return [loop, *_indent(body), *after]

    lines = place(first, start, loops)
    return defs + lines


def compile_search(nests: Sequence[Nest], args: str, setup: Sequence[str] = (),
                   finish: Sequence[str] = (), state: str = "", pins: str = "",
                   each: tuple[Sequence[str], Sequence[str]] = ((), ())) -> Callable:
    """One Python function that runs the embedding search of each nest.

    The function takes args, among them the word, binds n = len(word), the
    floor e0 = 0 and the ceiling e1 = n + 1, runs the setup lines, then each
    nest in turn, then the finish lines, unless a last nest that places no
    slot and has no guard returns first.  A nest places every slot of its
    plan, left to right, where its guard holds and the word has room for
    them, and runs its statement once per placement of them all; the plan
    is an embedding_plan or a head of one, its slots 0 .. h - 1.  The
    pinned slot, if any, is the letter e2 at the 0-based position q, which
    the setup binds.  Every other slot is one `for` over the letters after
    the last placed one, binding e<i> for its entry i in the plan's layout
    (and p<i>, the position after it, when the next slot starts there),
    with one test of the slot's window.  A slot stops where it leaves one
    letter for each later slot of the plan, before the pin or before the
    end.

    A dead slot breaks after the subtree of its first fitting letter (see
    the module docstring); where that subtree is a returning statement
    alone, no break is written.  A nest whose statement neither returns nor
    reads a slot's entry ends at its first placement: a loop breaks once
    the loop inside it breaks (a for-else chain) and goes on while that one
    runs out.  A dead slot there, with a loop around it and one inside it,
    breaks at its first fitting letter, and the later slots are placed
    after its loop.

    state names the variable the statements rebind, for the functions a nest
    of more than _LOOPS_PER_FUNCTION loops goes on in; if a nest's statement
    returns, what one of those returns, unless None, the search returns.
    The source holds only integers from the plans, fixed templates and the
    caller's statements.

    With pins, a source expression, the pin is virtual: e2 runs over the
    values of pins, each a letter appended to word at q = n, so the ceiling
    is e1 = n + 2.  The letters of word keep their values: x lies below the
    pin iff x < e2, so a window whose floor is the pin is tested
    `e2 <= e<i>`, and a statement adds one to an entry above the pin.  The
    nests run once per value, between the lines each = (before, after); the
    pin's loop counts against _LOOPS_PER_FUNCTION, and a slice that starts
    at a fixed position is taken once, before it.
    """
    names = itertools.count(1)
    hoist: dict[str, str] | None = {} if pins else None
    body: list[str] = []
    for nest in nests:
        plan, pin, _, guard = nest
        l = len(plan)
        # A word too short for the nest would slice from its end.
        guards = [guard] if guard else []
        if pin is None:
            guards += [f"{l} <= n"] * (l > 0)
        else:
            guards += [f"{pin} <= q"] * (pin > 0)
            guards += [f"q < {_plus('n', pin + 1 - l)}"] * (l - 1 > pin)
        code = _loop_nest(nest, state, names, hoist, loops=int(hoist is not None))
        body += [f"if {' and '.join(guards)}:", *_indent(code)] if guards else code
    if hoist is not None:
        before, after = each
        body = [*(f"{name} = {letters}" for letters, name in hoist.items()), f"for e2 in {pins}:",
                *_indent((*before, *body, *after))]
    if body[-1:] and body[-1].startswith("return"):
        # A finish straight after a return would never be reached.
        finish = ()
    # A virtual pin lengthens the word by one letter, at its end.
    bounds = ["e1 = n + 2", "q = n"] if hoist is not None else ["e1 = n + 1"]
    lines = [f"def search({args}):", "n = len(word)", "e0 = 0", *bounds, *setup, *body, *finish]
    namespace: dict = {}
    exec("\n    ".join(lines), namespace)
    return namespace["search"]


@lru_cache(maxsize=256)
def _contains_search(sigma: Perm) -> Callable[[Perm], bool]:
    nest = Nest(embedding_plan(sigma), None, "return True")
    return compile_search([nest], "word", finish=["return False"])


@lru_cache(maxsize=256)
def _through_search(sigma: Perm) -> Callable[[Perm, int], bool]:
    # The letter v can only play a slot j with sigma[j] - 1 letters below v
    # and l - sigma[j] above it.
    l = len(sigma)
    nests = [Nest(embedding_plan(sigma, j), j, "return True",
                  guard=f"{t} <= e2 <= {_plus('n', t - l)}") for j, t in enumerate(sigma)]
    return compile_search(nests, "word, q", ["e2 = word[q]"], ["return False"])


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
