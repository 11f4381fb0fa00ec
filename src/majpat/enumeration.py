"""
Counting pattern-avoiding permutations by major index.

Two independent computation paths are provided and cross-checked:

* brute force: an iterative walk of the prefix tree that extends prefix
  patterns by appending the next relative rank.  The core path and the
  avoider stream share one walker (`_walk`); the brute table builds its
  children in a loop of its own (`_brute_fill`), which a test cross-checks
  against the walker.  Appending never disturbs the descents already
  present, so the major index is monotone along the tree and the search can
  prune on a major-index ceiling.  Each node carries a bitmask of its
  forbidden sites, the ranks whose appending completes a pattern
  occurrence.  A child inherits its parent's mask (an occurrence that avoids
  the new letter stays one) and adds the sites of the occurrences of each
  pattern's head that end at its new letter, so no candidate child is tested
  for containment.  That search is one function per pattern set, compiled
  from the patterns' embedding plans (`perms.compile_search`).  The brute
  loop counts a table's last two rows at their grandparents, pushing neither.

* cores: every permutation with major index m is core gamma + padding
  profile with maj_plus(gamma) = m.  Appending a letter never lowers
  len + maj, so the same prefix tree, pruned by containment and by the
  ceiling len + maj <= m, yields exactly the candidate cores.  A candidate
  is a core iff some letter below its last one (any letter for the empty
  word) can be appended without completing a pattern, which its mask
  already says.  Whether gamma . a avoids the patterns only depends on the
  profile capped at the longest pattern length K (an occurrence uses at
  most K letters from any inserted run).  An occurrence is a prefix of the
  pattern embedded in gamma plus an increasing tail taken from the padding,
  so each core precomputes the gap-interval demands (obstructions) under
  which gamma . c contains a pattern, by a compiled search that records one
  obstruction per embedding of a pattern prefix, and a capped signature c
  is tested by interval sums.  Counting profiles with a fixed cap signature
  is stars and bars, so each core's avoiding signatures are counted into
  one histogram that gives its exact, eventually polynomial count at every
  length.  A table's cores of length n_max - 1 and n_max - 2 have room for
  one or two padding letters, so their avoiding signatures are the clear
  sites of their masks and of the masks of their descent children, which
  the core walk builds by going on to length n_max - 1.

Both paths thus read the same masks for the permutations of length n_max
whose last descent is at n_max - 1 or n_max - 2, and for those of length
n_max - 1 whose last descent is at n_max - 2 (whose last letter falls).  The
rest of those two rows, and every earlier row, is still cross-checked
between independent routes.
"""
from __future__ import annotations

import json
import os
import pickle
from collections import Counter
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import BinaryIO, Callable, Iterator, NamedTuple, Sequence

from .decomp import Profile
from .errors import InvalidInputError, ResourceLimitError, VerificationError
from .perms import (
    Nest,
    Perm,
    check_perm,
    compile_search,
    embedding_plan,
    format_perm,
    magnitude,
    parse_perm,
    set_magnitude,
    slope,
    value_neighbours,
    Magnitude,
)
from .poly import Polynomial, ZERO

DEFAULT_MAX_NODES = 100_000_000


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"environment variable {name}={raw!r} is not an integer") from exc


def max_nodes_default() -> int:
    return _env_int("MAJPAT_MAX_NODES", DEFAULT_MAX_NODES)


def parallelism_default() -> int:
    return _env_int("MAJPAT_PARALLELISM", 1)


class PatternSet:
    """A deduplicated finite set of nonempty patterns, sorted for determinism.
    Equal and hashed by value; not a tuple, since it iterates its patterns."""

    __slots__ = ("patterns",)

    def __init__(self, patterns: tuple[Perm, ...] = ()):
        seen = sorted({check_perm(p) for p in patterns}, key=lambda p: (len(p), p))
        if any(len(p) == 0 for p in seen):
            raise InvalidInputError("the empty permutation is not a valid pattern")
        self.patterns = tuple(seen)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PatternSet) and self.patterns == other.patterns

    def __hash__(self) -> int:
        return hash(self.patterns)

    def __repr__(self) -> str:
        return f"PatternSet(patterns={self.patterns!r})"

    @staticmethod
    def of(*patterns: Perm | str) -> "PatternSet":
        parsed = tuple(parse_perm(p) if isinstance(p, str) else p for p in patterns)
        return PatternSet(parsed)

    @staticmethod
    def from_text(text: str) -> "PatternSet":
        """Parse a pattern list: ';'-separated permutation texts, or a
        ','-separated list of digit-string patterns when no ';' is present."""
        text = text.strip()
        if not text:
            return PatternSet()
        if ";" in text:
            parts = [seg for seg in text.split(";") if seg.strip()]
            return PatternSet(tuple(parse_perm(p) for p in parts))
        parts = [tok for tok in text.split(",") if tok.strip()]
        try:
            if any(not tok.strip().isdigit() for tok in parts):
                raise InvalidInputError(f"bad pattern token in {text!r}")
            return PatternSet(tuple(parse_perm(p) for p in parts))
        except InvalidInputError as exc:
            raise InvalidInputError(
                f"{exc}; a comma-separated list names one digit-string pattern per "
                "token -- separate patterns with ';' when any pattern itself needs "
                "the comma form"
            ) from exc

    def texts(self) -> list[str]:
        return [format_perm(p) for p in self.patterns]

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    @property
    def max_len(self) -> int:
        return max((len(p) for p in self.patterns), default=0)

    @property
    def cap(self) -> int:
        """Profile cap used by the signature counting; any positive value is
        valid for the empty set, where avoidance never constrains."""
        return self.max_len if self.patterns else 1

    @property
    def magnitude(self) -> Magnitude:
        return set_magnitude(self.patterns)

    @property
    def all_finite_magnitude(self) -> bool:
        return all(magnitude(p).is_finite for p in self.patterns)


def _triangle(n: int) -> int:
    """The largest major index of length n: row n spans m = 0 .. _triangle(n)."""
    return n * (n - 1) // 2


class _Budget:
    __slots__ = ("limit", "left")

    def __init__(self, limit: int | None):
        self.limit = limit if limit is not None else max_nodes_default()
        if self.limit < 0:
            raise InvalidInputError(f"node ceiling must be non-negative, got {self.limit}")
        self.left = self.limit

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise ResourceLimitError(
                "search node budget exceeded; raise --max-nodes / MAJPAT_MAX_NODES"
            )


@lru_cache(maxsize=64)
def _forbidden_sites(sigs: tuple[Perm, ...]) -> tuple[int, Callable[[Perm, int], int]]:
    """The forbidden sites of the empty word, and the search sites(word,
    mask): mask plus the sites forbidden by an occurrence of a pattern that
    uses word's last letter (a length-1 pattern forbids the root's only site).

    Appending rank s puts the new letter between the values s - 1 and s.  It
    completes an occurrence of sigma ending at the last letter iff some
    embedding of the head sigma[:l-1] ends there and its value neighbours of
    sigma[l-1] are a < s <= b (0 and len(word) + 1 at the ends).  The search
    pins slot l - 2 to the last letter, places the head slots before it and
    sets the sites a + 1 .. b of each embedding.  Only a and b are read at
    the end, so the plan counts them as read, and a head slot whose entry
    neither they nor a later step read is dead: the sites come out the same
    from its first fitting letter alone.
    """
    root = 0
    nests = []
    for sigma in sigs:
        l = len(sigma)
        if l == 1:
            root = 0b10
            continue
        plan = embedding_plan(sigma, l - 2)
        below, above, _ = plan[l - 1]
        sites = f"mask |= (2 << e{above}) - (2 << e{below})"
        nests.append(Nest(plan, l - 2, l - 1, {l - 1: sites}))
    return root, compile_search(nests, "word, mask", ["q = n - 1", "e2 = word[q]"],
                                ["return mask"], state="mask")


def _clear_sites(word: Perm, mask: int) -> tuple[int, int]:
    """The clear sites of a node's mask, the ranks whose appending avoids
    every pattern, split as (rising, falling) bit sets: a rank above the
    last letter rises, and the others, down to 1, fall.  The empty word's
    one child falls.

    >>> [bin(sites) for sites in _clear_sites((2, 1, 3), 0b01010)]
    ['0b10000', '0b100']
    """
    n = len(word)
    last = word[n - 1] if n else 1
    clear = ~mask & ((1 << n + 2) - 2)
    falling = clear & ((1 << last + 1) - 1)
    return clear ^ falling, falling


class _Relabel(dict):
    """table[v] relabels a word of length <= longest for appending rank v:
    itemgetter(*word, 0)(table[v]) is the word with every letter x >= v
    raised by one, followed by v.  Each rank's table is built the first time
    a walk looks it up."""

    def __init__(self, longest: int):
        super().__init__()
        self.longest = longest

    def __missing__(self, v: int) -> tuple[int, ...]:
        table = self[v] = (v, *range(1, v), *range(v + 1, self.longest + 2))
        return table


def _walk(sites: Callable[[Perm, int], int], seeds: list[tuple[Perm, int, int]],
          caps: tuple[Sequence[int], Sequence[int]],
          budget: _Budget) -> Iterator[tuple[Perm, int, int]]:
    """Each seed and then its descendants in the avoiders' prefix tree, in
    preorder with children by increasing appended rank, as (word, maj, mask).
    `_brute_fill` builds the same children in a loop of its own.

    caps = (rises, falls), two sequences of one length: a descendant of
    length n is kept while n < len(rises) and its maj is at most rises[n]
    when its last letter rises and at most falls[n] when it falls (as the
    only letter of a word of length 1 does).  A node's maj decides which of
    its children stay, so the caps bound the range of ranks appended, with
    no test per child.  Each expansion spends one node per child it builds.

    Bit s of a mask is set iff appending rank s makes the word contain a
    pattern, so the children are the clear sites.  A child inherits its
    parent's forbidden sites (appending v splits site v in two and shifts
    the sites above it up by one), and then forbids the sites of the
    occurrences that use its new last letter (sites, from `_forbidden_sites`).

    A child is relabelled with one lookup in a table of its rank
    (`_Relabel`), except under the top rank, which relabels nothing and so
    needs no table: a deep walk that only ever appends its top rank builds
    none.  The tables are rebuilt at twice the length of the first node
    that outgrows them, so they follow the depth the walk reaches, not the
    length its caps allow.
    """
    shift = _Relabel(0)
    rises, falls = caps
    stack = seeds[::-1]
    while stack:
        node = stack.pop()
        yield node
        word, mj, mask = node
        n = len(word)
        if n + 1 >= len(rises):
            continue
        if n > shift.longest:
            shift = _Relabel(2 * n)
        rise = rises[n + 1]
        fall = falls[n + 1]
        # Ranks above the last letter rise and keep maj; the others fall,
        # adding n.  The empty word's one child counts as falling.
        last = word[n - 1] if n else 1
        top = n + 1 if mj <= rise else last
        bottom = 1 if mj + n <= fall else last + 1
        relabel = itemgetter(*word, 0)
        depth = len(stack)
        # Highest rank first, so that the stack pops the children in order.
        for v in range(top, bottom - 1, -1):
            if mask >> v & 1:
                continue
            child = relabel(shift[v]) if v <= n else word + (v,)
            inherited = (mask & ((1 << v + 1) - 1)) | ((mask >> v) << v + 1)
            stack.append((child, mj + n if v <= last else mj, sites(child, inherited)))
        budget.spend(len(stack) - depth)


def _brute_fill(rows: list[list[int]], sites: Callable[[Perm, int], int],
                seeds: list[tuple[Perm, int, int]], max_n: int, maj_cap: int,
                budget: _Budget, sources: dict[int, list[Perm]] | None = None) -> None:
    """Tally into rows each seed and its descendants of length <= max_n and
    maj <= maj_cap, built as `_walk` builds them under flat caps, in one loop.
    A node two letters short of row max_n builds its children by increasing
    rank (the walk's preorder), tallies each, collects it into sources by
    maj if given and counts its clear sites into row max_n; a seed one letter
    short counts its own.  Each expansion spends what it builds and counts."""
    shift = _Relabel(0)
    stack = seeds[::-1]
    while stack:
        word, mj, mask = stack.pop()
        n = len(word)
        if n:
            rows[n - 1][mj] += 1
        if n >= max_n - 1:
            if n < max_n:  # a seed one letter short
                if sources is not None:
                    sources.setdefault(mj, []).append(word)
                rising, falling = _clear_sites(word, mask)
                descents = falling.bit_count() if mj + n <= maj_cap else 0
                budget.spend(rising.bit_count() + descents)
                rows[n][mj] += rising.bit_count()
                if descents:
                    rows[n][mj + n] += descents
            continue
        if n > shift.longest:
            shift = _Relabel(2 * n)
        last = word[n - 1] if n else 1
        bottom = 1 if mj + n <= maj_cap else last + 1
        relabel = itemgetter(*word, 0)
        tail = n == max_n - 2
        row, leaves, full = rows[n], rows[n + 1], (1 << n + 3) - 2
        depth, spent = len(stack), 0
        # Pushed children go highest rank first, so that the stack pops them in order.
        for v in range(bottom, n + 2) if tail else range(n + 1, bottom - 1, -1):
            if mask >> v & 1:
                continue
            child = relabel(shift[v]) if v <= n else word + (v,)
            inherited = (mask & ((1 << v + 1) - 1)) | ((mask >> v) << v + 1)
            cm = mj + n if v <= last else mj
            if not tail:
                stack.append((child, cm, sites(child, inherited)))
                continue
            row[cm] += 1
            if sources is not None:
                sources.setdefault(cm, []).append(child)
            # The child's last letter is v: the ranks above it rise, the others fall.
            clear = ~sites(child, inherited) & full
            ascents = (clear >> v + 1).bit_count()
            descents = (clear & ((2 << v) - 1)).bit_count() if cm + n < maj_cap else 0
            leaves[cm] += ascents
            if descents:
                leaves[cm + n + 1] += descents
            spent += 1 + ascents + descents
        budget.spend(len(stack) - depth + spent)


def _zero_rows(max_n: int, maj_cap: int) -> list[list[int]]:
    return [[0] * (min(maj_cap, _triangle(n)) + 1) for n in range(1, max_n + 1)]


def _walk_share(sites: Callable[[Perm, int], int], max_n: int, maj_cap: int, nodes_left: int,
                seeds: list[tuple[Perm, int, int]]) -> tuple[list[list[int]], int]:
    """The rows of the subtrees under seeds, and the nodes they spent of nodes_left."""
    rows = _zero_rows(max_n, maj_cap)
    budget = _Budget(nodes_left)
    _brute_fill(rows, sites, seeds, max_n, maj_cap, budget)
    return rows, budget.limit - budget.left


def _fork_share(args: tuple) -> tuple[int, BinaryIO]:
    """(pid, read end of a pipe) of a forked child that pipes back the pickled
    result of _walk_share(*args), or what it raised.  It ends by os._exit (0
    once all is sent), never by returning into the caller's stack or stdio."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            try:
                result = _walk_share(*args)
            except Exception as exc:
                result = exc
            with open(write, "wb") as pipe:
                pipe.write(pickle.dumps(result))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)
    return pid, open(read, "rb")


def _brute_rows(patterns: PatternSet, max_n: int, maj_cap: int, parallelism: int,
                budget: _Budget, sources: dict[int, list[Perm]] | None = None) -> list[list[int]]:
    root, sites = _forbidden_sites(patterns.patterns)
    rows = _zero_rows(max_n, maj_cap)
    # The caller counts as a worker.  Only the serial walk collects sources.
    workers = min(parallelism, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if workers <= 1 or sources is not None:
        _brute_fill(rows, sites, [((), 0, root)], max_n, maj_cap, budget, sources)
        return rows

    # Deal a frontier deep enough for even shares round-robin, after counting its
    # interior.  The caller walks share 0 and a forked child each other one, each
    # under what the frontier left; rows and spends add up exactly as on one process.
    frontier: list[tuple[Perm, int, int]] = [((), 0, root)]
    n = 0
    while len(frontier) < 64 * workers and frontier and n < max_n:
        if n:
            for _, mj, _ in frontier:
                rows[n - 1][mj] += 1
        walk = _walk(sites, frontier, ([maj_cap] * (n + 2),) * 2, budget)
        frontier = [node for node in walk if len(node[0]) > n]
        n += 1
    workers = max(1, min(workers, len(frontier)))
    job = (sites, max_n, maj_cap, budget.left)
    children, statuses = [], []
    try:
        for i in range(1, workers):
            children.append(_fork_share(job + (frontier[i::workers],)))
        parts = [_walk_share(*job, frontier[::workers])]
        sent = [pipe.read() for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, 9)  # SIGKILL, without importing signal on every start
        raise
    finally:
        # On every path out: a reaped child leaves no process behind.
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for data, status in zip(sent, statuses):
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise ResourceLimitError(f"a worker process ended without its result (exit {code})")
        part = pickle.loads(data)
        if isinstance(part, Exception):
            raise part
        parts.append(part)
    for part, spent in parts:
        budget.spend(spent)
        for row, cells in zip(rows, part):
            for m, count in enumerate(cells):
                row[m] += count
    return rows


def generate_avoiders(n: int, patterns: PatternSet, *,
                      max_nodes: int | None = None) -> Iterator[Perm]:
    """Stream every pattern-avoiding permutation of length n exactly once."""
    if n < 0:
        raise InvalidInputError(f"length must be non-negative, got {n}")
    root, sites = _forbidden_sites(patterns.patterns)
    # maj <= n(n - 1)/2 holds for every prefix of every avoider.
    caps = ([_triangle(n)] * (n + 1),) * 2
    walk = _walk(sites, [((), 0, root)], caps, _Budget(max_nodes))
    return (word for word, _, _ in walk if len(word) == n)


def count_avoiders(n: int, patterns: PatternSet, *,
                   max_nodes: int | None = None) -> int:
    """Exact number of pattern-avoiding permutations of length n."""
    if n < 0:
        raise InvalidInputError(f"length must be non-negative, got {n}")
    if n == 0:
        return 1
    rows = _brute_rows(patterns, n, _triangle(n), 1, _Budget(max_nodes))
    return sum(rows[n - 1])


class MajTable(NamedTuple):
    """Exact counts of avoiders by length (rows, n >= 1) and major index (columns).

    Row n stores columns m = 0 .. min(max_maj, n(n-1)/2); cells beyond the
    triangle are identically zero and rendered blank in CSV.
    """

    patterns: PatternSet
    max_n: int
    max_maj: int
    rows: tuple[tuple[int, ...], ...]

    def entry(self, n: int, m: int) -> int:
        if not (1 <= n <= self.max_n and 0 <= m <= self.max_maj):
            raise InvalidInputError(f"cell ({n}, {m}) outside the computed table")
        row = self.rows[n - 1]
        return row[m] if m < len(row) else 0

    def row_sum(self, n: int) -> int:
        return sum(self.rows[n - 1])

    def column(self, m: int) -> list[int]:
        return [self.entry(n, m) for n in range(1, self.max_n + 1)]

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "patterns": self.patterns.texts(),
            "max_n": self.max_n,
            "max_maj": self.max_maj,
            "rows": [{"n": i + 1, "counts": list(row)} for i, row in enumerate(self.rows)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @staticmethod
    def from_json_obj(obj: dict) -> "MajTable":
        try:
            patterns = PatternSet.of(*obj["patterns"])
            max_n, max_maj = int(obj["max_n"]), int(obj["max_maj"])
            numbers = [int(r["n"]) for r in obj["rows"]]
            rows = tuple(tuple(int(c) for c in r["counts"]) for r in obj["rows"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad table JSON: {exc}") from exc
        # Rows n = 1 .. max_n in order, row n with columns 0 .. min(max_maj, n(n - 1)/2).
        if max_n < 1 or max_maj < 0 or len(rows) != max_n \
                or numbers != list(range(1, max_n + 1)) \
                or any(len(row) != min(max_maj, _triangle(n)) + 1
                       for n, row in enumerate(rows, start=1)):
            raise InvalidInputError(
                f"bad table JSON: rows do not match max_n={max_n}, max_maj={max_maj}")
        return MajTable(patterns, max_n, max_maj, rows)

    def to_csv(self) -> str:
        header = "n," + ",".join(str(m) for m in range(self.max_maj + 1))
        lines = [header]
        for i, row in enumerate(self.rows):
            cells = [str(i + 1)] + [str(c) for c in row]
            cells += [""] * (self.max_maj + 1 - len(row))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @staticmethod
    def rows_from_csv(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """Parse the CSV emission back into (max_maj, ragged rows)."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("n,"):
            raise InvalidInputError("bad table CSV: missing header")
        max_maj = len(lines[0].split(",")) - 2
        rows = []
        for ln in lines[1:]:
            cells = ln.split(",")
            try:
                rows.append(tuple(int(c) for c in cells[1:] if c != ""))
            except ValueError as exc:
                raise InvalidInputError(f"bad table CSV: {exc}") from exc
        return max_maj, tuple(rows)


def maj_table(max_n: int, max_maj: int, patterns: PatternSet, *,
              algorithm: str = "brute", parallelism: int = 1,
              max_nodes: int | None = None) -> MajTable:
    """Compute the full table of counts for 1 <= n <= max_n, 0 <= m <= max_maj.

    algorithm is "brute", "cores", or "both"; both-mode raises
    VerificationError on the first differing cell.  One node ceiling covers
    every walk.
    """
    if max_n < 1:
        raise InvalidInputError(f"max_n must be >= 1, got {max_n}")
    if max_maj < 0:
        raise InvalidInputError(f"max_maj must be >= 0, got {max_maj}")
    if algorithm not in ("brute", "cores", "both"):
        raise InvalidInputError(f"unknown algorithm {algorithm!r}")
    maj_cap = min(max_maj, _triangle(max_n))
    budget = _Budget(max_nodes)
    brute = cores = None
    if algorithm in ("brute", "both"):
        brute = _brute_rows(patterns, max_n, maj_cap, parallelism, budget)
    if algorithm in ("cores", "both"):
        cores = _core_rows(patterns, max_n, maj_cap, budget)
    if algorithm == "both":
        for i, (rb, rc) in enumerate(zip(brute, cores)):
            for m, (vb, vc) in enumerate(zip(rb, rc)):
                if vb != vc:
                    raise VerificationError(
                        f"path disagreement at cell (n={i + 1}, m={m}): "
                        f"brute={vb}, cores={vc}"
                    )
    rows = brute if brute is not None else cores
    return MajTable(patterns, max_n, max_maj, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# Core path

# A demand (lo, hi, d) asks for c[lo] + ... + c[hi] >= d; an obstruction is a
# tuple of demands on disjoint gap intervals, sorted by lo.
Obstruction = tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=256)
def _pattern_plan(sigma: Perm) -> tuple[tuple[tuple[int, int, bool], ...], tuple[tuple, ...]]:
    """How to embed sigma's prefixes and read off their tail demands.

    steps: embedding_plan(sigma), with the demands of every level counted as
    read.  groups[r]: the demands (below, above, d) of the tail sigma[r:],
    one per run of tail letters sharing their value_neighbours in sigma[:r],
    in increasing value order.  Both index the same layout (0, k + 1,
    embedded slots in order).
    """
    groups = []
    for r in range(len(sigma) + 1):
        demand = Counter(value_neighbours(sigma, range(r), t) for t in sorted(sigma[r:]))
        groups.append(tuple((below, above, d) for (below, above), d in demand.items()))
    reads = tuple(sorted({i for group in groups for lo, hi, _ in group for i in (lo, hi)}))
    return embedding_plan(sigma, None, reads), tuple(groups)


@lru_cache(maxsize=256)
def _obstruction_search(sigma: Perm) -> Callable[[Perm, int, Callable], bool | None]:
    """The search search(gamma, max_demand, add) behind `_obstructions` for
    one pattern: it adds the obstruction of each embedding of sigma[:r] in
    gamma at the levels r whose tail is increasing and at most max_demand
    long, and returns True at the first occurrence of sigma in gamma."""
    steps, groups = _pattern_plan(sigma)
    l = len(sigma)
    at = {l: "return True"}
    for r in range(l - slope(sigma), l):
        demands = "".join(f"(e{lo}, e{hi} - 1, {d}), " for lo, hi, d in groups[r])
        at[r] = f"if first <= {r}: add(({demands}))"
    return compile_search([Nest(steps, None, l, at, room=False)], "word, max_demand, add",
                          [f"first = max({l - slope(sigma)}, {l} - max_demand)"])


def _obstructions(gamma: Perm, sigs: tuple[Perm, ...],
                  max_demand: int) -> list[Obstruction] | None:
    """The demand sets under which gamma . c contains a pattern, or None when
    gamma itself contains one.

    An occurrence of sigma in gamma . c is a prefix of sigma embedded in gamma
    followed by an increasing tail of sigma drawn from the suffix.  A tail
    letter whose embedded neighbours in value are the core values lo and hi
    (0 and k + 1 at the ends) lies in one of the gaps lo .. hi - 1; tail
    letters sharing neighbours form one demand, and the demands of one
    embedding sit on disjoint intervals.  So gamma . c contains a pattern iff
    every demand of some obstruction is met.  No demand exceeds the pattern
    length, which is why the capped signature decides avoidance.
    Obstructions needing more than max_demand padding letters are left out.

    Each embedding of a prefix sigma[:r] anywhere in gamma gives one
    obstruction when its tail is increasing and short enough, and an
    embedding of all of sigma is an occurrence in gamma itself.
    """
    found: set[Obstruction] = set()
    for sigma in sigs:
        if _obstruction_search(sigma)(gamma, max_demand, found.add):
            return None
    return _minimal_obstructions(found)


def _minimal_obstructions(found: set[Obstruction]) -> list[Obstruction]:
    """The obstructions of found that imply no other one, sorted.

    One whose demands imply another's adds nothing, since the other is met
    whenever it is.  If a implies b != a, each demand of b holds its own
    demand of a (b's intervals are disjoint), as large or larger on an
    interval as narrow or narrower, so b sorts strictly before a by (number
    of demands, total demand, -total width).  Implication is transitive, so
    in that order a is minimal iff it implies no minimal obstruction kept
    before it.
    """
    kept: list[Obstruction] = []
    for a in sorted(found, key=lambda a: (len(a), sum(d for _, _, d in a),
                                          sum(lo - hi for lo, hi, _ in a))):
        for b in kept:
            if _implies(a, b):
                break
        else:
            kept.append(a)
    return sorted(kept)


def _implies(a: Obstruction, b: Obstruction) -> bool:
    """Whether meeting every demand of a meets every demand of b."""
    for lb, hb, db in b:
        for la, ha, da in a:
            if lb <= la and ha <= hb and db <= da:
                break
        else:
            return False
    return True


def _avoiding_signatures(gamma: Perm, patterns: PatternSet, *, hist: Counter,
                         budget_sum: int | None = None, node_budget: _Budget) -> None:
    """Count in hist, at cell (k + |c|, #{c_i = cap}), every cap signature c
    (coordinates <= cap) of a valid decomposition (some c_i > 0 with
    i < gamma_k, so that k is the last descent) whose composed permutation
    avoids the patterns, optionally restricted to sum(c) <= budget_sum.

    Coordinates are fixed left to right with the later ones still zero, so
    the only obstructions a larger c_j can complete are those whose last
    demand covers j and whose earlier demands already hold; each of them
    caps c_j just below its threshold.  The last one is counted, not walked.
    """
    cap = patterns.cap
    k = len(gamma)
    room = cap * (k + 1) if budget_sum is None else budget_sum
    obstructions = _obstructions(gamma, patterns.patterns, room)
    if obstructions is None:
        return
    # closing[j]: for the obstructions whose last demand (lo, hi, d) covers
    # coordinate j, grouped by their earlier demands, the least d per lo.
    closing: list[dict] = [{} for _ in range(k + 1)]
    for *earlier, (lo, hi, d) in obstructions:
        for j in range(lo, hi + 1):
            least = closing[j].setdefault(tuple(earlier), {})
            least[lo] = min(d, least.get(lo, d))
    checks = [[(earlier, tuple(least.items())) for earlier, least in at_j.items()]
              for at_j in closing]
    gk = gamma[k - 1] if k else 0
    prefix = [0] * (k + 1)  # prefix[j] = c[0] + ... + c[j - 1]
    full = [0] * (k + 1)  # full[j] = #{i < j : c[i] = cap}

    def rec(j: int) -> None:
        used = prefix[j]
        if k and j == gk and not used:
            return
        node_budget.spend()
        top = min(cap, room - used)
        for earlier, least in checks[j]:
            for l, h, e in earlier:
                if prefix[h + 1] - prefix[l] < e:
                    break
            else:
                for lo, d in least:
                    top = min(top, d - 1 - used + prefix[lo])
        if j == k:
            saturated = full[k]
            for v in range(min(top, cap - 1) + 1):
                hist[k + used + v, saturated] += 1
            if top == cap:
                hist[k + used + cap, saturated + 1] += 1
            return
        for v in range(top + 1):
            prefix[j + 1] = used + v
            full[j + 1] = full[j] + (v == cap)
            rec(j + 1)

    rec(0)


class SignatureCounts:
    """Avoiding cap signatures of one or more cores, collapsed into a
    histogram h[(k + |c|, s)] where s counts the saturated coordinates.

    A core of length k with signature c stands for C(n - k - |c| + s - 1,
    s - 1) permutations of length n (stars and bars over the saturated
    coordinates; exactly one at n = k + |c| when s = 0).  The counts, the
    eventual polynomial and its onset all come from this one object.  Built
    with a size budget, the counts are exact only up to that length.  No
    cell is written with zero, so every key of hist is a nonzero cell.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.hist: Counter = Counter()
        self.bound = 0  # every term is polynomial past this length

    def add_core(self, gamma: Perm, patterns: PatternSet, *,
                 budget_sum: int | None = None,
                 node_budget: _Budget) -> None:
        _avoiding_signatures(gamma, patterns, hist=self.hist, budget_sum=budget_sum,
                             node_budget=node_budget)
        k = len(gamma)
        self.bound = max(self.bound, k + self.cap * (k + 1))

    def count(self, n: int) -> int:
        total = 0
        for (size, s), mult in self.hist.items():
            excess = n - size
            if s:
                if excess >= 0:
                    total += mult * comb(excess + s - 1, s - 1)
            elif excess == 0:
                total += mult
        return total

    def series(self, n_max: int) -> list[int]:
        return [self.count(n) for n in range(1, n_max + 1)]

    def eventual_polynomial(self, lowest: int, label: str) -> tuple[Polynomial, int]:
        """The polynomial the counts follow past the bound, self-checked at
        bound + 1, with its exact onset (scanned down to lowest)."""
        poly = ZERO
        for (size, s), mult in sorted(self.hist.items()):
            if s:
                poly = poly + Polynomial.binomial(s - 1, size - (s - 1)).scaled(mult)
        bound = self.bound
        if poly(bound + 1) != self.count(bound + 1):
            raise VerificationError(f"{label} polynomial failed self-check beyond its onset bound")
        onset = bound + 1
        for n in range(bound, lowest - 1, -1):
            if poly(n) == self.count(n):
                onset = n
            else:
                break
        return poly, onset


def count_by_core(gamma: Perm, n: int, patterns: PatternSet, *,
                  max_nodes: int | None = None) -> int:
    """Exact number of avoiders of length n whose core is gamma, refusing a
    gamma that is not a permutation."""
    gamma = check_perm(gamma)
    k = len(gamma)
    if n < k:
        return 0
    counts = SignatureCounts(patterns.cap)
    counts.add_core(gamma, patterns, budget_sum=n - k, node_budget=_Budget(max_nodes))
    return counts.count(n)


def _cores(patterns: PatternSet, ceiling: int, max_len: int,
           budget: _Budget) -> Iterator[tuple[Perm, int, int]]:
    """The cores with len + maj <= ceiling and length <= max_len, in preorder,
    as (gamma, len + maj, sites), sites the bit set of the avoiding unit
    profiles.  The unit profile e_{s-1} appends rank s and is valid iff
    s <= gamma_k (any s for the empty word), so the avoiding ones are the
    falling sites of `_clear_sites`; a node is a core iff there is one
    (avoiding profiles form a down-set)."""
    root, sites = _forbidden_sites(patterns.patterns)
    # Computed from the length, so the caps take no room per unit of ceiling.
    down = range(ceiling, ceiling - max_len - 1, -1)
    for gamma, mj, mask in _walk(sites, [((), 0, root)], (down, down), budget):
        _, sites = _clear_sites(gamma, mask)
        if sites:
            yield gamma, len(gamma) + mj, sites


def _fill_columns(columns: dict[int, SignatureCounts], patterns: PatternSet,
                  n_max: int | None, budget: _Budget) -> None:
    """Walk the cores once and add each core (shorter than n_max, if given)
    to the signature counts of its column len + maj, for the columns given.

    With n_max, only the signatures that reach lengths up to n_max are
    walked, and a core one or two letters short of row n_max is counted from
    masks, one node per signature.  A core of length n_max - 1 takes its
    units, the falling sites of `_clear_sites`.  For a core gamma of length
    n_max - 2 the walk goes on to length n_max - 1 with the column ceiling
    itself as the cap on the maj of a falling child, so it builds every
    descent child w = gamma . s (its last letter falls; (1,) is the child of
    the empty core), and maj(w) is gamma's column len + maj.  A rising child
    there keeps the cap ceiling - len of every other node.  The node w is
    the unit e_{s-1}; appending rank s + 1 to it is the pair 2e_{s-1} and
    rank t > s + 1 the pair e_{s-1} + e_{t-2}, so the pairs are its rising
    sites.  Units and pairs go straight into the column's histogram.  Every
    core with more room, and every core without n_max, goes through its
    obstructions and the signature walk.
    """
    root, sites = _forbidden_sites(patterns.patterns)
    ceiling = max(columns)
    max_len = ceiling if n_max is None else min(ceiling, n_max - 1)
    down = range(ceiling, ceiling - max_len - 1, -1)
    caps = down, down
    short = n_max is not None and 2 <= n_max <= max_len + 2
    if short:
        down = range(ceiling, ceiling - n_max, -1)
        caps = down, [*down[:n_max - 1], ceiling]
    for word, mj, mask in _walk(sites, [((), 0, root)], caps, budget):
        k = len(word)
        if short and k == n_max - 1 and (k == 1 or word[k - 1] < word[k - 2]):
            # word = gamma . s for a core gamma of length n_max - 2.
            counts = columns.get(mj)
            if counts is not None:
                s = word[k - 1]
                rising, _ = _clear_sites(word, mask)
                same = rising >> s + 1 & 1
                other = rising.bit_count() - same
                budget.spend(same + other)
                hist, cap = counts.hist, counts.cap
                hist[k, int(cap == 1)] += 1
                if same and cap >= 2:  # with cap 1, 2e_{s-1} is the unit e_{s-1}
                    hist[k + 1, int(cap == 2)] += same
                if other:
                    hist[k + 1, 2 if cap == 1 else 0] += other
        counts = columns.get(k + mj)
        room = None if n_max is None else n_max - k
        # A core with room 2 is counted through its descent children.
        if counts is None or k > max_len or room == 2:
            continue
        _, sites = _clear_sites(word, mask)
        if not sites:
            continue
        if room == 1:
            units = sites.bit_count()
            budget.spend(units)
            counts.hist[k + 1, int(counts.cap == 1)] += units
        else:
            counts.add_core(word, patterns, node_budget=budget, budget_sum=room)


def _core_rows(patterns: PatternSet, max_n: int, maj_cap: int,
               budget: _Budget) -> list[list[int]]:
    columns = {mp: SignatureCounts(patterns.cap) for mp in range(maj_cap + 1)}
    _fill_columns(columns, patterns, max_n, budget)
    rows = _zero_rows(max_n, maj_cap)
    for n, row in enumerate(rows, start=1):
        for mp in range(len(row)):
            row[mp] = columns[mp].count(n)
    return rows


class CoreSet(NamedTuple):
    """All distinct cores of avoiders with a given extended major index, each
    with its minimal avoiding profiles (the admissible unit profiles)."""

    m: int
    patterns: PatternSet
    cores: tuple[Perm, ...]
    profiles: tuple[tuple[Profile, ...], ...]


def _unit_profiles(k: int, sites: int) -> tuple[Profile, ...]:
    """The unit profiles e_{s-1} of the set bits s of sites, by increasing s."""
    return tuple(tuple(int(j == s - 1) for j in range(k + 1))
                 for s in range(1, k + 2) if sites >> s & 1)


def core_set(m: int, patterns: PatternSet, *, max_nodes: int | None = None) -> CoreSet:
    """All cores gamma with maj_plus(gamma) = m admissible for the pattern set,
    with their unit profiles read off the walk's masks.  The node ceiling
    bounds the walk.
    """
    if m < 0:
        raise InvalidInputError(f"major index must be non-negative, got {m}")
    found = sorted((len(gamma), gamma, sites) for gamma, mp, sites
                   in _cores(patterns, m, m, _Budget(max_nodes)) if mp == m)
    return CoreSet(m, patterns, tuple(gamma for _, gamma, _ in found),
                   tuple(_unit_profiles(k, sites) for k, _, sites in found))


def column_counts(m: int, patterns: PatternSet, *, n_max: int | None = None,
                  max_nodes: int | None = None) -> SignatureCounts:
    """The signature counts of every core of the m-column.

    With n_max, only the cores and signatures that reach lengths up to n_max
    are walked, and the counts are exact up to n_max.  One node ceiling
    covers the core tree and the signature walks.
    """
    if m < 0:
        raise InvalidInputError(f"major index must be non-negative, got {m}")
    counts = SignatureCounts(patterns.cap)
    _fill_columns({m: counts}, patterns, n_max, _Budget(max_nodes))
    return counts


def core_polynomial(gamma: Perm, patterns: PatternSet) -> tuple[Polynomial, int]:
    """The eventual polynomial of the fixed-core counts, with its exact onset.

    The per-signature term C(n - k - |c| + s - 1, s - 1) (s = saturated
    coordinates) is exact once n clears k + |c| - s + 1; signatures with no
    saturated coordinate only contribute at the single length k + |c|.  The
    onset returned is minimal for the full sum.  A gamma that is not a
    permutation is refused.
    """
    gamma = check_perm(gamma)
    counts = SignatureCounts(patterns.cap)
    counts.add_core(gamma, patterns, node_budget=_Budget(None))
    return counts.eventual_polynomial(0, f"core {format_perm(gamma) or '(empty)'}")


def eventual_polynomial(m: int, patterns: PatternSet, *,
                        max_nodes: int | None = None) -> tuple[Polynomial, int]:
    """The polynomial eventually equal to the m-column, with its exact onset."""
    counts = column_counts(m, patterns, max_nodes=max_nodes)
    return counts.eventual_polynomial(1, f"m={m} column")


def major_count_series(m: int, patterns: PatternSet, n_max: int, *,
                       algorithm: str = "cores",
                       max_nodes: int | None = None) -> list[int]:
    """The exact counts for n = 1..n_max at a fixed major index."""
    if n_max < 1:
        raise InvalidInputError(f"n_max must be >= 1, got {n_max}")
    if algorithm == "cores":
        return column_counts(m, patterns, n_max=n_max, max_nodes=max_nodes).series(n_max)
    if algorithm == "brute":
        table = maj_table(n_max, m, patterns, algorithm="brute", max_nodes=max_nodes)
        return table.column(m)
    raise InvalidInputError(f"unknown algorithm {algorithm!r}")
