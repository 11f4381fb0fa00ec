"""
Counting pattern-avoiding permutations by major index.

Two independent computation paths are provided and cross-checked:

* brute force: an iterative walk of the prefix tree that extends prefix
  patterns by appending the next relative rank.  One walker (`_walk`)
  builds every interior node, for the core path, the avoider stream and the
  brute table.  Appending never disturbs the descents already present, so
  the major index is monotone along the tree and the search can prune on a
  major-index ceiling.  Each node carries a bitmask of its forbidden sites,
  the ranks whose appending completes a pattern occurrence.  A child
  inherits its parent's mask (an occurrence that avoids the new letter stays
  one) and adds the sites of the occurrences of each pattern's head that end
  at its new letter, so no candidate child is tested for containment.  Each
  pattern gives one nest, compiled from its embedding plan
  (`perms.compile_search`), and a pattern set's nests make every child's
  mask in two compiled searches (`_forbidden_sites`).  Each loops over a
  node's clear ranks v and reads every child in the node's own letters,
  with v a virtual pin above a letter x iff x < v: one call of the expander
  pushes a node's children for the walker, and one call of the counter
  counts them.  The brute table
  counts its last two rows at their grandparents (`_brute_fill`) through
  the counter, which builds child words only for the sources; a test
  checks those against the avoider stream.

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
  obstruction per embedding of a proper pattern prefix (a core avoids every
  pattern), with one nest per prefix length it records, and a capped
  signature c is tested by interval sums.  Counting profiles with a fixed
  cap signature is stars and bars, so each core's avoiding signatures are
  counted into one histogram (`SignatureCounts`) that gives its exact,
  eventually polynomial count at every length.  A table's cores of length
  n_max - 1 and n_max - 2 have room for one or two padding letters: the
  core walk stops two letters short, and each node there reads their
  avoiding signatures off its own mask and its children's, through a
  virtual pin, into exact cells of those two rows, with no cap.  Of these,
  only the root of a one-row table takes the signature walk.

Both paths thus read the same masks, through the same compiled counter, for
the permutations of length n_max whose last descent is at n_max - 1 or
n_max - 2, and for those of length n_max - 1 whose last descent is at
n_max - 2.  The rest of those two rows, and every earlier row, is still
cross-checked between independent routes.
"""
from __future__ import annotations

import os
import pickle
from collections import Counter
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import BinaryIO, Callable, Iterator, NamedTuple, Sequence

from .errors import InvalidInputError, ResourceLimitError, VerificationError
from .perms import (
    Nest,
    Perm,
    avoids,
    check_perm,
    compile_search,
    embedding_plan,
    format_perm,
    magnitude,
    order_pattern,
    parse_perm,
    set_magnitude,
    slope,
    value_neighbours,
    Magnitude,
)
from .poly import Polynomial, ZERO

DEFAULT_MAX_NODES = 100_000_000


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
        self.limit = limit if limit is not None else DEFAULT_MAX_NODES
        if self.limit < 0:
            raise InvalidInputError(f"node ceiling must be non-negative, got {self.limit}")
        self.left = self.limit

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise ResourceLimitError("search node budget exceeded; raise --max-nodes")


@lru_cache(maxsize=64)
def _forbidden_sites(sigs: tuple[Perm, ...]) -> tuple[int, Callable[..., None], Callable]:
    """(root, expand, count): the forbidden sites of the empty word (a
    length-1 pattern forbids its only site), and the two searches, compiled
    from one nest per longer pattern, that push a node's children (`_walk`)
    and count them (`_brute_fill`, `_core_children`).

    Bit s of a mask is set iff appending rank s makes the word contain a
    pattern.  Both searches loop over a node's clear ranks v, each a virtual
    pin: the child of rank v, read in the node's own letters, a letter x
    below it iff x < v.  The child inherits the node's mask split at v
    (appending v splits site v in two and shifts the sites above it up by
    one) and adds the sites of the occurrences that end at v.  Rank s
    completes an occurrence of sigma there iff some embedding of the head
    sigma[:l-1] ends at v and its value neighbours of sigma[l-1] are
    a < s <= b in the child (0 and the child's length + 1 at the ends),
    where a letter above the pin is one higher than in the node.  The nest
    pins slot l - 2, places the head slots before it and sets the sites
    a + 1 .. b of each embedding.  Only a and b are read at the end, so the
    plan counts them as read, and a head slot whose entry neither they nor
    a later step read is dead: the sites come out the same from its first
    fitting letter alone.

    expand(word, parent, mj, falling, push, relabel, shift) pushes each
    (child, maj, mask) from the top rank down, so that a stack pops them in
    order, to rank 1 if falling and to the last letter + 1 if not; a child
    under the top rank is relabel(shift[v]).  count(word, parent, mj,
    falling, rising, sources=None, relabel=None, shift=None) reads the
    falling children (the ranks up to the last letter, and the empty word's
    one child) if falling and the rising ones if rising, by increasing rank.
    It returns, for the falling children and then the rising ones, how many
    there are, their rising clear sites and their falling clear sites.  Only
    sources, if given, gets the child words, by maj.
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
        # Entry i > 2 holds head slot i - 3.
        ends = (f"e{i}" + " + 1" * (i > 2 and sigma[i - 3] > sigma[l - 2]) for i in (above, below))
        forbid = "mask |= (2 << {}) - (2 << {})".format(*ends)
        nests.append(Nest(plan[:l - 1], l - 2, forbid))
    setup = ["last = word[n - 1] if n else 1"]
    inherit = ["if parent >> e2 & 1:", "    continue",
               "mask = (parent & ((1 << e2 + 1) - 1)) | ((parent >> e2) << e2 + 1)"]
    child = "relabel(shift[e2]) if e2 <= n else (*word, e2)"
    sums = "fell, fell_up, fell_down, rose, rose_up, rose_down"
    expand = compile_search(
        nests, "word, parent, mj, falling, push, relabel, shift", setup, (), "mask",
        "range(n + 1, 0 if falling else last, -1)",
        (inherit, [f"push(({child}, mj + n if e2 <= last else mj, mask))"]))
    count = compile_search(
        nests, "word, parent, mj, falling, rising, sources=None, relabel=None, shift=None",
        [*setup, "full = (1 << n + 3) - 2", sums.replace(",", " =") + " = 0"], [f"return {sums}"],
        "mask", "range(1 if falling else last + 1, n + 2 if rising else last + 1)",
        (inherit,
         ["if sources is not None:",
          f"    sources.setdefault(mj + n if e2 <= last else mj, []).append({child})",
          "clear = ~mask & full", "falls = (clear & ((2 << e2) - 1)).bit_count()",
          "rises = clear >> e2 + 1", "if e2 > last:", "    rose += 1",
          "    rose_up += rises.bit_count()", "    rose_down += falls", "    continue",
          "fell += 1", "fell_up += rises.bit_count()", "fell_down += falls"]))
    return root, expand, count


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


def _walk(expand: Callable[..., None], seeds: list[tuple[Perm, int, int]], caps: Sequence[int],
          budget: _Budget) -> Iterator[tuple[Perm, int, int]]:
    """Each seed and then its descendants in the avoiders' prefix tree, in
    preorder with children by increasing appended rank, as (word, maj, mask).
    It builds every node above a brute table's last level (`_brute_fill`).

    A descendant of length n is kept while n < len(caps) and its maj is at
    most caps[n].  A node's maj decides which of its children stay, so the
    caps bound the range of ranks appended, with no test per child.  Each
    node is expanded by one call of expand (from `_forbidden_sites`), which
    pushes its children onto the stack, and spends one node per child.

    A child is relabelled with one lookup in a table of its rank
    (`_Relabel`), except under the top rank, which relabels nothing and so
    needs no table: a deep walk that only ever appends its top rank builds
    none.  The tables are rebuilt at twice the length of the first node
    that outgrows them, so they follow the depth the walk reaches, not the
    length its caps allow.
    """
    shift = _Relabel(0)
    stack = seeds[::-1]
    push = stack.append
    while stack:
        node = stack.pop()
        yield node
        word, mj, mask = node
        n = len(word)
        # Ranks above the last letter rise and keep maj; the others fall,
        # adding n.  The empty word's one child counts as falling.
        if n + 1 < len(caps) and mj <= caps[n + 1]:
            if n > shift.longest:
                shift = _Relabel(2 * n)
            depth = len(stack)
            expand(word, mask, mj, mj + n <= caps[n + 1], push, itemgetter(*word, 0), shift)
            budget.spend(len(stack) - depth)


def _brute_fill(rows: list[list[int]], sites: tuple[int, Callable, Callable],
                seeds: list[tuple[Perm, int, int]], max_n: int, maj_cap: int,
                budget: _Budget, sources: dict[int, list[Perm]] | None = None) -> None:
    """Tally into rows each seed and its descendants of length <= max_n and
    maj <= maj_cap, with the searches of `_forbidden_sites`.  `_walk` builds
    every node above row max_n - 1 under flat caps.  A node two letters
    short of row max_n counts its children, and their clear sites into row
    max_n, from one call of count: a falling child adds n to the node's
    maj, and a falling grandchild n + 1 more, so the cap leaves out the
    falling children, or only the falling grandchildren, by direction.
    Only sources, if given, gets the child words, by maj in the walk's
    preorder.  A node one letter short (the root at max_n = 1, or a
    frontier seed) counts its own.  Each spends what it builds and counts."""
    _, expand, count = sites
    shift = _Relabel(max_n)
    for word, mj, mask in _walk(expand, seeds, [maj_cap] * (max_n - 1), budget):
        n = len(word)
        if n:
            rows[n - 1][mj] += 1
        if n == max_n - 1:
            if sources is not None:
                sources.setdefault(mj, []).append(word)
            rising, falling = _clear_sites(word, mask)
            descents = falling.bit_count() if mj + n <= maj_cap else 0
            budget.spend(rising.bit_count() + descents)
            rows[n][mj] += rising.bit_count()
            if descents:
                rows[n][mj + n] += descents
        elif n == max_n - 2:
            fell, fell_up, fell_down, rose, rose_up, rose_down = count(
                word, mask, mj, mj + n <= maj_cap, True, sources,
                sources is not None and itemgetter(*word, 0), shift)
            row, leaves = rows[n], rows[n + 1]
            row[mj] += rose
            leaves[mj] += rose_up
            spent = rose + rose_up
            if mj + n < maj_cap:
                leaves[mj + n + 1] += rose_down
                spent += rose_down
            if fell:
                row[mj + n] += fell
                leaves[mj + n] += fell_up
                spent += fell + fell_up
                if mj + 2 * n < maj_cap:
                    leaves[mj + 2 * n + 1] += fell_down
                    spent += fell_down
            budget.spend(spent)


def _zero_rows(max_n: int, maj_cap: int) -> list[list[int]]:
    return [[0] * (min(maj_cap, _triangle(n)) + 1) for n in range(1, max_n + 1)]


def _walk_share(sites: tuple[int, Callable, Callable], max_n: int, maj_cap: int, nodes_left: int,
                seeds: list[tuple[Perm, int, int]]) -> tuple[list[list[int]], int]:
    """A child's rows of the subtrees under seeds, and the nodes they spent of nodes_left."""
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
    root, expand, _ = sites = _forbidden_sites(patterns.patterns)
    rows = _zero_rows(max_n, maj_cap)
    # The caller counts as a worker.  With more than one, deal a frontier deep
    # enough for even shares round-robin, after counting its interior.  The
    # caller walks share 0 straight into rows (and sources, whole with one
    # worker) under the run's ceiling, and a forked child each other one under
    # what the frontier left; rows and spends add up exactly as on one process.
    workers = min(parallelism, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    frontier: list[tuple[Perm, int, int]] = [((), 0, root)]
    n = 0
    while workers > 1 and len(frontier) < 64 * workers and frontier and n < max_n:
        if n:
            for _, mj, _ in frontier:
                rows[n - 1][mj] += 1
        walk = _walk(expand, frontier, [maj_cap] * (n + 2), budget)
        frontier = [node for node in walk if len(node[0]) > n]
        n += 1
    workers = max(1, min(workers, len(frontier)))
    job = (sites, max_n, maj_cap, budget.left)
    children, statuses = [], []
    try:
        for i in range(1, workers):
            children.append(_fork_share(job + (frontier[i::workers],)))
        _brute_fill(rows, sites, frontier[::workers], max_n, maj_cap, budget, sources)
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
        cells, spent = part
        budget.spend(spent)
        for row, counts in zip(rows, cells):
            for m, count in enumerate(counts):
                row[m] += count
    return rows


def generate_avoiders(n: int, patterns: PatternSet, *,
                      max_nodes: int | None = None) -> Iterator[Perm]:
    """Stream every pattern-avoiding permutation of length n exactly once."""
    if n < 0:
        raise InvalidInputError(f"length must be non-negative, got {n}")
    root, expand, _ = _forbidden_sites(patterns.patterns)
    # maj <= n(n - 1)/2 holds for every prefix of every avoider.
    walk = _walk(expand, [((), 0, root)], [_triangle(n)] * (n + 1), _Budget(max_nodes))
    return (word for word, _, _ in walk if len(word) == n)


def count_avoiders(n: int, patterns: PatternSet, *,
                   max_nodes: int | None = None) -> int:
    """Exact number of pattern-avoiding permutations of length n."""
    if n < 0:
        raise InvalidInputError(f"length must be non-negative, got {n}")
    rows = _brute_rows(patterns, n, _triangle(n), 1, _Budget(max_nodes))
    return sum(rows[n - 1]) if n else 1  # n = 0: no rows, and the empty word


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

    def to_csv(self) -> str:
        header = "n," + ",".join(str(m) for m in range(self.max_maj + 1))
        lines = [header]
        for i, row in enumerate(self.rows):
            cells = [str(i + 1)] + [str(c) for c in row]
            cells += [""] * (self.max_maj + 1 - len(row))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def maj_table(max_n: int, max_maj: int, patterns: PatternSet, *,
              algorithm: str = "brute", parallelism: int = 1,
              max_nodes: int | None = None) -> MajTable:
    """Compute the full table of counts for 1 <= n <= max_n, 0 <= m <= max_maj.

    algorithm is "brute", "cores", or "both"; both-mode raises
    VerificationError on the first differing cell.  One node ceiling covers
    every walk, and each m past n(n - 1)/2 of row max_n costs it one node.
    Parallelism below 1 is refused.
    """
    if max_n < 1:
        raise InvalidInputError(f"max_n must be >= 1, got {max_n}")
    if max_maj < 0:
        raise InvalidInputError(f"max_maj must be >= 0, got {max_maj}")
    if algorithm not in ("brute", "cores", "both"):
        raise InvalidInputError(f"unknown algorithm {algorithm!r}")
    if parallelism < 1:
        raise InvalidInputError(f"parallelism must be >= 1, got {parallelism}")
    maj_cap = min(max_maj, _triangle(max_n))
    budget = _Budget(max_nodes)
    budget.spend(max_maj - maj_cap)
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
def _obstruction_search(sigma: Perm) -> Callable[[Perm, int, Callable], None]:
    """The search search(gamma, max_demand, add) behind `_obstructions` for
    one pattern: one nest per level r whose tail sigma[r:] is increasing,
    which places sigma[:r] and, where the tail is at most max_demand long,
    adds the obstruction of each embedding.  A level's demands are the runs
    of tail letters sharing their value_neighbours in sigma[:r], in
    increasing value order; only the entries they read count as read."""
    l = len(sigma)
    nests = []
    for r in range(l - slope(sigma), l):
        demand = Counter(value_neighbours(sigma, range(r), t) for t in sorted(sigma[r:]))
        reads = tuple(sorted({i for pair in demand for i in pair}))
        demands = "".join(f"(e{lo}, e{hi} - 1, {d}), " for (lo, hi), d in demand.items())
        plan = embedding_plan(order_pattern(sigma[:r]), None, reads)
        nests.append(Nest(plan, None, f"add(({demands}))", f"first <= {r}"))
    return compile_search(nests, "word, max_demand, add",
                          [f"first = max({l - slope(sigma)}, {l} - max_demand)"])


def _obstructions(gamma: Perm, sigs: tuple[Perm, ...], max_demand: int) -> list[Obstruction]:
    """The demand sets under which gamma . c contains a pattern, for a gamma
    that avoids every pattern.

    An occurrence of sigma in gamma . c is a prefix of sigma embedded in gamma
    followed by an increasing tail of sigma drawn from the suffix.  A tail
    letter whose embedded neighbours in value are the core values lo and hi
    (0 and k + 1 at the ends) lies in one of the gaps lo .. hi - 1; tail
    letters sharing neighbours form one demand, and the demands of one
    embedding sit on disjoint intervals.  So gamma . c contains a pattern iff
    every demand of some obstruction is met.  No demand exceeds the pattern
    length, which is why the capped signature decides avoidance.
    Obstructions needing more than max_demand padding letters are left out.

    Each embedding of a proper prefix sigma[:r] anywhere in gamma gives one
    obstruction when its tail is increasing and short enough.
    """
    found: set[Obstruction] = set()
    for sigma in sigs:
        _obstruction_search(sigma)(gamma, max_demand, found.add)
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


def _avoiding_signatures(gamma: Perm, counts: SignatureCounts, *, room: int,
                         node_budget: _Budget) -> None:
    """Count in counts.hist, at cell (k + |c|, #{c_i = cap}), every cap
    signature c (coordinates <= counts.cap) with sum(c) <= room of a valid
    decomposition (some c_i > 0 with i < gamma_k, so that k is the last
    descent) whose composed permutation avoids the patterns of counts.
    gamma itself must avoid them, as every core the walk yields does.

    Coordinates are fixed left to right with the later ones still zero, so
    the only obstructions a larger c_j can complete are those whose last
    demand covers j and whose earlier demands already hold; each of them
    caps c_j just below its threshold.  The last one is counted, not walked.
    """
    cap, hist = counts.cap, counts.hist
    k = len(gamma)
    obstructions = _obstructions(gamma, counts.patterns.patterns, room)
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
    eventual polynomial and its onset all come from this one object, which
    holds the pattern set and its cap (or any larger one, set before the
    first core).  Built with a size budget, the counts are exact only up to
    that length; a table's last two rows are exact cells (`_core_children`),
    so the counts hold only up to its last row.  No cell is written with zero.
    """

    def __init__(self, patterns: PatternSet):
        self.patterns = patterns
        self.cap = patterns.cap
        self.hist: Counter = Counter()
        self.bound = 0  # every term is polynomial past this length

    def add_core(self, gamma: Perm, node_budget: _Budget, room: int | None = None) -> None:
        """Add the avoiding signatures of gamma with at most room padding
        letters; every one of them, up to cap * (k + 1), when room is None."""
        k = len(gamma)
        full = self.cap * (k + 1)
        _avoiding_signatures(gamma, self, room=full if room is None else room,
                             node_budget=node_budget)
        self.bound = max(self.bound, k + full)

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


def _core_counts(gamma: Perm, patterns: PatternSet, budget: _Budget,
                 room: int | None = None) -> SignatureCounts:
    """The signature counts of gamma alone, with room as in `add_core`;
    none for a negative room or a gamma that contains a pattern."""
    counts = SignatureCounts(patterns)
    if (room is None or room >= 0) and avoids(gamma, patterns.patterns):
        counts.add_core(gamma, budget, room)
    return counts


def count_by_core(gamma: Perm, n: int, patterns: PatternSet, *,
                  max_nodes: int | None = None) -> int:
    """Exact number of avoiders of length n whose core is gamma, refusing a
    gamma that is not a permutation; 0 for a gamma that contains a pattern."""
    gamma = check_perm(gamma)
    return _core_counts(gamma, patterns, _Budget(max_nodes), n - len(gamma)).count(n)


def _cores(patterns: PatternSet, ceiling: int, max_len: int,
           budget: _Budget) -> Iterator[tuple[Perm, int, int]]:
    """The cores with len + maj <= ceiling and length <= max_len, in preorder,
    as (gamma, len + maj, sites), sites the bit set of the avoiding unit
    profiles.  The unit profile e_{s-1} appends rank s and is valid iff
    s <= gamma_k (any s for the empty word), so the avoiding ones are the
    falling sites of `_clear_sites`; a node is a core iff there is one
    (avoiding profiles form a down-set)."""
    root, expand, _ = _forbidden_sites(patterns.patterns)
    # Computed from the length, so the caps take no room per unit of ceiling.
    down = range(ceiling, ceiling - max_len - 1, -1)
    for gamma, mj, mask in _walk(expand, [((), 0, root)], down, budget):
        _, sites = _clear_sites(gamma, mask)
        if sites:
            yield gamma, len(gamma) + mj, sites


def _core_children(count: Callable[..., tuple[int, ...]], columns: dict[int, SignatureCounts],
                   word: Perm, mj: int, mask: int) -> int:
    """Count into columns the children w = word . v of a node of length k
    two letters short of the last row, read by count (from
    `_forbidden_sites`), and return the nodes spent, one per child and
    signature.  A falling w is the unit e_{v-1} in column k + maj, and its
    rising sites t the pairs e_{v-1} + e_{t-2}.  Each w's falling sites are
    its units, in column 2k + 1 + maj if it falls and k + 1 + maj if not.
    No later row is read, so each is an exact cell (k + 1 or k + 2, 0) and
    no cap is read.  The counter leaves out unwanted columns' children."""
    k = len(word)
    own, fall, rise = (columns.get(c) for c in (k + mj, 2 * k + 1 + mj, k + 1 + mj))
    units, pairs, down, rose, _, up = count(
        word, mask, mj, own is not None or fall is not None, rise is not None)
    spent = units + rose
    if own is not None and units:
        own.hist[k + 1, 0] += units
    for counts, found in ((own, pairs), (fall, down), (rise, up)):
        if counts is not None and found:
            spent += found
            counts.hist[k + 2, 0] += found
    return spent


def _fill_columns(patterns: PatternSet, wanted: Sequence[int], n_max: int | None,
                  budget: _Budget) -> dict[int, SignatureCounts]:
    """The signature counts of the wanted columns, from one walk that adds
    each core (shorter than n_max, if given) to its column len + maj.

    With n_max, only the signatures that reach lengths up to n_max are
    walked, and the walk stops two letters short of row n_max: each node
    there, with room for two padding letters, counts its children from
    masks (`_core_children`).  Every other core goes through its
    obstructions and the signature walk (`SignatureCounts.add_core`): each
    core with room 3 or more, the root of a one-row table, and every core
    without n_max.
    """
    columns = {mp: SignatureCounts(patterns) for mp in wanted}
    root, expand, count = _forbidden_sites(patterns.patterns)
    ceiling = max(columns)
    # A node of length k is kept while maj <= ceiling - k, and with n_max
    # while k <= n_max - 2, so only the root at n_max = 1 has room 1.
    depth = ceiling + 1 if n_max is None else min(n_max - 1, ceiling + 1)
    down = range(ceiling, ceiling - depth, -1)
    for word, mj, mask in _walk(expand, [((), 0, root)], down, budget):
        k = len(word)
        room = None if n_max is None else n_max - k
        if room == 2:
            budget.spend(_core_children(count, columns, word, mj, mask))
        elif k + mj in columns and _clear_sites(word, mask)[1]:
            columns[k + mj].add_core(word, budget, room)
    return columns


def _core_rows(patterns: PatternSet, max_n: int, maj_cap: int,
               budget: _Budget) -> list[list[int]]:
    columns = _fill_columns(patterns, range(maj_cap + 1), max_n, budget)
    return [[columns[mp].count(n) for mp in range(min(maj_cap, _triangle(n)) + 1)]
            for n in range(1, max_n + 1)]


class CoreSet(NamedTuple):
    """All distinct cores of avoiders with a given extended major index, each
    with its admissible unit profiles as sites: bit s stands for e_{s-1}."""

    m: int
    cores: tuple[Perm, ...]
    sites: tuple[int, ...]


def core_set(m: int, patterns: PatternSet, *, max_nodes: int | None = None) -> CoreSet:
    """All cores gamma with maj_plus(gamma) = m admissible for the pattern set,
    with their unit-profile sites read off the walk's masks.  The node ceiling
    bounds the walk.
    """
    if m < 0:
        raise InvalidInputError(f"major index must be non-negative, got {m}")
    found = sorted((len(gamma), gamma, sites) for gamma, mp, sites
                   in _cores(patterns, m, m, _Budget(max_nodes)) if mp == m)
    return CoreSet(m, tuple(gamma for _, gamma, _ in found),
                   tuple(sites for _, _, sites in found))


def column_counts(m: int, patterns: PatternSet, *, n_max: int | None = None,
                  max_nodes: int | None = None) -> SignatureCounts:
    """The signature counts of every core of the m-column.

    With n_max, only the cores and signatures that reach lengths up to n_max
    are walked, and rows n_max - 1 and n_max are exact cells, so the counts
    hold only up to n_max.  One node ceiling covers the core tree and the
    signature walks.
    """
    if m < 0:
        raise InvalidInputError(f"major index must be non-negative, got {m}")
    if n_max is not None and n_max < 1:
        raise InvalidInputError(f"n_max must be >= 1, got {n_max}")
    return _fill_columns(patterns, (m,), n_max, _Budget(max_nodes))[m]


def core_polynomial(gamma: Perm, patterns: PatternSet, *,
                    max_nodes: int | None = None) -> tuple[Polynomial, int]:
    """The eventual polynomial of the fixed-core counts, with its exact onset.

    The per-signature term C(n - k - |c| + s - 1, s - 1) (s = saturated
    coordinates) is exact once n clears k + |c| - s + 1; signatures with no
    saturated coordinate only contribute at the single length k + |c|.  The
    onset returned is minimal for the full sum.  A gamma that is not a
    permutation is refused, and one that contains a pattern gives the zero
    polynomial with onset 0.
    """
    gamma = check_perm(gamma)
    counts = _core_counts(gamma, patterns, _Budget(max_nodes))
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
