"""
Counting pattern-avoiding permutations by major index.

Two independent computation paths are provided and cross-checked:

* brute force: an iterative walk of the prefix tree that extends prefix
  patterns by appending the next relative rank.  The core path and the
  avoider stream share it, and it is the only code that builds a child.
  Appending never disturbs the descents already present, so the major index
  is monotone along the tree and the search can prune on a major-index
  ceiling.  Each node carries a bitmask of its forbidden sites, the ranks
  whose appending completes a pattern occurrence.  A child inherits its
  parent's mask (an occurrence that avoids the new letter stays one) and
  adds the sites of the occurrences of each pattern's head that end at its
  new letter, so no candidate child is tested for containment.  The last
  level of a table is counted from the clear sites of its parents without
  being built.

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
  which gamma . c contains a pattern, and a capped signature c is tested by
  interval sums.  Counting profiles with a fixed cap signature is stars and
  bars, so each core's avoiding signatures collapse into one histogram that
  gives its exact, eventually polynomial count at every length.  A table's
  cores of length n_max - 1 and n_max - 2 have room for one or two padding
  letters, so their avoiding signatures are the clear sites of their masks
  and of the masks of their descent children, which the core walk builds by
  going on to length n_max - 1.

Both paths thus read the same masks for the permutations of length n_max
whose last descent is at n_max - 1 or n_max - 2, and for those of length
n_max - 1 whose last descent is at n_max - 2 (whose last letter falls).  The
rest of those two rows, and every earlier row, is still cross-checked
between independent routes.
"""
from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator

from .decomp import Profile
from .errors import InvalidInputError, ResourceLimitError, VerificationError
from .perms import (
    Perm,
    _grow,
    dead_slots,
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


@dataclass(frozen=True)
class PatternSet:
    """A deduplicated finite set of nonempty patterns, sorted for determinism."""

    patterns: tuple[Perm, ...] = ()

    def __post_init__(self):
        seen = sorted(set(self.patterns), key=lambda p: (len(p), p))
        if any(len(p) == 0 for p in seen):
            raise InvalidInputError("the empty permutation is not a valid pattern")
        object.__setattr__(self, "patterns", tuple(seen))

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


# A site plan (steps, below, above) finds the occurrences of a pattern's head
# sigma[:l-1] that end at a word's last letter.  It is embedding_plan(sigma,
# l - 2), slot l - 2 pinned to that letter, so its indices point into a
# partial embedding laid out as (0, n + 1, last letter, head letters...):
# steps[r] = (lo, hi, dead) places sigma[r] between the entries lo and hi,
# and below and above point at the entries just under and over sigma[l-1].
SitePlan = tuple[tuple[tuple[int, int, bool], ...], int, int]


@lru_cache(maxsize=64)
def _site_plans(sigs: tuple[Perm, ...]) -> tuple[int, tuple[SitePlan, ...]]:
    """The forbidden sites of the empty word, and a site plan per pattern of
    length >= 2 (a length-1 pattern forbids the root's only site)."""
    root = 0
    plans = []
    for sigma in sigs:
        l = len(sigma)
        if l == 1:
            root = 0b10
            continue
        plan = embedding_plan(sigma, l - 2)
        # The step of slot l - 1, never grown, is what the search reads at
        # the end, so dead_slots already counts below and above as read.
        dead = dead_slots(sigma, l - 2)
        plans.append((tuple((*plan[r], dead[r]) for r in range(l - 2)), *plan[l - 1]))
    return root, tuple(plans)


def _forbidden_sites(word: Perm, mask: int, plans: tuple[SitePlan, ...]) -> int:
    """mask plus the sites forbidden by an occurrence of a pattern that uses
    word's last letter.

    Appending rank s puts the new letter between the values s - 1 and s.  It
    completes an occurrence ending at the last letter iff some embedding of
    the head ends there and its value neighbours of sigma[l-1] are a < s <= b
    (0 and len(word) + 1 at the ends).  Only below and above are read at
    the end, so a head slot whose entry neither they nor a later step read
    is dead and keeps its first fitting letter per partial (`_grow`).  That
    letter has the earliest start, so every occurrence through a later one
    has a twin through it with the same below and above: the sites come out
    the same.
    """
    n = len(word)
    for steps, below, above in plans:
        # Head slot r sits before the last letter, leaving room for the rest.
        stop = n - len(steps)
        partial = [((0, n + 1, word[n - 1]), 0)]
        for r, (lo, hi, dead) in enumerate(steps):
            partial = _grow(word, partial, lo, hi, stop + r, dead)
        for values, _ in partial:
            a = values[below]
            b = values[above]
            mask |= ((1 << (b - a)) - 1) << (a + 1)
    return mask


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


def _walk(plans: tuple[SitePlan, ...], seeds: list[tuple[Perm, int, int]],
          caps: list[tuple[int, int]], budget: _Budget) -> Iterator[tuple[Perm, int, int]]:
    """Each seed and then its descendants in the avoiders' prefix tree, in
    preorder with children by increasing appended rank, as (word, maj, mask).

    caps[n] = (rise, fall): a descendant of length n is kept while
    n < len(caps) and its maj is at most rise when its last letter rises
    and at most fall when it falls (as the only letter of a word of length
    1 does).  A node's maj decides which of its children stay, so the caps
    bound the range of ranks appended, with no test per child.  Each
    expansion spends one node per child it builds.

    Bit s of a mask is set iff appending rank s makes the word contain a
    pattern, so the children are the clear sites.  A child inherits its
    parent's forbidden sites (appending v splits site v in two and shifts
    the sites above it up by one), and then forbids the sites of the
    occurrences that use its new last letter.  That search keeps one letter
    per partial embedding at a dead slot, one whose letter nothing reads
    later: the first letter has the earliest start, so it completes
    whatever a later one completes.

    A child is relabelled with one lookup in a table of its rank
    (`_Relabel`), except under the top rank, which relabels nothing and so
    needs no table: a deep walk that only ever appends its top rank builds
    none.
    """
    shift = _Relabel(len(caps) - 2)
    stack = seeds[::-1]
    while stack:
        node = stack.pop()
        yield node
        word, mj, mask = node
        n = len(word)
        if n + 1 >= len(caps):
            continue
        rise, fall = caps[n + 1]
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
            stack.append((child, mj + n if v <= last else mj,
                          _forbidden_sites(child, inherited, plans)))
        budget.spend(len(stack) - depth)


def _brute_fill(rows, walk: Iterator[tuple[Perm, int, int]], max_n: int, maj_cap: int,
                budget: _Budget, sources: dict[int, list[Perm]] | None = None) -> None:
    # Record every walked node; count the last level, unbuilt, from the clear
    # sites of its parents, and collect those into sources by maj if given.
    for word, mj, mask in walk:
        n = len(word)
        if n:
            rows[n - 1][mj] += 1
        if n == max_n - 1:
            if sources is not None:
                sources.setdefault(mj, []).append(word)
            free = ~mask & ((1 << n + 2) - 2)
            last = word[n - 1] if n else 0
            ascents = (free >> last + 1).bit_count()
            descents = (free.bit_count() - ascents) if mj + n <= maj_cap else 0
            budget.spend(ascents + descents)
            rows[n][mj] += ascents
            if descents:
                rows[n][mj + n] += descents


def _zero_rows(max_n: int, maj_cap: int) -> list[list[int]]:
    return [[0] * (min(maj_cap, _triangle(n)) + 1) for n in range(1, max_n + 1)]


def _merge_rows(target: list[list[int]], source: list[list[int]]) -> None:
    for row_t, row_s in zip(target, source):
        for i, v in enumerate(row_s):
            row_t[i] += v


def _subtree_task(args) -> tuple[list[list[int]], int]:
    plans, max_n, maj_cap, nodes_left, seeds = args
    rows = _zero_rows(max_n, maj_cap)
    budget = _Budget(nodes_left)
    walk = _walk(plans, seeds, [(maj_cap, maj_cap)] * max_n, budget)
    _brute_fill(rows, walk, max_n, maj_cap, budget)
    return rows, budget.limit - budget.left


def _brute_rows(patterns: PatternSet, max_n: int, maj_cap: int, parallelism: int,
                budget: _Budget, sources: dict[int, list[Perm]] | None = None) -> list[list[int]]:
    root, plans = _site_plans(patterns.patterns)
    rows = _zero_rows(max_n, maj_cap)
    # Only the serial walk collects sources; workers send back counts alone.
    if parallelism <= 1 or sources is not None:
        walk = _walk(plans, [((), 0, root)], [(maj_cap, maj_cap)] * max_n, budget)
        _brute_fill(rows, walk, max_n, maj_cap, budget, sources)
        return rows

    # Expand a frontier wide enough to share, record the interior here, and
    # farm the subtrees out; the merge is a cell-wise sum, so the result is
    # identical for every parallelism degree.  Each worker gets the nodes the
    # frontier left over and reports what it spent, so the ceiling holds for
    # the whole walk exactly as on one process.
    frontier: list[tuple[Perm, int, int]] = [((), 0, root)]
    n = 0
    while len(frontier) < 4 * parallelism and frontier and n < max_n:
        if n:
            for _, mj, _ in frontier:
                rows[n - 1][mj] += 1
        walk = _walk(plans, frontier, [(maj_cap, maj_cap)] * (n + 2), budget)
        frontier = [node for node in walk if len(node[0]) > n]
        n += 1
    buckets: list[list[tuple[Perm, int, int]]] = [[] for _ in range(parallelism)]
    for i, seed in enumerate(frontier):
        buckets[i % parallelism].append(seed)
    tasks = [(plans, max_n, maj_cap, budget.left, bucket) for bucket in buckets if bucket]
    if not tasks:
        return rows
    # A forked pool starts all its workers at the first submit: one per task.
    spent = 0
    with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
        for part, part_spent in pool.map(_subtree_task, tasks):
            _merge_rows(rows, part)
            spent += part_spent
    budget.spend(spent)
    return rows


def generate_avoiders(n: int, patterns: PatternSet, *,
                      max_nodes: int | None = None) -> Iterator[Perm]:
    """Stream every pattern-avoiding permutation of length n exactly once."""
    if n < 0:
        raise InvalidInputError(f"length must be non-negative, got {n}")
    root, plans = _site_plans(patterns.patterns)
    # maj <= n(n - 1)/2 holds for every prefix of every avoider.
    walk = _walk(plans, [((), 0, root)], [(_triangle(n),) * 2] * (n + 1),
                 _Budget(max_nodes))
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


@dataclass(frozen=True)
class MajTable:
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
            rows = tuple(tuple(int(c) for c in r["counts"]) for r in obj["rows"])
            return MajTable(patterns, int(obj["max_n"]), int(obj["max_maj"]), rows)
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"bad table JSON: {exc}") from exc

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
            rows.append(tuple(int(c) for c in cells[1:] if c != ""))
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

    steps[r]: embedding_plan(sigma)[r] and whether slot r is dead, with the
    demands of every level counted as read.  groups[r]: the demands
    (below, above, d) of the tail sigma[r:], one per run of tail letters
    sharing their value_neighbours in sigma[:r], in increasing value order.
    Both index the same layout (0, k + 1, embedded slots in order).
    """
    groups = []
    for r in range(len(sigma) + 1):
        demand = Counter(value_neighbours(sigma, range(r), t) for t in sorted(sigma[r:]))
        groups.append(tuple((below, above, d) for (below, above), d in demand.items()))
    reads = tuple(sorted({i for group in groups for lo, hi, _ in group for i in (lo, hi)}))
    dead = dead_slots(sigma, None, reads)
    return tuple((*step, dead[r]) for r, step in enumerate(embedding_plan(sigma))), tuple(groups)


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

    Every embedding of sigma[:r] is grown from those of sigma[:r-1] by one
    `_grow` step; each gives one obstruction at the levels r whose tail is
    increasing and short enough, and an embedding at level len(sigma) is an
    occurrence in gamma itself.
    """
    k = len(gamma)
    found = set()
    for sigma in sigs:
        l = len(sigma)
        first = max(l - slope(sigma), l - max_demand)
        steps, groups = _pattern_plan(sigma)
        # Embeddings of sigma[:r] anywhere in gamma, laid out as
        # embedding_plan says.
        partial = [((0, k + 1), 0)]
        for r, (below, above, dead) in enumerate(steps):
            if r >= first:
                for values, _ in partial:
                    found.add(tuple((values[lo], values[hi] - 1, d)
                                    for lo, hi, d in groups[r]))
            partial = _grow(gamma, partial, below, above, k, dead)
        if partial:
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


def _avoiding_signatures(gamma: Perm, patterns: PatternSet, *,
                         budget_sum: int | None = None,
                         node_budget: _Budget) -> Iterator[Profile]:
    """All cap signatures c (coordinates <= cap) of valid decompositions
    (some c_i > 0 with i < gamma_k, so that k is the last descent) whose
    composed permutation avoids the patterns, optionally restricted to
    sum(c) <= budget_sum.

    Coordinates are fixed left to right with the later ones still zero, so
    the only obstructions a larger c_j can complete are those whose last
    demand covers j and whose earlier demands already hold; each of them
    caps c_j just below its threshold.
    """
    cap = patterns.cap
    k = len(gamma)
    room = cap * (k + 1) if budget_sum is None else budget_sum
    obstructions = _obstructions(gamma, patterns.patterns, room)
    if obstructions is None:
        return iter(())
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
    c = [0] * (k + 1)
    prefix = [0] * (k + 1)  # prefix[j] = c[0] + ... + c[j - 1]
    found: list[Profile] = []

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
            head = tuple(c[:k])
            found.extend(head + (v,) for v in range(top + 1))
            return
        for v in range(top + 1):
            c[j] = v
            prefix[j + 1] = used + v
            rec(j + 1)
        c[j] = 0

    rec(0)
    return iter(found)


class SignatureCounts:
    """Avoiding cap signatures of one or more cores, collapsed into a
    histogram h[(k + |c|, s)] where s counts the saturated coordinates.

    A core of length k with signature c stands for C(n - k - |c| + s - 1,
    s - 1) permutations of length n (stars and bars over the saturated
    coordinates; exactly one at n = k + |c| when s = 0).  The counts, the
    eventual polynomial and its onset all come from this one object.  Built
    with a size budget, the counts are exact only up to that length.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.hist: Counter = Counter()
        self.bound = 0  # every term is polynomial past this length

    def add_core(self, gamma: Perm, patterns: PatternSet, *,
                 budget_sum: int | None = None,
                 node_budget: _Budget) -> None:
        k = len(gamma)
        self.add(k, _avoiding_signatures(gamma, patterns, budget_sum=budget_sum,
                                         node_budget=node_budget))
        self.bound = max(self.bound, k + self.cap * (k + 1))

    def add(self, k: int, signatures: Iterable[Profile]) -> None:
        """Count each signature c of a core of length k in cell
        (k + |c|, #{c_i = cap}); c may leave out its zero coordinates."""
        cap, hist = self.cap, self.hist
        for c in signatures:
            hist[k + sum(c), c.count(cap)] += 1

    def add_shapes(self, k: int, shapes: list[Profile]) -> None:
        """Count the shapes of padding read off masks that are signatures: a
        shape with a coordinate above cap is none (with cap 1, the pair 2e_i
        is the unit e_i, which already stands for its whole gap)."""
        self.add(k, [c for c in shapes if max(c) <= self.cap])

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
    """Exact number of avoiders of length n whose core is gamma."""
    k = len(gamma)
    if n < k:
        return 0
    counts = SignatureCounts(patterns.cap)
    counts.add_core(gamma, patterns, budget_sum=n - k, node_budget=_Budget(max_nodes))
    return counts.count(n)


def _unit_sites(gamma: Perm, mask: int) -> int:
    """The avoiding unit profiles of a node, as a bit set of sites.  The unit
    profile e_{s-1} appends rank s and is valid iff s <= gamma_k (any s for
    the empty word), so the avoiding ones are the clear sites s <= gamma_k of
    the node's mask; the node is a core iff there is one (avoiding profiles
    form a down-set)."""
    k = len(gamma)
    top = gamma[k - 1] if k else 1
    return ~mask & ((1 << top + 1) - 2)


def _cores(patterns: PatternSet, ceiling: int, max_len: int,
           budget: _Budget) -> Iterator[tuple[Perm, int, int]]:
    """The cores with len + maj <= ceiling and length <= max_len, in preorder,
    as (gamma, len + maj, sites) with sites from `_unit_sites`."""
    root, plans = _site_plans(patterns.patterns)
    caps = [(ceiling - n,) * 2 for n in range(max_len + 1)]
    for gamma, mj, mask in _walk(plans, [((), 0, root)], caps, budget):
        sites = _unit_sites(gamma, mask)
        if sites:
            yield gamma, len(gamma) + mj, sites


def _fill_columns(columns: dict[int, SignatureCounts], patterns: PatternSet,
                  n_max: int | None, budget: _Budget) -> None:
    """Walk the cores once and add each core (shorter than n_max, if given)
    to the signature counts of its column len + maj, for the columns given.

    With n_max, only the signatures that reach lengths up to n_max are
    walked, and a core one or two letters short of row n_max is counted from
    masks, one node per signature.  A core of length n_max - 1 takes its
    units, the bits of `_unit_sites`.  For a core gamma of length n_max - 2
    the walk goes on to length n_max - 1 with the column ceiling itself as
    the cap on the maj of a falling child, so it builds every descent child
    w = gamma . s (its last letter falls; (1,) is the child of the empty
    core), and maj(w) is gamma's column len + maj.  A rising child there
    keeps the cap ceiling - len of every other node.  The node w is the
    unit e_{s-1}; appending rank s + 1 to it is the pair 2e_{s-1} and rank
    t > s + 1 the pair e_{s-1} + e_{t-2}, so the pairs are its clear sites
    above s.  Every core
    with more room, and every core without n_max, goes through its
    obstructions and the signature walk.
    """
    root, plans = _site_plans(patterns.patterns)
    ceiling = max(columns)
    max_len = ceiling if n_max is None else min(ceiling, n_max - 1)
    caps = [(ceiling - n,) * 2 for n in range(max_len + 1)]
    short = n_max is not None and 2 <= n_max <= max_len + 2
    if short:
        caps[n_max - 1:] = [(ceiling - n_max + 1, ceiling)]
    for word, mj, mask in _walk(plans, [((), 0, root)], caps, budget):
        k = len(word)
        if short and k == n_max - 1 and (k == 1 or word[k - 1] < word[k - 2]):
            # word = gamma . s for a core gamma of length n_max - 2.
            counts = columns.get(mj)
            if counts is not None:
                s = word[k - 1]
                # Bit i of free is the child's site s + 1 + i, up to k + 1.
                free = ~mask >> s + 1
                same = free & 1
                other = (free >> 1 & ((1 << k - s) - 1)).bit_count()
                budget.spend(same + other)
                counts.add_shapes(k - 1, [(1,)] + [(2,)] * same + [(1, 1)] * other)
        counts = columns.get(k + mj)
        room = None if n_max is None else n_max - k
        # A core with room 2 is counted through its descent children.
        if counts is None or k > max_len or room == 2:
            continue
        sites = _unit_sites(word, mask)
        if not sites:
            continue
        if room == 1:
            units = sites.bit_count()
            budget.spend(units)
            counts.add_shapes(k, [(1,)] * units)
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


@dataclass(frozen=True)
class CoreSet:
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
    onset returned is minimal for the full sum.
    """
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
