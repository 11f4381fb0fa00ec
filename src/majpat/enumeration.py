"""
Counting pattern-avoiding permutations by major index.

Two independent computation paths are provided and cross-checked:

* brute force: a depth-first generator that extends prefix patterns by
  appending the next relative rank.  Appending never disturbs the descents
  already present, so the major index is monotone along the tree and the
  search can prune both on containment (a new occurrence must use the newest
  letter) and on a major-index ceiling.

* cores: every permutation with major index m is core gamma + padding
  profile with maj_plus(gamma) = m.  Appending a letter never lowers
  len + maj, so the same prefix tree, pruned by containment and by the
  ceiling len + maj <= m, yields exactly the candidate cores.  Whether
  gamma . a avoids the patterns only depends on the profile capped at the
  longest pattern length K (an occurrence uses at most K letters from any
  inserted run).  An occurrence is a prefix of the pattern embedded in gamma
  plus an increasing tail taken from the padding, so each core precomputes
  the gap-interval demands (obstructions) under which gamma . c contains a
  pattern, and a capped signature c is tested by interval sums.  Counting
  profiles with a fixed cap signature is stars and bars, so each core's
  avoiding signatures collapse into one histogram that gives its exact,
  eventually polynomial count at every length.
"""
from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator

from .decomp import Profile, compose
from .errors import InvalidInputError, ResourceLimitError, VerificationError
from .perms import (
    Perm,
    avoids,
    contains,
    contains_ending_at_last,
    format_perm,
    magnitude,
    parse_perm,
    set_magnitude,
    slope,
    Magnitude,
)
from .poly import Polynomial, ZERO

DEFAULT_MAX_NODES = 100_000_000


def _env_int(name: str, fallback: int | None) -> int | None:
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

    @property
    def spent(self) -> int:
        return self.limit - self.left

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise ResourceLimitError(
                "search node budget exceeded; raise --max-nodes / MAJPAT_MAX_NODES"
            )


def _children(word: Perm, mj: int, maj_cap: int,
              sigs: tuple[Perm, ...]) -> Iterator[tuple[Perm, int]]:
    """The avoiding one-letter extensions of an avoiding prefix pattern whose
    major index stays within maj_cap, each with its major index."""
    n = len(word)
    last = word[n - 1] if n else 0
    for v in range(1, n + 2):
        child_mj = mj + (n if last >= v else 0)
        if child_mj > maj_cap:
            continue
        child = tuple(x + 1 if x >= v else x for x in word) + (v,)
        if any(contains_ending_at_last(child, s) for s in sigs):
            continue
        yield child, child_mj


def _brute_fill(rows, word: Perm, mj: int, max_n: int, maj_cap: int,
                sigs: tuple[Perm, ...], budget: _Budget) -> None:
    # Record the node, then extend by appending every relative rank.
    n = len(word)
    if n:
        rows[n - 1][mj] += 1
    if n == max_n:
        return
    for child, child_mj in _children(word, mj, maj_cap, sigs):
        budget.spend()
        _brute_fill(rows, child, child_mj, max_n, maj_cap, sigs, budget)


def _zero_rows(max_n: int, maj_cap: int) -> list[list[int]]:
    return [[0] * (min(maj_cap, _triangle(n)) + 1) for n in range(1, max_n + 1)]


def _merge_rows(target: list[list[int]], source: list[list[int]]) -> None:
    for row_t, row_s in zip(target, source):
        for i, v in enumerate(row_s):
            row_t[i] += v


def _subtree_task(args) -> tuple[list[list[int]], int]:
    sigs, max_n, maj_cap, nodes_left, seeds = args
    rows = _zero_rows(max_n, maj_cap)
    budget = _Budget(nodes_left)
    for word, mj in seeds:
        _brute_fill(rows, word, mj, max_n, maj_cap, sigs, budget)
    return rows, budget.spent


def _brute_rows(patterns: PatternSet, max_n: int, maj_cap: int,
                parallelism: int, max_nodes: int | None) -> list[list[int]]:
    sigs = patterns.patterns
    rows = _zero_rows(max_n, maj_cap)
    budget = _Budget(max_nodes)
    if parallelism <= 1:
        _brute_fill(rows, (), 0, max_n, maj_cap, sigs, budget)
        return rows

    # Expand a frontier wide enough to share, record the interior here, and
    # farm the subtrees out; the merge is a cell-wise sum, so the result is
    # identical for every parallelism degree.  Each worker gets the nodes the
    # frontier left over and reports what it spent, so the ceiling holds for
    # the whole walk exactly as on one process.
    frontier: list[tuple[Perm, int]] = [((), 0)]
    while len(frontier) < 4 * parallelism and frontier and len(frontier[0][0]) < max_n:
        next_level = []
        for word, mj in frontier:
            n = len(word)
            if n:
                rows[n - 1][mj] += 1
            for child in _children(word, mj, maj_cap, sigs):
                budget.spend()
                next_level.append(child)
        frontier = next_level
    buckets: list[list[tuple[Perm, int]]] = [[] for _ in range(parallelism)]
    for i, seed in enumerate(frontier):
        buckets[i % parallelism].append(seed)
    tasks = [(sigs, max_n, maj_cap, budget.left, bucket) for bucket in buckets if bucket]
    spent = 0
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
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
    sigs = patterns.patterns
    budget = _Budget(max_nodes)
    maj_cap = _triangle(n)

    def rec(word: Perm) -> Iterator[Perm]:
        if len(word) == n:
            yield word
            return
        for child, _ in _children(word, 0, maj_cap, sigs):
            budget.spend()
            yield from rec(child)

    return rec(())


def count_avoiders(n: int, patterns: PatternSet, *,
                   max_nodes: int | None = None) -> int:
    """Exact number of pattern-avoiding permutations of length n."""
    if n < 0:
        raise InvalidInputError(f"length must be non-negative, got {n}")
    if n == 0:
        return 1
    rows = _brute_rows(patterns, n, _triangle(n), 1, max_nodes)
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
              max_nodes: int | None = None,
              core_len_limit: int | None = None) -> MajTable:
    """Compute the full table of counts for 1 <= n <= max_n, 0 <= m <= max_maj.

    algorithm is "brute", "cores", or "both"; both-mode raises
    VerificationError on the first differing cell.
    """
    if max_n < 1:
        raise InvalidInputError(f"max_n must be >= 1, got {max_n}")
    if max_maj < 0:
        raise InvalidInputError(f"max_maj must be >= 0, got {max_maj}")
    if algorithm not in ("brute", "cores", "both"):
        raise InvalidInputError(f"unknown algorithm {algorithm!r}")
    maj_cap = min(max_maj, _triangle(max_n))
    brute = cores = None
    if algorithm in ("brute", "both"):
        brute = _brute_rows(patterns, max_n, maj_cap, parallelism, max_nodes)
    if algorithm in ("cores", "both"):
        cores = _core_rows(patterns, max_n, maj_cap, max_nodes, core_len_limit)
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
def _pattern_plan(sigma: Perm) -> tuple[tuple[tuple[int, int], ...], tuple[tuple, ...]]:
    """How to embed sigma's prefixes and read off their tail demands.

    neighbours[j]: the indices among sigma[:j] of the letters just below and
    just above sigma[j] in value (-1 when there is none).  groups[r]: the
    demands (below, above, d) of the tail sigma[r:], one per run of tail
    letters sharing those neighbours in sigma[:r], in increasing value order.
    """
    def around(r: int, t: int) -> tuple[int, int]:
        below = [i for i in range(r) if sigma[i] < t]
        above = [i for i in range(r) if sigma[i] > t]
        return (max(below, key=sigma.__getitem__) if below else -1,
                min(above, key=sigma.__getitem__) if above else -1)

    neighbours = tuple(around(j, sigma[j]) for j in range(len(sigma)))
    groups = []
    for r in range(len(sigma) + 1):
        demand = Counter(around(r, t) for t in sorted(sigma[r:]))
        groups.append(tuple((below, above, d) for (below, above), d in demand.items()))
    return neighbours, tuple(groups)


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
    """
    k = len(gamma)
    found = set()
    for sigma in sigs:
        l = len(sigma)
        first = max(l - slope(sigma), l - max_demand)
        neighbours, groups = _pattern_plan(sigma)
        values: list[int] = []

        def embed(r: int, start: int) -> bool:
            # values holds an embedding of sigma[:r] ending before start;
            # True once sigma embeds in gamma entirely.
            if r == l:
                return True
            if r >= first:
                found.add(tuple(
                    (values[below] if below >= 0 else 0,
                     (values[above] if above >= 0 else k + 1) - 1, d)
                    for below, above, d in groups[r]))
            below, above = neighbours[r]
            lo = values[below] if below >= 0 else 0
            hi = values[above] if above >= 0 else k + 1
            for pos in range(start, k):
                v = gamma[pos]
                if lo < v < hi:
                    values.append(v)
                    if embed(r + 1, pos + 1):
                        return True
                    values.pop()
            return False

        if embed(0, 0):
            return None
    # Keep the minimal obstructions: one whose demands imply another's adds
    # nothing, since the other is met whenever it is.
    return sorted(a for a in found if not any(b != a and _implies(a, b) for b in found))


def _implies(a: Obstruction, b: Obstruction) -> bool:
    """Whether meeting every demand of a meets every demand of b."""
    return all(any(lb <= la and ha <= hb and db <= da for la, ha, da in a)
               for lb, hb, db in b)


def _free_units(gamma: Perm, sigs: tuple[Perm, ...]) -> list[int]:
    """The coordinates i < gamma_k (i = 0 for the empty core) whose unit
    profile e_i gives an avoiding gamma . e_i.

    Only single-letter obstructions can be met by a unit profile.
    """
    obstructions = _obstructions(gamma, sigs, 1)
    if obstructions is None:
        return []
    top = gamma[-1] if gamma else 1
    blocked = set()
    for ((lo, hi, _),) in obstructions:
        blocked.update(range(lo, hi + 1))
    return [i for i in range(top) if i not in blocked]


def _avoiding_signatures(gamma: Perm, patterns: PatternSet, *,
                         budget_sum: int | None = None,
                         node_budget: _Budget | None = None) -> Iterator[Profile]:
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
        if node_budget is not None:
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
                 node_budget: _Budget | None = None) -> None:
        k, cap, hist = len(gamma), self.cap, self.hist
        for c in _avoiding_signatures(gamma, patterns, budget_sum=budget_sum,
                                      node_budget=node_budget):
            hist[k + sum(c), c.count(cap)] += 1
        self.bound = max(self.bound, k + cap * (k + 1))

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


def _core_tree(word: Perm, mj: int, ceiling: int, max_len: int,
               sigs: tuple[Perm, ...], budget: _Budget) -> Iterator[tuple[Perm, int]]:
    """The avoiding extensions of word (itself first) with len + maj <= ceiling
    and length <= max_len, each with its len + maj."""
    n = len(word)
    yield word, n + mj
    if n >= max_len:
        return
    for child, child_mj in _children(word, mj, ceiling - n - 1, sigs):
        budget.spend()
        yield from _core_tree(child, child_mj, ceiling, max_len, sigs, budget)


def _checked_core_len(top: int, limit: int | None) -> None:
    """Raise unless cores up to length top fit the opt-in cap: the argument,
    else MAJPAT_MAX_CORE_LEN, else none (the node ceiling bounds the tree)."""
    if limit is None:
        limit = _env_int("MAJPAT_MAX_CORE_LEN", None)
    if limit is not None and limit < 0:
        raise InvalidInputError(f"core length limit must be non-negative, got {limit}")
    if limit is not None and top > limit:
        raise ResourceLimitError(
            f"core enumeration needs cores up to length {top}, over the configured "
            f"limit {limit}; raise --core-limit / MAJPAT_MAX_CORE_LEN or restrict "
            "the core length"
        )


def _core_rows(patterns: PatternSet, max_n: int, maj_cap: int,
               max_nodes: int | None, core_len_limit: int | None) -> list[list[int]]:
    # A core of length k only yields permutations of length >= k + 1.
    top = min(max_n - 1, maj_cap)
    _checked_core_len(top, core_len_limit)
    rows = _zero_rows(max_n, maj_cap)
    budget = _Budget(max_nodes)
    for gamma, mp in _core_tree((), 0, maj_cap, top, patterns.patterns, budget):
        k = len(gamma)
        counts = SignatureCounts(patterns.cap)
        counts.add_core(gamma, patterns, budget_sum=max_n - k, node_budget=budget)
        for n in range(k + 1, max_n + 1):
            if mp < len(rows[n - 1]):
                rows[n - 1][mp] += counts.count(n)
    return rows


@dataclass(frozen=True)
class CoreSet:
    """All distinct cores of avoiders with a given extended major index."""

    m: int
    patterns: PatternSet
    cores: tuple[Perm, ...]
    nodes: int = 0  # prefix-tree nodes spent finding them


def minimal_avoiding_profiles(gamma: Perm, patterns: PatternSet) -> tuple[Profile, ...]:
    """The admissible unit profiles of a core (the minimal avoiding witnesses)."""
    k = len(gamma)
    return tuple(
        tuple(1 if j == i else 0 for j in range(k + 1))
        for i in _free_units(gamma, patterns.patterns)
    )


def core_set(m: int, patterns: PatternSet, *, max_core_len: int | None = None,
             core_len_limit: int | None = None, max_nodes: int | None = None) -> CoreSet:
    """All cores gamma with maj_plus(gamma) = m admissible for the pattern set.

    The cores are the nodes of the avoiders' prefix tree pruned at
    len + maj <= m that have an avoiding unit profile (the avoiding profiles
    form a down-set, so unit profiles decide).  max_core_len caps the tree
    depth (cores longer than n - 1 are invisible at length n); core_len_limit
    (or MAJPAT_MAX_CORE_LEN) is an opt-in hard cap on that depth.
    """
    if m < 0:
        raise InvalidInputError(f"major index must be non-negative, got {m}")
    top = m if max_core_len is None else min(m, max_core_len)
    _checked_core_len(top, core_len_limit)
    sigs = patterns.patterns
    budget = _Budget(max_nodes)
    found = [gamma for gamma, mp in _core_tree((), 0, m, top, sigs, budget)
             if mp == m and _free_units(gamma, sigs)]
    found.sort(key=lambda g: (len(g), g))
    return CoreSet(m, patterns, tuple(found), budget.spent)


def column_counts(m: int, patterns: PatternSet, *, n_max: int | None = None,
                  max_core_len: int | None = None, core_len_limit: int | None = None,
                  max_nodes: int | None = None) -> SignatureCounts:
    """The signature counts of every core of the m-column.

    With n_max, only the cores and signatures that reach lengths up to n_max
    are walked, and the counts are exact up to n_max.  One node ceiling
    covers the core tree and the signature walks.
    """
    top = m if n_max is None else min(m, max(n_max - 1, 0))
    if max_core_len is not None:
        top = min(top, max_core_len)
    cores = core_set(m, patterns, max_core_len=top, core_len_limit=core_len_limit,
                     max_nodes=max_nodes)
    budget = _Budget(max_nodes)
    budget.spend(cores.nodes)
    counts = SignatureCounts(patterns.cap)
    for gamma in cores.cores:
        counts.add_core(gamma, patterns, node_budget=budget,
                        budget_sum=None if n_max is None else n_max - len(gamma))
    return counts


def core_polynomial(gamma: Perm, patterns: PatternSet) -> tuple[Polynomial, int]:
    """The eventual polynomial of the fixed-core counts, with its exact onset.

    The per-signature term C(n - k - |c| + s - 1, s - 1) (s = saturated
    coordinates) is exact once n clears k + |c| - s + 1; signatures with no
    saturated coordinate only contribute at the single length k + |c|.  The
    onset returned is minimal for the full sum.
    """
    counts = SignatureCounts(patterns.cap)
    counts.add_core(gamma, patterns)
    return counts.eventual_polynomial(0, f"core {format_perm(gamma) or '(empty)'}")


def eventual_polynomial(m: int, patterns: PatternSet, *,
                        max_core_len: int | None = None,
                        core_len_limit: int | None = None,
                        max_nodes: int | None = None) -> tuple[Polynomial, int]:
    """The polynomial eventually equal to the m-column, with its exact onset."""
    counts = column_counts(m, patterns, max_core_len=max_core_len,
                           core_len_limit=core_len_limit, max_nodes=max_nodes)
    return counts.eventual_polynomial(1, f"m={m} column")


def major_count_series(m: int, patterns: PatternSet, n_max: int, *,
                       algorithm: str = "cores",
                       max_nodes: int | None = None,
                       core_len_limit: int | None = None) -> list[int]:
    """The exact counts for n = 1..n_max at a fixed major index."""
    if n_max < 1:
        raise InvalidInputError(f"n_max must be >= 1, got {n_max}")
    if algorithm == "cores":
        return column_counts(m, patterns, n_max=n_max, core_len_limit=core_len_limit,
                             max_nodes=max_nodes).series(n_max)
    if algorithm == "brute":
        table = maj_table(n_max, m, patterns, algorithm="brute", max_nodes=max_nodes)
        return table.column(m)
    raise InvalidInputError(f"unknown algorithm {algorithm!r}")


def downset_spot_check(gamma: Perm, patterns: PatternSet, *, trials: int = 50,
                       coord_bound: int | None = None, seed: int = 0):
    """Sample avoiding profiles and verify single-step downward closure.

    Returns None, or the first (profile, smaller_profile) violating closure.
    """
    import random

    rng = random.Random(seed)
    k = len(gamma)
    bound = coord_bound if coord_bound is not None else patterns.cap + 2
    sigs = patterns.patterns
    for _ in range(trials):
        a = tuple(rng.randint(0, bound) for _ in range(k + 1))
        if not avoids(compose(gamma, a), sigs):
            continue
        for i in range(k + 1):
            if a[i] == 0:
                continue
            b = a[:i] + (a[i] - 1,) + a[i + 1:]
            if not avoids(compose(gamma, b), sigs):
                return a, b
    return None
