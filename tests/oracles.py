"""Independent brute-force oracles the tests check the library against.

Everything here goes through itertools and raw index subsets, or the
one-letter deletions of every permutation, deliberately sharing no code path
with the library's pruned searches.
"""
import itertools


def oracle_contains(word, sig):
    """Containment by scanning every index subset."""
    n, s = len(word), len(sig)
    if s > n:
        return False
    for idx in itertools.combinations(range(n), s):
        sub = [word[i] for i in idx]
        ranks = tuple(sorted(sub).index(v) + 1 for v in sub)
        if ranks == sig:
            return True
    return False


def oracle_occurrences(word, sig):
    """Every 1-based index set of word that forms sig, by scanning every
    index subset."""
    # A subsequence forms sig iff it lists its letters in sig's value order.
    order = sorted(range(len(sig)), key=sig.__getitem__)
    return [tuple(i + 1 for i in idx)
            for idx, sub in zip(itertools.combinations(range(len(word)), len(sig)),
                                itertools.combinations(word, len(sig)))
            if sorted(range(len(sub)), key=sub.__getitem__) == order]


def oracle_last_two_patterns(word, sizes):
    """For each pattern of a length in sizes, the bit set of the ranks s
    whose appending to word gives an occurrence of it through word's last
    letter and the appended one, by scanning every index subset of each
    extended word."""
    n = len(word)
    sites = {}
    for s in range(1, n + 2):
        longer = tuple(x + 1 if x >= s else x for x in word) + (s,)
        for size in sizes:
            for head in itertools.combinations(longer[:n - 1], size - 2):
                sub = head + longer[n - 1:]
                # Index 0 holds no letter, so index() gives 1-based ranks.
                ranks = [0, *sorted(sub)]
                key = tuple(map(ranks.index, sub))
                sites[key] = sites.get(key, 0) | 1 << s
    return sites


def oracle_minimal_obstructions(found):
    """The obstructions of found whose demands imply no other one's, by
    comparing every pair."""
    def implies(a, b):
        return all(any(lb <= la and ha <= hb and db <= da for la, ha, da in a)
                   for lb, hb, db in b)

    return sorted(a for a in found if not any(b != a and implies(a, b) for b in found))


def oracle_obstructions(gamma, patterns, max_demand):
    """Every obstruction of a core gamma that avoids the patterns, by
    scanning index subsets.  For each pattern sigma and each level r whose
    tail sigma[r:] is increasing and at most max_demand long, a subset of
    gamma's letters that forms sigma[:r] demands, for each run of tail
    letters t whose value neighbours in the subset are the same lo < t < hi
    (0 and len(gamma) + 1 at the ends), as many padding letters in the gaps
    lo .. hi - 1."""
    found = set()
    for sigma in patterns:
        l = len(sigma)
        for r in range(max(0, l - max_demand), l):
            tail = sigma[r:]
            if list(tail) != sorted(tail):
                continue
            order = sorted(range(r), key=sigma.__getitem__)
            for sub in itertools.combinations(gamma, r):
                if sorted(range(r), key=sub.__getitem__) != order:
                    continue
                demands = {}
                for t in tail:
                    lo = max((v for v, s in zip(sub, sigma) if s < t), default=0)
                    hi = min((v for v, s in zip(sub, sigma) if s > t), default=len(gamma) + 1)
                    demands[lo, hi - 1] = demands.get((lo, hi - 1), 0) + 1
                found.add(tuple(sorted((lo, hi, d) for (lo, hi), d in demands.items())))
    return found


def oracle_maj(word):
    return sum(i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def oracle_mahonian(max_n):
    """Rows 1 .. max_n of the Mahonian triangle, from its recurrence
    T(n, k) = T(n - 1, k) + T(n - 1, k - 1) + ... + T(n - 1, k - n + 1)."""
    rows = [[1]]
    for n in range(2, max_n + 1):
        prev = rows[-1]
        rows.append([sum(prev[max(0, k - n + 1):k + 1]) for k in range(len(prev) + n - 1)])
    return rows


def oracle_avoiders(n, patterns):
    """All avoiders of length n, by filtering the full symmetric group."""
    out = []
    for w in itertools.permutations(range(1, n + 1)):
        if not any(oracle_contains(w, p) for p in patterns):
            out.append(w)
    return out


def oracle_rows(patterns, max_n):
    """Counts by (length, major index), rows n = 1..max_n."""
    rows = []
    for n in range(1, max_n + 1):
        row = [0] * (n * (n - 1) // 2 + 1)
        for w in oracle_avoiders(n, patterns):
            row[oracle_maj(w)] += 1
        rows.append(row)
    return rows


def oracle_rows_by_deletion(patterns, max_n):
    """oracle_rows, found faster: a permutation avoids the patterns iff it is
    none of them and each of its one-letter deletions avoids them (an
    occurrence in a longer permutation leaves out some letter), so each
    length filters the full symmetric group against the avoiders one shorter.
    """
    patterns = set(patterns)
    shorter = {()}
    rows = []
    for n in range(1, max_n + 1):
        row = [0] * (n * (n - 1) // 2 + 1)
        level = set()
        for w in itertools.permutations(range(1, n + 1)):
            if w not in patterns and all(
                    tuple(x - (x > v) for x in w if x != v) in shorter for v in w):
                level.add(w)
                row[oracle_maj(w)] += 1
        rows.append(row)
        shorter = level
    return rows


def compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for v in range(total + 1):
        for rest in compositions(total - v, parts - 1):
            yield (v,) + rest


def oracle_cores(m, patterns):
    """Cores of avoiders with extended major index m, by scanning all k!
    permutations of every length k <= m.

    gamma is the core of an avoider iff gamma followed by one new letter from
    a gap below its last letter avoids: that letter ends gamma's last
    descent, and every avoider with core gamma contains such a permutation.
    """
    found = []
    for k in range(m + 1):
        for gamma in itertools.permutations(range(1, k + 1)):
            if k + oracle_maj(gamma) != m:
                continue
            top = gamma[-1] if k else 1
            for i in range(top):
                word = tuple(g + 1 if g > i else g for g in gamma) + (i + 1,)
                if not any(oracle_contains(word, p) for p in patterns):
                    found.append(gamma)
                    break
    return found
