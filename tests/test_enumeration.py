import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from operator import itemgetter

import pytest

import majpat.enumeration
from majpat.decomp import compose
from majpat.enumeration import (
    PatternSet,
    SignatureCounts,
    column_counts,
    core_polynomial,
    core_set,
    count_avoiders,
    count_by_core,
    eventual_polynomial,
    generate_avoiders,
    maj_table,
    major_count_series,
)
from majpat.enumeration import (
    _Budget,
    _Relabel,
    _avoiding_signatures,
    _brute_fill,
    _brute_rows,
    _clear_sites,
    _core_children,
    _core_rows,
    _cores,
    _fill_columns,
    _forbidden_sites,
    _obstruction_search,
    _obstructions,
    _triangle,
    _unit_profiles,
    _walk,
    _zero_rows,
)
from majpat.errors import InvalidInputError, ResourceLimitError, VerificationError
from majpat.perms import (
    avoids, contains, delete_at, descents, embedding_plan, insert, major_index, slope,
    value_neighbours,
)
from majpat.poly import Polynomial, ZERO

from oracles import (
    oracle_avoiders,
    oracle_contains,
    oracle_cores,
    oracle_last_two_patterns,
    oracle_minimal_obstructions,
    oracle_obstructions,
    oracle_occurrences,
    oracle_rows_by_deletion,
)

OBSTRUCTION_SETS = ("1324", "3412;1324", "2134", "321", "1342;2413", "21354;21453")
# The core path's sets: length-1 and length-2 patterns, and the empty set.
CORE_SETS = OBSTRUCTION_SETS + ("1", "12", "21", "")
SITE_SETS = ("1", "12", "21", "1324", "3412,1324", "2413,3142", "132,213", "", "21354", "21453")
LONG_SIGMA = (2, 1, *range(3, 25))
# Words whose children hold or touch LONG_SIGMA's head.  In the child of
# rank 24 of each of the last two (a rising one, then a falling one), the
# first placement of the head slots before the counters' inner function
# fails inside it, and a later one succeeds.  In the child of rank 25 of
# the one before them, head slot 1, which nothing reads, fits no letter
# after the 1 in slot 0; after the 24 it fits 3 first, and the head fails
# from there; with 3 in slot 0 it holds.
LONG_NODES = (LONG_SIGMA[:22], LONG_SIGMA[:23], tuple(range(23, 0, -1)),
              insert(LONG_SIGMA[:22], 1, 22), *(delete_at(LONG_SIGMA[:23], k) for k in (1, 5)),
              (1, 24, 3, 2, *range(4, 24)),
              (2, 1, *range(3, 19), 23, 19, 20, 21, 22),
              (2, 1, *range(3, 19), 23, 19, 20, 21, 22, 24))


class TestPatternSet:
    def test_text_grammar(self):
        assert PatternSet.from_text("1324").texts() == ["1324"]
        assert PatternSet.from_text("3412,1324").texts() == ["1324", "3412"]
        assert PatternSet.from_text("132;231").texts() == ["132", "231"]
        assert PatternSet.from_text(" ").texts() == []
        long = "10,1,2,3,4,5,6,7,8,9,11"
        assert PatternSet.from_text(long + ";").texts() == [long]
        assert PatternSet.from_text("1324;" + long).texts() == ["1324", long]

    def test_comma_list_requires_digit_tokens(self):
        with pytest.raises(InvalidInputError, match="';'"):
            PatternSet.from_text("10,1,2")

    def test_deduplication_and_sorting(self):
        ps = PatternSet.of("321", "132", "321")
        assert ps.texts() == ["132", "321"]
        assert len(ps) == 2
        # Equal and hashed by value, and never equal to a bare tuple.
        assert ps == PatternSet.of("132", "321") and hash(ps) == hash(PatternSet.of("132", "321"))
        assert ps != PatternSet.of("132") and ps != ps.patterns and PatternSet() != ()

    def test_rejects_empty_pattern(self):
        with pytest.raises(InvalidInputError):
            PatternSet(((),))

    def test_derived_statistics(self):
        ps = PatternSet.of("3412", "1324")
        assert ps.max_len == 4 and ps.cap == 4
        assert ps.magnitude.value == 2
        assert ps.all_finite_magnitude
        assert not PatternSet.of("321").all_finite_magnitude
        assert PatternSet().cap == 1
        assert not PatternSet().magnitude.is_finite


def count_by_core_of_21(n, patterns, **kwargs):
    """count_by_core for the core 21, called like count_avoiders."""
    return count_by_core((2, 1), n, patterns, **kwargs)


class TestAvoiders:
    def test_counts(self):
        ps = PatternSet.of("1324")
        assert count_avoiders(4, ps) == 23
        assert count_avoiders(5, ps) == 103
        assert count_avoiders(5, PatternSet()) == 120
        assert count_avoiders(0, ps) == 1

    def test_generation_matches_oracle(self):
        for text in ("132", "1324", "3412;1324"):
            ps = PatternSet.from_text(text)
            for n in range(0, 6):
                got = sorted(generate_avoiders(n, ps))
                want = sorted(
                    w for w in itertools.permutations(range(1, n + 1))
                    if avoids(w, ps.patterns)
                )
                assert got == want

    def test_length_one_pattern_kills_everything(self):
        ps = PatternSet.of("1")
        assert count_avoiders(3, ps) == 0
        assert maj_table(4, 6, ps, algorithm="both").rows == ((0,), (0, 0), *(
            tuple([0] * (n * (n - 1) // 2 + 1)) for n in (3, 4)))

    def test_node_budget(self):
        with pytest.raises(ResourceLimitError):
            count_avoiders(8, PatternSet(), max_nodes=100)

    @pytest.mark.parametrize("run", [count_avoiders, generate_avoiders, count_by_core_of_21])
    @pytest.mark.parametrize("n", [0, 1])
    def test_negative_ceiling_is_refused_at_every_length(self, run, n):
        # The empty word needs no node, and neither does a length below the
        # core's, but the ceiling is checked all the same.
        with pytest.raises(InvalidInputError, match="node ceiling must be non-negative"):
            run(n, PatternSet.of("1324"), max_nodes=-1)


class TestForbiddenSites:
    @pytest.mark.parametrize("text", SITE_SETS)
    def test_masks_match_last_letter_containment(self, text):
        # The clear bits of every walked avoider's mask are exactly the ranks
        # s whose appending avoids every pattern, and the walk reaches every
        # avoider of length <= 6.  Both are checked against the subset-scan
        # oracles, which share no code with the embedding search.
        # _clear_sites splits them into the ranks whose child's last letter
        # rises and those where it falls: the ranks at or below the last
        # letter, and the one rank of the empty word.
        ps = PatternSet.from_text(text)
        root, expand, _ = _forbidden_sites(ps.patterns)
        level = [((), 0, root)]
        for n in range(0, 7):
            assert sorted(w for w, _, _ in level) == oracle_avoiders(n, ps.patterns), (text, n)
            for word, mj, mask in level:
                clear = {s for s in range(1, n + 2) if not mask >> s & 1}
                want = {s for s in range(1, n + 2)
                        if not any(oracle_contains(insert(word, n + 1, s), p)
                                   for p in ps.patterns)}
                assert clear == want, (text, word)
                rising, falling = (
                    {s for s in range(1, n + 2) if sites >> s & 1}
                    for sites in _clear_sites(word, mask))
                assert rising | falling == clear and not rising & falling, (text, word)
                assert falling == {s for s in clear if not n or s <= word[-1]}, (text, word)
            walk = _walk(expand, level, [21] * (n + 2), _Budget(None))
            level = [node for node in walk if len(node[0]) > n]

    # Relabel tables for every word the tests expand.
    SHIFT = _Relabel(len(LONG_SIGMA))

    @classmethod
    def expanded(cls, expand, word, mj, mask):
        # The (child, maj, mask) the expander pushes, by increasing rank.
        children = []
        expand(word, mask, mj, True, children.append, itemgetter(*word, 0), cls.SHIFT)
        return children[::-1]

    def test_sites_of_every_word_match_subset_scan(self):
        # Every pattern of length 2-5 on every word of length <= 6, avoider
        # or not, with no inherited site: the expander pushes the word with
        # each rank appended, from the top rank down, with its major index
        # and the sites of the occurrences through its last letter.
        sigmas = [s for l in (2, 3, 4, 5) for s in itertools.permutations(range(1, l + 1))]
        expanders = [(sigma, _forbidden_sites((sigma,))[1]) for sigma in sigmas]
        for n in range(0, 7):
            for word in itertools.permutations(range(1, n + 1)):
                children = [insert(word, n + 1, v) for v in range(n + 1, 0, -1)]
                heads = [(child, major_index(child)) for child in children]
                wants = [oracle_last_two_patterns(child, (2, 3, 4, 5)) for child in children]
                args = (word, 0, major_index(word), True)
                relabel = itemgetter(*word, 0)
                for sigma, expand in expanders:
                    got = []
                    expand(*args, got.append, relabel, self.SHIFT)
                    assert got == [(*head, want.get(sigma, 0))
                                   for head, want in zip(heads, wants)], (word, sigma)

    def test_sites_of_a_pattern_longer_than_one_function_of_loops(self):
        # The 22 head loops of a 24-letter pattern, with the loop over the
        # child's last letter, go on in an inner function that sets the mask
        # of the outer one.  Every child of LONG_NODES is checked, and so is
        # every sibling of these words; in the last, the first placement of
        # the slots before the inner function fails in it, and a later one
        # succeeds.
        _, expand, _ = _forbidden_sites((LONG_SIGMA,))
        words = [LONG_SIGMA, tuple(range(24, 0, -1)), insert(LONG_SIGMA[:23], 1, 23),
                 *(delete_at(LONG_SIGMA, k) for k in (1, 5, 24)),
                 (2, 1, *range(3, 20), 23, 20, 21, 22, 24)]
        parents = {*LONG_NODES, *(delete_at(w, len(w)) for w in words)}
        masks = []
        for word in sorted(parents):
            got = self.expanded(expand, word, major_index(word), 0)
            for v, node in enumerate(got, start=1):
                child = insert(word, len(word) + 1, v)
                # The head's 22 letters all sit below its last one, so a
                # child of rank v < 23 has too few letters below v for it.
                want = oracle_last_two_patterns(child, (24,)).get(LONG_SIGMA, 0) if v >= 23 else 0
                assert node == (child, major_index(child), want), child
                masks.append(want)
        assert any(masks)

    @classmethod
    def check_counter(cls, sites, word, mj, mask, patterns):
        # The one counter reads a node's children in the node's own letters.
        # Its sums, and the cells and spends that _brute_fill and
        # _core_children write from them, are those of the expander's
        # children split by _clear_sites.  Each child's mask is the node's
        # split at its rank v, with the sites the expander gives it with no
        # inherited site added.
        _, expand, count = sites
        n = len(word)
        cap = patterns.cap
        last = word[-1] if n else 1
        bare = {child: own for child, _, own in cls.expanded(expand, word, mj, 0)}
        children = []
        for child, cm, got in cls.expanded(expand, word, mj, mask):
            v = child[-1]
            inherited = (mask & ((1 << v + 1) - 1)) | ((mask >> v) << v + 1)
            assert got == inherited | bare[child], (word, mask, v)
            rising, falling = _clear_sites(child, got)
            children.append((child, cm, v <= last, rising.bit_count(), falling.bit_count(),
                             rising >> v + 1 & 1))
        assert [c for c, *_ in children] == [c for c in bare if not mask >> c[-1] & 1]
        # The sums, over the falling children, the rising ones, both or none.
        for reads in itertools.product((False, True), repeat=2):
            want = [0] * 7
            for _, _, falls, up, down, same in children:
                if reads[not falls]:
                    i = 3 * (not falls)
                    want[i] += 1
                    want[i + 1] += up
                    want[i + 2] += down
                    want[6] += same if falls else 0
            assert count(word, mask, mj, *reads) == tuple(want), (word, mask, reads)
        # _brute_fill at the full cap, and at caps that cut the node's
        # falling children, every grandchild's descent, or a falling child's
        # only, with and without sources.
        for maj_cap in sorted({mj, mj + n, mj + n + 1, _triangle(n + 2)}):
            rows, spend, sources = _zero_rows(n + 2, maj_cap), 0, {}
            if n:
                rows[n - 1][mj] = 1
            for child, cm, _, up, down, _ in children:
                if cm <= maj_cap:
                    down *= cm + n < maj_cap
                    rows[n][cm] += 1
                    rows[n + 1][cm] += up
                    if down:
                        rows[n + 1][cm + n + 1] += down
                    spend += 1 + up + down
                    sources.setdefault(cm, []).append(child)
            for collect in (None, {}):
                got, budget = _zero_rows(n + 2, maj_cap), _Budget(None)
                _brute_fill(got, sites, [(word, mj, mask)], n + 2, maj_cap, budget, collect)
                assert budget.limit - budget.left == spend, (word, mask, maj_cap)
                assert got == rows and collect in (None, sources), (word, mask, maj_cap)
        # _core_children: a falling child's unit and pairs go to the node's
        # column, and each child's falling sites to its own column, 2k + 1 +
        # maj or k + 1 + maj.  Each of the three columns is present or absent.
        columns = (n + mj, 2 * n + 1 + mj, n + 1 + mj)
        for present in itertools.product((False, True), repeat=3):
            # At the root, the children's two columns are one.
            want = {c: Counter() for c, on in zip(columns, present) if on}
            own, fall, rise = (c if c in want else None for c in columns)
            spend = 0
            for _, _, falls, up, down, same in children:
                if falls and own is None and fall is None or not falls and rise is None:
                    continue
                spend += 1
                if falls and own is not None:
                    spend += up
                    want[own][n + 1, int(cap == 1)] += 1
                    if same and cap >= 2:
                        want[own][n + 2, int(cap == 2)] += same
                    if up > same:
                        want[own][n + 2, 2 if cap == 1 else 0] += up - same
                column = fall if falls else rise
                if column is not None and down:
                    spend += down
                    want[column][n + 2, int(cap == 1)] += down
            got = {c: SignatureCounts(patterns) for c in want}
            assert _core_children(count, got, word, mj, mask) == spend, (word, present)
            for c, counts in got.items():
                assert counts.hist == want[c] and 0 not in counts.hist.values(), (word, present)

    @pytest.mark.parametrize("text", SITE_SETS)
    def test_leaf_counter_matches_built_children(self, text):
        # Every node of length <= 6 the walk builds, with its own mask.
        ps = PatternSet.from_text(text)
        sites = _forbidden_sites(ps.patterns)
        for word, mj, mask in _walk(sites[1], [((), 0, sites[0])], [21] * 7, _Budget(None)):
            self.check_counter(sites, word, mj, mask, ps)

    @pytest.mark.parametrize("text", SITE_SETS)
    def test_core_counter_matches_built_children(self, text):
        # Every word of length <= 4, avoider or not, under masks no walk
        # makes: no site, and every other site from 2 up.
        ps = PatternSet.from_text(text)
        sites = _forbidden_sites(ps.patterns)
        for n in range(0, 5):
            for word in itertools.permutations(range(1, n + 1)):
                for mask in {0, 0b1010101 & ((1 << n + 2) - 4)}:
                    self.check_counter(sites, word, major_index(word), mask, ps)

    def test_leaf_counter_of_a_pattern_longer_than_one_function_of_loops(self):
        # With the loop over the child's last letter, the 22 head loops of a
        # 24-letter pattern go on in an inner function a loop earlier.  The
        # children of these words hold or touch the pattern's head.
        sites = _forbidden_sites((LONG_SIGMA,))
        for word in LONG_NODES:
            self.check_counter(sites, word, major_index(word), 0, PatternSet((LONG_SIGMA,)))

    def test_core_counter_of_a_pattern_longer_than_one_function_of_loops(self):
        # The same words, under a mask no walk makes.
        sites = _forbidden_sites((LONG_SIGMA,))
        for word in LONG_NODES:
            self.check_counter(sites, word, major_index(word), 0b1010 << 18, PatternSet((LONG_SIGMA,)))

    def test_dead_slots_leave_out_what_is_read(self, monkeypatch):
        # The site search's plan pins slot l - 2 and reads below and above,
        # the window of slot l - 1, at the end: a head slot is dead iff no
        # later head step and neither below nor above reads its entry.  The
        # obstruction search places sigma[:r] in one nest per recorded level
        # r >= l - slope(sigma): a slot is dead iff no later step of that
        # nest and no demand of that level reads it.
        nests = []
        compile_search = majpat.enumeration.compile_search

        def recorded(found, *args, **kwargs):
            nests.extend(found)
            return compile_search(found, *args, **kwargs)

        monkeypatch.setattr(majpat.enumeration, "compile_search", recorded)
        _obstruction_search.cache_clear()
        for l in range(2, 7):
            for sigma in itertools.permutations(range(1, l + 1)):
                plan = embedding_plan(sigma, l - 2)
                steps, (below, above, _) = plan[:l - 2], plan[l - 1]
                # Layout (0, n + 1, last letter, head slots 0 .. l - 3).
                for r, (_, _, dead) in enumerate(steps):
                    read = {i for lo, hi, _ in steps[r + 1:] for i in (lo, hi)}
                    assert dead == (r + 3 not in read | {below, above}), (sigma, r)
                nests.clear()
                _obstruction_search(sigma)
                assert [len(steps) for steps, *_ in nests] == \
                    list(range(l - slope(sigma), l)), sigma
                for steps, pin, _, guard in nests:
                    r = len(steps)
                    assert pin is None and guard == f"first <= {r}", (sigma, r)
                    assert [s[:2] for s in steps] == [s[:2] for s in embedding_plan(sigma)[:r]]
                    # Layout (0, k + 1, slots 0 .. r - 1); a tail letter's
                    # demand reads its value neighbours among the embedded slots.
                    demands = {i for t in sigma[r:] for i in value_neighbours(sigma, range(r), t)}
                    for j, (_, _, dead) in enumerate(steps):
                        read = {i for lo, hi, _ in steps[j + 1:] for i in (lo, hi)}
                        assert dead == (j + 2 not in read | demands), (sigma, r, j)
        _obstruction_search.cache_clear()


class TestMajTable:
    def test_known_1324_values(self):
        t = maj_table(7, 12, PatternSet.of("1324"))
        assert t.entry(5, 5) == 19
        assert t.entry(6, 8) == 73
        assert t.entry(7, 12) == 303
        assert t.column(1) == [0, 1, 2, 3, 4, 5, 6]
        assert t.column(2)[2:] == [2, 4, 6, 8, 10]

    def test_matches_oracle_rows(self):
        # The brute path counts the last two rows at their grandparents, so
        # each max_n puts that step at another depth: at max_n = 2 the root
        # builds row 1, and at max_n = 1 the root counts row 1 itself.
        for text in ("", "1", "1324", "2134", "3412;1324", "132;213"):
            ps = PatternSet.from_text(text)
            want = oracle_rows_by_deletion(ps.patterns, 7)
            for max_n in range(1, 8):
                for max_maj in (_triangle(max_n), 3):
                    t = maj_table(max_n, max_maj, ps, algorithm="both")
                    assert [list(row) for row in t.rows] == \
                        [row[:max_maj + 1] for row in want[:max_n]], (text, max_n, max_maj)

    def test_table_sources_are_the_avoider_stream_by_maj(self):
        # The brute loop builds the nodes one letter short of its last row
        # itself, not through _walk, which builds the avoider stream.  Both
        # give the same words, and in the same order within each maj, which
        # verify_monotonicity relies on to report the first failing source.
        for text in ("2134", "1324", "321", "21"):
            ps = PatternSet.of(text)
            for n in range(8):
                sources = {}
                _brute_rows(ps, n + 1, _triangle(n + 1), 1, _Budget(None), sources)
                want = {}
                for word in generate_avoiders(n, ps):
                    want.setdefault(major_index(word), []).append(word)
                assert sources == want, (text, n)

    def test_row_sums_and_first_column(self):
        ps = PatternSet.of("132")
        t = maj_table(6, 15, ps)
        for n in range(1, 7):
            assert t.row_sum(n) == count_avoiders(n, ps)
            assert t.entry(n, 0) == 1

    def test_mahonian_row(self):
        t = maj_table(4, 6, PatternSet())
        assert list(t.rows[3]) == [1, 3, 5, 6, 5, 3, 1]
        assert t.entry(3, 2) == 2

    def test_no_pattern_rows_are_q_factorials(self):
        # Row n of the unrestricted table is the coefficient list of
        # [n]_q! = (1)(1 + q)...(1 + q + ... + q^(n-1)).
        t = maj_table(8, 28, PatternSet())
        coeffs = [1]
        for n in range(1, 9):
            coeffs = [sum(coeffs[j - i] for i in range(n) if 0 <= j - i < len(coeffs))
                      for j in range(len(coeffs) + n - 1)]
            assert list(t.rows[n - 1]) == coeffs, n

    def test_zero_columns_for_increasing_patterns(self):
        # With 123 forbidden, the column at major index m >= 1 dies past
        # n = 2m + 1; the m = 0 column holds its lone identity until n = 3.
        ps = PatternSet.of("123")
        brute = maj_table(8, 4, ps, algorithm="both")
        for m in range(0, 5):
            series = major_count_series(m, ps, 13)
            first_dead = 2 * m + 2 if m >= 1 else 3
            for n in range(first_dead, 14):
                assert series[n - 1] == 0, (m, n)
            assert series[:8] == brute.column(m)

    def test_entry_bounds(self):
        t = maj_table(3, 2, PatternSet())
        assert t.entry(3, 2) == 2
        with pytest.raises(InvalidInputError):
            t.entry(4, 0)
        with pytest.raises(InvalidInputError):
            t.entry(1, 3)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            maj_table(0, 3, PatternSet())
        with pytest.raises(InvalidInputError):
            maj_table(3, -1, PatternSet())
        with pytest.raises(InvalidInputError):
            maj_table(3, 3, PatternSet(), algorithm="magic")

    @pytest.mark.parametrize("parallelism", [0, -1])
    def test_parallelism_below_one_is_refused(self, parallelism):
        # The library refuses it, not only the command line.
        with pytest.raises(InvalidInputError, match=f"must be >= 1, got {parallelism}"):
            maj_table(7, 12, PatternSet.of("1324"), parallelism=parallelism)

    def test_parallel_result_identical(self):
        ps = PatternSet.of("1324")
        serial = maj_table(7, 21, ps, parallelism=1)
        parallel = maj_table(7, 21, ps, parallelism=3)
        assert serial.rows == parallel.rows

    def test_node_ceiling_covers_all_workers(self):
        # The full n <= 7 walk spends 1! + ... + 7! = 5913 nodes.
        for parallelism in (1, 2):
            maj_table(7, 21, PatternSet(), parallelism=parallelism, max_nodes=5913)
            with pytest.raises(ResourceLimitError):
                maj_table(7, 21, PatternSet(), parallelism=parallelism, max_nodes=5912)

    @pytest.mark.parametrize("text", ["1324", "3412;1324", ""])
    def test_ceiling_outcome_does_not_depend_on_parallelism(self, text):
        # The walker spends a node batch per expansion, so a ceiling can be
        # crossed mid-level; either both degrees stop or both give the table.
        ps = PatternSet.from_text(text)
        full = maj_table(7, 21, ps).rows
        spend = sum(map(sum, full))  # one node per counted permutation
        rng = random.Random(text)
        for limit in [rng.randint(0, spend) for _ in range(9)] + [spend]:
            outcomes = []
            for parallelism in (1, 2):
                try:
                    outcomes.append(maj_table(7, 21, ps, parallelism=parallelism,
                                              max_nodes=limit).rows)
                except ResourceLimitError:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1] == (None if limit < spend else full), (text, limit)

    def test_node_ceiling_counts_the_capped_last_level(self):
        # One node per counted permutation, also on the last level, which is
        # counted without being built and is cut by max_maj 10 < 28.
        ps = PatternSet.of("1324")
        total = sum(map(sum, maj_table(8, 10, ps).rows))
        for parallelism in (1, 2):
            maj_table(8, 10, ps, parallelism=parallelism, max_nodes=total)
            with pytest.raises(ResourceLimitError):
                maj_table(8, 10, ps, parallelism=parallelism, max_nodes=total - 1)

    def test_columns_past_the_last_row_cost_one_node_each(self):
        # Row 4 spans m = 0 .. 6.  The walks spend 32 nodes on brute, 33 on
        # cores and 65 on both, and the three columns past row 4 cost one
        # node each, once per run.
        ps = PatternSet.of("1324")
        for algorithm, spend in (("brute", 32), ("cores", 33), ("both", 65)):
            for max_maj, total in ((6, spend), (9, spend + 3)):
                maj_table(4, max_maj, ps, algorithm=algorithm, max_nodes=total)
                with pytest.raises(ResourceLimitError):
                    maj_table(4, max_maj, ps, algorithm=algorithm, max_nodes=total - 1)

    def test_csv_json_round_trip(self):
        # Each emission, parsed here, gives back the table's cells: JSON one
        # object per row, CSV one line per row with blanks past its last column.
        t = maj_table(5, 4, PatternSet.of("132"))
        obj = json.loads(t.to_json())
        assert obj == t.to_json_obj()
        assert (obj["patterns"], obj["max_n"], obj["max_maj"]) == (["132"], 5, 4)
        assert [r["n"] for r in obj["rows"]] == [1, 2, 3, 4, 5]
        assert tuple(tuple(r["counts"]) for r in obj["rows"]) == t.rows
        header, *lines = t.to_csv().splitlines()
        assert header == "n,0,1,2,3,4"
        assert [line.split(",")[0] for line in lines] == ["1", "2", "3", "4", "5"]
        assert tuple(tuple(int(c) for c in line.split(",")[1:] if c) for line in lines) == t.rows

    def test_csv_has_blanks_beyond_triangle(self):
        t = maj_table(3, 3, PatternSet())
        lines = t.to_csv().splitlines()
        assert lines[0] == "n,0,1,2,3"
        assert lines[1] == "1,1,,,"
        assert lines[2] == "2,1,1,,"
        assert lines[3] == "3,1,2,2,1"


class TestParallelSplit:
    """The brute table split into shares: the caller walks one, a forked
    child each other one."""

    def test_one_process_per_share(self, monkeypatch):
        # The processes, the caller included, number min(P, processors,
        # frontier nodes), on a stand-in host with 8 processors, then 2, then
        # one without fork.
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        def processes(max_n, text, parallelism):
            forks.clear()
            ps = PatternSet.from_text(text)
            split = maj_table(max_n, 21, ps, parallelism=parallelism)
            assert split.rows == maj_table(max_n, 21, ps).rows, (max_n, text, parallelism)
            return len(forks) + 1

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert processes(1, "", 4) == 1  # a frontier of one node
        assert processes(7, "12", 4) == 1  # one node on every level
        assert processes(5, "1", 4) == 1  # an empty frontier
        assert processes(7, "1324", 3) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert processes(7, "1324", 10000) == 2
        monkeypatch.delattr(os, "fork")
        assert processes(7, "1324", 3) == 1

    @pytest.mark.parametrize("text", ["", "1", "12", "321", "1324", "3412;1324"])
    def test_split_is_exact_for_every_degree(self, monkeypatch, text):
        # A deep frontier can take a small table whole or leave fewer nodes
        # than shares.  At every degree the rows are the serial ones, the
        # serial spend T (one node per counted permutation, and one per m
        # past the last row's span, as at max_n 1 and 2 with max_maj 3)
        # passes and T - 1 stops the run.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        ps = PatternSet.from_text(text)
        for max_n in range(1, 9):
            span = max_n * (max_n - 1) // 2
            for max_maj in (span, 3):
                rows = maj_table(max_n, max_maj, ps).rows
                spend = sum(map(sum, rows)) + max(0, max_maj - span)
                for parallelism in (1, 2, 3):
                    case = (max_n, max_maj, parallelism)
                    split = maj_table(max_n, max_maj, ps, parallelism=parallelism,
                                      max_nodes=spend)
                    assert split.rows == rows, case
                    if spend:
                        with pytest.raises(ResourceLimitError):
                            maj_table(max_n, max_maj, ps, parallelism=parallelism,
                                      max_nodes=spend - 1)

    @pytest.mark.parametrize("fails", [None, "child", "caller", "interrupt"],
                             ids=["success", "child", "caller", "interrupt"])
    def test_no_child_is_left(self, monkeypatch, fails):
        # Whether the run succeeds, a child's share fails, or the caller's
        # share fails or is interrupted while the children still walk, every
        # child is reaped before maj_table returns or raises.  A child
        # that is still walking when the caller fails is killed, not waited
        # for.  Each process walks its share by _brute_fill: the caller
        # straight into the table, a child under _walk_share.
        caller = os.getpid()
        brute_fill = majpat.enumeration._brute_fill

        def fill(*args):
            if os.getpid() != caller:
                if fails == "child":
                    raise ResourceLimitError("the child's share failed")
                if fails in ("caller", "interrupt"):
                    time.sleep(60)
            elif fails == "caller":
                raise ResourceLimitError("the caller's share failed")
            elif fails == "interrupt":
                raise KeyboardInterrupt
            return brute_fill(*args)

        monkeypatch.setattr(majpat.enumeration, "_brute_fill", fill)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        ps = PatternSet.of("1324")
        start = time.monotonic()
        if fails is None:
            assert maj_table(8, 28, ps, parallelism=3).rows == maj_table(8, 28, ps).rows
        else:
            with pytest.raises(KeyboardInterrupt if fails == "interrupt" else ResourceLimitError,
                               match=None if fails == "interrupt" else fails):
                maj_table(8, 28, ps, parallelism=3)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_children_never_flush_the_callers_output(self):
        # Text printed before the split and not yet flushed sits in the
        # buffer that each forked child copies; it appears once.
        script = ("import os\n"
                  "from majpat.enumeration import PatternSet, maj_table\n"
                  "os.cpu_count = lambda: 2\n"
                  "print('before the split')\n"
                  "maj_table(8, 28, PatternSet.of('1324'), parallelism=2)\n")
        src = os.path.dirname(os.path.dirname(majpat.enumeration.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        assert done.stdout == "before the split\n" and done.stderr == ""


class TestComplementSymmetry:
    @pytest.mark.parametrize("algorithm,max_n", [("brute", 10), ("cores", 9)])
    @pytest.mark.parametrize("text", ["1324", "3412,1324"])
    def test_complement_reverses_every_row(self, text, algorithm, max_n):
        # maj(pi^c) = C(n,2) - maj(pi), and pi avoids a set iff pi^c avoids
        # the complements, so row n of the table read backwards is row n of
        # the complements' table (1324 against 4231, 3412,1324 against
        # 2143,4231).  The two come from different trees, with their own site
        # plans and masks, so this checks the mask-read cells of both paths
        # at lengths the itertools oracles cannot reach.
        ps = PatternSet.from_text(text)
        complements = PatternSet(tuple(tuple(len(p) + 1 - v for v in p) for p in ps))
        top = max_n * (max_n - 1) // 2
        table = maj_table(max_n, top, ps, algorithm=algorithm)
        mirror = maj_table(max_n, top, complements, algorithm=algorithm)
        assert [row[::-1] for row in table.rows] == list(mirror.rows), (text, complements.texts())
        assert table.rows != mirror.rows

    @pytest.mark.parametrize("text", ["1342", "2413", "1243", "3412;1324", "132;213", "21354"])
    def test_reverse_complement_reflects_maj_within_each_descent_count(self, text):
        # rc(pi) has a descent at n - i iff pi has one at i, so des is kept and
        # maj(rc pi) = n des(pi) - maj(pi); pi avoids a set iff rc(pi) avoids
        # the reverse-complements.  So M(n, d, m) of a set is M(n, d, nd - m)
        # of its reverse-complements, a symmetry of the avoider stream that
        # the major index alone does not show.
        ps = PatternSet.from_text(text)
        rc = PatternSet(tuple(tuple(len(p) + 1 - v for v in reversed(p)) for p in ps))
        for n in range(1, 9):
            counts = [Counter((len(d), sum(d)) for d in map(descents, generate_avoiders(n, s)))
                      for s in (ps, rc)]
            assert counts[1] == Counter({(d, n * d - m): c for (d, m), c in counts[0].items()}), \
                (text, n)


def minimal_avoiding_profiles(gamma, patterns):
    """The admissible unit profiles of a core (the minimal avoiding witnesses),
    e_i before e_j for i < j, found through the core's obstructions."""
    if not avoids(gamma, patterns.patterns):
        return ()
    k = len(gamma)
    obstructions = _obstructions(gamma, patterns.patterns, 1)
    # With room for one letter every obstruction is a single demand
    # (lo, hi, 1), which e_i meets iff lo <= i <= hi.
    blocked = {i for ((lo, hi, _),) in obstructions for i in range(lo, hi + 1)}
    sites = sum(1 << i + 1 for i in range(gamma[k - 1] if k else 1) if i not in blocked)
    return _unit_profiles(k, sites)


class TestCores:
    def test_core_set_examples(self):
        assert core_set(0, PatternSet.of("1324")).cores == ((),)
        assert core_set(1, PatternSet()).cores == ((1,),)
        assert core_set(2, PatternSet()).cores == ((1, 2),)
        assert core_set(0, PatternSet.of("1")).cores == ()

    def test_cores_by_decomposition_oracle(self):
        # Decomposing every avoider up to length 7 must only ever produce
        # cores the core enumeration lists for that major index.
        from majpat.decomp import decompose

        for text in ("", "1324", "132;231"):
            ps = PatternSet.from_text(text)
            seen: dict[int, set] = {}
            for n in range(1, 8):
                for pi in generate_avoiders(n, ps):
                    core, _ = decompose(pi)
                    seen.setdefault(major_index(pi), set()).add(core)
            for m, cores in seen.items():
                # A core of an avoider of length <= 7 has length <= 6.
                computed = {g for g, mp, _ in _cores(ps, m, 6, _Budget(None)) if mp == m}
                assert cores <= computed, (text, m, cores - computed)

    def test_count_by_core_examples(self):
        empty = PatternSet()
        for n in range(2, 8):
            assert count_by_core((1, 2), n, empty) == n * (n - 1) // 2 - 1
        assert count_by_core((1, 2), 4, PatternSet.of("1324")) == 4
        assert count_by_core((), 5, empty) == 1
        assert count_by_core((), 5, PatternSet.of("123")) == 0
        assert count_by_core((2, 1), 1, empty) == 0

    @pytest.mark.parametrize("gamma", [(1, 1), (3,), (0, 1)])
    def test_count_by_core_refuses_a_non_permutation(self, gamma):
        with pytest.raises(InvalidInputError, match="not a permutation"):
            count_by_core(gamma, 5, PatternSet.of("1324"))

    def test_a_core_that_contains_a_pattern_counts_nothing(self):
        # No walk yields such a core, but both entries accept any permutation.
        seen = 0
        for text in OBSTRUCTION_SETS:
            ps = PatternSet.from_text(text)
            for k in range(0, 6):
                for gamma in itertools.permutations(range(1, k + 1)):
                    if avoids(gamma, ps.patterns):
                        continue
                    seen += 1
                    assert [count_by_core(gamma, n, ps) for n in range(k, k + 4)] == [0] * 4, \
                        (text, gamma)
                    assert core_polynomial(gamma, ps) == (ZERO, 0), (text, gamma)
        assert seen

    def test_core_sums_match_table(self):
        for text in ("", "1324", "3412;1324"):
            ps = PatternSet.from_text(text)
            t = maj_table(7, 21, ps)
            for m in range(0, 22):
                total = sum(count_by_core(g, 7, ps)
                            for g, mp, _ in _cores(ps, m, 6, _Budget(None)) if mp == m)
                assert total == t.entry(7, m), (text, m)

    def test_tree_cores_match_permutation_scan(self):
        for text in ("", "1324", "3412;1324", "132;231", "321", "2134", "1342;2413"):
            ps = PatternSet.from_text(text)
            for m in range(0, 8):
                assert list(core_set(m, ps).cores) == oracle_cores(m, ps.patterns), (text, m)

    def test_core_tree_spends_nodes(self):
        with pytest.raises(ResourceLimitError):
            core_set(9, PatternSet.of("1324"), max_nodes=10)

    def test_minimal_profiles(self):
        ps = PatternSet.of("1324")
        assert minimal_avoiding_profiles((1, 2), ps) == ((1, 0, 0), (0, 1, 0))
        assert minimal_avoiding_profiles((), ps) == ((1,),)
        assert minimal_avoiding_profiles((), PatternSet.of("1")) == ()

    def test_minimal_profiles_match_compose_and_avoids(self):
        # The avoiding unit profiles e_i, i < gamma_k (i = 0 for the empty
        # core), in increasing i, for every core of length <= 4.
        for text in OBSTRUCTION_SETS:
            ps = PatternSet.from_text(text)
            for k in range(0, 5):
                for gamma in itertools.permutations(range(1, k + 1)):
                    units = [tuple(int(j == i) for j in range(k + 1))
                             for i in range(gamma[-1] if k else 1)]
                    want = tuple(e for e in units
                                 if avoids(compose(gamma, e), ps.patterns))
                    assert minimal_avoiding_profiles(gamma, ps) == want, (text, gamma)

    def test_core_units_are_its_one_letter_signatures(self):
        # A table counts the signatures of each core one or two letters
        # short of its last row from masks: the units _cores reads off its
        # mask, and the pairs the counter reads off the masks of its
        # children.  The profiles, count_by_core and add_core (the
        # obstruction and signature-walk route) must give the same units
        # and, per column, the same histogram cells, with no zero cell: for
        # full ranges of columns and for each column alone.
        for text in CORE_SETS:
            ps = PatternSet.from_text(text)
            for gamma, _, sites in _cores(ps, 21, 6, _Budget(None)):
                assert sites.bit_count() == len(minimal_avoiding_profiles(gamma, ps)) \
                    == count_by_core(gamma, len(gamma) + 1, ps), (text, gamma)
            # Full triangles, and a ceiling that cuts the last row but one.
            for n_max, ceiling in [(n, c) for n in range(1, 9) for c in (n * (n - 1) // 2, 4)]:
                want = {mp: SignatureCounts(ps) for mp in range(ceiling + 1)}
                for gamma, mp, _ in _cores(ps, ceiling, n_max - 1, _Budget(None)):
                    want[mp].add_core(gamma, _Budget(None), n_max - len(gamma))
                # The empty word, the empty core's zero signature, sits in
                # cell (0, 0), which no row reads and the mask reads skip.
                for counts in want.values():
                    counts.hist.pop((0, 0), None)
                for columns in [range(ceiling + 1), *([mp] for mp in range(ceiling + 1))]:
                    got = _fill_columns(ps, columns, n_max, _Budget(None))
                    for mp in got:
                        got[mp].hist.pop((0, 0), None)
                        assert got[mp].hist == want[mp].hist, (text, n_max, columns, mp)
                        assert 0 not in got[mp].hist.values(), (text, n_max, columns, mp)

    def test_no_length_bound_is_the_bound_of_every_signature(self):
        # A core of length k <= m has at most cap * (k + 1) padding letters,
        # so n_max = m + cap * (m + 1) leaves every core of the m-column room
        # for all its signatures: the same walk, cells and spend as no n_max.
        # Where that leaves a core only room 2 (cap * (m + 1) <= 2), it
        # counts its children from masks, which spends a node per
        # signature, so the bound is at least three rows past m.
        for text in CORE_SETS:
            ps = PatternSet.from_text(text)
            for m in range(0, 7):
                n_max = m + max(ps.cap * (m + 1), 3)
                runs = []
                for bound in (None, n_max):
                    budget = _Budget(None)
                    counts = _fill_columns(ps, (m,), bound, budget)[m]
                    runs.append((counts.hist, budget.left, counts.series(n_max)))
                assert runs[0] == runs[1], (text, m)

    def test_the_lister_reads_the_cap_of_its_counts(self):
        # Any cap at least the longest pattern's decides avoidance.  A column
        # built core by core under a cap one larger has other cells where a
        # gap can hold cap letters, but the same counts and eventual
        # polynomial as column_counts.
        for text in CORE_SETS:
            ps = PatternSet.from_text(text)
            cells_moved = False
            for m in range(0, 7):
                counts = SignatureCounts(ps)
                counts.cap += 1
                for gamma, mp, _ in _cores(ps, m, m, _Budget(None)):
                    if mp == m:
                        counts.add_core(gamma, _Budget(None))
                want = column_counts(m, ps)
                assert counts.series(14) == want.series(14), (text, m)
                assert counts.eventual_polynomial(1, "raised") \
                    == want.eventual_polynomial(1, "set"), (text, m)
                cells_moved |= counts.hist != want.hist
            # An avoider of 12 takes at most one letter per gap, and 1 has none.
            assert cells_moved == (text not in ("1", "12")), text

    def test_one_row_root_takes_the_signature_walk(self):
        # At n_max = 1 the root is the only node, and it spends one node on
        # its one signature walk, none for a set that forbids every letter.
        for text in CORE_SETS:
            ps = PatternSet.from_text(text)
            assert maj_table(1, 0, ps, algorithm="both").rows == ((int(text != "1"),),)
            budget = _Budget(None)
            _core_rows(ps, 1, 0, budget)
            assert budget.limit - budget.left == int(text != "1"), text

    def test_core_set_profiles_match_obstruction_route(self):
        # core_set reads each core's unit profiles off its walk mask;
        # minimal_avoiding_profiles finds them through obstructions.
        for text in OBSTRUCTION_SETS:
            ps = PatternSet.from_text(text)
            for m in range(0, 10):
                found = core_set(m, ps)
                want = tuple(minimal_avoiding_profiles(g, ps) for g in found.cores)
                assert found.profiles == want, (text, m)

    def test_negative_major_index_is_invalid(self):
        with pytest.raises(InvalidInputError):
            core_set(-1, PatternSet())
        with pytest.raises(InvalidInputError):
            eventual_polynomial(-1, PatternSet.of("1324"))


class TestObstructions:
    def test_agree_with_compose_and_contains(self):
        # Random capped signatures on every core of length <= 5.
        rng = random.Random(5)
        for text in OBSTRUCTION_SETS:
            ps = PatternSet.from_text(text)
            cap = ps.cap
            for k in range(0, 6):
                for gamma in itertools.permutations(range(1, k + 1)):
                    if not avoids(gamma, ps.patterns):
                        continue
                    obstructions = _obstructions(gamma, ps.patterns, cap * (k + 1))
                    for _ in range(12):
                        c = tuple(rng.randint(0, cap) for _ in range(k + 1))
                        met = any(all(sum(c[lo:hi + 1]) >= d for lo, hi, d in ob)
                                  for ob in obstructions)
                        composed = compose(gamma, c)
                        want = any(contains(composed, s) for s in ps.patterns)
                        assert met == want, (text, gamma, c)

    def test_a_pattern_longer_than_one_function_of_loops(self):
        # Cores of length 21 and 22, too short to contain it, embed 21 slots
        # of a 24-letter pattern, past the loops one function holds; random
        # signatures of at most three letters against the subset scan of the
        # composed word.
        sigma = (2, 1, *range(3, 25))
        rng = random.Random(7)
        outcomes = set()
        for gamma in (sigma[:21], insert(sigma[:21], 2, 1)):
            k = len(gamma)
            obstructions = _obstructions(gamma, (sigma,), 3)
            for _ in range(20):
                c = [0] * (k + 1)
                for _ in range(rng.randint(1, 3)):
                    c[rng.choice((0, k - 1, k, k, rng.randint(0, k)))] += 1
                met = any(all(sum(c[lo:hi + 1]) >= d for lo, hi, d in ob)
                          for ob in obstructions)
                assert met == bool(oracle_occurrences(compose(gamma, tuple(c)), sigma)), \
                    (gamma, c)
                outcomes.add(met)
        assert outcomes == {False, True}

    def test_searches_find_what_the_subset_scan_lists(self, monkeypatch):
        # The obstructions the searches record, before the minimal ones are
        # kept, on every avoider of length <= 6 at each max_demand up to
        # the longest pattern's length.
        seen = []
        minimal = majpat.enumeration._minimal_obstructions

        def recorded(found):
            seen.append(set(found))
            return minimal(found)

        monkeypatch.setattr(majpat.enumeration, "_minimal_obstructions", recorded)
        for text in OBSTRUCTION_SETS:
            ps = PatternSet.from_text(text)
            for k in range(0, 7):
                for gamma in oracle_avoiders(k, ps.patterns):
                    for max_demand in range(1, ps.max_len + 1):
                        seen.clear()
                        _obstructions(gamma, ps.patterns, max_demand)
                        assert seen == [oracle_obstructions(gamma, ps.patterns, max_demand)], \
                            (text, gamma, max_demand)

    def test_minimal_obstructions_match_all_pairs_filter(self, monkeypatch):
        # The sorted single pass keeps what comparing every pair keeps, on
        # the obstruction sets of every avoider of length <= 6 at both
        # budgets.
        seen = []
        minimal = majpat.enumeration._minimal_obstructions

        def recorded(found):
            seen.append(set(found))
            return minimal(found)

        monkeypatch.setattr(majpat.enumeration, "_minimal_obstructions", recorded)
        for text in OBSTRUCTION_SETS:
            ps = PatternSet.from_text(text)
            for k in range(0, 7):
                for gamma in oracle_avoiders(k, ps.patterns):
                    for room in (ps.cap * (k + 1), 9 - k):
                        seen.clear()
                        got = _obstructions(gamma, ps.patterns, room)
                        assert got == oracle_minimal_obstructions(seen[0]), (text, gamma, room)

    def test_signatures_match_exhaustive_filter(self):
        # The histogram bins the avoiding signatures of the exhaustive filter
        # by (k + |c|, #{c_i = cap}), with room for every signature and for
        # three padding letters, holds no zero cell and keys its cells by
        # ints, not bools.
        for text, longest in (("1324", 4), ("3412;1324", 3), ("321", 3)):
            ps = PatternSet.from_text(text)
            cap = ps.cap
            for k in range(0, longest + 1):
                for gamma in itertools.permutations(range(1, k + 1)):
                    if not avoids(gamma, ps.patterns):
                        continue
                    gk = gamma[-1] if k else 0
                    want = [
                        c for c in itertools.product(range(cap + 1), repeat=k + 1)
                        if (k == 0 or any(c[:gk]))
                        and avoids(compose(gamma, c), ps.patterns)
                    ]
                    for room in (cap * (k + 1), 3):
                        counts = SignatureCounts(ps)
                        _avoiding_signatures(gamma, counts, room=room, node_budget=_Budget(None))
                        hist = counts.hist
                        binned = Counter((k + sum(c), c.count(cap)) for c in want
                                         if sum(c) <= room)
                        assert hist == binned, (text, gamma, room)
                        assert 0 not in hist.values(), (text, gamma, room)
                        assert all(type(x) is int for cell in hist for x in cell)


class TestEventualPolynomial:
    def test_examples(self):
        p, onset = eventual_polynomial(1, PatternSet())
        assert p == Polynomial.of(-1, 1) and onset <= 2
        p, onset = eventual_polynomial(0, PatternSet.of("132"))
        assert p == Polynomial.of(1)
        p, onset = eventual_polynomial(2, PatternSet.of("1324"))
        assert p == Polynomial.of(-4, 2) and onset <= 3

    def test_zero_column_gives_zero_polynomial(self):
        p, onset = eventual_polynomial(3, PatternSet.of("123"))
        assert p.is_zero
        series = major_count_series(3, PatternSet.of("123"), onset + 3)
        assert all(v == 0 for v in series[onset - 1:])

    def test_polynomial_matches_series_beyond_onset(self):
        for text, m in [("1324", 4), ("132", 5), ("", 3), ("3412;1324", 5)]:
            ps = PatternSet.from_text(text)
            p, onset = eventual_polynomial(m, ps)
            series = major_count_series(m, ps, onset + 5)
            for n in range(onset, onset + 6):
                assert p(n) == series[n - 1], (text, m, n)

    def test_polynomial_matches_brute_columns_past_onset(self):
        for text in ("1324", "3412;1324"):
            ps = PatternSet.from_text(text)
            table = maj_table(9, 4, ps)
            for m in range(0, 5):
                p, onset = eventual_polynomial(m, ps)
                assert onset <= 7, (text, m, onset)
                for n in range(onset, 10):
                    assert p(n) == table.entry(n, m), (text, m, n)

    def test_core_polynomial_identity_core(self):
        # Permutations with core 12 and no patterns: C(n, 2) - 1 from n >= 2.
        p, onset = core_polynomial((1, 2), PatternSet())
        assert p.degree == 2 and onset <= 2
        for n in range(onset, onset + 6):
            assert p(n) == n * (n - 1) // 2 - 1

    @pytest.mark.parametrize("gamma", [(1, 1), (3,), (0, 1)])
    def test_core_polynomial_refuses_a_non_permutation(self, gamma):
        with pytest.raises(InvalidInputError, match="not a permutation"):
            core_polynomial(gamma, PatternSet.of("1324"))

    def test_core_polynomial_obeys_the_node_ceiling(self):
        with pytest.raises(ResourceLimitError):
            core_polynomial((3, 1, 2), PatternSet.of("1324"), max_nodes=1)


class TestSeries:
    def test_paths_agree(self):
        # Every last row n_max, and tables capped below their triangle.
        for text, m in [("1324", 3), ("132;231", 6), ("", 2)]:
            ps = PatternSet.from_text(text)
            for n_max in range(1, 9):
                assert major_count_series(m, ps, n_max, algorithm="cores") == \
                    major_count_series(m, ps, n_max, algorithm="brute"), (text, n_max)
            for max_maj in range(0, 6):
                maj_table(8, max_maj, ps, algorithm="both")

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            major_count_series(1, PatternSet(), 0)
        with pytest.raises(InvalidInputError):
            major_count_series(1, PatternSet(), 5, algorithm="magic")
        for n_max in (0, -1):
            with pytest.raises(InvalidInputError, match="n_max must be >= 1"):
                column_counts(0, PatternSet(), n_max=n_max)


class TestTwoPatternFamily:
    def test_linear_family_membership(self):
        # Inserting 1 near the top of an identity and then a letter k > 2 in
        # front lands in the m-column of the {3412, 1324} class.
        ps = PatternSet.of("3412", "1324")
        for m in range(3, 7):
            for n in range(max(m, 4), 10):
                base = insert(tuple(range(1, n - 1)), m - 1, 1)
                for k in range(3, n + 1):
                    pi = insert(base, 1, k)
                    assert len(pi) == n
                    assert major_index(pi) == m, (m, n, k, pi)
                    assert avoids(pi, ps.patterns), (m, n, k, pi)

    def test_dip_in_column_five(self):
        t = maj_table(8, 5, ps := PatternSet.of("3412", "1324"), algorithm="both")
        assert (t.entry(6, 5), t.entry(7, 5), t.entry(8, 5)) == (21, 20, 21)


def downset_spot_check(gamma, patterns, *, trials, seed):
    """Sample avoiding profiles and check single-step downward closure.

    Returns None, or the first (profile, smaller_profile) violating closure.
    """
    rng = random.Random(seed)
    k = len(gamma)
    sigs = patterns.patterns
    for _ in range(trials):
        a = tuple(rng.randint(0, patterns.cap + 2) for _ in range(k + 1))
        if not avoids(compose(gamma, a), sigs):
            continue
        for i in range(k + 1):
            if a[i] == 0:
                continue
            b = a[:i] + (a[i] - 1,) + a[i + 1:]
            if not avoids(compose(gamma, b), sigs):
                return a, b
    return None


class TestDownSet:
    def test_spot_check_clean(self):
        for text in ("1324", "3412;1324", "132"):
            ps = PatternSet.from_text(text)
            for gamma in ((1, 2), (2, 1), (1, 3, 2), (2, 1, 3)):
                assert downset_spot_check(gamma, ps, trials=200, seed=7) is None

def test_both_mode_reports_first_differing_cell(monkeypatch):
    import majpat.enumeration as mod

    real = mod._core_rows

    def corrupted(*args, **kwargs):
        rows = real(*args, **kwargs)
        rows[2][1] += 1
        return rows

    monkeypatch.setattr(mod, "_core_rows", corrupted)
    with pytest.raises(VerificationError, match=r"n=3, m=1"):
        maj_table(4, 5, PatternSet.of("132"), algorithm="both")
