import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

import majpat.enumeration
from majpat.decomp import compose
from majpat.enumeration import (
    MajTable,
    PatternSet,
    SignatureCounts,
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
    _avoiding_signatures,
    _brute_rows,
    _clear_sites,
    _cores,
    _fill_columns,
    _forbidden_sites,
    _obstructions,
    _pattern_plan,
    _triangle,
    _unit_profiles,
    _walk,
)
from majpat.errors import InvalidInputError, ResourceLimitError, VerificationError
from majpat.perms import (
    avoids, contains, delete_at, descents, embedding_plan, insert, major_index,
)
from majpat.poly import Polynomial

from oracles import (
    oracle_avoiders,
    oracle_contains,
    oracle_cores,
    oracle_last_two_patterns,
    oracle_minimal_obstructions,
    oracle_occurrences,
    oracle_rows_by_deletion,
)

OBSTRUCTION_SETS = ("1324", "3412;1324", "2134", "321", "1342;2413", "21354;21453")


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


class TestForbiddenSites:
    @pytest.mark.parametrize("text", ["1", "12", "21", "1324", "3412,1324",
                                      "2413,3142", "132,213", "", "21354", "21453"])
    def test_masks_match_last_letter_containment(self, text):
        # The clear bits of every walked avoider's mask are exactly the ranks
        # s whose appending avoids every pattern, and the walk reaches every
        # avoider of length <= 6.  Both are checked against the subset-scan
        # oracles, which share no code with the embedding search.
        # _clear_sites splits them into the ranks whose child's last letter
        # rises and those where it falls: the ranks at or below the last
        # letter, and the one rank of the empty word.
        ps = PatternSet.from_text(text)
        root, sites = _forbidden_sites(ps.patterns)
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
            walk = _walk(sites, level, ([21] * (n + 2),) * 2, _Budget(None))
            level = [node for node in walk if len(node[0]) > n]

    def test_sites_of_every_word_match_subset_scan(self):
        # Every pattern of length 3-5 on every word of length <= 7, avoider
        # or not: the sites the search of _forbidden_sites adds are the
        # ranks whose appending completes an occurrence through the word's
        # last letter.
        sigmas = [s for l in (3, 4, 5) for s in itertools.permutations(range(1, l + 1))]
        searches = {sigma: _forbidden_sites((sigma,))[1] for sigma in sigmas}
        for n in range(1, 8):
            for word in itertools.permutations(range(1, n + 1)):
                want = oracle_last_two_patterns(word, (3, 4, 5))
                for sigma in sigmas:
                    assert searches[sigma](word, 0) == want.get(sigma, 0), \
                        (word, sigma)

    def test_sites_of_a_pattern_longer_than_one_function_of_loops(self):
        # The 22 head loops of a 24-letter pattern go on in an inner function
        # that sets the mask of the outer one.
        sigma = (2, 1, *range(3, 25))
        _, sites = _forbidden_sites((sigma,))
        words = [sigma[:23], sigma, tuple(range(24, 0, -1)), insert(sigma[:23], 1, 23)]
        words += [delete_at(sigma, k) for k in (1, 5, 24)]
        assert any(sites(word, 0) for word in words)
        for word in words:
            want = oracle_last_two_patterns(word, (24,)).get(sigma, 0)
            assert sites(word, 0) == want, word

    def test_dead_slots_leave_out_what_is_read(self):
        # The site search's plan pins slot l - 2 and reads below and above,
        # the window of slot l - 1, at the end: a head slot is dead iff no
        # later head step and neither below nor above reads its entry.  An
        # obstruction step's slot is dead iff no later step and no later
        # level's demands read it.
        for l in range(2, 7):
            for sigma in itertools.permutations(range(1, l + 1)):
                plan = embedding_plan(sigma, l - 2)
                steps, (below, above, _) = plan[:l - 2], plan[l - 1]
                # Layout (0, n + 1, last letter, head slots 0 .. l - 3).
                for r, (_, _, dead) in enumerate(steps):
                    read = {i for lo, hi, _ in steps[r + 1:] for i in (lo, hi)}
                    assert dead == (r + 3 not in read | {below, above}), (sigma, r)
                steps, groups = _pattern_plan(sigma)
                # Layout (0, k + 1, slots 0 .. l - 1).
                for r, (_, _, dead) in enumerate(steps):
                    read = {i for lo, hi, _ in steps[r + 1:] for i in (lo, hi)}
                    read |= {i for group in groups[r + 1:] for lo, hi, _ in group
                             for i in (lo, hi)}
                    assert dead == (r + 2 not in read), (sigma, r)


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

    def test_csv_json_round_trip(self):
        t = maj_table(5, 4, PatternSet.of("132"))
        again = MajTable.from_json_obj(json.loads(t.to_json()))
        assert again == t and MajTable.from_json_obj(t.to_json_obj()) == t
        max_maj, rows = MajTable.rows_from_csv(t.to_csv())
        assert max_maj == t.max_maj and rows == t.rows
        # A count that is not an integer is bad input, in either form.
        obj = t.to_json_obj()
        obj["rows"][2]["counts"][1] = "x"
        with pytest.raises(InvalidInputError):
            MajTable.from_json_obj(obj)
        with pytest.raises(InvalidInputError):
            MajTable.from_json_obj({**t.to_json_obj(), "max_n": "x"})
        # Rows that do not match max_n and max_maj are bad input too: missing,
        # extra, misnumbered, short or long.
        good = t.to_json_obj()
        rows = good["rows"]
        longer = [*rows[4]["counts"], 0]
        for bad in ({"patterns": [], "max_n": 3, "max_maj": 2, "rows": []},
                    {**good, "rows": rows[:4]},
                    {**good, "rows": [*rows, {"n": 6, "counts": [1]}]},
                    {**good, "rows": [rows[1], rows[0], *rows[2:]]},
                    {**good, "rows": [*rows[:4], {"n": 5, "counts": longer}]},
                    {**good, "rows": [*rows[:4], {"n": 5, "counts": longer[:-2]}]},
                    {**good, "max_maj": 5},
                    {**good, "max_n": 0, "rows": []}):
            with pytest.raises(InvalidInputError):
                MajTable.from_json_obj(bad)
        with pytest.raises(InvalidInputError):
            MajTable.rows_from_csv(t.to_csv().replace("1,1,", "1,x,", 1))

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
        # serial spend T (one node per counted permutation) passes and T - 1
        # stops the run.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        ps = PatternSet.from_text(text)
        for max_n in range(1, 9):
            for max_maj in (max_n * (max_n - 1) // 2, 3):
                rows = maj_table(max_n, max_maj, ps).rows
                spend = sum(map(sum, rows))
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
        # for.
        caller = os.getpid()
        walk_share = majpat.enumeration._walk_share

        def share(*args):
            if os.getpid() != caller:
                if fails == "child":
                    raise ResourceLimitError("the child's share failed")
                if fails in ("caller", "interrupt"):
                    time.sleep(60)
            elif fails == "caller":
                raise ResourceLimitError("the caller's share failed")
            elif fails == "interrupt":
                raise KeyboardInterrupt
            return walk_share(*args)

        monkeypatch.setattr(majpat.enumeration, "_walk_share", share)
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
    k = len(gamma)
    obstructions = _obstructions(gamma, patterns.patterns, 1)
    if obstructions is None:
        return ()
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
        # mask, and the pairs read off the masks of the children the walk
        # builds.  The profiles, count_by_core and add_core (the obstruction
        # and signature-walk route) must give the same units and, per
        # column, the same histogram cells, with no zero cell.
        for text in OBSTRUCTION_SETS + ("1", "12", "21", ""):
            ps = PatternSet.from_text(text)
            for gamma, _, sites in _cores(ps, 21, 6, _Budget(None)):
                assert sites.bit_count() == len(minimal_avoiding_profiles(gamma, ps)) \
                    == count_by_core(gamma, len(gamma) + 1, ps), (text, gamma)
            # Full triangles, and a ceiling that cuts the last row but one.
            for n_max, ceiling in [(n, c) for n in range(1, 9) for c in (n * (n - 1) // 2, 4)]:
                got = {mp: SignatureCounts(ps.cap) for mp in range(ceiling + 1)}
                _fill_columns(got, ps, n_max, _Budget(None))
                want = {mp: SignatureCounts(ps.cap) for mp in range(ceiling + 1)}
                for gamma, mp, _ in _cores(ps, ceiling, n_max - 1, _Budget(None)):
                    want[mp].add_core(gamma, ps, budget_sum=n_max - len(gamma),
                                      node_budget=_Budget(None))
                for mp in got:
                    # The empty word, the empty core's zero signature, sits in
                    # cell (0, 0), which no row reads and the mask reads skip.
                    for counts in (got[mp], want[mp]):
                        counts.hist.pop((0, 0), None)
                    assert got[mp].hist == want[mp].hist, (text, n_max, ceiling, mp)
                    assert 0 not in got[mp].hist.values(), (text, n_max, ceiling, mp)

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
                    obstructions = _obstructions(gamma, ps.patterns, cap * (k + 1))
                    if obstructions is None:
                        assert not avoids(gamma, ps.patterns), (text, gamma)
                        continue
                    assert avoids(gamma, ps.patterns), (text, gamma)
                    for _ in range(12):
                        c = tuple(rng.randint(0, cap) for _ in range(k + 1))
                        met = any(all(sum(c[lo:hi + 1]) >= d for lo, hi, d in ob)
                                  for ob in obstructions)
                        composed = compose(gamma, c)
                        want = any(contains(composed, s) for s in ps.patterns)
                        assert met == want, (text, gamma, c)

    def test_a_pattern_longer_than_one_function_of_loops(self):
        # Cores of length 21 and 22 embed 21 slots of a 24-letter pattern,
        # past the loops one function holds; random signatures of at most
        # three letters against the subset scan of the composed word.
        sigma = (2, 1, *range(3, 25))
        assert _obstructions(sigma, (sigma,), 3) is None
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

    def test_minimal_obstructions_match_all_pairs_filter(self, monkeypatch):
        # The sorted single pass keeps what comparing every pair keeps, on
        # the obstruction sets of every core of length <= 6 at both budgets.
        seen = []
        minimal = majpat.enumeration._minimal_obstructions

        def recorded(found):
            seen.append(set(found))
            return minimal(found)

        monkeypatch.setattr(majpat.enumeration, "_minimal_obstructions", recorded)
        for text in OBSTRUCTION_SETS:
            ps = PatternSet.from_text(text)
            for k in range(0, 7):
                for gamma in itertools.permutations(range(1, k + 1)):
                    for room in (ps.cap * (k + 1), 9 - k):
                        seen.clear()
                        got = _obstructions(gamma, ps.patterns, room)
                        if got is not None:
                            assert got == oracle_minimal_obstructions(seen[0]), (text, gamma, room)

    def test_signatures_match_exhaustive_filter(self):
        # The histogram bins the avoiding signatures of the exhaustive filter
        # by (k + |c|, #{c_i = cap}), with and without a size budget, holds
        # no zero cell and keys its cells by ints, not bools.
        for text, longest in (("1324", 4), ("3412;1324", 3), ("321", 3)):
            ps = PatternSet.from_text(text)
            cap = ps.cap
            for k in range(0, longest + 1):
                for gamma in itertools.permutations(range(1, k + 1)):
                    gk = gamma[-1] if k else 0
                    want = [
                        c for c in itertools.product(range(cap + 1), repeat=k + 1)
                        if (k == 0 or any(c[:gk]))
                        and avoids(compose(gamma, c), ps.patterns)
                    ]
                    for budget_sum in (None, 3):
                        hist = Counter()
                        _avoiding_signatures(gamma, ps, hist=hist, budget_sum=budget_sum,
                                             node_budget=_Budget(None))
                        binned = Counter((k + sum(c), c.count(cap)) for c in want
                                         if budget_sum is None or sum(c) <= budget_sum)
                        assert hist == binned, (text, gamma, budget_sum)
                        assert 0 not in hist.values(), (text, gamma, budget_sum)
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

    def test_core_polynomial_obeys_the_node_ceiling(self, monkeypatch):
        monkeypatch.setenv("MAJPAT_MAX_NODES", "1")
        with pytest.raises(ResourceLimitError):
            core_polynomial((3, 1, 2), PatternSet.of("1324"))


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
