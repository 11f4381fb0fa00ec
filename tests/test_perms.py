import ast
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majpat.perms
from majpat.errors import InvalidInputError
from majpat.perms import (
    Magnitude,
    avoids,
    check_perm,
    contains,
    contains_ending_at_last,
    contains_through,
    delete_at,
    descents,
    embedding_plan,
    format_perm,
    insert,
    magnitude,
    maj_plus,
    major_index,
    occurrences,
    order_pattern,
    parse_perm,
    set_magnitude,
    slope,
    tail,
)

from oracles import oracle_contains, oracle_occurrences


def perms_upto(max_n):
    for n in range(max_n + 1):
        yield from itertools.permutations(range(1, n + 1))


perm_strategy = st.integers(0, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


class TestTextForms:
    def test_digit_and_comma_forms(self):
        assert parse_perm("1324") == (1, 3, 2, 4)
        assert parse_perm("1,3,2,4") == (1, 3, 2, 4)
        long = tuple([10] + list(range(1, 10)) + [11])
        assert parse_perm("10,1,2,3,4,5,6,7,8,9,11") == long
        assert format_perm(long) == "10,1,2,3,4,5,6,7,8,9,11"
        assert format_perm((1, 3, 2, 4)) == "1324"

    @pytest.mark.parametrize("bad", ["", "120", "13a", "1,1", "1,3,3", "0"])
    def test_rejects_bad_text(self, bad):
        with pytest.raises(InvalidInputError):
            parse_perm(bad)

    @given(perm_strategy)
    def test_round_trip(self, pi):
        if pi:
            assert parse_perm(format_perm(pi)) == pi


class TestOrderPattern:
    def test_examples(self):
        assert order_pattern((3, 8, 7)) == (1, 3, 2)
        assert order_pattern((1, 3)) == (1, 2)
        assert order_pattern(()) == ()

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidInputError):
            order_pattern((2, 3, 2))

    @given(perm_strategy)
    def test_idempotent_on_permutations(self, pi):
        assert order_pattern(pi) == pi


class TestContains:
    def test_examples(self):
        assert contains((3, 8, 7, 1, 2, 4, 5, 6, 9), (1, 3, 2))
        assert not contains((1, 2, 3), (2, 1))
        assert contains((1, 3, 2, 4), (1, 3, 2, 4))
        assert contains((2, 1), ())

    def test_matches_subset_oracle(self):
        # Every question the search answers, on every permutation of length
        # <= 7 and every pattern of length <= 4 plus two of length 5.
        sigmas = [s for k in range(0, 5) for s in itertools.permutations(range(1, k + 1))]
        sigmas += [(1, 2, 4, 5, 3), (2, 1, 3, 5, 4)]
        for pi in perms_upto(7):
            n = len(pi)
            for s in sigmas:
                want = oracle_occurrences(pi, s)
                assert occurrences(pi, s) == want, (pi, s)
                assert contains(pi, s) == bool(want), (pi, s)
                assert contains_ending_at_last(pi, s) == (
                    not s or any(occ[-1] == n for occ in want)), (pi, s)
                used = set(itertools.chain.from_iterable(want))
                for k in range(1, n + 1):
                    assert contains_through(pi, s, k) == (k in used), (pi, s, k)
        assert oracle_occurrences((3, 1, 4, 2), (2, 1)) == [(1, 2), (1, 4), (3, 4)]

    def test_patterns_longer_than_one_function_of_loops(self):
        # A 24-letter pattern takes more nested loops than CPython compiles
        # into one function, so each search goes on in an inner function.
        # Five 25-letter words that contain it (one letter inserted) and two
        # that avoid it, against the subset scans.
        sigma = (2, 1, *range(3, 25))
        words = [insert(sigma, k, v) for k, v in ((1, 1), (3, 13), (12, 2), (25, 25), (25, 1))]
        words += [tuple(range(1, 26)), tuple(range(25, 0, -1))]
        for pi in words:
            want = oracle_occurrences(pi, sigma)
            assert occurrences(pi, sigma) == want, pi
            assert contains(pi, sigma) == oracle_contains(pi, sigma) == bool(want), pi
            used = set(itertools.chain.from_iterable(want))
            for k in range(1, 26):
                assert contains_through(pi, sigma, k) == (k in used), (pi, k)
        assert [contains(pi, sigma) for pi in words] == [True] * 5 + [False] * 2

    def test_occurrences_are_exactly_the_witnessing_subsets(self):
        pi = (3, 8, 7, 1, 2, 4, 5, 6, 9)
        sigma = (1, 3, 2)
        got = set(occurrences(pi, sigma))
        want = set()
        for idx in itertools.combinations(range(len(pi)), 3):
            if order_pattern(tuple(pi[i] for i in idx)) == sigma:
                want.add(tuple(i + 1 for i in idx))
        assert got == want

    def test_dead_slots_are_those_nothing_reads(self):
        # For every pattern of length <= 6 and every pin, a slot is dead iff
        # its entry is read neither by the step of a slot placed after it
        # nor at the end: nothing read (the yes/no questions), the pinned
        # site plan's last step, or every entry (occurrences).
        for sigma in perms_upto(6):
            l = len(sigma)
            for pin in (None, *range(l)):
                plan = [(lo, hi) for lo, hi, _ in embedding_plan(sigma, pin)]
                order = list(range(l)) if pin is None else [pin] + [j for j in range(l) if j != pin]
                # Entry 0 is the floor, entry 1 the ceiling, then the slots as placed.
                layout = ["floor", "ceiling", *order]
                end_reads = [(), tuple(range(2, l + 2))]
                if pin == l - 2:
                    end_reads.append(plan[l - 1])
                for reads in end_reads:
                    want = []
                    for j in range(l):
                        later = order[order.index(j) + 1:]
                        read = {i for r in later for i in plan[r]} | set(reads)
                        want.append(layout.index(j) not in read)
                    # The end reads change the dead flags, never the windows.
                    want = tuple((*plan[j], want[j]) for j in range(l))
                    assert embedding_plan(sigma, pin, reads) == want, (sigma, pin, reads)

    def test_no_statement_follows_a_return(self, monkeypatch):
        # The sources of the contains and through searches for every pattern
        # of length <= 5 hold no dead code after a return in any block.
        sources = []

        def capture(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(majpat.perms, "exec", capture, raising=False)
        for sigma in perms_upto(5):
            majpat.perms._contains_search.__wrapped__(sigma)
            majpat.perms._through_search.__wrapped__(sigma)
        assert len(sources) == 2 * 154
        for source in sources:
            for node in ast.walk(ast.parse(source)):
                for field in ("body", "orelse", "finalbody"):
                    block = getattr(node, field, None)
                    if isinstance(block, list):
                        returns = [i for i, s in enumerate(block) if isinstance(s, ast.Return)]
                        assert not returns or returns[0] == len(block) - 1, source

    @pytest.mark.parametrize("k", [0, 4])
    def test_through_rejects_positions_outside(self, k):
        with pytest.raises(InvalidInputError):
            contains_through((2, 1, 3), (2, 1), k)


class TestDescentStatistics:
    def test_examples(self):
        assert descents((3, 8, 7, 1, 2, 4, 5, 6, 9)) == (2, 3)
        assert major_index(tuple(range(1, 8))) == 0
        assert major_index((3, 8, 7, 1, 2, 4, 5, 6, 9)) == 5
        assert maj_plus((1, 3, 2)) == 5
        assert maj_plus(()) == 0

    def test_tail_and_slope(self):
        assert tail((4, 2, 1, 3, 5, 6, 7)) == 3
        assert slope((4, 2, 1, 3, 5, 6, 7)) == 5
        assert slope((4, 2, 1, 3, 5, 6)) == 4
        assert tail((2, 3, 1)) == 0
        assert tail(()) == 0 and slope(()) == 0

    @given(perm_strategy)
    def test_slope_dominates_tail(self, pi):
        assert slope(pi) >= tail(pi)
        if pi:
            assert slope(pi) >= 1

    def test_extended_major_index_monotone_under_containment(self):
        # Exhaustive over every subsequence of every permutation up to length 8.
        for n in range(1, 9):
            for w in itertools.permutations(range(1, n + 1)):
                mp = n + sum(i + 1 for i in range(n - 1) if w[i] > w[i + 1])
                for size in range(1, n):
                    for idx in itertools.combinations(range(n), size):
                        sub = [w[i] for i in idx]
                        smp = size + sum(
                            i + 1 for i in range(size - 1) if sub[i] > sub[i + 1]
                        )
                        assert smp <= mp, (w, sub)


class TestInsert:
    def test_examples(self):
        assert insert((2, 3, 1, 5, 4), 3, 2) == (3, 4, 2, 1, 6, 5)
        assert insert((), 1, 1) == (1,)
        assert insert((1, 2, 3), 4, 4) == (1, 2, 3, 4)

    @pytest.mark.parametrize("k,l", [(0, 1), (1, 0), (5, 1), (1, 5)])
    def test_rejects_out_of_range(self, k, l):
        with pytest.raises(InvalidInputError):
            insert((1, 3, 2), k, l)

    def test_insert_then_delete_round_trip_exhaustive(self):
        for pi in perms_upto(6):
            n = len(pi)
            for k in range(1, n + 2):
                for l in range(1, n + 2):
                    assert delete_at(insert(pi, k, l), k) == pi

    @given(perm_strategy, st.data())
    def test_insert_then_delete_round_trip(self, pi, data):
        n = len(pi)
        k = data.draw(st.integers(1, n + 1))
        l = data.draw(st.integers(1, n + 1))
        assert delete_at(insert(pi, k, l), k) == pi

    @settings(max_examples=60)
    @given(perm_strategy, st.data())
    def test_insert_matches_half_value_semantics(self, pi, data):
        n = len(pi)
        k = data.draw(st.integers(1, n + 1))
        l = data.draw(st.integers(1, n + 1))
        doubled = [2 * v for v in pi]
        doubled.insert(k - 1, 2 * l - 1)
        assert insert(pi, k, l) == order_pattern(doubled)

    def test_new_occurrences_pass_through_inserted_position(self):
        # For an avoider, every occurrence created by an insertion must use
        # the inserted position.  Exhaustive over n <= 7 for the length-3
        # patterns and two length-4 representatives.
        sigmas = list(itertools.permutations((1, 2, 3))) + [(1, 3, 2, 4), (3, 4, 1, 2)]
        for sigma in sigmas:
            for n in range(0, 8):
                for pi in itertools.permutations(range(1, n + 1)):
                    if contains(pi, sigma):
                        continue
                    for k in range(1, n + 2):
                        for l in range(1, n + 2):
                            child = insert(pi, k, l)
                            for occ in occurrences(child, sigma):
                                assert k in occ, (pi, k, l, sigma, occ)

    def test_descent_set_preserved_by_slope_respecting_insertions(self):
        # All descents before k, letter at most pi_k, and the inserted letter
        # ordered against pi_{k-1} exactly as pi_k is: descents are unchanged.
        for n in range(1, 8):
            for pi in itertools.permutations(range(1, n + 1)):
                desc = descents(pi)
                for k in range(1, n + 1):
                    if any(d > k - 1 for d in desc):
                        continue
                    for l in range(1, pi[k - 1] + 1):
                        if k > 1 and ((l <= pi[k - 2]) != (pi[k - 1] < pi[k - 2])):
                            continue
                        assert descents(insert(pi, k, l)) == desc, (pi, k, l)


class TestMagnitude:
    def test_examples(self):
        assert magnitude((3, 2, 1)) == Magnitude.infinite()
        assert magnitude((1, 2, 3, 4)) == Magnitude.finite(0)
        assert magnitude((1, 3, 2, 4)) == Magnitude.finite(2)
        assert magnitude(()) == Magnitude.finite(0)
        assert set_magnitude([(3, 4, 1, 2), (1, 3, 2, 4)]) == Magnitude.finite(2)
        assert set_magnitude([]) == Magnitude.infinite()

    def test_ordering(self):
        assert Magnitude.finite(5) < Magnitude.infinite()
        assert Magnitude.finite(1) < Magnitude.finite(2)
        assert Magnitude.infinite().exceeds(10 ** 9)
        assert not Magnitude.finite(3).exceeds(3)
        assert str(Magnitude.finite(3)) == "3" and str(Magnitude.infinite()) == "inf"
        with pytest.raises(InvalidInputError):
            Magnitude.infinite().value

    def test_monotone_under_containment(self):
        # Only permutations of finite magnitude constrain anything.
        sigmas = [s for k in range(1, 5) for s in itertools.permutations(range(1, k + 1))]
        for n in range(1, 9):
            for w in itertools.permutations(range(1, n + 1)):
                mw = magnitude(w)
                if not mw.is_finite:
                    continue
                for s in sigmas:
                    if contains(w, s):
                        assert magnitude(s) <= mw, (w, s)


def test_check_perm_validates():
    assert check_perm([2, 1]) == (2, 1)
    with pytest.raises(InvalidInputError):
        check_perm([1, 3])
    assert avoids((2, 1, 3), [(1, 2, 3)])
