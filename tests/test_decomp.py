import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from majpat.decomp import (
    cap_profile,
    co_layered,
    compose,
    decompose,
    format_profile,
)
from majpat.errors import InvalidInputError
from majpat.perms import contains, descents, maj_plus, major_index

from oracles import compositions


class TestCompose:
    def test_examples(self):
        assert compose((1, 3, 2), (2, 3, 0, 1)) == (3, 8, 7, 1, 2, 4, 5, 6, 9)
        assert compose((), (6,)) == (1, 2, 3, 4, 5, 6)
        assert compose((1, 2), (1, 0, 0)) == (2, 3, 1)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            compose((1, 2), (1, 0))
        with pytest.raises(InvalidInputError):
            compose((1,), (1, -1))


class TestDecompose:
    def test_examples(self):
        assert decompose((3, 8, 7, 1, 2, 4, 5, 6, 9)) == ((1, 3, 2), (2, 3, 0, 1))
        assert decompose((1, 2, 3, 4, 5)) == ((), (5,))
        assert decompose((1, 3, 2, 4)) == ((1, 2), (0, 1, 1))
        assert decompose(()) == ((), (0,))
        assert decompose((3, 4, 1, 2)) == ((1, 2), (2, 0, 0))

    def test_round_trip_exhaustive(self):
        for n in range(0, 8):
            for pi in itertools.permutations(range(1, n + 1)):
                core, profile = decompose(pi)
                assert compose(core, profile) == pi
                assert major_index(pi) == maj_plus(core)

    def test_inverse_direction_exhaustive(self):
        # Every (core, profile) pair obeying the last-descent condition is
        # recovered unchanged; sizes up to 8 here, the 9 bound runs in the
        # acceptance suite.
        for k in range(0, 8):
            for gamma in itertools.permutations(range(1, k + 1)):
                gk = gamma[-1] if k else 0
                for total in range(0 if k == 0 else 1, 8 - k + 1):
                    for a in compositions(total, k + 1):
                        if k and not any(a[i] > 0 for i in range(gk)):
                            continue
                        assert decompose(compose(gamma, a)) == (gamma, a)

    @given(st.integers(0, 7).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)))
    def test_round_trip_property(self, pi):
        core, profile = decompose(pi)
        assert compose(core, profile) == pi

    def test_profile_monotone_containment(self):
        # Lowering any profile coordinate gives a contained permutation.
        for k in range(0, 4):
            for gamma in itertools.permutations(range(1, k + 1)):
                for total in range(0, 6 - k):
                    for a in compositions(total, k + 1):
                        pi = compose(gamma, a)
                        for b in compositions_below(a):
                            assert contains(pi, compose(gamma, b)), (gamma, a, b)


def compositions_below(a):
    for i, v in enumerate(a):
        if v:
            yield a[:i] + (v - 1,) + a[i + 1:]


class TestCapProfile:
    def test_examples(self):
        assert cap_profile((2, 3, 0, 1), 2) == (2, 2, 0, 1)
        assert cap_profile((1, 2, 0), 4) == (1, 2, 0)
        assert cap_profile((5, 0), 4) == (4, 0)

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(InvalidInputError):
            cap_profile((1,), 0)

    def test_capped_containment_equivalence_small(self):
        # Containment of a pattern only sees the profile capped at the
        # pattern length; the full stated bounds run in the acceptance suite.
        sigmas = [s for j in range(1, 5) for s in itertools.permutations(range(1, j + 1))]
        for k in range(0, 3):
            for gamma in itertools.permutations(range(1, k + 1)):
                for total in range(0, 5):
                    for a in compositions(total, k + 1):
                        pi = compose(gamma, a)
                        for s in sigmas:
                            capped = compose(gamma, cap_profile(a, len(s)))
                            assert contains(pi, s) == contains(capped, s)


class TestCoLayered:
    def test_examples(self):
        assert co_layered({1, 3, 5}, 6) == (6, 4, 5, 2, 3, 1)
        assert co_layered(set(), 5) == (1, 2, 3, 4, 5)
        assert co_layered({1, 2, 3}, 4) == (4, 3, 2, 1)

    def test_rejects_bad_descents(self):
        with pytest.raises(InvalidInputError):
            co_layered({4}, 4)
        with pytest.raises(InvalidInputError):
            co_layered({0}, 4)

    def test_descents_and_avoidance(self):
        for n in range(0, 8):
            for r in range(0, n):
                for desc in itertools.combinations(range(1, n), r):
                    pi = co_layered(desc, n)
                    assert descents(pi) == desc
                    assert not contains(pi, (1, 3, 2))
                    assert not contains(pi, (2, 1, 3))

    def test_unique_by_brute_force(self):
        # The only 132- and 213-avoider of length 6 with descents {1, 3, 5}.
        hits = [
            pi for pi in itertools.permutations(range(1, 7))
            if descents(pi) == (1, 3, 5)
            and not contains(pi, (1, 3, 2)) and not contains(pi, (2, 1, 3))
        ]
        assert hits == [(6, 4, 5, 2, 3, 1)]


def test_profile_text_forms():
    assert format_profile((2, 3, 0, 1)) == "(2,3,0,1)"
