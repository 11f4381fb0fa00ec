from fractions import Fraction

import pytest

from majpat.errors import InvalidInputError
from majpat.poly import Polynomial, ZERO


def test_evaluation_and_arithmetic():
    p = Polynomial.of(-4, 2)  # 2n - 4
    assert p(3) == 2 and p(7) == 10
    q = Polynomial.of(1, 0, 1)  # n^2 + 1
    assert (p + q)(2) == 0 + 5
    assert (q - q).is_zero
    assert p.scaled(3)(5) == 18
    assert Polynomial.of(0, 0).is_zero


def test_degree_and_leading():
    assert ZERO.degree == 0 and ZERO.is_zero
    assert Polynomial.of(5).degree == 0
    assert Polynomial.of(0, 0, Fraction(1, 2)).leading_coefficient == Fraction(1, 2)


def test_binomial():
    # C(n - 2, 3) at n = 7 is C(5, 3) = 10; at n = 4 it is C(2, 3) = 0.
    b = Polynomial.binomial(3, 2)
    assert b(7) == 10
    assert b(4) == 0
    assert Polynomial.binomial(0, 5)(1) == 1
    with pytest.raises(InvalidInputError):
        Polynomial.binomial(-1)


def test_pairs_round_trip_and_str():
    p = Polynomial.of(-8, Fraction(3, 2), Fraction(1, 2))
    assert Polynomial.from_pairs(p.to_pairs()) == p
    assert str(p) == "1/2*n^2 + 3/2*n - 8"
    assert str(ZERO) == "0"
    assert str(Polynomial.of(-1, 1)) == "n - 1"


def test_equal_and_hashed_by_value():
    p = Polynomial.of(1, 2)
    assert p == Polynomial.from_pairs([[1, 1], [2, 1]]) and hash(p) == hash(Polynomial.of(1, 2))
    assert p != Polynomial.of(1) and p != p.coeffs and ZERO != ()
