"""Exact polynomials with rational coefficients, for eventual-count formulas."""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .errors import InvalidInputError


class Polynomial:
    """Coefficients in ascending order, normalized (no trailing zeros).

    The zero polynomial is the empty coefficient tuple; its reported degree is
    0, matching the convention used for degrees of counting sequences.  Equal
    and hashed by value; not a tuple, whose + and * would clash with its own.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...] = ()):
        self.coeffs = coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial(coeffs={self.coeffs!r})"

    @staticmethod
    def of(*coeffs: int | Fraction) -> "Polynomial":
        return Polynomial(_normalize(Fraction(c) for c in coeffs))

    @staticmethod
    def constant(c: int | Fraction) -> "Polynomial":
        return Polynomial.of(c)

    @staticmethod
    def binomial(r: int, shift: int | Fraction = 0) -> "Polynomial":
        """C(n - shift, r) as a polynomial in n: prod_{t<r} (n - shift - t) / r!.

        >>> Polynomial.binomial(1, 2)(5)
        Fraction(3, 1)
        """
        if r < 0:
            raise InvalidInputError(f"binomial order must be non-negative, got {r}")
        coeffs = [Fraction(1)]
        for t in range(r):
            coeffs = _mul_linear(coeffs, -Fraction(shift) - t)
        inv = Fraction(1, factorial(r))
        return Polynomial(_normalize(c * inv for c in coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as degree 0."""
        return max(len(self.coeffs) - 1, 0)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __call__(self, n: int | Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return Polynomial(_normalize(summed))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + Polynomial(tuple(-c for c in other.coeffs))

    def scaled(self, factor: int | Fraction) -> "Polynomial":
        f = Fraction(factor)
        return Polynomial(_normalize(c * f for c in self.coeffs))

    def to_pairs(self) -> list[list[int]]:
        """Ascending [numerator, denominator] pairs for JSON emission."""
        return [[c.numerator, c.denominator] for c in self.coeffs]

    @staticmethod
    def from_pairs(pairs: Sequence[Sequence[int]]) -> "Polynomial":
        return Polynomial(_normalize(Fraction(num, den) for num, den in pairs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                term = str(mag)
            else:
                base = "n" if power == 1 else f"n^{power}"
                term = base if mag == 1 else f"{mag}*{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


ZERO = Polynomial()


def _normalize(coeffs) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _mul_linear(coeffs: list[Fraction], constant: Fraction) -> list[Fraction]:
    # coeffs * (n + constant)
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] += c * constant
        out[i + 1] += c
    return out
