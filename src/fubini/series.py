"""Truncated formal power series over exact rationals.

Coefficients live in the plain t**k basis. Exponential-generating-function
callers convert at the boundary via ``from_egf``/``egf_coefficient``, which
divide/multiply by k!; nothing inside the arithmetic ever rounds.

A series is stored as Polynomial is: integer numerators ``nums`` over one
positive denominator ``den`` with gcd(den, *nums) == 1 (trailing zeros are
kept, because they carry the order). The ring operations are integer
operations with one reduction per result, and the Fraction coefficients are
built only when ``coeffs`` is first read.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import convolve, weighted_sum
from .rational import ScaledRow, as_rational, ratio, reduced, scaled


def _recurrence(weights, divisor, order: int) -> tuple[list[int], int]:
    """out_0 = 1 and out_k = sum_{i=1..k} weights[i] out_{k-i} / divisor(k).

    weights are ints and divisor(k) a positive int. Each out_k is reduced to
    lowest terms before the next step, and the outputs are kept over the lcm
    of their denominators (a ScaledRow), so the integers grow only as the
    exact values do. Returns the numerators of out_0..out_order over that lcm.
    """
    out = ScaledRow([1])
    for k in range(1, order + 1):
        acc = 0
        for w, b in zip(weights[1 : k + 1], reversed(out.nums)):
            if w:
                acc += w * b
        out.append(Fraction(acc, divisor(k) * out.den))
    return out.nums, out.den


class TruncatedSeries:
    """Power series truncated after t**order; all ops stay at that order."""

    __slots__ = ("order", "nums", "den", "_coeffs")

    def __init__(self, coeffs):
        cs = [as_rational(c) for c in coeffs]
        if not cs:
            raise ValueError("a truncated series needs at least the t**0 coefficient")
        self._set(*scaled(cs))

    @classmethod
    def from_scaled(cls, nums, den: int) -> "TruncatedSeries":
        """The series sum_k nums[k] / den * t**k, from ints and den != 0."""
        s = cls.__new__(cls)
        s._set(nums, den)
        return s

    def _set(self, nums, den: int) -> None:
        self.nums, self.den = reduced(nums, den)
        self.order = len(nums) - 1
        self._coeffs = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(c, den) for c in self.nums)
        return self._coeffs

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.from_scaled([0] * (order + 1), 1)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_scaled([1] + [0] * order, 1)

    @classmethod
    def from_egf(cls, egf_values) -> "TruncatedSeries":
        """Build from coefficients of t**n/n!."""
        return cls([as_rational(v) / math.factorial(n) for n, v in enumerate(egf_values)])

    def egf_coefficient(self, n: int) -> Fraction:
        """Coefficient of t**n/n!."""
        if not 0 <= n <= self.order:
            raise ValueError(f"order {n} outside truncation order {self.order}")
        return Fraction(self.nums[n] * math.factorial(n), self.den)

    def egf_coefficients(self) -> list[Fraction]:
        return [self.egf_coefficient(n) for n in range(self.order + 1)]

    def _check_order(self, other: "TruncatedSeries") -> None:
        if other.order != self.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def _combined(self, other, sign: int) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            b, db = other.nums, other.den
        else:
            p, db = ratio(other)
            b = (p,)
        return TruncatedSeries.from_scaled(
            *weighted_sum(((self.nums, self.den, 1), (b, db, sign)))
        )

    def __add__(self, other):
        return self._combined(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries.from_scaled([-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self._combined(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries.from_scaled(
                convolve(self.nums, other.nums, self.order + 1), self.den * other.den
            )
        p, q = ratio(other)
        return TruncatedSeries.from_scaled([a * p for a in self.nums], self.den * q)

    __rmul__ = __mul__

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; needs a nonzero constant term.

        With a_i = nums[i] / den, b = 1/a is (den / nums[0]) times the
        solution of out_k = -sum_i (nums[i] / nums[0]) out_{k-i}.
        """
        a0 = self.nums[0]
        if a0 == 0:
            raise ZeroDivisionError("cannot invert a series with zero constant term")
        sign = 1 if a0 > 0 else -1
        weights = [-sign * c for c in self.nums]
        nums, common = _recurrence(weights, lambda k: sign * a0, self.order)
        return TruncatedSeries.from_scaled(
            [sign * self.den * b for b in nums], abs(a0) * common
        )

    def exp(self) -> "TruncatedSeries":
        """Series exponential; needs a zero constant term.

        With a_j = nums[j] / den, out_k = sum_j j a_j out_{k-j} / k.
        """
        if self.nums[0] != 0:
            raise ValueError("series exponential requires zero constant term")
        den = self.den
        weights = [j * c for j, c in enumerate(self.nums)]
        return TruncatedSeries.from_scaled(
            *_recurrence(weights, lambda k: k * den, self.order)
        )

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"TruncatedSeries([{', '.join(str(c) for c in self.coeffs)}])"
