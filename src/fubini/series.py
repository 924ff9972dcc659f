"""Truncated formal power series over exact rationals.

Coefficients live in the plain t**k basis. Exponential-generating-function
callers convert at the boundary via ``from_egf``/``egf_coefficient``, which
divide/multiply by k!; nothing inside the arithmetic ever rounds.

A series is a ``poly.ScaledVector``, stored as Polynomial is and sharing its
ring operations: integer numerators ``nums`` over one positive denominator
``den`` with gcd(den, *nums) == 1. Trailing zeros are kept, because they
carry the order; a sum or product of two series needs equal orders, and a
product stops at that order.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import ScaledVector
from .rational import ScaledRow, as_rational, reduced


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


class TruncatedSeries(ScaledVector):
    """Power series truncated after t**order; all ops stay at that order."""

    __slots__ = ("order",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least the t**0 coefficient")
        super().__init__(coeffs)

    def _set(self, nums, den: int) -> None:
        self.nums, self.den = reduced(nums, den)
        self.order = len(nums) - 1
        self._coeffs = None

    def _check(self, other: "TruncatedSeries") -> None:
        if other.order != self.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    def _product_size(self, other) -> int:
        return self.order + 1

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
