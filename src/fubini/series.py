"""Truncated formal power series over exact rationals.

Coefficients live in the plain t**k basis. Exponential-generating-function
callers convert at the boundary via ``from_egf``/``egf_coefficient``, which
divide/multiply by k!; nothing inside the arithmetic ever rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import convolve
from .rational import as_rational


class TruncatedSeries:
    """Power series truncated after t**order; all ops stay at that order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs):
        cs = tuple(as_rational(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the t**0 coefficient")
        self.coeffs = cs
        self.order = len(cs) - 1

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1] + [0] * order)

    @classmethod
    def from_egf(cls, egf_values) -> "TruncatedSeries":
        """Build from coefficients of t**n/n!."""
        return cls([as_rational(v) / math.factorial(n) for n, v in enumerate(egf_values)])

    def egf_coefficient(self, n: int) -> Fraction:
        """Coefficient of t**n/n!."""
        if not 0 <= n <= self.order:
            raise ValueError(f"order {n} outside truncation order {self.order}")
        return self.coeffs[n] * math.factorial(n)

    def egf_coefficients(self) -> list[Fraction]:
        return [self.coeffs[n] * math.factorial(n) for n in range(self.order + 1)]

    def _check_order(self, other: "TruncatedSeries") -> None:
        if other.order != self.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])
        c = as_rational(other)
        return TruncatedSeries((self.coeffs[0] + c,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])
        return self + (-as_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries(convolve(self.coeffs, other.coeffs, self.order + 1))
        c = as_rational(other)
        return TruncatedSeries([a * c for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series power needs an integer exponent >= 0")
        result = TruncatedSeries.one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; needs a nonzero constant term."""
        a = self.coeffs
        if a[0] == 0:
            raise ZeroDivisionError("cannot invert a series with zero constant term")
        inv0 = 1 / a[0]
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                if a[i]:
                    acc += a[i] * out[k - i]
            out.append(-inv0 * acc)
        return TruncatedSeries(out)

    def exp(self) -> "TruncatedSeries":
        """Series exponential; needs a zero constant term."""
        a = self.coeffs
        if a[0] != 0:
            raise ValueError("series exponential requires zero constant term")
        out = [Fraction(1)]
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if a[j]:
                    acc += j * a[j] * out[k - j]
            out.append(acc / k)
        return TruncatedSeries(out)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries([{', '.join(str(c) for c in self.coeffs)}])"
