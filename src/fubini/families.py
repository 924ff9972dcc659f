"""Degenerate polynomial families: exponentials, Bell and Fubini polynomials.

The degenerate exponential e_lam^x(t) has EGF coefficients (x)_{n,lam}; the
families below are its images under the standard basis weights: Bell uses
{n brace k}_lam, Fubini adds k!, the order-r Fubini adds the rising binomial
weight C(k+r-1, k).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .combinat import stirling2_degenerate_row, weighted_by_order
from .poly import Polynomial
from .rational import as_rational
from .series import TruncatedSeries


def degenerate_exp_series(x, lam, order: int) -> TruncatedSeries:
    """Truncation of the degenerate exponential e_lam^x(t) = (1+lam*t)^(x/lam).

    The coefficient of t**n/n! is the degenerate falling factorial (x)_{n,lam};
    lam = 0 degenerates to the ordinary exp(x*t).
    """
    if order < 0:
        raise ValueError("series order must be >= 0")
    x = as_rational(x)
    lam = as_rational(lam)
    coeffs = []
    val = Fraction(1)
    for n in range(order + 1):
        if n:
            val *= x - (n - 1) * lam
        coeffs.append(val / math.factorial(n))
    return TruncatedSeries(coeffs)


def degenerate_bell_poly(n: int, lam) -> Polynomial:
    """phi_{n,lam}(x) = sum_k {n brace k}_lam x**k."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    row = stirling2_degenerate_row(n, lam)
    return Polynomial.from_scaled(row.nums, row.den)


def degenerate_fubini_poly(n: int, lam) -> Polynomial:
    """F_{n,lam}(x) = sum_k {n brace k}_lam k! x**k."""
    return degenerate_fubini_poly_order(n, 1, lam)


def classical_fubini_poly(n: int) -> Polynomial:
    """Ordered-set-partition polynomial F_n(x); the lam = 0 specialization."""
    return degenerate_fubini_poly(n, 0)


def degenerate_fubini_poly_order(n: int, r: int, lam) -> Polynomial:
    """Order-r variant F^(r)_{n,lam}(x): weight C(k+r-1, k) k! {n brace k}_lam.

    r = 1 reduces to degenerate_fubini_poly.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if r < 1:
        raise ValueError("order r must be >= 1")
    return weighted_by_order(stirling2_degenerate_row(n, lam), r)
