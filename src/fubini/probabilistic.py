"""Moment-weighted (probabilistic) degenerate Stirling, Bell and Fubini objects.

S_k denotes the sum of k independent copies of Y. Its moments E[S_k**m] are
the k-th power of the moment EGF of Y, computed by J. C. P. Miller's power
recurrence in O(m**2) for any k. The probabilistic degenerate Stirling
numbers {n brace k}_{Y,lam} are the EGF coefficients of
F_k = (E[e_lam^Y(t)] - 1)**k / k!; one lower triangle per (dist, lam) grows
row by row from the column recurrence k F_k = (E[e_lam^Y(t)] - 1) F_{k-1}.
Everything is exact.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from . import hooks
from .combinat import binomial, factorial, falling_factorial_poly
from .distributions import Distribution
from .poly import Polynomial
from .rational import as_rational
from .series import TruncatedSeries


# Memo rows, grown on demand: E[Y**m] per dist, E[S_k**m] per (dist, k),
# E[(Y)_{n,lam}] per (dist, lam) and E[(S_k)_{n,lam}] per (dist, k, lam).
# A defaultdict builds the empty row only on a miss, not on every lookup.
_raw_moment_rows: dict[Distribution, list[Fraction]] = hooks.memo(defaultdict(list))
_sum_moment_rows: dict[tuple[Distribution, int], list[Fraction]] = hooks.memo(
    defaultdict(lambda: [Fraction(1)])
)
_degenerate_rows: dict[tuple[Distribution, Fraction], list[Fraction]] = hooks.memo(
    defaultdict(list)
)
_sum_degenerate_rows: dict[tuple[Distribution, int, Fraction], list[Fraction]] = (
    hooks.memo(defaultdict(list))
)


def raw_moment(dist: Distribution, m: int) -> Fraction:
    """E[Y**m], exactly; m >= 0."""
    if m < 0:
        raise ValueError("moment order must be >= 0")
    row = _raw_moment_rows[dist]
    while len(row) <= m:
        row.append(as_rational(dist.moment_formula(len(row))))
    return hooks.shifted("raw_moment", (dist, m), row[m])


def _sum_raw_moments(dist: Distribution, k: int, m: int) -> list[Fraction]:
    """E[S_k**0..m] by J. C. P. Miller's power recurrence (TAOCP Vol. 2, 4.7).

    With mu_j = E[Y**j] and mu_0 = 1, the k-th power of sum_j mu_j t**j / j!
    has EGF coefficients beta_0 = 1 and
    n beta_n = sum_{j=1..n} ((k+1) j - n) C(n, j) mu_j beta_{n-j}.
    mu_0 = 1 holds for every distribution, so it is not read from the
    moment table; a fault injected at raw_moment(dist, 0) does not reach here.
    """
    row = _sum_moment_rows[dist, k]
    while len(row) <= m:
        n = len(row)
        total = Fraction(0)
        for j in range(1, n + 1):
            mu = raw_moment(dist, j)
            if mu:
                total += ((k + 1) * j - n) * binomial(n, j) * mu * row[n - j]
        row.append(total / n)
    return row


def sum_raw_moment(dist: Distribution, k: int, m: int) -> Fraction:
    """E[S_k**m] for the sum S_k of k independent copies of Y."""
    if k < 0 or m < 0:
        raise ValueError("sum moments need k, m >= 0")
    return hooks.shifted("sum_moment", (dist, k, m), _sum_raw_moments(dist, k, m)[m])


def _contract(n: int, lam: Fraction, moment) -> Fraction:
    """sum_m [x**m](x)_{n,lam} * moment(m): a moment row against (x)_{n,lam}."""
    poly = falling_factorial_poly(n, lam)
    return sum(
        (c * moment(m) for m, c in enumerate(poly.coeffs) if c),
        start=Fraction(0),
    )


def degenerate_moment(dist: Distribution, n: int, lam) -> Fraction:
    """E[(Y)_{n,lam}]: the raw moments contracted against (x)_{n,lam}."""
    if n < 0:
        raise ValueError("moment order must be >= 0")
    lam = as_rational(lam)
    row = _degenerate_rows[dist, lam]
    while len(row) <= n:
        row.append(_contract(len(row), lam, lambda m: raw_moment(dist, m)))
    return row[n]


def sum_degenerate_moment(dist: Distribution, k: int, n: int, lam) -> Fraction:
    """E[(S_k)_{n,lam}] for the k-fold independent sum."""
    if k < 0 or n < 0:
        raise ValueError("sum moments need k, n >= 0")
    lam = as_rational(lam)
    row = _sum_degenerate_rows[dist, k, lam]
    while len(row) <= n:
        row.append(_contract(len(row), lam, lambda m: sum_raw_moment(dist, k, m)))
    return row[n]


# Lower triangles of {n brace k}_{Y,lam} per (dist, lam); row n holds k = 0..n.
_triangles: dict[tuple[Distribution, Fraction], list[list[Fraction]]] = hooks.memo(
    defaultdict(lambda: [[Fraction(1)]])
)


def _stirling2_row(dist: Distribution, n: int, lam) -> list[Fraction]:
    """Row n of the triangle (empty for n < 0): T(0,0) = 1, T(n,0) = 0 for
    n >= 1 and k T(n,k) = sum_{j=1..n-k+1} C(n,j) a_j T(n-j,k-1), with
    a_j = E[(Y)_{j,lam}].
    """
    if n < 0:
        return []
    lam = as_rational(lam)
    rows = _triangles[dist, lam]
    while len(rows) <= n:
        m = len(rows)
        weights = [
            binomial(m, j) * degenerate_moment(dist, j, lam) for j in range(m + 1)
        ]
        row = [Fraction(0)] * (m + 1)
        for k in range(1, m + 1):
            total = Fraction(0)
            for j in range(1, m - k + 2):
                prev = rows[m - j][k - 1]
                if prev and weights[j]:
                    total += weights[j] * prev
            row[k] = total / k
        rows.append(row)
    return rows[n]


def prob_stirling2(dist: Distribution, n: int, k: int, lam) -> Fraction:
    """Probabilistic degenerate Stirling numbers {n brace k}_{Y,lam}.

    n! [t**n] (E[e_lam^Y(t)] - 1)**k / k!, equivalently the k-th finite
    difference of j -> E[(S_j)_{n,lam}] at 0 divided by k!; zero for k > n.
    """
    if n < 0 or k < 0:
        raise ValueError("prob_stirling2 needs n, k >= 0")
    if k > n:
        return Fraction(0)
    return _stirling2_row(dist, n, lam)[k]


def prob_bell_poly(dist: Distribution, n: int, lam) -> Polynomial:
    """phi^Y_{n,lam}(x) = sum_k {n brace k}_{Y,lam} x**k."""
    return Polynomial(_stirling2_row(dist, n, lam))


def prob_fubini_poly(dist: Distribution, n: int, lam) -> Polynomial:
    """F^Y_{n,lam}(x) = sum_k {n brace k}_{Y,lam} k! x**k."""
    return prob_fubini_poly_order(dist, n, 1, lam)


def prob_fubini_poly_order(dist: Distribution, n: int, r: int, lam) -> Polynomial:
    """Order-r variant with weight C(k+r-1, k) k!; r = 1 gives prob_fubini_poly."""
    if r < 1:
        raise ValueError("order r must be >= 1")
    row = _stirling2_row(dist, n, lam)
    return Polynomial(
        [binomial(k + r - 1, k) * factorial(k) * c for k, c in enumerate(row)]
    )


def mgf_degenerate_series(dist: Distribution, lam, order: int) -> TruncatedSeries:
    """Truncation of E[e_lam^Y(t)]: EGF coefficients are E[(Y)_{n,lam}]."""
    if order < 0:
        raise ValueError("series order must be >= 0")
    lam = as_rational(lam)
    return TruncatedSeries(
        [degenerate_moment(dist, n, lam) / math.factorial(n) for n in range(order + 1)]
    )

