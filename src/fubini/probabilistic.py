"""Moment-weighted (probabilistic) degenerate Stirling, Bell and Fubini objects.

S_k denotes the sum of k independent copies of Y. Its moments E[S_k**m] are
the k-th power of the moment EGF of Y, computed by J. C. P. Miller's power
recurrence in O(m**2) for any k. The probabilistic degenerate Stirling
numbers {n brace k}_{Y,lam} are the EGF coefficients of
F_k = (E[e_lam^Y(t)] - 1)**k / k!; one lower triangle per (dist, lam) grows
row by row from the column recurrence k F_k = (E[e_lam^Y(t)] - 1) F_{k-1}.
Everything is exact. Every memo row is stored once, as integer numerators
over the lcm of the entries' denominators: the moments E[Y**m], E[S_k**m],
E[(Y)_{n,lam}] and E[(S_k)_{n,lam}] as a rational.ScaledRow, and triangle
row n as the Bell polynomial phi^Y_{n,lam}(x) = sum_k {n brace k}_{Y,lam}
x**k, which that row is. The recurrences, the contractions against the
numerators of (x)_{n,lam} and the polynomial builders run on those
numerators in Python ints. A reader of many entries takes a row itself (the
identity checkers read Miller's rows, sum_raw_row, and THM2_9_PRINTED one
sum_degenerate_row per r); a scalar accessor builds one Fraction per read.
prob_bell_polys returns the triangle whole and prob_bell_poly indexes it;
the order-r Fubini polynomials are one list per (dist, r, lam), which
prob_fubini_polys returns and prob_fubini_poly_order indexes. The moment
series is memoised per (dist, lam, order). Tables indexed by lam are keyed
by (lam.numerator, lam.denominator), hashing without Fraction.__hash__.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import partial
from operator import mul

from . import hooks
from .combinat import binomial, falling_factorial_polys, weighted_by_order
from .distributions import Distribution
from .poly import Polynomial, weighted_sum
from .rational import ScaledRow, as_rational, ratio
from .series import TruncatedSeries


# Memo rows, grown on demand, one ScaledRow each. E[Y**m] per dist, as the
# moment formula gives it; E[S_k**m] per (dist, k), grown by Miller's
# recurrence; E[(Y)_{n,lam}] per (dist, lam) and E[(S_k)_{n,lam}] per
# (dist, k, lam), lam as its numerator and denominator. A defaultdict builds
# the empty row only on a miss, not on every lookup.
_raw_moment_rows: dict[Distribution, ScaledRow] = hooks.memo(defaultdict(ScaledRow))
_sum_moment_rows: dict[tuple[Distribution, int], ScaledRow] = hooks.memo(
    defaultdict(lambda: ScaledRow([1]))
)
_degenerate_rows: dict[tuple[Distribution, int, int], ScaledRow] = hooks.memo(
    defaultdict(ScaledRow)
)
_sum_degenerate_rows: dict[tuple[Distribution, int, int, int], ScaledRow] = (
    hooks.memo(defaultdict(ScaledRow))
)


def _raw_moments(dist: Distribution, m: int) -> ScaledRow:
    """E[Y**0..m] (at least), as its readers see it (hooks.shifted_row)."""
    row = _raw_moment_rows[dist]
    if len(row) <= m:
        row.extend_ratios(ratio(dist.moment_formula(i)) for i in range(len(row), m + 1))
    return hooks.shifted_row("raw_moment", (dist,), row)


def raw_moment(dist: Distribution, m: int) -> Fraction:
    """E[Y**m], exactly; m >= 0."""
    if m < 0:
        raise ValueError("moment order must be >= 0")
    return _raw_moments(dist, m)[m]


def _sum_raw_moments(dist: Distribution, k: int, m: int) -> ScaledRow:
    """E[S_k**0..m] (at least), as its readers see it (hooks.shifted_row).

    J. C. P. Miller's power recurrence (TAOCP 4.7): with mu_j = E[Y**j] and
    mu_0 = 1, the k-th power of sum_j mu_j t**j / j! has EGF coefficients
    beta_0 = 1 and
    n beta_n = sum_{j=1..n} ((k+1) j - n) C(n, j) mu_j beta_{n-j}.
    mu_0 = 1 holds for every distribution, so it is not read from the
    moment row; a fault injected at raw_moment(dist, 0) does not reach here.
    The sum runs on the numerators of mu_1..mu_n as read and of the stored,
    unshifted beta_0..beta_{n-1}, and appends each new entry as an
    unreduced pair.
    """
    row = _sum_moment_rows[dist, k]
    while len(row) <= m:
        n = len(row)
        mus = _raw_moments(dist, n)
        betas = row.nums
        total = 0
        for j in range(1, n + 1):
            mu = mus.nums[j]
            if mu:
                total += ((k + 1) * j - n) * binomial(n, j) * mu * betas[n - j]
        row.extend_ratios([(total, n * mus.den * row.den)])
    return hooks.shifted_row("sum_moment", (dist, k), row)


def sum_raw_row(dist: Distribution, k: int, m: int) -> ScaledRow:
    """E[S_k**j] for j = 0..m (at least), as its readers see it.

    Entry j is row.nums[j] / row.den; read the pair at once, as for
    sum_degenerate_row.
    """
    if k < 0 or m < 0:
        raise ValueError("sum moments need k, m >= 0")
    return _sum_raw_moments(dist, k, m)


def sum_raw_moment(dist: Distribution, k: int, m: int) -> Fraction:
    """E[S_k**m] for the sum S_k of k independent copies of Y."""
    return sum_raw_row(dist, k, m)[m]


def _contracted(row: ScaledRow, n: int, lam: Fraction, moments) -> ScaledRow:
    """row grown to n + 1 entries (at least), entry m = E[(X)_{m,lam}].

    moments(n) gives the row E[X**0..n]; it is read only when the row grows.
    Each new entry is sum_j [x**j](x)_{m,lam} E[X**j], one integer dot
    product of the numerators of the polynomial and of the moment row,
    appended as an unreduced pair.
    """
    if len(row) <= n:
        mus = moments(n)
        ffs = falling_factorial_polys(n, lam)[len(row) : n + 1]
        row.extend_ratios((sum(map(mul, f.nums, mus.nums)), f.den * mus.den) for f in ffs)
    return row


def _degenerate_row(dist: Distribution, n: int, lam: Fraction) -> ScaledRow:
    """E[(Y)_{m,lam}] for m = 0..n (at least), as the stored ScaledRow."""
    row = _degenerate_rows[dist, lam.numerator, lam.denominator]
    return _contracted(row, n, lam, partial(_raw_moments, dist))


def degenerate_moment(dist: Distribution, n: int, lam) -> Fraction:
    """E[(Y)_{n,lam}]: the raw moments contracted against (x)_{n,lam}."""
    if n < 0:
        raise ValueError("moment order must be >= 0")
    return _degenerate_row(dist, n, as_rational(lam))[n]


def sum_degenerate_row(dist: Distribution, k: int, n: int, lam) -> ScaledRow:
    """E[(S_k)_{m,lam}] for m = 0..n (at least), as the stored ScaledRow.

    Entry m is row.nums[m] / row.den. A later request may grow the row and
    rescale it, which replaces row.nums and row.den together, so a caller
    reads the pair (row.nums[m], row.den) at once, or keeps both.
    """
    if k < 0 or n < 0:
        raise ValueError("sum moments need k, n >= 0")
    lam = as_rational(lam)
    row = _sum_degenerate_rows[dist, k, lam.numerator, lam.denominator]
    return _contracted(row, n, lam, partial(_sum_raw_moments, dist, k))


def sum_degenerate_moment(dist: Distribution, k: int, n: int, lam) -> Fraction:
    """E[(S_k)_{n,lam}] for the k-fold independent sum."""
    return sum_degenerate_row(dist, k, n, lam)[n]


# Lower triangles of {n brace k}_{Y,lam} per (dist, lam numerator, lam
# denominator); row n is phi^Y_{n,lam}, the polynomial whose coefficient of
# x**k is {n brace k}_{Y,lam}.
_triangles: dict[tuple[Distribution, int, int], list[Polynomial]] = hooks.memo(
    defaultdict(lambda: [Polynomial([1])])
)


def _triangle(dist: Distribution, n: int, lam) -> list[Polynomial]:
    """The triangle of (dist, lam) grown to row n.

    T(0,0) = 1, T(n,0) = 0 for n >= 1 and
    k T(n,k) = sum_{j=1..n-k+1} C(n,j) a_j T(n-j,k-1), with a_j = E[(Y)_{j,lam}].
    Row m is one poly.weighted_sum (acc, c) over j of the rows m - j,
    weighted by C(m,j) a_j, read shifted one place: T(m,k) = acc[k-1] / (k c),
    which is acc[k-1] (L/k) over c L with L the lcm of the ks, reduced once.
    The sum is shorter than m when its longest terms vanish (a zero mean
    drops j = 1); the missing entries are zero, and the row stops before them.
    """
    lam = as_rational(lam)
    rows = _triangles[dist, lam.numerator, lam.denominator]
    if len(rows) > n:
        return rows
    moments = _degenerate_row(dist, n, lam)
    for m in range(len(rows), n + 1):
        acc, common = weighted_sum(
            (rows[m - j].nums, moments.den * rows[m - j].den, binomial(m, j) * moments.nums[j])
            for j in range(1, m + 1)
        )
        scale = math.lcm(*range(1, len(acc) + 1))
        nums = [0, *(c * (scale // k) for k, c in enumerate(acc, 1))]
        rows.append(Polynomial.from_scaled(nums, common * scale))
    return rows


def prob_stirling2(dist: Distribution, n: int, k: int, lam) -> Fraction:
    """Probabilistic degenerate Stirling numbers {n brace k}_{Y,lam}.

    n! [t**n] (E[e_lam^Y(t)] - 1)**k / k!, equivalently the k-th finite
    difference of j -> E[(S_j)_{n,lam}] at 0 divided by k!; zero for k > n.
    """
    if n < 0 or k < 0:
        raise ValueError("prob_stirling2 needs n, k >= 0")
    return _triangle(dist, n, lam)[n].coefficient(k)


def prob_bell_polys(dist: Distribution, n: int, lam) -> list[Polynomial]:
    """phi^Y_{m,lam} for m = 0..n (at least): the stored triangle itself.

    A caller that reads many degrees slices it once; it does not change it.
    """
    return _triangle(dist, n, lam)


def prob_bell_poly(dist: Distribution, n: int, lam) -> Polynomial:
    """phi^Y_{n,lam}(x) = sum_k {n brace k}_{Y,lam} x**k."""
    if n < 0:
        return Polynomial()
    return prob_bell_polys(dist, n, lam)[n]


def prob_fubini_poly(dist: Distribution, n: int, lam) -> Polynomial:
    """F^Y_{n,lam}(x) = sum_k {n brace k}_{Y,lam} k! x**k."""
    return prob_fubini_poly_order(dist, n, 1, lam)


# The order-r Fubini polynomials per (dist, r, lam numerator, lam
# denominator); entry n is F^Y_{n,lam} of order r.
_fubini_order_rows: dict[tuple[Distribution, int, int, int], list[Polynomial]] = (
    hooks.memo(defaultdict(list))
)


def prob_fubini_polys(dist: Distribution, n: int, r: int, lam) -> list[Polynomial]:
    """The order-r F^Y_{m,lam} for m = 0..n (at least): the memoised list itself.

    A caller that reads many degrees slices it once; it does not change it.
    """
    if r < 1:
        raise ValueError("order r must be >= 1")
    lam = as_rational(lam)
    polys = _fubini_order_rows[dist, r, lam.numerator, lam.denominator]
    if len(polys) <= n:
        rows = _triangle(dist, n, lam)
        polys.extend(weighted_by_order(row, r) for row in rows[len(polys) : n + 1])
    return polys


def prob_fubini_poly_order(dist: Distribution, n: int, r: int, lam) -> Polynomial:
    """Order-r variant with weight C(k+r-1, k) k!; r = 1 gives prob_fubini_poly."""
    polys = prob_fubini_polys(dist, n, r, lam)
    return polys[n] if n >= 0 else Polynomial()


# The truncated moment series per (dist, lam numerator, lam denominator, order).
_mgf_series: dict[tuple[Distribution, int, int, int], TruncatedSeries] = hooks.memo({})


def mgf_degenerate_series(dist: Distribution, lam, order: int) -> TruncatedSeries:
    """Truncation of E[e_lam^Y(t)]: EGF coefficients are E[(Y)_{n,lam}]."""
    if order < 0:
        raise ValueError("series order must be >= 0")
    lam = as_rational(lam)
    key = dist, lam.numerator, lam.denominator, order
    if key not in _mgf_series:
        # coefficient n is E[(Y)_{n,lam}] / n!, put over den * order!
        row = _degenerate_row(dist, order, lam)
        top = math.factorial(order)
        _mgf_series[key] = TruncatedSeries.from_scaled(
            [row.nums[n] * (top // math.factorial(n)) for n in range(order + 1)], row.den * top
        )
    return _mgf_series[key]
