"""Moment-weighted (probabilistic) degenerate Stirling, Bell and Fubini objects.

S_k denotes the sum of k independent copies of Y. Its moments E[S_k**m] are
the k-th power of the moment EGF of Y, computed by J. C. P. Miller's power
recurrence in O(m**2) for any k. The probabilistic degenerate Stirling
numbers {n brace k}_{Y,lam} are the EGF coefficients of
F_k = (E[e_lam^Y(t)] - 1)**k / k!; one lower triangle per (dist, lam) grows
row by row from the column recurrence k F_k = (E[e_lam^Y(t)] - 1) F_{k-1}.
Everything is exact. Every memo row (the moments E[Y**m], E[S_k**m],
E[(Y)_{n,lam}] and E[(S_k)_{n,lam}], and each triangle row) is stored once,
as a rational.ScaledRow: integer numerators over the lcm of the entries'
denominators. The recurrences, the contractions against the numerators of
(x)_{n,lam} and the polynomial builders run on those numerators in Python
ints; callers that read many entries take a row itself (sum_degenerate_row),
and the scalar accessors build one Fraction per read. The order-r Fubini
polynomials are memoised per (dist, r, lam). Tables indexed by lam are keyed
by (lam.numerator, lam.denominator), which hashes without Fraction.__hash__.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from operator import mul

from . import hooks
from .combinat import binomial, falling_factorial_poly, weighted_by_order
from .distributions import Distribution
from .poly import Polynomial
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
    """E[Y**0..m] (at least), as stored; a fault at raw_moment is stored too."""
    row = _raw_moment_rows[dist]
    while len(row) <= m:
        j = len(row)
        row.append(hooks.shifted("raw_moment", (dist, j), as_rational(dist.moment_formula(j))))
    return row


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
    The sum runs on the stored numerators of mu_1..mu_n and of the unshifted
    beta_0..beta_{n-1}, and builds one Fraction per new entry.
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
        row.append(Fraction(total, n * mus.den * row.den))
    return hooks.shifted_row("sum_moment", (dist, k), row)


def sum_raw_moment(dist: Distribution, k: int, m: int) -> Fraction:
    """E[S_k**m] for the sum S_k of k independent copies of Y."""
    if k < 0 or m < 0:
        raise ValueError("sum moments need k, m >= 0")
    return _sum_raw_moments(dist, k, m)[m]


def _contract(n: int, lam: Fraction, moments: ScaledRow) -> tuple[int, int]:
    """sum_m [x**m](x)_{n,lam} * moments[m] as a (num, den) pair, not reduced.

    One integer dot product: both the polynomial and the moment row (grown
    to at least n + 1 entries) hold integer numerators over one denominator.
    """
    ff = falling_factorial_poly(n, lam)
    return sum(map(mul, ff.nums, moments.nums)), ff.den * moments.den


def _degenerate_row(dist: Distribution, n: int, lam: Fraction) -> ScaledRow:
    """E[(Y)_{m,lam}] for m = 0..n (at least), as the stored ScaledRow."""
    row = _degenerate_rows[dist, lam.numerator, lam.denominator]
    if len(row) <= n:
        moments = _raw_moments(dist, n)
        row.extend_ratios(_contract(m, lam, moments) for m in range(len(row), n + 1))
    return row


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
    if len(row) <= n:
        moments = _sum_raw_moments(dist, k, n)
        row.extend_ratios(_contract(m, lam, moments) for m in range(len(row), n + 1))
    return row


def sum_degenerate_moment(dist: Distribution, k: int, n: int, lam) -> Fraction:
    """E[(S_k)_{n,lam}] for the k-fold independent sum."""
    return sum_degenerate_row(dist, k, n, lam)[n]


# Lower triangles of {n brace k}_{Y,lam} per (dist, lam numerator, lam
# denominator); row n is a ScaledRow of k = 0..n.
_triangles: dict[tuple[Distribution, int, int], list[ScaledRow]] = hooks.memo(
    defaultdict(lambda: [ScaledRow([1])])
)


def _triangle(dist: Distribution, n: int, lam) -> list[ScaledRow]:
    """The triangle of (dist, lam) grown to row n.

    T(0,0) = 1, T(n,0) = 0 for n >= 1 and
    k T(n,k) = sum_{j=1..n-k+1} C(n,j) a_j T(n-j,k-1), with a_j = E[(Y)_{j,lam}].
    The term of w_j = C(n,j) a_j has denominator that of w_j times that of
    row n-j for every k, so the sum over j runs in ints over the lcm L of
    those denominators, and T(n,k) = acc[k] / (k L).
    """
    lam = as_rational(lam)
    rows = _triangles[dist, lam.numerator, lam.denominator]
    if len(rows) > n:
        return rows
    moments = _degenerate_row(dist, n, lam)
    for m in range(len(rows), n + 1):
        terms = []
        for j in range(1, m + 1):
            a = moments.nums[j]
            if a:
                c, c_den = ratio(binomial(m, j))  # a Fraction under hooks.perturb
                num, den = c * a, c_den * moments.den
                g = math.gcd(num, den)
                terms.append((num // g, den // g * rows[m - j].den, rows[m - j].nums))
        common = math.lcm(*(den for _, den, _ in terms))
        acc = [0] * (m + 1)
        for num, den, prev in terms:
            factor = num * (common // den)
            for k, t in enumerate(prev, 1):
                if t:
                    acc[k] += factor * t
        row = ScaledRow([0])
        row.extend_ratios((acc[k], k * common) for k in range(1, m + 1))
        rows.append(row)
    return rows


def prob_stirling2(dist: Distribution, n: int, k: int, lam) -> Fraction:
    """Probabilistic degenerate Stirling numbers {n brace k}_{Y,lam}.

    n! [t**n] (E[e_lam^Y(t)] - 1)**k / k!, equivalently the k-th finite
    difference of j -> E[(S_j)_{n,lam}] at 0 divided by k!; zero for k > n.
    """
    if n < 0 or k < 0:
        raise ValueError("prob_stirling2 needs n, k >= 0")
    if k > n:
        return Fraction(0)
    return _triangle(dist, n, lam)[n][k]


def prob_bell_poly(dist: Distribution, n: int, lam) -> Polynomial:
    """phi^Y_{n,lam}(x) = sum_k {n brace k}_{Y,lam} x**k."""
    if n < 0:
        return Polynomial()
    row = _triangle(dist, n, lam)[n]
    return Polynomial.from_scaled(row.nums, row.den)


def prob_fubini_poly(dist: Distribution, n: int, lam) -> Polynomial:
    """F^Y_{n,lam}(x) = sum_k {n brace k}_{Y,lam} k! x**k."""
    return prob_fubini_poly_order(dist, n, 1, lam)


# The order-r Fubini polynomials per (dist, r, lam numerator, lam
# denominator); entry n is F^Y_{n,lam} of order r.
_fubini_order_rows: dict[tuple[Distribution, int, int, int], list[Polynomial]] = (
    hooks.memo(defaultdict(list))
)


def prob_fubini_poly_order(dist: Distribution, n: int, r: int, lam) -> Polynomial:
    """Order-r variant with weight C(k+r-1, k) k!; r = 1 gives prob_fubini_poly."""
    if r < 1:
        raise ValueError("order r must be >= 1")
    if n < 0:
        return Polynomial()
    lam = as_rational(lam)
    polys = _fubini_order_rows[dist, r, lam.numerator, lam.denominator]
    if len(polys) <= n:
        rows = _triangle(dist, n, lam)
        polys.extend(weighted_by_order(rows[m], r) for m in range(len(polys), n + 1))
    return polys[n]


def mgf_degenerate_series(dist: Distribution, lam, order: int) -> TruncatedSeries:
    """Truncation of E[e_lam^Y(t)]: EGF coefficients are E[(Y)_{n,lam}]."""
    if order < 0:
        raise ValueError("series order must be >= 0")
    row = _degenerate_row(dist, order, as_rational(lam))
    return TruncatedSeries([row[n] / math.factorial(n) for n in range(order + 1)])
