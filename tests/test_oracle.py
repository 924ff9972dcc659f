"""Differential tests against the scalar definitions the tables replaced.

The oracle below is a frozen copy of the earlier scalar path: sum moments by
the k-deep binomial convolution, degenerate falling factorials multiplied out
from scratch, and {n brace k}_{Y,lam} as the k-th finite difference of the sum
moments. It shares only the raw moments with the library, so the row-grown
triangle, the power recurrence for sum moments and the falling-factorial rows
are each checked against an independent computation.
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

from fubini import hooks
from fubini.combinat import falling_factorial_poly
from fubini.distributions import (
    Bernoulli,
    FiniteDiscrete,
    Gamma,
    PointMass,
    Poisson,
)
from fubini.poly import Polynomial
from fubini.probabilistic import (
    degenerate_moment,
    prob_stirling2,
    raw_moment,
    sum_degenerate_moment,
    sum_raw_moment,
)

F = Fraction

DISTS = [
    PointMass(1),
    PointMass(F(5, 2)),
    Bernoulli(F(2, 5)),
    Poisson(F(3, 2)),
    Gamma(1, 1),
    Gamma(F(3, 2), 2),
    FiniteDiscrete(((F(0), F(1, 6)), (F(1), F(1, 2)), (F(3), F(1, 3)))),
]
LAMBDAS = [F(0), F(1, 3), F(-7, 2), F(13, 4)]
N_MAX = 14


@lru_cache(maxsize=None)
def _oracle_falling(n, lam):
    p = Polynomial([1])
    for j in range(n):
        p = p * Polynomial([-j * lam, 1])
    return p


@lru_cache(maxsize=None)
def _oracle_sum_raw(dist, k, m):
    if k == 0:
        return F(1 if m == 0 else 0)
    return sum(
        (
            math.comb(m, j) * _oracle_sum_raw(dist, k - 1, m - j) * raw_moment(dist, j)
            for j in range(m + 1)
        ),
        start=F(0),
    )


@lru_cache(maxsize=None)
def _oracle_sum_degenerate(dist, k, n, lam):
    coeffs = _oracle_falling(n, lam).coeffs
    return sum(
        (c * _oracle_sum_raw(dist, k, m) for m, c in enumerate(coeffs)),
        start=F(0),
    )


def _oracle_stirling2(dist, n, k, lam):
    if k > n:
        return F(0)
    total = sum(
        (
            math.comb(k, j) * (-1) ** (k - j) * _oracle_sum_degenerate(dist, j, n, lam)
            for j in range(k + 1)
        ),
        start=F(0),
    )
    return total / math.factorial(k)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.spec_string())
def test_triangle_matches_finite_difference(dist):
    for lam in LAMBDAS:
        for n in range(N_MAX + 1):
            for k in range(n + 2):
                assert prob_stirling2(dist, n, k, lam) == _oracle_stirling2(
                    dist, n, k, lam
                ), (dist, lam, n, k)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.spec_string())
def test_sum_moments_match_convolution(dist):
    for k in range(N_MAX + 1):
        for m in range(N_MAX + 1):
            assert sum_raw_moment(dist, k, m) == _oracle_sum_raw(dist, k, m)
        for lam in LAMBDAS:
            for n in range(N_MAX + 1):
                assert sum_degenerate_moment(
                    dist, k, n, lam
                ) == _oracle_sum_degenerate(dist, k, n, lam)


def test_falling_factorial_rows_match_product():
    for lam in LAMBDAS + [F(1), F(-1, 4)]:
        # descending, so the first call grows the rows to n = 40 at once
        for n in range(40, -1, -1):
            assert falling_factorial_poly(n, lam) == _oracle_falling(n, lam)


def test_raw_moment_fault_reaches_kernel_and_is_undone():
    dist, lam = Gamma(F(3, 2), 2), F(1, 3)

    def tables():
        return (
            [prob_stirling2(dist, 4, k, lam) for k in range(5)],
            degenerate_moment(dist, 4, lam),
            sum_degenerate_moment(dist, 3, 4, lam),
        )

    before = tables()
    with hooks.perturb("raw_moment", (dist, 2)):
        inside = tables()
    after = tables()
    # T(4, 4) = E[Y]^4 does not involve the second moment
    assert inside[0] != before[0] and inside[0][4] == before[0][4]
    assert inside[1] != before[1]
    assert inside[2] != before[2]
    assert after == before
