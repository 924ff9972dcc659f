"""Degenerate polynomial families against enumeration and series oracles."""

import math
from fractions import Fraction

import pytest

from fubini.distributions import PointMass
from fubini.families import (
    classical_fubini_poly,
    degenerate_bell_poly,
    degenerate_exp_series,
    degenerate_fubini_poly,
    degenerate_fubini_poly_order,
)
from fubini.poly import Polynomial
from fubini.probabilistic import mgf_degenerate_series
from fubini.series import TruncatedSeries

F = Fraction

LAMBDAS = [F(0), F(1, 3), F(1, 2), F(1), F(-1, 4), F(5, 2)]
X_POINTS = [F(1), F(1, 2), F(-1, 3)]


def set_partitions(elems):
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def ordered_partition_count(n):
    """Number of ordered set partitions of an n-set, by brute force."""
    return sum(
        math.factorial(len(p)) for p in set_partitions(list(range(n)))
    )


def test_degenerate_exp_series_examples():
    s = degenerate_exp_series(1, 1, 4)
    assert s.coeffs == (1, 1, 0, 0, 0)
    t = degenerate_exp_series(3, 0, 5)
    for k in range(6):
        assert t.coeffs[k] == F(3) ** k / math.factorial(k)
    u = degenerate_exp_series(2, 1, 3)
    assert u.egf_coefficient(2) == 2  # (2)_{2,1} = 2 * 1


def test_bell_poly_examples():
    assert degenerate_bell_poly(0, F(1, 2)) == Polynomial([1])
    assert degenerate_bell_poly(2, F(1, 2)) == Polynomial([0, F(1, 2), 1])
    assert degenerate_bell_poly(2, 0) == Polynomial([0, 1, 1])


def test_fubini_poly_examples():
    assert degenerate_fubini_poly(2, F(1, 2)) == Polynomial([0, F(1, 2), 2])
    assert degenerate_fubini_poly(3, 0) == Polynomial([0, 1, 6, 6])


def test_classical_fubini_examples():
    assert classical_fubini_poly(1) == Polynomial([0, 1])
    assert classical_fubini_poly(2) == Polynomial([0, 1, 2])
    assert classical_fubini_poly(3) == Polynomial([0, 1, 6, 6])
    for n in range(7):
        assert classical_fubini_poly(n) == degenerate_fubini_poly(n, 0)


@pytest.mark.parametrize("n", range(7))
def test_fubini_numbers_count_ordered_partitions(n):
    assert degenerate_fubini_poly(n, 0).evaluate(1) == ordered_partition_count(n)


def test_order_r_examples():
    assert degenerate_fubini_poly_order(2, 1, F(1, 2)) == Polynomial(
        [0, F(1, 2), 2]
    )
    for lam in LAMBDAS:
        assert degenerate_fubini_poly_order(1, 2, lam) == Polynomial([0, 2])
    assert degenerate_fubini_poly_order(0, 3, F(1, 3)) == Polynomial([1])
    with pytest.raises(ValueError):
        degenerate_fubini_poly_order(2, 0, F(1, 2))


@pytest.mark.parametrize("lam", LAMBDAS)
def test_fubini_generating_function_oracle(lam):
    # 1/(1 - x0(e_lam(t) - 1)) has egf coefficients F_{n,lam}(x0)
    order = 8
    e = degenerate_exp_series(1, lam, order)
    for x0 in X_POINTS:
        s = (1 - (e - 1) * x0).reciprocal()
        for n in range(order + 1):
            assert s.egf_coefficient(n) == degenerate_fubini_poly(
                n, lam
            ).evaluate(x0)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_bell_generating_function_oracle(lam):
    order = 8
    e = degenerate_exp_series(1, lam, order)
    for x0 in X_POINTS:
        s = ((e - 1) * x0).exp()
        for n in range(order + 1):
            assert s.egf_coefficient(n) == degenerate_bell_poly(
                n, lam
            ).evaluate(x0)


@pytest.mark.parametrize("lam", [F(0), F(1, 2), F(-1, 4)])
def test_order_r_generating_function_oracle(lam):
    order = 7
    e = degenerate_exp_series(1, lam, order)
    for x0 in X_POINTS:
        base = (1 - (e - 1) * x0).reciprocal()
        power = base
        for r in (1, 2, 3):
            for n in range(order + 1):
                assert power.egf_coefficient(n) == degenerate_fubini_poly_order(
                    n, r, lam
                ).evaluate(x0)
            power = power * base


@pytest.mark.parametrize("x", [F(1), F(5, 2), F(-1, 3)])
@pytest.mark.parametrize("lam", [F(0), F(1, 2), F(-7, 2)])
def test_the_two_builders_of_the_degenerate_exponential_agree(x, lam):
    # (x)_{n,lam} by Horner on the falling-factorial rows, against the
    # contraction of a point mass's moments x**m with the same rows
    assert degenerate_exp_series(x, lam, 12) == mgf_degenerate_series(PointMass(x), lam, 12)


def test_exp_series_validates_order():
    with pytest.raises(ValueError):
        degenerate_exp_series(1, 0, -1)
    with pytest.raises(ValueError):
        degenerate_fubini_poly(-1, 0)
