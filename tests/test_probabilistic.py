"""Probabilistic layer: moments of iid sums and the polynomial families."""

import math
from fractions import Fraction

import pytest

from fubini import hooks, probabilistic
from fubini.combinat import falling_factorial_poly, falling_factorial_polys, stirling2_degenerate
from fubini.distributions import (
    Bernoulli,
    FiniteDiscrete,
    Gamma,
    PointMass,
    Poisson,
)
from fubini.families import degenerate_bell_poly, degenerate_exp_series
from fubini.poly import Polynomial
from fubini.probabilistic import (
    degenerate_moment,
    mgf_degenerate_series,
    prob_bell_poly,
    prob_bell_polys,
    prob_fubini_poly,
    prob_fubini_poly_order,
    prob_fubini_polys,
    prob_stirling2,
    raw_moment,
    sum_degenerate_moment,
    sum_raw_moment,
)

F = Fraction

GRID_DISTS = [
    PointMass(1),
    PointMass(F(5, 2)),
    Bernoulli(F(2, 5)),
    Poisson(F(3, 2)),
    Gamma(1, 1),
    Gamma(F(3, 2), 2),
    FiniteDiscrete(((F(0), F(1, 6)), (F(1), F(1, 2)), (F(3), F(1, 3)))),
]


def test_sum_raw_moment_examples():
    d = Bernoulli(F(1, 2))
    assert sum_raw_moment(d, 0, 5) == 0
    assert sum_raw_moment(d, 0, 0) == 1
    assert sum_raw_moment(d, 2, 2) == F(3, 2)
    for dist in GRID_DISTS:
        for m in range(5):
            assert sum_raw_moment(dist, 1, m) == raw_moment(dist, m)


def test_sum_raw_moment_validates():
    with pytest.raises(ValueError):
        sum_raw_moment(Bernoulli(F(1, 2)), -1, 2)
    with pytest.raises(ValueError):
        raw_moment(Bernoulli(F(1, 2)), -1)


def test_degenerate_moment_examples():
    assert degenerate_moment(Gamma(1, 1), 2, F(1, 2)) == F(3, 2)
    for lam in (F(0), F(1, 3), F(2)):
        assert degenerate_moment(Gamma(1, 1), 2, lam) == 2 - lam
    a = F(3, 2)
    assert degenerate_moment(Poisson(a), 2, F(1, 2)) == (1 - F(1, 2)) * a + a**2
    assert degenerate_moment(PointMass(1), 2, 1) == 0


def test_sum_degenerate_moment_examples():
    assert sum_degenerate_moment(Bernoulli(F(2, 5)), 2, 2, F(1, 2)) == F(18, 25)
    assert sum_degenerate_moment(Poisson(1), 2, 2, F(1, 2)) == 5
    for dist in GRID_DISTS:
        for k in range(5):
            assert sum_degenerate_moment(dist, k, 0, F(1, 2)) == 1


def test_sum_moments_at_large_k_match_binomial_law():
    # S_k ~ Binomial(k, p): E[(S_k)_m] = (k)_m p**m, and (x)_{n,lam} expands
    # in classical falling factorials with the degenerate Stirling numbers
    p, k = F(1, 3), 10**4
    dist = Bernoulli(p)
    assert sum_raw_moment(dist, k, 2) == k * p * (1 - p) + (k * p) ** 2
    for lam in (F(0), F(1, 2), F(-3)):
        for n in range(5):
            expected = sum(
                (
                    stirling2_degenerate(n, m, lam) * math.perm(k, m) * p**m
                    for m in range(n + 1)
                ),
                start=F(0),
            )
            assert sum_degenerate_moment(dist, k, n, lam) == expected


def test_point_mass_sum_reduces_to_falling_factorial():
    c = F(5, 2)
    for k in range(5):
        for n in range(5):
            for lam in (F(0), F(1, 2), F(-1, 4)):
                expected = falling_factorial_poly(n, lam).evaluate(k * c)
                assert (
                    sum_degenerate_moment(PointMass(c), k, n, lam) == expected
                )


def test_poisson_sum_moment_is_bell_value():
    # E[(S_k)_{n,lam}] = phi_{n,lam}(k a) for Poisson(a)
    a = F(3, 2)
    for k in range(6):
        for n in range(6):
            for lam in (F(0), F(1, 2), F(7, 5)):
                assert sum_degenerate_moment(
                    Poisson(a), k, n, lam
                ) == degenerate_bell_poly(n, lam).evaluate(k * a)


def test_prob_stirling2_examples():
    assert prob_stirling2(Bernoulli(F(2, 5)), 2, 2, F(1, 2)) == F(4, 25)
    for p in (F(1, 3), F(2, 5)):
        for lam in (F(0), F(1, 2)):
            assert prob_stirling2(Bernoulli(p), 2, 2, lam) == p**2
    assert prob_stirling2(Gamma(1, 1), 3, 5, F(1, 2)) == 0


def test_prob_stirling2_point_mass_reduces_to_degenerate():
    for n in range(7):
        for k in range(n + 2):
            for lam in (F(0), F(1, 2), F(-1, 4)):
                assert prob_stirling2(
                    PointMass(1), n, k, lam
                ) == stirling2_degenerate(n, k, lam)


def test_prob_bell_poly_examples():
    assert prob_bell_poly(Gamma(1, 1), 0, F(1, 2)) == Polynomial([1])
    assert prob_bell_poly(Bernoulli(F(2, 5)), 2, F(1, 2)) == Polynomial(
        [0, F(1, 5), F(4, 25)]
    )
    for n in range(8):
        for lam in (F(0), F(1, 2)):
            assert prob_bell_poly(PointMass(1), n, lam) == degenerate_bell_poly(
                n, lam
            )


def test_prob_fubini_poly_examples():
    p, lam = F(2, 5), F(1, 2)
    assert prob_fubini_poly(Bernoulli(p), 2, lam) == Polynomial(
        [0, p * (1 - lam), 2 * p**2]
    )
    a = F(3, 2)
    assert prob_fubini_poly(Poisson(a), 2, lam) == Polynomial(
        [0, (1 - lam) * a + a**2, 2 * a**2]
    )
    assert prob_fubini_poly(Gamma(1, 1), 2, F(1, 2)) == Polynomial(
        [0, F(3, 2), 2]
    )


def test_prob_fubini_order_examples():
    for dist in GRID_DISTS:
        for n in range(6):
            for lam in (F(0), F(1, 2)):
                assert prob_fubini_poly_order(
                    dist, n, 1, lam
                ) == prob_fubini_poly(dist, n, lam)
    p = F(2, 5)
    assert prob_fubini_poly_order(Bernoulli(p), 1, 2, F(1, 3)) == Polynomial(
        [0, 2 * p]
    )
    assert prob_fubini_poly_order(Poisson(2), 0, 3, F(1, 2)) == Polynomial([1])
    with pytest.raises(ValueError):
        prob_fubini_poly_order(Poisson(2), 2, 0, F(1, 2))


def test_mgf_series_closed_forms():
    order = 7
    for lam in (F(0), F(1, 2), F(-1, 4)):
        e = degenerate_exp_series(1, lam, order)
        # point mass at 1: the degenerate exponential itself
        assert (
            mgf_degenerate_series(PointMass(1), lam, order).coeffs == e.coeffs
        )
        # Bernoulli: 1 + p(e_lam(t) - 1)
        p = F(2, 5)
        expected = 1 + (e - 1) * p
        assert (
            mgf_degenerate_series(Bernoulli(p), lam, order).coeffs
            == expected.coeffs
        )
        # Poisson: exp(a(e_lam(t) - 1))
        a = F(3, 2)
        expected = ((e - 1) * a).exp()
        assert (
            mgf_degenerate_series(Poisson(a), lam, order).coeffs
            == expected.coeffs
        )


def test_mgf_coefficients_are_degenerate_moments():
    for dist in GRID_DISTS:
        s = mgf_degenerate_series(dist, F(1, 2), 6)
        for n in range(7):
            assert s.egf_coefficient(n) == degenerate_moment(dist, n, F(1, 2))


def test_lambda_zero_collapses_to_raw_moments():
    for dist in GRID_DISTS:
        for n in range(6):
            assert degenerate_moment(dist, n, 0) == raw_moment(dist, n)
            for k in range(4):
                assert sum_degenerate_moment(dist, k, n, 0) == sum_raw_moment(
                    dist, k, n
                )


def test_float_lambda_rejected():
    with pytest.raises(TypeError):
        prob_fubini_poly(Bernoulli(F(2, 5)), 2, 0.5)


# --- whole-row accessors ---


def test_the_row_accessors_return_the_memoised_polynomials():
    dist, lam = Poisson(F(3, 2)), F(-1, 4)
    bells = prob_bell_polys(dist, 6, lam)
    fubs = prob_fubini_polys(dist, 6, 2, lam)
    ffs = falling_factorial_polys(6, lam)
    assert len(bells) >= 7 and len(fubs) >= 7 and len(ffs) >= 7
    for n in range(7):
        assert prob_bell_poly(dist, n, lam) is bells[n]
        assert prob_fubini_poly_order(dist, n, 2, lam) is fubs[n]
        assert falling_factorial_poly(n, lam) is ffs[n]
    # a longer read grows the same list
    assert prob_bell_polys(dist, 9, lam) is bells and len(bells) >= 10
    assert prob_fubini_poly(dist, 3, lam) is prob_fubini_polys(dist, 3, 1, lam)[3]
    with pytest.raises(ValueError, match="order r"):
        prob_fubini_polys(dist, 3, 0, lam)


def test_the_moment_series_is_read_from_one_stored_row_per_dist_and_lam():
    dist, lam = Gamma(F(3, 2), 2), F(1, 3)
    hooks.clear_caches()
    series = mgf_degenerate_series(dist, lam, 8)
    assert mgf_degenerate_series(dist, F(2, 6), 8) == series
    assert mgf_degenerate_series(dist, lam, 7).coeffs == series.coeffs[:8]
    assert series.coeffs[3] == degenerate_moment(dist, 3, lam) / 6
    assert list(probabilistic._degenerate_rows) == [(dist, 1, 3)]


def test_perturb_empties_the_row_tables():
    dist, lam = Bernoulli(F(2, 5)), F(1, 2)
    prob_bell_polys(dist, 4, lam)
    prob_fubini_polys(dist, 4, 3, lam)
    mgf_degenerate_series(dist, lam, 4)
    # the Bell polynomials are the stored triangle rows themselves
    assert prob_bell_polys(dist, 4, lam) is probabilistic._triangle(dist, 4, lam)
    tables = (
        probabilistic._triangles,
        probabilistic._fubini_order_rows,
        probabilistic._degenerate_rows,
    )
    assert all(tables)
    with hooks.perturb("binomial", (4, 2)):
        assert not any(tables)
    assert not any(tables)
