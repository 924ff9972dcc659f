"""Monte Carlo estimators: determinism, exact degenerate cases, z-scores."""

from fractions import Fraction

import numpy as np
import pytest

from fubini.distributions import (
    Bernoulli,
    FiniteDiscrete,
    Gamma,
    PointMass,
    Poisson,
)
from fubini.sampling import (
    MAX_DEGREE,
    MAX_DRAWS,
    MAX_SAMPLES,
    MIN_SAMPLES,
    draw,
    estimate_sum_moment,
)

F = Fraction


def test_draw_is_deterministic():
    for dist in (
        PointMass(F(5, 2)),
        Bernoulli(F(2, 5)),
        Poisson(2),
        Gamma(1, 1),
        FiniteDiscrete(((F(0), F(1, 6)), (F(1), F(1, 2)), (F(3), F(1, 3)))),
    ):
        a = draw(dist, 500, seed=7)
        b = draw(dist, 500, seed=7)
        assert np.array_equal(a, b)
        c = draw(dist, 500, seed=8)
        assert not np.array_equal(a, c) or isinstance(dist, PointMass)


def test_point_mass_estimate_is_exact():
    res = estimate_sum_moment(PointMass(1), 3, 2, F(1, 2), 1000, seed=0)
    assert res.estimate == 7.5
    assert res.stderr == 0.0
    assert res.zscore is None
    assert res.exact == F(15, 2)
    assert not res.suspicious
    # float rounding in a mean of equal values must not fake a spread
    res = estimate_sum_moment(PointMass(F(5, 2)), 30, 5, F(7, 5), 1000, seed=0)
    assert res.stderr == 0.0
    assert res.zscore is None
    assert not res.suspicious
    assert res.estimate == pytest.approx(float(res.exact), rel=1e-12)


def test_discrete_support_and_frequencies():
    dist = FiniteDiscrete(((F(0), F(1, 6)), (F(1), F(1, 2)), (F(3), F(1, 3))))
    xs = draw(dist, 60_000, seed=11)
    assert set(np.unique(xs)) <= {0.0, 1.0, 3.0}
    freq_one = float(np.mean(xs == 1.0))
    assert abs(freq_one - 0.5) < 0.02


def test_bernoulli_support():
    xs = draw(Bernoulli(F(2, 5)), 50_000, seed=3)
    assert set(np.unique(xs)) <= {0.0, 1.0}
    assert abs(float(xs.mean()) - 0.4) < 0.02


def test_zscores_reasonable_across_dists():
    configs = [
        (Bernoulli(F(2, 5)), 2, 2, F(1, 2)),
        (Poisson(2), 3, 4, F(1, 2)),
        (Gamma(1, 1), 2, 3, F(1, 2)),
        (FiniteDiscrete(((F(0), F(1, 6)), (F(1), F(1, 2)), (F(3), F(1, 3)))), 2, 2, F(1, 4)),
    ]
    for dist, k, n, lam in configs:
        res = estimate_sum_moment(dist, k, n, lam, 200_000, seed=42)
        assert res.zscore is not None
        assert abs(res.zscore) < 5, (dist, res.zscore)
        assert not res.suspicious


def test_zscore_stable_across_seeds():
    # the documented config should stay below |z| = 5 for essentially every
    # seed; 20 independent seeds at 50k samples each
    hits = 0
    for seed in range(20):
        res = estimate_sum_moment(
            Bernoulli(F(2, 5)), 2, 2, F(1, 2), 50_000, seed=seed
        )
        if abs(res.zscore) < 5:
            hits += 1
    assert hits == 20


def test_estimate_validates_inputs():
    with pytest.raises(ValueError):
        estimate_sum_moment(Bernoulli(F(1, 2)), 2, 2, F(0), 999, seed=0)
    with pytest.raises(ValueError):
        estimate_sum_moment(Bernoulli(F(1, 2)), -1, 2, F(0), 1000, seed=0)
    with pytest.raises(ValueError):
        estimate_sum_moment(Bernoulli(F(1, 2)), 2, -1, F(0), 1000, seed=0)


def _must_not_run(*args, **kwargs):
    raise AssertionError("reached past the bound checks")


@pytest.mark.parametrize(
    "k, samples, message",
    [
        (1, MAX_SAMPLES + 1, "samples must be <="),
        (MAX_DRAWS // MIN_SAMPLES + 1, MIN_SAMPLES, r"k \* samples must be <="),
        (10**40, 10**40, "samples must be <="),
    ],
)
def test_estimate_refuses_extreme_sizes_before_any_work(monkeypatch, k, samples, message):
    monkeypatch.setattr("fubini.sampling.draw", _must_not_run)
    monkeypatch.setattr("fubini.sampling.sum_degenerate_moment", _must_not_run)
    with pytest.raises(ValueError, match=message):
        estimate_sum_moment(Bernoulli(F(1, 2)), k, 2, F(0), samples, seed=0)


def test_estimate_refuses_a_degree_above_the_bound_before_any_work(monkeypatch):
    monkeypatch.setattr("fubini.sampling.draw", _must_not_run)
    monkeypatch.setattr("fubini.sampling.sum_degenerate_moment", _must_not_run)
    with pytest.raises(ValueError, match=f"n must be <= {MAX_DEGREE}"):
        estimate_sum_moment(Bernoulli(F(1, 2)), 1, MAX_DEGREE + 1, F(0), 1000, seed=0)


def test_k_zero_degenerates_to_indicator():
    # S_0 = 0, so (S_0)_{n,lam} is 0 for n >= 1 (factor x) and 1 for n = 0
    res0 = estimate_sum_moment(Poisson(1), 0, 0, F(1, 2), 1000, seed=5)
    assert res0.estimate == 1.0 and res0.exact == 1
    res1 = estimate_sum_moment(Poisson(1), 0, 1, F(1, 2), 1000, seed=5)
    assert res1.estimate == 0.0 and res1.exact == 0


def test_result_dict_shape():
    res = estimate_sum_moment(Bernoulli(F(2, 5)), 2, 2, F(1, 2), 2000, seed=1)
    doc = res.to_dict()
    assert set(doc) == {
        "estimate",
        "stderr",
        "exact",
        "exact_float",
        "zscore",
        "samples",
        "suspicious",
    }
    assert doc["exact"] == "18/25"
    assert doc["samples"] == 2000
