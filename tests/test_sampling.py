"""Monte Carlo estimators: determinism, the laws of the samplers, exact
degenerate cases, z-scores."""

import math
import random
import statistics
from array import array
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from fubini.distributions import (
    Bernoulli,
    FiniteDiscrete,
    Gamma,
    PointMass,
    Poisson,
)
from fubini.sampling import (
    CHUNK,
    MAX_DEGREE,
    MAX_DRAWS,
    MAX_SAMPLES,
    MIN_SAMPLES,
    PTRS_MIN_MEAN,
    TABLE_TAIL,
    MCResult,
    _binomial,
    _binomial_cells,
    _Binomial,
    _draw_sums,
    _histogram,
    _histograms,
    _mean_and_stderr,
    _poisson_cells,
    _poisson_ptrs,
    _sampler,
    _sum_law,
    _table,
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
        assert len(a) == 500 and a == b
        c = draw(dist, 500, seed=8)
        assert a != c or isinstance(dist, PointMass)


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
    # a constant statistic near the float range: its square overflows, it does not
    res = estimate_sum_moment(PointMass(10**100), 1, 3, F(0), 1000, seed=0)
    assert res.stderr == 0.0 and res.zscore is None
    assert res.estimate == pytest.approx(1e300, rel=1e-12)


def test_mean_and_stderr_match_a_direct_two_pass_computation():
    # several histograms, so Chan's merge runs; the reference is the plain
    # per-draw loop the histograms replace
    xs = draw(Gamma(F(3, 2), 2), 3 * CHUNK + 5, seed=4)
    n, lam = 3, 1 / 3
    stats = []
    for x in xs:
        s = 1.0
        for j in range(n):
            s *= x - j * lam
        stats.append(s)
    mean = statistics.fmean(stats)
    stderr = statistics.stdev(stats) / math.sqrt(len(stats))
    chunks = [xs[start : start + CHUNK] for start in range(0, len(xs), CHUNK)]
    got_mean, got_stderr = _mean_and_stderr(_histograms(chunks), n, lam)
    assert got_mean == pytest.approx(mean, rel=1e-12)
    assert got_stderr == pytest.approx(stderr, rel=1e-9)
    # without histograms, one chunk of draws at a time: the draws never
    # repeat, so the groups and their merge are the histograms' own
    assert len(set(xs)) == len(xs)
    assert _mean_and_stderr(((c, None) for c in chunks), n, lam) == (got_mean, got_stderr)


def test_discrete_support_and_frequencies():
    dist = FiniteDiscrete(((F(0), F(1, 6)), (F(1), F(1, 2)), (F(3), F(1, 3))))
    xs = draw(dist, 60_000, seed=11)
    assert set(xs) <= {0.0, 1.0, 3.0}
    freq_one = xs.count(1.0) / len(xs)
    assert abs(freq_one - 0.5) < 0.02


def test_bernoulli_support():
    xs = draw(Bernoulli(F(2, 5)), 50_000, seed=3)
    assert set(xs) <= {0.0, 1.0}
    assert abs(sum(xs) / len(xs) - 0.4) < 0.02


DISCRETE = FiniteDiscrete(((F(0), F(1, 6)), (F(1), F(1, 2)), (F(3), F(1, 3))))
LAW_DRAWS = 200_000


def _sum_law_moments(dist, k):
    """Mean, variance and fourth central moment of S_k from the closed-form
    raw moments of Y: the cumulants of an iid sum are k times those of Y."""
    m1, m2, m3, m4 = (dist.moment_formula(j) for j in range(1, 5))
    var = m2 - m1**2
    kappa4 = m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4 - 3 * var**2
    return k * m1, k * var, k * kappa4 + 3 * (k * var) ** 2


@pytest.mark.parametrize(
    "dist, k",
    [
        (Bernoulli(F(1, 2)), 400),
        (Bernoulli(F(2, 5)), 10**5),
        (Poisson(F(3, 2)), 1),
        (Poisson(F(3, 2)), 20),  # Poisson(30)
        (Poisson(10**10), 1),
        (Gamma(F(1, 3), 2), 2),  # shape 2/3 < 1
        (Gamma(F(3, 2), 2), 3),  # shape 9/2 > 1
        (Gamma(F(1, 3), 2), 1),  # shape 1/3 < 1
        (Gamma(1, 2), 1),
        (Gamma(400, 2), 1),
        (DISCRETE, 3),
        (PointMass(F(5, 2)), 7),
        (Poisson(F(3, 2)), 0),
    ],
    ids=lambda v: str(v),
)
def test_sum_draws_follow_the_law_of_s_k(dist, k):
    xs = _draw_sums(dist, k, LAW_DRAWS, seed=2024)
    assert len(xs) == LAW_DRAWS
    mean, var, mu4 = _sum_law_moments(dist, k)
    if var == 0:
        assert set(xs) == {float(mean)}
        return
    n = len(xs)
    got_mean = math.fsum(xs) / n
    got_var = math.fsum((x - got_mean) ** 2 for x in xs) / (n - 1)
    mean_se = math.sqrt(var / n)
    var_se = math.sqrt((mu4 - var**2) / n)
    assert abs(got_mean - float(mean)) < 5 * mean_se, (got_mean, float(mean))
    assert abs(got_var - float(var)) < 5 * var_se, (got_var, float(var))


def _chi_square_cells(hist, pmf, min_expected=5.0):
    """(observed, expected) per cell, from a histogram {value: count} of draws
    on 0, 1, ...: the support points whose expected count is at least
    min_expected, with the two tails pooled into the end cells."""
    n = sum(hist.values())
    keep = [j for j, p in enumerate(pmf) if n * p >= min_expected]
    lo, hi = keep[0], keep[-1]
    observed = [0] * (hi - lo + 1)
    for x, c in hist.items():
        observed[min(max(int(x), lo), hi) - lo] += c
    expected = [n * p for p in pmf[lo : hi + 1]]
    expected[0] += n * sum(pmf[:lo])
    expected[-1] += n * (1 - sum(pmf[: hi + 1]))
    return observed, expected


def _assert_chi_square(hist, pmf):
    observed, expected = _chi_square_cells(hist, pmf)
    terms = [(o - e) ** 2 / e for o, e in zip(observed, expected)]
    df = len(terms) - 1
    # each cell within 5 standard deviations, and the sum far below df + 5 sd
    assert max(terms) < 25, terms
    assert sum(terms) < df + 5 * math.sqrt(2 * df), (sum(terms), df)


def _poisson_pmf(mean, size):
    return [math.exp(-mean + j * math.log(mean) - math.lgamma(j + 1)) for j in range(size)]


def _binomial_pmf(n, p):
    """The Binomial(n, p) pmf from 0 to 12 sd above the mean, or to n."""
    top = min(n, int(n * p + 12 * math.sqrt(n * p * (1 - p))) + 1)
    return [
        math.exp(
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(p) + (n - j) * math.log1p(-p)
        )
        for j in range(top + 1)
    ]


@pytest.mark.parametrize(
    "law, pmf",
    [
        (
            _Binomial(20, F(2, 5)),
            [float(math.comb(20, j) * F(2, 5) ** j * F(3, 5) ** (20 - j)) for j in range(21)],
        ),
        (Poisson(3), [math.exp(-3) * 3**j / math.factorial(j) for j in range(60)]),
        (Poisson(30), [math.exp(-30 + j * math.log(30) - math.lgamma(j + 1)) for j in range(150)]),
        # the pmf table at the mean of an mc-sums op and at the top of its
        # range, and PTRS just above it
        (Poisson(F(15, 2)), _poisson_pmf(7.5, 60)),
        (Poisson(PTRS_MIN_MEAN - F(1, 2)), _poisson_pmf(PTRS_MIN_MEAN - 0.5, 2 * PTRS_MIN_MEAN)),
        (Poisson(PTRS_MIN_MEAN + F(1, 2)), _poisson_pmf(PTRS_MIN_MEAN + 0.5, 2 * PTRS_MIN_MEAN)),
    ],
    ids=["binomial-20-2/5", "poisson-3", "poisson-30", "poisson-15/2",
         "poisson-below-ptrs", "poisson-ptrs"],
)
def test_draws_pass_a_chi_square_against_the_pmf(law, pmf):
    xs = draw(law, LAW_DRAWS, 77)
    assert all(x == int(x) >= 0 for x in set(xs))
    _assert_chi_square(Counter(xs), pmf)
    # the groups the estimate reads: a table law's histogram, drawn at the
    # largest sample count, where the test is the most sensitive; PTRS
    # draws counted
    table = _table(law)
    if table is None:
        groups = _histograms([draw(law, LAW_DRAWS, 78)])
    else:
        groups = [_histogram(table, MAX_SAMPLES, random.Random(78))]
    hist = Counter()
    for values, counts in groups:
        hist.update(dict(zip(values, counts)))
    _assert_chi_square(hist, pmf)


@pytest.mark.parametrize(
    "n, p",
    [
        (20, 0.3),  # geometric method, n p = 6
        (1000, 0.3),  # BTRS
        (10**6, 0.25),  # BTRS, a wide law
        (1000, 0.7),  # BTRS by symmetry
        (20, 0.9),  # the geometric method by symmetry, n (1 - p) = 2
        (10**7, 3e-7),  # geometric, a tiny p
    ],
)
def test_binomial_draws_pass_a_chi_square_against_the_pmf(n, p):
    rng = SimpleNamespace(random=random.Random(n).random)
    xs = Counter(_binomial(rng, n, p) for _ in range(LAW_DRAWS // 2))
    _assert_chi_square(xs, _binomial_pmf(n, p))


@pytest.mark.parametrize("n, p, value", [(0, 0.5, 0), (50, 0.0, 0), (50, 1.0, 50)])
def test_binomial_degenerate_laws_draw_their_one_value(n, p, value):
    rng = SimpleNamespace(random=random.Random(3).random)
    assert {_binomial(rng, n, p) for _ in range(1000)} == {value}


def test_draw_takes_ptrs_from_the_cutoff_on():
    # below it the same draw would be the histogram of a pmf table
    rng = SimpleNamespace(random=random.Random(79).random)
    one = _poisson_ptrs(rng, PTRS_MIN_MEAN + 0.5)
    ptrs = array("d", (one() for _ in range(1000)))
    assert draw(Poisson(PTRS_MIN_MEAN + F(1, 2)), 1000, 79) == ptrs
    assert draw(Poisson(PTRS_MIN_MEAN - F(1, 2)), 1000, 79) != ptrs


def _assert_trimmed(cells, log_pmf, top):
    """cells = (lo, pmf) holds the law of log_pmf on 0..top at lo, lo + 1, ...
    and leaves out less than TABLE_TAIL on each side, but not much less
    where there is mass to leave out: a tail bound is no tail."""
    lo, pmf = cells
    hi = lo + len(pmf) - 1
    assert pmf == pytest.approx([math.exp(log_pmf(j)) for j in range(lo, hi + 1)], rel=1e-9)
    # the tails left out, summed until their terms vanish in floats
    below = math.fsum(math.exp(log_pmf(j)) for j in range(lo))
    above = math.fsum(math.exp(log_pmf(j)) for j in range(hi + 1, min(top, hi + 1000) + 1))
    for tail, omitted in ((below, lo > 0), (above, hi < top)):
        assert tail < TABLE_TAIL
        assert not omitted or tail > TABLE_TAIL / 1000, tail


@pytest.mark.parametrize("mean", [F(15, 2), PTRS_MIN_MEAN - F(1, 2), F(1, 10**400)], ids=str)
def test_poisson_table_ends_where_its_omitted_tail_is_negligible(mean):
    cells = _poisson_cells(mean)
    m = float(mean)
    if not m:
        # a mean below the float range: all the mass at 0
        assert cells == (0, [1.0])
        return
    _assert_trimmed(cells, lambda j: -m + j * math.log(m) - math.lgamma(j + 1), math.inf)


@pytest.mark.parametrize(
    "k, p", [(12, F(2, 5)), (400, F(1, 2)), (10**5, F(1, 2)), (10**5, F(1, 10**4))], ids=str
)
def test_binomial_table_keeps_only_its_mass(k, p):
    lp, lq = math.log(p), math.log(1 - p)
    _assert_trimmed(
        _binomial_cells(k, p),
        lambda j: math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1)
        + j * lp + (k - j) * lq,
        k,
    )
    # 11.5 sd or so on each side, not k + 1 cells
    assert len(_binomial_cells(k, p)[1]) < 25 * math.sqrt(k * p * (1 - p)) + 10


def test_gamma_draws_read_random_alone():
    rng = SimpleNamespace(random=random.Random(5).random)
    for shape in (F(1, 3), F(9, 2)):
        assert len(_sampler(Gamma(shape, 2), rng)(1000)) == 1000


@pytest.fixture
def draw_calls(monkeypatch):
    """The argument tuples of every `sampling.draw` call, as the tracer sees them."""
    calls = []

    def counting_draw(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr("fubini.sampling.draw", counting_draw)
    return calls


@pytest.fixture
def histogram_calls(monkeypatch):
    """(table, size, state of the generator) of every `sampling._histogram` call."""
    calls = []

    def counting_histogram(table, size, rng):
        calls.append((table, size, rng.getstate()))
        return _histogram(table, size, rng)

    monkeypatch.setattr("fubini.sampling._histogram", counting_histogram)
    return calls


@pytest.mark.parametrize(
    "dist, law",
    [
        (PointMass(F(5, 2)), PointMass(F(25, 2))),
        (Bernoulli(F(2, 5)), _Binomial(5, F(2, 5))),
        (Poisson(F(3, 2)), Poisson(F(15, 2))),
        (Gamma(F(3, 2), 2), Gamma(F(15, 2), 2)),
    ],
    ids=lambda v: str(v),
)
def test_estimate_draws_s_k_once_from_its_law(draw_calls, histogram_calls, dist, law):
    assert _sum_law(dist, 5) == law
    estimate_sum_moment(dist, 5, 2, F(1, 2), 1000, seed=3)
    table = _table(law)
    if table is None:
        assert draw_calls == [(law, 1000, 3)] and histogram_calls == []
    else:
        # a table law: one histogram of the law's table, from a fresh
        # random.Random(seed), and no draw sample by sample
        assert draw_calls == []
        assert histogram_calls == [(table, 1000, random.Random(3).getstate())]


def test_estimate_draws_a_finite_discrete_sum_summand_by_summand(draw_calls):
    assert _sum_law(DISCRETE, 3) is None
    estimate_sum_moment(DISCRETE, 3, 2, F(1, 2), 1000, seed=3)
    assert draw_calls == [(DISCRETE, 1000, 3 * 1_000_003 + j) for j in range(3)]


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


@pytest.mark.parametrize(
    "dist, k, n, lam",
    [(Bernoulli(F(2, 5)), 12, 4, F(1, 2)), (Poisson(F(3, 2)), 5, 4, F(1, 2))],
    ids=lambda v: str(v),
)
def test_table_law_zscores_are_standard_across_seeds(dist, k, n, lam):
    # 200 seeds at an mc-sums op's size: |z| stays below 5, and the z-scores
    # have mean about 0 and sd about 1 (each within about 4 of its own sd)
    zs = [
        estimate_sum_moment(dist, k, n, lam, 50_000, seed=seed).zscore for seed in range(200)
    ]
    assert max(map(abs, zs)) < 5
    assert abs(statistics.fmean(zs)) < 0.3
    assert 0.8 < statistics.stdev(zs) < 1.2


@pytest.mark.parametrize(
    "dist, k", [(Bernoulli(F(2, 5)), 10), (Poisson(F(3, 2)), 5)], ids=lambda v: str(v)
)
def test_table_law_estimate_reads_o_table_uniforms(monkeypatch, dist, k):
    # a histogram of MAX_SAMPLES draws costs a few uniforms per table cell,
    # not one per draw
    uniforms = 0

    class CountingRandom(random.Random):
        def random(self):
            nonlocal uniforms
            uniforms += 1
            return super().random()

    monkeypatch.setattr("fubini.sampling.random", SimpleNamespace(Random=CountingRandom))
    res = estimate_sum_moment(dist, k, 2, F(1, 2), MAX_SAMPLES, seed=9)
    assert res.samples == MAX_SAMPLES and abs(res.zscore) < 5
    cells = len(_table(_sum_law(dist, k))[1])
    assert 0 < uniforms <= 12 * cells, (uniforms, cells)


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


def test_result_keeps_its_fields_and_dict_order():
    res = MCResult(estimate=0.5, stderr=0.1, exact=F(1, 3), zscore=-0.5 / 0.3, samples=10)
    assert (res.estimate, res.stderr, res.exact, res.samples) == (0.5, 0.1, F(1, 3), 10)
    assert not res.suspicious
    assert list(res.to_dict()) == [
        "estimate", "stderr", "exact", "exact_float", "zscore", "samples", "suspicious"
    ]
    assert res.to_dict()["exact"] == "1/3"
    flagged = MCResult(estimate=1.0, stderr=0.01, exact=F(0), zscore=100.0, samples=10)
    assert flagged.suspicious and flagged.to_dict()["suspicious"] is True
    with pytest.raises(AttributeError):
        res.samples = 11
