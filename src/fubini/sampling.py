"""Monte Carlo cross-checks of the exact sum-moment values.

Floats live only here. The k-fold sum S_k = Y_1 + ... + Y_k is drawn from its
own law where that law is closed: a point mass at k*c, Binomial(k, p),
Poisson(k*alpha) and Gamma(k*alpha, beta). A finite discrete Y is drawn k
times and summed. Every draw comes from the standard library's
`random.Random(seed)` (the Mersenne Twister), so a (seed, spec) pair
reproduces the same estimate on every platform; Python promises the stream
of `random()` across versions, not the variates `choices` and
`gammavariate` derive from it.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul, sub

from .distributions import (
    Bernoulli,
    Distribution,
    FiniteDiscrete,
    Gamma,
    PointMass,
    Poisson,
)
from .probabilistic import sum_degenerate_moment
from .rational import as_rational

MIN_SAMPLES = 1000
# Upper bounds, checked before anything is drawn: the draws of one run are
# held as `samples` float64s (80 MB at the bound), and a run makes at most
# k * samples draws.
MAX_SAMPLES = 10**7
MAX_DRAWS = 10**8
# Upper bound on the degree n, checked before the exact value is computed.
# The exact value costs O(n**2) big-integer operations (Miller's recurrence
# and the contraction against (x)_{n,lam}); with k = 1 at lambda -7/2 on a
# 2-vCPU Xeon VM it takes about 0.8 s at n = 400 for poisson:3/2 and 1.0 s
# for gamma:3/2,2 (medians of 5 CPU times), and about 4 s and 5 s at n = 600.
MAX_DEGREE = 400
# Draws are generated, and folded into histograms, this many at a time, so
# the working memory beyond the draws themselves stays bounded.
CHUNK = 1 << 16
# At and above this mean a Poisson draw uses PTRS instead of multiplication,
# whose cost grows with the mean.
PTRS_MIN_MEAN = 10


@dataclass(frozen=True)
class MCResult:
    estimate: float
    stderr: float
    exact: Fraction
    zscore: float | None
    samples: int

    @property
    def suspicious(self) -> bool:
        # stderr == 0 means a deterministic statistic; nothing to flag
        return self.zscore is not None and abs(self.zscore) > 5.0

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "exact": str(self.exact),
            "exact_float": float(self.exact),
            "zscore": self.zscore,
            "samples": self.samples,
            "suspicious": self.suspicious,
        }


# Binomial(k, p), the law of a sum of k Bernoulli(p) draws. A namedtuple, not
# a dataclass: it is built at every import, `fubini --help` included, and a
# dataclass costs about 1 ms to build.
_Binomial = namedtuple("_Binomial", "k p")


def _sum_law(dist: Distribution, k: int) -> Distribution | _Binomial | None:
    """The law of S_k, or None when S_k is drawn as k summands."""
    if k == 0:
        return PointMass(0)
    if isinstance(dist, PointMass):
        return PointMass(k * dist.value)
    if isinstance(dist, Bernoulli):
        return _Binomial(k, dist.p)
    if isinstance(dist, Poisson):
        return Poisson(k * dist.alpha)
    if isinstance(dist, Gamma):
        return Gamma(k * dist.alpha, dist.beta)
    return None


def _log(q: Fraction) -> float:
    # finite for any positive rational, even one below the float range
    return math.log(q.numerator) - math.log(q.denominator)


def _binomial_cdf(k: int, p: Fraction) -> list[float]:
    """Cumulative Binomial(k, p) weights at 0..k; the pmf is built in log space."""
    if p in (0, 1):
        # all mass at 0 or all mass at k
        return [float(1 - p)] * k + [1.0]
    lp, lq, top = _log(p), _log(1 - p), math.lgamma(k + 1)
    return list(
        accumulate(
            math.exp(top - math.lgamma(j + 1) - math.lgamma(k - j + 1) + j * lp + (k - j) * lq)
            for j in range(k + 1)
        )
    )


def _poisson_by_multiplication(rng: random.Random, mean: float):
    """A function making one Poisson(mean) draw by multiplication: the number
    of uniforms whose running product stays above exp(-mean). A draw costs
    about mean + 1 uniforms, so this is for small means."""
    limit = math.exp(-mean)
    uniform = rng.random

    def one() -> int:
        x, product = 0, uniform()
        while product > limit:
            x += 1
            product *= uniform()
        return x

    return one


def _poisson_ptrs(rng: random.Random, mean: float):
    """A function making one Poisson(mean) draw, for mean >= 10, by Hormann's
    transformed rejection with squeeze (PTRS, 1993); a draw costs at most
    about 1.35 pairs of uniforms (1.33 at mean 10, 1.12 at mean 10**10)."""
    slam, loglam = math.sqrt(mean), math.log(mean)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    log_inv_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    vr = 0.9277 - 3.6224 / (b - 2)
    uniform = rng.random

    def one() -> int:
        while True:
            u = uniform() - 0.5
            v = 1.0 - uniform()  # in (0, 1], so log(v) is finite
            us = 0.5 - abs(u)
            # the squeeze's rejection region; it holds us == 0 too
            if us < 0.013 and v > us:
                continue
            x = math.floor((2 * a / us + b) * u + mean + 0.43)
            if us >= 0.07 and v <= vr:
                return x
            if x >= 0 and (
                math.log(v) + log_inv_alpha - math.log(a / (us * us) + b)
                <= -mean + x * loglam - math.lgamma(x + 1)
            ):
                return x

    return one


class FloatRangeError(ValueError):
    """A parameter of the law of S_k that no float can hold."""


def _float(value: Fraction, name: str, *, underflow: bool = True) -> float:
    """value as a float; FloatRangeError, naming it, when it lies above the
    float range, or below it (rounds to 0.0) where underflow is False."""
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if result == math.inf or not (result or underflow):
        raise FloatRangeError(f"parameter {name} of the law of S_k lies beyond the float range")
    return result


def _float_parameters(dist) -> list[float]:
    """The parameters the sampler of dist reads, as floats: the point mass,
    the atoms, the Poisson mean, or the Gamma shape and scale 1/beta
    (gammavariate cannot draw with scale 0.0). None for a Binomial, whose
    weights are built from its exact p."""
    if isinstance(dist, PointMass):
        return [_float(dist.value, "value")]
    if isinstance(dist, FiniteDiscrete):
        return [_float(v, "atom") for v, _ in dist.atoms]
    if isinstance(dist, Poisson):
        return [_float(dist.alpha, "alpha")]
    if isinstance(dist, Gamma):
        return [_float(dist.alpha, "alpha"), _float(1 / dist.beta, "beta", underflow=False)]
    return []


def _sampler(dist, rng: random.Random):
    """A function m -> an iterable of m iid draws of dist."""
    if isinstance(dist, Bernoulli):
        dist = _Binomial(1, dist.p)
    if isinstance(dist, _Binomial):
        values = [float(j) for j in range(dist.k + 1)]
        cdf = _binomial_cdf(dist.k, dist.p)
        return lambda m: rng.choices(values, cum_weights=cdf, k=m)
    params = _float_parameters(dist)
    if isinstance(dist, PointMass):
        return lambda m: repeat(params[0], m)
    if isinstance(dist, FiniteDiscrete):
        cdf = [float(c) for c in accumulate(w for _, w in dist.atoms)]
        return lambda m: rng.choices(params, cum_weights=cdf, k=m)
    if isinstance(dist, Poisson):
        mean = params[0]
        if mean < PTRS_MIN_MEAN:
            one = _poisson_by_multiplication(rng, mean)
        else:
            one = _poisson_ptrs(rng, mean)
        return lambda m: (one() for _ in repeat(None, m))
    if isinstance(dist, Gamma):
        shape, scale = params
        if shape == 0:
            # a shape below the float range: every draw rounds to 0.0
            return lambda m: repeat(0.0, m)
        gamma = rng.gammavariate
        return lambda m: (gamma(shape, scale) for _ in repeat(None, m))
    raise TypeError(f"no sampler for distribution type {type(dist).__name__}")


def draw(dist: Distribution | _Binomial, size: int, seed: int) -> array:
    """`size` iid draws of dist from random.Random(seed), as an array of float64."""
    sample = _sampler(dist, random.Random(seed))
    out = array("d")
    for start in range(0, size, CHUNK):
        out.extend(sample(min(CHUNK, size - start)))
    return out


def _draw_sums(dist: Distribution, k: int, samples: int, seed: int) -> array:
    """`samples` draws of S_k: one `draw` of its law, or k draws of Y summed."""
    law = _sum_law(dist, k)
    if law is not None:
        return draw(law, samples, seed)
    sums = array("d", bytes(8 * samples))
    for j in range(k):
        # stream split: one independent substream per summand
        sums = array("d", map(add, sums, draw(dist, samples, seed * 1_000_003 + j)))
    return sums


def _histograms(draws: array):
    """Counters of the draws, each with fewer than 2 * CHUNK distinct values."""
    hist = Counter()
    for start in range(0, len(draws), CHUNK):
        hist.update(draws[start : start + CHUNK])
        if len(hist) >= CHUNK:
            yield hist
            hist = Counter()
    if hist:
        yield hist


def _histogram_moments(stats: list[float], counts: list[int]) -> tuple[int, float, float]:
    """Count, mean and sum of squared deviations of the statistic values
    `stats` taken `counts` times, by two passes."""
    size = sum(counts)
    if min(stats) == max(stats):
        # keeps a deterministic statistic exact through Chan's update
        return size, stats[0], 0.0
    weighted = list(map(mul, counts, stats))
    if not all(map(math.isfinite, weighted)):
        raise FloatingPointError("overflow in the mean of the statistic")
    try:
        mean = math.fsum(weighted) / size
        devs = list(map(sub, stats, repeat(mean)))
        return size, mean, math.fsum(map(mul, counts, map(mul, devs, devs)))
    except OverflowError:
        raise FloatingPointError("overflow in the spread of the statistic") from None


def _mean_and_stderr(draws: array, n: int, lam: float) -> tuple[float, float]:
    """Mean and standard error of (s)_{n,lam} over the draws s.

    The statistic is evaluated once per distinct draw. The histograms'
    moments merge by Chan's update, so no difference of large sums of
    squares cancels. A statistic equal in every draw gives that value and
    stderr 0 exactly: a mean of equal values computed as a sum would add
    float rounding, which can fake a huge z-score. Floats overflow to inf
    without raising, so an inf is turned into a FloatingPointError here.
    """
    shifts = [j * lam for j in range(n)]
    count, mean, m2 = 0, 0.0, 0.0
    for hist in _histograms(draws):
        # the first factor is t - 0 * lam = t itself
        stats = list(hist) if n else [1.0] * len(hist)
        for shift in shifts[1:]:
            stats = list(map(mul, stats, map(sub, hist, repeat(shift))))
        if not all(map(math.isfinite, stats)):
            raise FloatingPointError("overflow in the statistic")
        size, h_mean, h_m2 = _histogram_moments(stats, list(hist.values()))
        total = count + size
        delta = h_mean - mean
        mean += delta * (size / total)
        # delta * 0 first: on the first histogram delta**2 alone may overflow
        m2 += h_m2 + delta * (delta * (count * size / total))
        count = total
    if not (math.isfinite(mean) and math.isfinite(m2)):
        raise FloatingPointError("overflow in the mean or spread of the statistic")
    return mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count)


def estimate_sum_moment(
    dist: Distribution, k: int, n: int, lam, samples: int, seed: int
) -> MCResult:
    """Estimate E[(Y_1 + ... + Y_k)_{n,lam}] and compare with the exact value.

    S_k is drawn `samples` times, in one `draw` of its law, or for a finite
    discrete Y as the sum of k draws of Y with seeds derived from `seed`. The
    z-score uses the sample standard error with one degree of freedom
    removed. A statistic equal in every replicate has stderr 0 and no
    z-score. MIN_SAMPLES <= samples <= MAX_SAMPLES, k * samples <= MAX_DRAWS
    and n <= MAX_DEGREE, checked before anything is computed.

    Raises FloatRangeError (a ValueError), before the exact value is
    computed, when a parameter of the law of S_k lies beyond the float range;
    OverflowError, before any draw, when the exact value is too large
    for a float, and FloatingPointError when the float statistic, its mean
    or its spread overflows; the degree n drives both.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_DEGREE:
        raise ValueError(f"n must be <= {MAX_DEGREE}")
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_SAMPLES}")
    if k * samples > MAX_DRAWS:
        raise ValueError(f"k * samples must be <= {MAX_DRAWS}")
    lam = as_rational(lam)
    law = _sum_law(dist, k)
    # a parameter beyond the float range is refused before the exact value,
    # whose size the degree n drives
    _float_parameters(dist if law is None else law)
    exact = sum_degenerate_moment(dist, k, n, lam)
    exact_float = float(exact)

    estimate, stderr = _mean_and_stderr(_draw_sums(dist, k, samples, seed), n, float(lam))
    zscore = None if stderr == 0 else (estimate - exact_float) / stderr
    return MCResult(
        estimate=estimate,
        stderr=stderr,
        exact=exact,
        zscore=zscore,
        samples=samples,
    )
