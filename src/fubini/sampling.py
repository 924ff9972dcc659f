"""Monte Carlo cross-checks of the exact sum-moment values.

Floats live only here. The k-fold sum S_k = Y_1 + ... + Y_k is drawn from its
own law where that law is closed: a point mass at k*c, Binomial(k, p),
Poisson(k*alpha) and Gamma(k*alpha, beta). A finite discrete Y is drawn k
times and summed. Every draw comes from the standard library's
`random.Random(seed)` (the Mersenne Twister), so a (seed, spec) pair
reproduces the same estimate on every platform. Python promises the stream
of `random()` across versions, not the variates its other methods derive
from it, so the Binomial, Poisson and Gamma samplers here read `random()`
alone.

The laws drawn from a pmf table (a point mass, Binomial, Poisson below
`PTRS_MIN_MEAN`) are drawn as the histogram of their draws, which is all the
statistic reads: m draws from an L-cell table have a Multinomial(m, pmf)
histogram, which L conditional binomial draws give exactly, so such a law
costs O(L) uniforms, not O(m). A finite discrete Y uses `choices` with
cumulative weights, which bisects one `random()` per draw into its atoms.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate, chain, repeat
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
from .record import Record

MIN_SAMPLES = 1000
# Upper bounds, checked before anything is drawn. A law drawn one sample at a
# time (Gamma, Poisson by PTRS, a discrete sum) holds its draws as `samples`
# float64s (80 MB at the bound); a table law holds only its histogram. A run
# makes at most k * samples draws.
MAX_SAMPLES = 10**7
MAX_DRAWS = 10**8
# Upper bound on the degree n, checked before the exact value is computed.
# The exact value costs O(n**2) big-integer operations (Miller's recurrence
# and the contraction against (x)_{n,lam}); with k = 1 at lambda -7/2 on a
# 2-vCPU Xeon VM it takes about 0.8 s at n = 400 for poisson:3/2 and 1.0 s
# for gamma:3/2,2 (medians of 5 CPU times), and about 4 s and 5 s at n = 600.
MAX_DEGREE = 400
# Draws are generated, and folded into the statistic, this many at a time, so
# the working memory beyond the draws themselves stays bounded.
CHUNK = 1 << 16
# At and above this mean a Poisson law is drawn by PTRS instead of from a pmf
# table, whose cells, and so the cost of its table and histogram, grow with
# the square root of the mean. At MIN_SAMPLES draws (Python 3.11, 2-vCPU Xeon
# VM, best of 7, statistic included) the table took 0.57 ms at mean 400,
# 0.62 ms at 500 and 0.86 ms at 1000, and PTRS 0.54-0.55 ms at each. PTRS
# costs O(draws): at 5000 draws it took 2.4 ms at means 500 and 1000, and the
# table 0.65 ms and 0.90 ms.
PTRS_MIN_MEAN = 500
# A Binomial or Poisson pmf table keeps only the cells whose lower and upper
# tails may both exceed this: it leaves out less than this mass on each side.
TABLE_TAIL = 1e-30


class MCResult(Record):
    _fields = ("estimate", "stderr", "exact", "zscore", "samples")

    def __init__(
        self, estimate: float, stderr: float, exact: Fraction, zscore: float | None, samples: int
    ):
        self._init(estimate, stderr, exact, zscore, samples)

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


# Binomial(k, p), the law of a sum of k Bernoulli(p) draws.
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


def _trimmed_pmf(log_pmf, mode: int, top) -> tuple[int, list[float]]:
    """(lo, pmf): exp(log_pmf) at lo, lo + 1, ... over the cells of 0..top
    whose lower and upper tails may both exceed TABLE_TAIL. The law must be
    log-concave with a mode at `mode`: stepping away from it, each ratio r of
    a pmf value to the one before is at most the ratio of the step before, so
    the tail from a cell outward is at most pmf / (1 - r) there. The pmf is
    built in log space, so no factorial or power overflows on the way."""
    log_tail = math.log(TABLE_TAIL)

    def outward(step: int) -> list[float]:
        # the log pmf from the mode on, up to the last cell kept
        kept, j = [log_pmf(mode)], mode + step
        while 0 <= j <= top:
            w = log_pmf(j)
            ratio = math.exp(w - kept[-1])
            if ratio < 1 and w - math.log1p(-ratio) < log_tail:
                break
            kept.append(w)
            j += step
        return kept

    below, above = outward(-1), outward(1)
    return mode + 1 - len(below), list(map(math.exp, below[:0:-1] + above))


def _binomial_cells(k: int, p: Fraction) -> tuple[int, list[float]]:
    """(lo, pmf) of Binomial(k, p), trimmed to its mass."""
    if p in (0, 1):
        # all mass at 0 or all mass at k
        return int(k * p), [1.0]
    lp, lq, top = _log(p), _log(1 - p), math.lgamma(k + 1)
    return _trimmed_pmf(
        lambda j: top - math.lgamma(j + 1) - math.lgamma(k - j + 1) + j * lp + (k - j) * lq,
        math.floor((k + 1) * p),
        k,
    )


def _poisson_cells(mean: Fraction) -> tuple[int, list[float]]:
    """(lo, pmf) of Poisson(mean), trimmed to its mass."""
    m, log_mean = float(mean), _log(mean)
    return _trimmed_pmf(
        lambda j: j * log_mean - m - math.lgamma(j + 1), math.floor(mean), math.inf
    )


def _table(law) -> tuple[list[float], list[float]] | None:
    """(values, pmf) of a law drawn from a table: a point mass, Bernoulli,
    Binomial, or Poisson below PTRS_MIN_MEAN. None for the laws drawn one
    sample at a time."""
    if isinstance(law, PointMass):
        return [_float(law.value, "value")], [1.0]
    if isinstance(law, Bernoulli):
        law = _Binomial(1, law.p)
    if isinstance(law, _Binomial):
        lo, pmf = _binomial_cells(law.k, law.p)
    elif isinstance(law, Poisson) and _float(law.alpha, "alpha") < PTRS_MIN_MEAN:
        lo, pmf = _poisson_cells(law.alpha)
    else:
        return None
    return [float(j) for j in range(lo, lo + len(pmf))], pmf


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw, 0 <= p <= 1, from rng.random() alone, by the
    pair of methods that CPython 3.12's `random.binomialvariate` uses. A p
    above 1/2 is drawn as n minus a Binomial(n, 1 - p). Where n p < 10,
    Devroye's geometric method counts the successes by the geometric gaps
    between them (about n p + 1 uniforms); otherwise Hormann's transformed
    rejection with squeeze (BTRS, 1993, the sibling of PTRS below) takes a
    few pairs of uniforms at most."""
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n == 0 or p == 0:
        return 0
    uniform, log, lgamma = rng.random, math.log, math.lgamma
    if n * p < 10:
        c = math.log1p(-p)
        x = y = 0
        while True:
            # floor(g) failures before the next success, which falls past
            # trial n when floor(g) >= n - y, that is when g >= n - y; g is
            # finite or inf, since 1 - random() lies in (0, 1]
            g = log(1.0 - uniform()) / c
            if g >= n - y:
                return x
            y += int(g) + 1
            x += 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    lpq = math.log(p / (1.0 - p))
    m = math.floor((n + 1) * p)
    h = lgamma(m + 1) + lgamma(n - m + 1)
    while True:
        u = uniform() - 0.5
        us = 0.5 - abs(u)
        if us == 0:
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = 1.0 - uniform()  # in (0, 1], so log(v) is finite
        if us >= 0.07 and v <= vr:
            return k
        # accept where v, scaled to the hat, lies under the pmf at k
        # relative to the mode (the log of v is missing in Hormann's paper)
        v *= alpha / (a / (us * us) + b)
        if log(v) <= h - lgamma(k + 1) - lgamma(n - k + 1) + (k - m) * lpq:
            return k


def _histogram(table, size: int, rng: random.Random) -> tuple[list[float], list[int]]:
    """The histogram of `size` iid draws from table = (values, pmf): the
    values drawn, in table order, and their counts. The counts are
    Multinomial(size, pmf), drawn cell by cell: of the draws left, a cell
    takes Binomial(left, pmf / tail), tail being the mass from that cell on,
    so the last cell takes all that is left. This reads O(len(pmf)) uniforms,
    not O(size)."""
    values, pmf = table
    # each float tail is at least its own pmf, so every ratio is at most 1
    tails = list(accumulate(reversed(pmf)))[::-1]
    drawn, counts, left = [], [], size
    for value, w, tail in zip(values, pmf, tails):
        if not left:
            break
        c = _binomial(rng, left, w / tail)
        if c:
            drawn.append(value)
            counts.append(c)
            left -= c
    return drawn, counts


def _poisson_ptrs(rng: random.Random, mean: float):
    """A function making one Poisson(mean) draw, for mean >= 10, by Hormann's
    transformed rejection with squeeze (PTRS, 1993); a draw costs at most
    about 1.35 pairs of uniforms (1.33 at mean 10, 1.12 at mean 10**10), so
    it is for means whose pmf table would be long."""
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


def _gamma_marsaglia_tsang(rng: random.Random, shape: float, scale: float):
    """A function m -> a list of m Gamma(shape, scale) draws, shape > 0, by
    Marsaglia and Tsang's method ("A simple method for generating gamma
    variables", ACM TOMS 26(3), 2000): d v with v = (1 + c x)^3 for a normal
    x, accepted by their squeeze or by the log test. The normals come in
    pairs by Box-Muller. A shape below 1 is drawn at shape + 1 and each draw
    multiplied by U^(1/shape)."""
    boost = shape < 1
    d = (shape + 1 if boost else shape) - 1 / 3
    c, power = 1 / math.sqrt(9 * d), 1 / shape
    uniform = rng.random
    log, sqrt, cos, sin, tau = math.log, math.sqrt, math.cos, math.sin, math.tau

    def sample(m: int) -> list[float]:
        vs = []
        while len(vs) < m:
            # 1 - random() lies in (0, 1], so its log is finite
            r = sqrt(-2.0 * log(1.0 - uniform()))
            t = tau * uniform()
            for x in (r * cos(t), r * sin(t)):
                v = 1.0 + c * x
                if v <= 0.0:
                    continue
                v = v * v * v
                u = 1.0 - uniform()
                xx = x * x
                if u < 1.0 - 0.0331 * xx * xx or log(u) < 0.5 * xx + d * (1.0 - v + log(v)):
                    vs.append(v)
        # the second normal of the last pair may be left over
        del vs[m:]
        if boost:
            return [d * v * uniform() ** power * scale for v in vs]
        return [d * v * scale for v in vs]

    return sample


class FloatRangeError(ValueError):
    """A parameter that no float can hold: of the law of S_k, or lam (then
    name is "lambda")."""

    def __init__(self, name: str, of: str):
        super().__init__(f"parameter {name} of {of} lies beyond the float range")
        self.name = name


def _float(value: Fraction, name: str, of="the law of S_k", *, underflow: bool = True) -> float:
    """value as a float; FloatRangeError, naming it, when it lies above the
    float range, or below it (rounds to 0.0) where underflow is False."""
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if result == math.inf or not (result or underflow):
        raise FloatRangeError(name, of)
    return result


def _float_parameters(dist) -> list[float]:
    """The parameters the sampler of dist reads, as floats: the point mass,
    the atoms, the Poisson mean, or the Gamma shape and scale 1/beta (a
    scale of 0.0 would make every draw 0.0). None for a Binomial, whose
    table is built from its exact p."""
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
    """A function m -> an iterable of m iid draws of dist, for the laws
    drawn one sample at a time: a finite discrete Y, Poisson from
    PTRS_MIN_MEAN on, and Gamma."""
    params = _float_parameters(dist)
    if isinstance(dist, FiniteDiscrete):
        cdf = [float(c) for c in accumulate(w for _, w in dist.atoms)]
        return lambda m: rng.choices(params, cum_weights=cdf, k=m)
    if isinstance(dist, Poisson):
        one = _poisson_ptrs(rng, params[0])
        return lambda m: (one() for _ in repeat(None, m))
    if isinstance(dist, Gamma):
        shape, scale = params
        if shape == 0:
            # a shape below the float range: every draw rounds to 0.0
            return lambda m: repeat(0.0, m)
        return _gamma_marsaglia_tsang(rng, shape, scale)
    raise TypeError(f"no sampler for distribution type {type(dist).__name__}")


def draw(dist: Distribution | _Binomial, size: int, seed: int) -> array:
    """`size` iid draws of dist from random.Random(seed), as an array of
    float64. A law drawn from a table (a point mass, Bernoulli, Binomial,
    Poisson below PTRS_MIN_MEAN) is drawn as its histogram, which comes back
    expanded in increasing order of value; the other laws come in the order
    drawn."""
    rng = random.Random(seed)
    table = _table(dist)
    if table is not None:
        values, counts = _histogram(table, size, rng)
        return array("d", chain.from_iterable(map(repeat, values, counts)))
    sample = _sampler(dist, rng)
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


def _histograms(chunks):
    """The distinct draws of the chunks and their counts, in groups of fewer
    than 2 * CHUNK distinct values."""
    hist = Counter()
    for chunk in chunks:
        hist.update(chunk)
        if len(hist) >= CHUNK:
            yield list(hist), list(hist.values())
            hist = Counter()
    if hist:
        yield list(hist), list(hist.values())


def _sum_groups(dist: Distribution, k: int, samples: int, seed: int):
    """`samples` draws of S_k as groups (values, counts): counts[i] draws
    equal to values[i], or one draw per value where counts is None.

    A table law gives one histogram, drawn directly from random.Random(seed).
    The other laws are drawn by `_draw_sums` and taken CHUNK draws at a time:
    Gamma draws as they are, since they do not repeat and a histogram would
    only copy them, and the others (Poisson by PTRS, a discrete sum) counted
    into histograms.
    """
    law = _sum_law(dist, k)
    table = _table(law)
    if table is not None:
        return [_histogram(table, samples, random.Random(seed))]
    draws = _draw_sums(dist, k, samples, seed)
    chunks = (draws[start : start + CHUNK] for start in range(0, samples, CHUNK))
    if isinstance(law, Gamma):
        return ((chunk, None) for chunk in chunks)
    return _histograms(chunks)


def _histogram_moments(stats: list[float], counts: list[int] | None) -> tuple[int, float, float]:
    """Count, mean and sum of squared deviations of the statistic values
    `stats` taken `counts` times, by two passes. counts None takes each once,
    by plain sums, which equal those over counts of 1 (a product by 1 is exact)."""
    size = len(stats) if counts is None else sum(counts)
    if min(stats) == max(stats):
        # keeps a deterministic statistic exact through Chan's update
        return size, stats[0], 0.0
    # the caller has checked that the stats are finite
    weighted = stats if counts is None else list(map(mul, counts, stats))
    if counts is not None and not all(map(math.isfinite, weighted)):
        raise FloatingPointError("overflow in the mean of the statistic")
    try:
        mean = math.fsum(weighted) / size
        devs = list(map(sub, stats, repeat(mean)))
        squares = map(mul, devs, devs)
        return size, mean, math.fsum(squares if counts is None else map(mul, counts, squares))
    except OverflowError:
        raise FloatingPointError("overflow in the spread of the statistic") from None


def _mean_and_stderr(groups, n: int, lam: float) -> tuple[float, float]:
    """Mean and standard error of (s)_{n,lam} over the draws s, given as
    groups (values, counts | None) as `_sum_groups` yields them.

    The statistic is evaluated once per value of a group, which stands for
    counts[i] draws, or for one draw where counts is None. The groups'
    moments merge by Chan's update, so no difference of large sums of
    squares cancels. A statistic equal in every draw gives that value and
    stderr 0 exactly: a mean of equal values computed as a sum would add
    float rounding, which can fake a huge z-score. Floats overflow to inf
    without raising, so an inf is turned into a FloatingPointError here.
    """
    shifts = [j * lam for j in range(n)]
    count, mean, m2 = 0, 0.0, 0.0
    for values, counts in groups:
        # the first factor is t - 0 * lam = t itself
        stats = list(values) if n else [1.0] * len(values)
        for shift in shifts[1:]:
            stats = list(map(mul, stats, map(sub, values, repeat(shift))))
        if not all(map(math.isfinite, stats)):
            raise FloatingPointError("overflow in the statistic")
        size, h_mean, h_m2 = _histogram_moments(stats, counts)
        total = count + size
        delta = h_mean - mean
        mean += delta * (size / total)
        # delta * 0 first: on the first group delta**2 alone may overflow
        m2 += h_m2 + delta * (delta * (count * size / total))
        count = total
    if not (math.isfinite(mean) and math.isfinite(m2)):
        raise FloatingPointError("overflow in the mean or spread of the statistic")
    return mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count)


def estimate_sum_moment(
    dist: Distribution, k: int, n: int, lam, samples: int, seed: int
) -> MCResult:
    """Estimate E[(Y_1 + ... + Y_k)_{n,lam}] and compare with the exact value.

    S_k is drawn `samples` times from its law (a table law as one histogram
    of its draws), or for a finite discrete Y as the sum of k draws of Y with
    seeds derived from `seed`. The
    z-score uses the sample standard error with one degree of freedom
    removed. A statistic equal in every replicate has stderr 0 and no
    z-score. MIN_SAMPLES <= samples <= MAX_SAMPLES, k * samples <= MAX_DRAWS
    and n <= MAX_DEGREE, checked before anything is computed.

    Raises FloatRangeError (a ValueError), before the exact value is
    computed, when lam or a parameter of the law of S_k lies beyond the
    float range (a lam below it is taken as 0.0 in the statistic);
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
    lam_float = _float(lam, "lambda", "(x)_{n,lambda}")
    exact = sum_degenerate_moment(dist, k, n, lam)
    exact_float = float(exact)

    estimate, stderr = _mean_and_stderr(_sum_groups(dist, k, samples, seed), n, lam_float)
    zscore = None if stderr == 0 else (estimate - exact_float) / stderr
    return MCResult(
        estimate=estimate,
        stderr=stderr,
        exact=exact,
        zscore=zscore,
        samples=samples,
    )
