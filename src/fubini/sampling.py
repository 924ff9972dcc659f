"""Monte Carlo cross-checks of the exact sum-moment values.

Floats live only here. Sampling uses a counter-based generator so a
(seed, spec) pair reproduces the identical stream regardless of platform
or call order. numpy is imported inside the functions that sample, so
importing the package (and every command but `mc`) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
# Upper bounds, checked before any array is allocated: each array holds
# `samples` float64s (80 MB at the bound), and a run makes k * samples draws.
MAX_SAMPLES = 10**7
MAX_DRAWS = 10**8
# Upper bound on the degree n, checked before the exact value is computed.
# The exact value costs O(n**2) big-integer operations (Miller's recurrence
# and the contraction against (x)_{n,lam}); with k = 1 at lambda -7/2 on a
# 2-vCPU Xeon VM it takes about 0.8 s at n = 400 for poisson:3/2 and 1.0 s
# for gamma:3/2,2 (medians of 5 CPU times), and about 4 s and 5 s at n = 600.
MAX_DEGREE = 400


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


def _rng(seed: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.Philox(seed))


def draw(dist: Distribution, size: int, seed: int) -> np.ndarray:
    """Vector of `size` iid samples as float64."""
    import numpy as np

    rng = _rng(seed)
    if isinstance(dist, PointMass):
        return np.full(size, float(dist.value))
    if isinstance(dist, Bernoulli):
        return (rng.random(size) < float(dist.p)).astype(np.float64)
    if isinstance(dist, Poisson):
        return rng.poisson(lam=float(dist.alpha), size=size).astype(np.float64)
    if isinstance(dist, Gamma):
        return rng.gamma(
            shape=float(dist.alpha), scale=1.0 / float(dist.beta), size=size
        )
    if isinstance(dist, FiniteDiscrete):
        values = np.array([float(v) for v, _ in dist.atoms])
        weights = np.array([float(w) for _, w in dist.atoms])
        edges = np.cumsum(weights)
        idx = np.searchsorted(edges, rng.random(size), side="right")
        return values[np.minimum(idx, len(values) - 1)]
    raise TypeError(f"no sampler for distribution type {type(dist).__name__}")


def estimate_sum_moment(
    dist: Distribution, k: int, n: int, lam, samples: int, seed: int
) -> MCResult:
    """Estimate E[(Y_1 + ... + Y_k)_{n,lam}] and compare with the exact value.

    The statistic per replicate is the degenerate falling factorial of the
    k-fold sample sum; the z-score uses the sample standard error with one
    degree of freedom removed. A statistic equal in every replicate has
    stderr 0 and no z-score. MIN_SAMPLES <= samples <= MAX_SAMPLES,
    k * samples <= MAX_DRAWS and n <= MAX_DEGREE, checked before anything is
    computed.

    Raises OverflowError, before any draw, when the exact value is too large
    for a float, and FloatingPointError when the float statistic, its mean
    or its spread overflows; the degree n drives both.
    """
    import numpy as np

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
    exact = sum_degenerate_moment(dist, k, n, lam)
    exact_float = float(exact)

    total = np.zeros(samples)
    for j in range(k):
        # stream split: one independent substream per summand
        total += draw(dist, samples, seed * 1_000_003 + j)
    lamf = float(lam)
    with np.errstate(over="raise"):
        stat = np.ones(samples)
        for j in range(n):
            stat = stat * (total - j * lamf)

        if np.all(stat == stat[0]):
            # a deterministic statistic: the mean and spread would only add
            # float rounding, which can fake a huge z-score
            estimate = float(stat[0])
            stderr = 0.0
            zscore = None
        else:
            estimate = float(stat.mean())
            stderr = float(stat.std(ddof=1)) / math.sqrt(samples)
            zscore = (estimate - exact_float) / stderr
    return MCResult(
        estimate=estimate,
        stderr=stderr,
        exact=exact,
        zscore=zscore,
        samples=samples,
    )
