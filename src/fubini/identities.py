"""Machine verification of the identity catalog.

Every checker compares exact rationals (or exact coefficient vectors); a
``pass`` means rational equality held in every grid case, never approximate
agreement. Each identity is, for fixed shape parameters, a polynomial in the
degeneracy parameter lam of degree <= n, so passing on n+1 distinct lam
values certifies it identically in lam; the default grid carries 12 distinct
values against n_max = 10.

The probabilistic degenerate Stirling numbers {n brace k}_{Y,lam} have two
independent paths: the kernel ``prob_stirling2`` (a triangle grown by the
column recurrence on the degenerate moments E[(Y)_{j,lam}]) and the
definition ``_stirling2_by_difference`` (the k-th finite difference of the
sum moments E[(S_j)_{n,lam}], which come from the raw moments by a power
recurrence). The identities on them pair:

- EQ19_INV: the sum moments against the binomial transform
  sum_j C(k, j) j! {n brace j}_{Y,lam} of the kernel;
- EQ20_GF: the series power (E[e_lam^Y(t)] - 1)^k / k! against the
  definition, not against the kernel, which is that same convolution;
- EQ29_BELL: the kernel against partial Bell polynomials of the degenerate
  moments, summed over partitions.

One catalog entry, THM2_9_PRINTED, reproduces the derivative identity in the
form it is usually stated, with the r-fold sum moments E[(S_r)_{n-i,lam}]
weighting the order-(r+1) polynomials. That form confuses the r-th power of
the moment series E with the power of (E - 1) and fails exact verification;
it is reported as ``known-discrepancy`` with the first counterexample.
THM2_9_CORRECTED carries the repaired weight (r!)^2 {n-i brace r}_{Y,lam}
and passes the full grid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .combinat import (
    binomial,
    factorial,
    falling_factorial_poly,
    lah,
    partial_bell,
    stirling1,
    stirling2_degenerate,
)
from .distributions import Bernoulli, Distribution, Gamma, PointMass, Poisson, FiniteDiscrete
from .families import (
    classical_fubini_poly,
    degenerate_bell_poly,
    degenerate_exp_series,
    degenerate_fubini_poly,
    degenerate_fubini_poly_order,
)
from .poly import Polynomial, gamma_weight_integral
from .probabilistic import (
    degenerate_moment,
    mgf_degenerate_series,
    prob_bell_poly,
    prob_fubini_poly,
    prob_fubini_poly_order,
    prob_stirling2,
    sum_degenerate_moment,
)
from .rational import as_rational, format_rational
from .series import TruncatedSeries


class IdentityId(Enum):
    """Names of the verifiable identities; also the CLI --suite tokens."""

    EQ6 = "EQ6"
    EQ10_GF = "EQ10_GF"
    EQ11 = "EQ11"
    EQ12_GF = "EQ12_GF"
    EQ14 = "EQ14"
    EQ15_GF = "EQ15_GF"
    EQ19_INV = "EQ19_INV"
    EQ20_GF = "EQ20_GF"
    EQ22_GF = "EQ22_GF"
    EQ23_GF = "EQ23_GF"
    EQ29_BELL = "EQ29_BELL"
    THM2_1 = "THM2_1"
    THM2_2 = "THM2_2"
    THM2_3 = "THM2_3"
    THM2_4 = "THM2_4"
    THM2_5 = "THM2_5"
    THM2_6 = "THM2_6"
    THM2_7 = "THM2_7"
    THM2_8 = "THM2_8"
    THM2_9_PRINTED = "THM2_9_PRINTED"
    THM2_9_CORRECTED = "THM2_9_CORRECTED"
    THM2_10 = "THM2_10"
    THM2_11 = "THM2_11"
    THM2_12 = "THM2_12"
    THM2_13 = "THM2_13"
    THM2_14 = "THM2_14"
    THM2_15 = "THM2_15"
    THM2_16 = "THM2_16"


EXPECTED_DISCREPANCIES = frozenset({IdentityId.THM2_9_PRINTED})

# Seed for the randomized rational inputs of the partial-Bell oracle run.
_EQ15_SEED = 170823


@dataclass(frozen=True)
class CheckConfig:
    """Grid over which every checker runs.

    coeff_depth bounds the power-series expansions of the closed geometric
    forms; it deliberately exceeds n_max so indices beyond the k <= n regime
    (where the column numbers vanish by definition) are exercised too.
    """

    lambdas: tuple[Fraction, ...]
    n_max: int
    r_max: int
    dists: tuple[Distribution, ...]
    x_points: tuple[Fraction, ...]
    series_order: int
    coeff_depth: int

    def __post_init__(self):
        object.__setattr__(
            self, "lambdas", tuple(as_rational(v) for v in self.lambdas)
        )
        object.__setattr__(self, "dists", tuple(self.dists))
        object.__setattr__(
            self, "x_points", tuple(as_rational(v) for v in self.x_points)
        )
        if not self.lambdas:
            raise ValueError("lambda grid must be nonempty")
        if not self.dists:
            raise ValueError("distribution list must be nonempty")
        if not all(isinstance(d, Distribution) for d in self.dists):
            raise ValueError("dists must be Distribution instances")
        if not self.x_points:
            raise ValueError("x-point list must be nonempty")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if self.series_order < 1:
            raise ValueError("series_order must be >= 1")
        if self.coeff_depth < 1:
            raise ValueError("coeff_depth must be >= 1")


def default_config() -> CheckConfig:
    F = Fraction
    return CheckConfig(
        lambdas=(
            F(0),
            F(1, 3),
            F(1, 2),
            F(1),
            F(-1, 4),
            F(7, 5),
            F(2),
            F(-3),
            F(5, 2),
            F(11, 3),
            F(-7, 2),
            F(13, 4),
        ),
        n_max=10,
        r_max=3,
        dists=(
            PointMass(F(1)),
            PointMass(F(5, 2)),
            Bernoulli(F(2, 5)),
            Poisson(F(3, 2)),
            Gamma(F(1), F(1)),
            Gamma(F(3, 2), F(2)),
            FiniteDiscrete(((F(0), F(1, 6)), (F(1), F(1, 2)), (F(3), F(1, 3)))),
        ),
        x_points=(F(1), F(1, 2), F(-1, 3)),
        series_order=12,
        coeff_depth=26,
    )


@dataclass
class Counterexample:
    params: dict[str, str]
    lhs: str
    rhs: str

    def to_dict(self) -> dict:
        return {"params": dict(self.params), "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class CheckReport:
    identity: IdentityId
    status: str  # "pass" | "fail" | "known-discrepancy"
    cases: int
    counterexample: Counterexample | None = field(default=None)

    @property
    def ok(self) -> bool:
        if self.status == "pass":
            return True
        return (
            self.status == "known-discrepancy"
            and self.identity in EXPECTED_DISCREPANCIES
        )

    def to_dict(self) -> dict:
        return {
            "identity": self.identity.value,
            "status": self.status,
            "cases": self.cases,
            "counterexample": (
                self.counterexample.to_dict() if self.counterexample else None
            ),
        }


def _fmt(value) -> str:
    if isinstance(value, Polynomial):
        return "[" + ", ".join(str(c) for c in value.coeffs) + "]"
    if isinstance(value, Distribution):
        return value.spec_string()
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    return str(value)


def _drive(identity: IdentityId, cases) -> CheckReport:
    count = 0
    cex = None
    for lhs, rhs, params in cases:
        count += 1
        if lhs != rhs:
            cex = Counterexample(
                params={k: _fmt(v) for k, v in params.items()},
                lhs=_fmt(lhs),
                rhs=_fmt(rhs),
            )
            break
    if cex is None:
        status = "pass"
    elif identity in EXPECTED_DISCREPANCIES:
        status = "known-discrepancy"
    else:
        status = "fail"
    return CheckReport(identity, status, count, cex)


def _classical_falling(x, k: int) -> Fraction:
    val = Fraction(1)
    for j in range(k):
        val *= x - j
    return val


def _comb_rows(max_n: int) -> list[list[int]]:
    return [[binomial(m, j) for j in range(max_n + 1)] for m in range(max_n + 1)]


def _fubini_base_series(dist, lam, x0, order) -> TruncatedSeries:
    base = mgf_degenerate_series(dist, lam, order) - 1
    return (1 - base * x0).reciprocal()


# --- checkers; each yields (lhs, rhs, params) and stops at the driver ---


def _eq6(cfg):
    # (x)_{n,lam} = sum_k {n brace k}_lam (x)_k at every integer x in 0..n
    for lam in cfg.lambdas:
        for n in range(cfg.n_max + 1):
            ff = falling_factorial_poly(n, lam)
            for x in range(n + 1):
                rhs = sum(
                    (
                        stirling2_degenerate(n, k, lam) * _classical_falling(x, k)
                        for k in range(n + 1)
                    ),
                    start=Fraction(0),
                )
                yield ff.evaluate(x), rhs, {"lambda": lam, "n": n, "x": x}


def _eq10_gf(cfg):
    # EGF of the degenerate Fubini values: 1 / (1 - x0 (e_lam(t) - 1))
    for lam in cfg.lambdas:
        e = degenerate_exp_series(1, lam, cfg.series_order)
        for x0 in cfg.x_points:
            s = (1 - (e - 1) * x0).reciprocal()
            for n in range(cfg.series_order + 1):
                yield (
                    s.egf_coefficient(n),
                    degenerate_fubini_poly(n, lam).evaluate(x0),
                    {"lambda": lam, "x": x0, "n": n},
                )


def _eq11(cfg):
    # Coefficients of F_{n,lam}(x/(1-x))/(1-x): C(k, j) j! {n brace j}_lam sums
    for lam in cfg.lambdas:
        for n in range(min(8, cfg.n_max) + 1):
            ff = falling_factorial_poly(n, lam)
            weights = [
                stirling2_degenerate(n, j, lam) * factorial(j) for j in range(n + 1)
            ]
            for k in range(2 * n + 7):
                lhs = sum(
                    (
                        weights[j] * binomial(k, j)
                        for j in range(min(n, k) + 1)
                        if weights[j]
                    ),
                    start=Fraction(0),
                )
                yield lhs, ff.evaluate(k), {"lambda": lam, "n": n, "k": k}


def _eq12_gf(cfg):
    # Order-r generating function: the r-th power of the reciprocal series
    for lam in cfg.lambdas:
        e = degenerate_exp_series(1, lam, cfg.series_order)
        for x0 in cfg.x_points:
            base = (1 - (e - 1) * x0).reciprocal()
            power = base
            for r in range(1, cfg.r_max + 1):
                for n in range(cfg.series_order + 1):
                    yield (
                        power.egf_coefficient(n),
                        degenerate_fubini_poly_order(n, r, lam).evaluate(x0),
                        {"lambda": lam, "x": x0, "r": r, "n": n},
                    )
                power = power * base


def _eq14(cfg):
    # Order-(r+1) coefficients against C(k+r, r) (k)_{n,lam}
    for lam in cfg.lambdas:
        for n in range(min(8, cfg.n_max) + 1):
            ff = falling_factorial_poly(n, lam)
            for r in range(1, cfg.r_max + 1):
                weights = [
                    stirling2_degenerate(n, l, lam)
                    * factorial(l)
                    * binomial(l + r, l)
                    for l in range(n + 1)
                ]
                for k in range(2 * n + 7):
                    lhs = sum(
                        (
                            weights[l] * binomial(k + r, k - l)
                            for l in range(min(n, k) + 1)
                            if weights[l]
                        ),
                        start=Fraction(0),
                    )
                    rhs = binomial(k + r, r) * ff.evaluate(k)
                    yield lhs, rhs, {"lambda": lam, "n": n, "r": r, "k": k}


def _eq15_gf(cfg):
    # Partial Bell polynomials against k-th powers of a random EGF
    rng = random.Random(_EQ15_SEED)
    order = cfg.n_max
    for draw in range(3):
        xs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(order + 1)
        ]
        series = TruncatedSeries.from_egf([Fraction(0)] + xs[:order])
        power = TruncatedSeries.one(order)
        for k in range(min(5, cfg.n_max) + 1):
            for n in range(k, cfg.n_max + 1):
                lhs = power.egf_coefficient(n) / factorial(k)
                rhs = partial_bell(n, k, xs[: max(n - k + 1, 0)])
                yield lhs, rhs, {"draw": draw, "k": k, "n": n}
            power = power * series


def _eq19_inv(cfg):
    # Binomial-inversion roundtrip from the column numbers back to sum moments
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for n in range(cfg.n_max + 1):
                for k in range(cfg.n_max + 1):
                    lhs = sum_degenerate_moment(dist, k, n, lam)
                    rhs = sum(
                        (
                            binomial(k, j)
                            * factorial(j)
                            * prob_stirling2(dist, n, j, lam)
                            for j in range(min(k, n) + 1)
                        ),
                        start=Fraction(0),
                    )
                    yield lhs, rhs, {"dist": dist, "lambda": lam, "n": n, "k": k}


def _stirling2_by_difference(dist, n, k, lam) -> Fraction:
    # The defining alternating sum: k-th finite difference of
    # j -> E[(S_j)_{n,lam}] at 0, divided by k!
    total = Fraction(0)
    for j in range(k + 1):
        term = sum_degenerate_moment(dist, j, n, lam)
        if term:
            total += binomial(k, j) * (-1) ** (k - j) * term
    return total / factorial(k)


def _eq20_gf(cfg):
    # (E[e_lam^Y(t)] - 1)^k / k! generates the finite differences of the
    # sum moments
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            base = mgf_degenerate_series(dist, lam, cfg.series_order) - 1
            power = TruncatedSeries.one(cfg.series_order)
            for k in range(cfg.n_max + 1):
                kfact = factorial(k)
                for n in range(cfg.series_order + 1):
                    yield (
                        power.egf_coefficient(n) / kfact,
                        _stirling2_by_difference(dist, n, k, lam),
                        {"dist": dist, "lambda": lam, "k": k, "n": n},
                    )
                power = power * base


def _eq22_gf(cfg):
    # exp(x0 (E[e_lam^Y(t)] - 1)) against the Bell polynomials
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            base = mgf_degenerate_series(dist, lam, cfg.series_order) - 1
            for x0 in cfg.x_points:
                s = (base * x0).exp()
                for n in range(cfg.series_order + 1):
                    yield (
                        s.egf_coefficient(n),
                        prob_bell_poly(dist, n, lam).evaluate(x0),
                        {"dist": dist, "lambda": lam, "x": x0, "n": n},
                    )


def _eq23_gf(cfg):
    # 1/(1 - x0 (E[e_lam^Y(t)] - 1)) against the Fubini polynomials
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for x0 in cfg.x_points:
                s = _fubini_base_series(dist, lam, x0, cfg.series_order)
                for n in range(cfg.series_order + 1):
                    yield (
                        s.egf_coefficient(n),
                        prob_fubini_poly(dist, n, lam).evaluate(x0),
                        {"dist": dist, "lambda": lam, "x": x0, "n": n},
                    )


def _eq29_bell(cfg):
    # Column numbers as partial Bell polynomials of the degenerate moments
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            moments = [
                degenerate_moment(dist, i, lam) for i in range(1, cfg.n_max + 2)
            ]
            for n in range(min(8, cfg.n_max) + 1):
                for k in range(n + 1):
                    yield (
                        prob_stirling2(dist, n, k, lam),
                        partial_bell(n, k, moments[: max(n - k + 1, 0)]),
                        {"dist": dist, "lambda": lam, "n": n, "k": k},
                    )


def _geometric_expansion_rows(cfg, dist, lam, depth):
    # Coefficients of F^Y_{n,lam}(u/(1-u))/(1-u) in powers of u, vs sum moments
    for n in range(cfg.n_max + 1):
        fub = prob_fubini_poly(dist, n, lam)
        for i in range(depth + 1):
            lhs = sum(
                (
                    fub.coefficient(k) * binomial(i, k)
                    for k in range(min(n, i) + 1)
                    if fub.coefficient(k)
                ),
                start=Fraction(0),
            )
            rhs = sum_degenerate_moment(dist, i, n, lam)
            yield lhs, rhs, {"dist": dist, "lambda": lam, "n": n, "i": i}


def _thm2_2(cfg):
    # Geometric moment series; exactly the substitution image u = x/(1+x)
    # of the expansion checked coefficient-wise (the tail is additionally
    # spot-checked numerically via thm2_2_numeric_spotcheck).
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            yield from _geometric_expansion_rows(cfg, dist, lam, cfg.coeff_depth)


def _thm2_3(cfg):
    # Unit-rate gamma closed form through Lah and first-kind Stirling numbers
    dist = Gamma(Fraction(1), Fraction(1))
    for lam in cfg.lambdas:
        for n in range(cfg.n_max + 1):
            coeffs = []
            for k in range(n + 1):
                acc = Fraction(0)
                for l in range(k, n + 1):
                    s1 = stirling1(n, l)
                    if s1:
                        acc += lam ** (n - l) * s1 * lah(l, k)
                coeffs.append(acc * factorial(k))
            yield (
                prob_fubini_poly(dist, n, lam),
                Polynomial(coeffs),
                {"dist": dist, "lambda": lam, "n": n},
            )


def _thm2_4(cfg):
    # Exponential-weight integral of phi^Y(x y) recovers F^Y coefficient-wise
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for n in range(cfg.n_max + 1):
                bell = prob_bell_poly(dist, n, lam)
                fub = prob_fubini_poly(dist, n, lam)
                for k in range(n + 1):
                    lhs = bell.coefficient(k) * gamma_weight_integral(
                        Polynomial.monomial(k), 1
                    )
                    yield (
                        lhs,
                        fub.coefficient(k),
                        {"dist": dist, "lambda": lam, "n": n, "k": k},
                    )


def _thm2_5(cfg):
    # Value at 1 as a k!-weighted sum of partial Bell polynomials
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            moments = [
                degenerate_moment(dist, i, lam) for i in range(1, cfg.n_max + 2)
            ]
            for n in range(cfg.n_max + 1):
                rhs = sum(
                    (
                        factorial(k) * partial_bell(n, k, moments[: max(n - k + 1, 0)])
                        for k in range(n + 1)
                    ),
                    start=Fraction(0),
                )
                yield (
                    prob_fubini_poly(dist, n, lam).evaluate(1),
                    rhs,
                    {"dist": dist, "lambda": lam, "n": n},
                )


def _thm2_6(cfg):
    # Order-r explicit formula against the r-th power of the base series
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for x0 in cfg.x_points:
                base = _fubini_base_series(dist, lam, x0, cfg.series_order)
                power = base
                for r in range(1, cfg.r_max + 1):
                    for n in range(cfg.series_order + 1):
                        yield (
                            power.egf_coefficient(n),
                            prob_fubini_poly_order(dist, n, r, lam).evaluate(x0),
                            {"dist": dist, "lambda": lam, "x": x0, "r": r, "n": n},
                        )
                    power = power * base


def _thm2_7(cfg):
    # First-order recurrence through moment-weighted binomial convolution
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            fubs = [prob_fubini_poly(dist, n, lam) for n in range(cfg.n_max + 1)]
            for n in range(1, cfg.n_max + 1):
                acc = Polynomial()
                for k in range(1, n + 1):
                    m = degenerate_moment(dist, k, lam)
                    if m:
                        acc = acc + fubs[n - k] * (binomial(n, k) * m)
                rhs = Polynomial.monomial(1) * acc
                yield fubs[n], rhs, {"dist": dist, "lambda": lam, "n": n}


def _thm2_8(cfg):
    # Quadratic recurrence: products of two lower Fubini polynomials
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            fubs = [prob_fubini_poly(dist, n, lam) for n in range(cfg.n_max + 1)]
            conv = []
            for k in range(cfg.n_max):
                h = Polynomial()
                for i in range(k + 1):
                    h = h + (fubs[i] * fubs[k - i]) * binomial(k, i)
                conv.append(h)
            for n in range(cfg.n_max):
                acc = Polynomial()
                for k in range(n + 1):
                    m = degenerate_moment(dist, n - k + 1, lam)
                    if m:
                        acc = acc + conv[k] * (binomial(n, k) * m)
                rhs = Polynomial.monomial(1) * acc
                yield fubs[n + 1], rhs, {"dist": dist, "lambda": lam, "n": n}


def _thm2_9_printed(cfg):
    # Derivative identity as usually stated: r-fold sum moments as weights.
    # n starts at 1; at n = 0 the form already fails trivially (0 vs r!).
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for r in range(1, cfg.r_max + 1):
                rfact = factorial(r)
                for n in range(1, min(8, cfg.n_max) + 1):
                    lhs = prob_fubini_poly(dist, n, lam).derivative(r)
                    acc = Polynomial()
                    for i in range(n + 1):
                        w = binomial(n, i) * sum_degenerate_moment(
                            dist, r, n - i, lam
                        )
                        if w:
                            acc = acc + prob_fubini_poly_order(
                                dist, i, r + 1, lam
                            ) * w
                    yield lhs, acc * rfact, {
                        "dist": dist,
                        "lambda": lam,
                        "n": n,
                        "r": r,
                    }


def _thm2_9_corrected(cfg):
    # Repaired derivative identity: (r!)^2 weights by the column numbers
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for r in range(1, cfg.r_max + 1):
                rfact2 = factorial(r) ** 2
                for n in range(min(8, cfg.n_max) + 1):
                    lhs = prob_fubini_poly(dist, n, lam).derivative(r)
                    acc = Polynomial()
                    for i in range(n + 1):
                        w = binomial(n, i) * prob_stirling2(dist, n - i, r, lam)
                        if w:
                            acc = acc + prob_fubini_poly_order(
                                dist, i, r + 1, lam
                            ) * w
                    yield lhs, acc * rfact2, {
                        "dist": dist,
                        "lambda": lam,
                        "n": n,
                        "r": r,
                    }


def _poissons(cfg):
    found = tuple(d for d in cfg.dists if isinstance(d, Poisson))
    return found or (Poisson(Fraction(3, 2)),)


def _thm2_11(cfg):
    # Poisson: Fubini polynomial as a Bell-number mixture of classical ones
    for dist in _poissons(cfg):
        for lam in cfg.lambdas:
            for n in range(cfg.n_max + 1):
                rhs = Polynomial()
                apow = Fraction(1)
                for i in range(n + 1):
                    w = stirling2_degenerate(n, i, lam) * apow
                    if w:
                        rhs = rhs + classical_fubini_poly(i) * w
                    apow *= dist.alpha
                yield (
                    prob_fubini_poly(dist, n, lam),
                    rhs,
                    {"dist": dist, "lambda": lam, "n": n},
                )


def _thm2_12(cfg):
    # Poisson sum moments are the classical Bell polynomials at k*alpha,
    # and the geometric expansion then reduces to the THM2_10 rows.
    for dist in _poissons(cfg):
        for lam in cfg.lambdas:
            for n in range(cfg.n_max + 1):
                bell = degenerate_bell_poly(n, lam)
                for k in range(cfg.coeff_depth + 1):
                    yield (
                        bell.evaluate(k * dist.alpha),
                        sum_degenerate_moment(dist, k, n, lam),
                        {"dist": dist, "lambda": lam, "n": n, "k": k},
                    )
            yield from _geometric_expansion_rows(cfg, dist, lam, cfg.coeff_depth)


def _thm2_13(cfg):
    # Order-(r+1) geometric expansion: integer cores over a common
    # denominator keep the inner sums in machine-int arithmetic, exactly.
    depth = cfg.coeff_depth
    comb = _comb_rows(depth + cfg.r_max)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for r in range(1, cfg.r_max + 1):
                for n in range(cfg.n_max + 1):
                    w = prob_fubini_poly_order(dist, n, r + 1, lam)
                    dens = [w.coefficient(l).denominator for l in range(n + 1)]
                    common = math.lcm(*dens) if dens else 1
                    nums = [
                        int(w.coefficient(l) * common) for l in range(n + 1)
                    ]
                    for i in range(depth + 1):
                        row = comb[i + r]
                        core = sum(
                            nums[l] * row[i - l] for l in range(min(n, i) + 1)
                        )
                        lhs = Fraction(core, common)
                        rhs = row[i] * sum_degenerate_moment(dist, i, n, lam)
                        yield lhs, rhs, {
                            "dist": dist,
                            "lambda": lam,
                            "r": r,
                            "n": n,
                            "i": i,
                        }


def _thm2_14(cfg):
    # Gamma-weight integral of order r recovers the order-r polynomial
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for r in range(1, cfg.r_max + 1):
                rweight = factorial(r - 1)
                for n in range(cfg.n_max + 1):
                    bell = prob_bell_poly(dist, n, lam)
                    fub_r = prob_fubini_poly_order(dist, n, r, lam)
                    for k in range(n + 1):
                        lhs = (
                            bell.coefficient(k)
                            * gamma_weight_integral(Polynomial.monomial(k), r)
                            / rweight
                        )
                        yield (
                            lhs,
                            fub_r.coefficient(k),
                            {"dist": dist, "lambda": lam, "r": r, "n": n, "k": k},
                        )


def _thm2_15(cfg):
    # Order-r recurrence driven by the shifted degenerate moments
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            fubs = [prob_fubini_poly(dist, m, lam) for m in range(cfg.n_max)]
            shifted = [
                degenerate_moment(dist, j + 1, lam) for j in range(cfg.n_max)
            ]
            drivers = []
            for k in range(cfg.n_max):
                g = Polynomial()
                for j in range(k + 1):
                    if shifted[j]:
                        g = g + fubs[k - j] * (binomial(k, j) * shifted[j])
                drivers.append(g)
            for r in range(1, cfg.r_max + 1):
                ords = [
                    prob_fubini_poly_order(dist, m, r, lam)
                    for m in range(cfg.n_max + 1)
                ]
                for n in range(cfg.n_max):
                    acc = Polynomial()
                    for k in range(n + 1):
                        if drivers[k]:
                            acc = acc + ords[n - k] * drivers[k] * binomial(n, k)
                    rhs = Polynomial.monomial(1) * acc * r
                    yield ords[n + 1], rhs, {
                        "dist": dist,
                        "lambda": lam,
                        "r": r,
                        "n": n,
                    }


def _thm2_16(cfg):
    # Bernoulli collapse: F^Y_{n,lam}(x) = F_{n,lam}(p x); p = 0 and p = 1
    # are forced boundary cases on top of whatever the config carries.
    seen = []
    for b in (Bernoulli(Fraction(0)), Bernoulli(Fraction(1))):
        seen.append(b)
    for d in cfg.dists:
        if isinstance(d, Bernoulli) and d not in seen:
            seen.append(d)
    for dist in seen:
        for lam in cfg.lambdas:
            for n in range(cfg.n_max + 1):
                yield (
                    prob_fubini_poly(dist, n, lam),
                    degenerate_fubini_poly(n, lam).scale_argument(dist.p),
                    {"dist": dist, "lambda": lam, "n": n},
                )


_CHECKERS = {
    IdentityId.EQ6: _eq6,
    IdentityId.EQ10_GF: _eq10_gf,
    IdentityId.EQ11: _eq11,
    IdentityId.EQ12_GF: _eq12_gf,
    IdentityId.EQ14: _eq14,
    IdentityId.EQ15_GF: _eq15_gf,
    IdentityId.EQ19_INV: _eq19_inv,
    IdentityId.EQ20_GF: _eq20_gf,
    IdentityId.EQ22_GF: _eq22_gf,
    IdentityId.EQ23_GF: _eq23_gf,
    IdentityId.EQ29_BELL: _eq29_bell,
    # THM2_1, the column expansion sum_k {n brace k}_{Y,lam} k! x^k, is the
    # Fubini polynomial at x: the same comparison as EQ23_GF.
    IdentityId.THM2_1: _eq23_gf,
    IdentityId.THM2_2: _thm2_2,
    IdentityId.THM2_3: _thm2_3,
    IdentityId.THM2_4: _thm2_4,
    IdentityId.THM2_5: _thm2_5,
    IdentityId.THM2_6: _thm2_6,
    IdentityId.THM2_7: _thm2_7,
    IdentityId.THM2_8: _thm2_8,
    IdentityId.THM2_9_PRINTED: _thm2_9_printed,
    IdentityId.THM2_9_CORRECTED: _thm2_9_corrected,
    # THM2_10, the expansion of F^Y_{n,lam}(u/(1-u))/(1-u) in powers of u
    # against the sum moments, is coefficient for coefficient THM2_2's check.
    IdentityId.THM2_10: _thm2_2,
    IdentityId.THM2_11: _thm2_11,
    IdentityId.THM2_12: _thm2_12,
    IdentityId.THM2_13: _thm2_13,
    IdentityId.THM2_14: _thm2_14,
    IdentityId.THM2_15: _thm2_15,
    IdentityId.THM2_16: _thm2_16,
}


def resolve_identity(name: str | IdentityId) -> IdentityId:
    if isinstance(name, IdentityId):
        return name
    try:
        return IdentityId[name]
    except KeyError:
        raise ValueError(f"unknown identity {name!r}") from None


def check_identity(identity: str | IdentityId, cfg: CheckConfig) -> CheckReport:
    """Run one checker over the grid; stops at the first exact mismatch."""
    identity = resolve_identity(identity)
    return _drive(identity, _CHECKERS[identity](cfg))


def run_suite(cfg: CheckConfig, identities=None) -> list[CheckReport]:
    """Run the whole catalog (or a selection) in declaration order."""
    if identities is None:
        selected = list(IdentityId)
    else:
        selected = [resolve_identity(i) for i in identities]
    return [check_identity(i, cfg) for i in selected]


def suite_ok(reports) -> bool:
    """True when every report passes or is an expected known discrepancy."""
    return all(r.ok for r in reports)


def thm2_2_numeric_spotcheck(
    cfg: CheckConfig, *, terms: int = 140, rel_tol: float = 1e-9
) -> dict:
    """Float partial sums of the infinite geometric moment series.

    At rational points with |x/(1+x)| <= 1/2 the series converges fast for
    small n; the first `terms` partial sums must agree with the exact
    polynomial value to rel_tol. This is the one deliberately inexact check
    in the package; it never feeds a CheckReport.
    """
    points = [Fraction(1, 2), Fraction(1)]
    lams = cfg.lambdas[:3]
    cases = 0
    worst = 0.0
    failures = []
    for dist in cfg.dists:
        for lam in lams:
            for n in range(min(4, cfg.n_max) + 1):
                for x0 in points:
                    u = x0 / (1 + x0)
                    uf = float(u)
                    exact = float(prob_fubini_poly(dist, n, lam).evaluate(x0))
                    acc = 0.0
                    upow = 1.0
                    for k in range(terms + 1):
                        acc += upow * float(sum_degenerate_moment(dist, k, n, lam))
                        upow *= uf
                    approx = acc / float(1 + x0)
                    err = abs(approx - exact) / max(1.0, abs(exact))
                    worst = max(worst, err)
                    cases += 1
                    if err > rel_tol:
                        failures.append(
                            {
                                "dist": dist.spec_string(),
                                "lambda": format_rational(lam),
                                "n": n,
                                "x": format_rational(x0),
                                "approx": approx,
                                "exact": exact,
                            }
                        )
    return {
        "cases": cases,
        "max_rel_err": worst,
        "rel_tol": rel_tol,
        "terms": terms,
        "failures": failures,
        "ok": not failures,
    }
