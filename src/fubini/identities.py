"""Machine verification of the identity catalog.

Every checker compares exact values; a ``pass`` means exact equality held in
every grid case, never approximate agreement. A checker yields
(lhs, rhs, params) cases. A ``Polynomial`` side is compared with ``==`` on
its canonical stored form. A scalar side is an int, a Fraction, or a pair
(num, den) with den != 0, not necessarily in lowest terms: checkers build
pairs straight from the integer numerators that polynomials, series and
triangle rows store, and take an int or Fraction as it is where a public
accessor returns it ready-made. ``_drive`` compares two scalars by
cross-multiplication, num_l * den_r == num_r * den_l, and builds Fractions
only for a counterexample, which prints both sides in lowest terms. (Under
``hooks.perturb`` the parts of a pair may be Fractions; the comparison stays
exact.)

What a pass shows about lam: for fixed shape parameters both sides of a
case at index n are polynomials in the degeneracy parameter lam of degree at
most n - 1 (the lam-degree of (x)_{n,lam}; {n brace k}_{Y,lam} has degree
n - k). A nonzero difference of degree d has at most d roots, so a case
passed at d + 1 distinct lam holds identically in lam. The generating
function checkers run n up to series_order, so they need series_order
distinct lam. The default grid has 12 distinct lam and series_order 12,
which is exactly tight. ``verify --n-max N`` sets series_order to N + 2, so
for N >= 11, or with fewer distinct ``--lambda`` values than series_order,
a pass is evidence on the grid only, not a certificate in lam.

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
from operator import mul

from .combinat import (
    binomial,
    factorial,
    falling_factorial_poly,
    lah,
    partial_bell,
    stirling1,
    stirling2_degenerate,
    stirling2_degenerate_row,
)
from .distributions import Bernoulli, Distribution, Gamma, PointMass, Poisson, FiniteDiscrete
from .families import (
    classical_fubini_poly,
    degenerate_bell_poly,
    degenerate_exp_series,
    degenerate_fubini_poly,
    degenerate_fubini_poly_order,
)
from .poly import Polynomial, convolve, gamma_weight_integral, weighted_sum
from .probabilistic import (
    degenerate_moment,
    mgf_degenerate_series,
    prob_bell_poly,
    prob_fubini_poly,
    prob_fubini_poly_order,
    prob_stirling2,
    sum_degenerate_row,
)
from .rational import as_rational, format_rational, scaled
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
    if isinstance(value, tuple):
        return format_rational(Fraction(*value))
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    return str(value)


def _report(identity: IdentityId, cases: int, cex) -> CheckReport:
    if cex is None:
        status = "pass"
    elif identity in EXPECTED_DISCREPANCIES:
        status = "known-discrepancy"
    else:
        status = "fail"
    return CheckReport(identity, status, cases, cex)


def _drive(identity: IdentityId, cases) -> CheckReport:
    count = 0
    cex = None
    for lhs, rhs, params in cases:
        count += 1
        if type(lhs) is Polynomial:
            same = lhs == rhs
        else:
            # scalars: (num, den) pairs as given, ints and Fractions split
            ln, ld = lhs if type(lhs) is tuple else (lhs.numerator, lhs.denominator)
            rn, rd = rhs if type(rhs) is tuple else (rhs.numerator, rhs.denominator)
            same = ln * rd == rn * ld
        if not same:
            cex = Counterexample(
                params={k: _fmt(v) for k, v in params.items()},
                lhs=_fmt(lhs),
                rhs=_fmt(rhs),
            )
            break
    return _report(identity, count, cex)


# Kept apart from combinat.falling_factorial_poly(k, 1), which is the same
# polynomial: EQ6 reads its left side from that table, and lam = 1 is in the
# default grid, so at lam = 1 both sides would come from one table.
def _classical_falling(x: int, k: int) -> int:
    val = 1
    for j in range(k):
        val *= x - j
    return val


def _comb_rows(max_n: int) -> list[list[int]]:
    return [[binomial(m, j) for j in range(max_n + 1)] for m in range(max_n + 1)]


def _factorials(order: int) -> list[int]:
    # n! for n <= order from math.factorial, which egf_coefficient reads: the
    # EGF coefficient n of a series s is the pair (s.nums[n] * n!, s.den)
    return [math.factorial(n) for n in range(order + 1)]


def _numerator(p: Polynomial, k: int) -> int:
    # the stored numerator of [x**k] p, over p.den
    return p.nums[k] if k < len(p.nums) else 0


def _sum(terms) -> Polynomial:
    # sum of weight * nums / den over (nums, den, weight) terms, reduced once
    return Polynomial.from_scaled(*weighted_sum(terms))


def _x_times_sum(terms) -> Polynomial:
    # x times _sum(terms): the numerators shifted up by one degree
    nums, den = weighted_sum(terms)
    return Polynomial.from_scaled([0, *nums], den)


def _term(p: Polynomial, scalar, weight=1) -> tuple:
    # the term weight * scalar * p, the scalar (an int, a Fraction or a
    # (num, den) pair) its denominator moved into the term's, so that an int
    # weight stays an int
    num, den = scalar if type(scalar) is tuple else (scalar.numerator, scalar.denominator)
    return p.nums, p.den * den, weight * num


def _product(a: Polynomial, b: Polynomial, weight) -> tuple:
    # the term weight * a * b, its numerators the unreduced convolution
    size = len(a.nums) + len(b.nums) - 1
    return convolve(a.nums, b.nums, size), a.den * b.den, weight


def _fubini_base_series(base: TruncatedSeries, x0) -> TruncatedSeries:
    # 1 / (1 - x0 base) for base = E[e_lam^Y(t)] - 1, which the caller builds
    # once per (dist, lam) and not once per x0
    return (1 - base * x0).reciprocal()


def _sum_moment_rows(dist, lam, k_max: int, n_max: int) -> list[tuple]:
    # E[(S_k)_{n,lam}] for k = 0..k_max and n = 0..n_max (at least), one
    # (nums, den) per k: entry n of row k is nums[n] / den. The pair is taken
    # at once, so a later rescaling of the stored row does not split it.
    rows = [sum_degenerate_row(dist, k, n_max, lam) for k in range(k_max + 1)]
    return [(row.nums, row.den) for row in rows]


# --- checkers; each yields (lhs, rhs, params) and stops at the driver ---


def _eq6(cfg):
    # (x)_{n,lam} = sum_k {n brace k}_lam (x)_k at every integer x in 0..n;
    # the sum over k runs on the row's numerators over one denominator
    for lam in cfg.lambdas:
        for n in range(cfg.n_max + 1):
            ff = falling_factorial_poly(n, lam)
            row = stirling2_degenerate_row(n, lam)
            for x in range(n + 1):
                rhs = sum(c * _classical_falling(x, k) for k, c in enumerate(row.nums))
                yield ff.evaluate(x), (rhs, row.den), {"lambda": lam, "n": n, "x": x}


def _eq10_gf(cfg):
    # EGF of the degenerate Fubini values: 1 / (1 - x0 (e_lam(t) - 1))
    facts = _factorials(cfg.series_order)
    for lam in cfg.lambdas:
        e = degenerate_exp_series(1, lam, cfg.series_order)
        fubs = [degenerate_fubini_poly(n, lam) for n in range(cfg.series_order + 1)]
        for x0 in cfg.x_points:
            s = (1 - (e - 1) * x0).reciprocal()
            for n, fub in enumerate(fubs):
                yield (
                    (s.nums[n] * facts[n], s.den),
                    fub.evaluate(x0),
                    {"lambda": lam, "x": x0, "n": n},
                )


def _eq11(cfg):
    # Coefficients of F_{n,lam}(x/(1-x))/(1-x): C(k, j) j! {n brace j}_lam sums,
    # on the weights' numerators over one denominator
    for lam in cfg.lambdas:
        for n in range(min(8, cfg.n_max) + 1):
            ff = falling_factorial_poly(n, lam)
            weights, den = scaled(
                [stirling2_degenerate(n, j, lam) * factorial(j) for j in range(n + 1)]
            )
            for k in range(2 * n + 7):
                lhs = sum(
                    weights[j] * binomial(k, j)
                    for j in range(min(n, k) + 1)
                    if weights[j]
                )
                yield (lhs, den), ff.evaluate(k), {"lambda": lam, "n": n, "k": k}


def _eq12_gf(cfg):
    # Order-r generating function: the r-th power of the reciprocal series
    facts = _factorials(cfg.series_order)
    for lam in cfg.lambdas:
        e = degenerate_exp_series(1, lam, cfg.series_order)
        ords = [
            [degenerate_fubini_poly_order(n, r, lam) for n in range(cfg.series_order + 1)]
            for r in range(1, cfg.r_max + 1)
        ]
        for x0 in cfg.x_points:
            base = (1 - (e - 1) * x0).reciprocal()
            power = base
            for r in range(1, cfg.r_max + 1):
                for n, fub in enumerate(ords[r - 1]):
                    yield (
                        (power.nums[n] * facts[n], power.den),
                        fub.evaluate(x0),
                        {"lambda": lam, "x": x0, "r": r, "n": n},
                    )
                power = power * base


def _eq14(cfg):
    # Order-(r+1) coefficients against C(k+r, r) (k)_{n,lam}, on the weights'
    # numerators over one denominator
    for lam in cfg.lambdas:
        for n in range(min(8, cfg.n_max) + 1):
            ff = falling_factorial_poly(n, lam)
            values = [ff.evaluate(k) for k in range(2 * n + 7)]
            for r in range(1, cfg.r_max + 1):
                weights, den = scaled(
                    [
                        stirling2_degenerate(n, l, lam)
                        * factorial(l)
                        * binomial(l + r, l)
                        for l in range(n + 1)
                    ]
                )
                for k, value in enumerate(values):
                    lhs = sum(
                        weights[l] * binomial(k + r, k - l)
                        for l in range(min(n, k) + 1)
                        if weights[l]
                    )
                    rhs = binomial(k + r, r) * value.numerator
                    yield (lhs, den), (rhs, value.denominator), {
                        "lambda": lam,
                        "n": n,
                        "r": r,
                        "k": k,
                    }


def _eq15_gf(cfg):
    # Partial Bell polynomials against k-th powers of a random EGF
    rng = random.Random(_EQ15_SEED)
    order = cfg.n_max
    facts = _factorials(order)
    for draw in range(3):
        xs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(order + 1)
        ]
        series = TruncatedSeries.from_egf([Fraction(0)] + xs[:order])
        power = TruncatedSeries.one(order)
        for k in range(min(5, cfg.n_max) + 1):
            kfact = factorial(k)
            for n in range(k, cfg.n_max + 1):
                lhs = power.nums[n] * facts[n], power.den * kfact
                rhs = partial_bell(n, k, xs[: max(n - k + 1, 0)])
                yield lhs, rhs, {"draw": draw, "k": k, "n": n}
            power = power * series


def _eq19_inv(cfg):
    # Binomial-inversion roundtrip from the column numbers back to sum
    # moments; the sums over j run on the triangle row's integer numerators.
    weights = [
        [binomial(k, j) * factorial(j) for j in range(k + 1)]
        for k in range(cfg.n_max + 1)
    ]
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            moments = _sum_moment_rows(dist, lam, cfg.n_max, cfg.n_max)
            for n in range(cfg.n_max + 1):
                bell = prob_bell_poly(dist, n, lam)
                for k, (nums, den) in enumerate(moments):
                    lhs = nums[n], den
                    rhs = sum(map(mul, weights[k], bell.nums)), bell.den
                    yield lhs, rhs, {"dist": dist, "lambda": lam, "n": n, "k": k}


def _difference_weights(k: int) -> list[int]:
    # the signed weights C(k, j)(-1)^(k-j), j = 0..k, of a k-th finite difference
    return [binomial(k, j) * (-1) ** (k - j) for j in range(k + 1)]


def _stirling2_by_difference(moments, weights: list[int]) -> tuple[int, int]:
    # The defining alternating sum: k-th finite difference of
    # j -> E[(S_j)_{n,lam}] at 0, divided by k!, with weights =
    # _difference_weights(k). moments = (terms, den) holds those sum moments
    # for j = 0..k (at least) as integer numerators over one denominator; the
    # result is a (num, den) pair.
    terms, den = moments
    total = sum(w * term for w, term in zip(weights, terms) if term)
    return total, den * factorial(len(weights) - 1)


def _eq20_gf(cfg):
    # (E[e_lam^Y(t)] - 1)^k / k! generates the finite differences of the
    # sum moments; those are read once per (dist, lam), one row per j, and
    # put over the lcm of the rows' denominators, one column per n
    facts = _factorials(cfg.series_order)
    weights = [_difference_weights(k) for k in range(cfg.n_max + 1)]
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            base = mgf_degenerate_series(dist, lam, cfg.series_order) - 1
            moments = _sum_moment_rows(dist, lam, cfg.n_max, cfg.series_order)
            common = math.lcm(*(den for _, den in moments))
            scales = [(nums, common // den) for nums, den in moments]
            rows = [
                ([nums[n] * scale for nums, scale in scales], common)
                for n in range(cfg.series_order + 1)
            ]
            power = TruncatedSeries.one(cfg.series_order)
            for k in range(cfg.n_max + 1):
                kfact = factorial(k)
                for n, row in enumerate(rows):
                    yield (
                        (power.nums[n] * facts[n], power.den * kfact),
                        _stirling2_by_difference(row, weights[k]),
                        {"dist": dist, "lambda": lam, "k": k, "n": n},
                    )
                power = power * base


def _eq22_gf(cfg):
    # exp(x0 (E[e_lam^Y(t)] - 1)) against the Bell polynomials
    facts = _factorials(cfg.series_order)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            base = mgf_degenerate_series(dist, lam, cfg.series_order) - 1
            bells = [prob_bell_poly(dist, n, lam) for n in range(cfg.series_order + 1)]
            for x0 in cfg.x_points:
                s = (base * x0).exp()
                for n, bell in enumerate(bells):
                    yield (
                        (s.nums[n] * facts[n], s.den),
                        bell.evaluate(x0),
                        {"dist": dist, "lambda": lam, "x": x0, "n": n},
                    )


def _eq23_gf(cfg):
    # 1/(1 - x0 (E[e_lam^Y(t)] - 1)) against the Fubini polynomials
    facts = _factorials(cfg.series_order)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            fubs = [prob_fubini_poly(dist, n, lam) for n in range(cfg.series_order + 1)]
            base = mgf_degenerate_series(dist, lam, cfg.series_order) - 1
            for x0 in cfg.x_points:
                s = _fubini_base_series(base, x0)
                for n, fub in enumerate(fubs):
                    yield (
                        (s.nums[n] * facts[n], s.den),
                        fub.evaluate(x0),
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


def _geometric_expansion_rows(cfg, dist, lam, comb, moments):
    # Coefficients of F^Y_{n,lam}(u/(1-u))/(1-u) in powers of u, vs sum
    # moments (the _sum_moment_rows of i = 0..len(comb) - 1); the sums over k
    # run on the polynomial's integer numerators over its denominator.
    for n in range(cfg.n_max + 1):
        fub = prob_fubini_poly(dist, n, lam)
        for i, row in enumerate(comb):
            lhs = sum(map(mul, fub.nums, row[: i + 1])), fub.den
            nums, den = moments[i]
            yield lhs, (nums[n], den), {"dist": dist, "lambda": lam, "n": n, "i": i}


def _thm2_2(cfg):
    # Geometric moment series; exactly the substitution image u = x/(1+x)
    # of the expansion checked coefficient-wise (the tail is additionally
    # spot-checked numerically via thm2_2_numeric_spotcheck).
    comb = _comb_rows(cfg.coeff_depth)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            moments = _sum_moment_rows(dist, lam, cfg.coeff_depth, cfg.n_max)
            yield from _geometric_expansion_rows(cfg, dist, lam, comb, moments)


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
    integrals = [
        gamma_weight_integral(Polynomial.monomial(k), 1) for k in range(cfg.n_max + 1)
    ]
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for n in range(cfg.n_max + 1):
                bell = prob_bell_poly(dist, n, lam)
                fub = prob_fubini_poly(dist, n, lam)
                for k in range(n + 1):
                    g = integrals[k]
                    yield (
                        (_numerator(bell, k) * g.numerator, bell.den * g.denominator),
                        (_numerator(fub, k), fub.den),
                        {"dist": dist, "lambda": lam, "n": n, "k": k},
                    )


def _thm2_5(cfg):
    # Value at 1 as a k!-weighted sum of partial Bell polynomials, on their
    # numerators over one denominator
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            moments = [
                degenerate_moment(dist, i, lam) for i in range(1, cfg.n_max + 2)
            ]
            for n in range(cfg.n_max + 1):
                bells, den = scaled(
                    [
                        partial_bell(n, k, moments[: max(n - k + 1, 0)])
                        for k in range(n + 1)
                    ]
                )
                rhs = sum(factorial(k) * b for k, b in enumerate(bells))
                yield (
                    prob_fubini_poly(dist, n, lam).evaluate(1),
                    (rhs, den),
                    {"dist": dist, "lambda": lam, "n": n},
                )


def _thm2_6(cfg):
    # Order-r explicit formula against the r-th power of the base series
    facts = _factorials(cfg.series_order)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            # the polynomials do not depend on x0: build them once per (dist, lam)
            ords = [
                [
                    prob_fubini_poly_order(dist, n, r, lam)
                    for n in range(cfg.series_order + 1)
                ]
                for r in range(1, cfg.r_max + 1)
            ]
            mgf_base = mgf_degenerate_series(dist, lam, cfg.series_order) - 1
            for x0 in cfg.x_points:
                base = _fubini_base_series(mgf_base, x0)
                power = base
                for r in range(1, cfg.r_max + 1):
                    for n, fub in enumerate(ords[r - 1]):
                        yield (
                            (power.nums[n] * facts[n], power.den),
                            fub.evaluate(x0),
                            {"dist": dist, "lambda": lam, "x": x0, "r": r, "n": n},
                        )
                    power = power * base


def _thm2_7(cfg):
    # First-order recurrence through moment-weighted binomial convolution
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            fubs = [prob_fubini_poly(dist, n, lam) for n in range(cfg.n_max + 1)]
            moments = [degenerate_moment(dist, k, lam) for k in range(cfg.n_max + 1)]
            for n in range(1, cfg.n_max + 1):
                rhs = _x_times_sum(
                    _term(fubs[n - k], moments[k], binomial(n, k))
                    for k in range(1, n + 1)
                )
                yield fubs[n], rhs, {"dist": dist, "lambda": lam, "n": n}


def _thm2_8(cfg):
    # Quadratic recurrence: products of two lower Fubini polynomials
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            fubs = [prob_fubini_poly(dist, n, lam) for n in range(cfg.n_max + 1)]
            moments = [degenerate_moment(dist, k, lam) for k in range(cfg.n_max + 1)]
            conv = [
                _sum(
                    _product(fubs[i], fubs[k - i], binomial(k, i))
                    for i in range(k + 1)
                )
                for k in range(cfg.n_max)
            ]
            for n in range(cfg.n_max):
                rhs = _x_times_sum(
                    _term(conv[k], moments[n - k + 1], binomial(n, k))
                    for k in range(n + 1)
                )
                yield fubs[n + 1], rhs, {"dist": dist, "lambda": lam, "n": n}


def _thm2_9_printed(cfg):
    # Derivative identity as usually stated: r-fold sum moments as weights.
    # n starts at 1; at n = 0 the form already fails trivially (0 vs r!).
    top = min(8, cfg.n_max)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for r in range(1, cfg.r_max + 1):
                rfact = factorial(r)
                ords = [
                    prob_fubini_poly_order(dist, i, r + 1, lam) for i in range(top + 1)
                ]
                row = sum_degenerate_row(dist, r, top, lam)
                moments, den = row.nums, row.den
                for n in range(1, top + 1):
                    lhs = prob_fubini_poly(dist, n, lam).derivative(r)
                    rhs = _sum(
                        _term(ords[i], (moments[n - i], den), binomial(n, i) * rfact)
                        for i in range(n + 1)
                    )
                    yield lhs, rhs, {
                        "dist": dist,
                        "lambda": lam,
                        "n": n,
                        "r": r,
                    }


def _thm2_9_corrected(cfg):
    # Repaired derivative identity: (r!)^2 weights by the column numbers
    top = min(8, cfg.n_max)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for r in range(1, cfg.r_max + 1):
                rfact2 = factorial(r) ** 2
                ords = [
                    prob_fubini_poly_order(dist, i, r + 1, lam) for i in range(top + 1)
                ]
                column = [prob_stirling2(dist, m, r, lam) for m in range(top + 1)]
                for n in range(top + 1):
                    lhs = prob_fubini_poly(dist, n, lam).derivative(r)
                    rhs = _sum(
                        _term(ords[i], column[n - i], binomial(n, i) * rfact2)
                        for i in range(n + 1)
                    )
                    yield lhs, rhs, {
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
    classical = [classical_fubini_poly(i) for i in range(cfg.n_max + 1)]
    for dist in _poissons(cfg):
        apows = [dist.alpha**i for i in range(cfg.n_max + 1)]
        for lam in cfg.lambdas:
            for n in range(cfg.n_max + 1):
                rhs = _sum(
                    _term(classical[i], stirling2_degenerate(n, i, lam) * apows[i])
                    for i in range(n + 1)
                )
                yield (
                    prob_fubini_poly(dist, n, lam),
                    rhs,
                    {"dist": dist, "lambda": lam, "n": n},
                )


def _thm2_12(cfg):
    # Poisson sum moments are the classical Bell polynomials at k*alpha,
    # and the geometric expansion then reduces to the THM2_10 rows.
    comb = _comb_rows(cfg.coeff_depth)
    for dist in _poissons(cfg):
        for lam in cfg.lambdas:
            moments = _sum_moment_rows(dist, lam, cfg.coeff_depth, cfg.n_max)
            for n in range(cfg.n_max + 1):
                bell = degenerate_bell_poly(n, lam)
                for k, (nums, den) in enumerate(moments):
                    yield (
                        bell.evaluate(k * dist.alpha),
                        (nums[n], den),
                        {"dist": dist, "lambda": lam, "n": n, "k": k},
                    )
            yield from _geometric_expansion_rows(cfg, dist, lam, comb, moments)


def _thm2_13(cfg):
    # Order-(r+1) geometric expansion: the inner sums run on the polynomial's
    # integer numerators over its denominator. The sum moments do not depend
    # on r: they are read once per (dist, lam), one row per i.
    depth = cfg.coeff_depth
    comb = _comb_rows(depth + cfg.r_max)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            moments = _sum_moment_rows(dist, lam, depth, cfg.n_max)
            for r in range(1, cfg.r_max + 1):
                for n in range(cfg.n_max + 1):
                    w = prob_fubini_poly_order(dist, n, r + 1, lam)
                    for i, (nums, den) in enumerate(moments):
                        row = comb[i + r]
                        lhs = sum(map(mul, w.nums, row[i::-1])), w.den
                        rhs = row[i] * nums[n], den
                        yield lhs, rhs, {
                            "dist": dist,
                            "lambda": lam,
                            "r": r,
                            "n": n,
                            "i": i,
                        }


def _thm2_14(cfg):
    # Gamma-weight integral of order r recovers the order-r polynomial
    integrals = {
        r: [
            gamma_weight_integral(Polynomial.monomial(k), r)
            for k in range(cfg.n_max + 1)
        ]
        for r in range(1, cfg.r_max + 1)
    }
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for r in range(1, cfg.r_max + 1):
                rweight = factorial(r - 1)
                for n in range(cfg.n_max + 1):
                    bell = prob_bell_poly(dist, n, lam)
                    fub_r = prob_fubini_poly_order(dist, n, r, lam)
                    for k in range(n + 1):
                        g = integrals[r][k]
                        lhs = (
                            _numerator(bell, k) * g.numerator,
                            bell.den * g.denominator * rweight,
                        )
                        yield (
                            lhs,
                            (_numerator(fub_r, k), fub_r.den),
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
            drivers = [
                _sum(
                    _term(fubs[k - j], shifted[j], binomial(k, j))
                    for j in range(k + 1)
                )
                for k in range(cfg.n_max)
            ]
            for r in range(1, cfg.r_max + 1):
                ords = [
                    prob_fubini_poly_order(dist, m, r, lam)
                    for m in range(cfg.n_max + 1)
                ]
                for n in range(cfg.n_max):
                    rhs = _x_times_sum(
                        _product(ords[n - k], drivers[k], binomial(n, k) * r)
                        for k in range(n + 1)
                        if drivers[k]
                    )
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
    # Fubini polynomial at x: the same comparison as EQ23_GF. run_suite runs
    # the shared checker once and reports its result under both identities.
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
    # against the sum moments, is coefficient for coefficient THM2_2's check;
    # run_suite reuses THM2_2's result, as for THM2_1 above.
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
    """Run the whole catalog (or a selection) in declaration order.

    Each distinct checker runs once. An identity that shares its checker with
    one already run gets that run's case count and counterexample under its
    own name, as check_identity would report them.
    """
    if identities is None:
        selected = list(IdentityId)
    else:
        selected = [resolve_identity(i) for i in identities]
    done: dict = {}
    reports = []
    for identity in selected:
        checker = _CHECKERS[identity]
        if checker in done:
            first = done[checker]
            reports.append(_report(identity, first.cases, first.counterexample))
        else:
            done[checker] = check_identity(identity, cfg)
            reports.append(done[checker])
    return reports


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
    top = min(4, cfg.n_max)
    for dist in cfg.dists:
        for lam in lams:
            # int / int is correctly rounded, so each float is the one that
            # float(Fraction(num, den)) gives
            rows = _sum_moment_rows(dist, lam, terms, top)
            for n in range(top + 1):
                fub = prob_fubini_poly(dist, n, lam)
                moments = [nums[n] / den for nums, den in rows]
                for x0 in points:
                    u = x0 / (1 + x0)
                    uf = float(u)
                    exact = float(fub.evaluate(x0))
                    acc = 0.0
                    upow = 1.0
                    for m in moments:
                        acc += upow * m
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
