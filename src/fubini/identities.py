"""Machine verification of the identity catalog.

Every checker compares exact values; a ``pass`` means exact equality held in
every grid case, never approximate agreement. A checker yields
(lhs, rhs, params) cases, or blocks of scalar cases. A ``Polynomial`` side is
compared with ``==`` on its canonical stored form. A scalar side is an int, a
Fraction, or a pair (num, den) with den != 0, not necessarily in lowest
terms: checkers build pairs straight from the integer numerators that
polynomials, series and triangle rows store, and take an int or Fraction as
it is where a public accessor returns it ready-made.

A block (lhs, rhs, params, key) is the run of scalar cases j = 0, 1, ...
along the index named key; params holds the others. Each side is (nums,
dens): a list of numerators over one den or over a list of dens. ``_drive``
cross-multiplies each side by the other's dens in one list and compares the
lists; only when they differ does it walk to the first mismatch j, reported
as case by case: counted, with params plus key = j, both sides in lowest
terms. A scalar (lhs, rhs, params) case is a block of one. Fractions are
built only for a counterexample. (Under ``hooks.perturb`` numerators and dens
may be Fractions; the comparison stays exact.)

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

The float spot-check of THM2_2 sums E[(S_i)_{n,lam}] u^i over i <= 140. It
reads the rows i <= n only: the moment is a polynomial of degree <= n in i,
so summing its differences extends those rows exactly.

Seven catalog entries are checked as one order slice of an order-r checker:
EQ11 is EQ14 at r = 0; THM2_2 and THM2_10 are THM2_13 at r = 0, whose rows
THM2_12 reads too; EQ10_GF is EQ12_GF at r = 1; EQ23_GF and THM2_1 are
THM2_6 at r = 1; THM2_4 is THM2_14 at r = 1; THM2_8 is THM2_15 at r = 1.
Each runs its order-r checker at that one r and drops r from the params, so
its cases, params and counterexamples are those of the lower-order statement.
EQ14 (so EQ11) compares through THM2_13's block, with F^{(r+1)}_{n,lam} and
(i)_{n,lam} where THM2_13 has F^{(r+1),Y}_{n,lam} and E[(S_i)_{n,lam}].
"""

from __future__ import annotations

import math
import random
from enum import Enum
from fractions import Fraction
from operator import mul

from .combinat import (
    binomial,
    factorial,
    falling_factorial_poly,
    lah,
    partial_bell,
    partial_bell_numerator,
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
from .record import Record
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

# The relative error that thm2_2_numeric_spotcheck allows a float partial sum.
_SPOTCHECK_REL_TOL = 1e-9


class CheckConfig(Record):
    """Grid over which every checker runs; immutable, validated when built.

    coeff_depth bounds the power-series expansions of the closed geometric
    forms; it deliberately exceeds n_max so indices beyond the k <= n regime
    (where the column numbers vanish by definition) are exercised too.
    """

    _fields = ("lambdas", "n_max", "r_max", "dists", "x_points", "series_order", "coeff_depth")

    def __init__(
        self,
        lambdas: tuple[Fraction, ...],
        n_max: int,
        r_max: int,
        dists: tuple[Distribution, ...],
        x_points: tuple[Fraction, ...],
        series_order: int,
        coeff_depth: int,
    ):
        lambdas = tuple(as_rational(v) for v in lambdas)
        dists = tuple(dists)
        x_points = tuple(as_rational(v) for v in x_points)
        if not lambdas:
            raise ValueError("lambda grid must be nonempty")
        if not dists:
            raise ValueError("distribution list must be nonempty")
        if not all(isinstance(d, Distribution) for d in dists):
            raise ValueError("dists must be Distribution instances")
        if not x_points:
            raise ValueError("x-point list must be nonempty")
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        if r_max < 1:
            raise ValueError("r_max must be >= 1")
        if series_order < 1:
            raise ValueError("series_order must be >= 1")
        if coeff_depth < 1:
            raise ValueError("coeff_depth must be >= 1")
        self._init(lambdas, n_max, r_max, dists, x_points, series_order, coeff_depth)


def default_config(n_max: int = 10) -> CheckConfig:
    """The default grid at n_max, with series_order and coeff_depth scaled to it."""
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
        n_max=n_max,
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
        series_order=n_max + 2,
        coeff_depth=2 * n_max + 6,
    )


class Counterexample(Record):
    _fields = ("params", "lhs", "rhs")

    def __init__(self, params: dict[str, str], lhs: str, rhs: str):
        self._init(params, lhs, rhs)

    def to_dict(self) -> dict:
        return {"params": dict(self.params), "lhs": self.lhs, "rhs": self.rhs}


class CheckReport(Record):
    # status is "pass", "fail" or "known-discrepancy"
    _fields = ("identity", "status", "cases", "counterexample")

    def __init__(
        self,
        identity: IdentityId,
        status: str,
        cases: int,
        counterexample: Counterexample | None = None,
    ):
        self._init(identity, status, cases, counterexample)

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


def _counterexample(params: dict, lhs, rhs) -> Counterexample:
    return Counterexample(
        params={k: _fmt(v) for k, v in params.items()}, lhs=_fmt(lhs), rhs=_fmt(rhs)
    )


def _cross(nums: list, dens) -> list:
    # nums[j] * dens[j] for a list of dens, nums[j] * dens for one den
    if type(dens) is list:
        return list(map(mul, nums, dens))
    return [num * dens for num in nums]


def _drive(identity: IdentityId, cases) -> CheckReport:
    count = 0
    for case in cases:
        if len(case) == 3:
            lhs, rhs, params = case
            if type(lhs) is Polynomial:
                count += 1
                if lhs != rhs:
                    return _report(identity, count, _counterexample(params, lhs, rhs))
                continue
            # a scalar case is a block of one: (num, den) pairs as given, ints
            # and Fractions split
            ln, ld = lhs if type(lhs) is tuple else (lhs.numerator, lhs.denominator)
            rn, rd = rhs if type(rhs) is tuple else (rhs.numerator, rhs.denominator)
            (lnums, ldens), (rnums, rdens), key = ([ln], ld), ([rn], rd), None
        else:
            (lnums, ldens), (rnums, rdens), params, key = case
        left = _cross(lnums, rdens)
        right = _cross(rnums, ldens)
        if left != right:
            if len(left) != len(right):
                raise ValueError(f"block sides differ in length: {len(left)} != {len(right)}")
            j = next(j for j, (a, b) in enumerate(zip(left, right)) if a != b)
            if key is not None:
                params = {**params, key: j}
            cex = _counterexample(
                params,
                (lnums[j], ldens[j] if type(ldens) is list else ldens),
                (rnums[j], rdens[j] if type(rdens) is list else rdens),
            )
            return _report(identity, count + j + 1, cex)
        count += len(left)
    return _report(identity, count, None)


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


def _padded(p: Polynomial, size: int) -> list:
    # the stored numerators of [x**k] p for k = 0..size-1, over p.den
    return [*p.nums, *[0] * (size - len(p.nums))]


def _split(pairs) -> tuple[list, list]:
    # (num, den) pairs as one block side: their nums and their dens
    return [num for num, _ in pairs], [den for _, den in pairs]


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


def _egf_cases(s: TruncatedSeries, polys, x0, facts: list[int], params: dict):
    # EGF coefficient n of the series s against polys[n] at x0: one block over
    # n = 0, 1, ...
    lhs = [s.nums[n] * facts[n] for n in range(len(polys))]
    rhs = _split([poly.evaluate_ratio(x0) for poly in polys])
    yield (lhs, s.den), rhs, params, "n"


def _fubini_egf_cases(base: TruncatedSeries, ords, x0, facts: list[int], params: dict):
    # 1 / (1 - x0 base)^r against ords[r - 1] for r = 1..len(ords), where the
    # caller builds base = E[e_lam^Y(t)] - 1 once per (dist, lam); the powers
    # stop at the last r
    power = reciprocal = (1 - base * x0).reciprocal()
    for r, polys in enumerate(ords, 1):
        if r > 1:
            power = power * reciprocal
        yield from _egf_cases(power, polys, x0, facts, {**params, "r": r})


def _order_slice(checker, r: int):
    # The cases of an order-r checker at the one order r, without their "r"
    # param: the lower-order identity's cases, params and order. Seven entries
    # run as slices; THM2_8 is THM2_15 at r = 1. Each order-r checker takes the
    # orders to run as rs, by default 1..r_max; EQ12_GF, THM2_6, THM2_14 and
    # THM2_15 run the orders 1..R only, so they are sliced at r = 1.
    def cases(cfg):
        for case in checker(cfg, (r,)):
            del case[2]["r"]  # the params of a case and of a block alike
            yield case

    return cases


def _members(cfg, family, defaults: tuple) -> tuple:
    # the grid's members of a family, or its defaults when it has none
    return tuple(d for d in cfg.dists if isinstance(d, family)) or defaults


def _sum_moment_columns(dist, lam, k_max: int, n_max: int) -> tuple[list, list]:
    # E[(S_k)_{n,lam}] for k = 0..k_max and n = 0..n_max as (columns, dens):
    # the value is columns[n][k] / dens[k]. Each row's (nums, den) is read at
    # once, so a later rescaling of the stored row does not split it.
    rows = [sum_degenerate_row(dist, k, n_max, lam) for k in range(k_max + 1)]
    pairs = [(row.nums, row.den) for row in rows]
    return [[nums[n] for nums, _ in pairs] for n in range(n_max + 1)], [den for _, den in pairs]


# --- checkers; each yields (lhs, rhs, params) and stops at the driver ---


def _eq6(cfg):
    # (x)_{n,lam} = sum_k {n brace k}_lam (x)_k at every integer x in 0..n;
    # the sum over k runs on the row's numerators over one denominator
    for lam in cfg.lambdas:
        for n in range(cfg.n_max + 1):
            ff = falling_factorial_poly(n, lam)
            row = stirling2_degenerate_row(n, lam)
            rhs = [
                sum(c * _classical_falling(x, k) for k, c in enumerate(row.nums))
                for x in range(n + 1)
            ]
            lhs = _split([ff.evaluate_ratio(x) for x in range(n + 1)])
            yield lhs, (rhs, row.den), {"lambda": lam, "n": n}, "x"


def _eq12_gf(cfg, rs=None):
    # Order-r generating function: the r-th power of 1 / (1 - x0 (e_lam(t) - 1))
    facts = _factorials(cfg.series_order)
    for lam in cfg.lambdas:
        base = degenerate_exp_series(1, lam, cfg.series_order) - 1
        ords = [
            [degenerate_fubini_poly_order(n, r, lam) for n in range(cfg.series_order + 1)]
            for r in rs or range(1, cfg.r_max + 1)
        ]
        for x0 in cfg.x_points:
            yield from _fubini_egf_cases(base, ords, x0, facts, {"lambda": lam, "x": x0})


def _eq14(cfg, rs=None):
    # The coefficients of u^k in F^{(r+1)}_{n,lam}(u/(1-u))/(1-u)^(r+1)
    # against C(k+r, k) (k)_{n,lam}, through THM2_13's block, one block over
    # k; r = 0 is EQ11, the coefficients of F_{n,lam}(x/(1-x))/(1-x)
    rs = rs or range(1, cfg.r_max + 1)
    size = 2 * cfg.n_max + 7
    comb = _comb_rows(size - 1 + max(rs))
    rows = {r: _geometric_weights(comb, r, size) for r in rs}
    for lam in cfg.lambdas:
        for n in range(cfg.n_max + 1):
            ff = falling_factorial_poly(n, lam)
            values = _split([ff.evaluate_ratio(k) for k in range(2 * n + 7)])
            for r in rs:
                w = degenerate_fubini_poly_order(n, r + 1, lam)
                lhs, rhs = _geometric_block(w, rows[r][: 2 * n + 7], values)
                yield lhs, rhs, {"lambda": lam, "n": n, "r": r}, "k"


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
            # the powers stop at the last k
            if k:
                power = power * series
            kfact = factorial(k)
            for n in range(k, cfg.n_max + 1):
                lhs = power.nums[n] * facts[n], power.den * kfact
                rhs = partial_bell(n, k, xs[: max(n - k + 1, 0)])
                yield lhs, rhs, {"draw": draw, "k": k, "n": n}


def _eq19_inv(cfg):
    # Binomial-inversion roundtrip from the column numbers back to sum
    # moments; the sums over j run on the triangle row's integer numerators.
    weights = [
        [binomial(k, j) * factorial(j) for j in range(k + 1)]
        for k in range(cfg.n_max + 1)
    ]
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            columns, dens = _sum_moment_columns(dist, lam, cfg.n_max, cfg.n_max)
            for n, column in enumerate(columns):
                bell = prob_bell_poly(dist, n, lam)
                rhs = [sum(map(mul, row, bell.nums)) for row in weights]
                yield (column, dens), (rhs, bell.den), {"dist": dist, "lambda": lam, "n": n}, "k"


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
            columns, dens = _sum_moment_columns(dist, lam, cfg.n_max, cfg.series_order)
            common = math.lcm(*dens)
            scales = [common // den for den in dens]
            rows = [(list(map(mul, column, scales)), common) for column in columns]
            power = TruncatedSeries.one(cfg.series_order)
            for k in range(cfg.n_max + 1):
                # the powers stop at the last k
                if k:
                    power = power * base
                lhs = [power.nums[n] * facts[n] for n in range(len(rows))]
                rhs = _split([_stirling2_by_difference(row, weights[k]) for row in rows])
                params = {"dist": dist, "lambda": lam, "k": k}
                yield (lhs, power.den * factorial(k)), rhs, params, "n"


def _eq22_gf(cfg):
    # exp(x0 (E[e_lam^Y(t)] - 1)) against the Bell polynomials
    facts = _factorials(cfg.series_order)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            base = mgf_degenerate_series(dist, lam, cfg.series_order) - 1
            bells = [prob_bell_poly(dist, n, lam) for n in range(cfg.series_order + 1)]
            for x0 in cfg.x_points:
                params = {"dist": dist, "lambda": lam, "x": x0}
                yield from _egf_cases((base * x0).exp(), bells, x0, facts, params)


def _partial_bells(cfg):
    # (dist, lam, n, nums, dens) over the grid: B_{n,k} = nums[k] / dens[k],
    # k = 0..n, the partial Bell polynomials of the degenerate moments
    # E[(Y)_{i,lam}], i = 1..n-k+1. The moments are scaled once per (dist,
    # lam) to integer numerators over one den; every term of B_{n,k} has
    # degree k in them, so the sum over partitions runs on the numerators and
    # dens[k] = den**k.
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            moments, den = scaled(
                [degenerate_moment(dist, i, lam) for i in range(1, cfg.n_max + 2)]
            )
            powers = [den**k for k in range(cfg.n_max + 1)]
            for n in range(cfg.n_max + 1):
                nums = [partial_bell_numerator(n, k, moments) for k in range(n + 1)]
                yield dist, lam, n, nums, powers[: n + 1]


def _eq29_bell(cfg):
    # Column numbers, read from the kernel's row as the numerators of the
    # Bell polynomial, as partial Bell polynomials of the degenerate moments:
    # one block over k
    for dist, lam, n, nums, dens in _partial_bells(cfg):
        row = prob_bell_poly(dist, n, lam)
        params = {"dist": dist, "lambda": lam, "n": n}
        yield (_padded(row, n + 1), row.den), (nums, dens), params, "k"


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


def _thm2_5(cfg):
    # Value at 1 as a k!-weighted sum of partial Bell polynomials, on their
    # numerators over dens[n] = den**n
    for dist, lam, n, nums, dens in _partial_bells(cfg):
        rhs = sum(factorial(k) * b * dens[n - k] for k, b in enumerate(nums))
        params = {"dist": dist, "lambda": lam, "n": n}
        yield prob_fubini_poly(dist, n, lam).evaluate_ratio(1), (rhs, dens[n]), params


def _thm2_6(cfg, rs=None):
    # Order-r explicit formula against 1 / (1 - x0 (E[e_lam^Y(t)] - 1))^r
    facts = _factorials(cfg.series_order)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            # the polynomials do not depend on x0: build them once per (dist, lam)
            ords = [
                [
                    prob_fubini_poly_order(dist, n, r, lam)
                    for n in range(cfg.series_order + 1)
                ]
                for r in rs or range(1, cfg.r_max + 1)
            ]
            base = mgf_degenerate_series(dist, lam, cfg.series_order) - 1
            for x0 in cfg.x_points:
                params = {"dist": dist, "lambda": lam, "x": x0}
                yield from _fubini_egf_cases(base, ords, x0, facts, params)


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


def _thm2_9(cfg, weights, first_n: int):
    # Derivative identity: d^r/dx^r F^Y_{n,lam} against the sum over i of
    # C(n, i) f w_{n-i} F^{(r+1),Y}_{i,lam}, for n from first_n, where
    # weights(dist, lam, r, top) gives the column w_0..w_top and the int f
    top = cfg.n_max
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for r in range(1, cfg.r_max + 1):
                ords = [
                    prob_fubini_poly_order(dist, i, r + 1, lam) for i in range(top + 1)
                ]
                column, factor = weights(dist, lam, r, top)
                for n in range(first_n, top + 1):
                    lhs = prob_fubini_poly(dist, n, lam).derivative(r)
                    rhs = _sum(
                        _term(ords[i], column[n - i], binomial(n, i) * factor)
                        for i in range(n + 1)
                    )
                    yield lhs, rhs, {"dist": dist, "lambda": lam, "n": n, "r": r}


def _sum_moment_weights(dist, lam, r: int, top: int):
    # THM2_9_PRINTED, the form as usually stated: the r-fold sum moments
    # E[(S_r)_{m,lam}] times r!. Its n starts at 1; at n = 0 it already fails
    # trivially (0 vs r!).
    row = sum_degenerate_row(dist, r, top, lam)
    return [(num, row.den) for num in row.nums[: top + 1]], factorial(r)


def _stirling_weights(dist, lam, r: int, top: int):
    # THM2_9_CORRECTED, the repaired form: the column numbers times (r!)^2
    return [prob_stirling2(dist, m, r, lam) for m in range(top + 1)], factorial(r) ** 2


def _thm2_11(cfg):
    # Poisson: Fubini polynomial as a Bell-number mixture of classical ones
    classical = [classical_fubini_poly(i) for i in range(cfg.n_max + 1)]
    for dist in _members(cfg, Poisson, (Poisson(Fraction(3, 2)),)):
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
    for dist in _members(cfg, Poisson, (Poisson(Fraction(3, 2)),)):
        for lam in cfg.lambdas:
            moments = _sum_moment_columns(dist, lam, cfg.coeff_depth, cfg.n_max)
            for n, column in enumerate(moments[0]):
                bell = degenerate_bell_poly(n, lam)
                lhs = _split([bell.evaluate_ratio(k * dist.alpha) for k in range(len(column))])
                yield lhs, (column, moments[1]), {"dist": dist, "lambda": lam, "n": n}, "k"
            params = {"dist": dist, "lambda": lam}
            yield from _geometric_rows(dist, lam, 0, comb, moments, params)


def _geometric_weights(comb, r: int, size: int) -> list[list[int]]:
    # the rows C(i+r, i-l), l = 0..i, for i < size; entry 0 is C(i+r, i)
    return [comb[i + r][i::-1] for i in range(size)]


def _geometric_block(w: Polynomial, rows, values) -> tuple:
    # one block over i: [u^i] w(u/(1-u))/(1-u)^(r+1), on w's numerators and the
    # rows of _geometric_weights, against C(i+r, i) times values = (nums, dens)
    nums, dens = values
    lhs = [sum(map(mul, w.nums, row)) for row in rows]
    rhs = [row[0] * v for row, v in zip(rows, nums)]
    return (lhs, w.den), (rhs, dens)


def _geometric_rows(dist, lam, r: int, comb, moments, params: dict):
    # THM2_13 at one (dist, lam, r): F^{(r+1),Y}_{n,lam} against the sum
    # moments (columns, dens), one block per n over rows built once
    columns, dens = moments
    rows = _geometric_weights(comb, r, len(dens))
    for n, column in enumerate(columns):
        w = prob_fubini_poly_order(dist, n, r + 1, lam)
        lhs, rhs = _geometric_block(w, rows, (column, dens))
        yield lhs, rhs, {**params, "n": n}, "i"


def _thm2_13(cfg, rs=None):
    # Order-(r+1) geometric expansion. The sum moments do not depend on r:
    # they are read once per (dist, lam), one row per i.
    rs = rs or range(1, cfg.r_max + 1)
    comb = _comb_rows(cfg.coeff_depth + max(rs))
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            moments = _sum_moment_columns(dist, lam, cfg.coeff_depth, cfg.n_max)
            for r in rs:
                params = {"dist": dist, "lambda": lam, "r": r}
                yield from _geometric_rows(dist, lam, r, comb, moments, params)


def _thm2_14(cfg, rs=None):
    # Gamma-weight integral of order r recovers the order-r polynomial; one
    # block over k. The integrals of x**k over (r-1)! as (nums, dens) per r.
    integrals = {}
    for r in rs or range(1, cfg.r_max + 1):
        values = [gamma_weight_integral(Polynomial.monomial(k), r) for k in range(cfg.n_max + 1)]
        integrals[r] = _split([(g.numerator, g.denominator * factorial(r - 1)) for g in values])
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            for r, (gnums, gdens) in integrals.items():
                for n in range(cfg.n_max + 1):
                    bell = prob_bell_poly(dist, n, lam)
                    fub_r = prob_fubini_poly_order(dist, n, r, lam)
                    lhs = list(map(mul, _padded(bell, n + 1), gnums))
                    dens = [bell.den * den for den in gdens[: n + 1]]
                    params = {"dist": dist, "lambda": lam, "r": r, "n": n}
                    yield (lhs, dens), (_padded(fub_r, n + 1), fub_r.den), params, "k"


def _thm2_15(cfg, rs=None):
    # Order-r recurrence driven by the shifted degenerate moments; r = 1 is THM2_8
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
            for r in rs or range(1, cfg.r_max + 1):
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
                    yield ords[n + 1], rhs, {"dist": dist, "lambda": lam, "r": r, "n": n}


def _thm2_16(cfg):
    # Bernoulli collapse: F^Y_{n,lam}(x) = F_{n,lam}(p x); p = 0 and p = 1
    # are forced boundary cases, first, on top of whatever the config carries.
    boundary = (Bernoulli(Fraction(0)), Bernoulli(Fraction(1)))
    for dist in dict.fromkeys(boundary + _members(cfg, Bernoulli, ())):
        for lam in cfg.lambdas:
            for n in range(cfg.n_max + 1):
                yield (
                    prob_fubini_poly(dist, n, lam),
                    degenerate_fubini_poly(n, lam).scale_argument(dist.p),
                    {"dist": dist, "lambda": lam, "n": n},
                )


# each shared by two identities; see THM2_1 and THM2_10 below
_thm2_6_at_1 = _order_slice(_thm2_6, 1)
_thm2_13_at_0 = _order_slice(_thm2_13, 0)

_CHECKERS = {
    IdentityId.EQ6: _eq6,
    IdentityId.EQ10_GF: _order_slice(_eq12_gf, 1),
    IdentityId.EQ11: _order_slice(_eq14, 0),
    IdentityId.EQ12_GF: _eq12_gf,
    IdentityId.EQ14: _eq14,
    IdentityId.EQ15_GF: _eq15_gf,
    IdentityId.EQ19_INV: _eq19_inv,
    IdentityId.EQ20_GF: _eq20_gf,
    IdentityId.EQ22_GF: _eq22_gf,
    IdentityId.EQ23_GF: _thm2_6_at_1,
    IdentityId.EQ29_BELL: _eq29_bell,
    # THM2_1, the column expansion sum_k {n brace k}_{Y,lam} k! x^k, is the
    # Fubini polynomial at x: the same comparison as EQ23_GF. run_suite runs
    # the shared checker once and reports its result under both identities.
    IdentityId.THM2_1: _thm2_6_at_1,
    # THM2_2, the geometric moment series, is the substitution u = x/(1+x) in
    # the expansion checked here; thm2_2_numeric_spotcheck spot-checks its tail
    IdentityId.THM2_2: _thm2_13_at_0,
    IdentityId.THM2_3: _thm2_3,
    IdentityId.THM2_4: _order_slice(_thm2_14, 1),
    IdentityId.THM2_5: _thm2_5,
    IdentityId.THM2_6: _thm2_6,
    IdentityId.THM2_7: _thm2_7,
    IdentityId.THM2_8: _order_slice(_thm2_15, 1),
    IdentityId.THM2_9_PRINTED: lambda cfg: _thm2_9(cfg, _sum_moment_weights, 1),
    IdentityId.THM2_9_CORRECTED: lambda cfg: _thm2_9(cfg, _stirling_weights, 0),
    # THM2_10, the expansion of F^Y_{n,lam}(u/(1-u))/(1-u) in powers of u
    # against the sum moments, is coefficient for coefficient THM2_2's check;
    # run_suite reuses THM2_2's result, as for THM2_1 above.
    IdentityId.THM2_10: _thm2_13_at_0,
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
    """Run the whole catalog in declaration order, or a selection in its order.

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


def _sum_moment_floats(dist, lam, top: int, terms: int) -> list[list[float]]:
    # E[(S_i)_{n,lam}] for i = 0..terms as floats, one list per n = 0..top.
    # E[e_lam^{S_i}(t)] = (1 + (M - 1))^i with M = E[e_lam^Y(t)] and
    # M - 1 = O(t), so the moment is a polynomial in i of degree <= n: the rows
    # i <= n are read, and summing its differences extends them exactly over
    # one denominator. int / int is correctly rounded, so each float is the
    # one that float(Fraction(num, den)) of the row itself gives.
    columns, dens = _sum_moment_columns(dist, lam, min(top, terms), top)
    floats = []
    for n, column in enumerate(columns):
        common = math.lcm(*dens[: n + 1])
        table = [num * (common // den) for num, den in zip(column[: n + 1], dens)]
        for j in range(1, len(table)):  # table[j] becomes Delta^j at i = 0
            for i in range(len(table) - 1, j - 1, -1):
                table[i] -= table[i - 1]
        values = []
        for _ in range(terms + 1):
            values.append(table[0] / common)
            for j in range(len(table) - 1):  # step every difference to i + 1
                table[j] += table[j + 1]
        floats.append(values)
    return floats


def thm2_2_numeric_spotcheck(cfg: CheckConfig, *, terms: int = 140) -> dict:
    """Float partial sums of the infinite geometric moment series.

    At rational points with |x/(1+x)| <= 1/2 the series converges fast for
    small n; the first `terms` partial sums must agree with the exact
    polynomial value to _SPOTCHECK_REL_TOL. This is the one deliberately
    inexact check in the package; it never feeds a CheckReport.
    """
    points = [Fraction(1, 2), Fraction(1)]
    lams = cfg.lambdas[:3]
    cases = 0
    worst = 0.0
    failures = []
    top = min(4, cfg.n_max)
    for dist in cfg.dists:
        for lam in lams:
            columns = _sum_moment_floats(dist, lam, top, terms)
            for n, moments in enumerate(columns):
                fub = prob_fubini_poly(dist, n, lam)
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
                    if err > _SPOTCHECK_REL_TOL:
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
        "rel_tol": _SPOTCHECK_REL_TOL,
        "terms": terms,
        "failures": failures,
        "ok": not failures,
    }
