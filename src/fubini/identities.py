"""Machine verification of the identity catalog.

Every checker compares exact values; a ``pass`` means exact equality held in
every grid case, never approximate agreement. A checker yields cases of two
shapes: an entry case (lhs, rhs, params, key), each side (nums, den), a list
of numerators over one den; and a packed case (lhs, rhs, params, key, bits,
size), each side one int over one den. Sides are not necessarily in lowest
terms: checkers build them straight from the integer numerators that
polynomials, series and triangle rows store. A side over den 0 has no value:
its case fails at its first entry, and prints as its numerators over 0.

key says what a case stands for. With key None it is one polynomial case:
the numerators of two polynomials, the shorter padded with zeros, counted
once; a mismatch prints both sides as ``Polynomial``s. A named key makes it
a block, the run of scalar cases j = 0, 1, ... along that index, starting
at params[key] when params names it and at 0 otherwise; a scalar case is a
block of one whose params hold its index. ``_compare`` cross-multiplies
each side's numerators by the other's den and compares the lists; only when
a block's lists differ does it walk to its first mismatch j, reported as
case by case: counted, with key at its index, both sides in lowest terms.
Fractions are built only for a counterexample. (Under ``hooks.perturb`` the
numerators and dens may be Fractions; the comparison stays exact.)

A packed side packs its entries by Kronecker substitution at X = 2**bits
(``poly.pack``): the block of cases j < size along key, or with key None
one polynomial case. A side is sum_l v_l M_l, int weights times vectors (or
products of vectors: a product of packs packs the convolution) packed once
per run, dist or (dist, lam, r) (``poly.PackedVectors``); ``poly.pack_bits``
sizes bits from the bit-lengths of v, M, the other side's den and the terms
per digit, so every digit of the cross-multiplied sides is exact. A case
packs at the larger of two such widths, its left side's taken first. The case
passes when digits 0..size-1 of lp * rden - rp * lden vanish; only on a
mismatch are both sides unpacked and compared as an entry case. Blocks:
THM2_13 (so THM2_2, THM2_10), EQ14 (so EQ11), EQ19_INV, EQ20_GF, THM2_12;
polynomial cases: THM2_7, THM2_9_*, THM2_15 (so THM2_8).

THM2_6 (so EQ23_GF, THM2_1) and EQ12_GF (so EQ10_GF) state G_r = (1 - x
B)^-r for G_r = sum_n F^{(r)}_n(x) t^n/n!, B = E[e_lam^Y(t)] - 1 (e_lam(t) -
1 for EQ12_GF), n <= series_order. Each (x, r) is one packed block, (1 - x
B) G_r = G_{r-1} with G_0 = 1, checked for r = 1, 2, ... in turn. G_r is the
triangle's columns {n brace k} top!/n!, packed once per (dist, lam),
weighted by C(k+r-1, k) k! x^k (``combinat.order_weights``), so no run
builds a series reciprocal, power or value of a polynomial. The left width
takes 1 - x B's sum of |numerators| times G_r's weights, the right one its
den, the dens' common factor cancelled; neither grows with r beyond G_r's
own weights. The first failing block at an x reports the statement's own
sides, read from its digits, and ends that x. The blocks before it held,
so G_{r-1} = (1 - x B)^-(r-1). With c0 = 1 - x B(0) (1 unless a fault
shifts E[Y**0]) and D = G_{r-1} - (1 - x B) G_r, which is (1 - x B) times
(1 - x B)^-r - G_r, the power agrees with G_r below D's first nonzero digit
j and has digit G_r[j] + D_j / c0 there. So the block is reported as the
entry block n! (G_r[n] + D_n / c0) against n! G_r[n] = F^{(r)}_n(x), whose
first mismatch is the statement's, at j. When c0 = 0, 1 - x B has no
inverse, and the block reports its own sides. EQ22_GF stays per entry:
packing t G' = x (t B') G, one product per (dist, lam, x), gains little,
as each column pack would serve only three x-points. When x B(0) != 0,
exp(x B) has the irrational constant term e^{x B(0)}, and its block is the
one case n = 0, x B(0) against 0.

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
definition, the k-th finite difference over j of the sum moments
E[(S_j)_{n,lam}], which EQ20_GF takes on Miller's rows E[S_j^m] (grown from
the raw moments by a power recurrence). The identities on them pair:

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

CATALOG, after the checkers, names each identity's checker and the order
slice it takes, if any, and the pairs that are one comparison. A slice takes
its checker's cases at that one r and reports them without r, so its cases,
params and counterexamples are those of the lower-order statement. run_suite
runs each checker once, at the union of the orders of the identities
selected on it, and hands every case to each identity that takes its r
(_tally); each report is the one check_identity gives alone. THM2_12 reads
THM2_13's rows at r = 0. EQ14 (so EQ11) compares through THM2_13's block,
with F^{(r+1)}_{n,lam} and (i)_{n,lam} where THM2_13 has F^{(r+1),Y}_{n,lam}
and E[(S_i)_{n,lam}].

THM2_13's two sides are independent paths. The left side is the order-(r+1)
polynomial from the triangle kernel through the binomial weight columns;
the right side is C(i+r, i) E[(S_i)_{n,lam}] = sum_j [x^j](x)_{n,lam}
C(i+r, i) E[S_i^j], Miller's rows E[S_i^j] (read through ``sum_raw_row``)
packed over i once per (dist, r), since they do not depend on lam, and
contracted against the numerators of (x)_{n,lam} per block; so are the
sum moments of EQ20_GF and THM2_12.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from enum import Enum
from fractions import Fraction
from operator import mul

from .combinat import (
    binomial,
    factorial,
    falling_factorial_poly,
    falling_factorial_polys,
    lah,
    order_weights,
    partial_bell_numerator,
    stirling1,
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
from . import hooks
from .poly import (
    PackedVectors,
    Polynomial,
    gamma_weight_integral,
    pack,
    pack_bits,
    unpack,
    weighted_sum,
)
from .probabilistic import (
    degenerate_moment,
    mgf_degenerate_series,
    prob_bell_polys,
    prob_fubini_poly,
    prob_fubini_polys,
    sum_degenerate_row,
    sum_raw_row,
)
from .rational import as_rational, format_rational, ratio, scaled
from .record import Record
from .series import TruncatedSeries


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
        # a side (num, den), num an entry or a Polynomial; over den 0 it has no
        # value and prints as num/0
        num, den = value
        return _fmt(num * Fraction(1, den)) if den else f"{_fmt(num)}/0"
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


def _holds(case) -> bool:
    # a packed case: both dens nonzero, digits 0..size-1 of lp * rden - rp * lden all 0
    (lp, lden), (rp, rden), _, _, bits, size = case
    return 0 not in (lden, rden) and not (lp * rden - rp * lden) & ((1 << bits * size) - 1)


def _compare(case) -> tuple:
    # (params, key, counted, sides): the cases a run counts through this one,
    # with sides None when they all hold; else those up to the first mismatch
    # j (a polynomial case counts 1), with sides the two sides at j as the
    # counterexample prints them
    if len(case) == 6:
        # packed: digits 0..size-1 of two ints, unpacked only on a mismatch
        (lp, lden), (rp, rden), params, key, bits, size = case
        if _holds(case):
            return params, key, 1 if key is None else size, None
        lnums, rnums = unpack(lp, bits, size), unpack(rp, bits, size)
    else:
        (lnums, lden), (rnums, rden), params, key = case
    valued = 0 not in (lden, rden)  # a side over den 0 has no value: its first case fails
    left, right = [num * rden for num in lnums], [num * lden for num in rnums]
    if key is None:
        # one polynomial case: the shorter side padded with zeros
        pad = len(left) - len(right)
        if valued and left + [0] * -pad == right + [0] * pad:
            return params, key, 1, None
        return params, key, 1, ((Polynomial(lnums), lden), (Polynomial(rnums), rden))
    if valued and left == right:
        return params, key, len(left), None
    if len(left) != len(right):
        raise ValueError(f"block sides differ in length: {len(left)} != {len(right)}")
    j = next(j for j, (a, b) in enumerate(zip(left, right)) if a != b) if valued else 0
    return params, key, j + 1, ((lnums[j], lden), (rnums[j], rden))


def _tally(cases, members: dict) -> list[CheckReport]:
    """The reports of the identities in members over one stream of cases.

    members maps each identity to the cases it takes: None, every case; an
    order r, the cases with param r, reported without it (an order slice);
    a tuple of orders, the cases with r among them. Each case is compared
    once, whoever takes it; each identity counts its cases up to and
    including its own first mismatch, and the stream is read until every
    identity has one or the cases run out.
    """
    orders = list(members.values())
    counts = [0] * len(orders)
    found = [None] * len(orders)
    takers = defaultdict(list)  # r -> the slots of the identities taking it; None: all
    for slot, taken in enumerate(orders):
        for r in (taken,) if taken is None or type(taken) is int else taken:
            takers[r].append(slot)
    by_order = None not in takers
    live = len(orders)
    for case in cases:
        who = takers.get(case[2]["r"]) if by_order else takers[None]
        if not who:
            continue
        params, key, counted, sides = _compare(case)
        for slot in who:
            counts[slot] += counted
        if sides is None:
            continue
        for slot in list(who):
            shown = params
            if type(orders[slot]) is int:
                shown = {k: v for k, v in params.items() if k != "r"}
            if key is not None:
                shown = {**shown, key: params.get(key, 0) + counted - 1}
            found[slot] = _counterexample(shown, *sides)
            for slots in takers.values():
                if slot in slots:
                    slots.remove(slot)
            live -= 1
        if not live:
            break
    return [_report(i, count, cex) for i, count, cex in zip(members, counts, found)]


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


def _fubini_egf_cases(series: TruncatedSeries, rows, rs, x_points, params: dict):
    # EGF coefficient n <= top of 1 / (1 - x0 B)^r against F^{(r)}_n(x0) for
    # each x0 and the orders rs = 1..R, as _run passes them, chained as the
    # module docstring says: series (order top) is B + 1 and rows the triangle
    # rows phi_0..phi_top. With x0 = a/b, top! b^top G_r = sum_k C(k+r-1, k)
    # k! a^k b^(top-k) col_k, col_k = {n brace k} top!/n! over n.
    top = series.order
    facts = _factorials(top)
    columns, den = _columns(rows[: top + 1], top + 1)
    cols = PackedVectors(
        ([c * (facts[top] // facts[n]) for n, c in enumerate(col)] for col in columns),
        den * facts[top],
    )
    for x0 in x_points:
        a, b = ratio(x0)
        # 1 - x0 B = 1 + x0 - x0 (B + 1)
        p1, p1den = [-a * c for c in series.nums], b * series.den
        p1[0] += (a + b) * series.den
        p1sum = sum(map(abs, p1))
        powers, btop = [a**k * b ** (top - k) for k in range(top + 1)], b**top
        # G_{r-1}: weights, their sum of |.|, den, largest |entry|; the packs
        # of G_{r-1} and of 1 - x0 B at pbits
        prev, psum, pden, ptop, pbits, pg = [1], 1, 1, 1, None, 1
        for r in rs:
            weights = order_weights(top + 1, r)
            w, gden = cols.side(list(map(mul, weights.nums, powers)), weights.den * btop)
            wsum = sum(map(abs, w))
            # the dens without their common factor: G_r's equals G_{r-1}'s
            # unless hooks.perturb made a weight a Fraction
            common = math.gcd(gden, pden)
            lden, rden = p1den * (gden // common), pden // common
            bits = max(pack_bits(p1sum * wsum, cols.top, rden), pack_bits(psum, ptop, lden))
            packs = cols.at(bits)
            if bits != pbits:
                p1pack = pack(p1, bits)
                if r > 1:
                    pg = sum(map(mul, prev, packs))
            g = sum(map(mul, w, packs))
            params_r = {**params, "x": x0, "r": r}
            case = (p1pack * g, lden), (pg, rden), params_r, "n", bits, top + 1
            if not _holds(case):
                if p1[0]:
                    # the statement's sides, as the module docstring says:
                    # ds = D lden pden, so D / c0 = ds / (gden rden p1[0])
                    c = p1[0] * rden
                    gs = unpack(g, bits, top + 1)
                    ds = unpack(pg * lden - p1pack * g * rden, bits, top + 1)
                    lhs = [f * (c * v + d) for f, v, d in zip(facts, gs, ds)], gden * c
                    case = lhs, (list(map(mul, facts, gs)), gden), params_r, "n"
                yield case
                break
            yield case
            prev, psum, pden, ptop, pbits, pg = w, wsum, gden, cols.top, bits, g


def _orders(cfg, rs) -> list[int]:
    # the orders an order-r checker runs: rs, by default 1..r_max
    return rs or list(range(1, cfg.r_max + 1))


def _members(cfg, family, defaults: tuple) -> tuple:
    # the grid's members of a family, or its defaults when it has none
    return tuple(d for d in cfg.dists if isinstance(d, family)) or defaults


def _on_one_den(pairs, size: int | None = None) -> tuple[list[list], int]:
    # (nums, den) pairs, each nums cut to size as it is read, as lists over
    # the lcm of their dens (0, the numerators as they are, if one den is 0); a
    # ScaledRow or Polynomial gives (row.nums, row.den), read at once
    pairs = [(nums[:size], den) for nums, den in pairs]
    common = math.lcm(*(den for _, den in pairs))
    return [[c * (common // den if common else 1) for c in nums] for nums, den in pairs], common


def _bell_side(bells: list, den) -> tuple[list, int]:
    # partial Bell numerators over den; one with no value (None) puts the side
    # over den 0, with 0 in its place
    return ([0 if c is None else c for c in bells], 0) if None in bells else (bells, den)


def _columns(rows, size: int) -> tuple[list, int]:
    # _on_one_den of ScaledRows or Polynomials as (columns, den): column j <
    # size over the rows, zero-padded
    rows, den = _on_one_den(((row.nums, row.den) for row in rows), size)
    return list(zip(*(row + [0] * (size - len(row)) for row in rows))), den


def _fubini_rows(dist, top: int, r: int, lam) -> PackedVectors:
    # the order-r F^Y_{n,lam}, n <= top, as one table
    polys = prob_fubini_polys(dist, top, r, lam)[: top + 1]
    return PackedVectors(*_on_one_den((p.nums, p.den) for p in polys))


def _raw_sum_columns(dist, size: int, degree: int) -> tuple[list, int]:
    # E[S_i**j] for i < size and j = 0..degree as (columns, den): column j
    # runs over i, all over one den; Miller's rows, read through sum_raw_row
    return _columns((sum_raw_row(dist, i, degree) for i in range(size)), degree + 1)


def _packed_block(left, right, params: dict, key: str, size: int) -> tuple:
    # One block of the cases j < size along key, each side packed into one
    # int. A side is (weights, packs, den): sum_l weights[l] packs.vectors[l]
    # over den packs.den, for int weights; its vectors may run past size.
    # Both sides pack at the wider of their two widths (poly.pack_bits), so
    # every digit of the cross-multiplied sides is within the exactness
    # bound, and digits 0..size-1 of their difference vanish exactly when
    # every case holds.
    (lw, lpacks, lden), (rw, rpacks, rden) = left, right
    lw, lden = lpacks.side(lw, lden)
    rw, rden = rpacks.side(rw, rden)
    bits = max(
        pack_bits(sum(map(abs, lw)), lpacks.top, rden),
        pack_bits(sum(map(abs, rw)), rpacks.top, lden),
    )
    lhs = sum(map(mul, lw, lpacks.at(bits))), lden
    rhs = sum(map(mul, rw, rpacks.at(bits))), rden
    return lhs, rhs, params, key, bits, size


# --- checkers; each yields entry or packed cases and stops at the driver ---


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
            # at an integer x the value's den is ff.den
            lhs = [ff.evaluate_ratio(x)[0] for x in range(n + 1)], ff.den
            yield lhs, (rhs, row.den), {"lambda": lam, "n": n}, "x"


def _eq12_gf(cfg, rs=None):
    # Order-r generating function: the r-th power of 1 / (1 - x0 (e_lam(t) - 1))
    # against F^{(r)}_{n,lam}, THM2_6's blocks on the degenerate Stirling rows
    rs = _orders(cfg, rs)
    top = cfg.series_order
    for lam in cfg.lambdas:
        series = degenerate_exp_series(1, lam, top)
        rows = [stirling2_degenerate_row(n, lam) for n in range(top + 1)]
        yield from _fubini_egf_cases(series, rows, rs, cfg.x_points, {"lambda": lam})


def _eq14(cfg, rs=None):
    # The coefficients of u^k, k < 2n + 7, in F^{(r+1)}_{n,lam}(u/(1-u))/
    # (1-u)^(r+1) against C(k+r, k) (k)_{n,lam}: THM2_13's block with S_k = k,
    # so (k)_{n,lam} = sum_j [x^j](x)_{n,lam} k^j. r = 0 is EQ11, the
    # coefficients of F_{n,lam}(x/(1-x))/(1-x). The packs run over
    # k < 2 n_max + 7, built once per r; each block compares its first 2n + 7.
    rs = _orders(cfg, rs)
    top = 2 * cfg.n_max + 7
    comb = _comb_rows(top - 1 + max(rs))
    powers = [[k**j for k in range(top)] for j in range(cfg.n_max + 1)], 1
    weights = {r: _geometric_weights(comb, r, top, cfg.n_max) for r in rs}
    sums = {r: _geometric_sums(comb, r, powers) for r in rs}
    for lam in cfg.lambdas:
        for n in range(cfg.n_max + 1):
            ff = falling_factorial_poly(n, lam)
            for r in rs:
                w = degenerate_fubini_poly_order(n, r + 1, lam)
                left, right = (w.nums, weights[r], w.den), (ff.nums, sums[r], ff.den)
                params = {"lambda": lam, "n": n, "r": r}
                yield _packed_block(left, right, params, "k", 2 * n + 7)


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
        nums, d = scaled(xs)
        series = TruncatedSeries.from_egf([Fraction(0)] + xs[:order])
        power = TruncatedSeries.one(order)
        for k in range(min(5, cfg.n_max) + 1):
            # the powers stop at the last k
            if k:
                power = power * series
            # one block over n = k..n_max, each B_{n,k} its numerator over d**k
            lhs = [power.nums[n] * facts[n] for n in range(k, order + 1)], power.den * factorial(k)
            bells = [partial_bell_numerator(n, k, nums) for n in range(k, order + 1)]
            yield lhs, _bell_side(bells, d**k), {"draw": draw, "k": k, "n": k}, "n"


def _eq19_inv(cfg):
    # Binomial-inversion roundtrip from the column numbers back to sum
    # moments, one packed block over k <= n_max: E[(S_k)_{n,lam}] as
    # sum_j [x^j](x)_{n,lam} E[S_k^j], on Miller's rows packed once per dist,
    # against the triangle row's numerators through the columns C(k, j) j!
    # (0 for j > k), packed once per run.
    size = cfg.n_max + 1
    weights = PackedVectors(
        [binomial(k, j) * factorial(j) if j <= k else 0 for k in range(size)]
        for j in range(size)
    )
    for dist in cfg.dists:
        moments = PackedVectors(*_raw_sum_columns(dist, size, cfg.n_max))
        for lam in cfg.lambdas:
            ffs = falling_factorial_polys(cfg.n_max, lam)
            bells = prob_bell_polys(dist, cfg.n_max, lam)
            for n in range(size):
                ff, bell = ffs[n], bells[n]
                params = {"dist": dist, "lambda": lam, "n": n}
                left, right = (ff.nums, moments, ff.den), (bell.nums, weights, bell.den)
                yield _packed_block(left, right, params, "k", size)


def _difference_weights(k: int) -> list[int]:
    # the signed weights C(k, j)(-1)^(k-j), j = 0..k, of a k-th finite difference
    return [binomial(k, j) * (-1) ** (k - j) for j in range(k + 1)]


def _eq20_gf(cfg):
    # (E[e_lam^Y(t)] - 1)^k / k! generates the finite differences of the sum
    # moments: one packed block over n <= series_order. EGF coefficient n of
    # the power is its numerators through the columns n! e_n, packed once per
    # run, against the definition on Miller's rows: the k-th differences over
    # j of E[S_j^m] weight the columns [x^m](x)_{n,lam} over n.
    top = cfg.series_order
    facts = _factorials(top)
    coefficients = PackedVectors(
        [facts[n] if m == n else 0 for m in range(top + 1)] for n in range(top + 1)
    )
    differences = [(*scaled(_difference_weights(k)), factorial(k)) for k in range(cfg.n_max + 1)]
    ffs = [falling_factorial_polys(top, lam)[: top + 1] for lam in cfg.lambdas]
    falling = [PackedVectors(*_columns(rows, top + 1)) for rows in ffs]
    for dist in cfg.dists:
        moments, mden = _raw_sum_columns(dist, cfg.n_max + 1, top)
        steps = [
            (kfact, [sum(map(mul, weights, column)) for column in moments], wden * kfact * mden)
            for weights, wden, kfact in differences
        ]
        for lam, columns in zip(cfg.lambdas, falling):
            base = mgf_degenerate_series(dist, lam, top) - 1
            power = TruncatedSeries.one(top)
            for k, (kfact, step, den) in enumerate(steps):
                # the powers stop at the last k
                if k:
                    power = power * base
                left = power.nums, coefficients, power.den * kfact
                params = {"dist": dist, "lambda": lam, "k": k}
                yield _packed_block(left, (step, columns, den), params, "n", top + 1)


def _eq22_gf(cfg):
    # exp(x0 B), B = E[e_lam^Y(t)] - 1, against the Bell polynomials at x0 =
    # a/b, sum_k [x^k]phi_n a^k b^(top-k) over b^top on their one den: one
    # block over n per x0. When x0 B(0) != 0 (under a fault of E[Y**0]),
    # exp(x0 B) has the irrational constant term e^{x0 B(0)}, so the block is
    # the one case n = 0, x0 B(0) against 0.
    top = cfg.series_order
    facts = _factorials(top)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            base = mgf_degenerate_series(dist, lam, top) - 1
            bells = prob_bell_polys(dist, top, lam)[: top + 1]
            bells, bden = _on_one_den((bell.nums, bell.den) for bell in bells)
            for x0 in cfg.x_points:
                params = {"dist": dist, "lambda": lam, "x": x0}
                xb = base * x0
                if xb.nums[0]:
                    yield ([xb.nums[0]], xb.den), ([0], 1), {**params, "n": 0}, "n"
                    continue
                g = xb.exp()
                lhs = [g.nums[n] * facts[n] for n in range(top + 1)], g.den
                a, b = ratio(x0)
                powers = [a**k * b ** (top - k) for k in range(top + 1)]
                rhs = [sum(map(mul, bell, powers)) for bell in bells], bden * b**top
                yield lhs, rhs, params, "n"


# The partial Bell rows of _partial_bells per (dist, lam numerator, lam
# denominator), grown on demand, read by EQ29_BELL and THM2_5 alike.
_partial_bell_rows: dict[tuple[Distribution, int, int], list] = hooks.memo(defaultdict(list))


def _partial_bells(cfg):
    # (dist, lam, rows) over the grid, where B_{n,k} = nums[k] / den, k = 0..n,
    # for (nums, den) = rows[n], n = 0..n_max: the partial Bell polynomials of
    # the degenerate moments E[(Y)_{i,lam}], i = 1..n-k+1. The moments are
    # scaled once per growth to integer numerators over one d; every term of
    # B_{n,k} has degree k in them, so the sum over partitions, d**k B_{n,k},
    # runs on the numerators, and row n holds it times d**(n-k) over d**n.
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            rows = _partial_bell_rows[dist, lam.numerator, lam.denominator]
            if len(rows) <= cfg.n_max:
                moments, d = scaled(
                    [degenerate_moment(dist, i, lam) for i in range(1, cfg.n_max + 2)]
                )
                for n in range(len(rows), cfg.n_max + 1):
                    sums = [partial_bell_numerator(n, k, moments) for k in range(n + 1)]
                    if None not in sums:
                        sums = [c * d ** (n - k) for k, c in enumerate(sums)]
                    rows.append(_bell_side(sums, d**n))
            yield dist, lam, rows[: cfg.n_max + 1]


def _eq29_bell(cfg):
    # Column numbers, read from the kernel's row as the numerators of the
    # Bell polynomial, as partial Bell polynomials of the degenerate moments:
    # one block over k
    for dist, lam, rows in _partial_bells(cfg):
        bells = prob_bell_polys(dist, cfg.n_max, lam)
        for n, row in enumerate(rows):
            params = {"dist": dist, "lambda": lam, "n": n}
            yield (_padded(bells[n], n + 1), bells[n].den), row, params, "k"


def _thm2_3(cfg):
    # Unit-rate gamma closed form through Lah and first-kind Stirling numbers:
    # the sum over l of lam^(n-l) s(n, l) times the row [L(l, k) k!]_k
    dist = Gamma(Fraction(1), Fraction(1))
    top = cfg.n_max
    lahs = [scaled([lah(l, k) * factorial(k) for k in range(l + 1)]) for l in range(top + 1)]
    for lam in cfg.lambdas:
        fubs = prob_fubini_polys(dist, top, 1, lam)
        powers = [lam**i for i in range(top + 1)]
        for n in range(top + 1):
            rhs = weighted_sum((*lahs[l], powers[n - l] * stirling1(n, l)) for l in range(n + 1))
            yield (fubs[n].nums, fubs[n].den), rhs, {"dist": dist, "lambda": lam, "n": n}, None


def _thm2_5(cfg):
    # Value at 1 as a k!-weighted sum of partial Bell polynomials: one block
    # over n, the polynomials' coefficients and the Bell rows each on one den
    facts = [factorial(k) for k in range(cfg.n_max + 1)]
    for dist, lam, rows in _partial_bells(cfg):
        fubs = prob_fubini_polys(dist, cfg.n_max, 1, lam)[: cfg.n_max + 1]
        fubs, fden = _on_one_den((fub.nums, fub.den) for fub in fubs)
        bells, bden = _on_one_den(rows)
        rhs = [sum(map(mul, facts, nums)) for nums in bells], bden
        yield (list(map(sum, fubs)), fden), rhs, {"dist": dist, "lambda": lam}, "n"


def _thm2_6(cfg, rs=None):
    # Order-r explicit formula against 1 / (1 - x0 (E[e_lam^Y(t)] - 1))^r, on
    # the triangle's columns packed once per (dist, lam)
    rs = _orders(cfg, rs)
    top = cfg.series_order
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            series = mgf_degenerate_series(dist, lam, top)
            rows = prob_bell_polys(dist, top, lam)
            params = {"dist": dist, "lambda": lam}
            yield from _fubini_egf_cases(series, rows, rs, cfg.x_points, params)


def _thm2_7(cfg):
    # First-order recurrence through moment-weighted binomial convolution,
    # F_n = x sum_{k>=1} C(n, k) E[(Y)_{k,lam}] F_{n-k}: a packed polynomial
    # case per n on the rows F_0..top, packed once per (dist, lam)
    top = cfg.n_max
    comb = PackedVectors(_comb_rows(top))
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            fubs = _fubini_rows(dist, top, 1, lam)
            a, aden = scaled([degenerate_moment(dist, k, lam) for k in range(top + 1)])
            # the weights of the rows 0..n-1: k = n..1
            terms = [list(map(mul, c[n:0:-1], a[n:0:-1])) for n, c in enumerate(comb.vectors)]
            rden = fubs.den * aden * comb.den
            weight = max(sum(map(abs, w)) for w in terms)
            bits = max(pack_bits(1, fubs.top, rden), pack_bits(weight, fubs.top, fubs.den))
            packs = fubs.at(bits)
            for n in range(1, top + 1):
                rhs = sum(map(mul, terms[n], packs)) << bits, rden  # times x
                params = {"dist": dist, "lambda": lam, "n": n}
                yield (packs[n], fubs.den), rhs, params, None, bits, n + 1


def _thm2_9(cfg, weights, first_n: int):
    # Derivative identity: d^r/dx^r F^Y_{n,lam} against the sum over i of
    # C(n, i) f w_{n-i} F^{(r+1),Y}_{i,lam}, for n from first_n, where
    # weights(dist, lam, r, top) gives the column w_0..w_top as ints over one
    # den and the factor f. Packed polynomial cases on the rows F^{(r+1),Y},
    # packed once per (dist, lam, r); derivative entries are <= r! C(top, r) ftop.
    top = cfg.n_max
    comb = PackedVectors(_comb_rows(top))
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            fubs = prob_fubini_polys(dist, top, 1, lam)[: top + 1]
            ftop = max(max(map(abs, f.nums), default=0) for f in fubs)
            fden = max(f.den for f in fubs)
            for r in range(1, cfg.r_max + 1):
                ords = _fubini_rows(dist, top, r + 1, lam)
                (w, wden), factor = weights(dist, lam, r, top)
                u, v = ratio(factor)
                w = [c * u for c in w]
                terms = [list(map(mul, c[: n + 1], w[n::-1])) for n, c in enumerate(comb.vectors)]
                rden = ords.den * wden * v * comb.den
                weight, ltop = max(sum(map(abs, t)) for t in terms), math.perm(top, r) * ftop
                bits = max(pack_bits(1, ltop, rden), pack_bits(weight, ords.top, fden))
                packs = ords.at(bits)
                for n in range(first_n, top + 1):
                    nums, den = fubs[n].derivative_ratio(r)
                    params = {"dist": dist, "lambda": lam, "n": n, "r": r}
                    rhs = sum(map(mul, terms[n], packs)), rden
                    yield (pack(nums, bits), den), rhs, params, None, bits, n + 1


def _sum_moment_weights(dist, lam, r: int, top: int):
    # THM2_9_PRINTED, the form as usually stated: the r-fold sum moments
    # E[(S_r)_{m,lam}] times r!. Its n starts at 1; at n = 0 it already fails
    # trivially (0 vs r!).
    row = sum_degenerate_row(dist, r, top, lam)
    return (row.nums[: top + 1], row.den), factorial(r)


def _stirling_weights(dist, lam, r: int, top: int):
    # THM2_9_CORRECTED, the repaired form: the triangle's column r times (r!)^2
    columns, den = _columns(prob_bell_polys(dist, top, lam)[: top + 1], r + 1)
    return (list(columns[r]), den), factorial(r) ** 2


def _thm2_11(cfg):
    # Poisson: Fubini polynomial as a Bell-number mixture of classical ones
    classical = [classical_fubini_poly(i) for i in range(cfg.n_max + 1)]
    for dist in _members(cfg, Poisson, (Poisson(Fraction(3, 2)),)):
        apows, aden = scaled([dist.alpha**i for i in range(cfg.n_max + 1)])
        for lam in cfg.lambdas:
            fubs = prob_fubini_polys(dist, cfg.n_max, 1, lam)
            for n in range(cfg.n_max + 1):
                row = stirling2_degenerate_row(n, lam)
                rhs = weighted_sum(
                    (p.nums, p.den * row.den * aden, c * a)
                    for p, c, a in zip(classical, row.nums, apows)
                )
                yield (fubs[n].nums, fubs[n].den), rhs, {"dist": dist, "lambda": lam, "n": n}, None


def _thm2_12(cfg):
    # Poisson sum moments are the classical Bell polynomials at k*alpha,
    # and the geometric expansion then reduces to the THM2_10 rows. First a
    # packed block over k per (lam, n): c^n phi_{n,lam}(k a/c) through the
    # columns k^m against sum_j [x^j](x)_{n,lam} E[S_k^j] on Miller's rows.
    size = cfg.coeff_depth + 1
    comb = _comb_rows(cfg.coeff_depth)
    weights = _geometric_weights(comb, 0, size, cfg.n_max)
    powers = PackedVectors([k**m for k in range(size)] for m in range(cfg.n_max + 1))
    for dist in _members(cfg, Poisson, (Poisson(Fraction(3, 2)),)):
        moments = _raw_sum_columns(dist, size, cfg.n_max)
        raw, sums = PackedVectors(*moments), _geometric_sums(comb, 0, moments)
        a, c = ratio(dist.alpha)
        for lam in cfg.lambdas:
            ffs = falling_factorial_polys(cfg.n_max, lam)
            for n in range(cfg.n_max + 1):
                bell, ff = degenerate_bell_poly(n, lam), ffs[n]
                at = [b * a**m * c ** (n - m) for m, b in enumerate(bell.nums)]
                left, right = (at, powers, bell.den * c**n), (ff.nums, raw, ff.den)
                yield _packed_block(left, right, {"dist": dist, "lambda": lam, "n": n}, "k", size)
            params = {"dist": dist, "lambda": lam}
            yield from _geometric_rows(dist, lam, 0, weights, sums, cfg.n_max, params)


def _geometric_weights(comb, r: int, size: int, degree: int) -> PackedVectors:
    # the columns l = 0..degree of C(i+r, i-l) over i < size (0 for l > i):
    # sum_l w_l column_l is [u^i] w(u/(1-u))/(1-u)^(r+1) for w of that degree
    return PackedVectors(
        [comb[i + r][i - l] if l <= i else 0 for i in range(size)] for l in range(degree + 1)
    )


def _geometric_sums(comb, r: int, moments) -> PackedVectors:
    # C(i+r, i) times each column of moments = (columns, den) over i
    columns, den = moments
    return PackedVectors(
        ([comb[i + r][i] * m for i, m in enumerate(column)] for column in columns), den
    )


def _geometric_rows(dist, lam, r: int, weights, sums, n_max: int, params: dict):
    # THM2_13 at one (dist, lam, r), one packed block over i per n:
    # F^{(r+1),Y}_{n,lam} through the weight columns against C(i+r, i)
    # E[(S_i)_{n,lam}] = sum_j [x^j](x)_{n,lam} C(i+r, i) E[S_i^j]
    fubs = prob_fubini_polys(dist, n_max, r + 1, lam)
    ffs = falling_factorial_polys(n_max, lam)
    size = len(sums.vectors[0])
    for n in range(n_max + 1):
        w, ff = fubs[n], ffs[n]
        left, right = (w.nums, weights, w.den), (ff.nums, sums, ff.den)
        yield _packed_block(left, right, {**params, "n": n}, "i", size)


def _thm2_13(cfg, rs=None):
    # Order-(r+1) geometric expansion, i <= coeff_depth. The right side's
    # packs C(i+r, i) E[S_i^j] come from Miller's rows and do not depend on
    # lam: they are built once per (dist, r), and contracted against
    # (x)_{n,lam} per block. The weight columns are built once per run.
    rs = _orders(cfg, rs)
    size = cfg.coeff_depth + 1
    comb = _comb_rows(cfg.coeff_depth + max(rs))
    weights = {r: _geometric_weights(comb, r, size, cfg.n_max) for r in rs}
    for dist in cfg.dists:
        moments = _raw_sum_columns(dist, size, cfg.n_max)
        sums = {r: _geometric_sums(comb, r, moments) for r in rs}
        for lam in cfg.lambdas:
            for r in rs:
                params = {"dist": dist, "lambda": lam, "r": r}
                yield from _geometric_rows(dist, lam, r, weights[r], sums[r], cfg.n_max, params)


def _thm2_14(cfg, rs=None):
    # Gamma-weight integral of order r recovers the order-r polynomial; one
    # block over k. The integrals of x**k, the integers (r+k-1)!, over (r-1)!
    # as (nums, den) per r.
    integrals = {}
    for r in _orders(cfg, rs):
        values = [gamma_weight_integral(Polynomial.monomial(k), r) for k in range(cfg.n_max + 1)]
        integrals[r] = [g.numerator for g in values], factorial(r - 1)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            bells = [
                (_padded(bell, n + 1), bell.den)
                for n, bell in enumerate(prob_bell_polys(dist, cfg.n_max, lam)[: cfg.n_max + 1])
            ]
            for r, (gnums, gden) in integrals.items():
                fubs = prob_fubini_polys(dist, cfg.n_max, r, lam)
                for n, (bnums, bden) in enumerate(bells):
                    lhs = list(map(mul, bnums, gnums)), bden * gden
                    params = {"dist": dist, "lambda": lam, "r": r, "n": n}
                    yield lhs, (_padded(fubs[n], n + 1), fubs[n].den), params, "k"


def _thm2_15(cfg, rs=None):
    # Order-r recurrence driven by the shifted degenerate moments; r = 1 is
    # THM2_8: F^{(r)}_{n+1} = x sum_k C(n, k) r F^{(r)}_{n-k} D_k with drivers
    # D_k = sum_j C(k, j) F_{k-j} E[(Y)_{j+1,lam}]. Packed polynomial cases on
    # the rows F^{(r)}, packed once per (dist, lam, r); a product of packs packs
    # the convolution, D_k too is a sum of packs.
    top = cfg.n_max
    comb = PackedVectors(_comb_rows(top))
    spread = max(sum(map(abs, c[: n + 1])) for n, c in enumerate(comb.vectors))
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            fubs = _fubini_rows(dist, top, 1, lam)
            a, aden = scaled([degenerate_moment(dist, j + 1, lam) for j in range(top)])
            # the weights of the rows 0..k in D_k: j = k..0
            drivers = [list(map(mul, c[k::-1], a[k::-1])) for k, c in enumerate(comb.vectors[:-1])]
            dtop = fubs.top * max(sum(map(abs, d)) for d in drivers)
            for r in _orders(cfg, rs):
                ords = fubs if r == 1 else _fubini_rows(dist, top, r, lam)
                rden = ords.den * fubs.den * aden * comb.den**2
                weight, rtop = top * r * spread, ords.top * dtop
                bits = max(pack_bits(1, ords.top, rden), pack_bits(weight, rtop, ords.den))
                packs = ords.at(bits)
                dpacks = [sum(map(mul, d, fubs.at(bits))) for d in drivers]
                for n in range(top):
                    products = map(mul, packs[n::-1], dpacks)
                    rhs = (r * sum(map(mul, comb.vectors[n], products))) << bits, rden  # times x
                    params = {"dist": dist, "lambda": lam, "r": r, "n": n}
                    yield (packs[n + 1], ords.den), rhs, params, None, bits, n + 2


def _thm2_16(cfg):
    # Bernoulli collapse: F^Y_{n,lam}(x) = F_{n,lam}(p x); p = 0 and p = 1
    # are forced boundary cases, first, on top of whatever the config carries.
    boundary = (Bernoulli(Fraction(0)), Bernoulli(Fraction(1)))
    for dist in dict.fromkeys(boundary + _members(cfg, Bernoulli, ())):
        for lam in cfg.lambdas:
            for n in range(cfg.n_max + 1):
                lhs = prob_fubini_poly(dist, n, lam)
                rhs = degenerate_fubini_poly(n, lam).scale_argument(dist.p)
                params = {"dist": dist, "lambda": lam, "n": n}
                yield (lhs.nums, lhs.den), (rhs.nums, rhs.den), params, None


def _thm2_9_printed(cfg):
    return _thm2_9(cfg, _sum_moment_weights, 1)


def _thm2_9_corrected(cfg):
    return _thm2_9(cfg, _stirling_weights, 0)


class CatalogRow(Record):
    """One identity of the catalog.

    checker yields its cases; order is None for the checker's own orders
    (1..r_max for an order-r checker), or the one order r of an order slice,
    whose cases are reported without r; same_as names the identity whose
    comparison it is; known marks the expected known discrepancy.
    """

    _fields = ("checker", "order", "same_as", "known")

    def __init__(self, checker, order: int | None = None, same_as: str | None = None, known: bool = False):
        self._init(checker, order, same_as, known)


_ROWS = {
    "EQ6": CatalogRow(_eq6),
    "EQ10_GF": CatalogRow(_eq12_gf, 1),
    "EQ11": CatalogRow(_eq14, 0),
    "EQ12_GF": CatalogRow(_eq12_gf),
    "EQ14": CatalogRow(_eq14),
    "EQ15_GF": CatalogRow(_eq15_gf),
    "EQ19_INV": CatalogRow(_eq19_inv),
    "EQ20_GF": CatalogRow(_eq20_gf),
    "EQ22_GF": CatalogRow(_eq22_gf),
    "EQ23_GF": CatalogRow(_thm2_6, 1),
    "EQ29_BELL": CatalogRow(_eq29_bell),
    "THM2_1": CatalogRow(_thm2_6, 1, same_as="EQ23_GF"),
    "THM2_2": CatalogRow(_thm2_13, 0),
    "THM2_3": CatalogRow(_thm2_3),
    "THM2_4": CatalogRow(_thm2_14, 1),
    "THM2_5": CatalogRow(_thm2_5),
    "THM2_6": CatalogRow(_thm2_6),
    "THM2_7": CatalogRow(_thm2_7),
    "THM2_8": CatalogRow(_thm2_15, 1),
    "THM2_9_PRINTED": CatalogRow(_thm2_9_printed, known=True),
    "THM2_9_CORRECTED": CatalogRow(_thm2_9_corrected),
    "THM2_10": CatalogRow(_thm2_13, 0, same_as="THM2_2"),
    "THM2_11": CatalogRow(_thm2_11),
    "THM2_12": CatalogRow(_thm2_12),
    "THM2_13": CatalogRow(_thm2_13),
    "THM2_14": CatalogRow(_thm2_14),
    "THM2_15": CatalogRow(_thm2_15),
    "THM2_16": CatalogRow(_thm2_16),
}

IdentityId = Enum("IdentityId", [(name, name) for name in _ROWS], module=__name__)
IdentityId.__doc__ = "Names of the verifiable identities; also the CLI --suite tokens."

# The catalog, in suite order: every identity's row.
CATALOG = dict(zip(IdentityId, _ROWS.values()))

EXPECTED_DISCREPANCIES = frozenset(i for i, row in CATALOG.items() if row.known)


def resolve_identity(name: str | IdentityId) -> IdentityId:
    if isinstance(name, IdentityId):
        return name
    try:
        return IdentityId[name]
    except KeyError:
        valid = ", ".join(i.value for i in CATALOG)
        raise ValueError(f"unknown identity {name!r}; valid names: {valid}") from None


def _run(cfg: CheckConfig, members: list) -> list[CheckReport]:
    # One run of the checker that the identities in members share, each
    # taking the order of its row, at the sorted union of those orders.
    orders = {i: CATALOG[i].order for i in members}
    checker = CATALOG[members[0]].checker
    if all(order is None for order in orders.values()):
        return _tally(checker(cfg), orders)
    defaults = tuple(range(1, cfg.r_max + 1))
    takes = {i: defaults if order is None else order for i, order in orders.items()}
    rs = sorted({r for t in takes.values() for r in ((t,) if type(t) is int else t)})
    return _tally(checker(cfg, rs), takes)


def check_identity(identity: str | IdentityId, cfg: CheckConfig) -> CheckReport:
    """Run one checker over the grid; stops at the first exact mismatch.

    The report is run_suite(cfg, [identity])[0]: an order slice runs its
    order-r checker at its one order only.
    """
    return _run(cfg, [resolve_identity(identity)])[0]


def run_suite(cfg: CheckConfig, identities=None) -> list[CheckReport]:
    """Run the whole catalog in declaration order, or a selection in its order.

    The selection is grouped by checker, and each checker runs once, at the
    union of the orders its selected identities take. Every identity gets the
    report check_identity would give it: its own cases, counted up to its
    own first mismatch. An identity alone on its checker runs through
    check_identity, so a wrapper of check_identity (a profiler's, say) still
    times it.
    """
    if identities is None:
        selected = list(IdentityId)
    else:
        selected = [resolve_identity(i) for i in identities]
    groups: dict = {}
    for identity in dict.fromkeys(selected):
        groups.setdefault(CATALOG[identity].checker, []).append(identity)
    reports = {}
    for members in groups.values():
        if len(members) == 1:
            (identity,) = members
            reports[identity] = check_identity(identity, cfg)
        else:
            reports.update(zip(members, _run(cfg, members)))
    return [reports[identity] for identity in selected]


def suite_ok(reports) -> bool:
    """True when every report passes or is an expected known discrepancy."""
    return all(r.ok for r in reports)


def _sum_moment_floats(dist, lam, top: int, terms: int) -> list[list[float]]:
    # E[(S_i)_{n,lam}] for i = 0..terms as floats, one list per n = 0..top.
    # E[e_lam^{S_i}(t)] = (1 + (M - 1))^i with M = E[e_lam^Y(t)] and
    # M - 1 = O(t), so the moment is a polynomial in i of degree <= n: the rows
    # i <= n are read, as sum_j [x^j](x)_{n,lam} E[S_i^j] on Miller's rows,
    # and summing its differences extends them exactly over one denominator.
    # int / int is correctly rounded, so each float is the one that
    # float(Fraction(num, den)) of the sum moment itself gives.
    columns, den = _raw_sum_columns(dist, min(top, terms) + 1, top)
    rows = list(zip(*columns))
    floats = []
    for n, ff in enumerate(falling_factorial_polys(top, lam)[: top + 1]):
        common = ff.den * den
        table = [sum(map(mul, ff.nums, row)) for row in rows[: n + 1]]
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


class SpotcheckRangeError(ValueError):
    """A value that the THM2_2 spot-check needs at (dist, lam) lies beyond
    the float range, so the spot-check cannot run there."""

    def __init__(self, dist: Distribution, lam: Fraction):
        super().__init__(
            f"THM2_2's numeric spot-check cannot run at the law {dist.spec_string()} and "
            f"lambda {format_rational(lam)}: a value it needs lies beyond the float range"
        )


def thm2_2_numeric_spotcheck(cfg: CheckConfig, *, terms: int = 140) -> dict:
    """Float partial sums of the infinite geometric moment series.

    THM2_2, that series, is checked exactly as the substitution u = x/(1+x)
    in THM2_13's expansion at r = 0; this spot-checks its tail.

    At rational points with |x/(1+x)| <= 1/2 the series converges fast for
    small n; the first `terms` partial sums must agree with the exact
    polynomial value to _SPOTCHECK_REL_TOL. This is the one deliberately
    inexact check in the package; it never feeds a CheckReport. Raises
    SpotcheckRangeError when a sum moment or an exact value does not fit a
    float.
    """
    points = [Fraction(1, 2), Fraction(1)]
    lams = cfg.lambdas[:3]
    cases = 0
    worst = 0.0
    failures = []
    top = min(4, cfg.n_max)
    for dist in cfg.dists:
        for lam in lams:
            try:
                columns = _sum_moment_floats(dist, lam, top, terms)
                exacts = [
                    [float(prob_fubini_poly(dist, n, lam).evaluate(x0)) for x0 in points]
                    for n in range(top + 1)
                ]
            except OverflowError:
                raise SpotcheckRangeError(dist, lam) from None
            for n, moments in enumerate(columns):
                for x0, exact in zip(points, exacts[n]):
                    u = x0 / (1 + x0)
                    uf = float(u)
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
