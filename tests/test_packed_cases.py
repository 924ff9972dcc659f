"""Packed polynomial cases: the kind _compare reads, and the checkers that yield it.

THM2_7, THM2_15 (so THM2_8) and THM2_9_* compare each polynomial case as two
Kronecker-packed integers, and EQ20_GF and THM2_12 contract Miller's rows
E[S_j**m] instead of the sum moments E[(S_j)_{n,lam}]. The references below
are the per-case bodies those checkers had before: each case summed through
poly.weighted_sum and convolve, and the sum moments read row by row from
sum_degenerate_row. Under every fault the reports must be the same, case
counts and counterexamples included.
"""

from fractions import Fraction

import pytest

from fubini import hooks, identities
from fubini.combinat import binomial, factorial
from fubini.distributions import Gamma, Poisson
from fubini.families import degenerate_bell_poly
from fubini.identities import CheckConfig, IdentityId, check_identity, default_config
from fubini.poly import Polynomial, convolve, pack, pack_bits, weighted_sum
from fubini.probabilistic import (
    degenerate_moment,
    mgf_degenerate_series,
    prob_bell_polys,
    prob_fubini_polys,
    sum_degenerate_row,
)
from fubini.rational import scaled
from fubini.series import TruncatedSeries

F = Fraction


# --- the per-case references ---


def _ref_thm2_7(cfg):
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            fubs = prob_fubini_polys(dist, cfg.n_max, 1, lam)
            moments = [degenerate_moment(dist, k, lam) for k in range(cfg.n_max + 1)]
            for n in range(1, cfg.n_max + 1):
                nums, den = weighted_sum(
                    (f.nums, f.den * m.denominator, binomial(n, k) * m.numerator)
                    for k, (f, m) in enumerate(zip(fubs[n - 1 :: -1], moments[1 : n + 1]), 1)
                )
                lhs = fubs[n].nums, fubs[n].den
                yield lhs, ([0, *nums], den), {"dist": dist, "lambda": lam, "n": n}, None


def _ref_thm2_9(cfg, weights, first_n):
    top = cfg.n_max
    comb = identities._comb_rows(top)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            fubs = prob_fubini_polys(dist, top, 1, lam)
            for r in range(1, cfg.r_max + 1):
                ords = prob_fubini_polys(dist, top, r + 1, lam)
                (column, cden), factor = weights(dist, lam, r, top)
                for n in range(first_n, top + 1):
                    rhs = weighted_sum(
                        (f.nums, f.den * cden, comb[n][i] * column[n - i] * factor)
                        for i, f in enumerate(ords[: n + 1])
                    )
                    params = {"dist": dist, "lambda": lam, "n": n, "r": r}
                    yield fubs[n].derivative_ratio(r), rhs, params, None


def _ref_printed_weights(dist, lam, r, top):
    row = sum_degenerate_row(dist, r, top, lam)
    return (row.nums[: top + 1], row.den), factorial(r)


def _ref_corrected_weights(dist, lam, r, top):
    rows = prob_bell_polys(dist, top, lam)
    return scaled([rows[m].coefficient(r) for m in range(top + 1)]), factorial(r) ** 2


def _ref_thm2_15(cfg, rs):
    top = cfg.n_max
    comb = identities._comb_rows(top)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            fubs = prob_fubini_polys(dist, top, 1, lam)
            moments, mden = scaled([degenerate_moment(dist, j + 1, lam) for j in range(top)])
            drivers = [
                weighted_sum(
                    (f.nums, f.den * mden, comb[k][j] * moments[j])
                    for j, f in enumerate(fubs[k::-1])
                )
                for k in range(top)
            ]
            for r in rs:
                ords = prob_fubini_polys(dist, top, r, lam)
                for n in range(top):
                    nums, den = weighted_sum(
                        (convolve(f.nums, d, n + 1), f.den * dden, comb[n][k] * r)
                        for k, (f, (d, dden)) in enumerate(zip(ords[n::-1], drivers))
                    )
                    lhs = ords[n + 1].nums, ords[n + 1].den
                    yield lhs, ([0, *nums], den), {"dist": dist, "lambda": lam, "r": r, "n": n}, None


def _ref_eq20_gf(cfg):
    # the definition on the sum moments, read row by row, one scalar block over n
    top = cfg.series_order
    facts = identities._factorials(top)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            base = mgf_degenerate_series(dist, lam, top) - 1
            rows = [sum_degenerate_row(dist, j, top, lam) for j in range(cfg.n_max + 1)]
            moments = [scaled([F(row.nums[n], row.den) for row in rows]) for n in range(top + 1)]
            power = TruncatedSeries.one(top)
            for k in range(cfg.n_max + 1):
                if k:
                    power = power * base
                weights = identities._difference_weights(k)
                lhs = [power.nums[n] * facts[n] for n in range(top + 1)], power.den * factorial(k)
                rhs = identities._split(
                    [identities._stirling2_by_difference(m, weights) for m in moments]
                )
                yield lhs, rhs, {"dist": dist, "lambda": lam, "k": k}, "n"


def _ref_thm2_12(cfg):
    size = cfg.coeff_depth + 1
    comb = identities._comb_rows(cfg.coeff_depth)
    weights = identities._geometric_weights(comb, 0, size, cfg.n_max)
    for dist in identities._members(cfg, Poisson, (Poisson(F(3, 2)),)):
        sums = identities._geometric_sums(comb, 0, identities._raw_sum_columns(dist, size, cfg.n_max))
        for lam in cfg.lambdas:
            rows = [sum_degenerate_row(dist, k, cfg.n_max, lam) for k in range(size)]
            dens = [row.den for row in rows]
            for n in range(cfg.n_max + 1):
                bell = degenerate_bell_poly(n, lam)
                lhs = identities._split([bell.evaluate_ratio(k * dist.alpha) for k in range(size)])
                rhs = [row.nums[n] for row in rows], dens
                yield lhs, rhs, {"dist": dist, "lambda": lam, "n": n}, "k"
            params = {"dist": dist, "lambda": lam}
            yield from identities._geometric_rows(dist, lam, 0, weights, sums, cfg.n_max, params)


# identity -> (reference cases, the order it takes of them)
_REFERENCES = {
    IdentityId.THM2_7: (_ref_thm2_7, None),
    IdentityId.THM2_8: (lambda cfg: _ref_thm2_15(cfg, [1]), 1),
    IdentityId.THM2_9_PRINTED: (lambda cfg: _ref_thm2_9(cfg, _ref_printed_weights, 1), None),
    IdentityId.THM2_9_CORRECTED: (lambda cfg: _ref_thm2_9(cfg, _ref_corrected_weights, 0), None),
    IdentityId.THM2_15: (lambda cfg: _ref_thm2_15(cfg, range(1, cfg.r_max + 1)), None),
    IdentityId.EQ20_GF: (_ref_eq20_gf, None),
    IdentityId.THM2_12: (_ref_thm2_12, None),
}

_GRID = dict(
    lambdas=(F(0), F(1, 2), F(-1, 4)),
    n_max=5,
    r_max=2,
    x_points=(F(1),),
    series_order=6,
    coeff_depth=10,
)
_DISCRETE = default_config().dists[-1]

# the faults of the fingerprint test that reach these checkers, and Fraction
# deltas, which put a Fraction into a table that a pack reads
_FAULTS = [
    None,
    ("binomial", (4, 2), 1),
    ("binomial", (3, 1), F(1, 2)),
    ("binomial", (5, 5), F(-2, 3)),
    ("factorial", (5,), 1),
    ("factorial", (2,), F(1, 3)),
    ("raw_moment", (Poisson(F(3, 2)), 3), 1),
    ("raw_moment", (Gamma(F(3, 2), F(2)), 2), F(-2, 7)),
    ("sum_moment", (_DISCRETE, 2, 2), 1),
    ("sum_moment", (Poisson(F(3, 2)), 4, 3), F(1, 3)),
    ("sum_moment", (Gamma(1, 1), 1, 2), 1),
]


def _reports(cfg):
    packed = [check_identity(i, cfg).to_dict() for i in _REFERENCES]
    reference = [
        identities._tally(cases(cfg), {i: order})[0].to_dict()
        for i, (cases, order) in _REFERENCES.items()
    ]
    return packed, reference


@pytest.mark.parametrize("fault", _FAULTS, ids=lambda f: "none" if f is None else f"{f[0]}-{f[1]}-{f[2]}")
def test_packed_checkers_report_what_the_per_case_sums_report(fault):
    cfg = CheckConfig(dists=default_config().dists, **_GRID)
    if fault is None:
        packed, reference = _reports(cfg)
        assert [r["status"] for r in packed] == ["pass"] * 2 + ["known-discrepancy"] + ["pass"] * 4
    else:
        table, key, delta = fault
        with hooks.perturb(table, key, delta):
            packed, reference = _reports(cfg)
    assert packed == reference


# Deeper, where the packs are 448 to 640 bits wide (the lambda with the
# large denominator runs first): a fault whose first mismatch lies at
# entries of about 400 bits must still be found and print as the per-case
# sums print it, so a width cut to one 64-bit word shows here.
_DEEP_GRID = dict(
    lambdas=(F(13, 99991), F(-7, 2)),
    n_max=8,
    r_max=2,
    dists=(Gamma(F(3, 2), F(2)), _DISCRETE),
    x_points=(F(1),),
    series_order=10,
    coeff_depth=22,
)


@pytest.mark.parametrize(
    "fault",
    [("binomial", (8, 3), F(1, 3)), ("binomial", (7, 2), 1), ("factorial", (7,), F(-1, 2))],
    ids=lambda f: f"{f[0]}-{f[1]}-{f[2]}",
)
def test_deep_packed_cases_report_what_the_per_case_sums_report(fault):
    with hooks.perturb(*fault):
        packed, reference = _reports(CheckConfig(**_DEEP_GRID))
    assert packed == reference
    assert "fail" in [r["status"] for r in packed]


# --- the case kind: (lhs, rhs, params, None, bits, size) ---


def _case(left, right, bits, lden=1, rden=1):
    size = max(len(left), len(right))
    return (pack(left, bits), lden), (pack(right, bits), rden), {"n": 3}, None, bits, size


def _tally(case):
    lead = ([1], 1), ([2], 2), {"n": 2}, None  # a passing case before, counted
    return identities._tally(iter([lead, case]), {IdentityId.THM2_7: None})[0]


_TOP = 2**63 - 1  # the largest |entry| a 64-bit digit admits


@pytest.mark.parametrize(
    "left, right",
    [
        ([1, 2, 3], [1, 2, 4]),
        ([0, 0, 5], [0, 0, -5]),
        ([1, -2, 3], [-1, 2, -3]),
        ([_TOP, 0, _TOP], [_TOP, 0, _TOP - 1]),
        ([_TOP, -_TOP], [_TOP, _TOP]),
        ([-_TOP, _TOP, -_TOP], [_TOP, -_TOP, _TOP]),
        ([_TOP], [_TOP, 1]),
        ([2, 0, 0, _TOP], [2]),
    ],
    ids=["top", "top-sign", "sign", "largest", "largest-sign", "largest-all", "longer", "shorter"],
)
def test_a_packed_polynomial_case_that_differs_fails(left, right):
    bits = 64
    assert pack_bits(1, _TOP, 1) == 128 > bits  # these sides sit at the edge of the width
    rep = _tally(_case(left, right, bits))
    assert (rep.status, rep.cases) == ("fail", 2)
    assert rep.counterexample == identities._counterexample(
        {"n": 3}, Polynomial(left), Polynomial(right)
    )


def test_a_packed_polynomial_case_compares_across_its_dens_and_counts_one():
    left, right, wrong = [2, -4, 6], [-3, 6, -9], [-3, 6, -10]
    bits = max(pack_bits(1, 6, 3), pack_bits(1, 10, 2))
    rep = _tally(_case(left, right, bits, lden=2, rden=-3))
    assert (rep.status, rep.cases, rep.counterexample) == ("pass", 2, None)
    rep = _tally(_case(left, wrong, bits, lden=2, rden=-3))
    assert (rep.status, rep.cases) == ("fail", 2)
    assert (rep.counterexample.lhs, rep.counterexample.rhs) == ("[1, -2, 3]", "[1, -2, 10/3]")
