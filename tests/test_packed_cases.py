"""Packed cases: the kind _compare reads, and the checkers that yield it.

THM2_7, THM2_15 (so THM2_8) and THM2_9_* compare each polynomial case as two
Kronecker-packed integers, and EQ20_GF and THM2_12 contract Miller's rows
E[S_j**m] instead of the sum moments E[(S_j)_{n,lam}]. THM2_6 (so EQ23_GF,
THM2_1) and EQ12_GF (so EQ10_GF) compare one packed block per (x, r),
(1 - x B) G_r = G_{r-1} with G_r the order-r EGF, where they compared G_r
with the series 1 / (1 - x B)^r. The references below are the per-case
bodies those checkers had before: each case summed through
poly.weighted_sum and convolve, the sum moments read row by row from
sum_degenerate_row, and the EGF blocks read from the series power. Under
every fault the reports must be the same, case counts and counterexamples
included. Every packed case must also fit the width it was packed at.
"""

import contextlib
from fractions import Fraction

import pytest

from fubini import hooks, identities
from fubini.combinat import binomial, factorial
from fubini.distributions import Bernoulli, FiniteDiscrete, Gamma, Poisson
from fubini.families import degenerate_bell_poly, degenerate_exp_series, degenerate_fubini_poly_order
from fubini.identities import (
    CheckConfig,
    IdentityId,
    check_identity,
    default_config,
    run_suite,
)
from fubini.poly import PackedVectors, Polynomial, convolve, pack, pack_bits, unpack, weighted_sum
from fubini.probabilistic import (
    degenerate_moment,
    mgf_degenerate_series,
    prob_bell_polys,
    prob_fubini_polys,
    sum_degenerate_row,
)
from fubini.rational import scaled
from fubini.series import TruncatedSeries
from test_integer_cores import _stirling2_by_difference

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
                rhs = identities._split([_stirling2_by_difference(m, weights) for m in moments])
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


def _reports(cfg, references=_REFERENCES):
    packed = [check_identity(i, cfg).to_dict() for i in references]
    reference = [
        identities._tally(cases(cfg), {i: order})[0].to_dict()
        for i, (cases, order) in references.items()
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


# --- the order-r EGF blocks: THM2_6 (so EQ23_GF, THM2_1), EQ12_GF (so EQ10_GF) ---


def _egf_cases(s: TruncatedSeries, polys, x0, facts: list[int], params: dict):
    # EGF coefficient n of the series s against polys[n] at x0: one block over
    # n = 0, 1, ...
    lhs = [s.nums[n] * facts[n] for n in range(len(polys))]
    rhs = identities._split([poly.evaluate_ratio(x0) for poly in polys])
    yield (lhs, s.den), rhs, params, "n"


def _ref_fubini_egf_cases(base, rs, ords, x0, facts, params):
    # 1 / (1 - x0 base)^r against ords[i] at x0 for the i-th r of rs, one
    # per-entry block over n each
    reciprocal = (1 - base * x0).reciprocal()
    power, at = reciprocal, 1
    for r, polys in zip(rs, ords):
        while at < r:
            power, at = power * reciprocal, at + 1
        yield from _egf_cases(power, polys, x0, facts, {**params, "r": r})


def _ref_thm2_6(cfg, rs):
    top = cfg.series_order
    facts = identities._factorials(top)
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            ords = [prob_fubini_polys(dist, top, r, lam)[: top + 1] for r in rs]
            base = mgf_degenerate_series(dist, lam, top) - 1
            for x0 in cfg.x_points:
                params = {"dist": dist, "lambda": lam, "x": x0}
                yield from _ref_fubini_egf_cases(base, rs, ords, x0, facts, params)


def _ref_eq12_gf(cfg, rs):
    top = cfg.series_order
    facts = identities._factorials(top)
    for lam in cfg.lambdas:
        base = degenerate_exp_series(1, lam, top) - 1
        ords = [[degenerate_fubini_poly_order(n, r, lam) for n in range(top + 1)] for r in rs]
        for x0 in cfg.x_points:
            yield from _ref_fubini_egf_cases(base, rs, ords, x0, facts, {"lambda": lam, "x": x0})


_EGF_REFERENCES = {
    IdentityId.THM2_6: (lambda cfg: _ref_thm2_6(cfg, range(1, cfg.r_max + 1)), None),
    IdentityId.EQ23_GF: (lambda cfg: _ref_thm2_6(cfg, [1]), 1),
    IdentityId.THM2_1: (lambda cfg: _ref_thm2_6(cfg, [1]), 1),
    IdentityId.EQ12_GF: (lambda cfg: _ref_eq12_gf(cfg, range(1, cfg.r_max + 1)), None),
    IdentityId.EQ10_GF: (lambda cfg: _ref_eq12_gf(cfg, [1]), 1),
}

_EGF_GRID = dict(_GRID, r_max=3, x_points=(F(1), F(1, 2), F(-1, 3)))


def _refuse(self):
    raise AssertionError("a series reciprocal in an EGF block")


def test_a_fraction_weight_keeps_the_packed_egf_block(monkeypatch):
    # C(7, 6) is the weight C(k+1, k) of F^{(2)} at k = 6 = series_order, read
    # by no triangle row; a zero-mean Y has {6 brace 6} = 0, so THM2_6 holds
    # with a Fraction weight, and the block still compares packed
    monkeypatch.setattr(TruncatedSeries, "reciprocal", _refuse)
    zero_mean = FiniteDiscrete(((F(-1), F(1, 2)), (F(1), F(1, 2))))
    cfg = CheckConfig(dists=(zero_mean,), **_EGF_GRID)
    with hooks.perturb("binomial", (7, 6), F(1, 3)):
        assert check_identity(IdentityId.THM2_6, cfg).status == "pass"


# (table, key, delta) or None, and THM2_6's first mismatch (r, n) or None.
# C(k+1, k) and C(k+2, k) weigh orders 2 and 3 only; the triangle reads
# C(7, 6) and C(8, 6) nowhere, and the degenerate Stirling rows read no
# binomial, so those faults first show at r > 1. A moment fault reaches the
# series and the triangle alike, except E[Y**0], which only the series reads.
_EGF_FAULTS = [
    (None, None),
    (("binomial", (7, 6), 1), ("2", "6")),
    (("binomial", (8, 6), F(-1, 2)), ("3", "6")),
    (("binomial", (3, 2), F(1, 3)), ("1", "3")),
    (("stirling2", (4, 2), 1), None),
    (("factorial", (3,), F(1, 3)), ("1", "3")),
    (("raw_moment", (Gamma(F(3, 2), F(2)), 2), F(-2, 7)), None),
    (("raw_moment", (Poisson(F(3, 2)), 0), F(1, 2)), ("1", "0")),
]


@pytest.mark.parametrize("fault", [fault for fault, _ in _EGF_FAULTS], ids=str)
def test_an_egf_block_builds_no_series_reciprocal(monkeypatch, fault):
    # passing or failing, a block reads the statement's sides from its own
    # digits; only the references take 1 / (1 - x B)
    cfg = CheckConfig(dists=default_config().dists, **_EGF_GRID)
    with hooks.perturb(*fault) if fault else contextlib.nullcontext():
        reference = _reports(cfg, _EGF_REFERENCES)[1]
        monkeypatch.setattr(TruncatedSeries, "reciprocal", _refuse)
        hooks.clear_caches()
        alone = [check_identity(i, cfg).to_dict() for i in _EGF_REFERENCES]
        grouped = [r.to_dict() for r in run_suite(cfg, list(_EGF_REFERENCES))]
    assert alone == reference
    assert grouped == reference
    assert fault or [r["status"] for r in reference] == ["pass"] * 5


@pytest.mark.parametrize("fault, first", _EGF_FAULTS, ids=lambda v: str(v))
def test_the_chained_egf_blocks_report_what_the_series_power_reports(fault, first):
    cfg = CheckConfig(dists=default_config().dists, **_EGF_GRID)
    with hooks.perturb(*fault) if fault else contextlib.nullcontext():
        alone, reference = _reports(cfg, _EGF_REFERENCES)
        grouped = [r.to_dict() for r in run_suite(cfg, list(_EGF_REFERENCES))]
    assert alone == reference
    assert grouped == reference
    cex = reference[0]["counterexample"]
    assert (cex and (cex["params"]["r"], cex["params"]["n"])) == first


# --- pack widths ---

# A case's width is the larger of two pack_bits calls: the left side's (its
# digits times the right den) first, then the right side's. Packed _SPARE
# bits wider, both sides unpack exactly, so each digit _compare reads is
# checked against half the width pack_bits claims before it rounds up to a
# multiple of 64, which would hide a shortfall of a few bits.
_SPARE = 4096

# Deep enough, and with Bernoulli(2/5) at lambda 1 tight enough, that a width
# a few bits short shows: without its terms-per-digit factor top * r,
# THM2_15's right width falls 2 bits short of its extremal digits here.
_WIDTH_GRID = dict(
    lambdas=(F(0), F(1), F(-7, 2)),
    n_max=10,
    r_max=6,
    dists=(Gamma(F(3, 2), F(2)), Bernoulli(F(2, 5)), _DISCRETE),
    x_points=(F(1), F(-1, 3)),
    series_order=11,
    coeff_depth=16,
)

_PACKED_CHECKERS = {
    "_eq12_gf", "_eq14", "_eq19_inv", "_eq20_gf", "_thm2_6", "_thm2_7", "_thm2_9_printed",
    "_thm2_9_corrected", "_thm2_12", "_thm2_13", "_thm2_15",
}


@pytest.mark.parametrize("extremal", [False, True], ids=["rows", "extremal"])
def test_every_packed_digit_fits_the_unrounded_width(monkeypatch, extremal):
    # rows: the grid's own tables. extremal: every entry of every packed
    # table at that table's largest |entry|, and every packed list in
    # absolute value, the worst case a width is sized for; each case is then
    # taken as holding, so the EGF blocks go on to the next order.
    widths = []

    def unrounded(weight, top, den):
        widths.append(weight.bit_length() + top.bit_length() + den.bit_length() + 2)
        return widths[-1] + _SPARE

    monkeypatch.setattr(identities, "pack_bits", unrounded)
    if extremal:
        def at(self, bits):
            return [pack([self.top] * len(v), bits) for v in self.vectors]

        monkeypatch.setattr(PackedVectors, "at", at)
        monkeypatch.setattr(identities, "pack", lambda nums, bits: pack(list(map(abs, nums)), bits))
        monkeypatch.setattr(identities, "_holds", lambda case: True)
    cfg = CheckConfig(**_WIDTH_GRID)
    seen = set()
    for checker in dict.fromkeys(row.checker for row in identities.CATALOG.values()):
        for case in checker(cfg):
            if len(case) == 4:
                continue
            (lp, lden), (rp, rden), params, key, bits, size = case
            lbits, rbits = widths[-2:]
            assert bits == max(lbits, rbits) + _SPARE
            for packed, den, width in ((lp, rden, lbits), (rp, lden, rbits)):
                digits = unpack(packed * den, bits, size)
                assert max(map(abs, digits)).bit_length() < width, (checker.__name__, params)
            seen.add(checker.__name__)
    assert seen == _PACKED_CHECKERS
