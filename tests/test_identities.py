"""Identity suite behavior on reduced grids, plus the injection hooks."""

import contextlib
import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fubini import hooks, identities
from fubini.combinat import factorial, lah, stirling1, stirling2_degenerate
from fubini.distributions import Bernoulli, FiniteDiscrete, Gamma, PointMass, Poisson
from fubini.families import degenerate_bell_poly
from fubini.poly import Polynomial, pack
from fubini.probabilistic import sum_degenerate_row
from fubini.identities import (
    CheckConfig,
    EXPECTED_DISCREPANCIES,
    IdentityId,
    check_identity,
    default_config,
    run_suite,
    suite_ok,
    thm2_2_numeric_spotcheck,
)

F = Fraction


def small_config():
    return CheckConfig(
        lambdas=(F(0), F(1, 2), F(-1, 4)),
        n_max=4,
        r_max=2,
        dists=(
            PointMass(1),
            Bernoulli(F(2, 5)),
            Poisson(F(3, 2)),
            Gamma(1, 1),
        ),
        x_points=(F(1), F(-1, 3)),
        series_order=5,
        coeff_depth=8,
    )


def test_default_config_shape():
    cfg = default_config()
    assert len(cfg.lambdas) == 12
    assert len(set(cfg.lambdas)) == 12
    assert F(0) in cfg.lambdas
    assert any(v < 0 for v in cfg.lambdas)
    assert cfg.n_max == 10
    assert cfg.r_max == 3
    assert len(cfg.dists) == 7
    assert cfg.series_order == 12
    assert cfg.coeff_depth == 26
    # the generating-function cases reach lambda-degree series_order - 1, so
    # series_order distinct lambdas certify them; the default grid is tight
    assert len(set(cfg.lambdas)) == cfg.series_order


def test_config_validation():
    cfg = default_config()
    with pytest.raises(ValueError):
        CheckConfig((), 5, 2, cfg.dists, (F(1),), 6, 10)
    with pytest.raises(ValueError):
        CheckConfig((F(0),), 0, 2, cfg.dists, (F(1),), 6, 10)
    with pytest.raises(ValueError):
        CheckConfig((F(0),), 5, 0, cfg.dists, (F(1),), 6, 10)
    with pytest.raises(ValueError):
        CheckConfig((F(0),), 5, 2, (), (F(1),), 6, 10)
    with pytest.raises(ValueError):
        CheckConfig((F(0),), 5, 2, cfg.dists, (), 6, 10)


def test_identity_enumeration():
    names = [i.value for i in IdentityId]
    assert len(names) == 28
    assert names[0] == "EQ6"
    assert "THM2_9_PRINTED" in names
    assert "THM2_9_CORRECTED" in names
    assert EXPECTED_DISCREPANCIES == frozenset({IdentityId.THM2_9_PRINTED})


def test_unknown_identity_rejected():
    with pytest.raises(ValueError, match="unknown identity"):
        check_identity("NOPE", small_config())


def test_suite_on_small_grid():
    reports = run_suite(small_config())
    assert [r.identity for r in reports] == list(IdentityId)
    assert suite_ok(reports)
    by_id = {r.identity: r for r in reports}
    printed = by_id[IdentityId.THM2_9_PRINTED]
    assert printed.status == "known-discrepancy"
    assert printed.ok
    assert printed.counterexample is not None
    for rep in reports:
        if rep.identity is IdentityId.THM2_9_PRINTED:
            continue
        assert rep.status == "pass", rep.identity
        assert rep.counterexample is None
        assert rep.cases > 0


def test_check_accepts_string_names():
    rep = check_identity("EQ6", small_config())
    assert rep.status == "pass"
    assert rep.identity is IdentityId.EQ6


def test_run_suite_reports_equal_one_check_per_identity():
    cfg = small_config()
    suite = [r.to_dict() for r in run_suite(cfg)]
    assert suite == [check_identity(i, cfg).to_dict() for i in IdentityId]


def _spy_on_checkers(monkeypatch) -> list:
    # (checker name, orders or None) per checker run, through a wrapper that
    # stands in for each checker in every catalog row that shares it
    calls = []
    spies = {}
    for identity, row in identities.CATALOG.items():
        checker = row.checker
        if checker not in spies:

            def spy(cfg, rs=None, _checker=checker):
                calls.append((_checker.__name__, None if rs is None else tuple(rs)))
                return _checker(cfg) if rs is None else _checker(cfg, rs)

            spies[checker] = spy
        monkeypatch.setitem(identities.CATALOG, identity, row.replace(checker=spies[checker]))
    return calls


def test_run_suite_shares_one_run_between_identities(monkeypatch):
    calls = _spy_on_checkers(monkeypatch)
    reports = run_suite(small_config())
    # 28 identities, 8 of them order slices: each of the 20 checkers runs
    # once, an order-r checker at the union of its identities' orders
    names = [name for name, _ in calls]
    assert len(names) == len(set(names)) == 20
    orders = {name: rs for name, rs in calls if rs is not None}
    assert orders == {
        "_eq12_gf": (1, 2),
        "_eq14": (0, 1, 2),
        "_thm2_6": (1, 2),
        "_thm2_13": (0, 1, 2),
        "_thm2_14": (1, 2),
        "_thm2_15": (1, 2),
    }
    by_id = {r.identity: r for r in reports}
    # a selection without the first identity of the pair still runs the checker
    calls.clear()
    only = run_suite(small_config(), ["THM2_10"])
    assert calls == [("_thm2_13", (0,))]
    assert only[0].to_dict() == by_id[IdentityId.THM2_10].to_dict()


def _same_as_pairs() -> list:
    # (identity, the identity whose comparison it is) per catalog row
    return [(i, IdentityId[row.same_as]) for i, row in identities.CATALOG.items() if row.same_as]


def test_rows_share_a_checker_and_order_only_as_one_comparison():
    rows = list(identities.CATALOG.items())
    pairs = set(_same_as_pairs())
    for k, (a, row) in enumerate(rows):
        for b, other in rows[k + 1 :]:
            if (row.checker, row.order) == (other.checker, other.order):
                assert (a, b) in pairs or (b, a) in pairs, (a, b)


@pytest.mark.parametrize("fault", [None, ("binomial", (4, 2))], ids=["clean", "binomial-4-2"])
def test_a_same_as_pair_reports_alike(fault):
    # on the small grid, and under a fault that trips both members of each
    # pair on the fault grid (see _FAULT_FINGERPRINT), so the counterexamples
    # are compared too
    if fault is None:
        reports = run_suite(small_config())
    else:
        with hooks.perturb(*fault):
            reports = run_suite(CheckConfig(dists=default_config().dists, **_FAULT_GRID))
    by_id = {r.identity: r for r in reports}
    for identity, same in _same_as_pairs():
        report = by_id[identity].replace(identity=same).to_dict()
        assert report == by_id[same].to_dict(), identity
        assert report["status"] == ("pass" if fault is None else "fail")


def test_the_known_discrepancies_are_the_rows_marked_known():
    known = {i for i, row in identities.CATALOG.items() if row.known}
    assert EXPECTED_DISCREPANCIES == known
    # a row marked known fails on the grid and is reported so; every other passes
    statuses = {r.identity: r.status for r in run_suite(small_config())}
    assert statuses == {i: "known-discrepancy" if i in known else "pass" for i in IdentityId}


def test_a_slice_alone_runs_its_one_order_and_with_its_base_one_run(monkeypatch):
    calls = _spy_on_checkers(monkeypatch)
    cfg = small_config()
    alone = run_suite(cfg, ["EQ23_GF"])
    assert calls == [("_thm2_6", (1,))]
    calls.clear()
    both = run_suite(cfg, ["THM2_6", "EQ23_GF"])
    assert calls == [("_thm2_6", (1, 2))]
    assert both[1].to_dict() == alone[0].to_dict()
    assert both[0].to_dict() == check_identity("THM2_6", cfg).to_dict()


# C(5, 4) is read as the order-2 weight C(k + 1, k) at k = 4, and nowhere at
# r = 1 on this grid: the triangle and the binomial rows stop at n = 4.
_ORDER_TWO_GRID = dict(
    lambdas=(F(0), F(1, 2)),
    n_max=4,
    r_max=2,
    dists=(Bernoulli(F(2, 5)), Poisson(F(3, 2))),
    x_points=(F(1), F(-1, 3)),
    series_order=4,
    coeff_depth=8,
)


def test_a_fault_read_only_at_order_two_spares_the_order_one_slices(monkeypatch):
    cfg = CheckConfig(**_ORDER_TWO_GRID)
    selection = ["THM2_6", "EQ23_GF", "THM2_15", "THM2_8"]
    calls = _spy_on_checkers(monkeypatch)
    with hooks.perturb("binomial", (5, 4)):
        reports = run_suite(cfg, selection)
        alone = [check_identity(i, cfg) for i in selection]
    assert calls[:2] == [("_thm2_6", (1, 2)), ("_thm2_15", (1, 2))]
    assert [r.status for r in reports] == ["fail", "pass", "fail", "pass"]
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in alone]
    # the failing base reports the order-2 case, after every order-1 case
    # before it
    assert reports[0].counterexample.params["r"] == "2"
    assert reports[2].counterexample.params["r"] == "2"


def test_run_suite_selection_order():
    sel = [IdentityId.THM2_16, IdentityId.EQ6]
    reports = run_suite(small_config(), sel)
    assert [r.identity for r in reports] == sel


def test_printed_thm29_documented_counterexample():
    cfg = CheckConfig(
        lambdas=(F(1, 2),),
        n_max=1,
        r_max=1,
        dists=(Bernoulli(F(2, 5)),),
        x_points=(F(1),),
        series_order=3,
        coeff_depth=8,
    )
    rep = check_identity(IdentityId.THM2_9_PRINTED, cfg)
    assert rep.status == "known-discrepancy"
    cex = rep.counterexample
    assert cex.params == {
        "dist": "bernoulli:2/5",
        "lambda": "1/2",
        "n": "1",
        "r": "1",
    }
    assert cex.lhs == "[2/5]"
    assert cex.rhs == "[2/5, 4/5]"
    # the corrected form holds on the same grid
    assert check_identity(IdentityId.THM2_9_CORRECTED, cfg).status == "pass"


# --- how _tally compares the two sides of a case ---


def _tally_one(cases):
    return identities._tally(cases, {IdentityId.EQ6: None})[0]


def _scalar(lhs, rhs, params, key="i"):
    # a scalar case: a block of one along key, whose params hold its index;
    # a side given as an int or a Fraction is its numerator over its denominator
    def side(value):
        num, den = value if type(value) is tuple else (value.numerator, value.denominator)
        return [num], den

    return side(lhs), side(rhs), params, key


def test_scalar_sides_compare_by_cross_multiplication():
    equal = [
        ((2, 4), F(1, 2)),
        ((-3, -6), (1, 2)),
        ((3, -6), F(-1, 2)),
        ((-5, 10), (1, -2)),
        ((0, 5), 0),
        ((0, -7), (0, 1)),
        (F(5, 3), (10, 6)),
        (4, (8, 2)),
        (-4, (12, -3)),
        ((F(3, 2), 3), F(1, 2)),
        (F(7, 9), F(7, 9)),
    ]
    rep = _tally_one(_scalar(lhs, rhs, {"i": i}) for i, (lhs, rhs) in enumerate(equal))
    assert rep.status == "pass" and rep.cases == len(equal)
    assert rep.counterexample is None


def test_drive_stops_at_the_first_failing_case():
    pulled = []

    def cases():
        for i, (lhs, rhs) in enumerate(
            [((1, 2), F(1, 2)), ((1, 2), (1, 3)), ((1, 2), (2, 4)), ((0, 1), 1)]
        ):
            pulled.append(i)
            yield _scalar(lhs, rhs, {"i": i})

    rep = _tally_one(cases())
    assert rep.status == "fail" and rep.cases == 2 and pulled == [0, 1]
    assert rep.counterexample.params == {"i": "1"}


@pytest.mark.parametrize(
    "lhs, rhs, shown",
    [
        ((6, -4), F(5, 7), ("-3/2", "5/7")),
        (F(-10, 4), (15, 9), ("-5/2", "5/3")),
        ((0, -3), (2, 2), ("0", "1")),
        ((F(3, 2), 9), 7, ("1/6", "7")),
        (-2, (-14, -21), ("-2", "2/3")),
    ],
)
def test_a_counterexample_prints_both_sides_in_lowest_terms(lhs, rhs, shown):
    params = {"dist": Poisson(F(3, 2)), "lambda": F(-1, 4), "n": 2}
    rep = _tally_one(iter([_scalar(lhs, rhs, params, "n")]))
    cex = rep.counterexample
    assert rep.status == "fail" and (cex.lhs, cex.rhs) == shown
    assert cex.params == {"dist": "poisson:3/2", "lambda": "-1/4", "n": "2"}


# --- a block is the run of scalar cases along one index ---

_NONZERO = st.integers(-30, 30).filter(bool)
# a Fraction by which both parts of a side are scaled, as under hooks.perturb
_FACTOR = st.one_of(st.just(1), st.fractions(-5, 5, max_denominator=7).filter(bool))


def _integral(value):
    return int(value) if value.denominator == 1 else value


@st.composite
def _block_and_cases(draw):
    # a block (lhs, rhs, params, key) and the scalar cases it stands for; the
    # block starts at params[key] when its params name the key, else at 0
    size = draw(st.integers(1, 7))
    lnums = draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size))
    lden = draw(_NONZERO)
    f = draw(_FACTOR)
    lnums, lden = [num * f for num in lnums], lden * f
    values = [F(num) / lden for num in lnums]
    if draw(st.booleans()):
        # a den of its own on the right: the numerators are the values times it
        rden = draw(_NONZERO) * draw(_FACTOR)
        rnums = [_integral(v * rden) for v in values]
    else:
        # the left side scaled
        c = draw(_NONZERO)
        rnums, rden = [num * c for num in lnums], lden * c
    where = draw(st.sampled_from([None, "first", "middle", "last"]))
    if where is not None:
        first = {"first": 0, "middle": size // 2, "last": size - 1}[where]
        later = draw(st.sets(st.integers(first + 1, size - 1))) if first < size - 1 else set()
        for j in {first} | later:
            rnums[j] += draw(_NONZERO)
    # now and then a side over den 0, which has no value
    zero = draw(st.sampled_from(["", "", "", "left", "right", "left right"]))
    lden, rden = (0 if "left" in zero else lden), (0 if "right" in zero else rden)
    params = {"dist": Poisson(F(3, 2)), "lambda": F(-1, 4), "n": 3}
    start = draw(st.one_of(st.none(), st.integers(0, 9)))
    named = params if start is None else {**params, "k": start}
    block = (lnums, lden), (rnums, rden), named, "k"
    cases = [
        _scalar((ln, lden), (rn, rden), {**params, "k": (start or 0) + j}, "k")
        for j, (ln, rn) in enumerate(zip(lnums, rnums))
    ]
    return block, cases


def _outcome(report):
    cex = report.counterexample
    return report.status, report.cases, cex and cex.to_dict()


@settings(max_examples=300, deadline=None)
@given(_block_and_cases())
def test_a_block_reports_what_its_cases_report(block_and_cases):
    block, cases = block_and_cases
    lead = _scalar((1, 2), F(2, 4), {"i": 0})  # a passing case before, counted by both
    outcome = _outcome(_tally_one(iter([lead, block])))
    assert outcome == _outcome(_tally_one(iter([lead, *cases])))
    bad = [
        j
        for j, ((ln, ld), (rn, rd), *_) in enumerate(cases)
        if 0 in (ld, rd) or F(ln[0], ld) != F(rn[0], rd)
    ]
    assert outcome[:2] == (("fail", bad[0] + 2) if bad else ("pass", len(cases) + 1))


def test_a_block_mismatch_names_its_index_and_prints_reduced():
    block = ([0, -9, 4], 6), ([0, -6, 5], 4), {"n": 2}, "k"
    rep = _tally_one(iter([block]))
    assert rep.status == "fail" and rep.cases == 3
    assert rep.counterexample.to_dict() == {
        "params": {"n": "2", "k": "2"},
        "lhs": "2/3",
        "rhs": "5/4",
    }


# A side over den 0 has no value, even where the cross-multiplied sides
# agree (both are 0): the case fails at its first entry, and each side
# prints as its numerators over its den, building no Fraction of den 0.
@pytest.mark.parametrize(
    "case, shown",
    [
        ((([3, 4], 0), ([6, 8], 0), {"n": 2, "k": 5}, "k"), ({"n": "2", "k": "5"}, "3/0", "6/0")),
        ((([3, 4], 0), ([1, 2], 1), {"n": 2}, "k"), ({"n": "2", "k": "0"}, "3/0", "1")),
        ((([F(1, 2)], 2), ([F(3, 2)], F(0)), {"n": 2}, "k"), ({"n": "2", "k": "0"}, "1/4", "3/2/0")),
        ((([1, 2], 0), ([2, 4], 0), {"n": 2}, None), ({"n": "2"}, "[1, 2]/0", "[2, 4]/0")),
        (((pack([1, 2], 64), 1), (pack([1, 2], 64), 0), {"n": 2}, "k", 64, 2), ({"n": "2", "k": "0"}, "1", "1/0")),
        (((pack([1, 2], 64), 0), (pack([0, 1], 64), 0), {"n": 2}, None, 64, 2), ({"n": "2"}, "[1, 2]/0", "[0, 1]/0")),
        ((([2, 4], 2), ([0, 0], 0), {"n": 2}, None), ({"n": "2"}, "[1, 2]", "[]/0")),
    ],
    ids=["block", "one-side", "fraction", "polynomial", "packed-block", "packed-polynomial", "polynomial-one-side"],
)
def test_a_side_over_den_zero_fails_its_first_case(case, shown):
    lead = _scalar((1, 2), F(2, 4), {"i": 0})  # a passing case before, counted
    rep = _tally_one(iter([lead, case]))
    assert (rep.status, rep.cases) == ("fail", 2)
    params, lhs, rhs = shown
    assert rep.counterexample.to_dict() == {"params": params, "lhs": lhs, "rhs": rhs}


@pytest.mark.parametrize("start, j", [(0, 0), (4, 0), (5, 2), (1, 3)])
def test_a_block_whose_params_name_its_key_starts_there(start, j):
    # a mismatch at entry j of a block starting at start is the case start + j,
    # counted as the (j + 1)-th; a block that holds counts every entry
    lnums = [1, 2, 3, 4]
    rnums = [*lnums[:j], lnums[j] + 1, *lnums[j + 1 :]]
    params = {"n": 3, "k": start}
    rep = _tally_one(iter([((lnums, 1), (rnums, 1), params, "k")]))
    assert rep.status == "fail" and rep.cases == j + 1
    assert rep.counterexample.params == {"n": "3", "k": str(start + j)}
    rep = _tally_one(iter([((lnums, 1), (lnums, 2), params, "k")]))
    assert rep.status == "fail" and rep.counterexample.params["k"] == str(start)
    rep = _tally_one(iter([((lnums, 1), ([2 * c for c in lnums], 2), params, "k")]))
    assert (rep.status, rep.cases) == ("pass", len(lnums))


def test_block_sides_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="differ in length"):
        _tally_one(iter([(([1, 2], 1), ([1], 1), {}, "k")]))


# A polynomial case (key None) holds each side as an unreduced (nums, den)
# pair; it compares by cross-multiplication, the shorter side padded with
# zeros, and prints as the reduced Polynomials.
@pytest.mark.parametrize(
    "lhs, rhs",
    [
        (([1, 2], 1), ([2, 4, 6], 2)),
        (([3, 6, 0, 9], 3), ([1, 2], 1)),
        (([0, -4], -8), ([0, 1, 0, 0, 5], 2)),
    ],
    ids=["rhs-longer", "lhs-longer", "both-pairs"],
)
def test_a_polynomial_pair_with_an_extra_top_coefficient_fails(lhs, rhs):
    params = {"n": 3}
    rep = _tally_one(iter([(([7], 1), ([14], 2), {"n": 2}, None), (lhs, rhs, params, None)]))
    reduced = [Polynomial.from_scaled(*side) for side in (lhs, rhs)]
    assert reduced[0] != reduced[1]
    assert rep.status == "fail" and rep.cases == 2
    assert rep.counterexample == identities._counterexample(params, *reduced)
    assert rep.counterexample.lhs == "[" + ", ".join(map(str, reduced[0].coeffs)) + "]"


def test_a_polynomial_pair_with_zero_top_numerators_passes():
    cases = [(([1, 2], 1), ([2, 4, 0, 0], 2), {"n": 1}, None), (([], 5), ([0], 3), {"n": 2}, None)]
    rep = _tally_one(iter(cases))
    assert (rep.status, rep.cases, rep.counterexample) == ("pass", 2, None)


# The spot-check reads the sum moments E[(S_i)_{n,lam}] for i <= n only and
# extends them in i by differences; the floats must be those of the rows read
# directly. For point:1 at lam = 1, E[(S_i)_{n,lam}] = (i)_n is zero for i < n,
# so all but the last of the rows read are zero.
@pytest.mark.parametrize(
    "dist, lam",
    [(d, lam) for d in default_config().dists for lam in default_config().lambdas[:3]]
    + [(PointMass(1), F(1))],
    ids=str,
)
def test_spotcheck_moments_extend_the_rows_read_directly(dist, lam):
    top, terms = 4, 140
    direct = [sum_degenerate_row(dist, i, top, lam) for i in range(terms + 1)]
    columns = identities._sum_moment_floats(dist, lam, top, terms)
    for n, column in enumerate(columns):
        assert column == [row.nums[n] / row.den for row in direct]
    for short in range(top):
        # fewer terms than the degree: the rows read are all there is
        assert identities._sum_moment_floats(dist, lam, top, short) == [
            column[: short + 1] for column in columns
        ]


# Which identities each fault of the acceptance mutation test trips, on that
# test's grid, and the sha256 of the whole run's reports (to_dict, in suite
# order, through json.dumps): case counts, counterexample params and both
# sides included. A change that reroutes a side of a check through a
# different accessor changes these sets; one that changes which case fails
# first, or how it prints, changes the digest.
_FAULT_GRID = dict(
    lambdas=(F(0), F(1, 2), F(-1, 4)),
    n_max=5,
    r_max=2,
    x_points=(F(1), F(1, 2), F(-1, 3)),
    series_order=6,
    coeff_depth=10,
)
_DISCRETE = FiniteDiscrete(((F(0), F(1, 6)), (F(1), F(1, 2)), (F(3), F(1, 3))))
_SUM_MOMENT_TRIPS = "EQ19_INV EQ20_GF THM2_2 THM2_10 THM2_13"
_FAULT_FINGERPRINT = [
    (
        "stirling1",
        (5, 2),
        "EQ6 EQ10_GF EQ11 EQ12_GF EQ14 THM2_3 THM2_11 THM2_12 THM2_16",
        "6959b3dff15834505e34cdb4d17dd8aedda0d133707a131875fcb4d2e384396f",
    ),
    (
        "stirling2",
        (4, 2),
        "EQ6 EQ10_GF EQ11 EQ12_GF EQ14 THM2_11 THM2_12 THM2_16",
        "5394de10e43227d28e2068827d045f33d8ee48c3c6b6e638a2c4c801e62fcbd8",
    ),
    (
        "lah",
        (4, 2),
        "THM2_3",
        "4652b23d3a631f20b0dfa65b3f9f55c6c9996407204ed125b8d5ab3a564af7d6",
    ),
    (
        "binomial",
        (4, 2),
        "EQ11 EQ14 EQ19_INV EQ20_GF EQ22_GF EQ23_GF EQ29_BELL THM2_1 THM2_2 "
        "THM2_3 THM2_5 THM2_6 THM2_8 THM2_9_CORRECTED THM2_10 THM2_11 THM2_12 "
        "THM2_13 THM2_15 THM2_16",
        "43faddc275459f434f73997006987d6ac030be7e755da9e372c540efbc2a1a32",
    ),
    (
        "factorial",
        (5,),
        "EQ10_GF EQ11 EQ12_GF EQ14 EQ15_GF EQ19_INV EQ23_GF EQ29_BELL THM2_1 "
        "THM2_2 THM2_4 THM2_5 THM2_6 THM2_7 THM2_8 THM2_9_CORRECTED THM2_10 "
        "THM2_12 THM2_13 THM2_14 THM2_15",
        "66989821f03d96c12a1d0d0b8331ddade558dafed695b69186fdb15d672d841a",
    ),
    (
        "raw_moment",
        (Poisson(F(3, 2)), 3),
        "THM2_11 THM2_12",
        "13d20c2604a2acbfd0bb499afff510aac8b3b9fcacf174a548fa10601f8624b3",
    ),
    (
        "raw_moment",
        (Bernoulli(F(2, 5)), 2),
        "THM2_16",
        "f11a6297d82ff9f4bcca451f8e5e9a621abb46d43445cf00012679608e8e2da8",
    ),
    (
        "raw_moment",
        (Gamma(1, 1), 2),
        "THM2_3",
        "9c98fb568295348b16786828586fda28cf6026e72eb304c7f58296c3cb2ce7d3",
    ),
    (
        "sum_moment",
        (_DISCRETE, 2, 2),
        _SUM_MOMENT_TRIPS,
        "bd99e72fe3bfe7f588ad2bb9867713d021fc01e7d26e99dfe4f85e5d3812518b",
    ),
    (
        "sum_moment",
        (PointMass(F(5, 2)), 3, 2),
        _SUM_MOMENT_TRIPS,
        "25bc87eb023905d8481214b1a2de597de5e3b5fa8ada71aaaaf1115da27b623d",
    ),
]


@pytest.mark.parametrize(
    "table, key, tripped, digest",
    _FAULT_FINGERPRINT,
    ids=[f"{t}-{i}" for i, (t, *_) in enumerate(_FAULT_FINGERPRINT)],
)
def test_each_fault_trips_exactly_its_identities(table, key, tripped, digest):
    cfg = CheckConfig(dists=default_config().dists, **_FAULT_GRID)
    with hooks.perturb(table, key):
        reports = run_suite(cfg)
    assert [r.identity.value for r in reports if r.status == "fail"] == tripped.split()
    document = json.dumps([r.to_dict() for r in reports])
    assert hashlib.sha256(document.encode()).hexdigest() == digest


# A fault of E[Y**0] shifts B(0), the constant term of B = E[e_lam^Y(t)] - 1.
# exp(x B) then has the irrational constant term e^{x B(0)}, so EQ22_GF
# compares x B(0) with 0 at n = 0; and at x B(0) = 1, 1 - x B has no inverse,
# so THM2_6 reports its first block's own sides, (1 - x B) G_1 against 1.
@pytest.mark.parametrize("delta", [1, F(-2, 3)], ids=["1", "-2/3"])
@pytest.mark.parametrize("dist", default_config().dists, ids=lambda d: d.spec_string())
def test_a_fault_of_the_zeroth_moment_is_reported(dist, delta):
    cfg = CheckConfig(dists=default_config().dists, **_FAULT_GRID)
    with hooks.perturb("raw_moment", (dist, 0), delta):
        reports = {r.identity: r.counterexample for r in run_suite(cfg)}
    assert len(reports) == 28
    head = {"dist": dist.spec_string(), "lambda": "0", "x": "1"}
    assert reports[IdentityId.EQ22_GF].to_dict() == {
        "params": {**head, "n": "0"}, "lhs": identities._fmt(F(delta)), "rhs": "0"
    }
    if delta == 1 and dist == PointMass(1):
        assert reports[IdentityId.THM2_6].to_dict() == {
            "params": {**head, "r": "1", "n": "0"}, "lhs": "0", "rhs": "1"
        }


# A fault that zeroes k! zeroes each den that carries it. Both sides of
# EQ20_GF carry k!, so their cross-multiplied numerators agreed as 0 = 0 and
# it passed; THM2_4, THM2_14 and EQ15_GF carry 0! on their left side only,
# and the suite raised building that side's Fraction for the counterexample.
# A side over den 0 has no value: its first case fails, printed over 0.
@pytest.mark.parametrize("k", range(4))
def test_a_fault_that_zeroes_a_factorial_fails_the_dens_that_carry_it(k):
    cfg = CheckConfig(dists=default_config().dists, **_FAULT_GRID)
    with hooks.perturb("factorial", (k,), -factorial(k)):
        reports = {r.identity: r for r in run_suite(cfg)}
    head = {"dist": "point:1", "lambda": "0"}
    side = "1/0" if k == 0 else "0/0"  # at n = 0 both sides are 0**k over k! = 0
    report = reports[IdentityId.EQ20_GF]
    assert (report.status, report.cases) == ("fail", 7 * k + 1)
    assert report.counterexample.to_dict() == {
        "params": {**head, "k": str(k), "n": "0"}, "lhs": side, "rhs": side
    }
    if k == 0:
        for identity, params in [
            (IdentityId.THM2_4, {**head, "n": "0", "k": "0"}),
            (IdentityId.THM2_14, {**head, "r": "1", "n": "0", "k": "0"}),
            (IdentityId.EQ15_GF, {"draw": "0", "k": "0", "n": "0"}),
        ]:
            cex = reports[identity].counterexample.to_dict()
            assert (reports[identity].status, reports[identity].cases) == ("fail", 1)
            assert cex == {"params": params, "lhs": "1/0", "rhs": "0"}


# A fault that zeroes k!, 1 <= k <= 5 = n_max, zeroes the divisor of a
# partition coefficient of B_{k,1} = k! / k! x_k. That coefficient has no
# value, so each partial Bell side that reads it is over den 0 and fails at
# its first case: EQ15_GF's block k = 1 (at k = 1 its first entry, B_{1,1},
# is the one with no value, printed as 0), EQ29_BELL's row n = k and THM2_5's
# one block. The suite raised ZeroDivisionError building the coefficient; 0!,
# 6! and 7! divide no coefficient of the grid.
@pytest.mark.parametrize("k", range(8))
def test_a_zeroed_factorial_puts_the_partial_bell_sides_over_zero(k):
    cfg = CheckConfig(dists=default_config().dists, **_FAULT_GRID)
    with hooks.perturb("factorial", (k,), -factorial(k)):
        reports = {r.identity: r for r in run_suite(cfg)}
    assert len(reports) == 28
    head = {"dist": "point:1", "lambda": "0"}
    bell = {
        IdentityId.EQ15_GF: ({"draw": "0", "k": "1", "n": "1"}, "0/0" if k == 1 else "15/0"),
        IdentityId.EQ29_BELL: ({**head, "n": str(k), "k": "0"}, "0/0"),
        IdentityId.THM2_5: ({**head, "n": "0"}, "1/0"),
    }
    for identity, (params, rhs) in bell.items():
        report = reports[identity]
        if 1 <= k <= 5:
            cex = report.counterexample.to_dict()
            assert report.status == "fail"
            assert (cex["params"], cex["rhs"]) == (params, rhs)
        elif k > 5:
            assert report.status == "pass"


# Every side of every case is its numerators over one den: an int, or under
# hooks.perturb a Fraction, and never a list of dens. 1! = 1/3 puts a
# Fraction into the dens of EQ15_GF (at k = 1) and of THM2_14 (at r = 2).
@pytest.mark.parametrize("fault", [None, ("factorial", (1,), F(-2, 3))], ids=["none", "factorial"])
def test_every_case_side_is_over_one_den(fault):
    checkers = list(dict.fromkeys(row.checker for row in identities.CATALOG.values()))
    assert len(checkers) == 20
    if fault is None:
        cfg, context = small_config(), contextlib.nullcontext()
    else:
        cfg, context = CheckConfig(dists=default_config().dists, **_FAULT_GRID), hooks.perturb(*fault)
    dens = set()
    with context:
        for checker in checkers:
            for case in checker(cfg):
                for nums, den in case[:2]:
                    entries = (list, tuple) if len(case) == 4 else int
                    assert isinstance(nums, entries), checker.__name__
                    assert type(den) in (int, Fraction), checker.__name__
                    dens.add(type(den))
    assert dens == ({int} if fault is None else {int, Fraction})


def test_the_fault_sweep_digests_the_suite_as_the_fingerprint_does():
    spec = importlib.util.spec_from_file_location(
        "fault_sweep", Path(__file__).parents[1] / "tools" / "fault_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.GRID == _FAULT_GRID
    faults = sweep.faults()
    assert len(faults) == len(set(faults)) == 618
    cfg = CheckConfig(dists=default_config().dists, **sweep.GRID)
    table, key, _, digest = _FAULT_FINGERPRINT[2]
    assert sweep.outcome(cfg, table, key, 1) == {
        "table": table, "key": list(key), "delta": "1", "sha256": digest
    }
    line = sweep.outcome(cfg, "raw_moment", (PointMass(1), 0), 1)
    assert line["key"] == ["point:1", 0] and "sha256" in line


# Binomial faults off the diagonal k = i - k. An order slice reads C(i, i - k)
# where a first-order body of its own would read C(i, k), so these keys trip
# the sliced identities through the other entry of the pair. Only the sets
# are pinned: the first counterexample of a slice may sit at another case.
@pytest.mark.parametrize(
    "key, tripped",
    [
        ((7, 3), "EQ11 EQ14 THM2_2 THM2_10 THM2_12 THM2_13"),
        (
            (6, 1),
            "EQ11 EQ14 EQ20_GF EQ22_GF EQ23_GF THM2_1 THM2_2 THM2_6 THM2_10 "
            "THM2_12 THM2_13",
        ),
    ],
)
def test_an_off_diagonal_binomial_fault_trips_its_identities(key, tripped):
    cfg = CheckConfig(dists=default_config().dists, **_FAULT_GRID)
    with hooks.perturb("binomial", key):
        reports = run_suite(cfg)
    assert [r.identity.value for r in reports if r.status == "fail"] == tripped.split()


# A fault whose first mismatch lies inside a packed block, past its first
# case (along names the block's index): the report is the one the per-entry
# comparison gave, case count and counterexample alike. Digests taken while
# these blocks were compared entry by entry. A Fraction delta puts a
# Fraction into a packed table, which folds it into its den.
_PACKED_BLOCK_FAULTS = [
    (
        "THM2_13",
        "sum_moment",
        (_DISCRETE, 9, 2),
        1,
        "i",
        "fc7ca6257e39ab1348e1601ce5997e995864449a8ec8408ea93fde91c8c2a205",
    ),
    (
        "EQ19_INV",
        "factorial",
        (3,),
        F(1, 3),
        "k",
        "54a44dde7e27c8e77d7a6e9ecdd59574d8aa214e731333104fa58e671bd4b4ac",
    ),
    (
        "EQ20_GF",
        "sum_moment",
        (Gamma(F(3, 2), F(2)), 2, 3),
        F(-2, 7),
        "n",
        "ef9305c233a06cd88b9053b2004d3a946028f1bc8ca64018793d1ee347384938",
    ),
    (
        "EQ14",
        "binomial",
        (7, 3),
        F(1, 2),
        "k",
        "12bc60b4b4fe33e54a72e979873df15d3742ae3eb9f66749a915199f0502d429",
    ),
]


@pytest.mark.parametrize(
    "identity, table, key, delta, along, digest",
    _PACKED_BLOCK_FAULTS,
    ids=[case[0] for case in _PACKED_BLOCK_FAULTS],
)
def test_a_packed_block_reports_its_first_mismatch_as_entry_by_entry(
    identity, table, key, delta, along, digest
):
    cfg = CheckConfig(dists=default_config().dists, **_FAULT_GRID)
    with hooks.perturb(table, key, delta):
        report = check_identity(identity, cfg)
    assert report.status == "fail"
    assert int(report.counterexample.params[along]) > 0
    document = json.dumps(report.to_dict())
    assert hashlib.sha256(document.encode()).hexdigest() == digest


def test_report_serialization():
    rep = check_identity(IdentityId.THM2_16, small_config())
    doc = rep.to_dict()
    assert doc["identity"] == "THM2_16"
    assert doc["status"] == "pass"
    assert doc["counterexample"] is None
    assert doc["cases"] == rep.cases


def test_numeric_spotcheck_passes():
    out = thm2_2_numeric_spotcheck(small_config(), terms=120)
    assert out["ok"]
    assert out["failures"] == []
    assert out["cases"] > 0
    assert out["max_rel_err"] < 1e-9


# --- injection hooks ---


def test_perturb_shifts_one_entry_and_restores():
    base = lah(4, 2)
    with hooks.perturb("lah", (4, 2)):
        assert lah(4, 2) == base + 1
        assert lah(4, 3) == 12  # neighbors untouched
    assert lah(4, 2) == base


def test_shifted_is_identity_unless_the_entry_is_perturbed():
    value = F(7, 3)
    assert hooks.shifted("raw_moment", ("d", 2), value) is value
    with hooks.perturb("raw_moment", ("d", 2), F(1, 2)):
        assert hooks.shifted("raw_moment", ("d", 2), value) == F(17, 6)
        assert hooks.shifted("raw_moment", ("d", 3), value) is value
    assert hooks.shifted("raw_moment", ("d", 2), value) is value


def test_perturb_rejects_unknown_table():
    with pytest.raises(ValueError):
        with hooks.perturb("nonsense", (1,)):
            pass


def test_perturb_rejects_double_registration():
    with hooks.perturb("stirling1", (5, 2)):
        with pytest.raises(ValueError):
            with hooks.perturb("stirling1", (5, 2), delta=2):
                pass


def test_perturbed_lah_breaks_gamma_closed_form():
    cfg = small_config()
    with hooks.perturb("lah", (4, 2)):
        rep = check_identity(IdentityId.THM2_3, cfg)
    assert rep.status == "fail"
    assert rep.counterexample is not None
    assert check_identity(IdentityId.THM2_3, cfg).status == "pass"


def test_perturbed_factorial_cascades():
    with hooks.perturb("factorial", (3,)):
        assert factorial(3) == 7
        rep = check_identity(IdentityId.EQ10_GF, small_config())
    assert rep.status == "fail"
    assert factorial(3) == 6


def test_perturbed_stirling1_detected():
    lam = F(1, 2)
    s2_before = stirling2_degenerate(4, 2, lam)
    bell_before = degenerate_bell_poly(4, lam)
    with hooks.perturb("stirling1", (4, 2)):
        assert stirling1(4, 2) == 12
        # the degenerate Stirling rows and the families built on them see it
        assert stirling2_degenerate(4, 2, lam) != s2_before
        assert degenerate_bell_poly(4, lam) != bell_before
        rep = check_identity(IdentityId.EQ6, small_config())
    assert rep.status == "fail"
    assert stirling1(4, 2) == 11
    assert stirling2_degenerate(4, 2, lam) == s2_before
    assert degenerate_bell_poly(4, lam) == bell_before


_CONFIG_FIELDS = ("lambdas", "n_max", "r_max", "dists", "x_points", "series_order", "coeff_depth")


@pytest.mark.parametrize(
    "name, bad",
    [
        ("lambdas", ()),
        ("n_max", 0),
        ("r_max", 0),
        ("dists", ()),
        ("dists", (F(1),)),
        ("x_points", ()),
        ("series_order", 0),
        ("coeff_depth", 0),
    ],
)
def test_an_invalid_override_of_the_default_config_raises(name, bad):
    fields = {f: getattr(default_config(), f) for f in _CONFIG_FIELDS}
    # the fields keep their positional order
    cfg = CheckConfig(*fields.values())
    assert all(getattr(cfg, f) == v for f, v in fields.items())
    with pytest.raises(ValueError):
        CheckConfig(**{**fields, name: bad})


def test_config_is_immutable_and_coerces_its_grids():
    cfg = CheckConfig(lambdas=[0, F(1, 2)], n_max=2, r_max=1, dists=[PointMass(1)],
                      x_points=[1], series_order=3, coeff_depth=4)
    assert cfg.lambdas == (F(0), F(1, 2)) and type(cfg.lambdas[0]) is Fraction
    assert cfg.dists == (PointMass(1),) and cfg.x_points == (F(1),)
    with pytest.raises(AttributeError):
        cfg.n_max = 3


def test_replace_validates_the_changed_config():
    cfg = default_config()
    narrow = cfg.replace(n_max=3, r_max=1)
    assert (narrow.n_max, narrow.r_max, narrow.dists) == (3, 1, cfg.dists)
    assert cfg.n_max == 10 and narrow != cfg
    with pytest.raises(ValueError, match="n_max"):
        cfg.replace(n_max=0)


def test_eq29_bell_and_thm25_read_one_build_of_the_partial_bell_columns(monkeypatch):
    calls = []
    real = identities.partial_bell_numerator

    def counting(n, k, nums):
        calls.append((n, k))
        return real(n, k, nums)

    monkeypatch.setattr(identities, "partial_bell_numerator", counting)
    cfg = small_config()
    hooks.clear_caches()
    first = check_identity(IdentityId.EQ29_BELL, cfg)
    built = len(calls)
    # one sum over partitions per (dist, lam, n, k)
    assert built == len(cfg.dists) * len(cfg.lambdas) * (cfg.n_max + 1) * (cfg.n_max + 2) // 2
    second = check_identity(IdentityId.THM2_5, cfg)
    assert len(calls) == built and first.ok and second.ok
    with hooks.perturb("factorial", (3,)):
        assert not identities._partial_bell_rows
    assert not identities._partial_bell_rows


def test_partial_bell_rows_grow_one_entry_per_dist_and_lam(monkeypatch):
    calls = []
    real = identities.partial_bell_numerator

    def counting(n, k, nums):
        calls.append((n, k))
        return real(n, k, nums)

    monkeypatch.setattr(identities, "partial_bell_numerator", counting)
    # the one table of identities registered with hooks.memo, found by identity
    (table,) = [t for t in vars(identities).values() if any(t is m for m in hooks._memos)]
    cfg = small_config()
    hooks.clear_caches()
    assert check_identity(IdentityId.EQ29_BELL, cfg).ok
    built = len(calls)
    wide = cfg.replace(n_max=6)
    assert check_identity(IdentityId.EQ29_BELL, wide).ok
    grids = len(cfg.dists) * len(cfg.lambdas)
    assert len(table) == grids
    # n = 5 and 6 are summed, k = 0..n, and the rows up to 4 are read again
    assert len(calls) - built == grids * (6 + 7)

    def values():
        # B_{n,k} = nums[k] / den of every row
        return {
            key: [[F(c, den) for c in nums] for nums, den in rows]
            for key, rows in table.items()
        }

    # the grown rows hold the values of a build at n_max 6 alone
    grown = values()
    hooks.clear_caches()
    assert check_identity(IdentityId.EQ29_BELL, wide).ok
    assert values() == grown
