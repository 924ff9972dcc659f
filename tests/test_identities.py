"""Identity suite behavior on reduced grids, plus the injection hooks."""

from fractions import Fraction

import pytest

from fubini import hooks
from fubini.combinat import factorial, lah, stirling1, stirling2_degenerate
from fubini.distributions import Bernoulli, Gamma, PointMass, Poisson
from fubini.families import degenerate_bell_poly
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
    # enough distinct lambdas to certify degree <= n_max identities
    assert len(cfg.lambdas) >= cfg.n_max + 1


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
