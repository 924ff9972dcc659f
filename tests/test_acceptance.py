"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; every criterion appears as its
own test node, and each also prints an explicit `criterion N ...: PASS` line
(visible with -s, or in the captured-output section on failure).
"""

import functools
import json
import math
import time
from fractions import Fraction

from cli_runner import invoke

from fubini import hooks
from fubini.combinat import binomial, factorial, partial_bell
from fubini.distributions import (
    Bernoulli,
    FiniteDiscrete,
    Gamma,
    PointMass,
    Poisson,
)
from fubini.identities import (
    CheckConfig,
    IdentityId,
    check_identity,
    default_config,
    run_suite,
    suite_ok,
)
from fubini.probabilistic import (
    degenerate_moment,
    mgf_degenerate_series,
    prob_fubini_poly,
    prob_stirling2,
    sum_degenerate_moment,
)

F = Fraction


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({label}): FAIL")
                raise
            print(f"criterion {num} ({label}): PASS")

        return wrapper

    return deco


def set_partitions(elems):
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


@criterion(1, "identity suite, exact, under 60s")
def test_criterion_1_identity_suite():
    t0 = time.monotonic()
    res = invoke(["verify", "--suite", "all"], env={"NO_COLOR": "1"})
    elapsed = time.monotonic() - t0
    assert res.exit_code == 0, res.stderr
    doc = json.loads(res.stdout)
    assert len(doc["rows"]) == 28
    statuses = {row["identity"]: row for row in doc["rows"]}
    for name, row in statuses.items():
        if name == "THM2_9_PRINTED":
            assert row["status"] == "known-discrepancy"
            cex = row["counterexample"]
            assert cex["params"]["n"] == "1"
            assert cex["params"]["r"] == "1"
        else:
            assert row["status"] == "pass", (name, row)
    assert doc["summary"]["ok"] is True
    assert doc["summary"]["passes"] == 27
    assert doc["summary"]["known_discrepancies"] == 1
    assert doc["numeric_spotcheck"]["ok"] is True
    assert elapsed < 60, f"suite took {elapsed:.1f}s"


@criterion(2, "classical Fubini numbers vs brute-force enumeration")
def test_criterion_2_classical_reduction():
    expected = [1, 1, 3, 13, 75, 541, 4683]
    dist = PointMass(1)
    values = [prob_fubini_poly(dist, n, F(0)).evaluate(1) for n in range(7)]
    assert values == expected
    for n in range(7):
        brute = sum(
            math.factorial(len(p)) for p in set_partitions(list(range(n)))
        )
        assert brute == expected[n]


@criterion(3, "three-path agreement for the probabilistic column numbers")
def test_criterion_3_three_path_agreement():
    cfg = default_config()
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            moments = [degenerate_moment(dist, i, lam) for i in range(1, 10)]
            for n in range(9):
                inverted = []
                for k in range(n + 1):
                    # path 1: triangle grown by the column recurrence
                    direct = prob_stirling2(dist, n, k, lam)
                    # path 2: partial Bell polynomial of the moments
                    bell = partial_bell(n, k, moments[: max(n - k + 1, 0)])
                    # path 3: triangular inversion of the binomial transform
                    acc = sum_degenerate_moment(dist, k, n, lam)
                    for j in range(k):
                        acc -= binomial(k, j) * factorial(j) * inverted[j]
                    inv = acc / factorial(k)
                    inverted.append(inv)
                    assert direct == bell == inv, (dist, lam, n, k)


@criterion(4, "generating-function oracle at three rational points")
def test_criterion_4_generating_function_oracle():
    cfg = default_config()
    for dist in cfg.dists:
        for lam in cfg.lambdas:
            base = mgf_degenerate_series(dist, lam, cfg.series_order) - 1
            for x0 in cfg.x_points:
                series = (1 - base * x0).reciprocal()
                for n in range(cfg.series_order + 1):
                    assert series.egf_coefficient(n) == prob_fubini_poly(
                        dist, n, lam
                    ).evaluate(x0), (dist, lam, x0, n)


@criterion(5, "corrected derivative identity; printed form flagged")
def test_criterion_5_thm29():
    cfg = default_config()
    corrected = check_identity(IdentityId.THM2_9_CORRECTED, cfg)
    assert corrected.status == "pass"
    printed = check_identity(IdentityId.THM2_9_PRINTED, cfg)
    assert printed.status == "known-discrepancy"
    assert printed.counterexample.params["n"] == "1"
    assert printed.counterexample.params["r"] == "1"
    # the documented bernoulli:2/5 counterexample, in isolation
    narrow = CheckConfig(
        lambdas=(F(1, 2),),
        n_max=1,
        r_max=1,
        dists=(Bernoulli(F(2, 5)),),
        x_points=(F(1),),
        series_order=3,
        coeff_depth=8,
    )
    rep = check_identity(IdentityId.THM2_9_PRINTED, narrow)
    assert rep.status == "known-discrepancy"
    assert rep.counterexample.lhs == "[2/5]"
    assert rep.counterexample.rhs == "[2/5, 4/5]"


@criterion(6, "Monte Carlo concordance, |z| < 5, under 30s each")
def test_criterion_6_monte_carlo():
    configs = [
        ["--dist", "poisson:2", "--k", "3", "--n", "4"],
        ["--dist", "bernoulli:2/5", "--k", "2", "--n", "2"],
        ["--dist", "gamma:1,1", "--k", "2", "--n", "3"],
    ]
    for extra in configs:
        t0 = time.monotonic()
        res = invoke(
            ["mc", *extra, "--lambda", "1/2", "--samples", "1000000", "--seed", "42"]
        )
        elapsed = time.monotonic() - t0
        assert res.exit_code == 0, res.stderr
        row = json.loads(res.stdout)["rows"][0]
        assert abs(row["zscore"]) < 5, (extra, row)
        assert elapsed < 30, f"{extra} took {elapsed:.1f}s"
    # the poisson case pins the documented exact value
    res = invoke(
        ["mc", "--dist", "poisson:2", "--k", "3", "--n", "4", "--lambda", "1/2",
         "--samples", "1000000", "--seed", "42"]
    )
    assert json.loads(res.stdout)["rows"][0]["exact"] == "1971"


@criterion(7, "mutation sensitivity: 10 injected faults all detected")
def test_criterion_7_mutation_sensitivity():
    cfg = CheckConfig(
        lambdas=(F(0), F(1, 2), F(-1, 4)),
        n_max=5,
        r_max=2,
        dists=default_config().dists,
        x_points=(F(1), F(1, 2), F(-1, 3)),
        series_order=6,
        coeff_depth=10,
    )
    discrete = FiniteDiscrete(
        ((F(0), F(1, 6)), (F(1), F(1, 2)), (F(3), F(1, 3)))
    )
    sites = [
        ("stirling1", (5, 2)),
        ("stirling2", (4, 2)),
        ("lah", (4, 2)),
        ("binomial", (4, 2)),
        ("factorial", (5,)),
        ("raw_moment", (Poisson(F(3, 2)), 3)),
        ("raw_moment", (Bernoulli(F(2, 5)), 2)),
        ("raw_moment", (Gamma(1, 1), 2)),
        ("sum_moment", (discrete, 2, 2)),
        ("sum_moment", (PointMass(F(5, 2)), 3, 2)),
    ]
    assert suite_ok(run_suite(cfg)), "baseline grid must be clean"
    for table, key in sites:
        with hooks.perturb(table, key):
            reports = run_suite(cfg)
        failed = [r.identity.value for r in reports if r.status == "fail"]
        assert failed, f"perturbing {table}{key} went undetected"
    assert suite_ok(run_suite(cfg)), "caches must be restored after injection"
