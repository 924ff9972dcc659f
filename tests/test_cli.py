"""CLI contract: document schemas, determinism, exit codes, round-trips."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from cli_runner import invoke
from hypothesis import given, settings, strategies as st

from fubini import cli, hooks
from fubini.cli import main
from fubini.distributions import Bernoulli, Poisson
from fubini.identities import IdentityId, default_config
from fubini.poly import Polynomial
from fubini.rational import format_rational, parse_rational
from fubini.sampling import MAX_DEGREE, MAX_DRAWS, MAX_SAMPLES, MCResult

F = Fraction


def test_table_json_document():
    res = invoke(
        ["table", "--dist", "bernoulli:2/5", "--lambda", "1/2", "--n-max", "2"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["command"] == "table"
    assert doc["params"] == {
        "dist": "bernoulli:2/5",
        "lambda": "1/2",
        "n_max": 2,
        "r": None,
    }
    row = doc["rows"][2]
    assert row["coefficients"] == ["0", "1/5", "8/25"]
    assert row["value_at_1"] == "13/25"


def test_an_order_r_table_grows_one_row_of_order_weights():
    from fubini import combinat

    hooks.clear_caches()
    res = invoke(["table", "--dist", "discrete:0=1/6,1=1/2,3=1/3", "--lambda", "-7/2",
                  "--n-max", "40", "--r", "3"])
    assert res.exit_code == 0, res.stderr
    # every row of the table reads a prefix of the one row of r = 3
    (row,) = combinat._order_weights.values()
    assert [F(c, row.den) for c in row.nums] == [
        math.comb(k + 2, k) * math.factorial(k) for k in range(len(row))
    ]
    assert len(row) == 41


def test_table_csv_document():
    res = invoke(
        [
            "table",
            "--dist",
            "bernoulli:2/5",
            "--lambda",
            "1/2",
            "--n-max",
            "2",
            "--format",
            "csv",
        ]
    )
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "n,coefficients,value_at_1"
    assert lines[3] == '2,"0,1/5,8/25",13/25'


def test_table_point_mass_classical_values():
    res = invoke(["table", "--dist", "point:1", "--lambda", "0", "--n-max", "4"])
    doc = json.loads(res.stdout)
    assert [row["value_at_1"] for row in doc["rows"]] == [
        "1",
        "1",
        "3",
        "13",
        "75",
    ]


def test_table_round_trip_coefficients():
    res = invoke(
        ["table", "--dist", "gamma:3/2,2", "--lambda", "-1/4", "--n-max", "5"]
    )
    doc = json.loads(res.stdout)
    for row in doc["rows"]:
        poly = Polynomial([parse_rational(c) for c in row["coefficients"]])
        assert poly.evaluate(1) == parse_rational(row["value_at_1"])


def test_table_order_r_flag():
    res = invoke(
        [
            "table",
            "--dist",
            "bernoulli:2/5",
            "--lambda",
            "1/3",
            "--n-max",
            "1",
            "--r",
            "2",
        ]
    )
    doc = json.loads(res.stdout)
    assert doc["params"]["r"] == 2
    assert doc["rows"][1]["coefficients"] == ["0", "4/5"]


def test_table_rejects_bad_dist():
    res = invoke(["table", "--dist", "poisson:0", "--n-max", "2"])
    assert res.exit_code == 2
    assert "poisson:0" in res.stderr
    res = invoke(["table", "--dist", "bernoulli:x", "--n-max", "2"])
    assert res.exit_code == 2
    assert "'x'" in res.stderr


def test_table_rejects_bad_params():
    assert invoke(["table", "--dist", "point:1", "--n-max", "-1"]).exit_code == 2
    assert (
        invoke(
            ["table", "--dist", "point:1", "--n-max", "2", "--r", "0"]
        ).exit_code
        == 2
    )
    assert (
        invoke(
            ["table", "--dist", "point:1", "--lambda", "0.5", "--n-max", "2"]
        ).exit_code
        == 2
    )


def test_series_json_and_csv():
    res = invoke(
        ["series", "--dist", "point:1", "--lambda", "1", "--order", "2", "--x", "1"]
    )
    doc = json.loads(res.stdout)
    assert [r["egf_coefficient"] for r in doc["rows"]] == ["1", "1", "2"]
    res = invoke(
        [
            "series",
            "--dist",
            "gamma:1,1",
            "--lambda",
            "1/2",
            "--order",
            "1",
            "--format",
            "csv",
        ]
    )
    assert res.stdout == "n,egf_coefficient\n0,1\n1,1\n"


def test_series_order_zero():
    res = invoke(
        ["series", "--dist", "bernoulli:2/5", "--lambda", "1/2", "--order", "0"]
    )
    doc = json.loads(res.stdout)
    assert doc["rows"] == [{"n": 0, "egf_coefficient": "1"}]


def test_output_determinism():
    args = [
        "mc",
        "--dist",
        "discrete:0=1/6,1=1/2,3=1/3",
        "--k",
        "2",
        "--n",
        "2",
        "--lambda",
        "1/4",
        "--samples",
        "5000",
        "--seed",
        "9",
    ]
    first = invoke(args)
    second = invoke(args)
    assert first.exit_code == 0
    assert first.stdout == second.stdout
    assert first.stdout_bytes == second.stdout_bytes


def test_mc_json_schema_and_z():
    res = invoke(
        [
            "mc",
            "--dist",
            "bernoulli:2/5",
            "--k",
            "2",
            "--n",
            "2",
            "--lambda",
            "1/2",
            "--samples",
            "50000",
            "--seed",
            "42",
        ]
    )
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    row = doc["rows"][0]
    assert row["exact"] == "18/25"
    assert abs(row["zscore"]) < 5
    assert row["suspicious"] is False
    assert doc["params"]["seed"] == 42


def test_mc_point_mass_null_zscore():
    res = invoke(
        [
            "mc",
            "--dist",
            "point:1",
            "--k",
            "3",
            "--n",
            "2",
            "--lambda",
            "1/2",
            "--samples",
            "1000",
        ]
    )
    doc = json.loads(res.stdout)
    row = doc["rows"][0]
    assert row["estimate"] == 7.5
    assert row["stderr"] == 0.0
    assert row["zscore"] is None
    # float rounding in the statistic used to give a z-score of about 32
    res = invoke(
        [
            "mc",
            "--dist",
            "point:5/2",
            "--k",
            "30",
            "--n",
            "5",
            "--lambda",
            "7/5",
            "--samples",
            "1000",
        ]
    )
    assert res.exit_code == 0, res.stderr
    row = json.loads(res.stdout)["rows"][0]
    assert row["stderr"] == 0.0
    assert row["zscore"] is None
    assert row["suspicious"] is False


def test_mc_large_k_sum_moment():
    # the sum moments used to recurse k levels deep and crash from k = 500
    res = invoke(
        ["mc", "--dist", "bernoulli:1/2", "--k", "500", "--n", "2", "--samples", "1000"]
    )
    assert res.exit_code == 0, res.stderr
    row = json.loads(res.stdout)["rows"][0]
    # Binomial(500, 1/2): variance 125 plus squared mean 250**2
    assert row["exact"] == "62625"
    assert abs(row["zscore"]) < 5


@pytest.mark.parametrize(
    "spec, dist", [("poisson:3/2", Poisson(F(3, 2))), ("bernoulli:2/5", Bernoulli(F(2, 5)))]
)
def test_mc_flags_a_shifted_exact_value(spec, dist):
    # a table law's histogram estimate still catches a wrong exact value:
    # E[S_5**4] shifted by 20 standard errors of the estimate of
    # E[(S_5)_{4,1/2}], whose S**4 coefficient is 1
    argv = ["mc", "--dist", spec, "--k", "5", "--n", "4", "--lambda", "1/2",
            "--samples", "100000", "--seed", "1"]
    res = invoke(argv)
    assert res.exit_code == 0, res.stderr
    row = json.loads(res.stdout)["rows"][0]
    delta = F(round(20 * row["stderr"]))
    with hooks.perturb("sum_moment", (dist, 5, 4), delta):
        res = invoke(argv)
    assert res.exit_code == 1, res.stderr
    shifted = json.loads(res.stdout)["rows"][0]
    assert F(shifted["exact"]) == F(row["exact"]) + delta
    assert shifted["estimate"] == row["estimate"] and shifted["suspicious"]
    assert "exceeds 5" in res.stderr


# The pinned documents: each entry of tests/golden.json is an argv, the
# sha256 of its stdout and why it is pinned, with the digest taken before the
# change the entry guards. Any change in a document fails here; the CI
# workflow checks the same entries against the installed console script.
GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_DOCUMENTS = [
    (doc["argv"], doc["sha256"]) for doc in json.loads(GOLDEN_PATH.read_text())
]

# a point mass: a null z-score in JSON, an empty cell in CSV
_MC_POINT = ["mc", "--dist", "point:5/2", "--k", "3", "--n", "2", "--lambda", "7/5",
             "--samples", "1000"]


@pytest.mark.parametrize(
    "args,digest", GOLDEN_DOCUMENTS, ids=[" ".join(a) for a, _ in GOLDEN_DOCUMENTS]
)
def test_golden_documents(args, digest):
    res = invoke(args)
    assert res.exit_code == 0, res.stderr
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--dist", "gamma:3/2,2", "--lambda", "1/3", "--n-max", "3"],
        ["series", "--dist", "bernoulli:2/5", "--lambda", "1/2", "--order", "3"],
        _MC_POINT,
    ],
    ids=lambda args: args[0],
)
def test_csv_header_is_the_json_row_keys(args):
    doc = json.loads(invoke(args).stdout)
    res = invoke(args + ["--format", "csv"])
    assert res.exit_code == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == ",".join(doc["rows"][0])
    assert len(lines) == 1 + len(doc["rows"])


def test_mc_rejects_small_sample_count():
    res = invoke(
        ["mc", "--dist", "point:1", "--k", "1", "--n", "1", "--samples", "10"]
    )
    assert res.exit_code == 2


def _record_estimate(calls):
    def estimate(dist, k, n, lam, samples, seed):
        calls.append((k, samples))
        return MCResult(estimate=1.0, stderr=0.0, exact=F(1), zscore=None, samples=samples)

    return estimate


@pytest.mark.parametrize(
    "k, samples, flag",
    [
        (1, MAX_SAMPLES + 1, "--samples"),
        (0, 10**30, "--samples"),
        (MAX_DRAWS // 1000 + 1, 1000, "--k times --samples"),
        (10**20, MAX_SAMPLES, "--k times --samples"),
    ],
)
def test_mc_refuses_extreme_samples_and_k_before_sampling(monkeypatch, k, samples, flag):
    calls = []
    monkeypatch.setattr("fubini.cli.estimate_sum_moment", _record_estimate(calls))
    res = invoke(
        ["mc", "--dist", "bernoulli:1/2", "--k", str(k), "--n", "2",
         "--samples", str(samples)]
    )
    assert res.exit_code == 2
    assert f"Error: {flag} must be <=" in res.stderr
    assert "Traceback" not in res.stderr
    assert calls == []


@pytest.mark.parametrize(
    "k, samples",
    [
        (2, 100_000),  # the README example
        (60, 20_000),  # the largest k * samples of the benchmark's mc ops
        (1000, 1000),
        (MAX_DRAWS // MAX_SAMPLES, MAX_SAMPLES),
        (MAX_DRAWS // 1000, 1000),
    ],
)
def test_mc_bounds_admit_documented_runs(monkeypatch, k, samples):
    calls = []
    monkeypatch.setattr("fubini.cli.estimate_sum_moment", _record_estimate(calls))
    res = invoke(
        ["mc", "--dist", "bernoulli:1/2", "--k", str(k), "--n", "2",
         "--samples", str(samples)]
    )
    assert res.exit_code == 0, res.stderr
    assert calls == [(k, samples)]


SRC = Path(__file__).resolve().parents[1] / "src"

_NUMPY_FREE_SCRIPT = """
import sys
import fubini, fubini.cli
assert "numpy" not in sys.modules, "import fubini loaded numpy"
# building a dataclass at import costs its own import, which pulls in inspect
for slow in ("dataclasses", "inspect"):
    assert slow not in sys.modules, f"import fubini loaded {slow}"
from fubini.cli import main

def run(*args):
    try:
        main(args=list(args), prog_name="fubini", standalone_mode=True)
    except SystemExit as exc:
        assert exc.code == 0, (args, exc.code)

run("table", "--dist", "gamma:3/2,2", "--lambda", "1/3", "--n-max", "4")
run("series", "--dist", "bernoulli:2/5", "--order", "4", "--x", "1/2")
run("verify", "--suite", "EQ6", "--n-max", "2")
for dist in ("bernoulli:2/5", "poisson:3/2", "poisson:30", "gamma:3/2,2",
             "point:5/2", "discrete:0=1/6,1=1/2,3=1/3"):
    run("mc", "--dist", dist, "--k", "2", "--n", "2", "--samples", "1000")
assert "numpy" not in sys.modules, "a command loaded numpy"
assert "click" not in sys.modules, "a command loaded click"
for slow in ("dataclasses", "inspect"):
    assert slow not in sys.modules, f"a command loaded {slow}"
"""


def test_no_command_loads_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"command": "mc"') == 6
    assert '"estimate"' in proc.stdout


# Hostile but well-formed arguments: each gives its document (exit 0) or a
# usage error (exit 2), never a traceback.
HOSTILE_ARGS = [
    (["table", "--dist", "bernoulli:1/2", "--n-max", "0"], 0),
    (["series", "--dist", "bernoulli:1/2", "--order", "0"], 0),
    (["table", "--dist", "poisson:12345678901234567890123", "--n-max", "3"], 0),
    (["series", "--dist", "poisson:12345678901234567890123/7", "--order", "3"], 0),
    (["table", "--dist", "gamma:3/2,2", "--lambda", "1/99999999999999999999",
      "--n-max", "4"], 0),
    (["series", "--dist", "gamma:3/2,2", "--lambda", "1/99999999999999999999",
      "--order", "4", "--x", "-1/3"], 0),
    (["mc", "--dist", "bernoulli:1/2", "--k", "2", "--n", "2", "--samples", "1000",
      "--seed", str(2**64)], 0),
    (["mc", "--dist", "bernoulli:1/2", "--k", "2", "--n", "2", "--samples", "1000",
      "--seed", "12345678901234567890123456"], 0),
    (["table", "--dist", "discrete:", "--n-max", "2"], 2),
    (["table", "--dist", "discrete:1=1/2,1=1/2", "--n-max", "2"], 2),
    (["table", "--dist", "discrete:0=0,1=1", "--n-max", "2"], 2),
    (["mc", "--dist", "discrete:", "--k", "1", "--n", "1"], 2),
    # parameters below the float range: the draws round to 0
    (["mc", "--dist", f"gamma:1/{10**400},1", "--k", "2", "--n", "1", "--samples", "1000"], 0),
    (["mc", "--dist", f"poisson:1/{10**400}", "--k", "2", "--n", "1", "--samples", "1000"], 0),
    (["mc", "--dist", f"bernoulli:1/{10**400}", "--k", "2", "--n", "1", "--samples", "1000"], 0),
    # parameters beyond the float range: refused, naming --dist
    *(
        (["mc", "--dist", spec, "--k", "2", "--n", "0", "--samples", "1000"], 2)
        for spec in (
            f"poisson:{10**400}",
            f"gamma:1,1/{10**400}",
            f"gamma:1,{10**400}",
            f"gamma:{10**400},1",
            f"point:{10**400}",
            f"discrete:{10**400}=1",
        )
    ),
    # a lambda beyond the float range: refused, naming --lambda; below it, the
    # estimator's lambda rounds to 0.0
    *(
        (["mc", "--dist", "bernoulli:1/2", "--k", "2", "--n", n, "--lambda", lam,
          "--samples", "1000"], 2)
        for n, lam in (("0", str(10**400)), ("2", str(10**400)), ("0", str(-(10**400))))
    ),
    (["mc", "--dist", "bernoulli:1/2", "--k", "2", "--n", "2", "--lambda", f"1/{10**400}",
      "--samples", "1000"], 0),
    # a value that THM2_2's float spot-check needs beyond the float range:
    # refused before the suite runs; the exact suite alone runs there
    (["verify", "--dists", f"point:{10**200}", "--n-max", "2"], 2),
    (["verify", "--suite", "THM2_2", "--dists", f"point:{10**200}", "--n-max", "2"], 2),
    (["verify", "--dists", f"poisson:{10**200}", "--n-max", "2"], 2),
    (["verify", "--suite", "THM2_2", "--lambda", str(7**3000)], 2),
    (["verify", "--suite", "EQ6", "--dists", f"point:{10**200}", "--n-max", "2"], 0),
    (["table", "--dist", "bernoulli:1/2", "--lambda", "1/0", "--n-max", "2"], 2),
    (["series", "--dist", "bernoulli:1/2", "--lambda", "1/0", "--order", "2"], 2),
    (["table", "--dist", "point:1e3", "--n-max", "2"], 2),
    (["verify", "--suite", "EQ6", "--dists", "point:1e3"], 2),
    (["verify", "--suite", "EQ6", "--n-max", "0"], 2),
    (["verify", "--suite", "EQ6", "--r-max", "0"], 2),
    # the documented maximum of --n-max (cli.VERIFY_MAX_N), refused at parse
    # time: without it the default grid at --n-max 60 runs for many minutes
    (["verify", "--suite", "EQ6", "--n-max", "30"], 0),
    (["verify", "--suite", "EQ6", "--n-max", "31"], 2),
    (["verify", "--n-max", "60"], 2),
    # the documented maximum of --r-max (cli.VERIFY_MAX_R), refused at parse
    # time: the order-r checkers grow with it at every --n-max
    (["verify", "--suite", "THM2_15", "--n-max", "2", "--r-max", "10"], 0),
    (["verify", "--suite", "EQ6", "--r-max", "11"], 2),
    (["verify", "--n-max", "4", "--r-max", "200"], 2),
    # the documented maxima of table --n-max (cli.TABLE_MAX_N) and series
    # --order (cli.SERIES_MAX_ORDER), refused at parse time
    (["table", "--dist", "point:1", "--n-max", "200"], 0),
    (["table", "--dist", "point:1", "--n-max", "201"], 2),
    (["series", "--dist", "point:1", "--order", "400"], 0),
    (["series", "--dist", "point:1", "--order", "401"], 2),
    (["mc", "--dist", "gamma:1,1", "--k", "2", "--n", "400", "--samples", "1000"], 2),
    (["mc", "--dist", "poisson:100", "--k", "1", "--n", "140", "--samples", "1000"], 2),
    (["mc", "--dist", "bernoulli:1/2", "--k", "1", "--n", "3000", "--samples", "1000"], 2),
    (["mc", "--dist", "bernoulli:1/2", "--k", "-1", "--n", "2", "--samples", "1000"], 2),
    (["mc", "--dist", "bernoulli:1/2", "--k", "1", "--n", "-1", "--samples", "1000"], 2),
    # a scale inside the float range whose statistic overflows at n = 1
    (["mc", "--dist", f"gamma:1,1/{10**300}", "--k", "2", "--n", "1", "--samples", "1000"], 2),
    # an empty --out names no file; only a missing --out means stdout
    (["table", "--dist", "point:1", "--n-max", "2", "--out", ""], 2),
    # parse errors: no abbreviated flags, no negative seed
    (["table", "--dist", "point:1", "--lam", "1/2", "--n-max", "2"], 2),
    (["mc", "--dist", "point:1", "--k", "1", "--n", "1", "--seed", "-1"], 2),
    # a flag value past CPython's int/str digit limit (3.11+, 3.10.7+) is
    # refused as it is parsed; an interpreter without the limit computes
    (["table", "--dist", "bernoulli:1/2", "--lambda", "1" + "0" * 4999, "--n-max", "2"],
     2 if hasattr(sys, "get_int_max_str_digits") else 0),
]


def _case_id(args):
    # a token too long to read in a test id shows as its length
    return " ".join(a if len(a) <= 1000 else f"<{len(a)} chars>" for a in args)


# Usage errors whose message must name the flag at fault.
NAMED_FLAG_ERRORS = {
    "verify --suite EQ6 --n-max 0": "Error: --n-max must be >= 1",
    "verify --suite EQ6 --r-max 0": "Error: --r-max must be >= 1",
    "verify --suite EQ6 --n-max 31": "Error: --n-max must be <= 30",
    "verify --n-max 60": "Error: --n-max must be <= 30",
    "verify --suite EQ6 --r-max 11": "Error: --r-max must be <= 10",
    "verify --n-max 4 --r-max 200": "Error: --r-max must be <= 10",
    "table --dist point:1 --n-max 201": "Error: --n-max must be <= 200",
    "series --dist point:1 --order 401": "Error: --order must be <= 400",
    "verify --suite EQ6 --dists point:1e3": (
        "Error: bad --dists 'point:1e3': invalid distribution spec 'point:1e3': "
        "bad rational '1e3'"
    ),
    "table --dist point:1e3 --n-max 2": (
        "Error: bad --dist 'point:1e3': invalid distribution spec 'point:1e3': "
        "bad rational '1e3'"
    ),
    "table --dist point:1 --n-max 2 --out ": (
        "Error: cannot write --out '': No such file or directory"
    ),
    "mc --dist bernoulli:1/2 --k -1 --n 2 --samples 1000": "Error: --k must be >= 0",
    "mc --dist bernoulli:1/2 --k 1 --n -1 --samples 1000": "Error: --n must be >= 0",
    **{
        f"mc --dist bernoulli:1/2 --k 2 --n {n} --lambda {lam} --samples 1000": (
            f"Error: bad --lambda '{lam}': "
            "parameter lambda of (x)_{n,lambda} lies beyond the float range"
        )
        for n, lam in ((0, 10**400), (2, 10**400), (0, -(10**400)))
    },
    **{
        f"verify {args}": (
            f"Error: THM2_2's numeric spot-check cannot run at the law {law} and lambda {lam}: "
            "a value it needs lies beyond the float range"
        )
        for args, law, lam in (
            (f"--dists point:{10**200} --n-max 2", f"point:{10**200}", 0),
            (f"--suite THM2_2 --dists point:{10**200} --n-max 2", f"point:{10**200}", 0),
            (f"--dists poisson:{10**200} --n-max 2", f"poisson:{10**200}", 0),
            (f"--suite THM2_2 --lambda {7**3000}", "point:1", 7**3000),
        )
    },
    f"mc --dist gamma:1,1/{10**300} --k 2 --n 1 --samples 1000": (
        f"Error: --n 1 is too large for the float estimator at --dist 'gamma:1,1/{10**300}' "
        "(overflow in the mean or spread of the statistic); lower --n or the scale of --dist"
    ),
}


@pytest.mark.parametrize(
    "args, code", HOSTILE_ARGS, ids=[_case_id(args) for args, _ in HOSTILE_ARGS]
)
def test_hostile_arguments_give_a_document_or_a_usage_error(args, code):
    res = invoke(args)
    assert "Traceback" not in res.stderr
    assert res.exit_code == code, res.stderr
    if code == 0:
        doc = json.loads(res.stdout)
        assert doc["command"] == args[0]
        assert doc["rows"]
    else:
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1].startswith("Error: ")
        named = NAMED_FLAG_ERRORS.get(" ".join(args))
        assert named is None or res.stderr.splitlines()[-1] == named


def _numeral(max_digits: int):
    # a small integer, or 10**(d-1) for d digits: any d up to max_digits, and
    # the edges of the float range (309 digits) and of the int/str digit
    # limit (4,300 digits)
    edges = [d for d in (308, 309, 310, 398, 400, 4300, 4301, 4400) if d <= max_digits]
    digits = st.one_of(st.integers(1, 40), st.sampled_from(edges), st.integers(1, max_digits))
    return st.one_of(st.integers(0, 12).map(str), digits.map(lambda d: "1" + "0" * (d - 1)))


def _rational(max_digits: int, signs=("", "-", "+")):
    # a signed numerator over no denominator, a small one or a numeral
    sign = st.sampled_from(signs)
    over = st.one_of(
        st.just(""),
        st.integers(1, 12).map("/{}".format),
        _numeral(max_digits).filter(lambda d: d != "0").map("/{}".format),
    )
    return st.tuples(sign, _numeral(max_digits), over).map("".join)


def _law(max_digits: int):
    # the parameters of a law that needs them positive are unsigned
    r, positive = _rational(max_digits), _rational(max_digits, ("",))
    return st.one_of(
        r.map("point:{}".format),
        st.tuples(st.sampled_from(["bernoulli", "poisson", "Poisson"]), positive).map(":".join),
        st.tuples(positive, positive).map(lambda t: f"gamma:{t[0]},{t[1]}"),
        st.lists(r, min_size=1, max_size=3).map(
            lambda atoms: "discrete:" + ",".join(f"{v}=1/{len(atoms)}" for v in atoms)
        ),
    )


# The values of each flag of cli._COMMANDS but --out, by its largest numeral:
# rationals of up to 4,400 digits for table, series and mc, and up to 400 for
# verify, at sizes that keep a run small.
def _flag_values(max_digits: int) -> dict:
    return {
        "--dist": _law(max_digits),
        "--dists": _law(max_digits),
        "--lambda": _rational(max_digits),
        "--x": _rational(max_digits),
        "--n-max": st.integers(1, 3 if max_digits > 400 else 2).map(str),
        "--r": st.integers(1, 3).map(str),
        "--r-max": st.integers(1, 3).map(str),
        "--order": st.integers(0, 4).map(str),
        "--k": st.integers(0, 5).map(str),
        "--n": st.integers(0, 4).map(str),
        "--samples": st.just("1000"),
        "--seed": st.sampled_from(["0", "7", str(2**64)]),
        "--suite": st.sampled_from(["all", "EQ6", "THM2_2", "THM2_9_PRINTED", "EQ29_BELL"]),
        "--format": st.sampled_from(["json", "csv"]),
    }


# Values no flag takes: empty, zero denominators, no rational, out of range
_HOSTILE = ["", "1/0", "-3/0", "1e3", "x", "1/", "-1", "0", "999", "nope:1", "discrete:", "eq6"]


@st.composite
def _argv(draw, name: str):
    # every flag of the command once, with a value it takes; then at most one
    # change: a flag dropped, repeated or given a hostile value, or --out ''
    _, options = cli._COMMANDS[name]
    values = _flag_values(400 if name == "verify" else 4400)
    flags = [flag for flag, _ in (*options, cli._FORMAT)]
    given = {flag: [draw(values[flag])] for flag in flags}
    change = draw(st.sampled_from([None, "drop", None, "repeat", None, "hostile", None, "out", None]))
    if change == "out":
        given["--out"] = [""]
    elif change is not None:
        flag = draw(st.sampled_from(flags))
        if change == "drop":
            del given[flag]
        elif change == "repeat":
            given[flag].append(draw(values[flag]))
        else:
            given[flag] = [draw(st.sampled_from(_HOSTILE))]
    return [name, *(token for flag, vals in given.items() for v in vals for token in (flag, v))]


def _run(argv):
    try:
        return invoke(argv)
    finally:
        hooks.clear_caches()  # no example keeps the rows of another in memory


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_grammar_fuzz_gives_a_document_a_failure_or_a_usage_error(name, data):
    argv = data.draw(_argv(name))
    res = _run(argv)
    assert res.exit_code in (0, 1, 2), res.stderr[-300:]
    assert "Traceback" not in res.stderr and "internal error" not in res.stderr, res.stderr[-300:]
    if res.exit_code == 2:
        last = res.stderr.splitlines()[-1]
        assert res.stdout == "" and last.startswith("Error:")
        if "lower --n" in last:
            # (x)_{0,lam} = 1 fits any float, so --n 0 (each token after an
            # --n) lifts a refusal that asks for a lower --n
            at_zero = [("0" if flag == "--n" else v) for flag, v in zip(["", *argv], argv)]
            assert "lower --n" not in _run(at_zero).stderr, last[:300]


@pytest.mark.parametrize(
    "spec, name",
    [
        (f"poisson:{10**400}", "alpha"),
        (f"gamma:1,1/{10**400}", "beta"),
        (f"gamma:1,{10**400}", "beta"),
        (f"gamma:{10**400},1", "alpha"),
        (f"point:{10**400}", "value"),
        (f"discrete:{10**400}=1", "atom"),
    ],
    ids=lambda v: v.replace(str(10**400), "10**400"),
)
def test_mc_parameter_beyond_the_float_range_names_the_dist(monkeypatch, spec, name):
    def must_not_run(*args):
        raise AssertionError("the exact value was computed")

    monkeypatch.setattr("fubini.sampling.sum_degenerate_moment", must_not_run)
    res = invoke(["mc", "--dist", spec, "--k", "2", "--n", "0", "--samples", "1000"])
    assert res.exit_code == 2, res.stderr
    assert res.stdout == "" and "Traceback" not in res.stderr
    assert res.stderr.splitlines()[-1] == (
        f"Error: bad --dist {spec!r}: "
        f"parameter {name} of the law of S_k lies beyond the float range"
    )
    # so is a lambda beyond the float range, with a law inside it
    for lam in (str(10**400), str(-(10**400))):
        res = invoke(["mc", "--dist", "point:2", "--k", "2", "--n", "2", "--lambda", lam,
                      "--samples", "1000"])
        assert res.exit_code == 2, res.stderr
        assert res.stdout == "" and "Traceback" not in res.stderr
        assert res.stderr.splitlines()[-1] == (
            f"Error: bad --lambda {lam!r}: "
            "parameter lambda of (x)_{n,lambda} lies beyond the float range"
        )


@pytest.mark.parametrize(
    "dist, k, n, draws",
    [
        ("gamma:1,1", 2, 400, 0),  # the exact value has no float: refused before any draw
        ("poisson:100", 1, 140, 1),  # the squares of the statistic overflow
    ],
)
def test_mc_degree_beyond_the_float_range_is_a_usage_error(monkeypatch, dist, k, n, draws):
    import fubini.sampling

    # draws sample by sample, or a table law's histogram
    calls = []
    for name in ("draw", "_histogram"):
        real = getattr(fubini.sampling, name)

        def counting(*args, real=real):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fubini.sampling, name, counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = invoke(
            ["mc", "--dist", dist, "--k", str(k), "--n", str(n), "--samples", "1000"]
        )
    assert res.exit_code == 2, res.stderr
    assert res.stdout == ""
    assert f"Error: --n {n} is too large" in res.stderr
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr
    assert len(calls) == draws


def test_mc_degree_above_the_bound_is_refused_before_the_exact_value(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("the exact value was computed")

    monkeypatch.setattr("fubini.cli.estimate_sum_moment", must_not_run)
    n = MAX_DEGREE + 1
    res = invoke(["mc", "--dist", "bernoulli:1/2", "--k", "1", "--n", str(n), "--samples", "1000"])
    assert res.exit_code == 2, res.stderr
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1] == f"Error: --n must be <= {MAX_DEGREE}"


def test_verify_single_identity_document():
    res = invoke(
        ["verify", "--suite", "THM2_16", "--dists", "bernoulli:1"],
        env={"NO_COLOR": "1"},
    )
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["command"] == "verify"
    assert doc["params"]["suite"] == ["THM2_16"]
    assert doc["rows"][0]["status"] == "pass"
    assert doc["summary"]["ok"] is True
    assert "suite ok" in res.stderr
    assert "\x1b[" not in res.stderr  # NO_COLOR honored


def test_verify_unknown_identity():
    res = invoke(["verify", "--suite", "NOPE"])
    assert res.exit_code == 2
    assert "unknown identity" in res.stderr
    # the one final Error: line lists every --suite name
    valid = ", ".join([*(i.value for i in IdentityId), "all"])
    assert res.stderr.splitlines()[-1] == f"Error: unknown identity 'NOPE'; valid names: {valid}"


def test_verify_reports_a_repeated_identity_once():
    res = invoke(["verify", "--suite", "EQ6", "--suite", "EQ6", "--n-max", "2"])
    assert res.exit_code == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["params"]["suite"] == ["EQ6"]
    assert [r["identity"] for r in doc["rows"]] == ["EQ6"]
    assert doc["summary"]["passes"] == 1
    assert doc["summary"]["total_cases"] == doc["rows"][0]["cases"] == 72
    # first-seen order; two identities that share a checker stay two rows
    res = invoke(["verify", "--suite", "THM2_1", "--suite", "EQ23_GF", "--suite",
                  "THM2_1", "--n-max", "2"])
    assert res.exit_code == 0, res.stderr
    rows = json.loads(res.stdout)["rows"]
    assert [r["identity"] for r in rows] == ["THM2_1", "EQ23_GF"]
    assert rows[0]["cases"] == rows[1]["cases"]


@pytest.mark.parametrize(
    "flag, given, echoed",
    [
        ("--lambda", ["1", "1"], ["1"]),
        ("--lambda", ["2/2", "-1/2", "1"], ["1", "-1/2"]),
        ("--dists", ["bernoulli:1/2", "bernoulli:1/2", "bernoulli:2/4"], ["bernoulli:1/2"]),
    ],
)
def test_verify_checks_a_repeated_grid_value_once(flag, given, echoed):
    # by value, where it first appears: the document of each value given once
    key = "lambdas" if flag == "--lambda" else "dists"
    for suite in ("EQ6", "EQ19_INV"):
        docs = [
            invoke(["verify", "--suite", suite, "--n-max", "2",
                    *(a for v in values for a in (flag, v))])
            for values in (given, echoed)
        ]
        assert [res.exit_code for res in docs] == [0, 0], docs[0].stderr
        assert docs[0].stdout == docs[1].stdout
        assert json.loads(docs[0].stdout)["params"][key] == echoed


@pytest.mark.parametrize("n", [1, 6, 13])
def test_verify_n_max_runs_the_default_config_at_that_n_max(n):
    cfg = default_config(n)
    assert (cfg.n_max, cfg.series_order, cfg.coeff_depth) == (n, n + 2, 2 * n + 6)
    res = invoke(["verify", "--suite", "EQ6", "--n-max", str(n)])
    assert res.exit_code == 0, res.stderr
    assert json.loads(res.stdout)["params"] == {
        "suite": ["EQ6"],
        "lambdas": [format_rational(v) for v in cfg.lambdas],
        "n_max": cfg.n_max,
        "r_max": cfg.r_max,
        "dists": [d.spec_string() for d in cfg.dists],
        "x_points": [format_rational(v) for v in cfg.x_points],
        "series_order": cfg.series_order,
        "coeff_depth": cfg.coeff_depth,
    }
    assert default_config() == default_config(10)


def test_verify_counts_the_cases_of_a_repeated_lambda_once():
    res = invoke(["verify", "--suite", "EQ6", "--lambda", "1", "--lambda", "1", "--n-max", "2"])
    assert json.loads(res.stdout)["rows"][0]["cases"] == 6


def test_verify_known_discrepancy_still_exits_zero():
    res = invoke(
        [
            "verify",
            "--suite",
            "THM2_9_PRINTED",
            "--suite",
            "THM2_9_CORRECTED",
            "--dists",
            "bernoulli:2/5",
            "--lambda",
            "1/2",
            "--n-max",
            "2",
            "--r-max",
            "1",
        ],
        env={"NO_COLOR": "1"},
    )
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    statuses = {r["identity"]: r["status"] for r in doc["rows"]}
    assert statuses == {
        "THM2_9_PRINTED": "known-discrepancy",
        "THM2_9_CORRECTED": "pass",
    }
    cex = doc["rows"][0]["counterexample"]
    assert cex["lhs"] == "[2/5]"
    assert cex["rhs"] == "[2/5, 4/5]"


def test_verify_reduced_grid_overrides():
    res = invoke(
        [
            "verify",
            "--suite",
            "EQ19_INV",
            "--n-max",
            "3",
            "--lambda",
            "0",
            "--lambda",
            "1/2",
            "--dists",
            "poisson:3/2",
            "--format",
            "csv",
        ],
        env={"NO_COLOR": "1"},
    )
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "identity,status,cases,params,lhs,rhs"
    assert lines[1].startswith("EQ19_INV,pass,")


def test_verify_csv_failure_row_quotes_params():
    # a failing run must carry the counterexample in the quoted fields
    res = invoke(
        [
            "verify",
            "--suite",
            "THM2_9_PRINTED",
            "--dists",
            "discrete:0=1/6,1=1/2,3=1/3",
            "--lambda",
            "1/2",
            "--n-max",
            "1",
            "--r-max",
            "1",
            "--format",
            "csv",
        ],
        env={"NO_COLOR": "1"},
    )
    assert res.exit_code == 0  # known-discrepancy is expected
    line = res.stdout.splitlines()[1]
    assert line.startswith("THM2_9_PRINTED,known-discrepancy,1,")
    assert '"dist=discrete:0=1/6,1=1/2,3=1/3;lambda=1/2;n=1;r=1"' in line


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "doc.json"
    res = invoke(
        [
            "table",
            "--dist",
            "point:5/2",
            "--lambda",
            "1/3",
            "--n-max",
            "3",
            "--out",
            str(target),
        ]
    )
    assert res.exit_code == 0
    assert res.stdout == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "table"
    assert len(doc["rows"]) == 4


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--dist", "point:1", "--n-max", "3"],
        ["verify", "--suite", "EQ6", "--n-max", "1", "--dists", "point:1", "--lambda", "0"],
        ["series", "--dist", "point:1", "--order", "2"],
        ["mc", "--dist", "point:1", "--k", "2", "--n", "2", "--samples", "1000"],
    ],
    ids=lambda args: args[0],
)
def test_out_into_missing_directory_is_usage_error(tmp_path, args):
    target = tmp_path / "missing" / "doc.json"
    res = invoke(args + ["--out", str(target)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.stderr
    assert str(target) in res.stderr
    assert "No such file or directory" in res.stderr


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("unexpected fault")


def test_unwritable_out_fails_before_any_computation(tmp_path, monkeypatch):
    monkeypatch.setattr("fubini.cli.run_suite", _raise_runtime_error)
    target = tmp_path / "missing" / "doc.json"
    res = invoke(["verify", "--suite", "all", "--n-max", "6", "--out", str(target)])
    assert res.exit_code == 2
    assert "Traceback" not in res.stderr
    assert "No such file or directory" in res.stderr
    res = invoke(["verify", "--suite", "all", "--out", ""])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "cannot write --out ''" in res.stderr
    blocker = tmp_path / "file"
    blocker.write_text("")
    res = invoke(["verify", "--suite", "EQ6", "--out", str(blocker / "doc.json")])
    assert res.exit_code == 2
    assert "Not a directory" in res.stderr
    monkeypatch.setattr("fubini.cli.os.access", lambda path, mode: False)
    res = invoke(["verify", "--suite", "EQ6", "--out", str(tmp_path / "doc.json")])
    assert res.exit_code == 2
    assert "Permission denied" in res.stderr


def test_unexpected_exception_exits_3_without_traceback(tmp_path, monkeypatch):
    monkeypatch.setattr("fubini.cli.run_suite", _raise_runtime_error)
    target = tmp_path / "doc.json"
    target.write_text("kept")
    res = invoke(["verify", "--suite", "EQ6", "--n-max", "1", "--out", str(target)])
    assert res.exit_code == 3
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.stderr
    [line] = res.stderr.splitlines()
    assert "RuntimeError" in line and "unexpected fault" in line
    assert target.read_text() == "kept"  # --out is not opened before the document exists


def test_interrupt_exits_130_without_traceback(monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("fubini.cli.run_suite", interrupt)
    res = invoke(["verify", "--suite", "EQ6", "--n-max", "1"])
    assert res.exit_code == 130
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines()[-1] == "Aborted!"


def test_main_entry_point_keeps_exit_codes(monkeypatch):
    args = ["verify", "--suite", "EQ6", "--n-max", "1", "--dists", "point:1"]
    with pytest.raises(SystemExit) as exc:
        main(args=args, prog_name="fubini", standalone_mode=True)
    assert exc.value.code == 0
    monkeypatch.setattr("fubini.cli.run_suite", _raise_runtime_error)
    with pytest.raises(SystemExit) as exc:
        main(args=args, prog_name="fubini", standalone_mode=True)
    assert exc.value.code == 3


# Exact output past CPython's int/str digit limit (4,300 digits by default,
# CPython 3.11+ and 3.10.7+): each command lifts the limit once its flags are
# parsed.
_HUGE = "1" + "0" * 100
LARGE_OUTPUT = [
    ["table", "--dist", "poisson:3/2", "--lambda", _HUGE, "--n-max", "55"],
    ["series", "--dist", f"gamma:1,1/{_HUGE}", "--lambda", "1/2", "--order", "50", "--x", "1/2"],
]


@pytest.mark.parametrize("args", LARGE_OUTPUT, ids=["table", "series"])
def test_exact_output_past_the_digit_limit(args):
    res = invoke(args)
    assert res.exit_code == 0, res.stderr
    values = [
        value
        for row in json.loads(res.stdout)["rows"]
        for value in [*row.get("coefficients", ()), row.get("value_at_1") or row["egf_coefficient"]]
    ]
    assert max(len(v.split("/")[0].lstrip("-")) for v in values) > 4300


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this interpreter has no int/str digit limit"
)
def test_the_digit_limit_is_back_in_force_after_main_returns(monkeypatch):
    limit = sys.get_int_max_str_digits()
    assert invoke(LARGE_OUTPUT[1]).exit_code == 0
    assert sys.get_int_max_str_digits() == limit
    # a usage error, and an internal error after the limit was lifted
    assert invoke(["series", "--dist", "point:1", "--order", "-1"]).exit_code == 2
    assert sys.get_int_max_str_digits() == limit
    monkeypatch.setattr("fubini.cli.run_suite", _raise_runtime_error)
    assert invoke(["verify", "--suite", "EQ6", "--n-max", "1"]).exit_code == 3
    assert sys.get_int_max_str_digits() == limit
    if limit:
        with pytest.raises(ValueError):
            str(10**limit)


def test_mc_rejects_negative_seed():
    res = invoke(["mc", "--dist", "point:1", "--k", "1", "--n", "1", "--seed", "-1"])
    assert res.exit_code == 2
    assert "--seed" in res.stderr
    assert "Traceback" not in res.stderr


def test_missing_required_flag_is_usage_error():
    assert invoke(["table", "--n-max", "2"]).exit_code == 2
    assert invoke(["mc", "--dist", "point:1"]).exit_code == 2


# Every option of each command, as its --help must list it.
COMMAND_OPTIONS = {
    "table": ["--dist", "--lambda", "--n-max", "--r", "--format", "--out"],
    "verify": ["--suite", "--dists", "--lambda", "--n-max", "--r-max", "--format", "--out"],
    "series": ["--dist", "--lambda", "--order", "--x", "--format", "--out"],
    "mc": ["--dist", "--k", "--n", "--lambda", "--samples", "--seed", "--format", "--out"],
}


def test_help_names_the_four_commands():
    res = invoke(["--help"])
    assert res.exit_code == 0, res.stderr
    assert res.stdout.startswith("Usage: fubini ")
    commands = res.stdout.split("Commands:")[1].split()
    for name in COMMAND_OPTIONS:
        assert name in commands


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_command_help_lists_each_option(command):
    res = invoke([command, "--help"])
    assert res.exit_code == 0, res.stderr
    assert res.stdout.startswith(f"Usage: fubini {command} ")
    listed = [line.split()[0] for line in res.stdout.splitlines() if line.startswith("  --")]
    assert listed == ["--help"] + COMMAND_OPTIONS[command]


def test_no_command_is_a_usage_error():
    res = invoke([])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "Commands:" in res.stderr
    res = invoke(["nope"])
    assert res.exit_code == 2
    assert res.stderr.splitlines()[-1] == "Error: No such command 'nope'."


def test_usage_error_block():
    res = invoke(["table", "--dist", "point:1", "--n-max", "-1"])
    assert res.exit_code == 2
    assert res.stderr == (
        "Usage: fubini table [OPTIONS]\n"
        "Try 'fubini table --help' for help.\n"
        "\n"
        "Error: --n-max must be >= 0\n"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--dist", "point:1", "--n-max", "2", "--format", "xml"],
        ["table", "--dist", "point:1", "--n-max", "x"],
        ["table", "--dist", "point:1", "--n-max", "2", "extra"],
        ["table", "--dist"],
        ["mc", "--dist", "point:1", "--k", "1", "--n", "1", "--seed", "x"],
    ],
    ids=" ".join,
)
def test_parse_errors_name_the_flag_or_token(args):
    res = invoke(args)
    assert res.exit_code == 2
    assert res.stdout == ""
    last = res.stderr.splitlines()[-1]
    assert last.startswith("Error: ")
    assert args[-2] in last or args[-1] in last


def test_out_flag_refuses_a_directory(tmp_path, monkeypatch):
    monkeypatch.setattr("fubini.cli.run_suite", _raise_runtime_error)
    res = invoke(["verify", "--suite", "EQ6", "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert res.stderr.splitlines()[-1] == f"Error: cannot write --out {str(tmp_path)!r}: Is a directory"


def test_verify_colours_status_lines_on_a_terminal(monkeypatch):
    monkeypatch.setattr("fubini.cli._use_color", lambda: True)
    res = invoke(["verify", "--suite", "EQ6", "--n-max", "1", "--dists", "point:1"])
    assert res.exit_code == 0
    assert res.stderr.splitlines() == [
        "\x1b[32mEQ6: pass (36 cases)\x1b[0m",
        "\x1b[32msuite ok\x1b[0m",
    ]
