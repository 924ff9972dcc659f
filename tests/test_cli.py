"""CLI contract: document schemas, determinism, exit codes, round-trips."""

import hashlib
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from fubini.cli import cli
from fubini.poly import Polynomial
from fubini.rational import parse_rational

F = Fraction


def invoke(args, env=None):
    try:
        runner = CliRunner(mix_stderr=False)
    except TypeError:  # click >= 8.2 always separates the streams
        runner = CliRunner()
    return runner.invoke(cli, args, env=env)


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


# sha256 of stdout, taken from the scalar implementation the row-grown tables
# replaced; any change in a table or series document fails here
GOLDEN_DOCUMENTS = [
    (
        ["table", "--dist", "gamma:3/2,2", "--lambda", "1/3", "--n-max", "12"],
        "6d2145f186f9b077ce17ce10e9955ddc812ebd001fd1802d9e2df78f35a33926",
    ),
    (
        ["table", "--dist", "discrete:0=1/6,1=1/2,3=1/3", "--lambda", "-7/2",
         "--n-max", "10", "--r", "3"],
        "a515b815551a2968c5d9a10524acee017c4a43ca42732748106350a0e835eee3",
    ),
    (
        ["table", "--dist", "poisson:3/2", "--lambda", "13/4", "--n-max", "10",
         "--format", "csv"],
        "eb343cece5a45bdf4962954d6ebc60f150ca5e6e780ba3138702c1994b98b447",
    ),
    (
        ["table", "--dist", "bernoulli:2/5", "--lambda", "0", "--n-max", "10"],
        "442aa4c6e9e123ceed70af5190c0bc307d78c99f363175c37d4343f24513968a",
    ),
    (
        ["series", "--dist", "gamma:3/2,2", "--lambda", "1/3", "--order", "20",
         "--x", "1/2"],
        "6db51df87e82dabf4947777613295398a7a4b3aa8376439857ae8bb9f4f10564",
    ),
    (
        ["series", "--dist", "discrete:0=1/6,1=1/2,3=1/3", "--lambda", "-1/4",
         "--order", "20", "--x", "-1/3", "--format", "csv"],
        "760644841920994057409e0782e08e2b9f99176e4384a878e8ac794cbb58f5c9",
    ),
]


@pytest.mark.parametrize(
    "args,digest", GOLDEN_DOCUMENTS, ids=[" ".join(a) for a, _ in GOLDEN_DOCUMENTS]
)
def test_golden_documents(args, digest):
    res = invoke(args)
    assert res.exit_code == 0, res.stderr
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


def test_mc_rejects_small_sample_count():
    res = invoke(
        ["mc", "--dist", "point:1", "--k", "1", "--n", "1", "--samples", "10"]
    )
    assert res.exit_code == 2


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


def test_missing_required_flag_is_usage_error():
    assert invoke(["table", "--n-max", "2"]).exit_code == 2
    assert invoke(["mc", "--dist", "point:1"]).exit_code == 2
