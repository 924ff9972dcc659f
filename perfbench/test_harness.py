"""Self-tests of the benchmark harness (gate, tracer, metric names).

Run from the root of a checkout: python3 -m pytest perfbench -q
They start only small `fubini` processes (a few seconds in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gate
import run
from workloads import WORKLOADS, Op, ops_for, probe_ops

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
TRACER = str(Path(__file__).with_name("tracer.py"))

SMALL_OPS = [
    ("table", "--dist", "gamma:3/2,2", "--lambda", "1/3", "--n-max", "8"),
    ("table", "--dist", "poisson:3/2", "--lambda", "13/4", "--n-max", "6", "--r", "3", "--format", "csv"),
    ("series", "--dist", "gamma:3/2,2", "--lambda", "1/3", "--order", "8", "--x", "1/2"),
    ("mc", "--dist", "bernoulli:2/5", "--k", "12", "--n", "4", "--lambda", "1/2", "--samples", "2000", "--seed", "7"),
    ("verify", "--suite", "EQ6", "--suite", "THM2_9_PRINTED", "--n-max", "3"),
]


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fubini.cli", *args], cwd=ROOT, env=ENV, capture_output=True, timeout=120
    )


def traced(tmp_path: Path, args, light: bool = False) -> tuple[bytes, dict]:
    out = tmp_path / f"trace-{len(list(tmp_path.iterdir()))}.json"
    proc = subprocess.run(
        [sys.executable, TRACER, "--out", str(out), *(["--light"] if light else []), "--", *args],
        cwd=ROOT, env=ENV, capture_output=True, timeout=120,
    )
    return proc.stdout, json.loads(out.read_text())


def counts(trace: dict) -> dict:
    return {
        "calls": {k: v["calls"] for k, v in trace["layers"].items()},
        "functions": {k: v[0] for k, v in trace["functions"].items()},
        "max_bits": trace["max_bits"],
        "keys": (trace["distinct_keys"], trace["keyed_calls"]),
        "draws": trace["draws"],
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --- the gate flags doctored outputs -----------------------------------------


def verify_doc() -> dict:
    rows = [
        {"identity": name, "status": status, "cases": 10,
         "counterexample": None if status == "pass" else {"params": {}, "lhs": "1", "rhs": "2"}}
        for name, status in gate.VERDICTS.items()
    ]
    return {
        "command": "verify",
        "rows": rows,
        "summary": {"ok": True, "passes": 27, "failures": 0, "known_discrepancies": 1},
        "numeric_spotcheck": {"ok": True},
    }


def test_verify_gate_accepts_reference_and_flags_doctored_verdicts():
    assert gate.check_verify(verify_doc()) == []
    doc = verify_doc()
    doc["rows"][0]["status"] = "fail"
    assert gate.check_verify(doc)
    doc = verify_doc()
    doc["rows"][19]["status"] = "pass"  # THM2_9_PRINTED must stay a known discrepancy
    assert gate.check_verify(doc)
    doc = verify_doc()
    doc["summary"]["ok"] = False
    assert gate.check_verify(doc)


def test_digest_gate_flags_a_doctored_table():
    op = Op(SMALL_OPS[0], 60.0)
    out = cli(*op.args).stdout
    pinned = {op.key: gate.digest(out)}
    assert gate.check_output(op, 0, out, b"", pinned) == []
    doctored = out.replace(b'"value_at_1": "1"', b'"value_at_1": "2"', 1)
    assert doctored != out
    assert gate.check_output(op, 0, doctored, b"", pinned)


def test_cross_checks_agree_and_flag_a_doctored_value():
    table = cli("table", "--dist", "poisson:3/2", "--lambda", "13/4", "--n-max", "6").stdout
    table_r3 = cli(*SMALL_OPS[1]).stdout
    at_1 = cli("series", "--dist", "poisson:3/2", "--lambda", "13/4", "--order", "6", "--x", "1").stdout
    at_half = cli("series", "--dist", "poisson:3/2", "--lambda", "13/4", "--order", "6", "--x", "1/2").stdout
    assert gate.cross_check_table(table, "json", 1, at_1) == []
    assert gate.cross_check_table(table_r3, "csv", 3, at_1) == []
    assert gate.cross_check_series(at_half, Fraction(1, 2), table) == []
    doc = json.loads(at_half)
    doc["rows"][4]["egf_coefficient"] = "1/7"
    assert gate.cross_check_series(json.dumps(doc).encode(), Fraction(1, 2), table)
    assert gate.cross_check_table(table_r3, "csv", 1, at_1)


def test_mc_gate_flags_a_wrong_exact_value():
    op = Op(SMALL_OPS[3], 30.0)
    proc = cli(*op.args)
    assert gate.check_output(op, proc.returncode, proc.stdout, proc.stderr, {}) == []
    doc = json.loads(proc.stdout)
    doc["rows"][0]["exact"] = str(Fraction(doc["rows"][0]["exact"]) + Fraction(1, 10**9))
    assert gate.check_output(op, 0, json.dumps(doc).encode(), b"", {})


def test_closed_form_sum_laws_by_hand():
    # S_2 ~ Binomial(2, 2/5); (x)_{2,1/2} = x (x - 1/2): P(1) * 1/2 + P(2) * 3
    assert gate.sum_law_moment("bernoulli:2/5", 2, 2, Fraction(1, 2)) == Fraction(12, 25) / 2 + Fraction(4, 25) * 3
    # S_3 ~ Poisson(3/2): E[S (S - 1)] = mu**2
    assert gate.sum_law_moment("poisson:1/2", 3, 2, Fraction(1)) == Fraction(9, 4)
    # S_2 ~ Gamma(2, 1): E[S**2] = 2 * 3
    assert gate.sum_law_moment("gamma:1,1", 2, 2, Fraction(0)) == 6
    assert gate.sum_law_moment("point:5/2", 2, 1, Fraction(3)) == 5


def test_probes_are_known_defects_or_fixed():
    for op, signature in probe_ops(0):
        proc = cli(*op.args)
        state, problems = gate.classify_probe(op, proc.returncode, proc.stdout, proc.stderr, signature)
        assert state in ("known-defect", "fixed"), problems
    op, signature = probe_ops(0)[0]
    assert gate.classify_probe(op, 1, b"", b"Traceback\nKeyError", signature)[0] == "broken"


# --- the tracer --------------------------------------------------------------


@pytest.mark.parametrize("args", SMALL_OPS, ids=lambda a: a[0])
def test_wrappers_leave_stdout_unchanged(tmp_path, args):
    plain = cli(*args).stdout
    light_out, _ = traced(tmp_path, args, light=True)
    full_out, trace = traced(tmp_path, args)
    assert plain == light_out == full_out
    assert trace["layers"]["cli"]["calls"] == 1
    assert sum(v["calls"] for v in trace["layers"].values()) > 1


def test_exact_counts_repeat(tmp_path):
    for args in SMALL_OPS:
        first = counts(traced(tmp_path, args)[1])
        second = counts(traced(tmp_path, args)[1])
        assert first == second, args


def test_traced_probe_counts_the_error_in_probabilistic(tmp_path):
    op, _ = probe_ops(0)[0]
    _, trace = traced(tmp_path, op.args)
    assert trace["exit"] == 1
    assert trace["layers"]["probabilistic"]["errors"] >= 1


# --- metric names and the run contract ---------------------------------------


def test_every_benchmark_metric_is_emitted_with_its_unit(tmp_path):
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    _, full = traced(tmp_path, SMALL_OPS[4])
    _, light = traced(tmp_path, SMALL_OPS[4], light=True)
    metrics = run.per_layer_metrics([full], [light], 2.0, 1.0)
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert metrics["identities.EQ6.s"][0] > 0


def test_reference_process_runs_without_fubini(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run.Runner(tmp_path).spawn([sys.executable, str(tmp_path / "perfbench" / "refwork.py")], 60.0)
    assert proc.code == 0 and proc.wall_s > 0


def test_seed_fixes_the_inputs():
    for workload in WORKLOADS:
        assert ops_for(workload, 3) == ops_for(workload, 3)
        assert ops_for(workload, 3)
    assert ops_for("mc-sums", 3) != ops_for("mc-sums", 4)


def test_every_pinned_op_has_a_digest():
    digests = gate.load_digests()
    pinned = {op.key for w in WORKLOADS for op in ops_for(w, 0) if op.command in ("table", "series")}
    assert pinned == set(digests)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *benchmark_spec()["command"][1:], "--workload", "mc-sums", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
