"""Benchmark of the `fubini` CLI: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table-deep --seed 1 --seconds 20 --trace 0

--trace 0 runs the workload's ops as real `fubini` processes (PYTHONPATH=src),
one at a time, pass after pass, for about --seconds seconds (at least one
pass), and reports the end-to-end metrics: setup_s (median wall time of
`fubini --help` over SETUP_RUNS processes), and the medians over passes of
wall_s, cpu_s and peak_rss_mb for one pass over the op list. Every op's output
goes through the correctness gate (gate.py); an op fails on an unexpected exit
code, a traceback, a timeout or an output that differs from its reference, and
a failed op is charged its timeout in wall_s and cpu_s.

Times are reported in reference seconds. On a shared machine the speed of a
fresh process drifts by tens of percent within minutes, so the run also times
a fixed reference process (refwork.py) during set-up and on both sides of
every pass, and scales each time by REF_NOMINAL_S / (median reference time
around it): the seconds it would take on a machine where the reference takes
REF_NOMINAL_S. Raw times and reference times go to stderr.

--trace 1 runs one pass of the ops under tracer.py, once with only the
identity checkers wrapped (the untraced reference) and once fully traced, and
reports the per-layer metrics. It checks that both give byte-identical stdout
and that the exact counts repeat those of any earlier traced run of the same
source in this checkout. Spans go to .bench_build/perfbench/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Progress goes to stderr. --summary runs every workload untraced and
prints a table of all end-to-end metrics with units, plus each workload's
error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gate
from tracer import LAYERS
from workloads import WORKLOADS, Op, ops_for, probe_ops

SETUP_RUNS = 9
# Times are scaled to a machine where the reference process takes
# REF_NOMINAL_S. It runs before every REF_EVERY-th set-up process (setup_s is
# scaled by their median) and REF_PER_SIDE times before the first pass and
# after every pass (each pass is scaled by the median of those on its sides).
REF_EVERY = 2
REF_PER_SIDE = 2
REF_NOMINAL_S = 0.5
# Rows compared once per run between the table and series paths.
CROSS_CHECK_DEPTH = 12
SETUP_TIMEOUT_S = 30.0
# No pass starts after PASS_DEADLINE_S and no child outlives RUN_DEADLINE_S
# (seconds since start), so a run exits well inside 180 s.
PASS_DEADLINE_S = 120.0
RUN_DEADLINE_S = 170.0
IDENTITIES = list(gate.VERDICTS)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
COUNT_KEYS = ("calls", "max_bits", "distinct_key_ratio", "draws")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


class Runner:
    """Starts one child at a time in the checkout and reaps it with its rusage."""

    def __init__(self, root: Path):
        self.root = root
        self.work = root / ".bench_build" / "perfbench"
        self.work.mkdir(parents=True, exist_ok=True)
        # fubini does no BLAS work; an idle BLAS thread pool spinning up at
        # numpy's import only adds noise to short ops on a 2-core machine.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
        # Children get Python's defaults whatever the caller's environment
        # says: cached bytecode (as an installed package has), buffered stdout.
        for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
            self.env.pop(name, None)
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, argv: list[str], timeout_s: float) -> Proc:
        timeout_s = max(1.0, min(timeout_s, RUN_DEADLINE_S - self.elapsed()))
        out_path = self.work / "child.out"
        err_path = self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=self.root,
            )
            timer = threading.Timer(timeout_s, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
            timed_out=wall >= timeout_s,
        )

    def cli(self, args, timeout_s: float) -> Proc:
        return self.spawn([sys.executable, "-m", "fubini.cli", *args], timeout_s)

    def reference(self) -> Proc:
        return self.spawn([sys.executable, str(Path(__file__).with_name("refwork.py"))], 60.0)

    def traced(self, op: Op, light: bool) -> tuple[Proc, dict]:
        out = self.work / ("trace-light.json" if light else "trace-full.json")
        out.unlink(missing_ok=True)
        tracer = str(Path(__file__).with_name("tracer.py"))
        argv = [sys.executable, tracer, "--out", str(out), *(["--light"] if light else []), "--", *op.args]
        proc = self.spawn(argv, op.timeout_s * (1 if light else 2))
        trace = json.loads(out.read_text()) if out.exists() else {}
        return proc, trace


class Gate:
    """Applies gate.py to each op and keeps the tallies of one run."""

    def __init__(self):
        self.digests = gate.load_digests()
        self.attempted = 0
        self.failed = 0

    def check(self, op: Op, proc: Proc) -> bool:
        self.attempted += 1
        problems = ["timed out"] if proc.timed_out else gate.check_output(
            op, proc.code, proc.stdout, proc.stderr, self.digests
        )
        if problems:
            self.failed += 1
            log(f"FAILED {op.key}: {'; '.join(problems)}")
            if proc.stderr:
                log(proc.stderr.decode("utf-8", "replace")[-2000:])
        return not problems

    def extra(self, what: str, problems: list[str]) -> None:
        """Record a once-per-run check that is not itself a timed op."""
        self.attempted += 1
        if problems:
            self.failed += 1
            log(f"FAILED {what}: {'; '.join(problems)}")


def cross_check(runner: Runner, op: Op, stdout: bytes, depth: int) -> list[str]:
    """The EQ23 path: a table op against `series`, a series op against `table`, n <= depth."""
    dist, lam = op.option("--dist"), op.option("--lambda", "0")
    if op.command == "table":
        ref = runner.cli(["series", "--dist", dist, "--lambda", lam, "--order", str(depth), "--x", "1"], 600.0)
    else:
        ref = runner.cli(["table", "--dist", dist, "--lambda", lam, "--n-max", str(depth)], 600.0)
    if ref.code != 0:
        return [f"reference run exit code {ref.code}"]
    if op.command == "table":
        r = int(op.option("--r", "1"))
        return gate.cross_check_table(stdout, op.option("--format", "json"), r, ref.stdout)
    return gate.cross_check_series(stdout, Fraction(op.option("--x", "1")), ref.stdout)


def run_probes(runner: Runner, checker: Gate, seed: int, traced: bool) -> list[dict]:
    """The known defects of `mc`, outside timing: each known-defect or fixed."""
    traces = []
    for op, signature in probe_ops(seed):
        if traced:
            proc, trace = runner.traced(op, light=False)
            traces.append(trace)
        else:
            proc = runner.cli(op.args, op.timeout_s)
        state, problems = gate.classify_probe(op, proc.code, proc.stdout, proc.stderr, signature)
        checker.extra(f"probe {op.key}", problems)
        log(f"probe {op.key}: {state}")
    return [t for t in traces if t]


def time_reference(runner: Runner, checker: Gate, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        proc = runner.reference()
        checker.extra("reference process", [] if proc.code == 0 else [f"exit code {proc.code}"])
        samples.append(proc.wall_s)
    return samples


def measure_setup(runner: Runner, checker: Gate) -> tuple[float, float]:
    """Median `fubini --help` wall time, and the median reference time around it."""
    samples, refs = [], []
    for i in range(SETUP_RUNS):
        if i % REF_EVERY == 0:
            refs += time_reference(runner, checker, 1)
        proc = runner.cli(["--help"], SETUP_TIMEOUT_S)
        ok = proc.code == 0 and b"Usage:" in proc.stdout
        checker.extra("setup --help", [] if ok else [f"exit code {proc.code}, no usage text"])
        samples.append(proc.wall_s)
    return statistics.median(samples), statistics.median(refs)


def run_timed(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    checker = Gate()
    ops = ops_for(workload, seed)
    runner.cli(["--help"], SETUP_TIMEOUT_S)  # warm-up: byte-compiles src once
    setup_raw, setup_ref = measure_setup(runner, checker)

    passes = []  # (wall, cpu, rss, reference time around the pass)
    outputs: dict[str, bytes] = {}
    started = time.perf_counter()
    budget = min(seconds, PASS_DEADLINE_S - runner.elapsed())
    before = time_reference(runner, checker, REF_PER_SIDE)
    while True:
        wall = cpu = rss = 0.0
        for op in ops:
            proc = runner.cli(op.args, op.timeout_s)
            ok = checker.check(op, proc)
            wall += proc.wall_s if ok else max(proc.wall_s, op.timeout_s)
            cpu += proc.cpu_s if ok else max(proc.cpu_s, op.timeout_s)
            rss = max(rss, proc.rss_mb)
            outputs[op.key] = proc.stdout
        after = time_reference(runner, checker, REF_PER_SIDE)
        passes.append((wall, cpu, rss, statistics.median(before + after)))
        before = after
        elapsed = time.perf_counter() - started
        mean_pass = elapsed / len(passes)
        if elapsed + mean_pass > budget:
            break
    log(f"{workload}: {len(passes)} passes of {len(ops)} ops in {elapsed:.2f} s; "
        + "pass wall / reference: " + " ".join(f"{p[0]:.3f}/{p[3]:.3f}" for p in passes))

    for op in ops:
        if op.command in ("table", "series"):
            checker.extra(f"cross-check {op.key}", cross_check(runner, op, outputs[op.key], CROSS_CHECK_DEPTH))
    if workload == "mc-sums":
        run_probes(runner, checker, seed, traced=False)

    raw = {
        "setup_s": setup_raw,
        "wall_s": statistics.median(p[0] for p in passes),
        "cpu_s": statistics.median(p[1] for p in passes),
    }
    metrics = {
        "setup_s": setup_raw * REF_NOMINAL_S / setup_ref,
        "wall_s": statistics.median(p[0] * REF_NOMINAL_S / p[3] for p in passes),
        "cpu_s": statistics.median(p[1] * REF_NOMINAL_S / p[3] for p in passes),
        "peak_rss_mb": statistics.median(p[2] for p in passes),
    }
    for name, value in metrics.items():
        count = SETUP_RUNS if name == "setup_s" else len(passes)
        unscaled = f", raw {raw[name]:.4f} s" if name in raw else ""
        log(f"  {name} = {value:.4f} {END_TO_END_UNITS[name]} (median of {count}{unscaled})")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def source_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "fubini").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def per_layer_metrics(traces: list[dict], light_traces: list[dict], wall_full: float, wall_light: float) -> dict:
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (sum(t["layers"][layer]["calls"] for t in traces), "count")
        m[f"{layer}.self_s"] = (sum(t["layers"][layer]["self_s"] for t in traces), "s")
        m[f"{layer}.errors"] = (sum(t["layers"][layer]["errors"] for t in traces), "count")
    checker_s = {name: 0.0 for name in IDENTITIES}
    cases = 0
    for t in light_traces:
        for c in t["checkers"]:
            checker_s[c["id"]] += c["s"]
            cases += c["cases"]
    for name, seconds in checker_s.items():
        m[f"identities.{name}.s"] = (seconds, "s")
    total_s = sum(checker_s.values())
    m["identities.cases_per_s"] = (cases / total_s if total_s else 0.0, "1/s")
    for layer in ("probabilistic", "poly", "series"):
        m[f"{layer}.max_bits"] = (max((t["max_bits"][layer] for t in traces), default=0), "bits")
    keys = sum(sum(t["distinct_keys"].values()) for t in traces)
    calls = sum(sum(t["keyed_calls"].values()) for t in traces)
    m["probabilistic.distinct_key_ratio"] = (keys / calls if calls else 0.0, "ratio")
    m["sampling.draws"] = (sum(t["draws"] for t in traces), "count")
    m["trace.overhead_ratio"] = (wall_full / wall_light, "ratio")
    return m


def check_counts(runner: Runner, workload: str, metrics: dict) -> list[str]:
    """Exact counts must repeat those of an earlier traced run of the same source."""
    counts = {k: v[0] for k, v in metrics.items() if k.rpartition(".")[2] in COUNT_KEYS}
    record = runner.work / f"counts-{workload}-{source_hash(runner.root)}.json"
    if not record.exists():
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps(counts, indent=1, sort_keys=True))
        os.replace(tmp, record)
        return []
    earlier = json.loads(record.read_text())
    return [f"{k}: {counts.get(k)} != earlier {v}" for k, v in earlier.items() if counts.get(k) != v]


def run_traced(runner: Runner, workload: str, seed: int) -> dict:
    checker = Gate()
    ops = ops_for(workload, seed)
    runner.cli(["--help"], SETUP_TIMEOUT_S)
    traces, light_traces, spans = [], [], []
    wall_full = wall_light = 0.0
    for op in ops:
        light, light_trace = runner.traced(op, light=True)
        full, trace = runner.traced(op, light=False)
        checker.check(op, full)
        if full.stdout != light.stdout:
            checker.extra(f"trace {op.key}", ["traced stdout differs from untraced stdout"])
        if not trace or not light_trace:
            checker.extra(f"trace {op.key}", ["tracer wrote no trace"])
            continue
        log(f"{op.key}: untraced {light.wall_s:.3f} s, traced {full.wall_s:.3f} s, "
            f"stdout sha256 {gate.digest(full.stdout)[:16]} (both)")
        wall_light += light.wall_s
        wall_full += full.wall_s
        traces.append(trace)
        light_traces.append(light_trace)
        spans.append({"op": op.key, "spans": trace["spans"], "functions": trace["functions"]})
    if workload == "mc-sums":
        traces.extend(run_probes(runner, checker, seed, traced=True))
    if not traces or not wall_light:
        return {"correct": False, "attempted": max(checker.attempted, 1),
                "failed": max(checker.failed, 1), "metrics": {}}

    metrics = per_layer_metrics(traces, light_traces, wall_full, wall_light)
    checker.extra("exact-count stability", check_counts(runner, workload, metrics))
    spans_path = runner.work / f"spans-{workload}-{seed}.json"
    spans_path.write_text(json.dumps(spans))
    log(f"spans and per-function counters: {spans_path.relative_to(runner.root)}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def summary(root: Path, seed: int, seconds: float) -> int:
    rows = []
    for workload in WORKLOADS:
        result = run_timed(Runner(root), workload, seed, seconds)
        rows.append((workload, result))
    names = list(END_TO_END_UNITS) + ["error_rate"]
    print(f"{'workload':<14}" + "".join(f"{n:>16}" for n in names))
    for workload, result in rows:
        m = result["metrics"]
        cells = [f"{m[n]['value']:.4f} {m[n]['unit']}" for n in END_TO_END_UNITS]
        cells.append(f"{result['failed'] / result['attempted']:.4f}")
        print(f"{workload:<14}" + "".join(f"{c:>16}" for c in cells))
    print(json.dumps({w: r for w, r in rows}))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the fubini CLI.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true", help="Run every workload untraced and print a table.")
    opts = parser.parse_args(argv)
    if not opts.summary and opts.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    if not (root / "src" / "fubini" / "cli.py").is_file():
        log(f"no fubini sources under {root / 'src'}; run from the root of a fubini checkout")
        return 2
    if opts.summary:
        return summary(root, opts.seed, opts.seconds)
    runner = Runner(root)
    if opts.trace:
        result = run_traced(runner, opts.workload, opts.seed)
    else:
        result = run_timed(runner, opts.workload, opts.seed, opts.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
