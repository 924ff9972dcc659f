"""Correctness gate: every op's output against a reference not made by the code under test.

- verify: a hand-written verdict map (27 `pass`, THM2_9_PRINTED
  `known-discrepancy`), `summary.ok` and the numeric spot-check. Case counts
  are not compared, because de-duplicating checkers may change them.
- table / series: stdout digests pinned from the seed commit (digests.json),
  plus, once per run, the generating-function cross-checks below.
- mc: `exact` against closed forms of the law of the k-fold sum (Binomial,
  Poisson, Gamma, point mass), computed here with `fractions`, and |z| <= 5.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

PASSING = (
    "EQ6 EQ10_GF EQ11 EQ12_GF EQ14 EQ15_GF EQ19_INV EQ20_GF EQ22_GF EQ23_GF "
    "EQ29_BELL THM2_1 THM2_2 THM2_3 THM2_4 THM2_5 THM2_6 THM2_7 THM2_8 "
    "THM2_9_CORRECTED THM2_10 THM2_11 THM2_12 THM2_13 THM2_14 THM2_15 THM2_16"
).split()
# Suite order, as the CLI emits it, with the expected verdict of each identity.
VERDICTS = {name: "pass" for name in PASSING[:19]}
VERDICTS["THM2_9_PRINTED"] = "known-discrepancy"
VERDICTS.update({name: "pass" for name in PASSING[19:]})

DIGESTS_PATH = Path(__file__).with_name("digests.json")
Z_LIMIT = 5.0


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- verify -----------------------------------------------------------------


def check_verify(doc: dict) -> list[str]:
    problems = []
    if doc.get("command") != "verify":
        problems.append(f"command is {doc.get('command')!r}, not 'verify'")
    rows = doc.get("rows", [])
    got = [(r.get("identity"), r.get("status")) for r in rows]
    want = list(VERDICTS.items())
    if got != want:
        bad = [f"{i}:{s}" for (i, s) in got if VERDICTS.get(i) != s]
        problems.append(f"verdicts differ from the reference map: {bad or got}")
    for r in rows:
        has_cex = r.get("counterexample") is not None
        if has_cex != (r.get("status") != "pass"):
            problems.append(f"{r.get('identity')}: counterexample presence does not match status")
        if not isinstance(r.get("cases"), int) or r["cases"] < 1:
            problems.append(f"{r.get('identity')}: no cases checked")
    summary = doc.get("summary", {})
    expected = {"ok": True, "passes": 27, "failures": 0, "known_discrepancies": 1}
    for key, value in expected.items():
        if summary.get(key) != value:
            problems.append(f"summary.{key} = {summary.get(key)!r}, want {value!r}")
    if doc.get("numeric_spotcheck", {}).get("ok") is not True:
        problems.append("numeric spot-check not ok")
    return problems


# --- table / series ---------------------------------------------------------


def table_values_at_1(stdout: bytes, fmt: str) -> list[Fraction]:
    text = stdout.decode("utf-8")
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return [Fraction(row[2]) for row in rows]
    return [Fraction(row["value_at_1"]) for row in json.loads(text)["rows"]]


def table_polys(stdout: bytes) -> list[list[Fraction]]:
    return [[Fraction(c) for c in row["coefficients"]] for row in json.loads(stdout)["rows"]]


def series_egf(stdout: bytes) -> list[Fraction]:
    return [Fraction(row["egf_coefficient"]) for row in json.loads(stdout)["rows"]]


def egf_power(egf: list[Fraction], r: int) -> list[Fraction]:
    """EGF coefficients of the r-th power of the series with EGF coefficients egf."""
    ordinary = [a / math.factorial(n) for n, a in enumerate(egf)]
    out = [Fraction(1)] + [Fraction(0)] * (len(egf) - 1)
    for _ in range(r):
        out = [sum(out[i] * ordinary[n - i] for i in range(n + 1)) for n in range(len(egf))]
    return [c * math.factorial(n) for n, c in enumerate(out)]


def evaluate(coeffs: list[Fraction], x: Fraction) -> Fraction:
    return sum((c * x**k for k, c in enumerate(coeffs)), Fraction(0))


def cross_check_table(table_out: bytes, fmt: str, r: int, series_at_1: bytes) -> list[str]:
    """EQ23 path: row n of `table` at x = 1 against n![t^n] 1/(1 - (E - 1))^r."""
    values = table_values_at_1(table_out, fmt)
    reference = egf_power(series_egf(series_at_1), r)
    depth = min(len(values), len(reference))
    bad = [n for n in range(depth) if values[n] != reference[n]]
    return [f"table value_at_1 differs from the series path at n = {bad}"] if bad else []


def cross_check_series(series_out: bytes, x: Fraction, table_out: bytes) -> list[str]:
    """Series coefficients at x against the table polynomials evaluated at x."""
    coeffs = series_egf(series_out)
    polys = table_polys(table_out)
    depth = min(len(coeffs), len(polys))
    bad = [n for n in range(depth) if coeffs[n] != evaluate(polys[n], x)]
    return [f"series coefficient differs from table polynomial at x = {x}, n = {bad}"] if bad else []


# --- mc ---------------------------------------------------------------------


def _falling_poly(n: int, lam: Fraction) -> list[Fraction]:
    """Coefficients of x (x - lam) ... (x - (n - 1) lam)."""
    coeffs = [Fraction(1)]
    for j in range(n):
        shifted = [Fraction(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= j * lam * c
        coeffs = shifted
    return coeffs


def _stirling2_rows(m_max: int) -> list[list[int]]:
    rows = [[1]]
    for m in range(1, m_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[j - 1] + j * prev[j] for j in range(1, m + 1)])
    return rows


def sum_law_moment(dist: str, k: int, n: int, lam: Fraction) -> Fraction:
    """E[(S_k)_{n,lam}] from the closed-form law of S_k = Y_1 + ... + Y_k."""
    kind, _, body = dist.partition(":")
    falling = _falling_poly(n, lam)
    if kind == "point":
        c = k * Fraction(body)
        return evaluate(falling, c)
    if kind == "bernoulli":
        p = Fraction(body)
        return sum(
            (math.comb(k, s) * p**s * (1 - p) ** (k - s) * evaluate(falling, Fraction(s))
             for s in range(k + 1)),
            Fraction(0),
        )
    if kind == "poisson":
        mu = k * Fraction(body)
        s2 = _stirling2_rows(n)
        moments = [sum((s2[m][j] * mu**j for j in range(m + 1)), Fraction(0)) for m in range(n + 1)]
        return sum((c * moments[m] for m, c in enumerate(falling)), Fraction(0))
    if kind == "gamma":
        alpha, beta = (Fraction(t) for t in body.split(","))
        shape = k * alpha
        moments = [Fraction(1)]
        for m in range(1, n + 1):
            moments.append(moments[-1] * (shape + m - 1) / beta)
        return sum((c * moments[m] for m, c in enumerate(falling)), Fraction(0))
    raise ValueError(f"no closed-form sum law for {dist!r}")


def check_mc(doc: dict, dist: str, k: int, n: int, lam: Fraction, samples: int) -> list[str]:
    problems = []
    rows = doc.get("rows") or [{}]
    row = rows[0]
    reference = sum_law_moment(dist, k, n, lam)
    try:
        exact = Fraction(row["exact"])
    except (KeyError, TypeError, ValueError):
        return [f"no exact value in the document: {row.get('exact')!r}"]
    if exact != reference:
        problems.append(f"exact {row.get('exact')} differs from the closed form {reference}")
    if row.get("exact_float") != float(reference):
        problems.append("exact_float is not float(exact)")
    if row.get("samples") != samples:
        problems.append(f"samples {row.get('samples')} != {samples}")
    z = row.get("zscore")
    if z is None:
        if row.get("stderr") != 0.0 or not math.isclose(row.get("estimate"), float(reference), rel_tol=1e-9):
            problems.append("deterministic statistic differs from the exact value")
    elif not abs(z) <= Z_LIMIT:
        problems.append(f"|z| = {abs(z):.3f} > {Z_LIMIT}")
    if row.get("suspicious") is not False:
        problems.append("document flags the estimate as suspicious")
    return problems


def mc_args(args: tuple[str, ...]) -> tuple[str, int, int, Fraction, int]:
    opt = dict(zip(args[1::2], args[2::2]))
    return (
        opt["--dist"],
        int(opt["--k"]),
        int(opt["--n"]),
        Fraction(opt.get("--lambda", "0")),
        int(opt.get("--samples", "100000")),
    )


def check_output(op, code: int, stdout: bytes, stderr: bytes, digests: dict[str, str]) -> list[str]:
    """Gate one op's exit code and stdout; [] when the output is correct."""
    if code != 0:
        return [f"exit code {code}"]
    if b"Traceback" in stderr:
        return ["traceback on stderr"]
    if op.command in ("table", "series"):
        want = digests.get(op.key)
        if want is None:
            return [f"no pinned digest for {op.key!r}"]
        got = digest(stdout)
        return [] if got == want else [f"stdout digest {got[:12]} != pinned {want[:12]}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if op.command == "verify":
        return check_verify(doc)
    if op.command == "mc":
        return check_mc(doc, *mc_args(op.args))
    return [f"no reference for command {op.command!r}"]


def classify_probe(op, code: int, stdout: bytes, stderr: bytes, signature: bytes) -> tuple[str, list[str]]:
    """A known-defect probe: ('known-defect', []), ('fixed', []) or ('broken', problems)."""
    if code == 1 and signature in stderr:
        return "known-defect", []
    problems = check_output(op, code, stdout, stderr, {})
    return ("fixed" if not problems else "broken"), problems
