"""Command-line front end.

stdout carries exactly one machine-readable document per invocation (JSON by
default, CSV on request); anything meant for humans goes to stderr. Identical
flags and seed produce byte-identical stdout. Exit codes: 0 success, 1 check
failure (failed identity, failed spot-check, |z| > 5), 2 usage or parse error,
3 unexpected internal error (one line on stderr, no traceback).
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import sys
from fractions import Fraction

import click

from .distributions import DistributionSpecError, parse_distribution
from .identities import (
    IdentityId,
    default_config,
    resolve_identity,
    run_suite,
    suite_ok,
    thm2_2_numeric_spotcheck,
)
from .probabilistic import (
    mgf_degenerate_series,
    prob_fubini_poly,
    prob_fubini_poly_order,
)
from .rational import format_rational, parse_rational
from .sampling import MAX_DEGREE, MAX_DRAWS, MAX_SAMPLES, MIN_SAMPLES, FloatRangeError, estimate_sum_moment


def _parse_dist(spec: str, flag: str):
    try:
        return parse_distribution(spec)
    except DistributionSpecError as exc:
        raise click.UsageError(f"bad {flag} {spec!r}: {exc}") from exc


def _parse_rat(text: str, flag: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise click.UsageError(f"bad {flag} {text!r}: {exc}") from exc


def _check_out(ctx, param, out: str | None) -> str | None:
    """Refuse an --out path whose directory cannot take a new file.

    Runs while the flags are parsed, so a bad path costs no computation. The
    file itself is not opened here: an existing file keeps its contents until
    the document is ready, and _emit still turns a late OSError into exit 2.
    """
    if not out:
        return out
    parent = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(parent):
        reason = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(parent, os.W_OK | os.X_OK):
        reason = errno.EACCES
    else:
        return out
    raise click.UsageError(f"cannot write --out {out!r}: {os.strerror(reason)}", ctx)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError(
                f"cannot write --out {out!r}: {exc.strerror or exc}"
            ) from exc
    else:
        click.echo(text, nl=False)


def _json_doc(command: str, params: dict, rows: list, extra: dict | None = None) -> str:
    doc = {"command": command, "params": params, "rows": rows}
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


def _csv_line(fields) -> str:
    return ",".join(fields)


def _quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def _use_color() -> bool:
    return sys.stderr.isatty() and not os.environ.get("NO_COLOR")


def _fmt_float(x: float | None) -> str:
    return "" if x is None else repr(x)


class _Group(click.Group):
    """Maps an exception that escapes a command to exit 3 and one stderr line.

    Click's own errors (usage errors, exit requests, aborts) and SystemExit
    keep their codes: 1 is reserved for check failures, 2 for usage errors.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
            click.echo(
                f"Error: internal error {type(exc).__name__} at {where}: {exc}",
                err=True,
            )
            ctx.exit(3)


@click.group(cls=_Group)
def cli():
    """Exact tables, identity verification, generating functions, and
    Monte Carlo cross-checks for probabilistic degenerate Fubini polynomials."""


@cli.command("table")
@click.option("--dist", "dist_spec", required=True, help="Distribution spec, e.g. bernoulli:2/5.")
@click.option("--lambda", "lam_text", default="0", show_default=True, help="Degeneracy parameter (rational).")
@click.option("--n-max", "n_max", type=int, required=True, help="Emit rows for n = 0..n-max.")
@click.option("--r", "order_r", type=int, default=None, help="Emit the order-r family instead (r >= 1).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", "out", type=click.Path(dir_okay=False, writable=True), default=None, callback=_check_out, help="Write to file instead of stdout.")
def cmd_table(dist_spec, lam_text, n_max, order_r, fmt, out):
    """Coefficient table of the Fubini polynomials for one distribution."""
    dist = _parse_dist(dist_spec, "--dist")
    lam = _parse_rat(lam_text, "--lambda")
    if n_max < 0:
        raise click.UsageError("--n-max must be >= 0")
    if order_r is not None and order_r < 1:
        raise click.UsageError("--r must be >= 1")

    rows = []
    for n in range(n_max + 1):
        if order_r is None:
            poly = prob_fubini_poly(dist, n, lam)
        else:
            poly = prob_fubini_poly_order(dist, n, order_r, lam)
        # formatted from the stored numerators: reading poly.coeffs would
        # keep a Fraction tuple on the memoised polynomial
        coeffs = [format_rational(Fraction(c, poly.den)) for c in poly.nums]
        coeffs.extend(["0"] * (n + 1 - len(coeffs)))
        rows.append(
            {
                "n": n,
                "coefficients": coeffs,
                "value_at_1": format_rational(poly.evaluate(1)),
            }
        )

    params = {
        "dist": dist.spec_string(),
        "lambda": format_rational(lam),
        "n_max": n_max,
        "r": order_r,
    }
    if fmt == "json":
        text = _json_doc("table", params, rows)
    else:
        lines = ["n,coefficients,value_at_1"]
        for row in rows:
            lines.append(
                _csv_line(
                    [
                        str(row["n"]),
                        _quoted(",".join(row["coefficients"])),
                        row["value_at_1"],
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    _emit(text, out)


@cli.command("verify")
@click.option("--suite", "suite", multiple=True, default=("all",), show_default=True, help="Identity name or 'all'; repeatable.")
@click.option("--dists", "dists", multiple=True, help="Override the distribution grid; repeatable.")
@click.option("--lambda", "lams", multiple=True, help="Override the lambda grid; repeatable.")
@click.option("--n-max", "n_max", type=int, default=None, help="Override n_max (series depths scale with it).")
@click.option("--r-max", "r_max", type=int, default=None, help="Override r_max.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", "out", type=click.Path(dir_okay=False, writable=True), default=None, callback=_check_out)
def cmd_verify(suite, dists, lams, n_max, r_max, fmt, out):
    """Run the identity verification suite and report each outcome."""
    if "all" in suite:
        selected = list(IdentityId)
    else:
        try:
            selected = [resolve_identity(name) for name in suite]
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc

    # checked here, so that the message names the flag and not the
    # CheckConfig field behind it
    for flag, value in (("--n-max", n_max), ("--r-max", r_max)):
        if value is not None and value < 1:
            raise click.UsageError(f"{flag} must be >= 1")

    cfg = default_config()
    overrides = {}
    if dists:
        overrides["dists"] = tuple(_parse_dist(s, "--dists") for s in dists)
    if lams:
        overrides["lambdas"] = tuple(_parse_rat(s, "--lambda") for s in lams)
    if n_max is not None:
        overrides["n_max"] = n_max
        overrides["series_order"] = n_max + 2
        overrides["coeff_depth"] = 2 * n_max + 6
    if r_max is not None:
        overrides["r_max"] = r_max
    if overrides:
        try:
            cfg = dataclasses.replace(cfg, **overrides)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc

    reports = run_suite(cfg, selected)
    spot = (
        thm2_2_numeric_spotcheck(cfg) if IdentityId.THM2_2 in selected else None
    )
    ok = suite_ok(reports) and (spot is None or spot["ok"])

    params = {
        "suite": [i.value for i in selected],
        "lambdas": [format_rational(v) for v in cfg.lambdas],
        "n_max": cfg.n_max,
        "r_max": cfg.r_max,
        "dists": [d.spec_string() for d in cfg.dists],
        "x_points": [format_rational(v) for v in cfg.x_points],
        "series_order": cfg.series_order,
        "coeff_depth": cfg.coeff_depth,
    }
    rows = [r.to_dict() for r in reports]
    if fmt == "json":
        counts = {"pass": 0, "fail": 0, "known-discrepancy": 0}
        for r in reports:
            counts[r.status] += 1
        extra = {
            "summary": {
                "ok": ok,
                "passes": counts["pass"],
                "failures": counts["fail"],
                "known_discrepancies": counts["known-discrepancy"],
                "total_cases": sum(r.cases for r in reports),
            }
        }
        if spot is not None:
            extra["numeric_spotcheck"] = spot
        text = _json_doc("verify", params, rows, extra)
    else:
        lines = ["identity,status,cases,params,lhs,rhs"]
        for r in reports:
            cex = r.counterexample
            detail = (
                ";".join(f"{k}={v}" for k, v in cex.params.items()) if cex else ""
            )
            lines.append(
                _csv_line(
                    [
                        r.identity.value,
                        r.status,
                        str(r.cases),
                        _quoted(detail),
                        _quoted(cex.lhs if cex else ""),
                        _quoted(cex.rhs if cex else ""),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    _emit(text, out)

    color = _use_color()
    palette = {"pass": "green", "fail": "red", "known-discrepancy": "yellow"}
    for r in reports:
        click.secho(
            f"{r.identity.value}: {r.status} ({r.cases} cases)",
            err=True,
            fg=palette[r.status],
            color=color,
        )
    if spot is not None:
        state = "ok" if spot["ok"] else "FAILED"
        click.secho(
            f"THM2_2 numeric spot-check: {state} "
            f"(max rel err {spot['max_rel_err']:.3e} over {spot['cases']} cases)",
            err=True,
            fg="green" if spot["ok"] else "red",
            color=color,
        )
    click.secho(
        "suite ok" if ok else "suite FAILED",
        err=True,
        fg="green" if ok else "red",
        color=color,
    )
    if not ok:
        raise SystemExit(1)


@cli.command("series")
@click.option("--dist", "dist_spec", required=True)
@click.option("--lambda", "lam_text", default="0", show_default=True)
@click.option("--order", "order", type=int, required=True, help="Truncation order N; coefficients for n = 0..N.")
@click.option("--x", "x_text", default="1", show_default=True, help="Evaluation point (rational).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", "out", type=click.Path(dir_okay=False, writable=True), default=None, callback=_check_out)
def cmd_series(dist_spec, lam_text, order, x_text, fmt, out):
    """Truncated generating function 1/(1 - x (E[e_lam^Y(t)] - 1))."""
    dist = _parse_dist(dist_spec, "--dist")
    lam = _parse_rat(lam_text, "--lambda")
    x0 = _parse_rat(x_text, "--x")
    if order < 0:
        raise click.UsageError("--order must be >= 0")

    base = mgf_degenerate_series(dist, lam, order) - 1
    series = (1 - base * x0).reciprocal()
    rows = [
        {"n": n, "egf_coefficient": format_rational(series.egf_coefficient(n))}
        for n in range(order + 1)
    ]
    params = {
        "dist": dist.spec_string(),
        "lambda": format_rational(lam),
        "order": order,
        "x": format_rational(x0),
    }
    if fmt == "json":
        text = _json_doc("series", params, rows)
    else:
        lines = ["n,egf_coefficient"]
        lines.extend(f"{row['n']},{row['egf_coefficient']}" for row in rows)
        text = "\n".join(lines) + "\n"
    _emit(text, out)


@cli.command("mc")
@click.option("--dist", "dist_spec", required=True)
@click.option("--k", "k", type=int, required=True, help="Number of iid summands.")
@click.option("--n", "n", type=int, required=True, help=f"Degenerate falling-factorial degree, at most {MAX_DEGREE}.")
@click.option("--lambda", "lam_text", default="0", show_default=True)
@click.option("--samples", "samples", type=int, default=100_000, show_default=True)
@click.option("--seed", "seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", "out", type=click.Path(dir_okay=False, writable=True), default=None, callback=_check_out)
def cmd_mc(dist_spec, k, n, lam_text, samples, seed, fmt, out):
    """Monte Carlo estimate of E[(S_k)_{n,lambda}] against the exact value."""
    dist = _parse_dist(dist_spec, "--dist")
    lam = _parse_rat(lam_text, "--lambda")
    if samples < MIN_SAMPLES:
        raise click.UsageError(f"--samples must be >= {MIN_SAMPLES}")
    if samples > MAX_SAMPLES:
        raise click.UsageError(f"--samples must be <= {MAX_SAMPLES}")
    if k * samples > MAX_DRAWS:
        raise click.UsageError(f"--k times --samples must be <= {MAX_DRAWS}")
    if n > MAX_DEGREE:
        raise click.UsageError(f"--n must be <= {MAX_DEGREE}")
    try:
        result = estimate_sum_moment(dist, k, n, lam, samples, seed)
    except FloatRangeError as exc:
        raise click.UsageError(f"bad --dist {dist_spec!r}: {exc}") from exc
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    except (OverflowError, FloatingPointError) as exc:
        raise click.UsageError(
            f"--n {n} is too large for the float estimator ({exc}); lower --n"
        ) from exc

    params = {
        "dist": dist.spec_string(),
        "k": k,
        "n": n,
        "lambda": format_rational(lam),
        "samples": samples,
        "seed": seed,
    }
    rows = [result.to_dict()]
    if fmt == "json":
        text = _json_doc("mc", params, rows)
    else:
        lines = [
            "estimate,stderr,exact,exact_float,zscore,samples,suspicious",
            _csv_line(
                [
                    repr(result.estimate),
                    repr(result.stderr),
                    str(result.exact),
                    repr(float(result.exact)),
                    _fmt_float(result.zscore),
                    str(result.samples),
                    "true" if result.suspicious else "false",
                ]
            ),
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, out)
    if result.suspicious:
        click.secho(
            f"z-score {result.zscore:.2f} exceeds 5; estimate disagrees with exact value",
            err=True,
            fg="red",
            color=_use_color(),
        )
        raise SystemExit(1)


main = cli

if __name__ == "__main__":
    main()
