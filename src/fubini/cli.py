"""Command-line front end.

stdout carries exactly one machine-readable document per invocation (JSON by
default, CSV on request); anything meant for humans goes to stderr. Identical
flags and seed produce byte-identical stdout. Every command writes its
document through _document: the CSV form is one header line of the JSON row
keys, then one line per row (verify flattens its counterexample into quoted
`params`, `lhs` and `rhs` cells). Exit codes: 0 success, 1 check failure
(failed identity, failed spot-check, |z| > 5), 2 usage or parse error, 3
unexpected internal error (one line on stderr, no traceback), 130 interrupted.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .distributions import DistributionSpecError, parse_distribution
from .identities import (
    IdentityId,
    default_config,
    resolve_identity,
    run_suite,
    suite_ok,
    thm2_2_numeric_spotcheck,
)
from .probabilistic import mgf_degenerate_series, prob_fubini_poly_order
from .rational import format_rational, parse_rational
from .sampling import MAX_DEGREE, MAX_DRAWS, MAX_SAMPLES, MIN_SAMPLES, FloatRangeError, estimate_sum_moment

_DESCRIPTION = """\
  Exact tables, identity verification, generating functions, and Monte Carlo
  cross-checks for probabilistic degenerate Fubini polynomials."""

# Upper bound on verify --n-max, checked before anything is computed. The
# default grid (7 distributions, 12 lambdas) grows faster than n_max**5: on a
# 2-vCPU Xeon VM (Python 3.11) it took 5.0 s at n_max 25, 13-16 s and 58 MB at
# 30, 23 s and 97 MB at 35, and 60 s and 179 MB at 40. A smaller --dists or
# --lambda grid costs proportionally less.
VERIFY_MAX_N = 30

# Upper bound on verify --r-max: the order-r checkers grow about linearly in
# r_max, and the default grid took 24 s and 82 MB at --n-max 30 --r-max 10
# on that VM (10 s and 52 MB at the default r_max 3).
VERIFY_MAX_R = 10

# Upper bounds on table --n-max and series --order, checked before anything
# is computed. The cost also grows with the digits of --lambda and of the
# distribution's parameters. On that VM, at gamma:3/2,2 and lambda 1/3, table
# took 1.1 s and 55 MB at n-max 200 (7.0 s and 155 MB at 300), and series
# --x 1/2 took 1.4 s and 34 MB at order 400 (4.9 s and 73 MB at 600); at
# lambda 1/99999999999999999999 each took about 40 s at its bound.
TABLE_MAX_N = 200
SERIES_MAX_ORDER = 400

# ANSI colours of the stderr status lines
_GREEN, _YELLOW, _RED = 32, 33, 31


class UsageError(Exception):
    """A bad flag or flag value: exit 2, ending in one `Error: ` line on stderr."""


class _Formatter(argparse.RawDescriptionHelpFormatter):
    """Help whose first line starts `Usage: `, as it always has."""

    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


class _Parser(argparse.ArgumentParser):
    """argparse that reports a parse error as a UsageError."""

    def __init__(self, prog: str, description: str, usage: str = "%(prog)s [OPTIONS]", epilog=None):
        super().__init__(
            prog=prog,
            usage=usage,
            description=description,
            epilog=epilog,
            formatter_class=_Formatter,
            add_help=False,
            allow_abbrev=False,
        )
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise UsageError(message)


def _joined(args: list[str], flags) -> list[str]:
    """Each `--flag value` of `flags` as `--flag=value`.

    Every option of a command takes exactly one value, so the token after
    its flag is that value, whatever it looks like: argparse alone would take
    `--lambda -7/2` for two flags.
    """
    joined, tokens = [], iter(args)
    for token in tokens:
        value = next(tokens, None) if token in flags else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def _seed(text: str) -> int:
    """The --seed type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=0")
    return value


def _parse_dist(spec: str, flag: str):
    try:
        return parse_distribution(spec)
    except DistributionSpecError as exc:
        raise UsageError(f"bad {flag} {spec!r}: {exc}") from exc


def _parse_rat(text: str, flag: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise UsageError(f"bad {flag} {text!r}: {exc}") from exc


def _check_out(out: str | None) -> None:
    """Refuse an --out path that is empty, a directory, or cannot take a file.

    Runs once the flags are parsed, so a bad path costs no computation. The
    file itself is not opened here: an existing file keeps its contents until
    the document is ready, and _emit still turns a late OSError into exit 2.
    Only None (no --out) means stdout.
    """
    if out is None:
        return
    parent = os.path.dirname(os.path.abspath(out))
    if not out:
        reason = errno.ENOENT
    elif os.path.isdir(out):
        reason = errno.EISDIR
    elif os.path.exists(out) and not os.access(out, os.W_OK):
        reason = errno.EACCES
    elif not os.path.isdir(parent):
        reason = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(parent, os.W_OK | os.X_OK):
        reason = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write --out {out!r}: {os.strerror(reason)}")


def _lift_digit_limit() -> None:
    """Let the command write exact values of any length.

    CPython 3.11+ (and 3.10 from 3.10.7) refuses to convert an int of more than
    sys.get_int_max_str_digits() digits (4,300 by default) to or from a
    string, and an exact table, series or counterexample can pass that. A
    command calls this once its flag values are parsed, so a flag value of
    that length is still refused with exit 2; _run restores the limit when
    the command returns. An interpreter without the limit has nothing to lift.
    """
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(
                f"cannot write --out {out!r}: {exc.strerror or exc}"
            ) from exc
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _cell(value) -> str:
    """One CSV cell; a list is one quoted field of its items joined by commas."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return '"' + ",".join(value).replace('"', '""') + '"'
    return str(value)


def _document(command: str, fmt: str, params: dict, rows: list, extra: dict | None = None) -> str:
    """The stdout document: JSON of everything, or CSV of the rows alone."""
    if fmt == "json":
        doc = {"command": command, "params": params, "rows": rows, **(extra or {})}
        return json.dumps(doc, indent=2) + "\n"
    lines = [",".join(rows[0])] + [",".join(map(_cell, row.values())) for row in rows]
    return "\n".join(lines) + "\n"


def _use_color() -> bool:
    return sys.stderr.isatty() and not os.environ.get("NO_COLOR")


def _note(text: str, ansi: int, color: bool) -> None:
    """One status line on stderr, in the ANSI colour `ansi` when `color` is set."""
    if color:
        text = f"\x1b[{ansi}m{text}\x1b[0m"
    sys.stderr.write(text + "\n")


# name -> (handler, options); each option is (flag, add_argument keywords), and
# _run adds _FORMAT and _OUT to them. The handler takes the parsed values as
# keywords and returns the exit code.
_COMMANDS: dict = {}


def _command(name: str, *options):
    def register(handler):
        _COMMANDS[name] = (handler, options)
        return handler

    return register


_FORMAT = ("--format", dict(dest="fmt", choices=("json", "csv"), default="json", help="[default: json]"))
_OUT = ("--out", dict(metavar="FILE", help="Write to file instead of stdout."))
_LAMBDA = ("--lambda", dict(dest="lam_text", metavar="TEXT", default="0", help="Degeneracy parameter (rational).  [default: 0]"))


@_command(
    "table",
    ("--dist", dict(dest="dist_spec", metavar="TEXT", required=True, help="Distribution spec, e.g. bernoulli:2/5.  [required]")),
    _LAMBDA,
    ("--n-max", dict(dest="n_max", metavar="INTEGER", type=int, required=True, help=f"Emit rows for n = 0..n-max, at most {TABLE_MAX_N}.  [required]")),
    ("--r", dict(dest="order_r", metavar="INTEGER", type=int, help="Emit the order-r family instead (r >= 1).")),
)
def cmd_table(dist_spec, lam_text, n_max, order_r, fmt, out):
    """Coefficient table of the Fubini polynomials for one distribution."""
    dist = _parse_dist(dist_spec, "--dist")
    lam = _parse_rat(lam_text, "--lambda")
    if not 0 <= n_max <= TABLE_MAX_N:
        raise UsageError("--n-max must be >= 0" if n_max < 0 else f"--n-max must be <= {TABLE_MAX_N}")
    if order_r is not None and order_r < 1:
        raise UsageError("--r must be >= 1")
    _lift_digit_limit()

    rows = []
    for n in range(n_max + 1):
        poly = prob_fubini_poly_order(dist, n, order_r or 1, lam)
        coeffs = [format_rational(c) for c in poly.coeffs]
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
    _emit(_document("table", fmt, params, rows), out)
    return 0


@_command(
    "verify",
    ("--suite", dict(metavar="TEXT", action="append", help="Identity name or 'all'; repeatable.  [default: all]")),
    ("--dists", dict(metavar="TEXT", action="append", help="Override the distribution grid; repeatable.")),
    ("--lambda", dict(dest="lams", metavar="TEXT", action="append", help="Override the lambda grid; repeatable.")),
    ("--n-max", dict(dest="n_max", metavar="INTEGER", type=int, help=f"Override n_max (series depths scale with it), at most {VERIFY_MAX_N}.")),
    ("--r-max", dict(dest="r_max", metavar="INTEGER", type=int, help=f"Override r_max, at most {VERIFY_MAX_R}.")),
)
def cmd_verify(suite, dists, lams, n_max, r_max, fmt, out):
    """Run the identity verification suite and report each outcome."""
    if suite is None or "all" in suite:
        selected = list(IdentityId)
    else:
        try:
            # a repeated name runs and is reported once, where it first appears
            selected = list(dict.fromkeys(resolve_identity(name) for name in suite))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    # checked here, so that the message names the flag and not the
    # CheckConfig field behind it
    for flag, value, top in (("--n-max", n_max, VERIFY_MAX_N), ("--r-max", r_max, VERIFY_MAX_R)):
        if value is not None and not 1 <= value <= top:
            raise UsageError(f"{flag} must be >= 1" if value < 1 else f"{flag} must be <= {top}")

    cfg = default_config() if n_max is None else default_config(n_max)
    overrides = {}
    # a value repeated, as given or in another spelling (2/2 and 1), is
    # checked and echoed once, where it first appears
    if dists:
        overrides["dists"] = tuple(dict.fromkeys(_parse_dist(s, "--dists") for s in dists))
    if lams:
        overrides["lambdas"] = tuple(dict.fromkeys(_parse_rat(s, "--lambda") for s in lams))
    if r_max is not None:
        overrides["r_max"] = r_max
    if overrides:
        try:
            cfg = cfg.replace(**overrides)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    _lift_digit_limit()

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
    statuses = [r.status for r in reports]
    extra = {
        "summary": {
            "ok": ok,
            "passes": statuses.count("pass"),
            "failures": statuses.count("fail"),
            "known_discrepancies": statuses.count("known-discrepancy"),
            "total_cases": sum(r.cases for r in reports),
        }
    }
    if spot is not None:
        extra["numeric_spotcheck"] = spot
    if fmt == "json":
        rows = [r.to_dict() for r in reports]
    else:
        # the counterexample, if any, as three one-item lists: quoted cells
        rows = []
        for r in reports:
            cex = r.counterexample
            detail = ";".join(f"{k}={v}" for k, v in cex.params.items()) if cex else ""
            rows.append(
                {
                    "identity": r.identity.value,
                    "status": r.status,
                    "cases": r.cases,
                    "params": [detail],
                    "lhs": [cex.lhs if cex else ""],
                    "rhs": [cex.rhs if cex else ""],
                }
            )
    _emit(_document("verify", fmt, params, rows, extra), out)

    color = _use_color()
    palette = {"pass": _GREEN, "fail": _RED, "known-discrepancy": _YELLOW}
    for r in reports:
        _note(f"{r.identity.value}: {r.status} ({r.cases} cases)", palette[r.status], color)
    if spot is not None:
        state = "ok" if spot["ok"] else "FAILED"
        _note(
            f"THM2_2 numeric spot-check: {state} "
            f"(max rel err {spot['max_rel_err']:.3e} over {spot['cases']} cases)",
            _GREEN if spot["ok"] else _RED,
            color,
        )
    _note("suite ok" if ok else "suite FAILED", _GREEN if ok else _RED, color)
    return 0 if ok else 1


@_command(
    "series",
    ("--dist", dict(dest="dist_spec", metavar="TEXT", required=True, help="Distribution spec.  [required]")),
    _LAMBDA,
    ("--order", dict(metavar="INTEGER", type=int, required=True, help=f"Truncation order N; coefficients for n = 0..N, at most {SERIES_MAX_ORDER}.  [required]")),
    ("--x", dict(dest="x_text", metavar="TEXT", default="1", help="Evaluation point (rational).  [default: 1]")),
)
def cmd_series(dist_spec, lam_text, order, x_text, fmt, out):
    """Truncated generating function 1/(1 - x (E[e_lam^Y(t)] - 1))."""
    dist = _parse_dist(dist_spec, "--dist")
    lam = _parse_rat(lam_text, "--lambda")
    x0 = _parse_rat(x_text, "--x")
    if not 0 <= order <= SERIES_MAX_ORDER:
        raise UsageError("--order must be >= 0" if order < 0 else f"--order must be <= {SERIES_MAX_ORDER}")
    _lift_digit_limit()

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
    _emit(_document("series", fmt, params, rows), out)
    return 0


@_command(
    "mc",
    ("--dist", dict(dest="dist_spec", metavar="TEXT", required=True, help="Distribution spec.  [required]")),
    ("--k", dict(metavar="INTEGER", type=int, required=True, help="Number of iid summands.  [required]")),
    ("--n", dict(metavar="INTEGER", type=int, required=True, help=f"Degenerate falling-factorial degree, at most {MAX_DEGREE}.  [required]")),
    _LAMBDA,
    ("--samples", dict(metavar="INTEGER", type=int, default=100_000, help="[default: 100000]")),
    ("--seed", dict(metavar="INTEGER", type=_seed, default=0, help="Integer >= 0.  [default: 0]")),
)
def cmd_mc(dist_spec, k, n, lam_text, samples, seed, fmt, out):
    """Monte Carlo estimate of E[(S_k)_{n,lambda}] against the exact value."""
    dist = _parse_dist(dist_spec, "--dist")
    lam = _parse_rat(lam_text, "--lambda")
    for flag, value in (("--k", k), ("--n", n)):
        if value < 0:
            raise UsageError(f"{flag} must be >= 0")
    if samples < MIN_SAMPLES:
        raise UsageError(f"--samples must be >= {MIN_SAMPLES}")
    if samples > MAX_SAMPLES:
        raise UsageError(f"--samples must be <= {MAX_SAMPLES}")
    if k * samples > MAX_DRAWS:
        raise UsageError(f"--k times --samples must be <= {MAX_DRAWS}")
    if n > MAX_DEGREE:
        raise UsageError(f"--n must be <= {MAX_DEGREE}")
    _lift_digit_limit()
    try:
        result = estimate_sum_moment(dist, k, n, lam, samples, seed)
    except FloatRangeError as exc:
        raise UsageError(f"bad --dist {dist_spec!r}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except OverflowError as exc:
        raise UsageError(
            f"--n {n} is too large for the float estimator ({exc}); lower --n"
        ) from exc
    except FloatingPointError as exc:
        # the scale of the law overflows the statistic as surely as the degree
        raise UsageError(
            f"--n {n} is too large for the float estimator at --dist {dist_spec!r} "
            f"({exc}); lower --n or the scale of --dist"
        ) from exc

    params = {
        "dist": dist.spec_string(),
        "k": k,
        "n": n,
        "lambda": format_rational(lam),
        "samples": samples,
        "seed": seed,
    }
    _emit(_document("mc", fmt, params, [result.to_dict()]), out)
    if result.suspicious:
        _note(
            f"z-score {result.zscore:.2f} exceeds 5; estimate disagrees with exact value",
            _RED,
            _use_color(),
        )
        return 1
    return 0


def _run(argv: list[str], prog: str) -> int:
    """Parse argv, run its command and return the exit code."""
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    listing = "\n".join(
        f"  {name:<6}  {handler.__doc__.splitlines()[0]}"
        for name, (handler, _) in sorted(_COMMANDS.items())
    )
    parser = _Parser(prog, _DESCRIPTION, "%(prog)s [OPTIONS] COMMAND [ARGS]...", f"Commands:\n{listing}")
    try:
        if not argv:
            parser.print_help(sys.stderr)
            return 2
        name, args = argv[0], argv[1:]
        if name.startswith("-"):
            parser.parse_args([name])  # --help prints the help and exits 0
        if name not in _COMMANDS:
            raise UsageError(f"No such command {name!r}.")
        handler, options = _COMMANDS[name]
        options += (_FORMAT, _OUT)
        parser = _Parser(f"{prog} {name}", f"  {handler.__doc__}")
        for flag, kwargs in options:
            parser.add_argument(flag, **kwargs)
        opts = vars(parser.parse_args(_joined(args, {flag for flag, _ in options})))
        _check_out(opts["out"])
        return handler(**opts)
    except UsageError as exc:
        sys.stderr.write(
            f"{parser.format_usage()}Try '{parser.prog} --help' for help.\n\nError: {exc}\n"
        )
        return 2
    except SystemExit as exc:  # --help
        return exc.code
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        return 130  # 128 + SIGINT
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        sys.stderr.write(f"Error: internal error {type(exc).__name__} at {where}: {exc}\n")
        return 3
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


def main(args=None, prog_name=None, standalone_mode=True):
    """Run the CLI on args (default sys.argv[1:]).

    In standalone mode the exit code is raised as SystemExit, as a console
    script needs; otherwise it is returned.
    """
    if prog_name is None:
        prog_name = "python -m fubini.cli" if __name__ == "__main__" else os.path.basename(sys.argv[0])
    code = _run(sys.argv[1:] if args is None else list(args), prog_name)
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
