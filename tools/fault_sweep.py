"""Run the identity suite under single-entry faults: one JSON line per fault.

Run from the root of a checkout, with that checkout's package on the path:

    PYTHONPATH=src python tools/fault_sweep.py > sweep.jsonl

Each line names the fault (table, key, delta) and gives the sha256 of the
whole suite's reports (to_dict, in suite order, through json.dumps, as the
fault fingerprint test in tests/test_identities.py digests them), or the
type name of the exception the suite raised. Two checkouts report alike
under every fault exactly when their outputs are equal, so a change that
should alter no report is checked with ``diff`` of the two outputs, and
against ``tools/fault_sweep.sha256``, the digest of this checkout's output:

    PYTHONPATH=src python tools/fault_sweep.py | sha256sum -c tools/fault_sweep.sha256

The faults shift one entry by 1 and by -2/3: the Stirling numbers of both
kinds, the Lah numbers and the binomials at n <= 7, the binomials C(k+1, k)
and C(k+2, k) for k <= 7 (the weights of orders 2 and 3), the factorials at
n <= 7, and on each default law E[Y**m] for m <= 5 and E[S_k**m] for k, m <= 3.
A faulted suite runs in about 25 ms on one core, the sweep of 618 in about 15 s.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from fubini import hooks
from fubini.distributions import Distribution
from fubini.identities import CheckConfig, default_config, run_suite

# The fault grid of tests/test_identities.py, on the default laws.
GRID = dict(
    lambdas=(Fraction(0), Fraction(1, 2), Fraction(-1, 4)),
    n_max=5,
    r_max=2,
    x_points=(Fraction(1), Fraction(1, 2), Fraction(-1, 3)),
    series_order=6,
    coeff_depth=10,
)
DELTAS = (Fraction(1), Fraction(-2, 3))


def faults() -> list[tuple]:
    """Every (table, key, delta) of the sweep, in the order it runs them."""
    laws = default_config().dists
    keys = [
        (table, (n, k))
        for table in ("stirling1", "stirling2", "lah", "binomial")
        for n in range(8)
        for k in range(n + 1)
    ]
    keys += [("binomial", (k + i, k)) for i in (1, 2) for k in range(8) if k + i > 7]
    keys += [("factorial", (n,)) for n in range(8)]
    keys += [("raw_moment", (law, m)) for law in laws for m in range(6)]
    keys += [("sum_moment", (law, k, m)) for law in laws for k in range(4) for m in range(4)]
    return [(table, key, delta) for table, key in keys for delta in DELTAS]


def outcome(cfg: CheckConfig, table: str, key: tuple, delta) -> dict:
    """The line of one fault: the digest of the suite's reports, or what it raised."""
    line = {
        "table": table,
        "key": [k.spec_string() if isinstance(k, Distribution) else k for k in key],
        "delta": str(delta),
    }
    try:
        with hooks.perturb(table, key, delta):
            reports = run_suite(cfg)
    except Exception as exc:  # a suite that raises is an outcome the sweep records
        return {**line, "raised": type(exc).__name__}
    document = json.dumps([r.to_dict() for r in reports])
    return {**line, "sha256": hashlib.sha256(document.encode()).hexdigest()}


def main() -> None:
    cfg = CheckConfig(dists=default_config().dists, **GRID)
    for fault in faults():
        print(json.dumps(outcome(cfg, *fault)), flush=True)


if __name__ == "__main__":
    main()
