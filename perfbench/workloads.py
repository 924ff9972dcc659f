"""The four benchmark workloads: fixed op lists, shaped by the workload seed.

Each op is one `fubini` CLI invocation (a fresh process, so caches start cold
as they do for a CLI user); a workload is a closed loop with one client that
runs its ops one at a time. The seed shuffles the op order and supplies every
`mc --seed`, so the same seed gives the same inputs, and any seed gives the
same amount of exact work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DISCRETE = "discrete:0=1/6,1=1/2,3=1/3"


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]
    timeout_s: float

    @property
    def command(self) -> str:
        return self.args[0]

    def option(self, flag: str, default: str | None = None) -> str | None:
        if flag in self.args:
            return self.args[self.args.index(flag) + 1]
        return default

    @property
    def key(self) -> str:
        return " ".join(self.args)


def _table(dist: str, lam: str, n_max: int, *extra: str) -> Op:
    return Op(("table", "--dist", dist, "--lambda", lam, "--n-max", str(n_max), *extra), 60.0)


def _series(dist: str, lam: str, order: int, x: str) -> Op:
    return Op(("series", "--dist", dist, "--lambda", lam, "--order", str(order), "--x", x), 60.0)


def _mc(dist: str, k: int, n: int, lam: str, samples: int, seed: int) -> Op:
    return Op(
        ("mc", "--dist", dist, "--k", str(k), "--n", str(n), "--lambda", lam,
         "--samples", str(samples), "--seed", str(seed)),
        30.0,
    )


def _op_seeds(seed: int, count: int, stream: str = "mc") -> list[int]:
    rng = random.Random(f"{stream}:{seed}")
    return [rng.randrange(2**32) for _ in range(count)]


def probe_ops(seed: int) -> list[tuple[Op, bytes]]:
    """Known defects of `mc`, each with the stderr text of its failure (exit 1).

    They run once per mc-sums run, outside timing and outside the op tallies;
    the gate accepts either the known failure or, once fixed, a correct
    document. Their state is logged, and traced runs count their errors.
    """
    s = _op_seeds(seed, 2, "probe")
    return [
        # k-deep recursion in the sum moments: RecursionError from k = 500 on
        (_mc("bernoulli:1/2", 1000, 2, "0", 1000, s[0]), b"RecursionError"),
        # point mass: float rounding gives a nonzero stderr and a huge z-score
        (_mc("point:5/2", 30, 5, "7/5", 1000, s[1]), b"exceeds 5"),
    ]


def _mc_ops(seed: int) -> list[Op]:
    s = _op_seeds(seed, 7)
    return [
        # large k, small n: the k-deep sum-moment recursion, just below the crash
        _mc("bernoulli:1/2", 400, 2, "0", 1000, s[0]),
        _mc("bernoulli:1/2", 200, 3, "-3", 5000, s[1]),
        _mc("bernoulli:2/5", 12, 4, "1/2", 50000, s[2]),
        _mc("poisson:3/2", 5, 4, "1/2", 50000, s[3]),
        _mc("poisson:1/2", 60, 3, "2", 20000, s[4]),
        _mc("gamma:3/2,2", 3, 3, "1/3", 50000, s[5]),
        _mc("gamma:1,1", 8, 2, "-1/4", 50000, s[6]),
    ]


def _fixed(ops: list[Op]):
    return lambda seed: list(ops)


WORKLOADS = {
    # `fubini verify --suite all`, the command that checks the paper: wide and
    # shallow, memo reuse heavy, per-call overhead dominates. At n_max 6 (the
    # default grid otherwise; 105,202 cases) a pass takes ~5 s instead of ~20 s,
    # so a run gets several passes: one 20 s op per run was too noisy here.
    "verify-suite": _fixed([Op(("verify", "--suite", "all", "--n-max", "6"), 60.0)]),
    # Few table ops at large n: every triangle entry computed once; big-integer
    # arithmetic in `probabilistic` dominates.
    "table-deep": _fixed(
        [
            _table("gamma:3/2,2", "1/3", 48),
            _table(DISCRETE, "-7/2", 40, "--r", "3"),
            _table("poisson:3/2", "13/4", 40, "--format", "csv"),
        ]
    ),
    # Generating functions at high order and x != 1: poly/series kernels only,
    # never `prob_stirling2` or the sum moments.
    "series-deep": _fixed(
        [
            _series("gamma:3/2,2", "1/3", 90, "1/2"),
            _series(DISCRETE, "-7/2", 90, "-1/3"),
        ]
    ),
    # Monte Carlo over varied dist/k/n/lambda: the only workload that samples.
    "mc-sums": _mc_ops,
}


def ops_for(workload: str, seed: int) -> list[Op]:
    ops = WORKLOADS[workload](seed)
    random.Random(f"order:{workload}:{seed}").shuffle(ops)
    return ops
