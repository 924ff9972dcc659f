"""Pin the stdout digests of the table and series ops (digests.json).

Run from the root of a checkout: python3 perfbench/pin.py

Before writing, each output is cross-checked at full depth against the other
generating-function path (gate.cross_check_table / cross_check_series), so a
digest is pinned only for an output that an independent computation confirms.
The digests in the repository were pinned at the commit that added the
benchmark; re-pin only when an output format change is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gate
from run import Runner, cross_check
from workloads import WORKLOADS

# Rows of `table` recomputed to check each pinned series (table is slower per row).
SERIES_CHECK_DEPTH = 24


def main() -> int:
    runner = Runner(Path.cwd())
    digests = {}
    problems = []
    for workload in WORKLOADS:
        for op in WORKLOADS[workload](0):
            if op.command not in ("table", "series"):
                continue
            proc = runner.cli(op.args, 600.0)
            if proc.code != 0:
                problems.append(f"{op.key}: exit code {proc.code}")
                continue
            depth = int(op.option("--n-max")) if op.command == "table" else SERIES_CHECK_DEPTH
            found = cross_check(runner, op, proc.stdout, depth)
            problems.extend(f"{op.key}: {p}" for p in found)
            digests[op.key] = gate.digest(proc.stdout)
            print(f"{op.key}: {digests[op.key]}", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    gate.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
