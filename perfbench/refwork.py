"""Reference process: fixed exact-arithmetic work that does not use fubini.

run.py times this process between passes to measure how fast the machine runs
a fresh Python process right now, and scales every reported time by it. Like a
`fubini` op it starts an interpreter, imports numpy and then builds
`Fraction`s with growing numerators and denominators. It must not change: the
scaled times of two commits are comparable only when both ran this same work.
"""

from fractions import Fraction

import numpy  # noqa: F401  (start-up cost like the CLI's)

ROWS = 240

rows = [[Fraction(1)]]
for n in range(1, ROWS):
    prev = rows[-1] + [Fraction(0)]
    rows.append([Fraction(0)] + [prev[k - 1] + Fraction(k, 3) * prev[k] for k in range(1, n + 1)])
