"""Fault-injection hooks for mutation-sensitivity testing.

``perturb`` additively shifts one entry of one table (a combinatorial number
or a stored moment) while active. Shifts apply at the public accessors, after
the memoized true value is computed; internal recurrences read the unshifted
tables, so a perturbation is a genuine single-entry fault rather than a
consistent redefinition.

This module also holds the one memo registry of the package. Every memo table
(a dict of rows or a list of rows, grown on demand) is created through
``memo``; ``clear_caches`` empties all of them, and ``perturb`` calls it on
entry and exit so stale values never mask a fault.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

TABLES = (
    "factorial",
    "binomial",
    "stirling1",
    "stirling2",
    "lah",
    "raw_moment",
    "sum_moment",
)

_active: dict[tuple, Fraction] = {}
_memos: list = []


def memo(table):
    """Register a memo table (a dict or a list) with clear_caches; return it."""
    _memos.append(table)
    return table


def clear_caches() -> None:
    """Empty every registered memo table."""
    for table in _memos:
        table.clear()


def shift(table: str, key: tuple):
    """Additive delta for one table entry (0 when no perturbation is active)."""
    if not _active:
        return 0
    return _active.get((table, key), 0)


@contextmanager
def perturb(table: str, key: tuple, delta=1):
    """Shift table[key] by delta for the duration of the with-block."""
    if table not in TABLES:
        raise ValueError(f"unknown table {table!r}; expected one of {TABLES}")
    slot = (table, tuple(key))
    if slot in _active:
        raise ValueError(f"{slot} is already perturbed")
    clear_caches()
    _active[slot] = Fraction(delta)
    try:
        yield
    finally:
        del _active[slot]
        clear_caches()
