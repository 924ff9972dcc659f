"""Fault-injection hooks for mutation-sensitivity testing.

``perturb`` additively shifts one entry of one table (a combinatorial number
or a stored moment) while active, as a genuine single-entry fault rather
than a consistent redefinition: no recurrence reads the shifted entry in
place of the true one. The combinatorial numbers shift at their public
accessors (``shifted``), after the memoized true value is read. E[Y**m]
(``raw_moment``) comes from a closed form, so its row takes the shift as the
entry is stored. E[S_k**m] (``sum_moment``) grows by a recurrence from its
own entries, so its row is stored unshifted and shifted when read
(``shifted_row``) by every reader but that recurrence.

This module also holds the one memo registry of the package. Every memo table
(a dict of rows or a list of rows, grown on demand) is created through
``memo``; ``clear_caches`` empties all of them, and ``perturb`` calls it on
entry and exit, so stale values never mask a fault and no stored shift
outlives its block.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from .rational import ScaledRow

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


def shifted(table: str, key: tuple, value):
    """value plus the active delta of table[key]; value itself when unperturbed."""
    if not _active:
        return value
    delta = _active.get((table, key))
    return value if delta is None else value + delta


def shifted_row(table: str, prefix: tuple, row: ScaledRow) -> ScaledRow:
    """row, entry m being table[prefix + (m,)], with the active deltas added.

    The row object itself when no entry of it is perturbed (every run outside
    ``perturb``), else a shifted copy; the stored row is never changed.
    """
    deltas = {key[-1]: d for (t, key), d in _active.items() if (t, key[:-1]) == (table, prefix)}
    if not deltas:
        return row
    return ScaledRow(row[m] + deltas.get(m, 0) for m in range(len(row)))


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
