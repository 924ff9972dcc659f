"""Fault-injection hooks for mutation-sensitivity testing.

``perturb`` additively shifts one entry of one table (a combinatorial number
or a stored moment) while active, as a genuine single-entry fault rather
than a consistent redefinition: no recurrence reads the shifted entry in
place of the true one. The scalar tables of ``combinat`` shift at their
public accessors (``shifted``). A moment row, E[Y**m] (``raw_moment``) or
E[S_k**m] (``sum_moment``), is stored unshifted and shifted when read
(``shifted_row``) by every reader but the recurrence that grows E[S_k**m]
from its own entries.

This module also holds the one memo registry of the package. Every memo table
follows one rule: it holds rows keyed by the parameters of its quantity, not
by a length, grows a row on demand, and is kept only where a run reads its
rows again. Each is a dict of rows or a list of rows, created through
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
    if not _active:
        return row
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
