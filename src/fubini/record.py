"""Immutable value classes, written as plain classes so that none is built
by code generation at import.

A subclass names its fields, in constructor order, in ``_fields`` and sets
them once from its own ``__init__`` with ``_init``. Equality needs the same
type and equal fields, the hash is that of the field tuple, and the repr
names the type and each field. Assigning or deleting an attribute raises
AttributeError; ``replace`` builds a changed copy through the constructor.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        # the instance __dict__ is written directly, so copy and pickle keep
        # working; only attribute assignment is refused
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def replace(self, **changes):
        """A new instance with the named fields changed, built and checked by
        the constructor as any other."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({body})"
