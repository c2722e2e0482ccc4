"""The base of the package's immutable value classes.

A value class lists its fields in ``__slots__``, in constructor order,
and sets each one in its own ``__init__`` through
``object.__setattr__``; afterwards every assignment and deletion is
refused.  Two values are equal when they have the same type and equal
fields, so a value never equals a tuple of its fields, and the hash is
taken over the same fields.  A class whose fields hold dicts sets
``__hash__ = None``.

The classes are written out by hand rather than generated, because a
fresh ``chowfiber`` process is mostly interpreter start-up and import,
and generating them at import time is a large share of that.
"""

from __future__ import annotations


class Value:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # Copies and pickles go through __init__, since __setattr__ refuses.
        return (type(self), self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")
