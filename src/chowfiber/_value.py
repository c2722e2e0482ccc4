"""The base of the package's immutable value classes.

A value class lists its fields in ``__slots__``, in constructor order.
A class whose values only store their fields writes no ``__init__``:
``Value.__init__`` takes one value per field, positionally or by name,
and fills a field left out from the class's ``_defaults``.  A class
that checks or coerces its arguments writes its own ``__init__``, which
checks them, then passes one value per field positionally to
``Value.__init__`` (its fast path), so ``Value.__init__`` is the one
place a field is stored.  Afterwards every assignment and deletion is
refused.  Two values are equal when they have the same type and equal
fields, so a value never equals a tuple of its fields, and the hash is
taken over the same fields.  A class whose fields hold dicts sets
``__hash__ = None``.

The classes are written out by hand rather than generated, because a
fresh ``chowfiber`` process is mostly interpreter start-up and import,
and generating them at import time is a large share of that.
"""

from __future__ import annotations

_set = object.__setattr__


class Value:
    __slots__ = ()
    #: Values of the fields a call may leave out.
    _defaults: dict[str, object] = {}

    def __init__(self, *fields: object, **named: object) -> None:
        names = self.__slots__
        if named or len(fields) != len(names):
            fields = self._bind(fields, named)
        for name, value in zip(names, fields):
            _set(self, name, value)

    def _bind(self, fields: tuple, named: dict) -> tuple:
        """The field values of a call that is not one positional value per field."""
        cls, names = type(self).__qualname__, self.__slots__
        if len(fields) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields but {len(fields)} were given")
        rest = names[len(fields):]
        if named.keys() - rest:
            name = next(name for name in named if name not in rest)
            problem = "two values for" if name in names else "an unknown"
            raise TypeError(f"{cls}() got {problem} field {name!r}")
        values = {**self._defaults, **named}
        try:
            return fields + tuple([values[name] for name in rest])
        except KeyError as missing:
            raise TypeError(f"{cls}() is missing field {missing.args[0]!r}") from None

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
