"""Immutable value records: the base of dnccap's spec and result types.

A record class lists its attributes in `__slots__`. The names that do not
start with an underscore are its fields, in the order its constructor
takes them; the others are caches the constructor fills from the fields,
such as `WeightBasis._index`. On the fields a record gets

  - equality and hashing, between records of the very same class only;
  - the repr `Name(field=value, ...)`;
  - pickle and copy support, by calling the constructor on the fields.

Every slot is written once, by the class's own `__init__` through
`set_slot`; assigning or deleting an attribute afterwards raises
AttributeError.
"""

from __future__ import annotations

# Writes a slot past Record.__setattr__; only constructors call it.
set_slot = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()
