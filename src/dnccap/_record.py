"""Immutable value records: the base of dnccap's spec and result types.

A record class lists its attributes in `__slots__`. The names that do not
start with an underscore are its fields, in slot order; the others are
caches a constructor fills from the fields, such as `WeightBasis._index`.
On the fields a record gets

  - a constructor taking them positionally or by keyword, in slot order,
    each required exactly once;
  - equality and hashing, between records of the very same class only;
  - the repr `Name(field=value, ...)`;
  - `to_dict()`, the fields by name in slot order;
  - pickle and copy support, by calling the constructor on the fields.

Most records only store their fields and use `Record.__init__`. A class
writes its own constructor, storing every slot through `set_slot`, when
it must check, normalise or cache: `WeightAtom`, `WeightBasis`,
`ChannelSpec`, `RationalGF`, `CoefficientSeries` and `CapacityReport`.
Either way each slot is written once, by the constructor; assigning or
deleting an attribute afterwards raises AttributeError. A parser that has
checked every value itself, with the value's position for its error
message, builds its records past their checks: `ChannelSpec`, the
constraint and the regex nodes through `_unchecked`, `WeightBasis` through
`WeightBasis._distinct`, and each `WeightAtom` and `SymbolDef` of its
loops by writing the two slots itself, as `_unchecked` does.
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

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            # Every field given positionally, the common call.
            for field, value in zip(fields, args):
                set_slot(self, field, value)
            return
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__qualname__}() takes {len(fields)} arguments "
                f"but {len(args)} were given"
            )
        for field, value in zip(fields, args):
            set_slot(self, field, value)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError(
                    f"{type(self).__qualname__}() missing required argument {field!r}"
                )
            set_slot(self, field, kwargs.pop(field))
        if kwargs:
            field = next(iter(kwargs))
            problem = "multiple values for" if field in fields else "unexpected keyword"
            raise TypeError(f"{type(self).__qualname__}() got {problem} argument {field!r}")

    @classmethod
    def _unchecked(cls, *values):
        """The record of field values its caller has already checked, as a
        parser does, built past the class's own constructor. Only for a
        class whose every slot is a field."""
        self = object.__new__(cls)
        for field, value in zip(cls._fields, values):
            set_slot(self, field, value)
        return self

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._astuple()))

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
