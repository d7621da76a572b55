"""The immutable record base shared by mvalg's value classes.

A subclass lists its fields in ``__slots__``; the fields of a subclass of a
subclass follow its parent's.  Every record

* is built positionally, ``FinSpace(points, nbhds)``, in one of two ways:
  by the generic ``__init__`` below, or by a hand-written one that sets
  each field through the slot's own setter in ``_setters``, in field order
  (the constructors that validate their input, and those called once per
  swept item or parsed node, write their own, which is faster than the
  generic loop);
* compares equal only to a record of the same class with equal fields (a
  different class gives ``NotImplemented``), through an ``__eq__`` and a
  ``__hash__`` made for its class from its fields;
* hashes as ``hash(tuple(fields))``, so sets and dicts of records iterate in
  the same order as the tuples of their fields would;
* prints as ``ClassName(field=value, ...)`` unless it defines its own
  ``__repr__``;
* raises AttributeError on assignment or deletion.
"""

from __future__ import annotations

from operator import attrgetter


def _eq_and_hash(fields: tuple[str, ...]):
    """``__eq__`` and ``__hash__`` for a record class with these fields."""
    key = attrgetter(*fields) if fields else (lambda record: ())
    single = len(fields) == 1  # key gives the one value, not a tuple

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash((key(self),) if single else key(self))

    return __eq__, __hash__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:  # it would get a __dict__ and no fields
            raise TypeError(f"record class {cls.__name__} must declare __slots__")
        cls._fields = cls._fields + tuple(cls.__dict__["__slots__"])
        cls.__eq__, cls.__hash__ = _eq_and_hash(cls._fields)
        # the slots' own setters, which bypass the __setattr__ below
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} fields, got {len(values)}")
        for setter, value in zip(setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the positional constructor
        return type(self), tuple(getattr(self, name) for name in self._fields)
