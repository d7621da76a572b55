"""The immutable record base shared by mvalg's value classes.

A subclass lists its fields in ``__slots__``; the fields of a subclass of a
subclass follow its parent's.  Every record

* is built positionally, ``FinSpace(points, nbhds)``, by one constructor
  given to its class when the class is created: positional-only, one
  slot-setter call per field, in field order.  It is the template below for
  the class's field count, with the class's slot setters as its globals, so
  nothing is compiled at run time.  It is the class's ``_init``, and its
  ``__init__`` unless the class writes one;
* is checked only where values enter from outside: a class writes
  ``__init__`` only to validate its input, and then calls
  ``self._init(...)``.  Where the library builds a record from parts that
  are valid by construction, ``cls._make(*fields)`` builds it through
  ``_init`` alone, with no check;
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
from types import FunctionType


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


# A record class with n fields gets the code of _init<n> as its constructor,
# with its slots' setters (which bypass Record.__setattr__) as the globals
# s0 ... s<n-1>.
def _init0(self, /): pass
def _init1(self, _0, /): s0(self, _0)
def _init2(self, _0, _1, /): s0(self, _0); s1(self, _1)
def _init3(self, _0, _1, _2, /): s0(self, _0); s1(self, _1); s2(self, _2)
def _init4(self, _0, _1, _2, _3, /): s0(self, _0); s1(self, _1); s2(self, _2); s3(self, _3)
def _init5(self, _0, _1, _2, _3, _4, /): s0(self, _0); s1(self, _1); s2(self, _2); s3(self, _3); s4(self, _4)
def _init6(self, _0, _1, _2, _3, _4, _5, /): s0(self, _0); s1(self, _1); s2(self, _2); s3(self, _3); s4(self, _4); s5(self, _5)
_TEMPLATES = (_init0, _init1, _init2, _init3, _init4, _init5, _init6)


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:  # it would get a __dict__ and no fields
            raise TypeError(f"record class {cls.__name__} must declare __slots__")
        cls._fields = cls._fields + tuple(cls.__dict__["__slots__"])
        if len(cls._fields) >= len(_TEMPLATES):
            raise TypeError(f"record class {cls.__name__} has {len(cls._fields)} fields, more than {len(_TEMPLATES) - 1}")
        cls.__eq__, cls.__hash__ = _eq_and_hash(cls._fields)
        setters = {f"s{i}": getattr(cls, name).__set__ for i, name in enumerate(cls._fields)}
        cls._init = FunctionType(_TEMPLATES[len(cls._fields)].__code__, setters)
        cls._init.__qualname__ = f"{cls.__qualname__}.__init__"
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._init

    @classmethod
    def _make(cls, *fields):
        """The record with these fields, built without the class's checks."""
        record = object.__new__(cls)
        record._init(*fields)
        return record

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
