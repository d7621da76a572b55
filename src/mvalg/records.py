"""The immutable record base shared by mvalg's value classes.

A subclass lists its fields in ``__slots__``; the fields of a subclass of a
subclass follow its parent's.  Every record

* is built positionally, ``FinSpace(points, nbhds)``, by one constructor made
  for its class from its fields, as ``namedtuple`` and ``dataclasses`` make
  theirs: positional-only, one slot-setter call per field, in field order.
  It is the class's ``_init``, and its ``__init__`` unless the class writes
  one;
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

from functools import cache
from operator import attrgetter
from types import CodeType, FunctionType


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


@cache
def _template(n: int) -> CodeType:
    """The code of ``__init__(self, _0, ..., _n-1, /)``, which calls
    ``s_i(self, _i)`` for each field in turn."""
    args = "".join(f", _{i}" for i in range(n))
    body = "".join(f"    s_{i}(self, _{i})\n" for i in range(n)) or "    pass\n"
    return compile(f"def __init__(self{args}, /):\n{body}", f"<record constructor of {n} fields>", "exec").co_consts[0]


class _Ungenerated:
    """A class's ``_init``, and its ``__init__`` unless it writes one, until a
    record of the class is first built.  Then the class's constructor is made
    from the template for its field count, with its field names and with the
    slots' setters (which bypass ``Record.__setattr__``) as the ``s_i``, and
    takes this one's place.  Start-up builds no record, so it compiles none."""

    def __get__(self, record, cls):
        setters = {f"s_{i}": getattr(cls, name).__set__ for i, name in enumerate(cls._fields)}
        init = cls._init = FunctionType(_template(len(cls._fields)).replace(co_varnames=("self", *cls._fields)), setters)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        if cls.__dict__.get("__init__") is self:
            cls.__init__ = init
        return init if record is None else init.__get__(record, cls)


_UNGENERATED = _Ungenerated()


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:  # it would get a __dict__ and no fields
            raise TypeError(f"record class {cls.__name__} must declare __slots__")
        cls._fields = cls._fields + tuple(cls.__dict__["__slots__"])
        cls.__eq__, cls.__hash__ = _eq_and_hash(cls._fields)
        cls._init = _UNGENERATED
        if "__init__" not in cls.__dict__:
            cls.__init__ = _UNGENERATED

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
