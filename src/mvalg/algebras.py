"""Finite MV-algebras represented exactly as products of finite chains.

``FiniteMV((m1, ..., mk))`` is the product of the chains with denominators
m1, ..., mk; its carrier is the set of k-tuples whose i-th coordinate is a
fraction in {0, 1/mi, ..., 1}.  All operations are coordinatewise and exact
(stdlib fractions).  The empty product (k = 0) is the one-element algebra in
which 0 = 1.  Values are immutable and every function here is pure.

Elements have two forms.  The public form, which every public function takes
and returns, is a tuple of Fractions.  The internal code form is the tuple of
numerators (k1, ..., kk) with 0 <= ki <= mi, standing for (k1/m1, ...,
kk/mk): the coordinates of Gamma(Z^k, (m1, ..., mk)), where x + y is
min(k + l, m) and !x is m - k.  The exhaustive sweeps and the oracle tables
run on codes; ``FiniteMV._code`` is the one conversion into codes (it
validates) and ``FiniteMV._element`` the one conversion back.

Homomorphisms between such algebras are stored dually: one source-component
index per target component, constrained by divisibility of the chain
denominators.  That this captures *all* homomorphisms is not assumed; it is
checked against a brute-force function search (see oracles / tests).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from .records import Record

Element = tuple[Fraction, ...]
Code = tuple[int, ...]  # numerators over the chain orders

ZERO = Fraction(0)
ONE = Fraction(1)


class AlgebraError(ValueError):
    """Element/algebra mismatch or malformed algebraic input."""


# The term errors live here, beside AlgebraError, so that the command line
# catches them without importing the term parser; terms re-exports them.


class TermError(ValueError):
    """Evaluation error: unbound variable or constant outside the algebra."""


class ParseError(TermError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FiniteMV(Record):
    """A finite product of finite chains, given by their denominators."""

    __slots__ = ("orders",)
    orders: tuple[int, ...]

    def __init__(self, orders: Iterable[int] = ()):
        orders = tuple(orders)
        for m in orders:
            if type(m) is not int or m < 1:  # a bool is not an order
                raise AlgebraError(f"chain order must be a positive integer, got {m!r}")
        self._init(orders)

    @property
    def num_components(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        return prod(m + 1 for m in self.orders)

    @property
    def is_terminal(self) -> bool:
        return not self.orders

    def zero(self) -> Element:
        return tuple(ZERO for _ in self.orders)

    def one(self) -> Element:
        return tuple(ONE for _ in self.orders)

    def atom(self, i: int) -> Element:
        """The Boolean element that is 1 on component i and 0 elsewhere."""
        return _indicator(len(self.orders), _components(self, (i,)))

    def elements(self) -> Iterator[Element]:
        """All carrier elements, in lexicographic coordinate order."""
        yield from iproduct(*map(_chain, self.orders))

    def _codes(self) -> Iterator[Code]:
        """The codes of all carrier elements, in the order of elements()."""
        return iproduct(*(range(m + 1) for m in self.orders))

    def _code(self, x: Element) -> Code:
        """The code of x, raising AlgebraError exactly where check does."""
        return tuple(c.numerator * (m // c.denominator) for c, m in zip(self.check(x), self.orders))

    def _element(self, k: Code) -> Element:
        """The element with code k, read from the chain tables."""
        return tuple(_chain(m)[j] for j, m in zip(k, self.orders))

    def _has_code(self, k: Code) -> bool:
        """k is the code of an element: one numerator in 0..m per component."""
        if len(k) != len(self.orders):
            return False
        for j, m in zip(k, self.orders):
            if not 0 <= j <= m:
                return False
        return True

    def contains(self, x: Element) -> bool:
        """x is a tuple with one Fraction k/d per component, 0 <= k <= d and
        d dividing that component's order.  Fractions are kept in lowest
        terms, so this integer test on the public numerator and denominator
        is exactly membership of {0, 1/m, ..., 1}; no Fraction comparison
        is made."""
        if not isinstance(x, tuple) or len(x) != len(self.orders):
            return False
        for c, m in zip(x, self.orders):
            if not isinstance(c, Fraction):
                return False
            d = c.denominator
            if m % d or not 0 <= c.numerator <= d:
                return False
        return True

    def check(self, x: Element) -> Element:
        if not self.contains(x):
            raise AlgebraError(f"{x!r} is not an element of {self}")
        return x

    def element(self, coords: Iterable) -> Element:
        """Build a validated element from fractions, ints, or 'p/q' strings."""
        x = tuple(Fraction(c) for c in coords)
        return self.check(x)

    def canonical(self) -> "FiniteMV":
        return FiniteMV._make(tuple(sorted(self.orders)))

    def __repr__(self) -> str:
        return f"FiniteMV({list(self.orders)})"


@lru_cache(maxsize=256)
def _chain(m: int) -> tuple[Fraction, ...]:
    """The chain of order m, 0, 1/m, ..., 1, indexed by numerator."""
    return tuple(Fraction(j, m) for j in range(m + 1))


def _components(algebra: FiniteMV, indices: Iterable) -> frozenset[int]:
    """The given indices, each checked to be a component of algebra: an int
    in range, and not a bool or another int subclass."""
    k = len(algebra.orders)
    indices = tuple(indices)
    for i in indices:
        if type(i) is not int or not 0 <= i < k:
            raise AlgebraError(f"{i!r} is not a component of {algebra}")
    return frozenset(indices)


def _indicator(k: int, ones: frozenset[int]) -> Element:
    """The Boolean element of k components that is 1 exactly on ones."""
    return tuple(ONE if i in ones else ZERO for i in range(k))


# -- coordinatewise operations ------------------------------------------------
#
# Validation happens once, at a public entry: the public operations below,
# Hom.__call__, ProductSplit.pair and ProductSplit.combine check their
# arguments and then call the underscored versions, which do not.  The same
# holds for values: FiniteMV(...), Hom(...) and Ideal(...) check what they
# are given, and the library builds the values that are valid by
# construction (enumerate_homs, Hom.compose, _projection, the coproduct's
# maps) with the unchecked ``_make`` of records.py.
#
# Which form each underscored function takes:
# * Fraction tuples: _neg, _oplus, _odot, _join, _meet and Hom._apply.  The
#   term evaluator, the closure oracle and the public entries use these, so
#   public results are built without a conversion.
# * codes: _neg_code, _oplus_code, _is_boolean, FiniteMV._has_code,
#   Hom._code_action and pierce._is_boolean_via_primes.  Each takes the chain
#   orders (or its algebra) beside the code, since a numerator means nothing
#   without its denominator.
# * either: ProductSplit._combine, which only selects coordinates.
# The exhaustive sweeps and the oracle tables convert once on the way in
# (FiniteMV._code, or FiniteMV._codes for a whole carrier), stay on codes,
# and convert back (FiniteMV._element) only to print a counterexample.


def _neg(x: Element) -> Element:
    return tuple(ONE - c for c in x)


def _oplus(x: Element, y: Element) -> Element:
    return tuple(min(a + b, ONE) for a, b in zip(x, y))


def _odot(x: Element, y: Element) -> Element:
    return tuple(max(a + b - ONE, ZERO) for a, b in zip(x, y))


def _join(x: Element, y: Element) -> Element:
    return tuple(max(a, b) for a, b in zip(x, y))


def _meet(x: Element, y: Element) -> Element:
    return tuple(min(a, b) for a, b in zip(x, y))


def neg(algebra: FiniteMV, x: Element) -> Element:
    return _neg(algebra.check(x))


def oplus(algebra: FiniteMV, x: Element, y: Element) -> Element:
    return _oplus(algebra.check(x), algebra.check(y))


def odot(algebra: FiniteMV, x: Element, y: Element) -> Element:
    return _odot(algebra.check(x), algebra.check(y))


def join(algebra: FiniteMV, x: Element, y: Element) -> Element:
    return _join(algebra.check(x), algebra.check(y))


def meet(algebra: FiniteMV, x: Element, y: Element) -> Element:
    return _meet(algebra.check(x), algebra.check(y))


def _neg_code(orders: tuple[int, ...], k: Code) -> Code:
    return tuple(m - a for a, m in zip(k, orders))


def _oplus_code(orders: tuple[int, ...], k: Code, l: Code) -> Code:
    return tuple(min(a + b, m) for a, b, m in zip(k, l, orders))


def _is_boolean(orders: tuple[int, ...], k: Code) -> bool:
    """The equational criterion on a code: k + k = k."""
    return _oplus_code(orders, k, k) == k


def is_boolean(algebra: FiniteMV, x: Element) -> bool:
    """x is Boolean iff x + x = x (equivalently every coordinate is 0 or 1)."""
    return _is_boolean(algebra.orders, algebra._code(x))


def leq(x: Element, y: Element) -> bool:
    """Coordinatewise (product) order."""
    return all(a <= b for a, b in zip(x, y))


# -- homomorphisms -------------------------------------------------------------


class Hom(Record):
    """Homomorphism stored dually: component_map[j] is the source component
    feeding target component j; the source chain order must divide the target
    one.  The action copies that coordinate (values are unchanged; only the
    admissible denominator grows)."""

    __slots__ = ("source", "target", "component_map")
    source: FiniteMV
    target: FiniteMV
    component_map: tuple[int, ...]

    def __init__(self, source: FiniteMV, target: FiniteMV, component_map: Iterable[int]):
        component_map = tuple(component_map)
        m, n = source.orders, target.orders
        if len(component_map) != len(n):
            raise AlgebraError("component map must assign one source component per target component")
        for j, i in enumerate(component_map):
            if type(i) is not int or not 0 <= i < len(m):  # a bool is not an index
                raise AlgebraError(f"component map entry {i} out of range for {source}")
            if n[j] % m[i]:
                raise AlgebraError(f"order {m[i]} does not divide {n[j]} (source component {i} -> target component {j})")
        self._init(source, target, component_map)

    def __call__(self, x: Element) -> Element:
        return self._apply(self.source.check(x))

    def _apply(self, x: Element) -> Element:
        """The action on an element already known to lie in the source."""
        return tuple(x[i] for i in self.component_map)

    def _code_action(self) -> Callable[[Code], Code]:
        """The action on source codes: k_i/m_i is (k_i * n_j/m_i)/n_j in
        target component j, which reads source component i.  The pairs
        (i, n_j // m_i) are computed once here, so a sweep takes the action
        once per hom and then applies it to every code."""
        m = self.source.orders
        scaled = [(i, n // m[i]) for i, n in zip(self.component_map, self.target.orders)]

        def act(k: Code) -> Code:
            return tuple([k[i] * s for i, s in scaled])

        return act

    @staticmethod
    def identity(algebra: FiniteMV) -> "Hom":
        return Hom._make(algebra, algebra, tuple(range(algebra.num_components)))

    def compose(self, other: "Hom") -> "Hom":
        """self o other (apply other first)."""
        if other.target != self.source:
            raise AlgebraError("homs not composable")
        return Hom._make(other.source, self.target, tuple([other.component_map[i] for i in self.component_map]))

    def __repr__(self) -> str:
        return f"Hom({list(self.source.orders)}->{list(self.target.orders)}, {list(self.component_map)})"


def enumerate_homs(source: FiniteMV, target: FiniteMV) -> list[Hom]:
    """All homomorphisms source -> target, via the dual representation."""
    k_t = target.num_components
    choices = []
    for j in range(k_t):
        ok = [i for i, m in enumerate(source.orders) if target.orders[j] % m == 0]
        if not ok:
            return []
        choices.append(ok)
    return [Hom._make(source, target, cm) for cm in iproduct(*choices)]


# -- products, ideals, quotients ----------------------------------------------


class Ideal(Record):
    """Ideal of a finite product of chains: the elements vanishing on a fixed
    set of components.  (Every ideal of such an algebra has this shape; the
    tests justify this against the naive all-subsets enumeration.)"""

    __slots__ = ("ambient", "vanishing")
    ambient: FiniteMV
    vanishing: frozenset[int]

    def __init__(self, ambient: FiniteMV, vanishing: Iterable[int]):
        self._init(ambient, _components(ambient, vanishing))

    @staticmethod
    def generated_by(ambient: FiniteMV, generators: Iterable[Element]) -> "Ideal":
        """The ideal vanishing where every generator is 0 (``pierce.phi``
        reads the vanishing set of a Boolean element from its code instead)."""
        nonzero = {i for g in generators for i, c in enumerate(ambient.check(g)) if c}
        return Ideal._make(ambient, frozenset(range(ambient.num_components)) - nonzero)

    @staticmethod
    def principal(ambient: FiniteMV, a: Element) -> "Ideal":
        return Ideal.generated_by(ambient, [a])

    def contains(self, x: Element) -> bool:
        self.ambient.check(x)
        return all(x[i] == ZERO for i in self.vanishing)

    def elements(self) -> Iterator[Element]:
        """The product of the chains with each vanishing coordinate fixed at
        0, in the order of the ambient's elements()."""
        return iproduct(*((ZERO,) if i in self.vanishing else _chain(m) for i, m in enumerate(self.ambient.orders)))

    @property
    def is_zero(self) -> bool:
        return self.vanishing == frozenset(range(self.ambient.num_components))

    def __repr__(self) -> str:
        return f"Ideal({self.ambient!r}, vanishing={sorted(self.vanishing)})"


def quotient_by_ideal(algebra: FiniteMV, ideal: Ideal) -> tuple[FiniteMV, Hom]:
    """Quotient map A -> A/I.  Two elements are congruent mod I exactly when
    they agree on I's vanishing components, so the quotient keeps those."""
    if ideal.ambient != algebra:
        raise AlgebraError(f"{ideal!r} is not an ideal of {algebra}")
    return _projection(algebra, sorted(ideal.vanishing))


def _projection(algebra: FiniteMV, kept: Sequence[int]) -> tuple[FiniteMV, Hom]:
    """The product of the kept components, in the listed order, and the
    projection onto it: every quotient, split leg and chain factor."""
    part = FiniteMV._make(tuple([algebra.orders[i] for i in kept]))
    return part, Hom._make(algebra, part, tuple(kept))


def localize(algebra: FiniteMV, x: Element) -> tuple[FiniteMV, Hom]:
    """The quotient A -> A/<not x> for Boolean x, which inverts x: the leg
    of ``product_split`` where x = 1."""
    split = product_split(algebra, x)
    return split.part1, split.q1


class ProductSplit(Record):
    """The two quotients induced by a Boolean element x, exhibiting the
    ambient algebra as the product of the part where x = 0 (q0, which inverts
    not-x) and the part where x = 1 (q1, which inverts x)."""

    __slots__ = ("ambient", "element", "part0", "q0", "part1", "q1")
    ambient: FiniteMV
    element: Element
    part0: FiniteMV
    q0: Hom
    part1: FiniteMV
    q1: Hom

    def pair(self, a: Element) -> tuple[Element, Element]:
        a = self.ambient.check(a)
        return self.q0._apply(a), self.q1._apply(a)

    def combine(self, c0: Element, c1: Element) -> Element:
        """The element c with q0 c = q0 c0 and q1 c = q1 c1: c1's coordinate
        where x = 1 and c0's elsewhere, the closed form of
        c = (c0 /\\ not x) \\/ (c1 /\\ x)."""
        return self._combine(self.ambient.check(c0), self.ambient.check(c1))

    def _combine(self, c0: Element, c1: Element) -> Element:
        """combine on arguments already known to lie in the ambient algebra,
        both elements or both codes: it only selects coordinates."""
        c = list(c0)
        for i in self.q1.component_map:  # exactly the components where x = 1
            c[i] = c1[i]
        return tuple(c)


def product_split(algebra: FiniteMV, x: Element) -> ProductSplit:
    """The split at a Boolean x.  Its quotient A/<x> keeps the components
    where x = 0, and A/<not x> those where x = 1."""
    if not is_boolean(algebra, x):
        raise AlgebraError(f"{x!r} is not Boolean in {algebra}")
    kept0, kept1 = [], []
    for i, c in enumerate(x):  # every c is 0 or 1
        (kept1 if c else kept0).append(i)
    return ProductSplit(algebra, x, *_projection(algebra, kept0), *_projection(algebra, kept1))
