"""Boolean skeletons, prime spectra, and direct decompositions.

On finite products of chains every prime ideal is a coordinate kernel
{a : a_i = 0}, the prime and maximal spectra coincide, and the hull-kernel
topology is discrete; a point of the spectrum is therefore its component
index.  Loci, supports and clopens are sets of indices, read from
``Ideal.generated_by`` (``phi`` reads a clopen from the zeros of the
element's code); a Boolean element is the indicator of one, the 0/1
coordinate vector, which the prime-residue criterion re-derives
independently; the factors of ``decompose`` are the one-component
projections.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from typing import Iterable, Iterator

from .algebras import (
    ZERO,
    ONE,
    AlgebraError,
    Code,
    Element,
    FiniteMV,
    Hom,
    Ideal,
    _components,
    _indicator,
    _is_boolean,
    _projection,
)
from .rationals import RationalAlgebra
from .records import Record
from .topology import FinSpace


class BooleanSkeleton(Record):
    """The largest Boolean subalgebra: all 0/1 coordinate vectors, a powerset
    algebra on one atom per component."""

    __slots__ = ("ambient",)
    ambient: FiniteMV

    @property
    def atom_count(self) -> int:
        return self.ambient.num_components

    @property
    def size(self) -> int:
        return 1 << self.atom_count

    def elements(self) -> Iterator[Element]:
        yield from iproduct(*((ZERO, ONE) for _ in range(self.atom_count)))

    def atoms(self) -> list[Element]:
        return [self.ambient.atom(i) for i in range(self.atom_count)]


def boolean_skeleton(algebra: FiniteMV) -> BooleanSkeleton:
    return BooleanSkeleton(algebra)


def spectrum(algebra: FiniteMV) -> list[int]:
    """The prime (= maximal) ideals, one per component: index i stands for
    the coordinate kernel {a : a_i = 0}, which is ``Ideal(algebra, [i])``."""
    return list(range(algebra.num_components))


def spectrum_space(algebra: FiniteMV) -> FinSpace:
    """The spectral topology; discrete on this class of algebras."""
    return FinSpace.discrete(algebra.num_components)


def vanishing_locus(algebra: FiniteMV, elems: Iterable[Element]) -> frozenset[int]:
    """V(S): the primes containing S, the vanishing set of the ideal it generates."""
    return Ideal.generated_by(algebra, elems).vanishing


def support(algebra: FiniteMV, a: Element) -> frozenset[int]:
    """Su(a): the complement of V(a)."""
    return frozenset(range(algebra.num_components)) - Ideal.principal(algebra, a).vanishing


def phi(algebra: FiniteMV, b: Element) -> frozenset[int]:
    """The clopen V(b) attached to a Boolean element: the components where
    its code is 0, read from the code that validates it."""
    code = algebra._code(b)
    if not _is_boolean(algebra.orders, code):
        raise AlgebraError(f"{b!r} is not Boolean in {algebra}")
    return frozenset([i for i, j in enumerate(code) if not j])


def chi(algebra: FiniteMV, zero_on: Iterable[int]) -> Element:
    """The Boolean element with residue 0 on the given clopen and 1 off it;
    inverse to phi."""
    k = algebra.num_components
    return _indicator(k, frozenset(range(k)) - _components(algebra, zero_on))


def chinese_boolean(algebra: FiniteMV, zero_part: Iterable[int], one_part: Iterable[int]) -> Element:
    """The unique Boolean element vanishing on one closed part of a partition
    of the spectrum and equal to 1 on the other: ``chi`` of the zero part.
    It is unique because a Boolean element is fixed by its residues."""
    z = _components(algebra, zero_part)
    o = _components(algebra, one_part)
    k = algebra.num_components
    if z | o != frozenset(range(k)) or z & o:
        raise AlgebraError("the two parts must partition the spectrum")
    return _indicator(k, o)


def _is_boolean_via_primes(orders: tuple[int, ...], k: Code) -> bool:
    """The prime-residue criterion on a code: every residue is 0 or 1.  The
    primes are the coordinate kernels, so the residue at the prime of
    component i is k[i] / orders[i] in the chain A/p."""
    return all(k[i] in (0, orders[i]) for i in range(len(orders)))


def is_boolean_via_primes(algebra: FiniteMV, a: Element) -> bool:
    """The prime-residue criterion: Boolean iff every residue a/p is 0 or 1."""
    return _is_boolean_via_primes(algebra.orders, algebra._code(a))


class Decomposition(Record):
    __slots__ = ("factors", "projections")
    factors: tuple[FiniteMV, ...]
    projections: tuple[Hom, ...]

    @property
    def is_indecomposable(self) -> bool:
        return len(self.factors) == 1


def decompose(algebra: FiniteMV) -> Decomposition:
    """Split along the atoms of the Boolean skeleton into chains.  The
    projections jointly exhibit the algebra as the product of the factors."""
    factors, projections = [], []
    for i in range(algebra.num_components):
        factor, projection = _projection(algebra, (i,))
        factors.append(factor)
        projections.append(projection)
    return Decomposition(tuple(factors), tuple(projections))


def radical(algebra: FiniteMV) -> Ideal:
    """Intersection of the maximal ideals; zero on this class."""
    return Ideal._make(algebra, frozenset(range(algebra.num_components)))


def is_simple(algebra: FiniteMV) -> bool:
    """Exactly two ideals, i.e. a single chain."""
    return algebra.num_components == 1


def holder_embed(algebra: FiniteMV) -> RationalAlgebra:
    """The unique embedding of a simple algebra into the rational interval:
    the chain of the same order, coordinates unchanged."""
    if not is_simple(algebra):
        raise AlgebraError(f"{algebra} is not simple")
    return RationalAlgebra.chain(algebra.orders[0])


def gelfand_transform(algebra: FiniteMV, a: Element) -> dict[int, Fraction]:
    """The coordinate table of a over the spectrum: i -> residue a_i."""
    return dict(enumerate(algebra.check(a)))
