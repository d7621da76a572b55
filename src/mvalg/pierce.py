"""Boolean skeletons, prime spectra, and direct decompositions.

On finite products of chains every prime ideal is a coordinate kernel
{a : a_i = 0}, the prime and maximal spectra coincide, and the hull-kernel
topology is discrete; the spectrum is therefore materialized as the set of
component indices (with the discrete space emitted for the topology module
to consume).  Boolean elements are exactly the 0/1 coordinate vectors, which
the prime-residue criterion re-derives independently.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from typing import Iterable, Iterator

from .algebras import (
    ZERO,
    ONE,
    AlgebraError,
    Element,
    FiniteMV,
    Hom,
    Ideal,
    is_boolean,
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


class SpectrumPoint(Record):
    """The prime (= maximal) ideal {a : a_i = 0} of component i."""

    __slots__ = ("ambient", "index")
    ambient: FiniteMV
    index: int

    def __init__(self, ambient: FiniteMV, index: int):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "index", index)

    def ideal(self) -> Ideal:
        return Ideal(self.ambient, [self.index])

    def __repr__(self) -> str:
        return f"SpectrumPoint({self.index} of {list(self.ambient.orders)})"


def spectrum(algebra: FiniteMV) -> list[SpectrumPoint]:
    return [SpectrumPoint(algebra, i) for i in range(algebra.num_components)]


def spectrum_space(algebra: FiniteMV) -> FinSpace:
    """The spectral topology; discrete on this class of algebras."""
    return FinSpace.discrete(algebra.num_components)


def vanishing_locus(algebra: FiniteMV, elems: Iterable[Element]) -> frozenset[SpectrumPoint]:
    """V(S): the primes containing every element of S."""
    elems = [algebra.check(a) for a in elems]
    return frozenset(
        SpectrumPoint(algebra, i)
        for i in range(algebra.num_components)
        if all(a[i] == ZERO for a in elems)
    )


def support(algebra: FiniteMV, a: Element) -> frozenset[SpectrumPoint]:
    """Su(a): the complement of V(a)."""
    return frozenset(set(spectrum(algebra)) - vanishing_locus(algebra, [a]))


def _point_indices(algebra: FiniteMV, points: Iterable) -> frozenset[int]:
    out = set()
    for p in points:
        i = p.index if isinstance(p, SpectrumPoint) else p
        if not isinstance(i, int) or not 0 <= i < algebra.num_components:
            raise AlgebraError(f"{p!r} is not a spectrum point of {algebra}")
        out.add(i)
    return frozenset(out)


def phi(algebra: FiniteMV, b: Element) -> frozenset[SpectrumPoint]:
    """The clopen V(b) attached to a Boolean element."""
    if not is_boolean(algebra, b):
        raise AlgebraError(f"{b!r} is not Boolean in {algebra}")
    return vanishing_locus(algebra, [b])


def chi(algebra: FiniteMV, zero_on: Iterable) -> Element:
    """The Boolean element with residue 0 on the given clopen and 1 off it;
    inverse to phi."""
    z = _point_indices(algebra, zero_on)
    return tuple(ZERO if i in z else ONE for i in range(algebra.num_components))


def chinese_boolean(algebra: FiniteMV, zero_part: Iterable, one_part: Iterable) -> Element:
    """The unique Boolean element vanishing on one closed part of a partition
    of the spectrum and equal to 1 on the other: ``chi`` of the zero part.
    It is unique because a Boolean element is fixed by its residues."""
    z = _point_indices(algebra, zero_part)
    o = _point_indices(algebra, one_part)
    if z | o != frozenset(range(algebra.num_components)) or z & o:
        raise AlgebraError("the two parts must partition the spectrum")
    return chi(algebra, z)


def is_boolean_via_primes(algebra: FiniteMV, a: Element) -> bool:
    """The prime-residue criterion: Boolean iff every residue a/p is 0 or 1.
    The primes are the coordinate kernels, so the residue at the prime of
    component i is the image a[i] of a in the chain A/p."""
    algebra.check(a)
    return all(a[i] in (ZERO, ONE) for i in range(algebra.num_components))


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
    factors = []
    projections = []
    for i in range(algebra.num_components):
        factor = FiniteMV((algebra.orders[i],))
        factors.append(factor)
        projections.append(Hom(algebra, factor, (i,)))
    return Decomposition(tuple(factors), tuple(projections))


def radical(algebra: FiniteMV) -> Ideal:
    """Intersection of the maximal ideals; zero on this class."""
    return Ideal(algebra, range(algebra.num_components))


def is_semisimple(algebra: FiniteMV) -> bool:
    return radical(algebra).is_zero


def is_simple(algebra: FiniteMV) -> bool:
    """Exactly two ideals, i.e. a single chain."""
    return algebra.num_components == 1


def holder_embed(algebra: FiniteMV) -> RationalAlgebra:
    """The unique embedding of a simple algebra into the rational interval:
    the chain of the same order, coordinates unchanged."""
    if not is_simple(algebra):
        raise AlgebraError(f"{algebra} is not simple")
    return RationalAlgebra.chain(algebra.orders[0])


def gelfand_transform(algebra: FiniteMV, a: Element) -> dict[SpectrumPoint, Fraction]:
    """The coordinate table of a over the spectrum: p_i -> residue a_i."""
    algebra.check(a)
    return {p: a[p.index] for p in spectrum(algebra)}
