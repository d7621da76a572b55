"""Coproducts of finite and rational algebras, subterminality, separability.

The coproduct of two finite products of chains is computed by a closed
formula: one component per pair (i, j) of summand components, with the lcm
of the two chain orders, ordered lexicographically in (i, j).  The formula
is an implementation hypothesis, not an axiom: the test suite discharges it
by checking the universal property (precomposition with the injections is a
bijection onto pairs of homs) over exhaustive sweeps.  The Boolean part of
A+B needs no code of its own: its atoms are the k_A * k_B meets
in0(atom_i) /\\ in1(atom_j), one per grid cell, which is the Boolean
coproduct of the parts (the pierce-coproducts suite checks it).

Subterminality and the separable factors are read off the chain orders (a
single chain; the chains L_mi of L_m1 x ... x L_mk); the subterminal and
separability suites check them against A + A and ``decompose``.  The witness
of separability is a Boolean e of A+A with ker(codiagonal) = <not e>, which
splits A+A as A x (A+A)/<e> with the codiagonal as the first projection.
The codiagonal reads the diagonal cells (i, i), cell i * (k + 1) of the
grid, so e is their indicator, given in closed form.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

from .algebras import (
    AlgebraError,
    Element,
    FiniteMV,
    Hom,
    Ideal,
    ProductSplit,
    _neg,
    product_split,
)
from .pierce import chi
from .rationals import _ORDER_BOUND, MAX_ORDER_DIGITS, RationalAlgebra
from .records import Record


class CoproductResult(Record):
    """A + B with its injections; the codiagonal is present when the two
    summands coincide.  ``grid[t]`` is the (i, j) pair behind component t."""

    __slots__ = ("algebra", "in0", "in1", "codiagonal", "grid")
    algebra: FiniteMV
    in0: Hom
    in1: Hom
    codiagonal: Hom | None
    grid: tuple[tuple[int, int], ...]


def coproduct_finite(a: FiniteMV, b: FiniteMV) -> CoproductResult:
    """A + B, refused before anything is built when an lcm of two chain
    orders has more than MAX_ORDER_DIGITS digits."""
    grid = tuple((i, j) for i in range(a.num_components) for j in range(b.num_components))
    orders = tuple([lcm(a.orders[i], b.orders[j]) for i, j in grid])
    if orders and max(orders) >= _ORDER_BOUND:
        raise AlgebraError(f"a component of the coproduct has an order of more than {MAX_ORDER_DIGITS} digits")
    algebra = FiniteMV._make(orders)
    in0 = Hom._make(a, algebra, tuple([i for i, _ in grid]))
    in1 = Hom._make(b, algebra, tuple([j for _, j in grid]))
    codiag = None
    if a == b:
        # nabla o in0 = nabla o in1 = id forces component i to read cell (i, i): i * (k + 1)
        codiag = Hom._make(algebra, a, tuple(range(0, len(grid), a.num_components + 1)))
    return CoproductResult(algebra, in0, in1, codiag, grid)


def coproduct_rational(a: RationalAlgebra, b: RationalAlgebra) -> RationalAlgebra:
    """Join of denominator specifications (lcm on finite chains); A + A = A,
    realizing the codiagonal as an isomorphism."""
    return a.join(b)


def is_subterminal_epic(algebra: FiniteMV | RationalAlgebra) -> bool:
    """Whether the unique map from the initial algebra is epic: the two
    injections into A + A agree, and A is not trivial.  Rational algebras
    have A + A = A.  On k chains, in0 and in1 read components i and j at cell
    (i, j), so they agree exactly when k = 1: a hom out of L_m has no choice
    of source component."""
    return isinstance(algebra, RationalAlgebra) or algebra.num_components == 1


class SeparabilityCertificate(Record):
    """Either a Boolean witness e in A+A with ker(codiagonal) = <not e>,
    together with the split it induces, or a refutation reason."""

    __slots__ = ("algebra", "coproduct", "witness", "split", "refutation")
    algebra: FiniteMV
    coproduct: CoproductResult
    witness: Element | None
    split: ProductSplit | None
    refutation: str | None

    @property
    def separable(self) -> bool:
        return self.witness is not None


def separability_witness(algebra: FiniteMV) -> SeparabilityCertificate:
    """The witness is the indicator of the diagonal cells (i, i) of A+A,
    ``chi`` of the off-diagonal cells.  Both defining conditions are checked
    on it: the codiagonal sends it to 1, and the ideal generated by its
    negation is ker(codiagonal); a candidate failing either is refuted."""
    cop = coproduct_finite(algebra, algebra)
    nabla = cop.codiagonal
    assert nabla is not None
    e = chi(cop.algebra, (t for t, (i, j) in enumerate(cop.grid) if i != j))
    kernel = Ideal._make(cop.algebra, frozenset(nabla.component_map))
    if nabla(e) == algebra.one() and Ideal.principal(cop.algebra, _neg(e)) == kernel:
        return SeparabilityCertificate(algebra, cop, e, product_split(cop.algebra, e), None)
    return SeparabilityCertificate(
        algebra, cop, None, None, "the diagonal indicator does not complement the codiagonal kernel"
    )


class SeparabilityResult(Record):
    __slots__ = ("separable", "factors")
    separable: bool
    factors: tuple[RationalAlgebra, ...]


def is_separable(
    algebra: FiniteMV | RationalAlgebra | Sequence[RationalAlgebra],
) -> SeparabilityResult:
    """Decide separability and produce the rational factors.  A finite
    product of chains L_m1 x ... x L_mk has the chains L_mi, embedded in
    [0,1] ∩ Q, as its factors; a product of rational algebras is already its
    own factorization.  (Every representable algebra is separable; the
    separability suite compares the factors with ``decompose`` followed by
    ``holder_embed``, and the tests compare the verdict with the witness.)"""
    if isinstance(algebra, RationalAlgebra):
        return SeparabilityResult(True, (algebra,))
    if isinstance(algebra, FiniteMV):
        return SeparabilityResult(True, tuple(RationalAlgebra.chain(m) for m in algebra.orders))
    factors = tuple(algebra)
    if not all(isinstance(f, RationalAlgebra) for f in factors):
        raise AlgebraError(f"{algebra!r} is not a representable algebra")
    return SeparabilityResult(True, factors)
