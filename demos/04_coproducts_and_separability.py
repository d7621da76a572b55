"""
Coproducts, subterminality, and the separability decision
=========================================================

The coproduct of finite products of chains is an lcm grid.  Subterminality
means equal injections into A + A, which on this class is exactly a single
chain, so it is read off the chain orders; the separable factors are the
chains themselves, and a Boolean complement of the codiagonal kernel
certifies separability.
"""

from mvalg import (
    INF,
    FiniteMV,
    RationalAlgebra,
    coproduct_finite,
    coproduct_rational,
    is_separable,
    is_subterminal_epic,
    separability_witness,
)

# chains: L2 + L3 = L6
print("L2 + L3 =", coproduct_finite(FiniteMV([2]), FiniteMV([3])).algebra)

# one lcm cell per component pair, ordered lexicographically
A = FiniteMV([2, 3])
cop = coproduct_finite(A, A)
print("[2,3] + [2,3] =", cop.algebra, "grid:", cop.grid)
print("in0:", cop.in0.component_map, " in1:", cop.in1.component_map)

# the injections agree exactly on the single chains (the subterminal
# objects), so is_subterminal_epic reads the answer off the chain orders
for alg in [FiniteMV([6]), A, FiniteMV([])]:
    print("subterminal", alg, "->", is_subterminal_epic(alg))

# the separability witness: the unique Boolean e with ker(codiagonal) = <!e>
cert = separability_witness(A)
print("\nwitness in A+A:", cert.witness)
print("codiagonal leg of the split:", cert.split.part1, "(the algebra itself)")

# the separable factors are the chains of A, embedded in the rationals
result = is_separable(A)
print("separable:", result.separable, "factors:", result.factors)

# rational algebras: coproduct = join of denominator specifications
dyadic = RationalAlgebra.supernatural({2: INF})
print("\ndyadic + chain(3) =", coproduct_rational(dyadic, RationalAlgebra.chain(3)))
print("dyadic + dyadic   =", coproduct_rational(dyadic, dyadic), "(codiagonal an isomorphism)")

# a finite product of rational algebras is separable with those factors
print(is_separable([dyadic, RationalAlgebra.chain(3)]))
