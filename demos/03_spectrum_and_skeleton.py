"""
Spectra, vanishing loci, and the Boolean skeleton
=================================================

Every prime ideal of a finite product of chains is a coordinate kernel, the
spectrum is discrete, and Boolean elements correspond exactly to clopens of
the spectrum.
"""

from mvalg import (
    FiniteMV,
    boolean_skeleton,
    chi,
    chinese_boolean,
    decompose,
    gelfand_transform,
    holder_embed,
    is_boolean_via_primes,
    phi,
    radical,
    spectrum,
    support,
    vanishing_locus,
)

A = FiniteMV([2, 3])
print("spectrum of [2,3]:", spectrum(A))  # one prime per component, named by its index

# vanishing locus and support of an element
x = A.element([1, 0])
print("V((1,0)) =", sorted(vanishing_locus(A, [x])))
print("Su((1,0)) =", sorted(support(A, x)))

# phi sends a Boolean element to its vanishing locus; chi inverts it
print("\nphi((1,0)) =", sorted(phi(A, x)))
print("chi({1})   =", chi(A, [1]))
print("round trip:", chi(A, phi(A, x)) == x)

# partition the spectrum into two closed parts: exactly one Boolean element
# vanishes on the first and is 1 on the second
print("chinese({0},{1}) =", chinese_boolean(A, [0], [1]))

# the prime-residue criterion agrees with the equational one
print("\nBoolean via primes, (1,0):  ", is_boolean_via_primes(A, x))
print("Boolean via primes, (1/2,1):", is_boolean_via_primes(A, A.element(["1/2", 1])))

# skeleton atoms split the algebra into simple chains
print("\nskeleton size:", boolean_skeleton(A).size)
dec = decompose(A)
print("factors:", [f.orders for f in dec.factors])

# each simple factor embeds uniquely into the rational interval
for f in dec.factors:
    print("Holder embedding of", f, "->", holder_embed(f))

# the transform reads an element as a table over the spectrum
table = gelfand_transform(A, A.element(["1/2", "1/3"]))
print("\ntransform of (1/2,1/3):", {i: str(v) for i, v in table.items()})
print("radical is zero:", radical(A).is_zero)
