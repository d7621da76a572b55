"""
Finite spaces: components, pi0, and product preservation
========================================================

Components of finite spaces are clopen, so they coincide with the
quasi-components that a scan of every clopen finds, and pi0 preserves finite
products - all checkable by exhaustion here.
"""

from mvalg import (
    FiniteMV,
    FinSpace,
    boolean_skeleton,
    components,
    coproduct_finite,
    gamma_compare,
    meet,
    pi0,
)
from mvalg.oracles import quasi_components_bruteforce
from mvalg.topology import iter_topologies

# the two-point space with one open point is connected: no clopen splits it
sierpinski = FinSpace.from_sets(2, [[], [0], [0, 1]])
print("components:", components(sierpinski), " quasi (clopen scan):", quasi_components_bruteforce(sierpinski))
print("pi0 classes:", pi0(sierpinski).class_count)

# on a discrete space pi0 changes nothing
print("pi0 of discrete 3:", pi0(FinSpace.discrete(3)).class_count)

# pi0 of a product vs the product of the pi0s: the comparison map gamma
report = gamma_compare(sierpinski, FinSpace.discrete(2))
print("\ngamma bijective:", report.is_bijective, " homeomorphism:", report.is_homeomorphism)

# sweep every topology on three points
spaces = list(iter_topologies(3))
print("topologies on 3 labeled points:", len(spaces))
print("components = quasi-components on all of them:",
      all(components(s) == quasi_components_bruteforce(s) for s in spaces))

# the Boolean side: the atoms of the Boolean part of A+B are the meets
# in0(atom_i) /\ in1(atom_j), so atom counts multiply
a = FiniteMV([2, 3])
cop = coproduct_finite(a, a)
meets = {meet(cop.algebra, cop.in0(a.atom(i)), cop.in1(a.atom(j))) for i in range(2) for j in range(2)}
atoms = set(boolean_skeleton(cop.algebra).atoms())
print(f"\nP({list(a.orders)}+{list(a.orders)}) has {len(atoms)} atoms = 2 x 2;",
      "the meets of atom pairs are", "exactly them" if meets == atoms else "not them")
