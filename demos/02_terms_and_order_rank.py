"""
Terms, generated subalgebras, and order-rank
============================================

Parse terms of the many-valued language, evaluate them exactly, generate
subalgebras in closed form, and read off the order-rank of an element.
"""

from fractions import Fraction

from mvalg import (
    FiniteMV,
    RationalAlgebra,
    eval_term,
    generated_subalgebra,
    order_rank,
    parse_term,
    term_to_str,
)

# the grammar: ! binds tightest, then *, +, ^, and v loosest
t = parse_term("!(x + x) v y ^ 1/3")
print("parsed:  ", t)
print("printed: ", term_to_str(t))

# evaluation is coordinatewise and exact
L3 = FiniteMV([3])
env = {"x": L3.element(["1/3"]), "y": L3.element(["2/3"])}
print("value in L3:", eval_term(t, env, L3))

# the subalgebra generated by G: components with equal generator columns
# are tied, and the column c carries the chain of order lcm(den c)
A = FiniteMV([2, 3])
sub = generated_subalgebra(A, [A.element(["1/2", "1/3"])])
print("\nSa((1/2,1/3)) has", sub.size, "elements (all of [2,3]:", sub.size == A.size, ")")

B = FiniteMV([2, 4, 6])
gens = [B.element(["1/2", "1/2", "1/3"]), B.element([0, 0, "1/2"])]
sub = generated_subalgebra(B, gens)
for block, order in zip(sub.blocks, sub.orders):
    column = [str(g[block[0]]) for g in gens]
    print("components", block, "column", column, "-> chain of order", order)
print("Sa(G) in [2,4,6] has", sub.size, "elements")

# order-rank: how many indecomposable factors the generated subalgebra has
print("\nrank of (1/2,1/3) in [2,3]:", order_rank(A, A.element(["1/2", "1/3"])).rank)
print("rank of (1/2,1/2) in [2,2]:", order_rank(FiniteMV([2, 2]), FiniteMV([2, 2]).element(["1/2", "1/2"])).rank)

# inside the whole rational interval, p/q generates the chain of order q
r = order_rank(RationalAlgebra.full(), Fraction(3, 7))
print("Sa(3/7) in [0,1]nQ is the chain of order", r.chain_orders[0], "- rank", r.rank)
