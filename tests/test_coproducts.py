"""Coproducts, subterminality, separability, rational membership."""

from fractions import Fraction
from itertools import product
from math import prod

import pytest

from mvalg import (
    FiniteMV,
    Hom,
    INF,
    RationalAlgebra,
    boolean_skeleton,
    coproduct_finite,
    coproduct_rational,
    decompose,
    enumerate_homs,
    holder_embed,
    is_separable,
    is_subterminal_epic,
    meet,
    separability_witness,
)
from mvalg.formats import parse_algebra, rational_to_json
from mvalg.oracles import iter_finite_algebras

L2 = FiniteMV([2])
L3 = FiniteMV([3])
L6 = FiniteMV([6])
A23 = FiniteMV([2, 3])
TERMINAL = FiniteMV([])

# the subterminal suite's catalog, and the largest A whose A + A the CLI builds
UP_TO_3_COMPONENTS = [*iter_finite_algebras(max_components=3, max_order=8), FiniteMV([2] * 64)]


def orders_id(algebra):
    if algebra.num_components > 3:
        return f"2^{algebra.num_components}"
    return "x".join(map(str, algebra.orders)) or "terminal"


class TestCoproductFinite:
    def test_chains(self):
        assert coproduct_finite(L2, L3).algebra == L6
        cop = coproduct_finite(L2, L2)
        assert cop.algebra == L2 and cop.in0 == cop.in1

    def test_product_of_chains(self):
        cop = coproduct_finite(A23, A23)
        assert cop.algebra.orders == (2, 6, 6, 3)
        assert cop.grid == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_codiagonal_retracts_injections(self):
        for algebra in [L2, A23, FiniteMV([2, 2]), TERMINAL]:
            cop = coproduct_finite(algebra, algebra)
            assert cop.codiagonal.compose(cop.in0) == Hom.identity(algebra)
            assert cop.codiagonal.compose(cop.in1) == Hom.identity(algebra)

    @pytest.mark.parametrize("algebra", UP_TO_3_COMPONENTS, ids=orders_id)
    def test_codiagonal_reads_the_diagonal_cells(self, algebra):
        # the diagonal cell (i, i) of the k x k grid is cell i * (k + 1)
        k = algebra.num_components
        cop = coproduct_finite(algebra, algebra)
        assert cop.codiagonal.component_map == tuple(i * (k + 1) for i in range(k))
        assert all(cop.grid[t] == (i, i) for i, t in enumerate(cop.codiagonal.component_map))
        assert cop.codiagonal.compose(cop.in0) == Hom.identity(algebra)
        assert cop.codiagonal.compose(cop.in1) == Hom.identity(algebra)

    def test_terminal_absorbs(self):
        assert coproduct_finite(A23, TERMINAL).algebra == TERMINAL
        assert coproduct_finite(TERMINAL, TERMINAL).algebra == TERMINAL

    def test_universal_property_for_l2_l3(self):
        # Hom(A+B, C) ~ Hom(A, C) x Hom(B, C) for every target with |C| <= 13
        cop = coproduct_finite(L2, L3)
        for c in iter_finite_algebras(max_size=13):
            paired = {
                (h.compose(cop.in0).component_map, h.compose(cop.in1).component_map)
                for h in enumerate_homs(cop.algebra, c)
            }
            expected = {
                (f.component_map, g.component_map)
                for f in enumerate_homs(L2, c)
                for g in enumerate_homs(L3, c)
            }
            assert paired == expected
            assert len(paired) == len(list(enumerate_homs(cop.algebra, c)))


class TestCoproductRational:
    def test_chain_lcm(self):
        assert coproduct_rational(RationalAlgebra.chain(2), RationalAlgebra.chain(3)) == RationalAlgebra.chain(6)

    def test_idempotent(self):
        for r in [RationalAlgebra.chain(6), RationalAlgebra.full(), RationalAlgebra.supernatural({2: INF})]:
            assert coproduct_rational(r, r) == r

    def test_dyadic_join_chain(self):
        dyadic = RationalAlgebra.supernatural({2: INF})
        joined = coproduct_rational(dyadic, RationalAlgebra.chain(3))
        assert joined == RationalAlgebra.supernatural({2: INF, 3: 1})

    def test_agrees_with_finite_truncations(self):
        # L_{2^k} + L_3 = L_{3 * 2^k} on the finite side
        for k in range(1, 5):
            cop = coproduct_finite(FiniteMV([2**k]), L3)
            assert cop.algebra == FiniteMV([3 * 2**k])


class TestSubterminal:
    def test_examples(self):
        assert is_subterminal_epic(L6)
        assert not is_subterminal_epic(A23)
        assert not is_subterminal_epic(TERMINAL)

    def test_rational_always(self):
        assert is_subterminal_epic(RationalAlgebra.full())
        assert is_subterminal_epic(RationalAlgebra.chain(6))

    def test_characterization_sweep(self):
        for algebra in iter_finite_algebras(max_components=3, max_order=8):
            expected = algebra.num_components == 1
            assert is_subterminal_epic(algebra) == expected
            from mvalg import is_simple

            if not algebra.is_terminal:
                cop = coproduct_finite(algebra, algebra)
                assert is_subterminal_epic(algebra) == (is_simple(algebra) and cop.in0 == cop.in1)


class TestSeparabilityWitness:
    def test_chain_witness_is_one(self):
        cert = separability_witness(L2)
        assert cert.witness == L2.one()
        assert cert.coproduct.algebra == L2

    def test_product_witness(self):
        cert = separability_witness(A23)
        assert cert.witness == cert.coproduct.algebra.element([1, 0, 0, 1])
        assert cert.split.part1 == A23  # the codiagonal leg

    def test_terminal_witness(self):
        cert = separability_witness(TERMINAL)
        assert cert.separable and cert.witness == ()

    def test_kernel_condition(self):
        for algebra in [L2, A23, FiniteMV([2, 2]), FiniteMV([1, 2, 3])]:
            cert = separability_witness(algebra)
            cop = cert.coproduct
            nabla = cop.codiagonal
            kernel = {c for c in cop.algebra.elements() if nabla(c) == algebra.zero()}
            neg_e = tuple(Fraction(1) - c for c in cert.witness)
            principal = {
                c
                for c in cop.algebra.elements()
                if all(ci <= ni for ci, ni in zip(c, neg_e))
            }
            assert kernel == principal  # ker(codiagonal) = <not e>


class TestIsSeparable:
    def test_finite(self):
        result = is_separable(A23)
        assert result.separable
        assert [f.chain_order() for f in result.factors] == [2, 3]

    def test_single_chain(self):
        assert [f.chain_order() for f in is_separable(FiniteMV([6])).factors] == [6]

    def test_rational_product(self):
        factors = [RationalAlgebra.supernatural({2: INF}), RationalAlgebra.chain(3)]
        result = is_separable(factors)
        assert result.separable and len(result.factors) == 2
        # Boolean part of a 2-factor product has 4 elements
        assert 2 ** len(result.factors) == 4

    def test_terminal_empty_product(self):
        assert is_separable(TERMINAL) == is_separable(TERMINAL)
        assert is_separable(TERMINAL).factors == ()

    @pytest.mark.parametrize("algebra", UP_TO_3_COMPONENTS, ids=orders_id)
    def test_factors_are_the_embedded_decomposition(self, algebra):
        # the closed form against the route it replaced
        assert is_separable(algebra).factors == tuple(holder_embed(f) for f in decompose(algebra).factors)

    def test_agrees_with_witness(self):
        for algebra in iter_finite_algebras(max_components=2, max_order=4):
            assert is_separable(algebra).separable == separability_witness(algebra).separable


class TestRationalMembership:
    def test_examples(self):
        assert Fraction(1, 6) in RationalAlgebra.chain(6)
        assert Fraction(1, 4) not in RationalAlgebra.chain(6)
        assert Fraction(3, 8) in RationalAlgebra.supernatural({2: INF})

    def test_range_check(self):
        assert not RationalAlgebra.full().contains(Fraction(3, 2))

    def test_supernatural_caps(self):
        r = RationalAlgebra.supernatural({2: 2, 5: 1})
        assert Fraction(1, 20) in r
        assert Fraction(1, 8) not in r
        assert Fraction(1, 3) not in r

    def test_chain_equals_bounded_supernatural(self):
        assert RationalAlgebra.chain(12) == RationalAlgebra.supernatural({2: 2, 3: 1})

    def test_membership_matches_enumeration_on_chains(self):
        r = RationalAlgebra.chain(6)
        members = {q for q in (Fraction(p, q) for q in range(1, 13) for p in range(q + 1)) if r.contains(q)}
        assert members == set(r.elements())

    def test_membership_matches_the_prime_exponent_rule(self):
        # p/q is a member iff each prime power in q is within its cap; the
        # rule is read here off the factorization that contains does not make
        from mvalg.rationals import factorize

        for caps in product([0, 1, 2, INF], repeat=3):
            bounds = dict(zip((2, 3, 5), caps))
            r = RationalAlgebra.supernatural(bounds)
            for q in range(1, 241):
                expected = all(e <= bounds.get(p, 0) for p, e in factorize(q).items())
                assert r.contains(Fraction(1, q)) == r.contains(Fraction(q - 1, q)) == expected


def trial_division(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


class TestPrimeKeys:
    """Prime keys are checked by Miller-Rabin, exact below PRIME_KEY_BOUND."""

    def test_agrees_with_trial_division(self):
        from mvalg.rationals import _is_prime

        assert [n for n in range(1, 10**5 + 1) if _is_prime(n)] == [
            n for n in range(1, 10**5 + 1) if trial_division(n) == {n: 1}
        ]

    def test_rejects_strong_pseudoprimes(self):
        from mvalg.rationals import _is_prime

        # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine primes
        for n in (3215031751, 3825123056546413051):
            assert not _is_prime(n)

    def test_the_bound_is_the_first_number_the_bases_misjudge(self):
        from mvalg.rationals import PRIME_KEY_BOUND, _is_prime

        assert PRIME_KEY_BOUND == 1287836182261 * 2575672364521 and _is_prime(PRIME_KEY_BOUND)

    def test_large_keys(self):
        from mvalg.algebras import AlgebraError
        from mvalg.rationals import PRIME_KEY_BOUND

        caps = {10**18 + 3: 1}
        r = RationalAlgebra.supernatural(caps)
        assert r == RationalAlgebra.chain(10**18 + 3) and all(Fraction(1, p**e) in r for p, e in caps.items())
        for key in (10**18 + 1, PRIME_KEY_BOUND):
            with pytest.raises(AlgebraError):
                RationalAlgebra.supernatural({key: 1})


class TestFactorize:
    """Trial division up to TRIAL_DIVISION_BOUND; the cofactor left must be 1
    or a prime that Miller-Rabin decides."""

    def test_agrees_with_full_trial_division(self):
        from mvalg.rationals import factorize

        assert all(factorize(n) == trial_division(n) for n in range(1, 10**5 + 1))

    def test_keeps_a_large_prime_cofactor(self):
        from mvalg.rationals import factorize

        assert factorize(2**3 * 1000003) == {2: 3, 1000003: 1}
        assert factorize(12 * (10**18 + 3)) == {2: 2, 3: 1, 10**18 + 3: 1}

    def test_finds_the_primes_at_both_ends_of_each_prime_table(self):
        # 65521 and 65537 straddle the bound between the small and the large
        # table; 999983 is the last prime below the trial-division bound
        from mvalg.rationals import factorize

        caps = {2: 5, 65521: 2, 65537: 1, 999979: 1, 999983: 666}
        assert factorize(prod(p**e for p, e in caps.items())) == caps
        assert factorize(prod(p**e for p, e in caps.items()) * (10**18 + 3)) == caps | {10**18 + 3: 1}

    def test_exact_exponents_of_long_prime_powers(self):
        # near the 4,300-digit limit of an order, and exponents on either
        # side of each power of two
        from mvalg.rationals import factorize

        assert factorize(2**14280) == {2: 14280}
        assert factorize(999983**666) == {999983: 666}
        assert factorize(3**8000 * 7**100) == {3: 8000, 7: 100}
        assert all(factorize(3**e * 5) == {3: e, 5: 1} for e in range(1, 300))

    @pytest.mark.parametrize(
        "primes",
        [(1000003, 1000033), (1000003, 1000003), (1000003, 10**18 + 3), (2**89 - 1,)],
        ids=["two-primes", "a-square", "a-prime-times-10^18+3", "a-prime-above-the-bound"],
    )
    def test_refuses_a_cofactor_it_cannot_decide(self, primes):
        # every odd prime factor lies above the trial-division bound, and
        # the cofactor is composite or too large for Miller-Rabin to decide;
        # a chain is stored as its order, so chain(n) does not factorize it
        from mvalg.algebras import AlgebraError
        from mvalg.rationals import factorize

        n = 2 * prod(primes)
        with pytest.raises(AlgebraError):
            factorize(n)
        assert RationalAlgebra.chain(n).order == n

    def test_chain_order_must_not_be_a_bool(self):
        from mvalg.algebras import AlgebraError

        for bad in (True, False):
            with pytest.raises(AlgebraError):
                RationalAlgebra.chain(bad)
        with pytest.raises(AlgebraError):
            RationalAlgebra.supernatural({2: True})


# every cap table on {2, 3, 5} with caps 0, 1, 2 or INF, the chains of order
# 1..360 as the tables trial_division gives them, and the whole interval
# (None: every prime infinite)
CAP_TABLES = [
    *(dict(zip((2, 3, 5), caps)) for caps in product([0, 1, 2, INF], repeat=3)),
    *(trial_division(m) for m in range(1, 361)),
    None,
]

# 3^6 is the first power of 2, 3 or 5 above every exponent a chain of order at
# most 360 has (2^8, 3^5, 5^3), so this window tells every table above from
# every other; 360 does not (chain 256 and {2: INF} admit the same q <= 360)
DENOMINATORS = {q: trial_division(q) for q in range(1, 3**6 + 1)}


def admissible(table) -> frozenset[int]:
    """The denominators in the window whose every prime power is within its cap."""
    return frozenset(
        q for q, factors in DENOMINATORS.items()
        if table is None or all(e <= table.get(p, 0) for p, e in factors.items())
    )


def from_table(table) -> RationalAlgebra:
    return RationalAlgebra.full() if table is None else RationalAlgebra.supernatural(table)


class TestRationalNormalForm:
    """One normal form per algebra: a finite chain is (order, (), False), an
    algebra with an infinite prime keeps its caps, the whole interval is
    (1, (), True); compared here with the cap-table definition."""

    ALGEBRAS = [from_table(t) for t in CAP_TABLES]

    def test_membership_and_equality_follow_the_cap_tables(self):
        sets = [admissible(t) for t in CAP_TABLES]
        for r, members in zip(self.ALGEBRAS, sets):
            assert frozenset(q for q in DENOMINATORS if Fraction(1, q) in r) == members
            assert [r == other for other in self.ALGEBRAS] == [members == m for m in sets]
        assert len(set(self.ALGEBRAS)) == len(set(sets))  # equal algebras hash equal

    def test_a_chain_is_its_supernatural_number(self):
        for m in range(1, 361):
            assert RationalAlgebra.chain(m) == RationalAlgebra.supernatural(trial_division(m)) == RationalAlgebra(m, (), False)

    def test_join_is_the_pointwise_maximum(self):
        built = {}  # the algebra of each pointwise maximum, keyed by its sorted items
        for s, r in zip(CAP_TABLES, self.ALGEBRAS):
            for t, other in zip(CAP_TABLES, self.ALGEBRAS):
                if s is None or t is None:
                    expected = None
                else:
                    key = tuple(sorted((p, max(s.get(p, 0), t.get(p, 0))) for p in s.keys() | t.keys()))
                    expected = built.get(key) or built.setdefault(key, from_table(dict(key)))
                assert r.join(other) == (expected or RationalAlgebra.full())

    def test_the_wire_format_round_trips(self):
        for r in self.ALGEBRAS:
            assert parse_algebra(rational_to_json(r)) == r

    def test_only_a_join_next_to_an_infinite_prime_factorizes(self, monkeypatch):
        from mvalg import rationals

        def factorize(n):
            raise AssertionError(f"{n} was factorized")

        monkeypatch.setattr(rationals, "factorize", factorize)
        large = 2 * 1000003 * 1000033
        specs = [
            {"kind": "chain", "n": large},
            {"kind": "supernatural", "primes": {"2": 1, "1000003": 1, "1000033": 1}, "all": False},
            {"kind": "supernatural", "primes": {"2": "inf", "1000003": 1}, "all": False},
            {"kind": "supernatural", "primes": {}, "all": True},
        ]
        chain, finite, mixed, full = (parse_algebra({"rational": spec}) for spec in specs)
        assert chain == finite == RationalAlgebra.chain(large) != mixed
        assert [r.chain_order() for r in (chain, mixed, full)] == [large, None, None]
        for r in (chain, mixed, full):
            assert Fraction(1, 1000003) in r and (Fraction(1, 4) in r) == (r != chain)
            assert parse_algebra(rational_to_json(r)) == r
        assert list(map(repr, (chain, mixed, full))) == [
            f"RationalAlgebra(chain {large})", "RationalAlgebra(2^inf, 1000003^1)", "RationalAlgebra(full)"
        ]
        assert chain.join(RationalAlgebra.chain(3)) == RationalAlgebra.chain(3 * large)
        assert mixed.join(full) == full and mixed.join(mixed) == mixed
        with pytest.raises(AssertionError, match="was factorized"):
            mixed.join(chain)


class TestPierceCoproduct:
    """The atoms of the Boolean part of A+B are the k_A * k_B distinct meets
    in0(atom_i) /\\ in1(atom_j)."""

    @staticmethod
    def meets_and_atoms(a, b):
        cop = coproduct_finite(a, b)
        meets = [
            meet(cop.algebra, cop.in0(a.atom(i)), cop.in1(b.atom(j)))
            for i in range(a.num_components)
            for j in range(b.num_components)
        ]
        return meets, boolean_skeleton(cop.algebra).atoms()

    def test_example(self):
        meets, atoms = self.meets_and_atoms(A23, A23)
        assert len(set(meets)) == len(meets) == len(atoms) == 4
        assert set(meets) == set(atoms)

    def test_with_terminal(self):
        for a, b in [(A23, TERMINAL), (TERMINAL, A23), (TERMINAL, TERMINAL)]:
            assert self.meets_and_atoms(a, b) == ([], [])

    def test_sweep(self):
        catalog = list(iter_finite_algebras(max_components=3, max_order=4))
        for a in catalog[::3]:
            for b in catalog[::3]:
                meets, atoms = self.meets_and_atoms(a, b)
                assert len(set(meets)) == len(meets) == a.num_components * b.num_components
                assert set(meets) == set(atoms)
