"""Boolean skeletons, spectra, vanishing loci, decomposition, transforms."""

from fractions import Fraction

import pytest

from mvalg import (
    AlgebraError,
    FiniteMV,
    Ideal,
    RationalAlgebra,
    boolean_skeleton,
    chi,
    chinese_boolean,
    decompose,
    gelfand_transform,
    holder_embed,
    is_boolean,
    is_boolean_via_primes,
    is_simple,
    phi,
    radical,
    spectrum,
    spectrum_space,
    support,
    vanishing_locus,
)
from mvalg.oracles import all_ideals_bruteforce, iter_finite_algebras

L6 = FiniteMV([6])
A23 = FiniteMV([2, 3])
TERMINAL = FiniteMV([])


class TestBooleanSkeleton:
    def test_sizes(self):
        assert boolean_skeleton(L6).size == 2
        assert boolean_skeleton(A23).size == 4
        assert boolean_skeleton(TERMINAL).size == 1

    def test_enumeration_matches_predicate(self):
        for algebra in [L6, A23, FiniteMV([1, 2, 4])]:
            from_skeleton = set(boolean_skeleton(algebra).elements())
            from_predicate = {a for a in algebra.elements() if is_boolean(algebra, a)}
            assert from_skeleton == from_predicate

    def test_atoms(self):
        assert boolean_skeleton(A23).atoms() == [A23.element([1, 0]), A23.element([0, 1])]


class TestSpectrum:
    def test_one_point_per_component(self):
        assert spectrum(A23) == [0, 1]
        assert spectrum(TERMINAL) == []

    def test_prime_ideals_have_totally_ordered_quotients(self):
        for i in spectrum(A23):
            # the quotient keeps exactly component i, a chain
            from mvalg import quotient_by_ideal

            q_alg, _ = quotient_by_ideal(A23, Ideal(A23, [i]))
            assert q_alg == FiniteMV([A23.orders[i]])

    def test_vanishing_locus_examples(self):
        assert vanishing_locus(A23, [A23.element([1, 0])]) == {1}
        assert vanishing_locus(A23, [A23.zero()]) == {0, 1}
        assert vanishing_locus(A23, []) == {0, 1}
        assert support(A23, A23.element([1, 0])) == {0}
        assert support(A23, A23.element(["1/2", "1/3"])) == {0, 1}

    def test_vanishing_locus_validates_its_elements(self):
        with pytest.raises(AlgebraError):
            vanishing_locus(A23, [A23.zero(), (Fraction(1, 3), Fraction(0))])
        with pytest.raises(AlgebraError):
            support(A23, (Fraction(1),))

    def test_space_is_discrete(self):
        space = spectrum_space(A23)
        assert space.points == 2 and len(space.opens) == 4


class TestVanishingLocusIso:
    def test_spec_examples(self):
        assert phi(A23, A23.element([1, 0])) == {1}
        assert chi(A23, [1]) == A23.element([1, 0])
        assert chi(A23, []) == A23.one()
        assert chi(A23, [0, 1]) == A23.zero()

    def test_phi_requires_boolean(self):
        # membership is checked first, then the Boolean test
        for b, message in [
            (A23.element(["1/2", 0]), "(Fraction(1, 2), Fraction(0, 1)) is not Boolean in FiniteMV([2, 3])"),
            ((Fraction(1, 3), Fraction(0)), "(Fraction(1, 3), Fraction(0, 1)) is not an element of FiniteMV([2, 3])"),
            (
                (Fraction(1), Fraction(1), Fraction(0)),
                "(Fraction(1, 1), Fraction(1, 1), Fraction(0, 1)) is not an element of FiniteMV([2, 3])",
            ),
        ]:
            with pytest.raises(AlgebraError) as excinfo:
                phi(A23, b)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("points", [[2], [-1], ["0"], [None], [0.0], [True]])
    def test_chi_rejects_what_is_not_a_spectrum_point(self, points):
        with pytest.raises(AlgebraError):
            chi(A23, points)

    @pytest.mark.parametrize(
        "algebra",
        list(iter_finite_algebras(max_components=8, max_order=2))[::7]
        + [FiniteMV([5, 7, 9]), FiniteMV([2] * 8)],
        ids=repr,
    )
    def test_mutually_inverse(self, algebra):
        k = algebra.num_components
        for mask in range(1 << k):
            x0 = frozenset(i for i in range(k) if mask & (1 << i))
            assert phi(algebra, chi(algebra, x0)) == x0
        for b in boolean_skeleton(algebra).elements():
            assert chi(algebra, phi(algebra, b)) == b

    def test_is_boolean_via_primes_matches(self):
        for algebra in [A23, FiniteMV([4]), FiniteMV([1, 2, 3]), TERMINAL]:
            for a in algebra.elements():
                assert is_boolean_via_primes(algebra, a) == is_boolean(algebra, a)


class TestChineseBoolean:
    def test_example(self):
        assert chinese_boolean(A23, [0], [1]) == A23.element([0, 1])

    def test_extremes(self):
        assert chinese_boolean(A23, [0, 1], []) == A23.zero()
        assert chinese_boolean(A23, [], [0, 1]) == A23.one()

    def test_rejects_non_partition(self):
        with pytest.raises(AlgebraError):
            chinese_boolean(A23, [0], [0, 1])
        with pytest.raises(AlgebraError):
            chinese_boolean(A23, [0], [])

    def test_unique_over_all_partitions(self):
        algebra = FiniteMV([2, 3, 4])
        k = algebra.num_components
        for mask in range(1 << k):
            x0 = [i for i in range(k) if mask & (1 << i)]
            x1 = [i for i in range(k) if not mask & (1 << i)]
            b = chinese_boolean(algebra, x0, x1)
            matches = [
                c
                for c in boolean_skeleton(algebra).elements()
                if all(c[i] == 0 for i in x0) and all(c[i] == 1 for i in x1)
            ]
            assert matches == [b]


class TestDecompose:
    def test_examples(self):
        assert [f.orders for f in decompose(L6).factors] == [(6,)]
        assert decompose(L6).is_indecomposable
        assert [f.orders for f in decompose(A23).factors] == [(2,), (3,)]
        assert decompose(TERMINAL).factors == ()

    def test_factors_simple_and_reproduct_isomorphic(self):
        for algebra in [A23, FiniteMV([4, 2, 2]), L6]:
            dec = decompose(algebra)
            assert all(is_simple(f) for f in dec.factors)
            rebuilt = FiniteMV(order for f in dec.factors for order in f.orders)
            assert rebuilt.canonical() == algebra.canonical()

    def test_projection_pairing_bijective(self):
        for algebra in [A23, FiniteMV([2, 2, 3])]:
            dec = decompose(algebra)
            images = {tuple(p(a) for p in dec.projections) for a in algebra.elements()}
            assert len(images) == algebra.size


class TestRadicalSimplicity:
    def test_radical_zero(self):
        assert set(radical(A23).elements()) == {A23.zero()}
        assert radical(A23).is_zero and radical(TERMINAL).is_zero

    def test_simplicity(self):
        assert is_simple(L6)
        assert not is_simple(A23)
        assert not is_simple(TERMINAL)

    def test_simple_iff_two_ideals(self):
        for algebra in [FiniteMV([3]), FiniteMV([1, 1]), FiniteMV([2, 3]), FiniteMV([5])]:
            ideal_count = len(all_ideals_bruteforce(algebra))
            assert is_simple(algebra) == (ideal_count == 2)


class TestHolderAndTransform:
    def test_holder_embed_l3(self):
        chain = holder_embed(FiniteMV([3]))
        assert chain == RationalAlgebra.chain(3)
        assert list(chain.elements()) == [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]

    def test_holder_requires_simple(self):
        with pytest.raises(AlgebraError):
            holder_embed(A23)

    def test_holder_uniqueness_via_hom_count(self):
        # exactly one hom from a simple chain into any chain it divides
        from mvalg import enumerate_homs

        for m, n in [(2, 6), (3, 12), (6, 6)]:
            assert len(enumerate_homs(FiniteMV([m]), FiniteMV([n]))) == 1

    def test_gelfand_table(self):
        table = gelfand_transform(A23, A23.element(["1/2", "1/3"]))
        assert table == {0: Fraction(1, 2), 1: Fraction(1, 3)}

    def test_gelfand_of_boolean_is_two_valued(self):
        for b in boolean_skeleton(A23).elements():
            assert set(gelfand_transform(A23, b).values()) <= {Fraction(0), Fraction(1)}

    def test_boolean_tables_biject_with_skeleton(self):
        # the Boolean part of the coordinate-table image has exactly 2^k members
        for algebra in [A23, FiniteMV([2, 2, 2]), L6]:
            tables = {
                tuple(sorted(gelfand_transform(algebra, a).items()))
                for a in algebra.elements()
                if set(gelfand_transform(algebra, a).values()) <= {Fraction(0), Fraction(1)}
            }
            assert len(tables) == boolean_skeleton(algebra).size
