"""Core carriers, operations, homs, ideals, quotients, and splittings."""

from fractions import Fraction
from itertools import product

import pytest

from mvalg import (
    AlgebraError,
    FiniteMV,
    Hom,
    Ideal,
    enumerate_homs,
    is_boolean,
    join,
    localize,
    meet,
    neg,
    odot,
    oplus,
    product_split,
    quotient_by_ideal,
)
from mvalg.algebras import _neg, _neg_code, _oplus, _oplus_code
from mvalg.oracles import (
    all_ideals_bruteforce,
    brute_force_hom_graphs,
    hom_graph,
    iter_finite_algebras,
    op_tables,
)

L2 = FiniteMV([2])
L3 = FiniteMV([3])
L6 = FiniteMV([6])
A23 = FiniteMV([2, 3])
TERMINAL = FiniteMV([])


def frac(s):
    return Fraction(s)


class _Index(int):
    """An int subclass, which is not a component index."""


class TestOperations:
    def test_oplus_clips_at_one(self):
        assert oplus(L6, L6.element(["1/2"]), L6.element(["1/3"])) == (frac("5/6"),)

    def test_neg_of_zero(self):
        assert neg(L3, L3.zero()) == L3.one()

    def test_odot_half_half(self):
        assert odot(L2, L2.element(["1/2"]), L2.element(["1/2"])) == (frac(0),)

    def test_join_meet(self):
        x, y = A23.element(["1/2", 0]), A23.element([0, "2/3"])
        assert join(A23, x, y) == A23.element(["1/2", "2/3"])
        assert meet(A23, x, y) == A23.zero()

    def test_element_algebra_mismatch(self):
        with pytest.raises(AlgebraError):
            oplus(L6, A23.element(["1/2", "1/3"]), L6.zero())  # wrong arity
        with pytest.raises(AlgebraError):
            neg(L3, (frac("1/2"),))  # 1/2 not in L3

    def test_terminal_algebra(self):
        assert TERMINAL.size == 1
        assert TERMINAL.zero() == TERMINAL.one() == ()
        assert is_boolean(TERMINAL, ())

    @pytest.mark.parametrize("orders", [[True], [2, False], [2.0], [0]])
    def test_chain_orders_are_positive_integers(self, orders):
        with pytest.raises(AlgebraError):
            FiniteMV(orders)

    @pytest.mark.parametrize(
        "i", [True, False, _Index(0), 0.0, 2, -1], ids=["true", "false", "int-subclass", "float", "2", "-1"]
    )
    def test_atom_index_is_a_component(self, i):
        # the index rule of Ideal, chi and chinese_boolean; atom(True) was atom 1
        with pytest.raises(AlgebraError):
            A23.atom(i)


# candidates p/q with q <= 12 and -1 <= p/q <= 2, each Fraction once
_CANDIDATES = sorted({Fraction(p, q) for q in range(1, 13) for p in range(-q, 2 * q + 1)})
_NOT_FRACTIONS = [0, 1, True, False, 0.0, 0.5, 1.0, "0", "1/2", None]


class TestMembershipKernel:
    """FiniteMV.contains works on numerators and denominators; it must accept
    exactly the carrier that elements() lists, and only Fraction tuples."""

    @staticmethod
    def _reference(carrier, x):
        return (
            isinstance(x, tuple)
            and all(isinstance(c, Fraction) for c in x)
            and x in carrier
        )

    @pytest.mark.parametrize(
        "algebra", list(iter_finite_algebras(max_components=2, max_order=6)), ids=repr
    )
    def test_agrees_with_the_carrier_on_a_grid(self, algebra):
        carrier = set(algebra.elements())
        k = algebra.num_components
        grid = list(product(_CANDIDATES, repeat=k))
        shapes = []
        for x in list(carrier)[:8]:
            shapes.append(list(x))  # a list, not a tuple
            shapes.append(x + (Fraction(0),))  # one coordinate too many
            if k:
                shapes.append(x[:-1])  # one too few
            for i in range(k):
                for bad in _NOT_FRACTIONS:
                    shapes.append(x[:i] + (bad,) + x[i + 1:])
        shapes += [None, Fraction(0), "0"]
        members = 0
        for x in grid + shapes:
            expected = self._reference(carrier, x)
            assert algebra.contains(x) is expected, x
            if expected:  # the code conversion validates exactly like contains
                assert algebra._element(algebra._code(x)) == x
            else:
                with pytest.raises(AlgebraError):
                    algebra._code(x)
            members += expected
        assert members == len(carrier)  # the grid holds every carrier element once

    @pytest.mark.parametrize(
        "bad",
        [
            (Fraction(1, 2), Fraction(0)),
            (Fraction(4, 3), Fraction(0)),
            (Fraction(-1, 3), Fraction(0)),
            (1, Fraction(0)),
            (True, Fraction(0)),
            [Fraction(0), Fraction(0)],
            (Fraction(0),) * 3,
        ],
        ids=["outside-L3", "above-one", "negative", "int", "bool", "list", "too-long"],
    )
    def test_public_entries_reject_non_elements(self, bad):
        a = FiniteMV([3, 3])
        split = product_split(a, a.atom(0))
        hom = Hom(a, FiniteMV([3, 6]), [0, 1])
        ok = a.zero()
        for call in (
            lambda: hom(bad),
            lambda: split.pair(bad),
            lambda: split.combine(bad, ok),
            lambda: split.combine(ok, bad),
            lambda: neg(a, bad),
            lambda: a.check(bad),
        ):
            with pytest.raises(AlgebraError):
                call()


class TestCodes:
    """The numerator codes the sweeps and oracle tables run on agree with
    the Fraction elements at every conversion."""

    @pytest.mark.parametrize("algebra", list(iter_finite_algebras(max_size=60)), ids=repr)
    def test_codes_round_trip_in_enumeration_order(self, algebra):
        codes = list(algebra._codes())
        assert [algebra._element(k) for k in codes] == list(algebra.elements())
        assert all(algebra._code(algebra._element(k)) == k for k in codes)
        # the range test accepts exactly the codes, on every numerator from -1 to m + 1
        ranges = [range(-1, m + 2) for m in algebra.orders]
        assert {k for k in product(*ranges) if algebra._has_code(k)} == set(codes)
        assert not algebra._has_code(codes[0] + (0,))

    @pytest.mark.parametrize("algebra", list(iter_finite_algebras(max_size=12)), ids=repr)
    def test_code_operations_match_the_fraction_operations(self, algebra):
        orders, element = algebra.orders, algebra._element
        codes = list(algebra._codes())
        for k in codes:
            assert element(_neg_code(orders, k)) == _neg(element(k))
            for l in codes:
                assert element(_oplus_code(orders, k, l)) == _oplus(element(k), element(l))

    def test_hom_code_action_matches_the_hom(self):
        catalog = list(iter_finite_algebras(max_size=12))
        homs = 0
        for a, b in product(catalog, repeat=2):
            for h in enumerate_homs(a, b):
                act = h._code_action()
                for x in a.elements():
                    assert act(a._code(x)) == b._code(h(x)), (h, x)
                homs += 1
        assert homs > 100

    def test_hom_code_action_of_the_identity_is_the_identity(self):
        for algebra in iter_finite_algebras(max_size=60):
            act = Hom.identity(algebra)._code_action()
            assert all(act(k) == k for k in algebra._codes()), algebra

    def test_hom_code_action_of_a_composite_is_the_composite_action(self):
        catalog = list(iter_finite_algebras(max_size=8))
        composites = 0
        for a, b, c in product(catalog, repeat=3):
            for h in enumerate_homs(a, b):
                act_h = h._code_action()
                for g in enumerate_homs(b, c):
                    act_g, act_gh = g._code_action(), g.compose(h)._code_action()
                    assert all(act_gh(k) == act_g(act_h(k)) for k in a._codes()), (g, h)
                    composites += 1
        assert composites > 100


class TestMVAxioms:
    # associativity is cubic in the carrier, so it is exhausted on the small
    # catalog; the 1- and 2-variable axioms run up to carrier 200
    @pytest.mark.parametrize("algebra", list(iter_finite_algebras(max_size=16)), ids=repr)
    def test_oplus_associative_small(self, algebra):
        elems = list(algebra.elements())
        for a in elems:
            for b in elems:
                ab = oplus(algebra, a, b)
                for c in elems:
                    assert oplus(algebra, ab, c) == oplus(algebra, a, oplus(algebra, b, c))

    @pytest.mark.parametrize("orders", [[29], [2, 3, 7], [1, 1, 2, 4], [199], [9, 9]])
    def test_two_variable_axioms_to_200(self, orders):
        algebra = FiniteMV(orders)
        assert algebra.size <= 200
        zero, one = algebra.zero(), algebra.one()
        elems = list(algebra.elements())
        for a in elems:
            assert oplus(algebra, a, zero) == a
            assert neg(algebra, neg(algebra, a)) == a
            assert oplus(algebra, a, one) == one  # a + !0 = !0
        for a in elems:
            for b in elems:
                assert oplus(algebra, a, b) == oplus(algebra, b, a)
                # characteristic axiom: !(!a + b) + b == !(!b + a) + a
                left = oplus(algebra, neg(algebra, oplus(algebra, neg(algebra, a), b)), b)
                right = oplus(algebra, neg(algebra, oplus(algebra, neg(algebra, b), a)), a)
                assert left == right


class TestBoolean:
    def test_examples(self):
        assert is_boolean(A23, A23.element([1, 0]))
        assert not is_boolean(L2, L2.element(["1/2"]))
        assert is_boolean(TERMINAL, ())

    @pytest.mark.parametrize("algebra", [L6, A23, FiniteMV([1, 2, 4])], ids=repr)
    def test_equivalent_characterizations(self, algebra):
        one, zero = algebra.one(), algebra.zero()
        for a in algebra.elements():
            expected = all(c in (0, 1) for c in a)
            assert is_boolean(algebra, a) == expected
            assert (join(algebra, a, neg(algebra, a)) == one) == expected
            assert (meet(algebra, a, neg(algebra, a)) == zero) == expected


class TestHoms:
    def test_frozen_counts(self):
        assert enumerate_homs(L2, L3) == []
        assert len(enumerate_homs(L2, L6)) == 1
        assert len(enumerate_homs(A23, L6)) == 2
        assert len(enumerate_homs(A23, TERMINAL)) == 1
        assert enumerate_homs(TERMINAL, L2) == []

    def test_hom_action_rescales(self):
        (h,) = enumerate_homs(L2, L6)
        assert h(L2.element(["1/2"])) == (frac("1/2"),)

    def test_composition_matches_function_composition(self):
        for h in enumerate_homs(A23, FiniteMV([6, 6])):
            for g in enumerate_homs(FiniteMV([6, 6]), FiniteMV([12])):
                comp = g.compose(h)
                for x in A23.elements():
                    assert comp(x) == g(h(x))

    def test_identity(self):
        ident = Hom.identity(A23)
        assert ident.component_map == (0, 1)
        assert all(ident(x) == x for x in A23.elements())
        for h in enumerate_homs(A23, FiniteMV([6, 6])):
            assert h.compose(ident) == h == Hom.identity(h.target).compose(h)

    def test_divisibility_enforced(self):
        with pytest.raises(AlgebraError):
            Hom(L3, L2, [0])

    @pytest.mark.parametrize("component_map", [[True], [False], [0.0]])
    def test_component_map_entries_are_integers(self, component_map):
        with pytest.raises(AlgebraError):
            Hom(L2, L6, component_map)

    @pytest.mark.parametrize(
        "orders_a,orders_b",
        [([2], [4]), ([2, 3], [6]), ([1, 1], [1, 2]), ([], []), ([4], [2, 8]), ([2, 2], [2, 2])],
    )
    def test_agrees_with_bruteforce(self, orders_a, orders_b):
        a, b = FiniteMV(orders_a), FiniteMV(orders_b)
        assert {hom_graph(h) for h in enumerate_homs(a, b)} == brute_force_hom_graphs(a, b)

    def test_pruned_search_equals_the_full_function_scan(self):
        """Every function table between carriers of at most 5 elements,
        kept when it preserves 0, ! and + on every ordered pair."""
        catalog = list(iter_finite_algebras(max_size=5))
        for a, b in product(catalog, repeat=2):
            codes_s, neg_s, plus_s = op_tables(a)
            codes_t, neg_t, plus_t = op_tables(b)
            n = len(codes_s)
            zero_s, zero_t = codes_s.index(a._code(a.zero())), codes_t.index(b._code(b.zero()))
            scanned = {
                f
                for f in product(range(len(codes_t)), repeat=n)
                if f[zero_s] == zero_t
                and all(f[neg_s[i]] == neg_t[f[i]] for i in range(n))
                and all(f[plus_s[i][j]] == plus_t[f[i]][f[j]] for i in range(n) for j in range(n))
            }
            assert scanned == brute_force_hom_graphs(a, b), (a, b)


    def test_component_map_of_the_wrong_length_is_refused(self):
        with pytest.raises(AlgebraError, match="^component map must assign one source component per target component"):
            Hom(L2, A23, [0])

    def test_homs_that_do_not_compose_are_refused(self):
        with pytest.raises(AlgebraError, match="^homs not composable"):
            Hom.identity(L2).compose(Hom.identity(L3))


class TestProduct:
    def test_concatenation_and_size(self):
        p = FiniteMV(L2.orders + L3.orders)
        assert p == A23
        assert p.size == L2.size * L3.size == 12
        pr0, pr1 = Hom(p, L2, [0]), Hom(p, L3, [1])
        x = p.element(["1/2", "2/3"])
        assert pr0(x) == (frac("1/2"),)
        assert pr1(x) == (frac("2/3"),)
        assert len({(pr0(y), pr1(y)) for y in p.elements()}) == p.size

    def test_terminal_is_unit(self):
        assert FiniteMV(A23.orders + TERMINAL.orders) == A23
        assert TERMINAL.size == 1 and TERMINAL.zero() == TERMINAL.one()


class TestIdealsAndQuotients:
    def test_quotient_by_an_ideal_of_another_algebra_is_refused(self):
        with pytest.raises(AlgebraError, match=r"^Ideal\(FiniteMV\(\[2\]\), vanishing=\[0\]\) is not an ideal of"):
            quotient_by_ideal(A23, Ideal(L2, [0]))

    def test_ideal_shape_matches_bruteforce(self):
        # every ideal of a product of chains is a vanishing-set ideal
        for algebra in [FiniteMV([2, 3]), FiniteMV([1, 1, 2]), FiniteMV([3]), TERMINAL]:
            brute = {frozenset(i) for i in map(frozenset, all_ideals_bruteforce(algebra))}
            structured = {
                frozenset(Ideal(algebra, v).elements())
                for v in _subsets(range(algebra.num_components))
            }
            assert brute == structured
            assert len(brute) == 2 ** algebra.num_components

    def test_contains_agrees_with_elements(self):
        # elements() is the closed form, contains() the definition: it
        # filters the carrier, in the carrier's order
        for algebra in iter_finite_algebras(max_components=3, max_order=3):
            for v in _subsets(range(algebra.num_components)):
                ideal = Ideal(algebra, v)
                assert list(ideal.elements()) == [x for x in algebra.elements() if ideal.contains(x)]

    def test_principal_ideal_of_boolean_is_down_set(self):
        x = A23.element([1, 0])
        ideal = Ideal.principal(A23, neg(A23, x))
        expected = {c for c in A23.elements() if all(ci <= ni for ci, ni in zip(c, neg(A23, x)))}
        assert set(ideal.elements()) == expected

    def test_quotient_keeps_vanishing_components(self):
        q_alg, q = quotient_by_ideal(A23, Ideal(A23, [0]))
        assert q_alg == L2
        assert q(A23.element(["1/2", "2/3"])) == (frac("1/2"),)

    def test_localize_examples(self):
        assert localize(A23, A23.element([1, 0]))[0] == L2  # invert (1,0): keep where x=1
        assert localize(A23, A23.one())[0] == A23
        assert localize(A23, A23.zero())[0] == TERMINAL

    @pytest.mark.parametrize("vanishing", [[True], [False], [0.0], [2], [-1], [_Index(0)]])
    def test_ideal_rejects_what_is_not_a_component(self, vanishing):
        with pytest.raises(AlgebraError):
            Ideal(A23, vanishing)

    def test_localize_requires_boolean(self):
        with pytest.raises(AlgebraError):
            localize(A23, A23.element(["1/2", 0]))

    def test_localization_universal_property(self):
        # every hom inverting x factors uniquely through the localization
        targets = list(iter_finite_algebras(max_size=30))
        for algebra in [A23, FiniteMV([2, 2]), FiniteMV([1, 2, 3])]:
            for x in _booleans(algebra):
                quotient, q = localize(algebra, x)
                for b in targets:
                    for k in enumerate_homs(algebra, b):
                        if k(x) != b.one():
                            continue
                        factorizations = [
                            c for c in enumerate_homs(quotient, b) if c.compose(q) == k
                        ]
                        assert len(factorizations) == 1


class TestProductSplit:
    def test_split_of_atom(self):
        split = product_split(A23, A23.element([0, 1]))
        assert split.part0 == L2 and split.part1 == L3

    def test_combine_example(self):
        split = product_split(A23, A23.element([0, 1]))
        c = split.combine(A23.element(["1/2", "1/3"]), A23.element([0, "2/3"]))
        assert c == A23.element(["1/2", "2/3"])

    def test_degenerate_split_at_one(self):
        # inverting !1 = 0 collapses everything: q0 lands in the terminal
        # algebra and q1 is an isomorphism
        split = product_split(A23, A23.one())
        assert split.part0 == TERMINAL
        assert split.part1 == A23 and split.q1 == Hom.identity(A23)

    def test_pairing_bijective_and_section(self):
        for algebra in [A23, FiniteMV([2, 2, 2]), FiniteMV([1, 4]), TERMINAL]:
            elems = list(algebra.elements())
            for x in _booleans(algebra):
                split = product_split(algebra, x)
                assert len({split.pair(e) for e in elems}) == len(elems)
                for c0 in elems:
                    for c1 in elems:
                        c = split.combine(c0, c1)
                        assert split.q0(c) == split.q0(c0)
                        assert split.q1(c) == split.q1(c1)

    def test_requires_boolean(self):
        with pytest.raises(AlgebraError):
            product_split(L2, L2.element(["1/2"]))


def _subsets(indices):
    indices = list(indices)
    for mask in range(1 << len(indices)):
        yield {indices[i] for i in range(len(indices)) if mask & (1 << i)}


def _booleans(algebra):
    from mvalg import boolean_skeleton

    return list(boolean_skeleton(algebra).elements())
