"""Parser, printer, evaluation, subalgebra generation, order-rank."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvalg import (
    FiniteMV,
    ParseError,
    RationalAlgebra,
    TermError,
    enumerate_homs,
    eval_term,
    generated_subalgebra,
    order_rank,
    parse_term,
    term_to_str,
)
from mvalg.oracles import all_subalgebras_bruteforce, all_subalgebras_by_extension
from mvalg.terms import MAX_TERM_DEPTH, Const, Join, Meet, Neg, Odot, Oplus, Var

L2 = FiniteMV([2])
L3 = FiniteMV([3])
L6 = FiniteMV([6])
A23 = FiniteMV([2, 3])


class TestParser:
    def test_spec_examples(self):
        assert parse_term("!(x + x)") == Neg(Oplus(Var("x"), Var("x")))
        assert parse_term("x * !x") == Odot(Var("x"), Neg(Var("x")))
        assert parse_term("1/2 + 1/3") == Oplus(Const(Fraction(1, 2)), Const(Fraction(1, 3)))

    def test_precedence_and_associativity(self):
        # ! > * > + > ^ > v, binaries left-associative
        assert parse_term("a + b + c") == Oplus(Oplus(Var("a"), Var("b")), Var("c"))
        assert parse_term("a v b ^ c") == Join(Var("a"), Meet(Var("b"), Var("c")))
        assert parse_term("a ^ b + c") == Meet(Var("a"), Oplus(Var("b"), Var("c")))
        assert parse_term("a + b * c") == Oplus(Var("a"), Odot(Var("b"), Var("c")))
        assert parse_term("!a * b") == Odot(Neg(Var("a")), Var("b"))
        assert parse_term("!!x") == Neg(Neg(Var("x")))

    def test_constants(self):
        assert parse_term("0") == parse_term("0/1") == Const(Fraction(0))
        assert parse_term("1") == parse_term("3/3") == Const(Fraction(1))
        assert parse_term("2/4") == Const(Fraction(1, 2))
        # a constant with denominator 1 prints as its numerator
        assert [term_to_str(parse_term(text)) for text in ["0/1", "3/3", "2/4"]] == ["0", "1", "1/2"]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("", "unexpected end of input (at position 0)"),
            ("x +", "unexpected end of input (at position 3)"),
            ("(x", "unexpected end of input (at position 2)"),
            ("3/2", "malformed fraction: 3/2 is outside [0,1] (at position 0)"),
            ("1/0", "malformed fraction: zero denominator (at position 2)"),
            ("2", "bare integer '2' is not a term (only 0, 1, fractions) (at position 0)"),
            ("x y", "unexpected 'y' (at position 2)"),
            ("&", "unexpected character '&' (at position 0)"),
            ("!", "unexpected end of input (at position 1)"),
            ("1/", "unexpected end of input (at position 2)"),
            ("1/x", "malformed fraction: expected a denominator (at position 2)"),
            ("(x))", "unexpected ')' (at position 3)"),
            ("v", "unexpected 'v' (at position 0)"),
            ("x v", "unexpected end of input (at position 3)"),
            ("!" * 65 + "x", "term nests more than 64 levels deep (at position 63)"),
        ],
    )
    def test_syntax_errors_carry_position(self, bad, message):
        with pytest.raises(ParseError) as err:
            parse_term(bad)
        assert str(err.value) == message
        assert err.value.position == int(message.rsplit(" ", 1)[1].rstrip(")"))


def _nested(kind: str, depth: int) -> str:
    """A term of exactly ``depth`` levels, built from one kind of nesting."""
    if kind == "neg":
        return "!" * (depth - 1) + "x"
    if kind == "parens":
        return "(" * (depth - 1) + "x" + ")" * (depth - 1)
    if kind == "sum-chain":
        return "x + " * (depth - 1) + "x"
    return "!(" * ((depth - 1) // 2) + "x" + ")" * ((depth - 1) // 2)  # depth odd


class TestDepthBudget:
    @pytest.mark.parametrize("kind", ["neg", "parens", "sum-chain", "neg-parens"])
    def test_budget_is_exact(self, kind):
        at_budget = _nested(kind, MAX_TERM_DEPTH - (kind == "neg-parens"))
        parse_term(at_budget)
        with pytest.raises(ParseError, match="levels deep"):
            parse_term(_nested(kind, MAX_TERM_DEPTH + 1))

    def test_budget_is_64_and_such_a_term_evaluates(self):
        assert MAX_TERM_DEPTH == 64
        value = eval_term(parse_term(_nested("neg", 64)), {"x": L3.element(["1/3"])}, L3)
        assert value == (Fraction(2, 3),)  # 63 negations
        assert eval_term(parse_term(_nested("sum-chain", 64)), {"x": L3.element(["1/3"])}, L3) == L3.one()

    def test_depth_counts_the_deepest_branch(self):
        deep = _nested("neg", MAX_TERM_DEPTH - 1)
        parse_term(f"y v {deep}")  # one join above the deepest branch
        with pytest.raises(ParseError):
            parse_term(f"y v ({deep})")  # the parentheses add a level
        with pytest.raises(ParseError):
            parse_term(f"y v {deep} v y")  # two joins above the deepest branch

    def test_print_parse_round_trip_on_examples(self):
        for text in ["!(x + x)", "x * !x", "1/2 + 1/3", "(a v b) ^ c", "a + (b + c)"]:
            term = parse_term(text)
            assert parse_term(term_to_str(term)) == term

    def test_print_is_identity_on_canonical_output(self):
        for text in ["!(x + x)", "x * !x", "1/2 + 1/3", "(a v b) ^ c", "a + (b + c)", "!!x v 0"]:
            canonical = term_to_str(parse_term(text))
            assert term_to_str(parse_term(canonical)) == canonical


def _terms(depth):
    leaves = st.one_of(
        st.builds(Const, st.sampled_from([Fraction(0), Fraction(1)]) | st.fractions(min_value=0, max_value=1)),
        st.builds(Var, st.sampled_from(["x", "y", "z", "alpha", "v2"])),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(Neg, children),
            st.builds(Oplus, children, children),
            st.builds(Odot, children, children),
            st.builds(Meet, children, children),
            st.builds(Join, children, children),
        ),
        max_leaves=depth,
    )


class TestPrinterRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_terms(25))
    def test_parse_inverts_print(self, term):
        assert parse_term(term_to_str(term)) == term


class TestEval:
    def test_spec_examples(self):
        assert eval_term(parse_term("!(x + x)"), {"x": L3.element(["1/3"])}, L3) == (Fraction(1, 3),)
        assert eval_term(parse_term("x v !x"), {"x": L2.element(["1/2"])}, L2) == (Fraction(1, 2),)
        assert eval_term(parse_term("x ^ !x"), {"x": A23.element([1, 0])}, A23) == A23.zero()

    def test_unbound_variable(self):
        with pytest.raises(TermError):
            eval_term(parse_term("x + y"), {"x": L2.zero()}, L2)

    def test_constant_not_in_algebra(self):
        with pytest.raises(TermError):
            eval_term(parse_term("1/2"), {}, L3)

    def test_zero_and_one_evaluate_in_every_algebra(self):
        for algebra in [FiniteMV([]), L3, A23]:
            assert eval_term(parse_term("0 v 0/1"), {}, algebra) == algebra.zero()
            assert eval_term(parse_term("1 ^ 3/3"), {}, algebra) == algebra.one()

    def test_rational_constant_diagonal(self):
        assert eval_term(parse_term("1/2"), {}, FiniteMV([2, 4])) == (Fraction(1, 2), Fraction(1, 2))


class TestGeneratedSubalgebra:
    def test_empty_generators(self):
        assert generated_subalgebra(L6, []).elements == frozenset({L6.zero(), L6.one()})

    def test_half_generates_l2(self):
        assert generated_subalgebra(L2, [L2.element(["1/2"])]).size == 3

    def test_mixed_pair_generates_everything(self):
        assert generated_subalgebra(A23, [A23.element(["1/2", "1/3"])]).size == 12

    def test_monotone_and_idempotent(self):
        g1 = generated_subalgebra(A23, [A23.element(["1/2", 0])])
        g2 = generated_subalgebra(A23, [A23.element(["1/2", 0]), A23.element([0, "1/3"])])
        assert g1.elements <= g2.elements
        again = generated_subalgebra(A23, sorted(g2.elements))
        assert again.elements == g2.elements

    @pytest.mark.parametrize("algebra", [L2, L3, FiniteMV([1, 1]), FiniteMV([2, 2])], ids=repr)
    def test_equals_intersection_of_subalgebras_bruteforce(self, algebra):
        subalgebras = all_subalgebras_bruteforce(algebra)
        elems = list(algebra.elements())
        for g in elems:
            closure = generated_subalgebra(algebra, [g]).elements
            meet_of_all = None
            for s in subalgebras:
                if g in s:
                    meet_of_all = s if meet_of_all is None else (meet_of_all & s)
            assert closure == meet_of_all

    @pytest.mark.parametrize("algebra", [L6, A23, FiniteMV([1, 2, 3]), FiniteMV([29])], ids=repr)
    def test_equals_intersection_via_lattice_enumeration(self, algebra):
        # the subalgebra lattice, generated by one-element extensions
        subalgebras = all_subalgebras_by_extension(algebra)
        for g in list(algebra.elements())[:: max(1, algebra.size // 8)]:
            closure = generated_subalgebra(algebra, [g]).elements
            containing = [s for s in subalgebras if g in s]
            intersection = frozenset.intersection(*containing)
            assert closure == intersection

    def test_homs_preserve_generation(self):
        for target in [L6, FiniteMV([2, 6]), FiniteMV([12])]:
            for h in enumerate_homs(A23, target):
                for g in A23.elements():
                    sub = generated_subalgebra(A23, [g])
                    if sub.size > 60:
                        continue
                    assert frozenset(h(s) for s in sub.elements) == generated_subalgebra(
                        target, [h(g)]
                    ).elements

    def test_homs_preserve_generation_multi_generator(self):
        source = FiniteMV([2, 2])
        pairs = [
            [source.element(["1/2", 0]), source.element([0, "1/2"])],
            [source.element([1, 0]), source.element(["1/2", "1/2"])],
        ]
        for target in [FiniteMV([2]), FiniteMV([2, 4])]:
            for h in enumerate_homs(source, target):
                for gens in pairs:
                    sub = generated_subalgebra(source, gens)
                    if sub.size > 60:
                        continue
                    pushed = frozenset(h(s) for s in sub.elements)
                    assert pushed == generated_subalgebra(target, [h(g) for g in gens]).elements


class TestOrderRank:
    def test_rational_half(self):
        r = order_rank(RationalAlgebra.full(), Fraction(1, 2))
        assert r.rank == 1 and r.chain_orders == (2,)

    def test_zero_in_l2(self):
        r = order_rank(L2, L2.zero())
        assert r.rank == 1 and r.chain_orders == (1,)
        assert r.subalgebra.elements == frozenset({L2.zero(), L2.one()})

    def test_mixed_pair(self):
        assert order_rank(A23, A23.element(["1/2", "1/3"])).rank == 2

    def test_terminal_ambient_rank_zero(self):
        assert order_rank(FiniteMV([]), ()).rank == 0
        assert order_rank([], ()).rank == 0  # empty product of rational algebras

    def test_diagonal_generator_has_rank_one(self):
        r = order_rank(FiniteMV([2, 2]), FiniteMV([2, 2]).element(["1/2", "1/2"]))
        assert r.rank == 1 and r.chain_orders == (2,)

    def test_rational_product_ambient(self):
        ambient = [RationalAlgebra.supernatural({2: float("inf")}), RationalAlgebra.chain(3)]
        r = order_rank(ambient, (Fraction(3, 8), Fraction(1, 3)))
        assert r.rank == 2 and sorted(r.chain_orders) == [3, 8]

    def test_membership_validated(self):
        with pytest.raises(Exception):
            order_rank(RationalAlgebra.chain(6), Fraction(1, 4))

    def test_homs_preserve_finite_order_rank(self):
        for target in [L6, FiniteMV([2, 6])]:
            for h in enumerate_homs(A23, target):
                for a in A23.elements():
                    assert order_rank(target, h(a)).rank >= 0  # defined everywhere
