"""Every input in a small scope, checked against an oracle.

The pi0 requests run in process through the CLI, and each output is checked
against the oracles that read the explicit open sets: the topology test,
the component labels and the quotient topology.  The terms are printed,
parsed back and evaluated, and each value is checked against a table-driven
evaluation on ``oracles.op_tables`` indices.
"""

import json
from fractions import Fraction
from itertools import product

import pytest

from mvalg.algebras import FiniteMV, ParseError
from mvalg.cli import main
from mvalg.oracles import components_bruteforce, is_topology_pairwise, op_tables
from mvalg.terms import Const, Join, Meet, Neg, Odot, Oplus, Var, eval_term, parse_term, term_to_str
from mvalg.topology import FinSpace, bits


def _opens_json(opens):
    return [sorted(bits(o)) for o in sorted(opens)]


def test_pi0_on_every_family_of_opens_up_to_three_points(capsys):
    topologies = 0
    for n in range(4):
        for family in range(1 << (1 << n)):
            opens = [w for w in range(1 << n) if family >> w & 1]
            request = {"points": n, "opens": _opens_json(opens)}
            code = main(["pi0", "--space", json.dumps(request)])
            out = capsys.readouterr().out
            if not is_topology_pairwise(n, opens):
                assert code == 2 and out == ""
                continue
            assert code == 0
            payload = json.loads(out)
            assert payload["space"] == request
            labels = components_bruteforce(FinSpace.from_sets(n, request["opens"]))
            assert payload["class_of"] == list(labels)
            k = len(set(labels))
            assert payload["classes"] == k
            assert payload["quotient"] == {"points": k, "opens": _opens_json(range(1 << k))}
            topologies += 1
    assert topologies == 1 + 1 + 4 + 29


# -- terms ------------------------------------------------------------------------

LEAVES = [Var("x"), Var("y"), Const(Fraction(0)), Const(Fraction(1, 2)), Const(Fraction(1))]


def terms_by_size(nodes):
    """by_size[n] lists every term of exactly n nodes over LEAVES, for n up
    to ``nodes``; a leaf is one node, and each operator one more."""
    by_size = [[], LEAVES]
    for n in range(2, nodes + 1):
        terms = [Neg(t) for t in by_size[n - 1]]
        for left in range(1, n - 1):
            for node in (Oplus, Odot, Meet, Join):
                terms += [node(a, b) for a in by_size[left] for b in by_size[n - 1 - left]]
        by_size.append(terms)
    return by_size


def table_values(algebra, environments):
    """The reference evaluator: a term's value index under each environment
    (x, y) of element indices, read from the + and ! tables of op_tables.
    The other operations are derived by their definitions:
    a * b = !(!a + !b), a ^ b = a * (!a + b) and a v b = (a * !b) + b."""
    codes, neg, plus = op_tables(algebra)
    index = {code: i for i, code in enumerate(codes)}

    def times(a, b):
        return neg[plus[neg[a]][neg[b]]]

    binary = {
        Oplus: lambda a, b: plus[a][b],
        Odot: times,
        Meet: lambda a, b: times(a, plus[neg[a]][b]),
        Join: lambda a, b: plus[times(a, neg[b])][b],
    }

    def values(term):
        if isinstance(term, Var):
            return [env["xy".index(term.name)] for env in environments]
        if isinstance(term, Const):
            const = index[tuple(int(term.value * m) for m in algebra.orders)]
            return [const] * len(environments)
        if isinstance(term, Neg):
            return [neg[a] for a in values(term.arg)]
        return list(map(binary[type(term)], values(term.left), values(term.right)))

    return values


def test_every_small_term_prints_back_to_itself():
    terms = [t for size in terms_by_size(5) for t in size]
    assert len(terms) == 5 + 5 + 105 + 305 + 4605
    for term in terms:
        assert parse_term(term_to_str(term)) == term, term


@pytest.mark.parametrize("orders, nodes", [((2,), 5), ((2, 2), 4)])
def test_eval_agrees_with_the_tables_on_every_small_term(orders, nodes):
    algebra = FiniteMV(orders)
    elements = [tuple(Fraction(k, m) for k, m in zip(code, orders)) for code in op_tables(algebra)[0]]
    environments = [(i, j) for i in range(len(elements)) for j in range(len(elements))]
    reference = table_values(algebra, environments)
    for term in (t for size in terms_by_size(nodes) for t in size):
        got = [eval_term(term, {"x": elements[i], "y": elements[j]}, algebra) for i, j in environments]
        assert got == [elements[v] for v in reference(term)], term_to_str(term)


# -- the parser on every short string -----------------------------------------------

TOKENS = ["x", "y", "v", "0", "1", "2", "/", "+", "*", "^", "!", "(", ")", "&"]


def test_every_string_of_at_most_four_tokens_parses_or_fails_with_a_position():
    # joined without spaces, neighbouring tokens merge: "x" "y" is the
    # variable "xy", "1" "2" the integer 12
    texts = {sep.join(tokens) for n in range(5) for tokens in product(TOKENS, repeat=n) for sep in (" ", "")}
    parsed = 0
    for text in texts:
        try:
            term = parse_term(text)
        except ParseError as err:
            assert 0 <= err.position <= len(text), text
            continue
        assert parse_term(term_to_str(term)) == term, text
        parsed += 1
    assert (len(texts), parsed) == (82_727, 1_812)
