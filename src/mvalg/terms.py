"""Terms of the basic many-valued language: parsing, printing, evaluation,
and generated subalgebras and order-rank in closed form (the round-based
closure they are checked against lives in ``oracles``).

Grammar (precedence tightest first, binary operators left-associative):

    term  := '0' | '1' | INT '/' INT   constant
           | IDENT                     variable
           | '!' term                  negation
           | term '*' term             strong conjunction
           | term '+' term             truncated addition
           | term '^' term             lattice meet
           | term 'v' term             lattice join
           | '(' term ')'

The bare word ``v`` is the join operator and is therefore not available as a
variable name.  Every constant is one leaf, ``Const(value)``: ``0``,
``0/1`` and ``0/5`` all parse to ``Const(Fraction(0))``, and the printer
writes a constant with denominator 1 as its numerator, so that
``parse_term(term_to_str(t)) == t``.  A constant must lie in [0,1]; 0 and 1
evaluate in every algebra, any other constant only in algebras that contain
it in every coordinate.

A term may nest at most MAX_TERM_DEPTH levels deep: a leaf is one level, and
each ``!``, each binary operator and each pair of parentheses adds one above
its operands.  The parser rejects deeper input with a ParseError before it
recurses that far, so evaluation and printing never meet a deeper tree.

The parser scans the text once and parses it by precedence climbing over
``_BINARY``, the table of binary operators that the printer reads too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product as iproduct
from math import lcm, prod
from typing import Iterable, Mapping

from .algebras import (  # TermError and ParseError are re-exported
    ZERO,
    ONE,
    AlgebraError,
    Element,
    FiniteMV,
    ParseError,
    TermError,
    _chain,
    _join,
    _meet,
    _neg,
    _odot,
    _oplus,
)
from .rationals import RationalAlgebra
from .records import Record

# -- syntax trees ---------------------------------------------------------------


class Term(Record):
    __slots__ = ()


class Const(Term):
    """A constant: a Fraction in [0,1], 0 and 1 included.  It is the only
    constant leaf, so equal constants are equal terms."""

    __slots__ = ("value",)
    value: Fraction


class Var(Term):
    __slots__ = ("name",)
    name: str


class Neg(Term):
    __slots__ = ("arg",)
    arg: Term


class _BinaryTerm(Term):
    __slots__ = ("left", "right")
    left: Term
    right: Term


class Oplus(_BinaryTerm):
    __slots__ = ()


class Odot(_BinaryTerm):
    __slots__ = ()


class Meet(_BinaryTerm):
    __slots__ = ()


class Join(_BinaryTerm):
    __slots__ = ()


# The binary operators, loosest first: an operator's index is its precedence
# level, which the parser and the printer both read from here.  Negation
# binds tighter than any of them, and leaves and parentheses tighter still.
_BINARY = ((Join, "v"), (Meet, "^"), (Oplus, "+"), (Odot, "*"))
_LEVEL = {node: level for level, (node, _) in enumerate(_BINARY)}
_SYMBOL = dict(_BINARY)
_NEG_LEVEL = len(_BINARY)
_ATOM_LEVEL = _NEG_LEVEL + 1


# -- parser ---------------------------------------------------------------------

MAX_TERM_DEPTH = 64

# One scan reads a number, a word, an operator symbol, or any other
# non-space character, which is an error.  The word "v" is the join operator.
_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[+*!^()/])|(?P<bad>\S))")
_OPERATOR_LEVEL = {symbol: level for level, (_, symbol) in enumerate(_BINARY)}
_BARE = {"0": ZERO, "1": ONE}  # the integers a term may write without a denominator


def parse_term(text: str) -> Term:
    """Parse ``text`` by precedence climbing over _BINARY.

    Each subterm is parsed with its depth.  The whole term is at least as
    deep as the '!' and '(' constructs still open around a subterm plus the
    subterm itself, so the budget is checked against that sum: on the way
    down at every '!' and '(', and on the way up at every binary node."""
    tokens = []  # (kind, text, position)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append(("op" if m[kind] == "v" else kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    tokens.reverse()  # so that tokens.pop() takes the next token, and tokens[-1] peeks at it

    def take() -> tuple[str, str, int]:
        if len(tokens) == 1:
            raise ParseError("unexpected end of input", len(text))
        return tokens.pop()

    def budget(depth: int, enclosing: int, at: int) -> int:
        if enclosing + depth > MAX_TERM_DEPTH:
            raise ParseError(f"term nests more than {MAX_TERM_DEPTH} levels deep", at)
        return depth

    def binary(level: int, enclosing: int) -> tuple[Term, int]:
        """A left-associated run of the operators at ``level`` or looser;
        the right operand of each takes only the operators tighter than it."""
        t, depth = unary(enclosing)
        while (op_level := _OPERATOR_LEVEL.get(tokens[-1][1], -1)) >= level:
            at = tokens.pop()[2]
            right, right_depth = binary(op_level + 1, enclosing)
            t = _BINARY[op_level][0](t, right)
            depth = budget(1 + max(depth, right_depth), enclosing, at)
        return t, depth

    def unary(enclosing: int) -> tuple[Term, int]:
        """A '!' or '(' construct, or a leaf."""
        kind, value, at = take()
        if value in ("!", "("):
            budget(1, enclosing + 1, at)
            if value == "!":
                t, depth = unary(enclosing + 1)
                return Neg(t), depth + 1
            t, depth = binary(0, enclosing + 1)
            _, close, close_at = take()
            if close != ")":
                raise ParseError(f"expected ')', got {close!r}", close_at)
            return t, depth + 1
        if kind == "var":
            return Var(value), 1
        if kind != "int":
            raise ParseError(f"unexpected {value!r}", at)
        if tokens[-1][1] != "/":
            if value not in _BARE:
                raise ParseError(f"bare integer {value!r} is not a term (only 0, 1, fractions)", at)
            return Const(_BARE[value]), 1
        tokens.pop()
        den_kind, den, den_at = take()
        if den_kind != "int":
            raise ParseError("malformed fraction: expected a denominator", den_at)
        num, den = int(value), int(den)
        if den == 0:
            raise ParseError("malformed fraction: zero denominator", den_at)
        frac = Fraction(num, den)
        if not ZERO <= frac <= ONE:
            raise ParseError(f"malformed fraction: {num}/{den} is outside [0,1]", at)
        return Const(frac), 1

    t, _ = binary(0, 0)
    if len(tokens) > 1:
        raise ParseError(f"unexpected {tokens[-1][1]!r}", tokens[-1][2])
    return t


def term_to_str(term: Term) -> str:
    """Canonical rendering; parse(term_to_str(t)) == t."""

    def level(t: Term) -> int:
        return _NEG_LEVEL if isinstance(t, Neg) else _LEVEL.get(type(t), _ATOM_LEVEL)

    def render(t: Term) -> str:
        if isinstance(t, Const):
            return str(t.value)  # "p/q", or "0" and "1" with no denominator
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Neg):
            inner = render(t.arg)
            if level(t.arg) < _NEG_LEVEL:
                inner = f"({inner})"
            return f"!{inner}"
        sym, lvl = _SYMBOL[type(t)], _LEVEL[type(t)]
        left, right = render(t.left), render(t.right)
        if level(t.left) < lvl:
            left = f"({left})"
        if level(t.right) <= lvl:  # left-associative: parenthesize equal-level right children
            right = f"({right})"
        return f"{left} {sym} {right}"

    return render(term)


def eval_term(term: Term, env: Mapping[str, Element], algebra: FiniteMV) -> Element:
    """Structural evaluation in the given algebra."""
    if isinstance(term, Const):
        coords = (term.value,) * algebra.num_components
        if term.value not in (0, 1) and not algebra.contains(coords):  # 0 and 1 lie in every algebra
            raise TermError(f"constant {term.value} is not an element of {algebra}")
        return coords
    if isinstance(term, Var):
        if term.name not in env:
            raise TermError(f"unbound variable {term.name!r}")
        return algebra.check(env[term.name])
    if isinstance(term, Neg):
        return _neg(eval_term(term.arg, env, algebra))
    ops = {Oplus: _oplus, Odot: _odot, Meet: _meet, Join: _join}  # looked up per call, so bench/tracer.py can wrap them
    return ops[type(term)](eval_term(term.left, env, algebra), eval_term(term.right, env, algebra))


# -- generated subalgebras and order-rank ----------------------------------------


class Subalgebra(Record):
    """The subalgebra generated by a set G, in closed form: ``blocks[b]``
    lists the components whose generator columns ``(g[i] for g in G)`` are
    equal, and the block carries the chain of order ``orders[b]``, the lcm
    of the denominators in its column.  The subalgebra is the product of
    those chains, each copied onto the components of its block, so equal
    generated subalgebras are equal records whatever their generators."""

    __slots__ = ("ambient", "blocks", "orders")
    ambient: FiniteMV
    blocks: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]

    @property
    def size(self) -> int:
        return prod(d + 1 for d in self.orders)

    @property
    def elements(self) -> frozenset[Element]:
        """The element set, built on each read: each component takes its
        block's value."""
        block_of = [0] * self.ambient.num_components
        for b, block in enumerate(self.blocks):
            for i in block:
                block_of[i] = b
        return frozenset(tuple([values[b] for b in block_of]) for values in iproduct(*map(_chain, self.orders)))


def _columns(algebra: FiniteMV, gens: tuple[Element, ...]) -> dict[tuple, list[int]]:
    """Components grouped by generator column, in order of first occurrence."""
    columns: dict[tuple, list[int]] = {}
    for i in range(algebra.num_components):
        columns.setdefault(tuple(g[i] for g in gens), []).append(i)
    return columns


def generated_subalgebra(algebra: FiniteMV, generators: Iterable[Element]) -> Subalgebra:
    """Least subalgebra containing the generators.  By McNaughton's theorem
    read at rational points, a term function takes at a point of
    denominator d exactly the values j/d, and distinct points take
    independent values; so each distinct column c is a free chain of order
    lcm(den c), and equal columns stay equal."""
    gens = tuple(algebra.check(g) for g in generators)
    columns = _columns(algebra, gens)
    blocks = tuple(tuple(block) for block in columns.values())
    orders = tuple(lcm(*(c.denominator for c in column)) for column in columns)
    return Subalgebra(algebra, blocks, orders)


class OrderRank(Record):
    """Order-rank of an element: the number of non-terminal indecomposable
    factors of the subalgebra it generates (0 only over the terminal algebra),
    together with the factors' chain orders."""

    __slots__ = ("rank", "chain_orders", "subalgebra")
    rank: int
    chain_orders: tuple[int, ...]
    subalgebra: Subalgebra


RankAmbient = FiniteMV | RationalAlgebra | list | tuple


def _envelope(ambient: RankAmbient, a) -> tuple[FiniteMV, Element]:
    if isinstance(ambient, FiniteMV):
        return ambient, ambient.check(a)
    comps = [ambient] if isinstance(ambient, RationalAlgebra) else list(ambient)
    if not all(isinstance(c, RationalAlgebra) for c in comps):
        raise AlgebraError(f"{ambient!r} is not a representable ambient")
    coords = tuple(Fraction(c) for c in (a if isinstance(a, (tuple, list)) else (a,)))
    if len(coords) != len(comps):
        raise AlgebraError(f"{a!r} has {len(coords)} coordinates, ambient has {len(comps)}")
    for c, comp in zip(coords, comps):
        comp.check(c)
    # the subalgebra generated by a rational p/q is the chain of order q, so
    # generating inside the product of those chains loses nothing
    envelope = FiniteMV._make(tuple([c.denominator for c in coords]))
    return envelope, coords


def order_rank(ambient: RankAmbient, a) -> OrderRank:
    envelope, elem = _envelope(ambient, a)
    sub = generated_subalgebra(envelope, [elem])
    return OrderRank(len(sub.orders), sub.orders, sub)
