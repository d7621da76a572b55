"""Algebras of rational numbers: subalgebras of the rational unit interval.

A subalgebra of [0,1] n Q is determined by its admissible denominators,
closed under divisors and lcm; equivalently by a supernatural (Steinitz)
number N * prod_{p in P} p^inf, with the order N coprime to every prime of P.
q is admissible iff N is divisible by what is left of q once the primes of P
are divided out, and a join is an lcm with the primes of P divided out, so no
order is factorized.  The finite chains are the numbers with P empty; the
number with every prime infinite is the whole rational interval.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, log10, prod
from typing import Iterator, Mapping

from .algebras import AlgebraError
from .records import Record

INF = float("inf")

# Python converts an int of at most this many digits to a decimal string
# (sys.get_int_max_str_digits), so no order, and no integer read, is longer
MAX_ORDER_DIGITS = 4300
_ORDER_BOUND = 10**MAX_ORDER_DIGITS


def excerpt(text: str) -> str:
    """At most the first 20 characters of text, then "..." if it is longer:
    how a refusal quotes input that may run to thousands of characters."""
    return text[:20] + ("..." if len(text) > 20 else "")


def read_int(digits: str, error: type[Exception], *context) -> int:
    """The integer written by ``digits``, at most MAX_ORDER_DIGITS ASCII
    digits.  Other text is refused with ``error(message, *context)`` before
    int() sees it, and the message quotes at most 20 of its characters."""
    if not (digits.isascii() and digits.isdigit()) or len(digits) > MAX_ORDER_DIGITS:
        quoted = excerpt(repr(digits))
        raise error(f"expected at most {MAX_ORDER_DIGITS} ASCII digits, got {quoted} ({len(digits)} characters)", *context)
    return int(digits)


def _divide_out(n: int, primes: tuple[int, ...]) -> int:
    """n with every factor of each of the primes divided out.  n is divided
    by p, p**2, p**4, ... while each divides it, then by the same powers back
    down while each still does, so a factor p**e costs O(log e) divisions."""
    for p in primes:
        powers = []
        while n % p == 0:
            n //= p
            powers.append(p)
            p *= p
        for power in reversed(powers):
            if n % power == 0:
                n //= power
    return n


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# psi_13 (Sorenson & Webster 2015); a larger prime key is refused
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_KEY_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < PRIME_KEY_BOUND."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalAlgebra(Record):
    """A subalgebra of [0,1] n Q as its supernatural number (order, infinite,
    all_infinite): the sorted primes of infinite cap and the order coprime to
    them.  The chain of order n is (n, (), False), the dyadic rationals are
    (1, (2,), False) and the whole interval is (1, (), True).  Equal algebras
    have equal records.  Only ``chain``, ``supernatural`` and ``full`` validate."""

    __slots__ = ("order", "infinite", "all_infinite")
    order: int
    infinite: tuple[int, ...]
    all_infinite: bool

    @staticmethod
    def chain(n: int) -> "RationalAlgebra":
        """The finite chain with denominator n (admissible denominators: divisors of n)."""
        if type(n) is not int or n < 1:  # a bool is not an order
            raise AlgebraError(f"chain order must be a positive integer, got {n!r}")
        if n >= _ORDER_BOUND:
            raise AlgebraError(f"a chain order has more than {MAX_ORDER_DIGITS} digits")
        return RationalAlgebra(n, (), False)

    @staticmethod
    def full() -> "RationalAlgebra":
        """The whole rational unit interval."""
        return RationalAlgebra(1, (), True)

    @staticmethod
    def supernatural(exponents: Mapping[int, int | float], all_infinite: bool = False) -> "RationalAlgebra":
        """The algebra whose denominators hold each prime p at most exponents[p]
        times (INF: any number); with all_infinite, the whole interval: the
        chain of the finite caps, whose digits are counted as e·log10 p before
        any power is built, joined with the primes of infinite cap."""
        for p, e in exponents.items():
            if isinstance(p, int) and p >= PRIME_KEY_BOUND:
                raise AlgebraError(f"a {p.bit_length()}-bit prime key is not below {PRIME_KEY_BOUND}, the primality test's bound")
            if not isinstance(p, int) or not _is_prime(p):
                raise AlgebraError(f"{p!r} is not prime")
            if e != INF and (type(e) is not int or e < 0):
                raise AlgebraError(f"bad exponent {e!r} for prime {p}")
        if all_infinite:
            return RationalAlgebra.full()
        finite = [(p, e) for p, e in exponents.items() if e != INF]
        if sum(e * log10(p) for p, e in finite) >= MAX_ORDER_DIGITS:
            raise AlgebraError(f"the finite caps multiply to more than {MAX_ORDER_DIGITS} digits")
        infinite = tuple(sorted(p for p, e in exponents.items() if e == INF))
        return RationalAlgebra.chain(prod(p**e for p, e in finite)).join(RationalAlgebra(1, infinite, False))

    def chain_order(self) -> int | None:
        """The denominator n when this algebra is the finite chain of order n."""
        return None if self.all_infinite or self.infinite else self.order

    def contains(self, x: Fraction) -> bool:
        """p/q (lowest terms) is a member iff the order is divisible by what
        is left of q once each infinite prime is divided out of it."""
        x = Fraction(x)
        if not 0 <= x <= 1:
            return False
        if self.all_infinite:
            return True
        return self.order % _divide_out(x.denominator, self.infinite) == 0

    def check(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        if not self.contains(x):
            raise AlgebraError(f"{x} is not a member of {self}")
        return x

    def __contains__(self, x) -> bool:
        return self.contains(x)

    def join(self, other: "RationalAlgebra") -> "RationalAlgebra":
        """Pointwise maximum of exponent caps: the primes infinite on either
        side, and the lcm of the orders with those primes divided out."""
        if self.all_infinite or other.all_infinite:
            return RationalAlgebra.full()
        infinite = tuple(sorted({*self.infinite, *other.infinite}))
        order = _divide_out(lcm(self.order, other.order), infinite)
        if order >= _ORDER_BOUND:
            raise AlgebraError(f"the join has an order of more than {MAX_ORDER_DIGITS} digits")
        return RationalAlgebra(order, infinite, False)

    def elements(self) -> Iterator[Fraction]:
        n = self.chain_order()
        if n is None:
            raise AlgebraError(f"{self} is infinite; cannot enumerate")
        return iter(Fraction(k, n) for k in range(n + 1))

    def __repr__(self) -> str:
        if self.all_infinite:
            return "RationalAlgebra(full)"
        if not self.infinite:
            return f"RationalAlgebra(chain {self.order})"
        order = f", n={self.order}" if self.order > 1 else ""
        return "RationalAlgebra(" + ", ".join(f"{p}^inf" for p in self.infinite) + order + ")"
