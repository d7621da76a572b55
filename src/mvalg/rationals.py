"""Algebras of rational numbers: subalgebras of the rational unit interval.

A subalgebra of [0,1] n Q is determined by its set of admissible
denominators, which is closed under divisors and lcm; equivalently by a cap
on the exponent of each prime, where the cap may be infinite.  Finite caps
with finite support describe the finite chains; the everything-infinite
specification is the whole rational interval.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import log10
from typing import Iterator, Mapping

from .algebras import AlgebraError
from .records import Record

INF = float("inf")

# Python converts an int of at most this many digits to a decimal string
# (sys.get_int_max_str_digits), so no chain with a longer order is written out
MAX_ORDER_DIGITS = 4300

# factorize tries divisors up to this bound only, so an order with no small
# factor costs one bounded loop and a composite cofactor is refused
TRIAL_DIVISION_BOUND = 10**6


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division up to TRIAL_DIVISION_BOUND.
    Whenever what is left of n lies between TRIAL_DIVISION_BOUND and
    PRIME_KEY_BOUND, at the start and after each prime divided out,
    _is_prime is asked first, and a prime ends the division at once.  If
    the divisors run out below the square root of what is left, that is not
    a prime _is_prime can decide, and n is refused with AlgebraError."""
    if n < 1:
        raise AlgebraError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    if not TRIAL_DIVISION_BOUND < n < PRIME_KEY_BOUND or not _is_prime(n):
        for d in chain((2,), range(3, TRIAL_DIVISION_BOUND + 1, 2)):
            if d * d > n:
                break  # what is left is 1 or a prime
            if n % d == 0:
                while n % d == 0:
                    out[d] = out.get(d, 0) + 1
                    n //= d
                if TRIAL_DIVISION_BOUND < n < PRIME_KEY_BOUND and _is_prime(n):
                    break
        else:  # what is left was asked about above, or lies beyond PRIME_KEY_BOUND
            raise AlgebraError(
                f"cannot factorize: trial division up to {TRIAL_DIVISION_BOUND} leaves a "
                f"{len(str(n))}-digit cofactor that is not a prime below {PRIME_KEY_BOUND}"
            )
    if n > 1:
        out[n] = 1
    return out


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
    """Denominator specification: (prime, exponent cap) pairs plus an
    all-primes-infinite flag.  p/q (lowest terms) is a member iff every prime
    power in q stays within its cap."""

    __slots__ = ("exponents", "all_infinite")
    exponents: tuple[tuple[int, int | float], ...]
    all_infinite: bool

    def __init__(self, exponents: Mapping[int, int | float] | None = None, all_infinite: bool = False):
        if all_infinite:
            pairs: tuple[tuple[int, int | float], ...] = ()
        else:
            items = dict(exponents or {})
            for p, e in items.items():
                if isinstance(p, int) and p >= PRIME_KEY_BOUND:
                    raise AlgebraError(f"prime key {p} is not below {PRIME_KEY_BOUND}, the bound of the primality test")
                if not isinstance(p, int) or not _is_prime(p):
                    raise AlgebraError(f"{p!r} is not prime")
                if e != INF and (type(e) is not int or e < 0):
                    raise AlgebraError(f"bad exponent {e!r} for prime {p}")
            pairs = tuple(sorted((p, e) for p, e in items.items() if e != 0))
        set_exponents, set_all_infinite = self._setters
        set_exponents(self, pairs)
        set_all_infinite(self, bool(all_infinite))

    @staticmethod
    def chain(n: int) -> "RationalAlgebra":
        """The finite chain with denominator n (admissible denominators: divisors of n)."""
        if type(n) is not int or n < 1:  # a bool is not an order
            raise AlgebraError(f"chain order must be a positive integer, got {n!r}")
        return RationalAlgebra(factorize(n))

    @staticmethod
    def full() -> "RationalAlgebra":
        """The whole rational unit interval."""
        return RationalAlgebra(all_infinite=True)

    @staticmethod
    def supernatural(exponents: Mapping[int, int | float], all_infinite: bool = False) -> "RationalAlgebra":
        return RationalAlgebra(exponents, all_infinite)

    @property
    def is_finite(self) -> bool:
        return not self.all_infinite and all(e != INF for _, e in self.exponents)

    def _caps(self) -> str:
        return ", ".join(f"{p}^{'inf' if e == INF else e}" for p, e in self.exponents)

    def _order_too_long(self) -> bool:
        """The finite chain's order would have more than MAX_ORDER_DIGITS digits."""
        return sum(e * log10(p) for p, e in self.exponents) >= MAX_ORDER_DIGITS

    def chain_order(self) -> int | None:
        """The denominator n when this algebra is the finite chain of order n.
        A chain whose order would have more than MAX_ORDER_DIGITS digits is
        refused with AlgebraError before the power is computed."""
        if not self.is_finite:
            return None
        if self._order_too_long():
            raise AlgebraError(f"the chain order {self._caps()} has more than {MAX_ORDER_DIGITS} digits")
        n = 1
        for p, e in self.exponents:
            n *= p ** int(e)
        return n

    def contains(self, x: Fraction) -> bool:
        """p/q (lowest terms) is a member iff q is 1 once each capped prime
        is divided out of it as often as its cap allows."""
        x = Fraction(x)
        if not 0 <= x <= 1:
            return False
        if self.all_infinite:
            return True
        q = x.denominator
        for p, cap in self.exponents:
            stripped = 0
            while stripped < cap and q % p == 0:
                q //= p
                stripped += 1
        return q == 1

    def check(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        if not self.contains(x):
            raise AlgebraError(f"{x} is not a member of {self}")
        return x

    def __contains__(self, x) -> bool:
        return self.contains(x)

    def join(self, other: "RationalAlgebra") -> "RationalAlgebra":
        """Pointwise maximum of exponent caps; on finite chains this is lcm."""
        if self.all_infinite or other.all_infinite:
            return RationalAlgebra.full()
        caps = dict(self.exponents)
        for p, e in other.exponents:
            caps[p] = max(caps.get(p, 0), e)
        return RationalAlgebra(caps)

    def elements(self) -> Iterator[Fraction]:
        n = self.chain_order()
        if n is None:
            raise AlgebraError(f"{self} is infinite; cannot enumerate")
        return iter(Fraction(k, n) for k in range(n + 1))

    def __repr__(self) -> str:
        if self.all_infinite:
            return "RationalAlgebra(full)"
        if self.is_finite and not self._order_too_long():
            return f"RationalAlgebra(chain {self.chain_order()})"
        return f"RationalAlgebra({self._caps()})"
