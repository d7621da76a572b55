"""Algebras of rational numbers: subalgebras of the rational unit interval.

A subalgebra of [0,1] n Q is determined by its set of admissible
denominators, which is closed under divisors and lcm; equivalently by a cap
on the exponent of each prime, where the cap may be infinite (a supernatural
number).  Finite caps with finite support describe the finite chains, each
fixed by its order alone; the everything-infinite specification is the whole
rational interval.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, isqrt, lcm, log10, prod
from typing import Iterator, Mapping

from .algebras import AlgebraError
from .records import Record

INF = float("inf")

# Python converts an int of at most this many digits to a decimal string
# (sys.get_int_max_str_digits), so no chain with a longer order is built
MAX_ORDER_DIGITS = 4300
_ORDER_BOUND = 10**MAX_ORDER_DIGITS

# factorize tries the primes up to this bound only, so an order with no small
# factor costs one bounded sweep and a composite cofactor is refused
TRIAL_DIVISION_BOUND = 10**6

# The primes up to TRIAL_DIVISION_BOUND come in leaves of _LEAF_PRIMES
# consecutive primes, each kept with its product: one gcd with a leaf's
# product shows whether any of its primes divides n, so a long n costs one
# gcd per leaf, not one remainder per prime.  The leaves below
# _SMALL_TABLE_BOUND are sieved apart and first, so an order below
# _SMALL_TABLE_BOUND**2 never builds the rest; neither table is built before
# factorize needs it.
_LEAF_PRIMES = 128
_SMALL_TABLE_BOUND = 1 << 16


@cache
def _prime_leaves(lo: int, hi: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(first prime, product, primes) of the leaves of the primes in lo..hi-1."""
    sieve = bytearray([1]) * (hi // 2)  # sieve[i] stands for 2i + 1
    sieve[0] = 0
    for i in range(1, (isqrt(hi - 1) - 1) // 2 + 1):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
    primes = [2] * (lo <= 2) + list(compress(range(lo | 1, hi, 2), sieve[lo // 2 :]))
    leaves = (primes[i : i + _LEAF_PRIMES] for i in range(0, len(primes), _LEAF_PRIMES))
    return tuple((leaf[0], prod(leaf), tuple(leaf)) for leaf in leaves)


def _small_prime_divisors(n: int) -> Iterator[int]:
    """The primes up to TRIAL_DIVISION_BOUND that divide n, in increasing
    order; the sweep stops at the first table or leaf whose first prime
    squared exceeds n."""
    for lo, hi in ((2, _SMALL_TABLE_BOUND), (_SMALL_TABLE_BOUND, TRIAL_DIVISION_BOUND + 1)):
        if lo * lo > n:
            return
        for first, product, leaf in _prime_leaves(lo, hi):
            if first * first > n:
                return
            g = gcd(n, product)
            if g > 1:
                yield from (p for p in leaf if g % p == 0)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division by the primes up to
    TRIAL_DIVISION_BOUND.  Its one caller is RationalAlgebra.join, which
    factorizes the order of a finite chain joined with an algebra that has
    an infinite prime.  What is left of n, at the start and after each prime
    divided out, is asked of _is_prime when it lies below PRIME_KEY_BOUND,
    and a prime (or 1) ends the division at once.  If the primes run out
    first, what is left has no prime factor up to TRIAL_DIVISION_BOUND and
    is not a prime _is_prime can decide, and n is refused with AlgebraError."""
    if n < 1:
        raise AlgebraError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    if not (n < PRIME_KEY_BOUND and _is_prime(n)):
        for p in _small_prime_divisors(n):
            n, out[p] = _divide_out(n, p)
            if n == 1 or n < PRIME_KEY_BOUND and _is_prime(n):
                break
        else:
            if n > 1:
                raise AlgebraError(
                    f"cannot factorize: trial division up to {TRIAL_DIVISION_BOUND} leaves a "
                    f"{len(str(n))}-digit cofactor that is not a prime below {PRIME_KEY_BOUND}"
                )
    if n > 1:
        out[n] = 1
    return out


def _divide_out(n: int, p: int) -> tuple[int, int]:
    """(n / p**e, e) for the exponent e of p in n.  n is divided by p, p**2,
    p**4, ... while each divides it, then by the same powers back down while
    each still does, so e costs O(log e) divisions, not e."""
    powers = []  # powers[i] is p**(2**i)
    power, e = p, 0
    while n % power == 0:
        n //= power
        e += 1 << len(powers)
        powers.append(power)
        power *= power
    for i in reversed(range(len(powers))):
        if n % powers[i] == 0:
            n //= powers[i]
            e += 1 << i
    return n, e


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
    """A subalgebra of [0,1] n Q in its normal form (order, exponents,
    all_infinite).  The finite chain of order n is (n, (), False); an algebra
    with an infinite prime keeps its sorted (prime, cap) pairs, each cap a
    positive int or INF, and its order is the product of its finite prime
    powers; the whole interval is (1, (), True).  ``chain``, ``supernatural``
    and ``full`` validate their input; the positional constructor does not."""

    __slots__ = ("order", "exponents", "all_infinite")
    order: int
    exponents: tuple[tuple[int, int | float], ...]
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
        times (INF: any number); with all_infinite, the whole interval."""
        for p, e in exponents.items():
            if isinstance(p, int) and p >= PRIME_KEY_BOUND:
                raise AlgebraError(f"prime key {p} is not below {PRIME_KEY_BOUND}, the bound of the primality test")
            if not isinstance(p, int) or not _is_prime(p):
                raise AlgebraError(f"{p!r} is not prime")
            if e != INF and (type(e) is not int or e < 0):
                raise AlgebraError(f"bad exponent {e!r} for prime {p}")
        if all_infinite:
            return RationalAlgebra.full()
        return RationalAlgebra._from_caps(sorted((p, e) for p, e in exponents.items() if e != 0))

    @staticmethod
    def _from_caps(caps: list[tuple[int, int | float]]) -> "RationalAlgebra":
        """The normal form of sorted (prime, cap) pairs with valid keys and
        nonzero caps.  The digit budget on the finite caps is checked with
        e·log10 p before any power is computed."""
        finite = [(p, e) for p, e in caps if e != INF]
        if sum(e * log10(p) for p, e in finite) >= MAX_ORDER_DIGITS:
            raise AlgebraError(f"the finite caps multiply to more than {MAX_ORDER_DIGITS} digits")
        n = prod(p**e for p, e in finite)
        if len(finite) == len(caps):
            return RationalAlgebra.chain(n)  # the exact test of the order's length
        return RationalAlgebra(n, tuple(caps), False)

    def chain_order(self) -> int | None:
        """The denominator n when this algebra is the finite chain of order n."""
        return None if self.all_infinite or self.exponents else self.order

    def contains(self, x: Fraction) -> bool:
        """p/q (lowest terms) is a member iff the order is divisible by what
        is left of q once each infinite prime is divided out of it."""
        x = Fraction(x)
        if not 0 <= x <= 1:
            return False
        if self.all_infinite:
            return True
        q = x.denominator
        for p, cap in self.exponents:
            if cap == INF:
                while q % p == 0:
                    q //= p
        return self.order % q == 0

    def check(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        if not self.contains(x):
            raise AlgebraError(f"{x} is not a member of {self}")
        return x

    def __contains__(self, x) -> bool:
        return self.contains(x)

    def join(self, other: "RationalAlgebra") -> "RationalAlgebra":
        """Pointwise maximum of exponent caps: lcm on finite chains; next to
        an infinite prime a finite side's order is factorized into caps."""
        if self.all_infinite or other.all_infinite:
            return RationalAlgebra.full()
        if not self.exponents and not other.exponents:
            return RationalAlgebra.chain(lcm(self.order, other.order))
        caps: dict[int, int | float] = {}
        for r in (self, other):
            for p, e in r.exponents or factorize(r.order).items():
                caps[p] = max(caps.get(p, 0), e)
        return RationalAlgebra._from_caps(sorted(caps.items()))

    def elements(self) -> Iterator[Fraction]:
        n = self.chain_order()
        if n is None:
            raise AlgebraError(f"{self} is infinite; cannot enumerate")
        return iter(Fraction(k, n) for k in range(n + 1))

    def __repr__(self) -> str:
        if self.all_infinite:
            return "RationalAlgebra(full)"
        if not self.exponents:
            return f"RationalAlgebra(chain {self.order})"
        return "RationalAlgebra(" + ", ".join(f"{p}^{'inf' if e == INF else e}" for p, e in self.exponents) + ")"
