"""JSON-compatible wire formats.

Algebras: {"finite": [2, 3]}, {"rational": {"kind": "chain", "n": 6}},
{"rational": {"kind": "supernatural", "primes": {"2": "inf"}, "all": false}},
{"product": [rational...]}, {"simplicial": {"rank": 2, "unit": [2, 3]}}.
Elements are lists of fraction strings (["1/2", "1/3"]): digits "p" or "p/q",
read as the rational p/q, so "2/4" is 1/2 (JSON integers are accepted too);
environments map variable names to fraction strings; spaces are
{"points": n, "opens": [[...], ...]}.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebras import AlgebraError, Element, FiniteMV, Hom
from .lgroups import SimplicialGroup
from .rationals import INF, RationalAlgebra
from .topology import parse_space_json, space_to_json  # re-exported

__all__ = [
    "FormatError",
    "parse_fraction",
    "fraction_to_str",
    "parse_element",
    "element_to_json",
    "parse_algebra",
    "algebra_to_json",
    "rational_to_json",
    "parse_env",
    "hom_to_json",
    "parse_space_json",
    "space_to_json",
]


class FormatError(ValueError):
    """Malformed wire-format input."""


# a {"product": [...]} has at most as many factors as pierce and spec accept
# components under cli.MAX_RESPONSE_LEAVES; a longer product is refused
# before any factor is parsed, so its length bounds the work of a request
MAX_PRODUCT_FACTORS = 16


def _is_int(value) -> bool:
    """A JSON integer; true and false are bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


_FRACTION = re.compile(r"([0-9]+)(?:/([0-9]+))?")
_PRIME_KEY = re.compile(r"[1-9][0-9]*")


def parse_fraction(text) -> Fraction:
    """A Fraction, a JSON integer, or a string of digits "p" or "p/q"; no
    sign, space, decimal point or exponent."""
    if isinstance(text, Fraction) or _is_int(text):
        f = Fraction(text)
    elif isinstance(text, str) and (m := _FRACTION.fullmatch(text)):
        try:
            num, den = int(m[1]), int(m[2] or 1)
        except ValueError as exc:  # int() refuses very long digit strings
            raise FormatError(f"malformed fraction {text[:20]!r}...: {exc}") from None
        if den == 0:
            raise FormatError(f"malformed fraction {text!r}: zero denominator")
        f = Fraction(num, den)
    else:
        raise FormatError(f"malformed fraction {text!r}: expected \"p\" or \"p/q\" in digits")
    if not 0 <= f <= 1:
        raise FormatError(f"fraction {text!r} is outside [0,1]")
    return f


def fraction_to_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_element(algebra: FiniteMV, obj) -> Element:
    if not isinstance(obj, list):
        raise FormatError(f"element must be a list of fraction strings, got {obj!r}")
    try:
        return algebra.element(parse_fraction(c) for c in obj)
    except AlgebraError as exc:
        raise FormatError(str(exc)) from None


def element_to_json(x: Element) -> list[str]:
    return [fraction_to_str(c) for c in x]


def parse_env(algebra: FiniteMV, obj) -> dict[str, Element]:
    if not isinstance(obj, dict):
        raise FormatError(f"environment must be an object, got {obj!r}")
    env = {}
    for name, value in obj.items():
        coords = value if isinstance(value, list) else [value] * algebra.num_components
        env[name] = parse_element(algebra, coords)
    return env


def _parse_rational(obj) -> RationalAlgebra:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError(f'expected {{"kind": ...}}, got {obj!r}')
    if obj["kind"] == "chain":
        return RationalAlgebra.chain(obj.get("n"))
    if obj["kind"] == "supernatural":
        primes = obj.get("primes", {})
        if not isinstance(primes, dict):
            raise FormatError(f"bad primes table {primes!r}")
        caps = {}
        for p, e in primes.items():
            if not _PRIME_KEY.fullmatch(p):
                raise FormatError(f"bad prime {p!r}: expected digits with no sign, space or leading zero")
            try:
                prime = int(p)
            except ValueError as exc:  # int() refuses very long digit strings
                raise FormatError(f"bad prime {p[:20]!r}...: {exc}") from None
            if e == "inf":
                caps[prime] = INF
            elif _is_int(e) and e >= 0:
                caps[prime] = e
            else:
                raise FormatError(f"bad exponent {e!r} for prime {p}")
        all_infinite = obj.get("all", False)
        if not isinstance(all_infinite, bool):
            raise FormatError(f'"all" must be true or false, got {all_infinite!r}')
        return RationalAlgebra.supernatural(caps, all_infinite)
    raise FormatError(f"unknown rational algebra kind {obj['kind']!r}")


def parse_algebra(obj):
    """Parse any of the algebra wire formats; returns FiniteMV,
    RationalAlgebra, a list of RationalAlgebra (product), or SimplicialGroup.
    The shapes are checked here and the values by the constructors, whose
    AlgebraError becomes a FormatError."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise FormatError(f"expected a one-key algebra object, got {obj!r}")
    (key, value), = obj.items()
    try:
        if key == "finite":
            if not isinstance(value, list):
                raise FormatError(f"bad chain orders {value!r}")
            return FiniteMV(value)
        if key == "rational":
            return _parse_rational(value)
        if key == "product":
            if not isinstance(value, list):
                raise FormatError(f"bad product {value!r}")
            if len(value) > MAX_PRODUCT_FACTORS:
                raise FormatError(f"a product of {len(value)} factors; at most {MAX_PRODUCT_FACTORS} are accepted")
            return [
                _parse_rational(item["rational"]) if isinstance(item, dict) and set(item) == {"rational"} else _parse_rational(item)
                for item in value
            ]
        if key == "simplicial":
            if not isinstance(value, dict) or set(value) not in ({"rank", "unit"}, {"unit"}) or not isinstance(value["unit"], list):
                raise FormatError(f'expected {{"rank": r, "unit": [...]}}, got {value!r}')
            unit = value["unit"]
            if "rank" in value and (not _is_int(value["rank"]) or value["rank"] != len(unit)):
                raise FormatError(f"rank {value['rank']!r} does not match unit length {len(unit)}")
            return SimplicialGroup(unit)
    except AlgebraError as exc:
        raise FormatError(str(exc)) from None
    raise FormatError(f"unknown algebra kind {key!r}")


def rational_to_json(r: RationalAlgebra) -> dict:
    n = r.chain_order()
    if n is not None:
        return {"rational": {"kind": "chain", "n": n}}
    primes = {str(p): ("inf" if e == INF else e) for p, e in r.exponents}
    return {"rational": {"kind": "supernatural", "primes": primes, "all": r.all_infinite}}


def algebra_to_json(algebra) -> dict:
    if isinstance(algebra, FiniteMV):
        return {"finite": list(algebra.orders)}
    if isinstance(algebra, RationalAlgebra):
        return rational_to_json(algebra)
    if isinstance(algebra, SimplicialGroup):
        return {"simplicial": {"rank": algebra.rank, "unit": list(algebra.unit)}}
    if isinstance(algebra, (list, tuple)):
        return {"product": [rational_to_json(r) for r in algebra]}
    raise FormatError(f"cannot serialize {algebra!r}")


def hom_to_json(h: Hom) -> dict:
    return {
        "source": list(h.source.orders),
        "target": list(h.target.orders),
        "component_map": list(h.component_map),
    }
