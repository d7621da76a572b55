"""Seeded inputs, timed operations and independent expectations.

Every workload is a list of operations.  An operation has a class, an input
key (to measure how often inputs repeat), a zero-argument call that does the
timed work, and a check that compares the result, untimed, with an
expectation the benchmark derives on its own.

* ``verify-all``: the ten suites through ``verify.run_criterion`` at the
  pinned bounds; the check is the pinned stats of tests/test_acceptance.py.
* ``query-mix``: one caller making in-process calls to the public API.
  Light classes make up most operations, heavy ones (order-rank closures,
  the separability witness search, topology catalogs) most of the time.
  Every input is drawn from a seeded per-class pool and used a fixed number
  of times, so the repeat share is fixed by construction and reported.
* ``cli-process``: one ``python -m mvalg <cmd>`` child at a time, covering
  the ten non-verify commands plus malformed requests that must exit 2.

mvalg functions are looked up through their module at call time, so the
tracer's wrappers (installed after the inputs are made) see every call.
"""

from __future__ import annotations

import contextlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import gcd, lcm, prod
from typing import Any, Callable

WORKLOADS = ("verify-all", "query-mix", "cli-process")

# Work per repetition, in seconds at the commit that defined the benchmark;
# a run makes max(1, round(seconds / NOMINAL_REP_S)) repetitions, so the
# work of a run is fixed by --seconds and does not shrink as the code speeds up.
NOMINAL_REP_S = {"verify-all": 17.0, "query-mix": 5.0, "cli-process": 6.5}

TOPOLOGY_COUNTS = (1, 1, 4, 29, 355, 6942)

ZERO, ONE = Fraction(0), Fraction(1)


@dataclass
class Op:
    cls: str
    key: Any
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def rep_rng(workload: str, seed: int, rep: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rep}")


def pooled(make: Callable[[int], Op], pool: int) -> list[Op]:
    """``pool`` operations with distinct input keys; ``make(i)`` builds one
    for the i-th pool slot and is called again for a slot whose key repeats."""
    seen: dict = {}
    for i in range(pool):
        op = make(i)
        while op.key in seen:
            op = make(i)
        seen[op.key] = op
    return list(seen.values())


def repeat_share(ops: list[Op]) -> float:
    seen = set()
    repeats = 0
    for op in ops:
        k = (op.cls, op.key)
        repeats += k in seen
        seen.add(k)
    return repeats / len(ops)


# -- verify-all -------------------------------------------------------------------

# the stats tests/test_acceptance.py pins for each suite
PINNED_STATS = {
    "hom-oracle": lambda s: s["algebras"] == 70 and s["pairs"] == 4900,
    "coproduct-universal": lambda s: s["triples"] == 28 * 28 * 91,
    "pierce-coproducts": lambda s: s["pairs"] == 35 * 35,
    "separability": lambda s: s["algebras"] == 35,
    "subterminal": lambda s: s["algebras"] == 165,
    "vanishing-locus": lambda s: s["elements"] > 0,
    "product-split": lambda s: s["splits"] >= s["algebras"],
    "pi0-products": lambda s: s["spaces"] == 7332 and s["pairs"] == 35 * 35,
    "order-rank": lambda s: s["rank_one"] == 181,
    "simplicial-roundtrip": lambda s: s["algebras"] == 210,
}


def verify_all_ops(seed: int, rep: int, span=lambda name: contextlib.nullcontext()) -> list[Op]:
    """One operation: the whole ``verify --all`` pass, which is what a user
    waits for; each suite runs in its own ``verify.<suite>`` span."""
    import mvalg.verify as verify

    def run():
        reports = []
        for name in verify.CRITERIA:
            with span(f"verify.{name}"):
                reports.append(verify.run_criterion(name, seed=seed))
        return reports

    def ok(reports):
        return [r.name for r in reports] == list(PINNED_STATS) and all(
            r.passed and PINNED_STATS[r.name](r.stats) for r in reports
        )

    return [Op("verify-all", seed, run, ok)]


# -- terms with their values, computed here ------------------------------------------


def _random_orders(rng: random.Random, k_max: int, m_max: int, k_min: int = 1) -> tuple[int, ...]:
    return tuple(rng.randint(1, m_max) for _ in range(rng.randint(k_min, k_max)))


def random_element(rng: random.Random, orders) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(0, m), m) for m in orders)


def random_term(rng: random.Random, orders, env: dict, depth: int) -> tuple[str, tuple]:
    """A fully parenthesised term and its value, by direct arithmetic."""
    k = len(orders)
    if depth == 0 or rng.random() < 0.25:
        pick = rng.randrange(4)
        if pick == 0:
            name = rng.choice(sorted(env))
            return name, env[name]
        if pick == 1:
            return "0", (ZERO,) * k
        if pick == 2:
            return "1", (ONE,) * k
        d = gcd(*orders) if orders else 1
        c = Fraction(rng.randint(0, d), d)
        text = "0" if c == 0 else "1" if c == 1 else f"{c.numerator}/{c.denominator}"
        return text, (c,) * k
    op = rng.choice("!+*^v")
    lt, lv = random_term(rng, orders, env, depth - 1)
    if op == "!":
        return f"!({lt})", tuple(ONE - a for a in lv)
    rt, rv = random_term(rng, orders, env, depth - 1)
    fn = {
        "+": lambda a, b: min(a + b, ONE),
        "*": lambda a, b: max(a + b - ONE, ZERO),
        "^": min,
        "v": max,
    }[op]
    return f"({lt} {op} {rt})", tuple(fn(a, b) for a, b in zip(lv, rv))


# -- independent expectations -----------------------------------------------------


def lcm_grid(a, b) -> tuple[int, ...]:
    return tuple(lcm(x, y) for x in a for y in b)


def hom_count(a, b) -> int:
    return prod(sum(1 for m in a if n % m == 0) for n in b)


def diagonal_indicator(k: int) -> tuple[Fraction, ...]:
    return tuple(ONE if i == j else ZERO for i in range(k) for j in range(k))


def closure_numerators(orders, gen) -> set[tuple[int, ...]]:
    """Subalgebra of the product of chains generated by ``gen``, as integer
    numerators, by a semi-naive closure under truncated sum and negation."""
    zero = tuple(0 for _ in orders)
    elems = {zero, gen}
    frontier = list(elems)
    while frontier:
        new = set()
        for x in frontier:
            cands = [tuple(m - a for a, m in zip(x, orders))]
            cands += [tuple(min(a + b, m) for a, b, m in zip(x, y, orders)) for y in elems]
            new.update(c for c in cands if c not in elems)
        elems |= new
        frontier = list(new)
    return elems


def space_json(space) -> dict:
    return {
        "points": space.points,
        "opens": [[x for x in range(space.points) if o >> x & 1] for o in sorted(space.opens)],
    }


def _random_space(rng: random.Random, n: int):
    from mvalg.oracles import random_topology

    space = random_topology(n, rng)
    return tuple(sorted(space.opens)), space


# -- query-mix --------------------------------------------------------------------

# class -> (pool size, uses per pooled input) for one repetition
QUERY_MIX = {
    "term": (175, 4),
    "coproduct": (100, 4),
    "homs": (100, 4),
    "skeleton": (75, 4),
    "chinese": (75, 4),
    "pi0": (60, 4),
    "gamma": (40, 4),
    "rank1": (12, 2),
    "rank2": (6, 2),
    "witness": (6, 2),
    "topologies": (3, 3),
}


def query_mix_ops(seed: int, rep: int, span=lambda name: contextlib.nullcontext()) -> list[Op]:
    """``span(name)`` is a context manager around the benchmark's own calls
    into a layer (the traced worker passes the tracer's)."""
    import mvalg
    from mvalg import oracles, topology

    rng = rep_rng("query-mix", seed, rep)
    full = mvalg.RationalAlgebra.full()
    expected_labels: dict = {}

    def labels_of(space):
        key = tuple(sorted(space.opens))
        if key not in expected_labels:
            expected_labels[key] = oracles.components_bruteforce(space)
        return expected_labels[key]

    def term(i):
        orders = _random_orders(rng, 3, 6)
        env = {v: random_element(rng, orders) for v in "xyz"}
        text, value = random_term(rng, orders, env, rng.randint(1, 4))
        alg = mvalg.FiniteMV(orders)
        return Op(
            "term", (orders, text, tuple(sorted(env.items()))),
            lambda: mvalg.eval_term(mvalg.parse_term(text), env, alg),
            lambda r: r == value,
        )

    def coproduct(i):
        a, b = _random_orders(rng, 3, 12), _random_orders(rng, 3, 12)
        A, B = mvalg.FiniteMV(a), mvalg.FiniteMV(b)
        return Op(
            "coproduct", (a, b),
            lambda: mvalg.coproduct_finite(A, B),
            lambda r: r.algebra.orders == lcm_grid(a, b),
        )

    def homs(i):
        a, b = _random_orders(rng, 3, 12), _random_orders(rng, 3, 12)
        A, B = mvalg.FiniteMV(a), mvalg.FiniteMV(b)

        def ok(r):
            maps = {h.component_map for h in r}
            valid = all(b[t] % a[src] == 0 for cm in maps for t, src in enumerate(cm))
            return len(r) == len(maps) == hom_count(a, b) and valid

        return Op("homs", (a, b), lambda: mvalg.enumerate_homs(A, B), ok)

    def skeleton(i):
        orders = _random_orders(rng, 4, 9)
        A = mvalg.FiniteMV(orders)

        def run():
            return (
                list(mvalg.boolean_skeleton(A).elements()),
                mvalg.decompose(A),
                mvalg.is_separable(A),
            )

        def ok(r):
            elems, dec, sep = r
            return (
                sorted(elems) == sorted(iproduct((ZERO, ONE), repeat=len(orders)))
                and [f.orders for f in dec.factors] == [(m,) for m in orders]
                and sep.separable
                and [f.chain_order() for f in sep.factors] == list(orders)
            )

        return Op("skeleton", orders, run, ok)

    def chinese(i):
        orders = _random_orders(rng, 6, 9, k_min=2)
        k = len(orders)
        zero = tuple(c for c in range(k) if rng.random() < 0.5)
        one = tuple(c for c in range(k) if c not in zero)
        A = mvalg.FiniteMV(orders)
        expected = tuple(ZERO if c in zero else ONE for c in range(k))
        return Op(
            "chinese", (orders, zero),
            lambda: mvalg.chinese_boolean(A, zero, one),
            lambda r: r == expected,
        )

    def pi0(i):
        key, space = _random_space(rng, rng.randint(1, 4))
        return Op(
            "pi0", key,
            lambda: mvalg.pi0(space),
            lambda r: r.class_of == labels_of(space)
            and r.class_count == len(set(labels_of(space))),
        )

    def gamma(i):
        n = rng.randint(1, 4)
        ka, a = _random_space(rng, n)
        kb, b = _random_space(rng, rng.randint(1, 12 // n))
        return Op(
            "gamma", (ka, kb),
            lambda: mvalg.gamma_compare(a, b),
            lambda r: r.is_bijective and r.is_homeomorphism,
        )

    def rank1(i):
        # one denominator per stratum of [40, 200), so the pool spans the range
        q = rng.randrange(40 + 160 * i // 12, 40 + 160 * (i + 1) // 12)
        p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
        x = Fraction(p, q)
        expected = {(Fraction(j, q),) for j in range(q + 1)}
        return Op(
            "rank1", (p, q),
            lambda: mvalg.order_rank(full, x),
            lambda r: r.rank == 1 and r.chain_orders == (q,) and set(r.subalgebra.elements) == expected,
        )

    def rank2(i):
        q = (rng.randint(5, 9), rng.randint(5, 9))
        p = tuple(rng.randint(1, m - 1) for m in q)
        x = tuple(Fraction(a, m) for a, m in zip(p, q))
        envelope = tuple(Fraction(a, m).denominator for a, m in zip(p, q))
        gen = tuple(int(c * m) for c, m in zip(x, envelope))
        expected = {
            tuple(Fraction(a, m) for a, m in zip(e, envelope))
            for e in closure_numerators(envelope, gen)
        }

        def ok(r):
            return (
                set(r.subalgebra.elements) == expected
                and r.rank == len(r.chain_orders)
                and prod(d + 1 for d in r.chain_orders) == len(expected)
            )

        return Op("rank2", x, lambda: mvalg.order_rank([full, full], x), ok)

    def witness(i):
        k = (4, 4, 4, 4, 3, 2)[i]
        orders = tuple(rng.randint(1, 8) for _ in range(k))
        A = mvalg.FiniteMV(orders)
        return Op(
            "witness", orders,
            lambda: mvalg.separability_witness(A),
            lambda r: r.witness == diagonal_indicator(k) and r.split is not None,
        )

    def topologies(i):
        n = (3, 4, 5)[i]

        def run():
            with span("topology.iter_topologies"):
                spaces = list(topology.iter_topologies(n))
            return [(s, mvalg.pi0(s).class_of) for s in spaces]

        def ok(r):
            if len(r) != TOPOLOGY_COUNTS[n]:
                return False
            # brute force for up to 4 points; a seeded sample at 5
            sample = r if n <= 4 else random.Random(n).sample(r, 20)
            return all(labels == labels_of(s) for s, labels in sample)

        return Op("topologies", n, run, ok)

    makers = {
        "term": term, "coproduct": coproduct, "homs": homs, "skeleton": skeleton,
        "chinese": chinese, "pi0": pi0, "gamma": gamma, "rank1": rank1,
        "rank2": rank2, "witness": witness, "topologies": topologies,
    }
    ops = []
    for cls, (pool, uses) in QUERY_MIX.items():
        for op in pooled(makers[cls], pool):
            ops.extend([op] * uses)
    rng.shuffle(ops)
    return ops


# -- cli-process --------------------------------------------------------------------

# class -> requests per repetition
CLI_MIX = {
    "eval": 8, "decompose": 6, "pierce": 6, "coproduct": 8, "separable": 6,
    "separable4": 6, "subterminal": 6, "spec": 6, "rank": 8, "pi0": 8,
    "gamma": 6, "malformed": 6,
}

MALFORMED = (
    ["decompose", "--alg", '{"finite": [0]}'],
    ["pierce", "--alg", '{"finite": [2,'],
    ["eval", "--alg", '{"finite": [2]}', "--term", "x + "],
    ["spec", "--alg", '{"finite": [2, 3]}', "--elem", '["1/3", "1/3"]'],
    ["pi0", "--space", '{"points": 2, "opens": [[0]]}'],
    ["rank", "--alg", '{"rational": {"kind": "chain", "n": 4}}', "--elem", '"1/3"'],
    ["coproduct", "--alg", '{"finite": [2]}'],
    ["gamma", "--alg", '{"rational": {"kind": "chain", "n": 3}}'],
)


@dataclass
class Request:
    cls: str
    argv: list[str]
    check: Callable[[int, str], bool]  # (exit code, stdout) -> ok


def _fr(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _finite(orders) -> str:
    return json.dumps({"finite": list(orders)})


def _json_ok(test):
    def check(code, out):
        if code != 0:
            return False
        try:
            return bool(test(json.loads(out)))
        except (ValueError, KeyError, TypeError):
            return False

    return check


def cli_requests(seed: int, rep: int) -> list[Request]:
    rng = rep_rng("cli-process", seed, rep)
    labels: dict = {}

    def eval_():
        orders = _random_orders(rng, 3, 6)
        env = {v: random_element(rng, orders) for v in "xyz"}
        text, value = random_term(rng, orders, env, rng.randint(1, 4))
        env_json = json.dumps({v: [_fr(c) for c in x] for v, x in env.items()})
        argv = ["eval", "--alg", _finite(orders), "--term", text, "--env", env_json]
        return argv, _json_ok(lambda p: p["value"] == [_fr(c) for c in value])

    def decompose():
        orders = _random_orders(rng, 4, 12)
        return ["decompose", "--alg", _finite(orders)], _json_ok(
            lambda p: p["factors"] == [{"finite": [m]} for m in orders]
            and p["indecomposable"] == (len(orders) == 1)
        )

    def pierce():
        orders = _random_orders(rng, 4, 12)
        k = len(orders)
        elems = sorted(iproduct((ZERO, ONE), repeat=k))
        return ["pierce", "--alg", _finite(orders)], _json_ok(
            lambda p: p["atoms"] == k and p["size"] == 2 ** k
            and p["elements"] == [[_fr(c) for c in e] for e in elems]
        )

    def coproduct():
        a, b = _random_orders(rng, 3, 12), _random_orders(rng, 3, 12)
        return ["coproduct", "--alg", _finite(a), "--alg", _finite(b)], _json_ok(
            lambda p: p["algebra"] == {"finite": list(lcm_grid(a, b))}
        )

    def separable(k_max=3, k_min=1):
        orders = _random_orders(rng, k_max, 8, k_min=k_min)
        k = len(orders)
        return ["separable", "--alg", _finite(orders)], _json_ok(
            lambda p: p["separable"] is True
            and p["factors"] == [{"rational": {"kind": "chain", "n": m}} for m in orders]
            and p["witness"] == [_fr(c) for c in diagonal_indicator(k)]
        )

    def subterminal():
        orders = _random_orders(rng, 3, 12)
        return ["subterminal", "--alg", _finite(orders)], _json_ok(
            lambda p: p["subterminal"] == (len(orders) == 1)
        )

    def spec():
        orders = _random_orders(rng, 4, 8)
        x = random_element(rng, orders)
        zeros = [i for i, c in enumerate(x) if c == 0]
        argv = ["spec", "--alg", _finite(orders), "--elem", json.dumps([_fr(c) for c in x])]
        return argv, _json_ok(
            lambda p: p["points"] == list(range(len(orders)))
            and p["vanishing_locus"] == zeros
            and p["support"] == [i for i in range(len(orders)) if i not in zeros]
            and p["boolean"] == all(c in (ZERO, ONE) for c in x)
            and p["simple"] == (len(orders) == 1)
        )

    def rank():
        q = rng.randint(20, 120)
        p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
        alg = {"rational": {"kind": "chain", "n": q * rng.randint(1, 3)}}
        return ["rank", "--alg", json.dumps(alg), "--elem", json.dumps(f"{p}/{q}")], _json_ok(
            lambda r: r["rank"] == 1 and r["factors"] == [q] and r["subalgebra_size"] == q + 1
        )

    def pi0():
        from mvalg.oracles import components_bruteforce

        _, space = _random_space(rng, rng.randint(1, 4))

        def test(p):
            if space not in labels:
                labels[space] = components_bruteforce(space)
            lab = labels[space]
            return p["class_of"] == list(lab) and p["classes"] == len(set(lab))

        return ["pi0", "--space", json.dumps(space_json(space))], _json_ok(test)

    def gamma():
        unit = _random_orders(rng, 4, 12)
        if rng.random() < 0.5:
            alg = {"simplicial": {"rank": len(unit), "unit": list(unit)}}
            return ["gamma", "--alg", json.dumps(alg)], _json_ok(
                lambda p: p["algebra"] == {"finite": list(unit)} and p["round_trip"] is True
            )
        return ["gamma", "--alg", _finite(unit)], _json_ok(
            lambda p: p["group"] == {"simplicial": {"rank": len(unit), "unit": list(unit)}}
            and p["round_trip"] is True
        )

    malformed_cycle = iter(rng.sample(MALFORMED, len(MALFORMED)))

    def malformed():
        return list(next(malformed_cycle)), lambda code, out: code == 2 and out == ""

    makers = {
        "eval": eval_, "decompose": decompose, "pierce": pierce, "coproduct": coproduct,
        "separable": separable, "separable4": lambda: separable(4, 4),
        "subterminal": subterminal, "spec": spec, "rank": rank, "pi0": pi0,
        "gamma": gamma, "malformed": malformed,
    }
    requests = []
    for cls, count in CLI_MIX.items():
        for _ in range(count):
            argv, check = makers[cls]()
            requests.append(Request(cls, argv, check))
    rng.shuffle(requests)
    return requests
