"""Exhaustive verification suites behind ``mvalg verify`` and the acceptance
tests.

Each criterion sweeps a finite catalog and checks a structural property
against an independent reference computation.  A suite is a function
``(size, seed) -> (summary, stats)`` that raises ``Violation`` at its first
counterexample; ``run_criterion`` is the one place that times a suite and
turns its outcome into a ``CriterionReport``.  ``size`` rescales the primary
sweep bound and must lie in ``minimum..maximum`` from ``CRITERIA`` (the
defaults there are the ones the acceptance tests pin); ``seed`` only affects
criteria that sample an otherwise impractical catalog, and the default makes
every run reproducible bit for bit.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction
from itertools import product as iproduct
from math import gcd, lcm

from .algebras import (
    FiniteMV,
    ProductSplit,
    _is_boolean,
    _meet,
    enumerate_homs,
    product_split,
)
from .coproducts import (
    coproduct_finite,
    coproduct_rational,
    is_separable,
    is_subterminal_epic,
    separability_witness,
)
from .lgroups import gamma, product_unital, xi
from .oracles import (
    brute_force_hom_graphs,
    closure,
    components_bruteforce,
    hom_graph,
    iter_finite_algebras,
    quasi_components_bruteforce,
    quotient_bruteforce,
)
from .pierce import (
    _is_boolean_via_primes,
    boolean_skeleton,
    chi,
    decompose,
    holder_embed,
    phi,
)
from .rationals import INF, RationalAlgebra
from .records import Record
from .terms import generated_subalgebra, order_rank
from .topology import (
    components,
    gamma_compare,
    iter_topologies,
    parse_space_json,
    pi0,
    space_to_json,
)

# separability checks its witness split for bijectivity by exhaustion up to
# this carrier size of A+A; the byte map takes one byte a code, so the bound
# limits the time of the check, not its memory
EXHAUSTIVE_SPLIT_BOUND = 20000
SAMPLED_PAIR_DRAWS = 24  # pi0-products draws this many product pairs from its seed
SAMPLED_PRODUCT_POINTS = 20  # from the partners whose product with a size-point space is this small
# coproduct-universal truncates each rational algebra to the chain of the
# lcm of its denominators that divide this number (2^3 * 3^2 * 5)
RATIONAL_TRUNCATION = 360


class Violation(Exception):
    """A counterexample found by a suite; its message is the FAIL summary."""


class CriterionReport(Record):
    __slots__ = ("name", "passed", "summary", "stats", "elapsed")

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.name}: {self.summary} ({self.elapsed:.1f}s)"


# -- 1: hom enumeration against the function-table search ------------------------


def check_hom_oracle(size: int, seed: int) -> tuple[str, dict]:
    """Dual-map hom enumeration equals brute-force function search for all
    pairs of algebras with carrier size <= ``size``."""
    catalog = list(iter_finite_algebras(max_size=size))
    pairs = homs = 0
    for a in catalog:
        for b in catalog:
            expected = brute_force_hom_graphs(a, b)
            got = {hom_graph(h) for h in enumerate_homs(a, b)}
            if got != expected:
                raise Violation(f"mismatch for {a} -> {b}: {len(got)} enumerated vs {len(expected)} brute force")
            pairs += 1
            homs += len(got)
    summary = f"{pairs} algebra pairs (|A|,|B| <= {size}), {homs} homs, enumeration = function search"
    return summary, {"pairs": pairs, "homs": homs, "algebras": len(catalog)}


# -- 2: coproduct universal property ---------------------------------------------


def check_coproduct_universal(size: int, seed: int) -> tuple[str, dict]:
    """Precomposition with (in0, in1) is a bijection
    Hom(A+B, C) -> Hom(A, C) x Hom(B, C) over the stated sweep; then the
    rational join is checked against it (``_check_rational_joins``)."""
    summands = list(iter_finite_algebras(max_components=2, max_order=size))
    targets = list(iter_finite_algebras(max_components=2, max_order=2 * size))
    # maps[i][t]: the component maps of Hom(summands[i], targets[t])
    maps = [[[f.component_map for f in enumerate_homs(a, c)] for c in targets] for a in summands]
    triples = 0
    for a, maps_a in zip(summands, maps):
        for b, maps_b in zip(summands, maps):
            cop = coproduct_finite(a, b)
            for c, from_a, from_b in zip(targets, maps_a, maps_b):
                pairs = set()
                for h in enumerate_homs(cop.algebra, c):
                    key = (
                        h.compose(cop.in0).component_map,
                        h.compose(cop.in1).component_map,
                    )
                    if key in pairs:
                        raise Violation(f"pairing not injective for {a}+{b} -> {c}")
                    pairs.add(key)
                if pairs != set(iproduct(from_a, from_b)):
                    raise Violation(f"pairing not surjective for {a}+{b} -> {c}")
                triples += 1
    summary = f"{triples} triples (summands orders <= {size}, targets <= {2 * size}), pairing bijective"
    return summary, {"triples": triples, "rational_joins": _check_rational_joins(size)}


def _check_rational_joins(size: int) -> int:
    """The rational join against the finite layer, from membership alone.
    For chain orders m, n <= size, chain(m) + chain(n) is the Holder
    embedding of L_m + L_n.  Over the 64 cap tables on {2, 3, 5} with caps
    0, 1, 2 or INF, the chains of order <= 4 * size and the whole interval,
    truncation commutes with the join: trunc(R + S) = trunc(R) + trunc(S),
    where trunc(R) is the chain of order lcm{e | RATIONAL_TRUNCATION : 1/e in R}.
    Returns the number of joins checked."""
    for m in range(1, size + 1):
        for n in range(1, size + 1):
            joined = coproduct_rational(RationalAlgebra.chain(m), RationalAlgebra.chain(n))
            if holder_embed(coproduct_finite(FiniteMV([m]), FiniteMV([n])).algebra) != joined:
                raise Violation(f"chain({m}) + chain({n}) is {joined}, not the embedded finite coproduct")
    unit_fractions = [(e, Fraction(1, e)) for e in range(1, RATIONAL_TRUNCATION + 1) if RATIONAL_TRUNCATION % e == 0]
    truncations = {}  # each algebra met, by its record: contains reads nothing else

    def trunc(r: RationalAlgebra) -> RationalAlgebra:
        t = truncations.get(r)
        if t is None:
            t = truncations[r] = RationalAlgebra.chain(lcm(*[e for e, x in unit_fractions if r.contains(x)]))
        return t

    catalog = [
        *(RationalAlgebra.supernatural(dict(zip((2, 3, 5), caps))) for caps in iproduct((0, 1, 2, INF), repeat=3)),
        *(RationalAlgebra.chain(m) for m in range(1, 4 * size + 1)),
        RationalAlgebra.full(),
    ]
    truncated = [(r, trunc(r)) for r in catalog]
    for r, tr in truncated:
        for s, ts in truncated:
            if trunc(coproduct_rational(r, s)) != coproduct_rational(tr, ts):
                raise Violation(f"truncation at {RATIONAL_TRUNCATION} does not commute with {r} + {s}")
    return size * size + len(catalog) ** 2


# -- 3: Boolean part of coproducts -------------------------------------------------


def check_pierce_coproducts(size: int, seed: int) -> tuple[str, dict]:
    """The Boolean part of A+B is the Boolean coproduct of the parts: the
    canonical map sends the atom pair (i, j) to in0(atom_i) /\\ in1(atom_j),
    and those k_A * k_B meets are distinct and are the atoms of P(A+B)."""
    catalog = list(iter_finite_algebras(max_components=3, max_order=size))
    pairs = 0
    for a in catalog:
        for b in catalog:
            cop = coproduct_finite(a, b)
            expected = a.num_components * b.num_components
            meets = {
                _meet(cop.in0(a.atom(i)), cop.in1(b.atom(j)))
                for i in range(a.num_components)
                for j in range(b.num_components)
            }
            atoms = set(boolean_skeleton(cop.algebra).atoms())
            if len(meets) != expected or meets != atoms:
                raise Violation(
                    f"failed for {a}, {b}: P({list(a.orders)}+{list(b.orders)}) has {len(atoms)} atoms; "
                    f"Boolean coproduct has {expected}"
                )
            pairs += 1
    summary = f"{pairs} pairs (<= 3 components, orders <= {size}), atom counts multiply"
    return summary, {"pairs": pairs}


# -- 4: separability structure -----------------------------------------------------


def check_separability(size: int, seed: int) -> tuple[str, dict]:
    """The witness and chain decomposition agree: every algebra in the sweep
    gets a Boolean complement of the codiagonal kernel whose split is a
    product decomposition, and the closed-form factors of ``is_separable``
    are, in order, the rational embeddings of the factors of ``decompose``.
    Up to EXHAUSTIVE_SPLIT_BOUND the split is checked to be a bijection
    A+A -> part0 x part1 by exhaustion: each part's codes are indexed once,
    and every code c of A+A marks the cell (index of q0 c, index of q1 c) of
    a byte map with one byte per cell of part0 x part1.  A repeated cell, an
    image outside its part, or a cell count other than |A+A| is a Violation."""
    catalog = list(iter_finite_algebras(max_components=3, max_order=size))
    checked = 0
    for a in catalog:
        cert = separability_witness(a)
        if not cert.separable:
            raise Violation(f"no witness for {a}: {cert.refutation}")
        split = cert.split
        kept0 = sorted(split.q0.component_map)
        kept1 = sorted(split.q1.component_map)
        k = cert.coproduct.algebra.num_components
        if sorted(kept0 + kept1) != list(range(k)):
            raise Violation(f"witness split of {a} is not complementary")
        if split.part1.orders != a.orders:
            raise Violation(f"codiagonal leg of {a} is not the algebra itself")
        if cert.coproduct.algebra.size <= EXHAUSTIVE_SPLIT_BOUND and not _split_is_bijective(split):
            raise Violation(f"witness split of {a} is not bijective")
        result = is_separable(a)
        if not result.separable or result.factors != tuple(holder_embed(f) for f in decompose(a).factors):
            raise Violation(f"decomposition route disagrees for {a}")
        checked += 1
    summary = f"{checked} algebras (<= 3 components, orders <= {size}): witness and decomposition agree"
    return summary, {"algebras": checked}


def _split_is_bijective(split: ProductSplit) -> bool:
    """c -> (q0 c, q1 c) is a bijection from the ambient algebra onto
    part0 x part1, decided on a byte map of the pairs' cells."""
    index0 = {k: i for i, k in enumerate(split.part0._codes())}
    index1 = {k: i for i, k in enumerate(split.part1._codes())}
    width = len(index1)
    hit = bytearray(len(index0) * width)
    if len(hit) != split.ambient.size:
        return False
    q0, q1 = split.q0._code_action(), split.q1._code_action()
    for c in split.ambient._codes():
        i0, i1 = index0.get(q0(c)), index1.get(q1(c))
        if i0 is None or i1 is None:  # an image outside its part
            return False
        cell = i0 * width + i1
        if hit[cell]:  # a repeated image
            return False
        hit[cell] = 1
    return True


# -- 5: subterminality = single chain ----------------------------------------------


def check_subterminal(size: int, seed: int) -> tuple[str, dict]:
    """is_subterminal_epic agrees with its definition: A is nontrivial and in0 = in1."""
    catalog = list(iter_finite_algebras(max_components=3, max_order=size))
    for a in catalog:
        cop = coproduct_finite(a, a)
        if is_subterminal_epic(a) != (not a.is_terminal and cop.in0 == cop.in1):
            raise Violation(f"misclassified {a}")
    summary = f"{len(catalog)} algebras (<= 3 components, orders <= {size}): epic-injections = single chain"
    return summary, {"algebras": len(catalog)}


# -- 6: vanishing-locus isomorphism and the prime criterion -------------------------


def check_vanishing_locus(size: int, seed: int) -> tuple[str, dict]:
    """phi and chi are mutually inverse (component sweeps up to ``size``
    components), and the prime-residue Boolean criterion matches the
    equational one for every element of every algebra with carrier at most
    25 * ``size`` (200 at the default size)."""
    sweep = list(iter_finite_algebras(max_components=size, max_order=2))
    sweep += list(iter_finite_algebras(max_components=min(size, 4), max_order=3))
    sweep += [FiniteMV([5, 7, 9]), FiniteMV([2, 3, 4, 5, 6])]
    pairs = 0
    for a in sweep:
        k = a.num_components
        for picks in iproduct((False, True), repeat=k):
            x0 = frozenset(i for i in range(k) if picks[i])
            if phi(a, chi(a, x0)) != x0:
                raise Violation(f"phi(chi({sorted(x0)})) != id on {a}")
            pairs += 1
        for b_elem in boolean_skeleton(a).elements():
            if chi(a, phi(a, b_elem)) != b_elem:
                raise Violation(f"chi(phi(b)) != id on {a}")
    elements = 0
    carrier = 25 * size
    for a in iter_finite_algebras(max_size=carrier):
        orders = a.orders
        for k in a._codes():
            if _is_boolean_via_primes(orders, k) != _is_boolean(orders, k):
                raise Violation(f"prime criterion disagrees on {a._element(k)} in {a}")
            elements += 1
    summary = f"phi/chi inverse on {pairs} clopens (<= {size} components); prime criterion on {elements} elements (|A| <= {carrier})"
    return summary, {"clopens": pairs, "elements": elements}


# -- 7: product splitting -----------------------------------------------------------


REPRESENTATIVE_PAIR_BOUND = 36  # full A x A representative sweep up to this carrier size


def check_product_split(size: int, seed: int) -> tuple[str, dict]:
    """For every Boolean x, the pairing (q0, q1) is a bijection and combine
    is a section of it.  Injectivity and the section property over the full
    quotient product are exhaustive for every algebra in the sweep; that
    combine ignores the choice of representatives is additionally exhausted
    over all A x A pairs on carriers up to REPRESENTATIVE_PAIR_BOUND.  The
    sweep runs on codes: each listed element is validated once into its
    code, and the parts' carriers are listed as codes."""

    def lift(algebra: FiniteMV, kept: tuple[int, ...], y) -> tuple:
        coords = [0] * algebra.num_components
        for pos, i in enumerate(kept):
            coords[i] = y[pos]
        return tuple(coords)

    algebras = booleans = 0
    for a in iter_finite_algebras(max_size=size):
        algebras += 1
        codes = [a._code(e) for e in a.elements()]  # the one validation of each element
        for x in boolean_skeleton(a).elements():
            split = product_split(a, x)
            if len(split.part0.orders) + len(split.part1.orders) != a.num_components:
                raise Violation(f"split of {a} at {x} not complementary")
            q0, q1 = split.q0._code_action(), split.q1._code_action()
            paired = [(q0(k), q1(k)) for k in codes]
            if len(set(paired)) != len(codes):
                raise Violation(f"pairing not injective for x={x} in {a}")
            lifts1 = [(y1, lift(a, split.q1.component_map, y1)) for y1 in split.part1._codes()]
            for y0 in split.part0._codes():
                l0 = lift(a, split.q0.component_map, y0)
                for y1, l1 in lifts1:
                    c = split._combine(l0, l1)
                    if not a._has_code(c):
                        raise Violation(f"combine left the algebra for x={x} in {a}")
                    if q0(c) != y0 or q1(c) != y1:
                        raise Violation(f"combine not a section for x={x} in {a}")
            if len(codes) <= REPRESENTATIVE_PAIR_BOUND:
                for (c0, (y0, _)), (c1, (_, y1)) in iproduct(zip(codes, paired), repeat=2):
                    c = split._combine(c0, c1)
                    if not a._has_code(c):
                        raise Violation(f"combine left the algebra for x={x} in {a}")
                    if q0(c) != y0 or q1(c) != y1:
                        raise Violation(f"combine depends on representatives for x={x} in {a}")
            booleans += 1
    summary = f"{booleans} Boolean splits over {algebras} algebras (|A| <= {size}): bijective, combine a section"
    return summary, {"algebras": algebras, "splits": booleans}


# -- 8: pi0 and products -------------------------------------------------------------


def check_pi0_products(size: int, seed: int) -> tuple[str, dict]:
    """The listed opens parse back to the space, components = quasi-components
    (the fibres of the clopen-membership map E, from the oracle's clopen
    scan) = brute force, pi0 labels the points by their components and
    carries the quotient topology of the oracle scan (n <= 5 exhaustively),
    and the product comparison gamma is a homeomorphism (exhaustive pairs up
    to 3 points, whose products' pi0 is also checked against the quotient
    scan; seeded sample at ``size`` points).  Equal E-fibres are equal clopen intersections, so the
    comparison of pi0 with the image of E is bijective exactly when the
    components are the quasi-components."""
    spaces_checked = 0
    for n in range(6):
        for space in iter_topologies(n):
            if parse_space_json(space_to_json(space)) != space:
                raise Violation(f"the opens of {space} do not parse back to it")
            comp = components(space)
            if comp != quasi_components_bruteforce(space):
                raise Violation(f"components != quasi-components on {space}")
            if n <= 4 and comp != components_bruteforce(space):
                raise Violation(f"components disagree with brute force on {space}")
            p = pi0(space)
            if p.class_of != comp:
                raise Violation(f"pi0 classes != components on {space}")
            if p.space != quotient_bruteforce(space, comp):
                raise Violation(f"pi0 is not the quotient topology on {space}")
            spaces_checked += 1
    small = [s for n in range(4) for s in iter_topologies(n)]
    pairs = 0
    for a in small:
        for b in small:
            report = gamma_compare(a, b)
            if not report.is_homeomorphism:
                raise Violation(f"gamma not a homeomorphism for {a} x {b}")
            if report.left.space != quotient_bruteforce(report.product, report.left.class_of):
                raise Violation(f"pi0 is not the quotient topology on {a} x {b}")
            pairs += 1
    rng = random.Random(seed)
    four = list(iter_topologies(size))
    partners = [b for b in small + four[:40] if size * b.points <= SAMPLED_PRODUCT_POINTS]
    sampled = 0
    for _ in range(SAMPLED_PAIR_DRAWS):
        a = rng.choice(four)
        b = rng.choice(partners)
        if not gamma_compare(a, b).is_homeomorphism:
            raise Violation(f"gamma not a homeomorphism for {a} x {b}")
        sampled += 1
    summary = f"{spaces_checked} spaces (n <= 5) for components/E-map; gamma on {pairs} exhaustive + {sampled} sampled pairs"
    return summary, {"spaces": spaces_checked, "pairs": pairs, "sampled": sampled}


# -- 9: order-rank ---------------------------------------------------------------------


def check_order_rank(size: int, seed: int) -> tuple[str, dict]:
    """Every rational p/q generates the full chain of order q (rank 1), the
    closed form of Sa(x) equals the round-based closure for every element of
    the catalog, and homs preserve generation and finite order-rank."""
    full = RationalAlgebra.full()
    singles = 0
    for q in range(1, size + 1):
        for p in range(q + 1):
            if gcd(p, q) != 1:
                continue
            r = order_rank(full, Fraction(p, q))
            expected = {(Fraction(k, q),) for k in range(q + 1)}
            if r.rank != 1 or set(r.subalgebra.elements) != expected or r.chain_orders != (q,):
                raise Violation(f"Sa({p}/{q}) is not the chain of order {q}")
            singles += 1
    checked = 0
    catalog = list(iter_finite_algebras(max_components=2, max_order=4))
    for a in catalog:
        elems = list(a.elements())
        for x in elems:
            if generated_subalgebra(a, [x]).elements != closure(a, [x]):
                raise Violation(f"closed form of Sa({x}) in {a} differs from the closure")
        for b in catalog:
            for h in enumerate_homs(a, b):
                for x in elems:
                    image_sub = generated_subalgebra(b, [h(x)])
                    pushed = frozenset(h(s) for s in generated_subalgebra(a, [x]).elements)
                    if pushed != image_sub.elements:
                        raise Violation(f"h[Sa(x)] != Sa(h x) for {h}, x={x}")
                    order_rank(b, h(x))  # must be defined
                    checked += 1
    summary = f"rank-1 chains for all p/q with q <= {size} ({singles} cases); generation preserved along {checked} hom evaluations"
    return summary, {"rank_one": singles, "hom_evaluations": checked}


# -- 10: simplicial round trip -----------------------------------------------------------


def check_simplicial_roundtrip(size: int, seed: int) -> tuple[str, dict]:
    catalog = list(iter_finite_algebras(max_components=4, max_order=size))
    for a in catalog:
        if gamma(xi(a)) != a:
            raise Violation(f"gamma(xi({a})) != {a}")
    groups = [xi(a) for a in catalog if a.num_components <= 2]
    for g in groups:
        if xi(gamma(g)) != g:
            raise Violation(f"xi(gamma({g})) != {g}")
        for h in groups:
            left = gamma(product_unital(g, h))
            right = FiniteMV(gamma(g).orders + gamma(h).orders)
            if left != right:
                raise Violation(f"gamma does not commute with {g} x {h}")
    summary = f"{len(catalog)} algebras (<= 4 components, orders <= {size}): round trips and products commute"
    return summary, {"algebras": len(catalog)}


# name -> (suite, minimum size, default size, maximum size).  The defaults are
# the bounds the acceptance tests pin; a run at the maximum takes at most about
# ten seconds (measured on 2 vCPUs, Python 3.11), one size more takes longer.
# hom-oracle and product-split sweep carriers of at most ``size`` elements, and
# below 2 that is the one-element algebra alone, so their minimum is 2.
CRITERIA = {
    "hom-oracle": (check_hom_oracle, 2, 30, 47),
    "coproduct-universal": (check_coproduct_universal, 1, 6, 12),
    "pierce-coproducts": (check_pierce_coproducts, 1, 4, 9),
    "separability": (check_separability, 1, 4, 48),
    "subterminal": (check_subterminal, 1, 8, 150),
    "vanishing-locus": (check_vanishing_locus, 1, 8, 12),
    "product-split": (check_product_split, 2, 100, 250),
    "pi0-products": (check_pi0_products, 1, 4, 6),  # 6 points have 209,527 topologies to list, 7 have 9,535,241
    "order-rank": (check_order_rank, 1, 24, 240),
    "simplicial-roundtrip": (check_simplicial_roundtrip, 1, 6, 60),
}


def suite_size(name: str, size: int | None) -> int:
    """The size suite ``name`` runs at: its default for None.  Raises
    ValueError for an unknown name or a size outside ``minimum..maximum``."""
    if name not in CRITERIA:
        raise ValueError(f"unknown criterion {name!r}; known: {', '.join(CRITERIA)}")
    _, minimum, default, maximum = CRITERIA[name]
    if size is None:
        return default
    if not minimum <= size <= maximum:
        raise ValueError(f"size {size} is outside {minimum}..{maximum} for {name}")
    return size


def run_criterion(name: str, size: int | None = None, seed: int = 0) -> CriterionReport:
    """Run one suite after checking its size (see ``suite_size``).  A
    ``Violation`` becomes a FAIL report with its message; any other exception
    the suite raises is a defect it found in the code under test, so it
    becomes a FAIL report naming the exception and where it was raised."""
    size = suite_size(name, size)
    suite = CRITERIA[name][0]
    start = time.perf_counter()
    try:
        summary, stats = suite(size, seed)
        passed = True
    except Violation as exc:
        summary, stats, passed = str(exc), {}, False
    except Exception as exc:
        import traceback

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        summary, stats, passed = f"{type(exc).__name__} at {where}: {exc}", {}, False
    return CriterionReport(name, passed, summary, stats, time.perf_counter() - start)
