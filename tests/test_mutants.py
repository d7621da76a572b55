"""Planted defects: each must make its verification suite report FAIL.

Every row patches the binding that its suite actually reaches with a
plausible wrong variant, runs the suite at a reduced bound, and requires a
FAIL report with the pinned summary from ``run_criterion`` and exit code 1
from ``mvalg verify``.  The topology memos are emptied before each row
patches its binding and after it runs, so each row lists and labels the
finite spaces as a fresh process would, and no row leaves a space its patch
built for a later test.  A summary that reports an exception is matched by a
pattern, so that line numbers in the raising module may move.
"""

import re
from itertools import product as iproduct

import pytest

from mvalg import cli, coproducts, pierce, rationals, terms, topology, verify
from mvalg.coproducts import SeparabilityResult
from mvalg.algebras import ONE, FiniteMV, Hom, ProductSplit, _neg, enumerate_homs
from mvalg.lgroups import SimplicialGroup
from mvalg.rationals import RationalAlgebra


def homs_without_divisibility(source, target):
    """enumerate_homs with its divisibility filter dropped."""
    k_s, k_t = source.num_components, target.num_components
    return [Hom(source, target, cm) for cm in iproduct(range(k_s), repeat=k_t)]


def compose_reading_the_first_component(self, other):
    """Hom.compose building a well-shaped map in which every target component
    reads other's first entry; only the suite, not a constructor, can see it."""
    return Hom._make(other.source, self.target, tuple([other.component_map[0] for _ in self.component_map]))


def columns_tied_with_negation(algebra, gens):
    """Generator columns grouped as if c and 1 - c were the same column."""
    columns = {}
    for i in range(algebra.num_components):
        column = tuple(g[i] for g in gens)
        key = min(column, tuple(ONE - c for c in column))
        columns.setdefault(key, []).append(i)
    return columns


def chi_complemented(algebra, zero_on):
    """chi returning the complement, which turns the separability witness
    into the indicator of the off-diagonal cells."""
    return _neg(pierce.chi(algebra, zero_on))


def homs_missing_one(source, target):
    """enumerate_homs dropping its last hom whenever it finds two or more."""
    homs = enumerate_homs(source, target)
    return homs[:-1] if len(homs) >= 2 else homs


def boolean_ignoring_the_last_prime(orders, k):
    """The prime-residue criterion on a code with the last prime left out."""
    return all(k[i] in (0, orders[i]) for i in range(len(orders) - 1))


def code_action_without_rescale(hom):
    """Hom._code_action copying each numerator unscaled, as if the source and
    target chains had the same order."""
    return lambda k: tuple(k[i] for i in hom.component_map)


def code_action_reading_the_first_kept_component(hom):
    """Hom._code_action in which every target component reads the source
    component the first one reads, rescaled to its own order; a leg of the
    witness split then maps distinct codes of A+A to one image."""
    m = hom.source.orders
    scaled = [(hom.component_map[0], n // m[hom.component_map[0]]) for n in hom.target.orders]
    return lambda k: tuple([k[i] * s for i, s in scaled])


correct_code_action = Hom._code_action  # the unpatched action, saved before any row patches it


def code_action_past_the_top(hom):
    """Hom._code_action sending each top numerator n to n + 1, outside the
    target chain; the images stay distinct, so only a check that they lie
    in the target sees it."""
    act = correct_code_action(hom)
    return lambda k: tuple([j + 1 if j == n else j for j, n in zip(act(k), hom.target.orders)])


def join_keeping_only_the_left_order(self, other):
    """RationalAlgebra.join with the order of other left out; the infinite
    primes of both sides are kept."""
    if self.all_infinite or other.all_infinite:
        return RationalAlgebra.full()
    infinite = tuple(sorted({*self.infinite, *other.infinite}))
    return RationalAlgebra(rationals._divide_out(self.order, infinite), infinite, False)


def subterminal_also_when_trivial(algebra):
    """is_subterminal_epic counting the trivial algebra as a single chain."""
    return algebra.num_components <= 1


def factors_reversed(algebra):
    """is_separable listing the chain factors in reverse order."""
    result = coproducts.is_separable(algebra)
    return SeparabilityResult(result.separable, result.factors[::-1])


def product_unital_swapped(g, h):
    """product_unital concatenating the units in the wrong order."""
    return SimplicialGroup(h.unit + g.unit)


def atoms_without_the_last(skeleton):
    """BooleanSkeleton.atoms dropping its last atom."""
    return [skeleton.ambient.atom(i) for i in range(skeleton.atom_count - 1)]


def has_code_below_the_top(algebra, k):
    """FiniteMV._has_code rejecting the top numerator m of each chain."""
    return len(k) == len(algebra.orders) and all(0 <= j < m for j, m in zip(k, algebra.orders))


def combine_selecting_c0_where_x_is_one(split, c0, c1):
    """_combine with the roles of c0 and c1 swapped."""
    return tuple(a if e == ONE else b for a, b, e in zip(c0, c1, split.element))


@property
def opens_without_the_last_neighbourhood(space):
    """FinSpace.opens generating the unions of all N(x) but the last."""
    opens = {0}
    for nx in space.nbhds[:-1]:
        opens |= {o | nx for o in opens}
    return frozenset(opens)


def product_neighbourhoods_with_a_single_y(a, b):
    """product_space with N((x,y)) = N(x) x {y} instead of N(x) x N(y)."""
    return topology.space_from_min_nbhds(
        [sum(1 << topology.pair_index(xx, y, b.points) for xx in topology.bits(nx))
         for nx in a.nbhds for y in range(b.points)]
    )


def assignments_without_the_upper_bound(n):
    """iter_min_nbhd_assignments checking each N(x) only against the earlier
    points inside it, so N(x) may leave an earlier N(y) that holds x."""

    def rec(prefix):
        x = len(prefix)
        if x == n:
            yield tuple(prefix)
            return
        for cand in range(1 << n):
            if cand >> x & 1 and all(not prefix[y] & ~cand for y in topology.bits(cand) if y < x):
                yield from rec(prefix + [cand])

    yield from rec([])


def components_after_one_round(space):
    """components growing each class for one round over the N(y) only."""
    label = [-1] * space.points
    count = 0
    for x, grown in enumerate(space.nbhds):
        if label[x] < 0:
            for ny in space.nbhds:
                if ny & grown:
                    grown |= ny
            for y in topology.bits(grown):
                label[y] = count
            count += 1
    return tuple(label)


def pi0_classes_by_largest_member(space):
    """pi0 numbering its k classes in reverse, k - 1 - c for class c."""
    result = topology.pi0(space)
    k = result.class_count
    return topology.Pi0Result(result.space, tuple(k - 1 - c for c in result.class_of))


MUTANTS = [  # (module, name, wrong, suite, size, the FAIL summary or a pattern it matches)
    pytest.param(
        coproducts, "lcm", max, "coproduct-universal", 3,
        "pairing not surjective for FiniteMV([1, 2])+FiniteMV([1, 3]) -> FiniteMV([1, 3])",
        id="coproduct-lcm-as-max",
    ),
    pytest.param(
        Hom, "compose", compose_reading_the_first_component, "coproduct-universal", 1,
        "pairing not injective for FiniteMV([1])+FiniteMV([1, 1]) -> FiniteMV([1])",
        id="compose-reading-the-first-component",
    ),
    pytest.param(
        rationals, "lcm", max, "coproduct-universal", 3,
        "chain(2) + chain(3) is RationalAlgebra(chain 3), not the embedded finite coproduct",
        id="rational-join-lcm-as-max",
    ),
    pytest.param(
        RationalAlgebra, "join", join_keeping_only_the_left_order, "coproduct-universal", 1,
        "truncation at 360 does not commute with RationalAlgebra(chain 1) + RationalAlgebra(5^inf)",
        id="rational-join-keeping-only-the-left-order",
    ),
    pytest.param(
        verify, "enumerate_homs", homs_without_divisibility, "hom-oracle", 6,
        re.compile(r"AlgebraError at algebras\.py:\d+ in __init__: order 2 does not divide 1 "
                   r"\(source component 1 -> target component 0\)"),
        id="homs-without-divisibility",
    ),
    pytest.param(
        verify, "enumerate_homs", homs_missing_one, "hom-oracle", 6,
        "mismatch for FiniteMV([1, 1]) -> FiniteMV([1]): 1 enumerated vs 2 brute force",
        id="homs-missing-one",
    ),
    pytest.param(
        terms, "_columns", columns_tied_with_negation, "order-rank", 4,
        "closed form of Sa((Fraction(0, 1), Fraction(1, 1))) in FiniteMV([1, 1]) differs from the closure",
        id="columns-tied-with-negation",
    ),
    pytest.param(
        coproducts, "chi", chi_complemented, "separability", 1,
        "no witness for FiniteMV([1]): the diagonal indicator does not complement the codiagonal kernel",
        id="witness-off-diagonal",
    ),
    pytest.param(
        Hom, "_code_action", code_action_reading_the_first_kept_component, "separability", 1,
        "witness split of FiniteMV([1, 1]) is not bijective",
        id="code-action-reading-the-first-kept-component",
    ),
    pytest.param(
        Hom, "_code_action", code_action_past_the_top, "separability", 1,
        "witness split of FiniteMV([1]) is not bijective",
        id="code-action-past-the-top",
    ),
    pytest.param(
        verify, "is_separable", factors_reversed, "separability", 2,
        "decomposition route disagrees for FiniteMV([1, 1, 2])",
        id="separable-factors-reversed",
    ),
    pytest.param(
        verify, "is_subterminal_epic", subterminal_also_when_trivial, "subterminal", 1,
        "misclassified FiniteMV([])",
        id="subterminal-also-when-trivial",
    ),
    pytest.param(
        verify, "product_unital", product_unital_swapped, "simplicial-roundtrip", 2,
        "gamma does not commute with SimplicialGroup(Z^1, unit=[1]) x SimplicialGroup(Z^2, unit=[1, 2])",
        id="product-unital-swapped",
    ),
    pytest.param(
        ProductSplit, "_combine", combine_selecting_c0_where_x_is_one, "product-split", 6,
        "combine not a section for x=(Fraction(0, 1),) in FiniteMV([1])",
        id="combine-swapped",
    ),
    pytest.param(
        verify, "_is_boolean_via_primes", boolean_ignoring_the_last_prime, "vanishing-locus", 2,
        "prime criterion disagrees on (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), "
        "Fraction(1, 2)) in FiniteMV([1, 1, 1, 1, 2])",
        id="boolean-ignoring-last-prime",
    ),
    pytest.param(
        Hom, "_code_action", code_action_without_rescale, "hom-oracle", 3,
        "mismatch for FiniteMV([1]) -> FiniteMV([2]): 1 enumerated vs 1 brute force",
        id="hom-apply-code-without-rescale",
    ),
    pytest.param(
        pierce.BooleanSkeleton, "atoms", atoms_without_the_last, "pierce-coproducts", 1,
        "failed for FiniteMV([1]), FiniteMV([1]): P([1]+[1]) has 0 atoms; Boolean coproduct has 1",
        id="skeleton-atoms-missing-the-last",
    ),
    pytest.param(
        FiniteMV, "_has_code", has_code_below_the_top, "product-split", 2,
        "combine left the algebra for x=(Fraction(0, 1),) in FiniteMV([1])",
        id="code-membership-without-the-top",
    ),
    pytest.param(
        topology.FinSpace, "opens", opens_without_the_last_neighbourhood, "pi0-products", 4,
        re.compile(r"TopologyError at topology\.py:\d+ in from_sets: "
                   r"opens must contain the empty set and the full set"),
        id="opens-without-last-neighbourhood",
    ),
    pytest.param(
        topology, "product_space", product_neighbourhoods_with_a_single_y, "pi0-products", 4,
        "gamma not a homeomorphism for FinSpace(points=1, nbhds=(1,)) x FinSpace(points=2, nbhds=(1, 3))",
        id="product-neighbourhood-single-y",
    ),
    pytest.param(
        topology, "iter_min_nbhd_assignments", assignments_without_the_upper_bound, "pi0-products", 4,
        re.compile(r"TopologyError at topology\.py:\d+ in from_sets: "
                   r"opens not closed under union/intersection"),
        id="catalog-without-the-upper-bound",
    ),
    pytest.param(
        verify, "components", components_after_one_round, "pi0-products", 4,
        "components != quasi-components on FinSpace(points=4, nbhds=(1, 2, 6, 11))",
        id="components-after-one-round",
    ),
    pytest.param(
        verify, "pi0", pi0_classes_by_largest_member, "pi0-products", 4,
        "pi0 classes != components on FinSpace(points=2, nbhds=(1, 2))",
        id="pi0-classes-by-largest-member",
    ),
]


UNPATCHED = sorted({row.values[3:5] for row in MUTANTS})  # each (suite, size) a row runs at


@pytest.mark.parametrize("suite, size", UNPATCHED)
def test_suite_passes_unpatched_at_the_reduced_bound(suite, size):
    assert verify.run_criterion(suite, size=size).passed


@pytest.fixture
def fresh_topology_memos():
    topology.clear_memos()
    yield
    topology.clear_memos()


@pytest.mark.parametrize("module, name, wrong, suite, size, summary", MUTANTS)
def test_mutant_fails_its_suite(fresh_topology_memos, monkeypatch, capsys, module, name, wrong, suite, size, summary):
    monkeypatch.setattr(module, name, wrong)
    report = verify.run_criterion(suite, size=size)
    assert report.passed is False, report.summary
    if isinstance(summary, re.Pattern):
        assert summary.fullmatch(report.summary), report.summary
    else:
        assert report.summary == summary
    assert cli.main(["verify", suite, "--max-size", str(size)]) == 1
    capsys.readouterr()
