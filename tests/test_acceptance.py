"""Acceptance gate: every verification criterion at its pinned bound.

Each test runs one suite from mvalg.verify at the default (pinned) sweep
sizes, prints a single PASS/FAIL line, pins its PASS summary, and enforces
the stated runtime budgets where one applies.  ``mvalg verify --all`` runs the
same suites.
"""

import tracemalloc

import pytest

from mvalg.verify import CRITERIA, run_criterion

RUNTIME_BUDGETS = {  # seconds; criteria with stated budgets
    "hom-oracle": 120,
    "coproduct-universal": 300,
    "pi0-products": 300,
}


DEFAULT_SUMMARIES = {  # the PASS summary of each suite at its default size
    "hom-oracle": "4900 algebra pairs (|A|,|B| <= 30), 7717 homs, enumeration = function search",
    "coproduct-universal": "71344 triples (summands orders <= 6, targets <= 12), pairing bijective",
    "pierce-coproducts": "1225 pairs (<= 3 components, orders <= 4), atom counts multiply",
    "separability": "35 algebras (<= 3 components, orders <= 4): witness and decomposition agree",
    "subterminal": "165 algebras (<= 3 components, orders <= 8): epic-injections = single chain",
    "vanishing-locus": (
        "phi/chi inverse on 4488 clopens (<= 8 components); prime criterion on 103922 elements (|A| <= 200)"
    ),
    "product-split": "2167 Boolean splits over 358 algebras (|A| <= 100): bijective, combine a section",
    "pi0-products": "7332 spaces (n <= 5) for components/E-map; gamma on 1225 exhaustive + 24 sampled pairs",
    "order-rank": (
        "rank-1 chains for all p/q with q <= 24 (181 cases); generation preserved along 1693 hom evaluations"
    ),
    "simplicial-roundtrip": "210 algebras (<= 4 components, orders <= 6): round trips and products commute",
}


def _run(name):
    report = run_criterion(name, seed=0)
    print(report.line())
    assert report.passed, report.summary
    assert report.summary == DEFAULT_SUMMARIES[name]
    if name in RUNTIME_BUDGETS:
        assert report.elapsed < RUNTIME_BUDGETS[name], (
            f"{name} took {report.elapsed:.1f}s, budget {RUNTIME_BUDGETS[name]}s"
        )
    return report


def test_criterion_01_hom_oracle():
    report = _run("hom-oracle")
    assert report.stats["pairs"] == report.stats["algebras"] ** 2


def test_criterion_02_coproduct_universal_property():
    report = _run("coproduct-universal")
    assert report.stats["triples"] == 28 * 28 * 91  # summands x summands x targets


def test_criterion_03_pierce_preserves_coproducts():
    report = _run("pierce-coproducts")
    assert report.stats["pairs"] == 35 * 35


def test_criterion_04_separability_structure():
    report = _run("separability")
    assert report.stats["algebras"] == 35


def test_separability_checks_its_splits_in_under_a_megabyte():
    # the largest A+A in the sweep, FiniteMV([2, 2, 2]) + itself, has 19,683
    # codes; a byte map of their images takes 19,683 bytes, where a set of
    # the image pairs took over 6 MB
    tracemalloc.start()
    try:
        assert run_criterion("separability").passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"separability peaked at {peak} traced bytes"


def test_criterion_05_subterminal_chains():
    report = _run("subterminal")
    assert report.stats["algebras"] == 165


def test_criterion_06_vanishing_locus_and_prime_criterion():
    report = _run("vanishing-locus")
    assert report.stats["elements"] == 103_922  # every element of every carrier <= 200


def test_vanishing_locus_prime_sweep_scales_with_size():
    from mvalg.oracles import iter_finite_algebras

    report = run_criterion("vanishing-locus", size=2)
    assert report.passed
    assert report.stats["elements"] == sum(a.size for a in iter_finite_algebras(max_size=50))


def test_criterion_07_product_splitting():
    report = _run("product-split")
    assert report.stats["splits"] >= report.stats["algebras"]


def test_criterion_08_pi0_product_preservation():
    report = _run("pi0-products")
    assert report.stats["spaces"] == 1 + 1 + 4 + 29 + 355 + 6942
    assert report.stats["pairs"] == 35 * 35


def test_pi0_products_samples_every_draw_above_the_default_size():
    # the partners are filtered to products of at most SAMPLED_PRODUCT_POINTS
    # points before the draws, so no draw is skipped at 5 points either
    report = run_criterion("pi0-products", size=5)
    assert report.passed and report.stats["sampled"] == 24


def test_criterion_09_order_rank_local_finiteness():
    report = _run("order-rank")
    assert report.stats["rank_one"] == sum(1 for _ in _coprime_pairs(24))


def test_criterion_10_simplicial_round_trip():
    report = _run("simplicial-roundtrip")
    assert report.stats["algebras"] == 210


def test_all_criteria_registered():
    assert list(CRITERIA) == list(DEFAULT_SUMMARIES)


@pytest.mark.parametrize("name", list(CRITERIA))
def test_size_outside_the_table_is_rejected_before_the_suite_runs(name):
    _, minimum, default, maximum = CRITERIA[name]
    assert 1 <= minimum <= default <= maximum
    for size in (minimum - 1, 0, -1, maximum + 1):
        with pytest.raises(ValueError, match=f"outside {minimum}..{maximum} for {name}"):
            run_criterion(name, size=size)


def _coprime_pairs(qmax):
    from math import gcd

    for q in range(1, qmax + 1):
        for p in range(q + 1):
            if gcd(p, q) == 1:
                yield p, q
