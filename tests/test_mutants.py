"""Planted defects: each must make its verification suite report FAIL.

Every row patches the binding that its suite actually reaches with a
plausible wrong variant, runs the suite at a reduced bound, and requires a
FAIL report from ``run_criterion`` and exit code 1 from ``mvalg verify``.
"""

from itertools import product as iproduct

import pytest

from mvalg import cli, coproducts, pierce, terms, verify
from mvalg.algebras import ONE, Hom, _neg


def homs_without_divisibility(source, target):
    """enumerate_homs with its divisibility filter dropped."""
    k_s, k_t = source.num_components, target.num_components
    return [Hom(source, target, cm) for cm in iproduct(range(k_s), repeat=k_t)]


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


MUTANTS = [
    pytest.param(coproducts, "lcm", max, "coproduct-universal", 3, id="coproduct-lcm-as-max"),
    pytest.param(
        verify, "enumerate_homs", homs_without_divisibility, "hom-oracle", 6, id="homs-without-divisibility"
    ),
    pytest.param(terms, "_columns", columns_tied_with_negation, "order-rank", 4, id="columns-tied-with-negation"),
    pytest.param(coproducts, "chi", chi_complemented, "separability", 1, id="witness-off-diagonal"),
]


@pytest.mark.parametrize("module, name, wrong, suite, size", MUTANTS)
def test_suite_passes_unpatched_at_the_reduced_bound(module, name, wrong, suite, size):
    assert verify.run_criterion(suite, size=size).passed


@pytest.mark.parametrize("module, name, wrong, suite, size", MUTANTS)
def test_mutant_fails_its_suite(monkeypatch, capsys, module, name, wrong, suite, size):
    monkeypatch.setattr(module, name, wrong)
    report = verify.run_criterion(suite, size=size)
    assert report.passed is False, report.summary
    assert cli.main(["verify", suite, "--max-size", str(size)]) == 1
    capsys.readouterr()
