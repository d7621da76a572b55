"""Unital simplicial groups and the unit-interval correspondence."""

import pytest

from mvalg import (
    AlgebraError,
    FiniteMV,
    SimplicialGroup,
    gamma,
    order_rank,
    product_unital,
    xi,
)
from mvalg.oracles import iter_finite_algebras


class TestGamma:
    def test_examples(self):
        assert gamma(SimplicialGroup([2, 3])) == FiniteMV([2, 3])
        assert gamma(SimplicialGroup([1])) == FiniteMV([1])
        assert gamma(SimplicialGroup([])) == FiniteMV([])

    def test_unit_must_be_strictly_positive(self):
        with pytest.raises(AlgebraError):
            SimplicialGroup([2, 0])

    @pytest.mark.parametrize("unit", [[True, 2], [False], [2.0]])
    def test_unit_coordinates_are_integers_not_bools(self, unit):
        with pytest.raises(AlgebraError):
            SimplicialGroup(unit)


class TestXi:
    def test_examples(self):
        assert xi(FiniteMV([2, 3])) == SimplicialGroup([2, 3])
        assert xi(FiniteMV([6])) == SimplicialGroup([6])
        assert xi(FiniteMV([])).rank == 0


class TestRoundTrips:
    def test_both_directions(self):
        for algebra in iter_finite_algebras(max_components=4, max_order=6):
            assert gamma(xi(algebra)) == algebra
        for unit in [(), (1,), (2, 3), (5, 5, 5, 1)]:
            g = SimplicialGroup(unit)
            assert xi(gamma(g)) == g


class TestProducts:
    def test_example(self):
        assert product_unital(SimplicialGroup([2]), SimplicialGroup([3])) == SimplicialGroup([2, 3])

    def test_rank_zero_is_unit(self):
        g = SimplicialGroup([4, 2])
        assert product_unital(g, SimplicialGroup([])) == g

    def test_gamma_commutes_with_products(self):
        for ua, ub in [((2,), (3,)), ((2, 3), (4,)), ((), (5, 5))]:
            g, h = SimplicialGroup(ua), SimplicialGroup(ub)
            assert gamma(product_unital(g, h)) == FiniteMV(gamma(g).orders + gamma(h).orders)


class TestOrderRankLink:
    def test_unit_interval_elements_have_finite_rank(self):
        algebra = gamma(SimplicialGroup([2, 3]))
        for a in algebra.elements():
            r = order_rank(algebra, a)
            assert 1 <= r.rank <= algebra.num_components
