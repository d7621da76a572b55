"""Unital simplicial groups and their unit-interval algebras.

A unital simplicial group is Z^r with the coordinatewise order and a
strictly positive unit; its unit interval {x : 0 <= x <= 1}, with truncated
addition and 1 - x, is the finite product of chains whose orders are the
unit's coordinates.  The two directions are mutually inverse on canonical
forms, and the correspondence turns Cartesian products into products of
algebras.
"""

from __future__ import annotations

from typing import Iterable

from .algebras import AlgebraError, FiniteMV
from .records import Record


class SimplicialGroup(Record):
    __slots__ = ("unit",)
    unit: tuple[int, ...]

    def __init__(self, unit: Iterable[int]):
        unit = tuple(unit)
        for u in unit:
            if type(u) is not int or u < 1:  # a bool is not a coordinate
                raise AlgebraError(f"unit coordinates must be strictly positive, got {u!r}")
        self._init(unit)

    @property
    def rank(self) -> int:
        return len(self.unit)

    def __repr__(self) -> str:
        return f"SimplicialGroup(Z^{self.rank}, unit={list(self.unit)})"


def gamma(group: SimplicialGroup) -> FiniteMV:
    """Unit interval of (Z^r, u): the product of chains with orders u_i."""
    return FiniteMV._make(group.unit)


def xi(algebra: FiniteMV) -> SimplicialGroup:
    """Inverse direction: rank = component count, unit = chain orders."""
    return SimplicialGroup._make(algebra.orders)


def product_unital(g: SimplicialGroup, h: SimplicialGroup) -> SimplicialGroup:
    """Cartesian product: rank sum, concatenated units."""
    return SimplicialGroup._make(g.unit + h.unit)
