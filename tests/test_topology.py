"""Finite spaces: components, pi0, the clopen-membership map, products."""

import tracemalloc

import pytest

from mvalg import (
    FiniteMV,
    FinSpace,
    TopologyError,
    components,
    gamma_compare,
    pi0,
    product_space,
)
from mvalg.oracles import (
    components_bruteforce,
    is_topology_pairwise,
    quasi_components_bruteforce,
    quotient_bruteforce,
)
from mvalg.topology import (
    bits,
    iter_min_nbhd_assignments,
    iter_topologies,
    space_from_min_nbhds,
    space_to_json,
)

SIERPINSKI = FinSpace.from_sets(2, [[], [0], [0, 1]])


def is_continuous(f: tuple[int, ...], source: FinSpace, target: FinSpace) -> bool:
    """The definition: the preimage of every open of the target is open."""
    opens = source.opens
    return all(sum(1 << x for x in range(source.points) if o >> f[x] & 1) in opens for o in target.opens)


def clopens(space: FinSpace) -> list[int]:
    """The definition: the opens whose complement is open."""
    opens = space.opens
    return [o for o in opens if space.full_mask ^ o in opens]


class TestFinSpace:
    def test_validation_rejects_missing_full_set(self):
        with pytest.raises(TopologyError):
            FinSpace.from_sets(2, [[], [0]])

    def test_validation_rejects_union_gap(self):
        with pytest.raises(TopologyError):
            FinSpace.from_sets(3, [[], [0], [1], [0, 1, 2]])  # missing {0,1}

    def test_validation_rejects_intersection_gap(self):
        with pytest.raises(TopologyError):
            FinSpace.from_sets(3, [[], [0, 1], [1, 2], [0, 1, 2]])  # missing {1}

    def test_validation_rejects_out_of_range(self):
        with pytest.raises(TopologyError):
            FinSpace.from_sets(2, [[], [5], [0, 1]])
        with pytest.raises(TopologyError):
            FinSpace.from_sets(2, [[], [-1], [0, 1]])

    def test_discrete_stores_singletons(self):
        assert FinSpace.discrete(3).nbhds == (0b001, 0b010, 0b100)
        assert len(FinSpace.discrete(3).opens) == 8

    def test_empty_space(self):
        empty = FinSpace.from_sets(0, [[]])
        assert empty == next(iter_topologies(0))
        assert components(empty) == ()
        assert pi0(empty).class_count == 0

    @pytest.mark.parametrize("n", range(5))
    def test_validator_agrees_with_the_pairwise_definition(self, n):
        # every family of subsets of n points: 2, 4, 16, 256 and 65,536 families
        subsets = range(1 << n)
        accepted = 0
        for family in range(1 << (1 << n)):
            opens = [w for w in subsets if family >> w & 1]
            try:
                space = FinSpace.from_sets(n, [list(bits(w)) for w in opens])
            except TopologyError:
                assert not is_topology_pairwise(n, opens)
                continue
            assert is_topology_pairwise(n, opens)
            assert space.opens == frozenset(opens)
            accepted += 1
        assert accepted == [1, 1, 4, 29, 355][n]

    @pytest.mark.parametrize("n", range(5))
    def test_min_nbhd_is_the_least_open_containing_the_point(self, n):
        for space in iter_topologies(n):
            for x in range(n):
                containing = [o for o in space.opens if o >> x & 1]
                assert space.nbhds[x] in containing
                assert all(space.nbhds[x] & ~o == 0 for o in containing)

    def test_bits_lists_the_set_bits_in_increasing_order(self):
        for mask in [*range(1 << 12), 1 << 64, (1 << 64) + 5, (1 << 70) - 1, 1 << 65 | 1 << 99 | 3]:
            assert list(bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]

    def test_json_round_trip(self):
        from mvalg.topology import parse_space_json

        assert parse_space_json(space_to_json(SIERPINSKI)) == SIERPINSKI


def _opens_by_subset_scan(nbhds):
    """Reference: every subset W with N(x) <= W for all x in W."""
    return frozenset(
        w for w in range(1 << len(nbhds)) if all(not nbhds[x] & ~w for x in range(len(nbhds)) if w >> x & 1)
    )


class TestOpensFromNeighbourhoods:
    @pytest.mark.parametrize("n", range(6))
    def test_unions_of_neighbourhoods_equal_the_subset_scan(self, n):
        count = 0
        for nbhds, space in zip(iter_min_nbhd_assignments(n), iter_topologies(n), strict=True):
            assert space.opens == _opens_by_subset_scan(nbhds)
            assert space.nbhds == nbhds
            count += 1
        assert count == [1, 1, 4, 29, 355, 6942][n]

    def test_rejects_a_non_alexandrov_assignment(self):
        with pytest.raises(TopologyError):
            space_from_min_nbhds([0b11, 0b10 | 0b100, 0b100])  # 1 in N(0) but N(1) not <= N(0)
        with pytest.raises(TopologyError):
            space_from_min_nbhds([0b10, 0b10])  # N(0) must contain 0

    @pytest.mark.parametrize("nbhds", [[0b101], [0b01, 0b110], [-1]])
    def test_rejects_a_neighbourhood_outside_the_points(self, nbhds):
        with pytest.raises(TopologyError):
            space_from_min_nbhds(nbhds)


class TestCatalogOrder:
    """The catalog lists each topology once, in increasing tuple order.  The
    set of topologies on n points is fixed, so these facts pin the sequence."""

    @pytest.mark.parametrize("n", range(6))
    def test_increasing_valid_and_complete(self, n):
        assignments = list(iter_min_nbhd_assignments(n))
        assert all(a < b for a, b in zip(assignments, assignments[1:]))
        spaces = list(iter_topologies(n))
        assert spaces == [FinSpace(n, a) for a in assignments]
        assert spaces == [space_from_min_nbhds(a) for a in assignments]  # each passes the check
        assert len(assignments) == [1, 1, 4, 29, 355, 6942][n]

    def test_six_points(self):
        previous, count = (), 0
        for a in iter_min_nbhd_assignments(6):
            assert previous < a
            previous, count = a, count + 1
        assert count == 209527

    def test_catalog_is_lazy(self):
        # only the assignments of the first n - 1 points are held as a list
        tracemalloc.start()
        try:
            count = sum(1 for _ in iter_topologies(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 6942
        assert peak < 500_000


class TestComponents:
    def test_discrete_three_singletons(self):
        assert components(FinSpace.discrete(3)) == (0, 1, 2)

    def test_sierpinski_is_connected(self):
        assert components(SIERPINSKI) == (0, 0)

    @pytest.mark.parametrize("n", range(5))
    def test_agree_with_quasi_components_and_bruteforce(self, n):
        for space in iter_topologies(n):
            c = components(space)
            assert c == quasi_components_bruteforce(space)
            assert c == components_bruteforce(space)

    def test_bruteforce_oracle_on_sampled_larger_spaces(self):
        # the naive clopen-partition oracle is too slow for the full 5- and
        # 6-point catalogs; seeded random preorders cover those sizes
        import random

        from mvalg.oracles import random_topology

        rng = random.Random(0)
        for n, count in [(5, 60), (6, 40)]:
            for _ in range(count):
                space = random_topology(n, rng)
                c = components(space)
                assert c == quasi_components_bruteforce(space)
                assert c == components_bruteforce(space)


class TestPi0:
    @pytest.mark.parametrize("n", range(6))
    def test_labels_and_count_are_the_components(self, n):
        for space in iter_topologies(n):
            result, label = pi0(space), components(space)
            assert result.class_of == label
            assert result.class_count == len(set(label))

    def test_sierpinski_collapses(self):
        result = pi0(SIERPINSKI)
        assert result.class_count == 1

    def test_discrete_is_fixed(self):
        result = pi0(FinSpace.discrete(4))
        assert result.class_count == 4
        assert result.space == FinSpace.discrete(4)

    def test_idempotent(self):
        for n in range(4):
            for space in iter_topologies(n):
                once = pi0(space)
                twice = pi0(once.space)
                assert twice.space == once.space
                assert twice.class_of == tuple(range(once.class_count))

    def test_components_are_clopen(self):
        for n in range(5):
            for space in iter_topologies(n):
                opens, label = space.opens, pi0(space).class_of
                for c in set(label):
                    mask = sum(1 << x for x in range(n) if label[x] == c)
                    assert mask in opens and space.full_mask ^ mask in opens

    def test_pi0_of_a_product_is_the_product_of_the_pi0s(self):
        small = [s for n in range(4) for s in iter_topologies(n)]
        for x in small:
            for y in small[::3]:
                product_classes = pi0(product_space(x, y)).class_count
                assert product_classes == pi0(x).class_count * pi0(y).class_count

    def test_product_projections_are_continuous(self):
        small = [s for n in range(4) for s in iter_topologies(n)]
        for x in small:
            for y in small[::3]:
                first = tuple(p for p in range(x.points) for _ in range(y.points))
                second = tuple(q for _ in range(x.points) for q in range(y.points))
                assert is_continuous(first, product_space(x, y), x)
                assert is_continuous(second, product_space(x, y), y)

    def test_swapping_the_sierpinski_points_is_not_continuous(self):
        assert is_continuous((0, 1), SIERPINSKI, SIERPINSKI)
        assert not is_continuous((1, 0), SIERPINSKI, SIERPINSKI)  # swaps closed and open points
        assert is_continuous((1, 0), FinSpace.discrete(2), FinSpace.discrete(2))

    def test_continuous_maps_preserve_component_relation(self):
        import random
        from itertools import product as iproduct

        small = [s for n in range(4) for s in iter_topologies(n)]
        rng = random.Random(3)
        four = list(iter_topologies(4))
        pairs = [(x, y) for x in small for y in small[::5]]
        pairs += [(rng.choice(four), rng.choice(small + four)) for _ in range(8)]
        pairs += [(rng.choice(small), rng.choice(four)) for _ in range(8)]
        for x, y in pairs:
            cx, cy = components(x), components(y)
            for f in iproduct(range(y.points), repeat=x.points):
                if not is_continuous(f, x, y):
                    continue
                for p in range(x.points):
                    for q in range(x.points):
                        if cx[p] == cx[q]:
                            assert cy[f[p]] == cy[f[q]]


class TestQuasiComponentsOracle:
    @pytest.mark.parametrize("n", range(5))
    def test_labels_the_clopen_membership_fibres_by_first_occurrence(self, n):
        for space in iter_topologies(n):
            qc, cs = quasi_components_bruteforce(space), clopens(space)
            # the first point of each new class takes the next label
            assert all(qc[x] <= max(qc[:x], default=-1) + 1 for x in range(n))
            for x in range(n):
                for y in range(n):
                    same = all(c >> x & 1 == c >> y & 1 for c in cs)
                    assert (qc[x] == qc[y]) == same


class TestEMap:
    """The clopen-membership map E sends x to the clopens containing it; the
    oracle labels the points by its fibres."""

    def test_injective_on_discrete(self):
        assert quasi_components_bruteforce(FinSpace.discrete(2)) == (0, 1)
        assert quasi_components_bruteforce(SIERPINSKI) == (0, 0)

    def test_separates_exactly_quasi_components(self):
        # equal membership vectors <=> equal intersections of the clopens
        # containing the point, the definition of a quasi-component
        for n in range(5):
            for space in iter_topologies(n):
                cs, qc = clopens(space), quasi_components_bruteforce(space)
                meet = [space.full_mask] * n
                for c in cs:
                    for x in bits(c):
                        meet[x] &= c
                for x in range(n):
                    for y in range(n):
                        assert (meet[x] == meet[y]) == (qc[x] == qc[y])

    def test_comparison_is_homeomorphism(self):
        # bijective, and both sides discrete: the image by construction, the
        # component quotient because components of finite spaces are clopen
        for n in range(5):
            for space in iter_topologies(n):
                qc = quasi_components_bruteforce(space)
                result = pi0(space)
                assert set(zip(result.class_of, qc)) == {(c, c) for c in set(qc)}
                quotient = quotient_bruteforce(space, result.class_of)
                assert quotient == result.space == FinSpace.discrete(quotient.points)


class TestProducts:
    def test_sierpinski_squared(self):
        report = gamma_compare(SIERPINSKI, SIERPINSKI)
        assert report.left.class_count == 1
        assert report.is_homeomorphism

    def test_discrete_product(self):
        report = gamma_compare(FinSpace.discrete(2), FinSpace.discrete(3))
        assert report.left.class_count == 6
        assert report.is_homeomorphism

    def test_product_opens_count_multiplicative_on_discrete(self):
        p = product_space(FinSpace.discrete(2), FinSpace.discrete(2))
        assert len(p.opens) == 16

    def test_exhaustive_small_pairs(self):
        spaces = [s for n in range(4) for s in iter_topologies(n)]
        for a in spaces:
            for b in spaces:
                assert gamma_compare(a, b).is_homeomorphism

    def test_products_beyond_twenty_points(self):
        # N((x,y)) = N(x) x N(y) lists no opens, so no point cap is needed
        p = product_space(FinSpace.discrete(5), SIERPINSKI)
        assert p.points == 10 and components(p) == (0, 0, 1, 1, 2, 2, 3, 3, 4, 4)
        big = product_space(FinSpace.discrete(8), FinSpace.discrete(8))
        assert big.nbhds == FinSpace.discrete(64).nbhds
        assert gamma_compare(FinSpace.discrete(6), FinSpace.discrete(5)).is_homeomorphism


class TestBooleanSide:
    @staticmethod
    def clopen_atoms(space):
        """The minimal nonempty clopens."""
        nonempty = [c for c in clopens(space) if c]
        return [c for c in nonempty if not any(d != c and not (d & ~c) for d in nonempty)]

    def test_clopen_algebra_counts(self):
        assert len(self.clopen_atoms(FinSpace.discrete(3))) == 3
        assert len(self.clopen_atoms(SIERPINSKI)) == 1

    def test_clopen_atoms_equal_components(self):
        for n in range(5):
            for space in iter_topologies(n):
                label = components(space)
                classes = {sum(1 << x for x in range(n) if label[x] == c) for c in set(label)}
                assert set(self.clopen_atoms(space)) == classes

    def test_ba_coproduct_multiplies(self):
        # the clopen algebra of a product is the coproduct of the clopen
        # algebras, so its atoms are the k_X * k_Y products of atoms
        assert len(self.clopen_atoms(product_space(FinSpace.discrete(2), FinSpace.discrete(3)))) == 6
        spaces = [space for n in range(3) for space in iter_topologies(n)]
        for x in spaces:
            for y in spaces:
                atoms = self.clopen_atoms(product_space(x, y))
                assert len(atoms) == len(self.clopen_atoms(x)) * len(self.clopen_atoms(y))

    def test_ba_coproduct_universal_property_via_mv(self):
        # powerset algebras are the all-ones finite algebras; Boolean homs
        # between them are exactly the unital chain homs, so the hom-set
        # bijection can be checked with the finite coproduct machinery
        from mvalg import coproduct_finite, enumerate_homs

        b1, b2 = FiniteMV([1, 1]), FiniteMV([1, 1, 1])
        cop = coproduct_finite(b1, b2)
        assert cop.algebra.num_components == 6  # atoms multiply
        for c in [FiniteMV([1]), FiniteMV([1, 1]), FiniteMV([1, 1, 1])]:
            paired = {
                (h.compose(cop.in0).component_map, h.compose(cop.in1).component_map)
                for h in enumerate_homs(cop.algebra, c)
            }
            assert len(paired) == len(enumerate_homs(b1, c)) * len(enumerate_homs(b2, c))
