"""Finite topological spaces: components, quasi-components, pi0, products.

Open sets are stored as bitmasks over range(points).  A finite topology is
determined by the minimal open neighbourhood N(x) of each point (the
intersection of the opens containing x); a set W is open exactly when
N(x) <= W for every x in W.  Components are computed as the connected
components of the comparability graph of the specialization preorder
(x ~ y iff x in cl{y} or y in cl{x}); the tests justify this against a
naive oracle that searches for two-block clopen partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# A product space stores every one of its opens, and a product of n points
# can have up to 2^n of them (the discrete case), so products are capped
# here to bound the opens a product can emit.
MAX_PRODUCT_POINTS = 20


class TopologyError(ValueError):
    """Invalid topology, non-continuous map, or malformed space input."""


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def bits(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


@dataclass(frozen=True)
class FinSpace:
    """Finite topological space; ``opens`` is a frozenset of bitmasks."""

    points: int
    opens: frozenset[int]

    def __init__(self, points: int, opens: Iterable[int], validate: bool = True):
        opens = frozenset(opens)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "opens", opens)
        if validate:
            self._validate()

    def _validate(self) -> None:
        if self.points < 0:
            raise TopologyError("negative point count")
        full = (1 << self.points) - 1
        for o in self.opens:
            if o & ~full:
                raise TopologyError(f"open set {sorted(bits(o))} out of range")
        if 0 not in self.opens or full not in self.opens:
            raise TopologyError("opens must contain the empty set and the full set")
        opens = sorted(self.opens)
        for a in opens:
            for b in opens:
                if b > a:
                    break
                if (a | b) not in self.opens or (a & b) not in self.opens:
                    raise TopologyError("opens not closed under union/intersection")

    @staticmethod
    def from_sets(points: int, open_sets: Iterable[Iterable[int]], validate: bool = True) -> "FinSpace":
        return FinSpace(points, (mask_of(o) for o in open_sets), validate=validate)

    @staticmethod
    def discrete(points: int) -> "FinSpace":
        return FinSpace(points, range(1 << points), validate=False)

    @staticmethod
    def indiscrete(points: int) -> "FinSpace":
        return FinSpace(points, {0, (1 << points) - 1}, validate=False)

    @property
    def full_mask(self) -> int:
        return (1 << self.points) - 1

    def is_open(self, mask: int) -> bool:
        return mask in self.opens

    def open_sets(self) -> list[frozenset[int]]:
        return [frozenset(bits(o)) for o in sorted(self.opens)]

    def min_nbhd(self) -> list[int]:
        """Minimal open neighbourhood of each point, as a mask."""
        out = []
        for x in range(self.points):
            n = self.full_mask
            for o in self.opens:
                if o & (1 << x):
                    n &= o
            out.append(n)
        return out

    def clopens(self) -> list[int]:
        full = self.full_mask
        return sorted(o for o in self.opens if (full ^ o) in self.opens)

    def __repr__(self) -> str:
        return f"FinSpace({self.points}, {len(self.opens)} opens)"


def space_from_min_nbhds(nbhds: Sequence[int]) -> FinSpace:
    """The topology whose opens are the unions of the given minimal
    neighbourhoods.  The assignment must satisfy y in N(x) => N(y) <= N(x).

    The opens are generated, not searched for: starting from the empty set,
    each N(x) in turn is joined to every open found so far, so the work is
    proportional to n times the number of opens rather than to 2^n."""
    n = len(nbhds)
    for x in range(n):
        if not nbhds[x] & (1 << x):
            raise TopologyError(f"minimal neighbourhood of {x} must contain it")
        for y in bits(nbhds[x]):
            if nbhds[y] & ~nbhds[x]:
                raise TopologyError("not an Alexandrov neighbourhood assignment")
    opens = {0}
    for nx in nbhds:
        opens |= {o | nx for o in opens}
    return FinSpace(n, opens, validate=False)


def components(space: FinSpace) -> tuple[int, ...]:
    """Class index per point; classes are numbered by their smallest member."""
    nb = space.min_nbhd()
    n = space.points
    adj = [0] * n
    for x in range(n):
        for y in bits(nb[x]):
            adj[x] |= 1 << y
            adj[y] |= 1 << x
    label = [-1] * n
    cls = 0
    for start in range(n):
        if label[start] != -1:
            continue
        stack = [start]
        label[start] = cls
        while stack:
            x = stack.pop()
            for y in bits(adj[x]):
                if label[y] == -1:
                    label[y] = cls
                    stack.append(y)
        cls += 1
    return tuple(label)


def quasi_components(space: FinSpace) -> tuple[int, ...]:
    """Class index per point, by intersecting the clopens containing it."""
    clopens = space.clopens()
    qc = []
    for x in range(space.points):
        m = space.full_mask
        for c in clopens:
            if c & (1 << x):
                m &= c
        qc.append(m)
    label: list[int] = []
    seen: dict[int, int] = {}
    for x in range(space.points):
        if qc[x] not in seen:
            seen[qc[x]] = len(seen)
        label.append(seen[qc[x]])
    return tuple(label)


@dataclass(frozen=True)
class Pi0Result:
    space: FinSpace
    class_of: tuple[int, ...]

    @property
    def class_count(self) -> int:
        return self.space.points


def pi0(space: FinSpace) -> Pi0Result:
    """The space of components with the quotient topology."""
    label = components(space)
    k = max(label, default=-1) + 1
    masks = [0] * k
    for x, c in enumerate(label):
        masks[c] |= 1 << x
    opens = []
    for w in range(1 << k):
        pre = 0
        for c in bits(w):
            pre |= masks[c]
        if space.is_open(pre):
            opens.append(w)
    return Pi0Result(FinSpace(k, opens, validate=False), label)


def check_continuous(f: Sequence[int], source: FinSpace, target: FinSpace) -> tuple[int, ...]:
    f = tuple(f)
    if len(f) != source.points or not all(0 <= y < target.points for y in f):
        raise TopologyError(f"{f!r} is not a map {source} -> {target}")
    for o in target.opens:
        pre = mask_of(x for x in range(source.points) if o & (1 << f[x]))
        if not source.is_open(pre):
            raise TopologyError(f"preimage of {sorted(bits(o))} is not open; map not continuous")
    return f


def pi0_map(f: Sequence[int], source: FinSpace, target: FinSpace) -> tuple[int, ...]:
    """The induced map on component classes of a continuous map."""
    f = check_continuous(f, source, target)
    ps, pt = pi0(source), pi0(target)
    out = [-1] * ps.class_count
    for x in range(source.points):
        c, d = ps.class_of[x], pt.class_of[f[x]]
        if out[c] not in (-1, d):
            raise TopologyError("map does not respect components")  # cannot happen
        out[c] = d
    return tuple(out)


@dataclass(frozen=True)
class EMapResult:
    """The clopen-membership embedding E and its comparison with pi0.

    ``table[x]`` is x's membership vector over ``clopens`` (sorted masks);
    ``image`` is the image space (a subspace of a finite product of discrete
    two-point spaces, hence discrete); ``comparison[c]`` is the image point of
    component class c."""

    clopens: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]
    image: FinSpace
    comparison: tuple[int, ...]

    @property
    def is_bijective(self) -> bool:
        vals = set(self.comparison)
        return len(vals) == len(self.comparison) == self.image.points


def e_map(space: FinSpace) -> EMapResult:
    clopens = tuple(space.clopens())
    table = tuple(
        tuple(1 if c & (1 << x) else 0 for c in clopens) for x in range(space.points)
    )
    image_points: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    for x in range(space.points):
        if table[x] not in index:
            index[table[x]] = len(image_points)
            image_points.append(table[x])
    image = FinSpace.discrete(len(image_points))
    p = pi0(space)
    comparison = [-1] * p.class_count
    for x in range(space.points):
        c = p.class_of[x]
        i = index[table[x]]
        if comparison[c] not in (-1, i):
            raise TopologyError("component not contained in a quasi-component")  # cannot happen
        comparison[c] = i
    return EMapResult(clopens, table, image, tuple(comparison))


def pair_index(x: int, y: int, y_points: int) -> int:
    return x * y_points + y


def product_space(a: FinSpace, b: FinSpace) -> FinSpace:
    """Product topology, via minimal neighbourhoods N((x,y)) = N(x) x N(y)."""
    n = a.points * b.points
    if n > MAX_PRODUCT_POINTS:
        raise TopologyError(f"product with {n} points is too large to materialize")
    na, nb = a.min_nbhd(), b.min_nbhd()
    nbhds = []
    for x in range(a.points):
        for y in range(b.points):
            m = 0
            for xx in bits(na[x]):
                for yy in bits(nb[y]):
                    m |= 1 << pair_index(xx, yy, b.points)
            nbhds.append(m)
    return space_from_min_nbhds(nbhds)


@dataclass(frozen=True)
class ProductComparison:
    """gamma: pi0(X x Y) -> pi0(X) x pi0(Y), with the homeomorphism verdict."""

    left: Pi0Result
    right: FinSpace
    mapping: tuple[int, ...]
    is_bijective: bool
    is_homeomorphism: bool


def gamma_compare(a: FinSpace, b: FinSpace) -> ProductComparison:
    prod = product_space(a, b)
    pp, pa, pb = pi0(prod), pi0(a), pi0(b)
    right = product_space(pa.space, pb.space)
    mapping = [-1] * pp.class_count
    for x in range(a.points):
        for y in range(b.points):
            c = pp.class_of[pair_index(x, y, b.points)]
            t = pair_index(pa.class_of[x], pb.class_of[y], pb.space.points)
            if mapping[c] not in (-1, t):
                return ProductComparison(pp, right, tuple(mapping), False, False)
            mapping[c] = t
    bij = len(set(mapping)) == len(mapping) == right.points and -1 not in mapping
    homeo = bij
    if bij:
        transported = frozenset(mask_of(mapping[c] for c in bits(o)) for o in pp.space.opens)
        homeo = transported == right.opens
    return ProductComparison(pp, right, tuple(mapping), bij, homeo)


@dataclass(frozen=True)
class FiniteBoolean:
    """Finite Boolean algebra, recorded by its atom count (carrier: subsets
    of the atoms; dual to the discrete space on the atoms)."""

    atom_count: int

    @property
    def size(self) -> int:
        return 1 << self.atom_count


def clopen_algebra(space: FinSpace) -> FiniteBoolean:
    """The Boolean algebra of clopens; its atoms are the minimal nonempty ones."""
    clopens = space.clopens()
    nonempty = [c for c in clopens if c]
    atoms = [c for c in nonempty if not any(d and d != c and not (d & ~c) for d in nonempty)]
    return FiniteBoolean(len(atoms))


def ba_coproduct(a: FiniteBoolean, b: FiniteBoolean) -> FiniteBoolean:
    """Coproduct of finite Boolean algebras: dual to the product of the atom
    sets, so atom counts multiply."""
    return FiniteBoolean(a.atom_count * b.atom_count)


def iter_min_nbhd_assignments(n: int) -> Iterator[tuple[int, ...]]:
    """All Alexandrov minimal-neighbourhood assignments on n labeled points
    (equivalently, all topologies).  Incremental consistency pruning."""
    subsets_containing = [[s for s in range(1 << n) if s & (1 << x)] for x in range(n)]

    def rec(prefix: list[int]) -> Iterator[tuple[int, ...]]:
        x = len(prefix)
        if x == n:
            yield tuple(prefix)
            return
        for cand in subsets_containing[x]:
            ok = True
            for y in range(x):
                if cand & (1 << y) and prefix[y] & ~cand:
                    ok = False
                    break
                if prefix[y] & (1 << x) and cand & ~prefix[y]:
                    ok = False
                    break
            if ok:
                prefix.append(cand)
                yield from rec(prefix)
                prefix.pop()

    yield from rec([])


def iter_topologies(n: int) -> Iterator[FinSpace]:
    """All topologies on n labeled points (1, 1, 4, 29, 355, 6942, ... spaces)."""
    if n == 0:
        yield FinSpace(0, [0], validate=False)
        return
    for nbhds in iter_min_nbhd_assignments(n):
        yield space_from_min_nbhds(nbhds)


def parse_space_json(obj) -> FinSpace:
    """Parse {"points": n, "opens": [[...], ...]} (validating the topology)."""
    if not isinstance(obj, dict) or set(obj) != {"points", "opens"}:
        raise TopologyError(f'expected {{"points": n, "opens": [...]}}, got {obj!r}')
    points = obj["points"]
    if not isinstance(points, int) or points < 0:
        raise TopologyError(f"bad point count {points!r}")
    opens = obj["opens"]
    if not isinstance(opens, list) or not all(
        isinstance(o, list) and all(isinstance(p, int) for p in o) for o in opens
    ):
        raise TopologyError("opens must be a list of lists of point indices")
    return FinSpace.from_sets(points, opens, validate=True)


def space_to_json(space: FinSpace) -> dict:
    return {
        "points": space.points,
        "opens": [sorted(bits(o)) for o in sorted(space.opens)],
    }
