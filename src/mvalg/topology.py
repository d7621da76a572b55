"""Finite topological spaces: components, pi0, products.

A finite topology is determined by the minimal open neighbourhood N(x) of
each point, the intersection of the opens containing x (Alexandroff 1937;
Stong 1966), and N is the one stored form: a FinSpace holds one bitmask over
range(points) per point, and ``bits`` visits only a mask's set bits.  A set
W is open exactly when N(x) <= W for every x in W, so the opens are the
unions of the N(x); they are listed only for output (``space_to_json``) and
for the reference scans in oracles.py.  Components are the connected
components of the comparability graph of the specialization preorder
(x ~ y iff y in N(x) or x in N(y)); one pass grows each from one N(x) and
gives both the labels of ``components`` and the class count of ``pi0``.
The components of a finite space are clopen (Stong 1966), so they are also
its quasi-components, the fibres of the clopen-membership map, and the
atoms of its Boolean algebra of clopens; the pi0-products suite checks them
against the clopen scan of oracles.py, and the tests against an oracle that
searches for two-block clopen partitions.

The catalog ``iter_topologies(n)`` lists every topology on n labeled points
once, in increasing order of the tuple (N(0), ..., N(n-1)), choosing the
N(x) level by level under each Alexandrov constraint (y in N(x) => N(y) <=
N(x)) once, so its spaces are not validated again; ``space_from_min_nbhds``
validates assignments from elsewhere (``product_space``, callers).

Spaces on at most five points are few, 7,332 in all, and callers list and
label them again and again, so the catalog on at most five points is listed
once per process and ``pi0`` answers from a memo keyed by N there; every
space with the same components shares one immutable ``Pi0Result``.  Larger
catalogs are enumerated lazily on each call, and their pi0 computed.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Iterable, Iterator, Sequence

from .records import Record


# The catalogs and pi0 are memoized on at most this many points, which carry
# 1 + 1 + 4 + 29 + 355 + 6,942 = 7,332 topologies in all; six points alone
# would add 209,527.
_MEMO_POINTS = 5
_MEMO_SPACES = 7332


class TopologyError(ValueError):
    """Invalid topology or malformed space input."""


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, in increasing order; each step
    takes the lowest set bit (``mask & -mask``), so only set bits are visited."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinSpace(Record):
    """Finite topological space; ``nbhds[x]`` is the minimal open
    neighbourhood of x, as a bitmask."""

    __slots__ = ("points", "nbhds")
    points: int
    nbhds: tuple[int, ...]

    @staticmethod
    def from_sets(points: int, open_sets: Iterable[Iterable[int]]) -> "FinSpace":
        """The space whose opens are exactly ``open_sets``, which must form a
        topology.  Range, the empty set and the full set are checked first,
        in time linear in the input; then N(x) is the intersection of the
        given opens containing x, and the family must equal the unions of
        the N(x).  Each given open W is the union of the N(x) for x in W, so
        it suffices that every union is given; the generation stops at the
        first that is not."""
        if points < 0:
            raise TopologyError("negative point count")
        family = set()
        for o in open_sets:
            o = tuple(o)
            if o and not (0 <= min(o) and max(o) < points):
                raise TopologyError(f"open set {sorted(o)} out of range for {points} points")
            family.add(mask_of(o))
        full = next((o for o in family if o.bit_count() == points), None)
        if 0 not in family or full is None:
            raise TopologyError("opens must contain the empty set and the full set")
        nbhds = [full] * points
        for o in family:
            for x in bits(o):
                nbhds[x] &= o
        unions = {0}
        for nx in nbhds:
            unions |= {o | nx for o in unions}
            if not unions <= family:
                raise TopologyError("opens not closed under union/intersection")
        return FinSpace(points, tuple(nbhds))

    @staticmethod
    @lru_cache(maxsize=64)
    def discrete(points: int) -> "FinSpace":
        """The discrete space on ``points`` points; spaces are immutable, so
        pi0 and the spectrum share one per point count."""
        return FinSpace(points, tuple(1 << x for x in range(points)))

    @property
    def full_mask(self) -> int:
        return (1 << self.points) - 1

    @property
    def opens(self) -> frozenset[int]:
        """Every open set, as the unions of the N(x): each N(x) in turn is
        joined to every union found so far.  A discrete space has 2^points
        opens, so only output and the oracles list them."""
        opens = {0}
        for nx in self.nbhds:
            opens |= {o | nx for o in opens}
        return frozenset(opens)


def space_from_min_nbhds(nbhds: Sequence[int]) -> FinSpace:
    """The topology whose opens are the unions of the given minimal
    neighbourhoods.  The assignment must satisfy y in N(x) => N(y) <= N(x)."""
    n = len(nbhds)
    for x, nx in enumerate(nbhds):
        if not 0 <= nx < 1 << n:
            raise TopologyError(f"minimal neighbourhood of {x} is not a subset of the {n} points")
        if not nx & (1 << x):
            raise TopologyError(f"minimal neighbourhood of {x} must contain it")
        for y in bits(nx):
            if nbhds[y] & ~nx:
                raise TopologyError("not an Alexandrov neighbourhood assignment")
    return FinSpace(n, tuple(nbhds))


def _classes(nbhds: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The component label of each point and the number of components: the
    class of x is grown from N(x) by joining each N(y) that meets it (every
    point of N(y) is comparable with y) until a round adds nothing, and the
    points are visited in order, so each class starts at its smallest member."""
    label = [-1] * len(nbhds)
    count = 0
    for x, grown in enumerate(nbhds):
        if label[x] < 0:
            previous = 0
            while grown != previous:
                previous = grown
                for ny in nbhds:
                    if ny & grown:
                        grown |= ny
            while grown:
                low = grown & -grown
                label[low.bit_length() - 1] = count
                grown ^= low
            count += 1
    return tuple(label), count


def components(space: FinSpace) -> tuple[int, ...]:
    """Class index per point; classes are numbered by their smallest member."""
    return _classes(space.nbhds)[0]


class Pi0Result(Record):
    __slots__ = ("space", "class_of")
    space: FinSpace
    class_of: tuple[int, ...]

    @property
    def class_count(self) -> int:
        return self.space.points


_pi0_memo: dict[tuple[int, ...], Pi0Result] = {}  # N -> pi0, on at most _MEMO_POINTS points
_pi0_by_labels: dict[tuple[int, ...], Pi0Result] = {}  # the one memoized result per partition


def pi0(space: FinSpace) -> Pi0Result:
    """The space of components with the quotient topology, which is discrete
    because the components of a finite space are clopen (the pi0-products
    suite checks it against the quotient scan of oracles.py).  On at most
    five points the result is memoized by N, and every space with the same
    components shares one result."""
    memoized = space.points <= _MEMO_POINTS
    if memoized and (hit := _pi0_memo.get(space.nbhds)) is not None:
        return hit
    label, count = _classes(space.nbhds)
    result = Pi0Result(FinSpace.discrete(count), label)
    # the memo holds one entry per topology, so only a record built unchecked
    # from a non-topology can find it full
    if memoized and len(_pi0_memo) < _MEMO_SPACES:
        result = _pi0_memo[space.nbhds] = _pi0_by_labels.setdefault(label, result)
    return result


def pair_index(x: int, y: int, y_points: int) -> int:
    return x * y_points + y


def product_space(a: FinSpace, b: FinSpace) -> FinSpace:
    """Product topology, via minimal neighbourhoods N((x,y)) = N(x) x N(y)."""
    # the row of (xx, y') for y' in N(y) is N(y) shifted by pair_index(xx, 0)
    return space_from_min_nbhds(
        [sum(ny << pair_index(xx, 0, b.points) for xx in bits(nx)) for nx in a.nbhds for ny in b.nbhds]
    )


class ProductComparison(Record):
    """gamma: pi0(X x Y) -> pi0(X) x pi0(Y), with X x Y as ``product`` and the homeomorphism verdict."""

    __slots__ = ("product", "left", "right", "mapping", "is_bijective", "is_homeomorphism")
    product: FinSpace
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
                return ProductComparison(prod, pp, right, tuple(mapping), False, False)
            mapping[c] = t
    bij = len(set(mapping)) == len(mapping) == right.points and -1 not in mapping
    # a bijection is a homeomorphism when it carries each N(c) onto N(mapping[c])
    homeo = bij and all(
        mask_of(mapping[d] for d in bits(nc)) == right.nbhds[mapping[c]] for c, nc in enumerate(pp.space.nbhds)
    )
    return ProductComparison(prod, pp, right, tuple(mapping), bij, homeo)


def _extend(level: list[tuple[int, ...]], x: int, full: int) -> Iterator[tuple[int, ...]]:
    """Each assignment of N(0), ..., N(x-1) in ``level``, in order, extended
    by each choice of N(x) in increasing order: a submask of the meet of the
    earlier N(y) that hold x, kept when it holds N(y) for each earlier y in it."""
    bit = 1 << x
    below = bit - 1
    for prefix in level:
        bound = full
        for ny in prefix:
            if ny & bit:
                bound &= ny
        free = bound ^ bit
        sub = 0
        while True:
            cand = sub | bit
            inside = cand & below
            while inside:
                low = inside & -inside
                if prefix[low.bit_length() - 1] & ~cand:
                    break
                inside ^= low
            else:
                yield prefix + (cand,)
            if sub == free:
                break
            sub = (sub - free) & free  # the next submask of free


def iter_min_nbhd_assignments(n: int) -> Iterator[tuple[int, ...]]:
    """All Alexandrov minimal-neighbourhood assignments on n labeled points
    (equivalently, all topologies), in increasing tuple order.  N(0), N(1),
    ... are chosen level by level; the first n - 1 levels are lists and the
    last is yielded as it is extended.  Each pair of points is checked once,
    when the later is chosen, so every yielded tuple is Alexandrov."""
    full = (1 << n) - 1
    level = [()]
    for x in range(n - 1):
        level = list(_extend(level, x, full))
    yield from (_extend(level, n - 1, full) if n else level)  # n = 0: the empty assignment


@cache
def _catalog(n: int) -> tuple[FinSpace, ...]:
    return tuple(FinSpace(n, nbhds) for nbhds in iter_min_nbhd_assignments(n))


def iter_topologies(n: int) -> Iterator[FinSpace]:
    """All topologies on n labeled points (1, 1, 4, 29, 355, 6942, ...
    spaces), in the order of ``iter_min_nbhd_assignments``, built unchecked.
    On at most five points they come from a tuple listed once per process,
    so each call yields the same objects; on more, lazily."""
    if n <= _MEMO_POINTS:
        yield from _catalog(n)
    else:
        for nbhds in iter_min_nbhd_assignments(n):
            yield FinSpace(n, nbhds)


def clear_memos() -> None:
    """Empty the catalog and pi0 memos, so the next call lists and labels
    afresh, as in a new process (for tests that patch what builds them)."""
    _catalog.cache_clear()
    _pi0_memo.clear()
    _pi0_by_labels.clear()


def parse_space_json(obj) -> FinSpace:
    """Parse {"points": n, "opens": [[...], ...]} (validating the topology)."""
    if not isinstance(obj, dict) or set(obj) != {"points", "opens"}:
        raise TopologyError(f'expected {{"points": n, "opens": [...]}}, got {obj!r}')
    points = obj["points"]
    if type(points) is not int or points < 0:  # JSON true and false are not counts
        raise TopologyError(f"bad point count {points!r}")
    opens = obj["opens"]
    if not isinstance(opens, list) or not all(isinstance(o, list) and all(type(p) is int for p in o) for o in opens):
        raise TopologyError("opens must be a list of lists of point indices")
    return FinSpace.from_sets(points, opens)


def space_to_json(space: FinSpace) -> dict:
    return {
        "points": space.points,
        "opens": [list(bits(o)) for o in sorted(space.opens)],
    }
