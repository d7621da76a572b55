"""Naive reference implementations and exhaustive catalogs.

Everything here is deliberately independent of the representations it is
used to validate: homomorphisms are searched as raw functions on carrier
tables, ideals and subalgebras as subsets, generated subalgebras by a
round-based closure under + and !, connectivity by looking for two-block
clopen partitions, topologies, quasi-components and quotients on their
explicit open sets.  Slow by design, but complete at desk scale.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, Iterator

from .algebras import Code, Element, FiniteMV, Hom, _neg, _neg_code, _oplus, _oplus_code, leq
from .topology import FinSpace, bits, mask_of


# -- catalogs -------------------------------------------------------------------


def iter_finite_algebras(
    max_size: int | None = None,
    max_components: int | None = None,
    max_order: int | None = None,
) -> Iterator[FiniteMV]:
    """All canonical-form algebras within the given bounds (at least one
    bound on the component count must be implied)."""
    if max_size is None and (max_components is None or max_order is None):
        raise ValueError("bounds leave infinitely many algebras")

    def rec(prefix: list[int], size: int, min_order: int) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        if max_components is not None and len(prefix) >= max_components:
            return
        order = min_order
        while True:
            if max_order is not None and order > max_order:
                return
            new_size = size * (order + 1)
            if max_size is not None and new_size > max_size:
                return
            prefix.append(order)
            yield from rec(prefix, new_size, order)
            prefix.pop()
            order += 1

    for orders in rec([], 1, 1):
        yield FiniteMV(orders)


# -- homomorphisms as raw functions ----------------------------------------------
#
# The tables index the carrier by element code (see algebras), in
# enumeration order; the operations are the code-level + and !.


@lru_cache(maxsize=512)
def element_index(algebra: FiniteMV) -> dict[Code, int]:
    """Element code -> its index in enumeration order, the indexing of
    op_tables(algebra); cached and shared, so read only."""
    return {k: i for i, k in enumerate(algebra._codes())}


@lru_cache(maxsize=512)
def op_tables(algebra: FiniteMV) -> tuple[tuple[Code, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(element codes, negation table, addition table) with elements indexed
    in enumeration order."""
    index = element_index(algebra)
    codes = tuple(index)
    orders = algebra.orders
    neg_t = tuple(index[_neg_code(orders, k)] for k in codes)
    plus_t = tuple(
        tuple(index[_oplus_code(orders, k, l)] for l in codes) for k in codes
    )
    return codes, neg_t, plus_t


def hom_graph(h: Hom) -> tuple[int, ...]:
    """A hom as a function table: image index per source element index.  The
    lookup is the membership test: an image outside the target carrier
    raises KeyError."""
    index_t = element_index(h.target)
    act = h._code_action()
    return tuple(index_t[act(k)] for k in op_tables(h.source)[0])


def brute_force_hom_graphs(source: FiniteMV, target: FiniteMV) -> set[tuple[int, ...]]:
    """All functions carrier(source) -> carrier(target) preserving +, !, 0,
    found by backtracking over function tables with forced-value propagation.
    The full function space is decided; propagation only prunes assignments
    that already violate a preservation equation."""
    codes_s, neg_s, plus_s = op_tables(source)
    codes_t, neg_t, plus_t = op_tables(target)
    n_s, n_t = len(codes_s), len(codes_t)
    zero_s = element_index(source)[(0,) * source.num_components]
    zero_t = element_index(target)[(0,) * target.num_components]

    f = [-1] * n_s
    assigned: list[int] = []  # the indices with f[i] != -1, in assignment order
    results: set[tuple[int, ...]] = set()

    def assign(i: int, v: int, trail: list[int]) -> bool:
        """Set f[i] = v and propagate every equation this forces.  An
        equation whose two sides are both assigned is decided on the spot;
        only those with an unassigned side are pushed."""
        stack = [(i, v)]
        while stack:
            i, v = stack.pop()
            cur = f[i]
            if cur != -1:
                if cur != v:
                    return False
                continue
            f[i] = v
            trail.append(i)
            assigned.append(i)
            s, t = neg_s[i], neg_t[v]
            cur = f[s]
            if cur == -1:
                stack.append((s, t))
            elif cur != t:
                return False
            row_s, row_t = plus_s[i], plus_t[v]
            for j in assigned:  # i itself included: the equation for i + i
                w = f[j]
                s, t = row_s[j], row_t[w]
                cur = f[s]
                if cur == -1:
                    stack.append((s, t))
                elif cur != t:
                    return False
                s, t = plus_s[j][i], plus_t[w][v]
                cur = f[s]
                if cur == -1:
                    stack.append((s, t))
                elif cur != t:
                    return False
        return True

    def undo(trail: list[int]) -> None:
        for i in trail:
            f[i] = -1
        del assigned[len(assigned) - len(trail):]

    def search() -> None:
        try:
            i = f.index(-1)
        except ValueError:
            results.add(tuple(f))
            return
        for v in range(n_t):
            trail: list[int] = []
            if assign(i, v, trail):
                search()
            undo(trail)

    trail0: list[int] = []
    if assign(zero_s, zero_t, trail0):
        search()
    undo(trail0)
    return results


# -- ideals and subalgebras as subsets --------------------------------------------


def all_ideals_bruteforce(algebra: FiniteMV) -> list[frozenset[Element]]:
    """All subsets containing 0, downward closed, and closed under +."""
    elems = list(algebra.elements())
    n = len(elems)
    if n > 16:
        raise ValueError(f"brute-force ideal enumeration capped at 16 elements, got {n}")
    zero = algebra.zero()
    out = []
    for mask in range(1 << n):
        subset = [elems[i] for i in range(n) if mask & (1 << i)]
        sset = set(subset)
        if zero not in sset:
            continue
        if any(leq(b, a) and b not in sset for a in subset for b in elems):
            continue
        if any(_oplus(a, b) not in sset for a in subset for b in subset):
            continue
        out.append(frozenset(sset))
    return out


def is_closed_subalgebra(algebra: FiniteMV, subset: set[Element]) -> bool:
    if algebra.zero() not in subset:
        return False
    return all(_neg(a) in subset for a in subset) and all(
        _oplus(a, b) in subset for a in subset for b in subset
    )


def all_subalgebras_bruteforce(algebra: FiniteMV) -> list[frozenset[Element]]:
    """All closed subsets, by full powerset scan (tiny algebras only)."""
    elems = list(algebra.elements())
    n = len(elems)
    if n > 12:
        raise ValueError(f"powerset subalgebra scan capped at 12 elements, got {n}")
    out = []
    for mask in range(1 << n):
        subset = {elems[i] for i in range(n) if mask & (1 << i)}
        if is_closed_subalgebra(algebra, subset):
            out.append(frozenset(subset))
    return out


def closure(algebra: FiniteMV, generators: Iterable[Element]) -> frozenset[Element]:
    """The subalgebra generated by ``generators``: the closure of G u {0}
    under + and !, adding each round's new sums and negations until a round
    adds nothing."""
    elements = {algebra.zero(), *generators}
    while True:
        snapshot = list(elements)
        new = {_neg(x) for x in snapshot}
        new.update(_oplus(a, b) for a, b in combinations_with_replacement(snapshot, 2))
        if new <= elements:
            return frozenset(elements)
        elements |= new


def all_subalgebras_by_extension(algebra: FiniteMV) -> list[frozenset[Element]]:
    """All subalgebras, generated by repeatedly closing one-element
    extensions; each candidate is re-verified to be closed."""
    elems = list(algebra.elements())
    least = closure(algebra, [])
    found = {least}
    frontier = [least]
    while frontier:
        s = frontier.pop()
        for a in elems:
            if a in s:
                continue
            t = closure(algebra, s | {a})
            if t not in found:
                assert is_closed_subalgebra(algebra, set(t))
                found.add(t)
                frontier.append(t)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


# -- finite spaces on their explicit open sets ---------------------------------------


def is_topology_pairwise(points: int, opens: Iterable[int]) -> bool:
    """The definition: the family lies in range(points), contains the empty
    and the full set, and is closed under pairwise union and intersection."""
    opens = set(opens)
    full = (1 << points) - 1
    return (
        0 in opens
        and full in opens
        and all(not o & ~full for o in opens)
        and all(a | b in opens and a & b in opens for a in opens for b in opens)
    )


def quasi_components_bruteforce(space: FinSpace) -> tuple[int, ...]:
    """Quasi-component labels from one scan of the opens: the clopens are
    the opens whose complement is open, and two points share a class when
    they lie in the same clopens, so each point is labelled by its
    clopen-membership vector (a fibre of the map E).  Classes are numbered
    by first occurrence, which is by smallest member."""
    opens, full = space.opens, space.full_mask
    clopens = [o for o in opens if full ^ o in opens]
    label: dict[tuple[int, ...], int] = {}
    return tuple(label.setdefault(tuple(c >> x & 1 for c in clopens), len(label)) for x in range(space.points))


def quotient_bruteforce(space: FinSpace, class_of: tuple[int, ...]) -> FinSpace:
    """The quotient topology on the classes: every set of classes whose union
    is open, found by scanning all 2^k sets of classes."""
    opens = space.opens
    k = max(class_of, default=-1) + 1
    masks = [0] * k
    for x, c in enumerate(class_of):
        masks[c] |= 1 << x
    found = []
    for w in range(1 << k):
        pre = 0
        for c in bits(w):
            pre |= masks[c]
        if pre in opens:
            found.append(list(bits(w)))
    return FinSpace.from_sets(k, found)


def is_relatively_open(opens: frozenset[int], part: int, whole: int) -> bool:
    """Whether ``part`` is open in the subspace topology on ``whole``."""
    return any(o & whole == part for o in opens)


def is_connected_subset(opens: frozenset[int], subset: int) -> bool:
    """No two-block partition into relatively clopen parts; empty set is not
    connected."""
    if subset == 0:
        return False
    points = list(bits(subset))
    rest = points[1:]
    for pick in range(1 << len(rest)):
        u = mask_of([points[0]] + [p for t, p in enumerate(rest) if pick & (1 << t)])
        v = subset & ~u
        if v == 0:
            continue
        if is_relatively_open(opens, u, subset) and is_relatively_open(opens, v, subset):
            return False
    return True


def random_topology(n: int, rng) -> FinSpace:
    """A uniform-ish random topology on n points: the up-set topology of the
    transitive-reflexive closure of a random relation."""
    reach = [1 << x for x in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y and rng.random() < 0.35:
                reach[x] |= 1 << y
    for _ in range(n):
        for x in range(n):
            m = reach[x]
            for y in bits(m):
                m |= reach[y]
            reach[x] = m
    from .topology import space_from_min_nbhds

    return space_from_min_nbhds(reach)


def components_bruteforce(space: FinSpace) -> tuple[int, ...]:
    """Component labels via maximal connected subsets (classes numbered by
    smallest member)."""
    n = space.points
    opens = space.opens
    connected = [s for s in range(1, 1 << n) if is_connected_subset(opens, s)]
    label = [-1] * n
    cls = 0
    for x in range(n):
        if label[x] != -1:
            continue
        best = 1 << x
        for s in connected:
            if s & (1 << x) and s | best != best:
                best |= s  # union of connected sets through x is connected
        for y in bits(best):
            label[y] = cls
        cls += 1
    return tuple(label)
