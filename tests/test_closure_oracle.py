"""The worklist closure against two slower closures it must agree with.

`round_closure` re-runs every forced operation on every member in every
round until nothing grows.  It is slow but obviously complete.
`pairs_closure` is the worklist that multiplies every queued vector by every
earlier vector of its arity, not only by the generators.  Subspace equality
is canonical, so the closures must agree with `==` on every group.
"""

import itertools
import random
from collections import deque

import pytest

from chowq import structure
from chowq.basis import QuadricGeometry, apply_table, cycle, enumerate_basis, single
from chowq.correspondence import diagonal_class
from chowq.correspondence import (
    pullback_diagonal,
    pullback_projection,
    pushforward_diagonal,
    pushforward_projection,
)
from chowq.ring import homogeneous_components, mul, permute, sym
from chowq.steenrod import steenrod_total
from chowq.structure import (
    RationalFamily,
    SplittingData,
    closure,
    decode_cycle,
    encode_cycle,
    family_from_generators,
    known_generator,
)


def round_closure(family: RationalFamily) -> RationalFamily:
    fam = family.copy()
    for r in range(1, fam.max_arity + 1):
        index = fam.geometry.tables.maps[r].index
        for t in itertools.product(fam.geometry.tables.h, repeat=r):  # the non-essential seed
            fam.groups[r].add(1 << index[t])

    def feed(c):
        if c.is_zero or not 1 <= c.arity <= fam.max_arity:
            return False
        return fam.groups[c.arity].add(encode_cycle(c))

    changed = True
    while changed:
        changed = False
        for r in range(1, fam.max_arity + 1):
            members = [decode_cycle(fam.geometry, r, v) for v in fam.groups[r].rows()]
            for c in members:
                for piece in homogeneous_components(c).values():
                    changed |= feed(piece)
                for sigma in itertools.permutations(range(r)):
                    changed |= feed(permute(c, sigma))
                changed |= feed(steenrod_total(c))
                changed |= feed(pullback_projection(c))
                changed |= feed(pushforward_diagonal(c))
                if r >= 2:
                    changed |= feed(pushforward_projection(c))
                    changed |= feed(pullback_diagonal(c))
            for c1, c2 in itertools.combinations_with_replacement(members, 2):
                changed |= feed(mul(c1, c2))
    fam.closed = True
    return fam


def pairs_closure(family: RationalFamily) -> RationalFamily:
    """closure with every product of two queued vectors of one arity taken."""
    geometry, top = family.geometry, family.max_arity
    tables = geometry.tables
    fam = RationalFamily(geometry, top, splitting=family.splitting)
    queue = deque()
    earlier = {r: [] for r in range(1, top + 1)}

    def feed(r, v):
        if v and fam.groups[r].add(v):
            queue.append((r, v))

    for r in range(1, top + 1):
        maps = tables.maps[r]
        for t in itertools.product(tables.h, repeat=r):
            k = maps.index[t]
            fam.groups[r].add(1 << k)
            if maps.dims[k] == r * geometry.D - 1:
                earlier[r].append(structure._Entry(maps, 1 << k))
        for v in family.groups[r].rows():
            for m in maps.dim_masks:
                feed(r, v & m)
    if top >= 2:
        feed(2, encode_cycle(diagonal_class(geometry)))
    while queue:
        r, v = queue.popleft()
        maps = tables.maps[r]
        mine = structure._Entry(maps, v)
        for swap in maps.transpositions:
            feed(r, sum(1 << maps.index[t] for t in map(swap, mine.terms)))
        image = apply_table(maps.steenrod, v)
        for m in maps.dim_masks:
            feed(r, image & m)
        if r < top:
            feed(r + 1, v)
        if r >= 2:
            feed(r - 1, maps.pushforward(v))
        earlier[r].append(mine)
        for e in earlier[r]:
            if e.dimension + mine.dimension >= r * geometry.D:
                feed(r, structure._product_vector(tables, maps.index, mine, e))
    fam.closed = True
    return fam


def staircase(D, a, splitting, max_arity):
    g = QuadricGeometry(D)
    split = SplittingData(splitting) if splitting else None
    return family_from_generators(g, max_arity, [known_generator(g, a)], split)


def d6_mutations():
    """The staircase D=6 (2,2) plus one essential cell it does not contain."""
    g = QuadricGeometry(6)
    base = closure(staircase(6, 2, (2, 2), 2))
    out = []
    for be in enumerate_basis(g, 2):
        cell = single(g, *be.factors)
        if be.is_essential and cell.dimension >= 6 and not base.contains(cell):
            generator = known_generator(g, 2) + cell
            out.append(family_from_generators(g, 2, [generator], SplittingData((2, 2))))
    return out


def random_family(seed):
    """One to two generators of one to two random terms, half of them symmetrised."""
    rng = random.Random(seed)
    max_arity = rng.randint(1, 3)
    D = rng.randint(1, 8 if max_arity < 3 else 5)
    g = QuadricGeometry(D)
    gens = []
    for _ in range(rng.randint(1, 2)):
        r = rng.randint(1, max_arity)
        terms = [tuple(rng.choice(g.factors()) for _ in range(r)) for _ in range(rng.randint(1, 2))]
        c = cycle(g, r, terms)
        gens.append(sym(c) if rng.random() < 0.5 else c)
    return family_from_generators(g, max_arity, gens)


def assert_same_closure(fam):
    before = fam.copy()
    got = closure(fam)
    want = round_closure(fam)
    assert got.closed
    assert got.groups.keys() == want.groups.keys()
    for r in want.groups:
        assert got.groups[r] == want.groups[r], r
    assert fam.groups == before.groups and not fam.closed  # the input is left alone


@pytest.mark.parametrize(
    "D, a, splitting",
    [(6, 2, (2, 2)), (2, 2, (2,)), (8, 1, None)],
)
def test_bench_arity3_families(D, a, splitting):
    assert_same_closure(staircase(D, a, splitting, 3))


def test_d6_mutations():
    families = d6_mutations()
    assert len(families) == 21
    for fam in families:
        assert_same_closure(fam)


@pytest.mark.parametrize("seed", range(60))
def test_random_generator_sets(seed):
    assert_same_closure(random_family(seed))



# ---------------------------------------------------------------------------
# products with generators only, against every product of two queued vectors


def assert_same_as_pairs(fam):
    got, want = closure(fam), pairs_closure(fam)
    for r in want.groups:
        assert got.groups[r] == want.groups[r], r


def random_sums(seed):
    """One to three generators, each a sum of two to four random terms of mixed
    dimensions, half of them symmetrised; D <= 9, and D <= 3 at arity 4."""
    rng = random.Random(seed)
    max_arity = rng.randint(1, 4)
    g = QuadricGeometry(rng.randint(0, 9 if max_arity < 4 else 3))
    gens = []
    for _ in range(rng.randint(1, 3)):
        r = rng.randint(1, max_arity)
        terms = [tuple(rng.choice(g.factors()) for _ in range(r)) for _ in range(rng.randint(2, 4))]
        c = cycle(g, r, terms)
        gens.append(sym(c) if rng.random() < 0.5 else c)
    return family_from_generators(g, max_arity, gens)


@pytest.mark.parametrize("seed", range(80))
def test_generator_products_on_random_sums(seed):
    assert_same_as_pairs(random_sums(seed))


@pytest.mark.parametrize(
    "D, a, splitting, max_arity",
    [
        (6, 2, (2, 2), 3),
        (2, 2, (2,), 3),
        (8, 1, None, 3),
        (14, 4, (4, 4), 2),
        (6, 4, (4,), 2),
        (22, 4, (4, 4, 4), 2),
        (30, 8, (8, 8), 2),
    ],
)
def test_generator_products_on_bench_staircases(D, a, splitting, max_arity):
    assert_same_as_pairs(staircase(D, a, splitting, max_arity))


def d10_mutations():
    """The staircase D=10 (2,2,2) plus one essential cell it does not contain."""
    g = QuadricGeometry(10)
    base = closure(staircase(10, 2, (2, 2, 2), 2))
    cells = [single(g, *be.factors) for be in enumerate_basis(g, 2) if be.is_essential]
    split = SplittingData((2, 2, 2))
    return [
        family_from_generators(g, 2, [known_generator(g, 2) + cell], split)
        for cell in cells
        if cell.dimension >= 10 and not base.contains(cell)
    ]


def test_generator_products_on_mutations():
    families = d6_mutations() + d10_mutations()
    assert len(families) == 21 + 43
    for fam in families:
        assert_same_as_pairs(fam)


def test_products_taken_at_d8_arity4(monkeypatch):
    """A regression bound on work: the all-pairs rule takes 243 289 products here.
    Products with the slot generators are shifts and do not count (1 734 in all)."""
    calls, product_vector = [], structure._product_vector

    def counted(*args):
        calls.append(None)
        return product_vector(*args)

    monkeypatch.setattr(structure, "_product_vector", counted)
    g = QuadricGeometry(8)
    fam = closure(family_from_generators(g, 4, [known_generator(g, 1)]))
    assert {r: s.rank for r, s in fam.groups.items()} == {1: 5, 2: 30, 3: 200, 4: 1436}
    assert len(calls) < 2_500
