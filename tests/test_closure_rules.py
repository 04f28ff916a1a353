"""The facts the worklist closure rests on, checked on every basis term.

- A product of homogeneous cycles has dimension dim a + dim b - r*D, so it
  vanishes when the dimensions add up to less than r*D.
- The unary maps other than the total Steenrod operation send a
  homogeneous cycle to a homogeneous one (or to zero), so a queue of
  homogeneous vectors spans a space closed under taking components.
- Every h-monomial is a product of the slot generators h^0 x .. x h^1 x .. x h^0,
  so closing under products with the generators closes under every seed.
- The diagonal maps are products with E = diagonal x h^0 x .. x h^0 followed
  by first-projection maps (the projection formula), so feeding the diagonal
  once spans their images.
- The product closure takes in coordinates is the encoding of mul, also where
  non-zero term products cancel mod 2, and its per-slot masks skip no
  non-zero term product, also when they were cached by an earlier product.
"""

import itertools
import random

import pytest

from chowq.basis import Cycle, QuadricGeometry, enumerate_basis, h, single
from chowq.correspondence import (
    diagonal_class,
    pullback_diagonal,
    pullback_projection,
    pushforward_diagonal,
    pushforward_projection,
)
from chowq.ring import mul, permute, transpose, unit
from chowq.structure import (
    RationalFamily,
    _Entry,
    _product_vector,
    closure,
    encode_cycle,
    family_from_generators,
    known_generator,
)

CASES = [(D, r) for D in range(0, 7) for r in range(1, 4)]


def basis_cycles(g, r):
    return [(be.dimension, single(g, *be.factors)) for be in enumerate_basis(g, r)]


@pytest.mark.parametrize("D, r", CASES)
def test_products_below_the_floor_vanish(D, r):
    g = QuadricGeometry(D)
    cells = basis_cycles(g, r)
    for (da, a), (db, b) in itertools.product(cells, repeat=2):
        p = mul(a, b)
        if da + db < r * D:
            assert p.is_zero, (a, b)
        elif not p.is_zero:
            assert p.dimension == da + db - r * D


@pytest.mark.parametrize("D, r", CASES)
def test_unary_maps_keep_terms_homogeneous(D, r):
    g = QuadricGeometry(D)
    for dim, c in basis_cycles(g, r):
        images = [(permute(c, s), dim) for s in itertools.permutations(range(r))]
        images += [(pullback_projection(c), dim + D), (pushforward_diagonal(c), dim)]
        if r >= 2:
            images += [(pushforward_projection(c), dim), (pullback_diagonal(c), dim - D)]
        for image, want in images:
            assert image.is_homogeneous, c
            assert image.is_zero or image.dimension == want, c


@pytest.mark.parametrize("D, r", CASES)
def test_h_monomials_are_products_of_slot_generators(D, r):
    g = QuadricGeometry(D)
    generators = []  # none when d = 0, where h^1 does not exist
    if g.d >= 1:
        generators = [single(g, *(h(1) if j == i else h(0) for j in range(r))) for i in range(r)]
    for exponents in itertools.product(range(g.d + 1), repeat=r):
        p = unit(g, r)
        for gen, e in zip(generators, exponents):
            for _ in range(e):
                p = mul(p, gen)
        assert p == single(g, *map(h, exponents))
    top = single(g, *[h(g.d)] * r)
    for gen in generators:  # one more h in a slot already at h^d vanishes
        assert mul(top, gen).is_zero


def diagonal_lift(g, r):
    """E = diagonal x h^0 x .. x h^0 in arity r >= 2."""
    pad = (h(0),) * (r - 2)
    return Cycle(g, r, frozenset(t + pad for t in diagonal_class(g).terms))


@pytest.mark.parametrize("D, r", [(D, r) for D in range(0, 9) for r in range(1, 4)])
def test_diagonal_maps_are_products_with_the_diagonal(D, r):
    g = QuadricGeometry(D)
    up = diagonal_lift(g, r + 1)
    down = diagonal_lift(g, r) if r >= 2 else None
    for _, c in basis_cycles(g, r):
        assert pushforward_diagonal(c) == mul(transpose(pullback_projection(c), 0, 1), up), c
        if down is not None:
            assert pullback_diagonal(c) == pushforward_projection(mul(c, down)), c


@pytest.mark.parametrize("D", range(0, 7))
@pytest.mark.parametrize("top", [2, 3])
def test_closure_of_nothing_holds_the_diagonal_and_its_lifts(D, top):
    g = QuadricGeometry(D)
    fam = closure(RationalFamily(g, top))
    for r in range(2, top + 1):
        for sigma in itertools.permutations(range(r)):
            assert fam.contains(permute(diagonal_lift(g, r), sigma)), (r, sigma)


def entry(c):
    return _Entry(c.geometry.tables.maps[c.arity], encode_cycle(c))


def coordinate_product(a, b):
    tables = a.geometry.tables
    return _product_vector(tables, tables.maps[a.arity].index, entry(a), entry(b))


@pytest.mark.parametrize("D, r", [(D, r) for D in range(0, 7) for r in (1, 2)])
def test_coordinate_product_of_basis_terms_is_mul(D, r):
    cells = [c for _, c in basis_cycles(QuadricGeometry(D), r)]
    for a, b in itertools.product(cells, repeat=2):
        assert coordinate_product(a, b) == encode_cycle(mul(a, b)), (a, b)


def random_sum(rng, g, piece, r=3):
    """A sum of one to six of the given arity-r terms."""
    return Cycle(g, r, frozenset(rng.sample(piece, rng.randint(1, min(6, len(piece))))))


def pieces_by_dimension(g, r):
    by_dim = {}
    for be in enumerate_basis(g, r):
        by_dim.setdefault(be.dimension, []).append(be.factors)
    return list(by_dim.values())


def cancels(a, b):
    """Whether some non-zero term products of a and b cancel mod 2."""
    g = a.geometry
    pairs = itertools.product(a.terms, b.terms)
    nonzero = sum(not mul(single(g, *s), single(g, *t)).is_zero for s, t in pairs)
    return nonzero > len(mul(a, b).terms)


def test_coordinate_product_of_homogeneous_sums_is_mul():
    rng = random.Random(11)
    cancelled = 0
    for D in range(1, 9):
        g = QuadricGeometry(D)
        pieces = pieces_by_dimension(g, 3)
        for _ in range(40):
            a, b = (random_sum(rng, g, rng.choice(pieces)) for _ in range(2))
            assert coordinate_product(a, b) == encode_cycle(mul(a, b)), (a, b)
            cancelled += cancels(a, b)
    # h^1 x h^0 + h^0 x h^1 squared: both mixed products give h^1 x h^1, which cancels
    g = QuadricGeometry(4)
    c = Cycle(g, 2, frozenset({(h(1), h(0)), (h(0), h(1))}))
    square = Cycle(g, 2, frozenset({(h(2), h(0)), (h(0), h(2))}))
    assert coordinate_product(c, c) == encode_cycle(square)
    assert cancelled > 0


def test_masked_products_at_arity_four_skip_no_nonzero_term_product():
    """One entry meets several partners, so later products read masks that an
    earlier product cached; mul, which forms every term product, is the oracle."""
    rng = random.Random(13)
    cancelled = products = 0
    for D in range(1, 7):
        g = QuadricGeometry(D)
        tables = g.tables
        index = tables.maps[4].index
        pieces = pieces_by_dimension(g, 4)
        for _ in range(6):
            c = random_sum(rng, g, rng.choice(pieces), 4)
            kept = entry(c)
            for _ in range(5):
                e = random_sum(rng, g, rng.choice(pieces), 4)
                for a, b in ((kept, entry(e)), (entry(e), kept)):
                    assert _product_vector(tables, index, a, b) == encode_cycle(mul(c, e)), (c, e)
                products += not mul(c, e).is_zero
                cancelled += cancels(c, e)
    # (h^1 x h^0 + h^0 x h^1) x h^0 x h^0 squared: the mixed products cancel
    g = QuadricGeometry(4)
    pad = (h(0), h(0))
    c = Cycle(g, 4, frozenset({(h(1), h(0)) + pad, (h(0), h(1)) + pad}))
    square = Cycle(g, 4, frozenset({(h(2), h(0)) + pad, (h(0), h(2)) + pad}))
    assert coordinate_product(c, c) == encode_cycle(square)
    assert cancelled > 0 and products > 0


def test_closure_ranks_at_arity_four():
    g = QuadricGeometry(6)
    fam = closure(family_from_generators(g, 4, [known_generator(g, 1)]))
    assert {r: s.rank for r, s in fam.groups.items()} == {1: 4, 2: 20, 3: 112, 4: 676}


def test_closure_ranks_at_arity_three_and_d_twenty():
    g = QuadricGeometry(20)
    fam = closure(family_from_generators(g, 3, [known_generator(g, 1)]))
    assert {r: s.rank for r, s in fam.groups.items()} == {1: 11, 2: 132, 3: 1694}
