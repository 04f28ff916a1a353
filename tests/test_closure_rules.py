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
"""

import itertools

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
from chowq.structure import RationalFamily, closure

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
