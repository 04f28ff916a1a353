"""Tests for the graded ring layer: products, permutations, components."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowq.basis import (
    ArityError,
    Cycle,
    GeometryError,
    QuadricGeometry,
    cycle,
    enumerate_basis,
    h,
    l,
    single,
    zero,
)
from chowq.ring import (
    essential_part,
    external_product,
    homogeneous_component,
    homogeneous_components,
    intersection,
    mul,
    mul_factor,
    permute,
    sym,
    transpose,
    unit,
)


def test_mul_factor_rules():
    g = QuadricGeometry(6)
    assert mul_factor(g, h(1), l(3)) == single(g, l(2))
    assert mul_factor(g, h(2), h(1)) == single(g, h(3))
    assert mul_factor(g, h(2), h(2)).is_zero  # h^4 = 0 for d=3
    assert mul_factor(g, l(3), l(3)).is_zero  # (7)(4) even
    g4 = QuadricGeometry(4)
    assert mul_factor(g4, l(2), l(2)) == single(g4, l(0))  # (5)(3) odd
    assert mul_factor(g4, h(2), h(1)).is_zero
    for g in (QuadricGeometry(4), QuadricGeometry(6)):
        for f in g.factors():
            assert mul_factor(g, h(0), f) == single(g, f)


def test_lower_l_products_vanish():
    # oracle: l_j = h^(d-j) l_d, so l_i l_j = h^(2d-i-j) l_d^2 which needs i=j=d
    for D in range(0, 9):
        g = QuadricGeometry(D)
        for i in range(g.d + 1):
            for j in range(g.d + 1):
                prod = mul_factor(g, l(i), l(j))
                if (i, j) != (g.d, g.d):
                    assert prod.is_zero
        via_h = mul_factor(g, h(g.d - 0), l(g.d)) if g.d else None
        if via_h is not None:
            assert via_h == single(g, l(0))


def test_mul_bilinear():
    g = QuadricGeometry(8)
    a = single(g, h(0), l(3))
    assert mul(a, single(g, h(1), h(1))) == single(g, h(1), l(2))
    b = a + single(g, l(3), h(0))
    assert mul(b, single(g, h(1), h(0))) == single(g, h(1), l(3)) + single(g, l(2), h(0))


def test_mul_errors():
    g = QuadricGeometry(6)
    with pytest.raises(ArityError):
        mul(single(g, h(0)), single(g, h(0), h(0)))
    with pytest.raises(GeometryError):
        mul(single(g, h(0)), single(QuadricGeometry(4), h(0)))


def test_mul_associative_commutative_exhaustive():
    for D in range(0, 7):
        g = QuadricGeometry(D)
        basis = [single(g, *be.factors) for be in enumerate_basis(g, 1)]
        for a, b in itertools.product(basis, repeat=2):
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(basis, repeat=3):
            assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_grading_additivity():
    for D in range(0, 7):
        g = QuadricGeometry(D)
        for r in (1, 2):
            basis = [single(g, *be.factors) for be in enumerate_basis(g, r)]
            for a, b in itertools.product(basis, repeat=2):
                p = mul(a, b)
                if not p.is_zero:
                    assert p.codimension == a.codimension + b.codimension


def test_unit_identity():
    for D in range(0, 7):
        g = QuadricGeometry(D)
        for r in range(1, 4):
            e = unit(g, r)
            for be in enumerate_basis(g, r):
                c = single(g, *be.factors)
                assert mul(e, c) == c and mul(c, e) == c


def test_external_product():
    g = QuadricGeometry(6)
    assert external_product(single(g, h(1)), single(g, l(2), h(0))) == single(
        g, h(1), l(2), h(0)
    )
    assert external_product(zero(g, 1), single(g, l(0))).is_zero
    s = cycle(g, 1, [(h(0),), (h(1),)])
    assert external_product(s, single(g, l(0))) == single(g, h(0), l(0)) + single(
        g, h(1), l(0)
    )


def test_permute_action():
    g = QuadricGeometry(6)
    a = single(g, h(0), l(2))
    assert permute(a, (1, 0)) == single(g, l(2), h(0))
    assert permute(a, (0, 1)) == a
    b = single(g, h(0), h(1), l(2))
    assert permute(b, (2, 0, 1)) == single(g, l(2), h(0), h(1))
    with pytest.raises(ValueError):
        permute(a, (0, 0))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_permute_group_action(data):
    g = QuadricGeometry(6)
    r = data.draw(st.integers(min_value=1, max_value=3))
    fs = g.factors()
    terms = data.draw(
        st.lists(st.tuples(*[st.sampled_from(fs) for _ in range(r)]), max_size=5)
    )
    a = cycle(g, r, terms)
    s = tuple(data.draw(st.permutations(list(range(r)))))
    t = tuple(data.draw(st.permutations(list(range(r)))))
    composed = tuple(s[t[j]] for j in range(r))
    assert permute(permute(a, s), t) == permute(a, composed)


def test_sym():
    g = QuadricGeometry(6)
    assert sym(single(g, h(0), l(1))) == single(g, h(0), l(1)) + single(g, l(1), h(0))
    assert sym(single(g, h(1), h(1))).is_zero
    assert len(sym(single(g, h(0), h(1), l(2))).terms) == 6
    # sym of sym vanishes for arity >= 2 since r! is even
    for r in (2, 3):
        fs = g.factors()
        a = cycle(g, r, [tuple(fs[:r]), tuple(fs[1 : r + 1])])
        assert sym(sym(a)).is_zero


def test_reorderings_run_no_second_check(monkeypatch):
    """sym and permute reorder the terms of a checked cycle: no Cycle.__post_init__ runs, and a
    non-zero result of a homogeneous input keeps its dimension without summing it again."""
    g = QuadricGeometry(6)
    a, mixed = single(g, h(0), h(1), l(2)), cycle(g, 2, [(h(0), l(1)), (h(1), l(1))])
    checks = []
    post_init = Cycle.__post_init__
    monkeypatch.setattr(Cycle, "__post_init__", lambda c: checks.append(c) or post_init(c))
    images = [sym(a), permute(a, (2, 0, 1)), transpose(a, 0, 2), sym(mixed)]
    assert checks == []
    assert [c.dimension for c in images[:3]] == [a.dimension] * 3 and "_dims" in vars(images[0])
    assert "_dims" not in vars(images[3]) and not images[3].is_homogeneous
    zero_image = sym(images[0])  # cancels to zero: no dimension is passed on
    assert zero_image.is_zero and "_dims" not in vars(zero_image)
    with pytest.raises(ValueError, match="non-zero"):
        zero_image.dimension


def test_components_and_essential():
    g = QuadricGeometry(6)
    a = single(g, h(0), h(1)) + single(g, h(0), l(1))
    assert essential_part(a) == single(g, h(0), l(1))
    b = single(g, h(0), l(1)) + single(g, h(0), l(2))
    assert homogeneous_component(b, 7) == single(g, h(0), l(1))
    comps = homogeneous_components(b)
    assert set(comps) == {7, 8}
    assert sum(comps.values(), zero(g, 2)) == b


def test_intersection():
    g = QuadricGeometry(6)
    a = single(g, h(0), l(1)) + single(g, l(1), h(0))
    b = single(g, l(1), h(0)) + single(g, h(2), l(2))
    assert intersection(a, b) == single(g, l(1), h(0))
    assert intersection(a, a) == a
    c = single(g, h(2), l(2))
    assert intersection(intersection(a, b), c) == intersection(a, intersection(b, c))
