"""Tests for composition, the diagonal class, pull/push maps, derivatives."""

import itertools

import pytest

from chowq.basis import ArityError, QuadricGeometry, enumerate_basis, h, l, single, zero
from chowq.correspondence import (
    compose,
    delta_pullback_q,
    derivative,
    diagonal_class,
    pullback_diagonal,
    pullback_projection,
    pushforward_diagonal,
    pushforward_projection,
)
from chowq.ring import essential_part, mul


def test_compose_rules():
    g = QuadricGeometry(10)
    assert compose(single(g, h(2), l(0)), single(g, h(0), l(5))) == single(g, h(2), l(5))
    assert compose(single(g, l(3), h(1)), single(g, h(1), l(2))).is_zero
    assert compose(single(g, h(1), l(4)), single(g, h(4), l(2))) == single(g, h(1), l(2))


def test_compose_middle_pairing():
    # for even D with odd (D+1)(d+1), l_d also pairs with l_d
    g = QuadricGeometry(4)
    assert compose(single(g, h(0), l(2)), single(g, l(2), l(1))) == single(g, h(0), l(1))
    g6 = QuadricGeometry(6)
    assert compose(single(g6, h(0), l(3)), single(g6, l(3), l(1))).is_zero


def test_compose_arity_errors():
    g = QuadricGeometry(6)
    with pytest.raises(ArityError):
        compose(single(g, h(0)), single(g, l(0)))
    assert compose(single(g, h(0)), single(g, l(0), h(1))) == single(g, h(1))


def test_compose_associative_exhaustive():
    for D in range(0, 5):
        g = QuadricGeometry(D)
        b2 = [single(g, *be.factors) for be in enumerate_basis(g, 2)]
        for a, b, c in itertools.product(b2, repeat=3):
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_diagonal_class_formula():
    g = QuadricGeometry(2)
    assert diagonal_class(g) == (
        single(g, h(0), l(0)) + single(g, l(0), h(0))
        + single(g, h(1), l(1)) + single(g, l(1), h(1))
    )
    g4 = QuadricGeometry(4)
    assert (h(2), h(2)) in diagonal_class(g4).terms
    g0 = QuadricGeometry(0)
    assert diagonal_class(g0) == (
        single(g0, h(0), l(0)) + single(g0, l(0), h(0)) + single(g0, h(0), h(0))
    )


def test_diagonal_neutral():
    for D in range(0, 9):
        g = QuadricGeometry(D)
        delta = diagonal_class(g)
        for be in enumerate_basis(g, 2):
            c = single(g, *be.factors)
            assert compose(c, delta) == c
            assert compose(delta, c) == c


def test_projection_maps():
    g = QuadricGeometry(6)
    a = single(g, h(2), l(1))
    assert pullback_projection(a) == single(g, h(0), h(2), l(1))
    assert pushforward_projection(single(g, l(0), h(2), l(1))) == single(g, h(2), l(1))
    assert pushforward_projection(single(g, h(1), h(2), l(1))).is_zero
    # push after pull is zero; diagonal pull after projection pull is the identity
    for be in enumerate_basis(g, 2):
        c = single(g, *be.factors)
        assert pushforward_projection(pullback_projection(c)).is_zero
        assert pullback_diagonal(pullback_projection(c)) == c


def test_diagonal_maps():
    g = QuadricGeometry(6)
    assert pullback_diagonal(single(g, h(1), l(3), h(0))) == single(g, l(2), h(0))
    g2 = QuadricGeometry(2)
    assert pushforward_diagonal(single(g2, h(0))) == diagonal_class(g2)


def test_projection_formula_spot():
    # pushing the pulled-back cycle against l_0 x (units) recovers the cycle
    for D in range(0, 5):
        g = QuadricGeometry(D)
        mask = single(g, l(0), h(0), h(0))
        for be in enumerate_basis(g, 2):
            c = single(g, *be.factors)
            assert pushforward_projection(mul(pullback_projection(c), mask)) == c


def test_derivative():
    g = QuadricGeometry(6)
    assert derivative(single(g, h(0), l(2)), 0, 1) == single(g, h(0), l(1))
    a = single(g, h(0), l(2)) + single(g, l(2), h(0))
    assert derivative(a, 1, 1) == single(g, h(1), l(1)) + single(g, l(1), h(1))
    with pytest.raises(ValueError):
        derivative(single(g, h(0), l(2)), 1, 2)
    g8 = QuadricGeometry(8)
    base = single(g8, h(1), l(3))
    for i in range(3):
        for j in range(3 - i):
            der = derivative(base, i, j)
            assert len(der.terms) == 1
            assert essential_part(der) == der


def test_derivative_checks_its_orders_before_the_zero_shortcut():
    """A negative or non-int order is named, also on the zero cycle; "exceeds" is for the cap."""
    g = QuadricGeometry(6)
    for c in (zero(g, 2), single(g, h(0), l(3))):
        for i, j, bad in [(-1, 0, "i=-1"), (0, -2, "j=-2"), (True, 0, "i=True"), (0, 1.0, "j=1.0")]:
            with pytest.raises(ValueError, match=f"order {bad} is not a non-negative") as exc:
                derivative(c, i, j)
            assert type(exc.value) is ValueError
    with pytest.raises(ValueError, match="exceeds 3"):
        derivative(single(g, h(0), l(3)), 2, 2)
    assert derivative(zero(g, 2), 5, 5) == zero(g, 2)


def test_derivative_preserves_essential_counts():
    g = QuadricGeometry(8)
    a = single(g, h(0), l(2)) + single(g, l(2), h(0))
    for i in range(3):
        for j in range(3 - i):
            der = derivative(a, i, j)
            assert len(essential_part(der).terms) == 2


def test_delta_pullback_q():
    g = QuadricGeometry(8)
    assert delta_pullback_q(single(g, h(0), h(1), h(1), l(3))) == single(g, h(1), l(2))
    assert delta_pullback_q(single(g, h(1), h(0), l(0), l(3))).is_zero
    for be in enumerate_basis(g, 2):
        c = single(g, *be.factors)
        wide = single(g, h(0), h(0), *be.factors)
        assert delta_pullback_q(wide) == c
    with pytest.raises(ArityError):
        delta_pullback_q(single(g, h(0), h(0)))


def test_delta_pullback_q_matches_composite():
    # cross-check against two first-position diagonal pull-backs plus a permutation
    from chowq.ring import permute

    g = QuadricGeometry(6)
    for be in enumerate_basis(g, 2):
        wide = single(g, be.factors[0], h(1), be.factors[1], l(2))
        direct = delta_pullback_q(wide)
        rearranged = permute(wide, (0, 2, 1, 3))
        composite = pullback_diagonal(
            permute(pullback_diagonal(rearranged), (1, 2, 0))
        )
        assert direct == permute(composite, (1, 0))
