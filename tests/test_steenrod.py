"""Tests for the Steenrod layer, with an exact big-integer parity oracle."""

import itertools
import math

import pytest

from chowq.basis import Cycle, QuadricGeometry, enumerate_basis, h, l, single, term_dimension, zero
from chowq.holes import HoleParams, build_mu_zero
from chowq.ring import (
    external_product,
    homogeneous_component,
    homogeneous_components,
    mul,
    permute,
)
from chowq.steenrod import (
    binom_mod2,
    steenrod_k,
    steenrod_total,
    steenrod_upto,
)


def steenrod_k_oracle(x, k):
    """The graded square as the piece of the total square in codimension +k."""
    return homogeneous_component(steenrod_total(x), x.dimension - k)


def steenrod_upto_oracle(x, k_max):
    """The total square truncated to the pieces of codimension +0..+k_max."""
    low = x.dimension - k_max
    kept = (t for t in steenrod_total(x).terms if term_dimension(x.geometry, t) >= low)
    return Cycle(x.geometry, x.arity, frozenset(kept))


def test_binom_small():
    assert binom_mod2(4, 2) == 0
    assert binom_mod2(5, 1) == 1
    for n in range(50):
        assert binom_mod2(n, 0) == 1
    assert binom_mod2(3, 5) == 0
    assert binom_mod2(3, -1) == 0


def test_binom_against_exact_parity():
    for n in range(0, 300):
        for k in range(0, n + 2):
            assert binom_mod2(n, k) == math.comb(n, k) % 2, (n, k)


def test_total_on_factors():
    g = QuadricGeometry(8)
    assert steenrod_total(single(g, h(2))) == single(g, h(2)) + single(g, h(4))
    for D in range(0, 9):
        gg = QuadricGeometry(D)
        assert steenrod_total(single(gg, l(0))) == single(gg, l(0))
    assert steenrod_k(single(g, l(3)), 1).is_zero  # C(6,1) even


def test_graded_pieces():
    g = QuadricGeometry(8)
    for be in enumerate_basis(g, 2):
        c = single(g, *be.factors)
        assert steenrod_k(c, 0) == c
        total = steenrod_total(c)
        acc = zero(g, 2)
        for k in range(0, 2 * g.D + 1):
            acc += steenrod_k(c, k)
        assert acc == total
        assert steenrod_upto(c, 2 * g.D) == total


def test_graded_rejects_mixed():
    g = QuadricGeometry(6)
    mixed = single(g, h(0)) + single(g, h(1))
    for k in (-1, 0, 1, 7):
        with pytest.raises(ValueError, match="homogeneous"):
            steenrod_k(mixed, k)
        with pytest.raises(ValueError, match="homogeneous"):
            steenrod_upto(mixed, k)
    assert steenrod_k(zero(g, 1), 3).is_zero
    assert steenrod_upto(zero(g, 1), 3).is_zero


def test_square_table_follows_the_binomial_rule():
    for D in range(0, 21):
        tables = QuadricGeometry(D).tables
        for i in range(tables.d + 1):
            assert len(tables.squares[h(i)]) == tables.d - i + 1
            assert len(tables.squares[l(i)]) == i + 1
            for k, got in enumerate(tables.squares[h(i)]):
                assert got == (h(i + k) if math.comb(i, k) % 2 else None), (D, i, k)
            for k, got in enumerate(tables.squares[l(i)]):
                assert got == (l(i - k) if math.comb(D - i + 1, k) % 2 else None), (D, i, k)
        for f in tables.factors:
            assert tables.steenrod[f] == tuple(g for g in tables.squares[f] if g is not None)


def test_square_rows_follow_the_binomial_rule_at_D_4092():
    tables = QuadricGeometry(4092).tables
    d = tables.d
    rows = [(h(0), 0), (h(d), d), (l(0), 4093), (l(d), 4092 - d + 1)]
    rows += [(l(2**j - 1), 4092 - 2**j + 2) for j in range(1, (d + 1).bit_length())]
    for f, n in rows:
        i = f.index
        if f.kind == "h":
            image = [h(i + k) for k in range(d - i + 1)]
        else:
            image = [l(i - k) for k in range(i + 1)]
        assert tables.squares[f] == [g if math.comb(n, k) % 2 else None for k, g in enumerate(image)]
        assert tables.steenrod[f] == tuple(g for g in tables.squares[f] if g is not None)


@pytest.mark.parametrize("D", range(0, 13))
def test_graded_matches_total_square_oracle(D):
    # Every basis term of arity <= 3 and every order from -1 to r*D + 1.  The two
    # oracles are computed incrementally: the total square is split once per term,
    # and its truncation to orders 0..k is the sum of the pieces so far.
    g = QuadricGeometry(D)
    for r in (1, 2, 3):
        none = zero(g, r)
        for be in enumerate_basis(g, r):
            x = single(g, *be.factors)
            pieces, truncated = homogeneous_components(steenrod_total(x)), none
            for k in range(-1, r * D + 2):
                piece = pieces.get(x.dimension - k, none)
                truncated += piece
                assert steenrod_k(x, k) == piece, (be.factors, k)
                assert steenrod_upto(x, k) == truncated, (be.factors, k)


def test_graded_orders_out_of_range_give_zero():
    for D in (0, 1, 6, 9):
        g = QuadricGeometry(D)
        for r in (1, 2, 3):
            for be in enumerate_basis(g, r):
                x = single(g, *be.factors)
                for k in (-1, -2, -(r * D) - 3):
                    assert steenrod_k(x, k) == zero(g, r)
                    assert steenrod_upto(x, k) == zero(g, r)
                for k in (r * D + 1, r * D + 2, 10 * r * D + 5):
                    assert steenrod_k(x, k) == zero(g, r)
                assert steenrod_upto(x, r * D + 1) == steenrod_total(x)


def test_graded_on_sums_cancels_mod_2():
    g = QuadricGeometry(8)
    # S^1(h1 x h2) and S^1(h2 x h1) are both h2 x h2, as S^1(h2) = C(2, 1) h3 = 0
    x = single(g, h(1), h(2))
    both = x + permute(x, (1, 0))
    assert steenrod_k(x, 1) == single(g, h(2), h(2))
    assert steenrod_k(both, 1).is_zero
    assert steenrod_upto(both, 1) == both
    mu0 = build_mu_zero(HoleParams(4, 3, 1))
    for k in range(-1, 8):
        assert steenrod_k(mu0, k) == steenrod_k_oracle(mu0, k), k
        assert steenrod_upto(mu0, k) == steenrod_upto_oracle(mu0, k), k


def test_ring_homomorphism_exhaustive():
    for D in range(0, 7):
        g = QuadricGeometry(D)
        for r in (1, 2):
            basis = [single(g, *be.factors) for be in enumerate_basis(g, r)]
            for a, b in itertools.product(basis, repeat=2):
                assert steenrod_total(mul(a, b)) == mul(
                    steenrod_total(a), steenrod_total(b)
                )


def test_commutes_with_external_and_permute():
    g = QuadricGeometry(6)
    b1 = [single(g, *be.factors) for be in enumerate_basis(g, 1)]
    for a, b in itertools.product(b1, repeat=2):
        assert steenrod_total(external_product(a, b)) == external_product(
            steenrod_total(a), steenrod_total(b)
        )
    for be in enumerate_basis(g, 3):
        c = single(g, *be.factors)
        for sigma in itertools.permutations(range(3)):
            assert steenrod_total(permute(c, sigma)) == permute(
                steenrod_total(c), sigma
            )


def test_staircase_identity():
    # a=1, b=4, D=24: the order-2a image of each staircase term shifts as predicted
    g = QuadricGeometry(24)
    a, b = 1, 4
    for i in (1, 2, 3):
        src = single(g, h(0), h((i - 1) * b + a), l(i * b + a - 1))
        want = single(g, h(0), h((i - 1) * b + 2 * a), l(i * b - 1))
        assert steenrod_k(src, 2 * a) == want


def expected_upto_h(geometry, a, i):
    out = {(h(i * a),)}
    if i % 4 in (1, 3) and (i + 1) * a <= geometry.d:
        out.add((h((i + 1) * a),))
    if i % 4 in (2, 3) and (i + 2) * a <= geometry.d:
        out.add((h((i + 2) * a),))
    return frozenset(out)


def expected_upto_l(geometry, a, i):
    out = {(l(i * a - 1),)}
    if i % 4 in (1, 3) and (i - 1) * a - 1 >= 0:
        out.add((l((i - 1) * a - 1),))
    if i % 4 in (0, 3) and (i - 2) * a - 1 >= 0:
        out.add((l((i - 2) * a - 1),))
    return frozenset(out)


@pytest.mark.parametrize("nmp", [(4, 3, 1), (5, 4, 2)])
def test_case_tables(nmp):
    params = HoleParams(*nmp)
    g, a, d = params.geometry, params.a, params.d
    for i in range(0, d // a + 1):
        got = steenrod_upto(single(g, h(i * a)), 2 * a)
        assert got.terms == expected_upto_h(g, a, i), ("h", i)
    for i in range(1, (d + 1) // a + 1):
        got = steenrod_upto(single(g, l(i * a - 1)), 2 * a)
        assert got.terms == expected_upto_l(g, a, i), ("l", i)
