"""Tests for the projection/inclusion maps and the direct-sum decomposition."""

import random

import pytest

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
)
from chowq.gf2 import Gf2Subspace
from chowq.isotropy import (
    IsotropySignature,
    all_signatures,
    coordinate_routes,
    descend,
    generic_point_pullback,
    in_multi,
    in_single,
    pr_all,
    pr_multi,
    pr_single,
)
from chowq.structure import encode_cycle


def test_signature_validation():
    IsotropySignature(2, 8, (0, 2, 7, 8))
    with pytest.raises(ValueError):
        IsotropySignature(2, 8, (3,))
    with pytest.raises(ValueError):
        IsotropySignature(0, 8, (0,))
    with pytest.raises(GeometryError):
        IsotropySignature(3, 4, (0,))
    for bad in [(1.5, 4, (1.5,)), (1, 4, (True,)), (1, 4.0, (1,)), (True, 4, (1,))]:
        with pytest.raises(ValueError, match="need an int Witt index"):  # bools and non-ints
            IsotropySignature(*bad)
    sig = IsotropySignature(2, 8, (1, 2, 2, 8))
    assert sig.s == 2 and sig.inner_geometry.D == 4


def test_single_maps():
    g = QuadricGeometry(8)
    assert pr_single(single(g, l(3)), 2) == single(QuadricGeometry(4), l(1))
    assert pr_single(single(g, h(1)), 2).is_zero
    inner = QuadricGeometry(4)
    assert in_single(single(inner, l(1)), 2) == single(g, l(3))
    for be in enumerate_basis(inner, 1):
        c = single(inner, *be.factors)
        assert pr_single(in_single(c, 2), 2) == c


def test_pr_multi_rules():
    g = QuadricGeometry(8)
    sig = IsotropySignature(2, 8, (2, 2))
    assert pr_multi(single(g, h(1), l(3)), sig).is_zero
    assert pr_multi(single(g, h(3), l(3)), sig) == single(QuadricGeometry(4), h(1), l(1))
    sig12 = IsotropySignature(2, 8, (1, 2))
    assert pr_multi(single(g, h(1), l(3)), sig12).is_zero
    assert pr_multi(single(g, l(1), l(3)), sig12) == single(QuadricGeometry(4), l(1))


def test_in_then_pr_identity_and_orthogonality():
    for D in (4, 6):
        g = QuadricGeometry(D)
        for a in range(1, g.d + 1):
            inner = QuadricGeometry(D - 2 * a)
            for r in (1, 2):
                sigs = all_signatures(g, a, r)
                for sig in sigs:
                    if sig.s == 0:
                        continue
                    for be in enumerate_basis(inner, sig.s):
                        c = single(inner, *be.factors)
                        back = pr_multi(in_multi(c, sig), sig)
                        assert back == c
                        for other in sigs:
                            if other is sig or other.s != sig.s:
                                continue
                            assert pr_multi(in_multi(c, sig), other).is_zero


def test_direct_sum_bijectivity():
    for D in range(2, 7):
        g = QuadricGeometry(D)
        for a in range(1, g.d + 1):
            for r in (1, 2):
                sigs = all_signatures(g, a, r)
                offsets = []
                off = 0
                for sig in sigs:
                    inner = sig.inner_geometry
                    offsets.append(off)
                    off += (2 * (inner.d + 1)) ** sig.s if sig.s else 1
                vectors = []
                for be in enumerate_basis(g, r):
                    c = single(g, *be.factors)
                    v = 0
                    for k, sig in enumerate(sigs):
                        img = pr_multi(c, sig)
                        if img.arity == 0:
                            v |= (1 if img.terms else 0) << offsets[k]
                        else:
                            v |= encode_cycle(img) << offsets[k]
                    vectors.append(v)
                sub = Gf2Subspace(vectors)
                assert sub.rank == (2 * (g.d + 1)) ** r == len(vectors)
                assert off == (2 * (g.d + 1)) ** r


def test_sum_of_inclusions_is_inverse():
    for D in (4, 6):
        g = QuadricGeometry(D)
        for a in range(1, g.d + 1):
            for r in (1, 2):
                sigs = all_signatures(g, a, r)
                for be in enumerate_basis(g, r):
                    c = single(g, *be.factors)
                    total = None
                    for sig in sigs:
                        img = pr_multi(c, sig)
                        if img.is_zero:
                            continue
                        lifted = in_multi(img, sig)
                        total = lifted if total is None else total + lifted
                    assert total == c


def test_generic_point_pullback():
    g = QuadricGeometry(6)
    assert generic_point_pullback(single(g, h(0), h(1), l(2))) == single(g, h(1), l(2))
    assert generic_point_pullback(single(g, h(1), l(2), l(0))).is_zero
    a = single(g, h(0), h(1)) + single(g, h(0), l(2))
    assert generic_point_pullback(a) == single(g, h(1)) + single(g, l(2))
    with pytest.raises(ArityError):
        generic_point_pullback(single(g, h(0)))


def test_descend():
    g = QuadricGeometry(8)
    assert descend(single(g, h(0), h(3), l(3)), 2) == single(QuadricGeometry(4), h(1), l(1))
    assert descend(single(g, h(0), h(2), l(2)), 2) == single(QuadricGeometry(4), h(0), l(0))
    assert descend(single(g, h(1), h(3), l(3)), 2).is_zero


# ---------------------------------------------------------------------------
# pr_all: every signature at once


def oracle_pairs(alpha, sig):
    """(term, image) for each term the per-signature projection, as it was written
    before pr_all, sends to a non-zero image."""
    inner = sig.inner_geometry
    tables = alpha.geometry.tables
    down = [None] * (2 * sig.a) + inner.tables.factors
    slots = [
        None if i == sig.a else tables.l[i] if i < sig.a else tables.h[sig.D - i]
        for i in sig.indices
    ]
    shifted = [j for j, f in enumerate(slots) if f is None]
    fixed = [(j, f) for j, f in enumerate(slots) if f is not None]
    pairs = []
    for term in alpha.terms:
        if all(term[j] == f for j, f in fixed):
            out = tuple(down[term[j]] for j in shifted)
            if None not in out:
                pairs.append((term, out))
    return pairs


def pr_multi_oracle(alpha, sig):
    return cycle(sig.inner_geometry, sig.s, [out for _, out in oracle_pairs(alpha, sig)])


def oracle_components(c, a):
    """{signature indices: image} over the non-zero images of the per-signature oracle."""
    images = {sig.indices: pr_multi_oracle(c, sig) for sig in all_signatures(c.geometry, a, c.arity)}
    return {key: img for key, img in images.items() if not img.is_zero}


def cases():
    """(geometry, a, r) for D <= 8, every a with 2a <= D, arity <= 3."""
    for D in range(2, 9):
        g = QuadricGeometry(D)
        for a in range(1, D // 2 + 1):
            for r in (1, 2, 3):
                yield g, a, r


def test_pr_all_matches_oracle_on_basis_terms():
    for g, a, r in cases():
        everything = cycle(g, r, [be.factors for be in enumerate_basis(g, r)])
        want = {term: {} for term in everything.terms}
        for sig in all_signatures(g, a, r):  # the oracle on each term, one signature at a time
            for term, out in oracle_pairs(everything, sig):
                want[term][sig.indices] = cycle(sig.inner_geometry, sig.s, [out])
        for term, images in want.items():
            got = pr_all(single(g, *term), a)
            assert len(got) == 1  # each term lies in exactly one summand
            assert got == images


def test_pr_all_matches_oracle_on_random_sums():
    rng = random.Random(20261018)
    for g, a, r in cases():
        basis = [be.factors for be in enumerate_basis(g, r)]
        for _ in range(3):
            c = cycle(g, r, rng.sample(basis, rng.randint(0, min(len(basis), 12))))
            got = pr_all(c, a)
            assert got == oracle_components(c, a)
            for key, img in got.items():
                assert pr_multi(c, IsotropySignature(a, g.D, key)) == img


def test_pr_all_components_rebuild_the_input():
    rng = random.Random(8)
    for g, a, r in cases():
        basis = [be.factors for be in enumerate_basis(g, r)]
        for c in (cycle(g, r, basis), cycle(g, r, rng.sample(basis, len(basis) // 2))):
            total = cycle(g, r)
            for key, img in pr_all(c, a).items():
                total = total + in_multi(img, IsotropySignature(a, g.D, key))
            assert total == c


def test_pr_all_keeps_s_zero_keys():
    g = QuadricGeometry(8)
    got = pr_all(single(g, l(1), h(0)), 2)
    assert got == {(1, 8): cycle(QuadricGeometry(4), 0, [()])}


def test_coordinate_routes_match_pr_all_on_every_term():
    """D <= 10, every a with 2a <= D, arity <= 3: the table's key and inner coordinate
    name the one component pr_all gives the term."""
    for D in range(2, 11):
        g = QuadricGeometry(D)
        for a in range(1, g.d + 1):
            inner = QuadricGeometry(D - 2 * a)
            for r in (1, 2, 3):
                terms, routes = g.tables.maps[r].terms, coordinate_routes(D, a, r)
                assert len(routes) == len(terms)
                for t, (key, k) in zip(terms, routes):
                    s = key.count(a)
                    image = Cycle(inner, s, frozenset({inner.tables.maps[s].terms[k]}))
                    assert pr_all(single(g, *t), a) == {key: image}


def test_pr_all_and_pr_multi_guards():
    g = QuadricGeometry(4)
    c = single(g, h(0), l(2))
    assert pr_all(cycle(g, 2), 1) == {}
    with pytest.raises(ValueError):
        pr_all(c, 0)
    with pytest.raises(GeometryError):
        pr_all(c, 3)
    with pytest.raises(GeometryError):
        pr_multi(c, IsotropySignature(1, 6, (1, 1)))
    with pytest.raises(ArityError):
        pr_multi(c, IsotropySignature(1, 4, (1,)))
