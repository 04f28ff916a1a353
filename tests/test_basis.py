"""Tests for the basis layer: geometry, enumeration, grammar, serialization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowq import basis
from chowq.basis import (
    ArityError,
    BasisElement,
    BasisFactor,
    Cycle,
    CycleSyntaxError,
    FactorTables,
    GeometryError,
    QuadricGeometry,
    _Images,
    cycle,
    cycle_from_json,
    cycle_to_json,
    enumerate_basis,
    h,
    l,
    parse_cycle,
    render_cycle,
    single,
    zero,
)


def test_geometry_basics():
    g = QuadricGeometry(8)
    assert g.d == 4 and g.is_even
    g = QuadricGeometry(7)
    assert g.d == 3 and not g.is_even
    g = QuadricGeometry(0)
    assert g.d == 0 and g.is_even
    with pytest.raises(GeometryError):
        QuadricGeometry(-1)


def test_factor_dimensions():
    g = QuadricGeometry(8)
    assert g.factor_dimension(h(1)) == 7
    assert g.factor_dimension(l(1)) == 1
    with pytest.raises(GeometryError):
        g.check_factor(h(5))
    with pytest.raises(ValueError):
        g.check_factor(BasisFactor("x", 0))


def test_basis_element_grading():
    g = QuadricGeometry(6)
    be = BasisElement(g, (h(1), l(2)))
    assert be.arity == 2
    assert be.dimension == 5 + 2
    assert be.codimension == 12 - 7
    assert be.is_essential
    assert not BasisElement(g, (h(0), h(3))).is_essential
    with pytest.raises(ArityError):
        BasisElement(g, ())


def test_d_zero_geometry():
    g = QuadricGeometry(0)
    assert [f for f in g.factors()] == [h(0), l(0)]
    assert len(enumerate_basis(g, 2)) == 4


def test_enumerate_counts():
    for D in range(0, 9):
        g = QuadricGeometry(D)
        for r in range(1, 4):
            elems = enumerate_basis(g, r)
            assert len(elems) == (2 * (g.d + 1)) ** r
            assert len({e.factors for e in elems}) == len(elems)
            assert all(0 <= e.dimension <= r * D for e in elems)


def test_enumerate_dim_filter_oracle():
    # brute-force filter over all pairs is the oracle for the count of 8
    g = QuadricGeometry(4)
    got = enumerate_basis(g, 2, dim=4)
    brute = [e for e in enumerate_basis(g, 2) if e.dimension == 4]
    assert got == brute
    assert len(got) == 8
    expected = {(h(i), l(i)) for i in range(3)} | {(l(i), h(i)) for i in range(3)}
    expected |= {(l(2), l(2)), (h(2), h(2))}
    assert {e.factors for e in got} == expected


def test_enumerate_by_dimension_matches_the_filtered_walk():
    # the direct listing of one dimension keeps the order of the full enumeration
    for D in range(0, 10):
        g = QuadricGeometry(D)
        for r in range(1, 4):
            every = enumerate_basis(g, r)
            for dim in range(r * D + 1):
                assert enumerate_basis(g, r, dim) == [e for e in every if e.dimension == dim]


def test_enumerate_errors():
    g = QuadricGeometry(4)
    with pytest.raises(ArityError):
        enumerate_basis(g, 0)
    with pytest.raises(ValueError):
        enumerate_basis(g, 1, dim=5)


def test_cycle_addition_cancels():
    g = QuadricGeometry(6)
    a = single(g, h(0), l(2))
    assert (a + a).is_zero
    b = single(g, l(2), h(0))
    s = a + b
    assert len(s.terms) == 2 and (a.terms | b.terms) == s.terms


def test_cycle_mismatch_errors():
    a = single(QuadricGeometry(6), h(0))
    b = single(QuadricGeometry(4), h(0))
    with pytest.raises(GeometryError):
        a + b
    c = single(QuadricGeometry(6), h(0), h(0))
    with pytest.raises(ArityError):
        a + c
    with pytest.raises(ArityError):
        Cycle(QuadricGeometry(6), 1, frozenset({(h(0), h(1))}))


def test_homogeneity_and_dimension():
    g = QuadricGeometry(6)
    a = single(g, h(0), l(1)) + single(g, l(1), h(0))
    assert a.is_homogeneous and a.dimension == 7 and a.codimension == 5
    b = a + single(g, h(0), l(2))
    assert not b.is_homogeneous
    with pytest.raises(ValueError):
        b.dimension
    with pytest.raises(ValueError):
        zero(g, 2).dimension


def test_parse_basic():
    g = QuadricGeometry(6)
    c = parse_cycle("h0 x l2 + l2 x h0", g, 2)
    assert len(c.terms) == 2
    assert render_cycle(parse_cycle("l2 x h0 + h0 x l2", g, 2)) == "h0 x l2 + l2 x h0"
    assert parse_cycle("0", g, 2).is_zero
    assert render_cycle(zero(g, 3)) == "0"


def test_parse_errors():
    g = QuadricGeometry(6)
    with pytest.raises(GeometryError):
        parse_cycle("h9 x l0", g, 2)
    with pytest.raises(CycleSyntaxError):
        parse_cycle("hx x l0", g, 2)
    with pytest.raises(ArityError):
        parse_cycle("h0 x l0", g, 3)


def test_parse_cancellation():
    g = QuadricGeometry(6)
    assert parse_cycle("h0 x l2 + h0 x l2", g, 2).is_zero


@st.composite
def _cycles(draw, max_D=8, max_r=3):
    D = draw(st.integers(min_value=0, max_value=max_D))
    r = draw(st.integers(min_value=1, max_value=max_r))
    g = QuadricGeometry(D)
    basis = g.tables.maps[r].terms  # every arity-r term, precomputed per geometry
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(basis) - 1), max_size=6))
    return cycle(g, r, [basis[i] for i in picks])


@settings(max_examples=10000, deadline=None)
@given(_cycles())
def test_parse_render_roundtrip(c):
    assert parse_cycle(render_cycle(c), c.geometry, c.arity) == c


@settings(max_examples=2000, deadline=None)
@given(_cycles())
def test_json_roundtrip(c):
    assert cycle_from_json(cycle_to_json(c)) == c


def test_render_canonical_order():
    g = QuadricGeometry(6)
    c = cycle(g, 1, [(l(0),), (h(2),), (h(0),), (l(3),)])
    assert render_cycle(c) == "h0 + h2 + l0 + l3"


def _render_by_format(c):
    """The text of a cycle with one f-string per factor: the oracle of the names row."""
    if c.is_zero:
        return "0"
    return " + ".join(" x ".join(f"{'hl'[f & 1]}{f >> 1}" for f in t) for t in c.sorted_terms())


@pytest.mark.parametrize("D", [0, 2, 6, 192])
def test_render_reads_the_names_row_one_factor_at_a_time(D, monkeypatch):
    """The names row gives each factor's old text, and holds only the factors rendered so far."""
    monkeypatch.setattr(basis, "_TABLES", _Images(FactorTables))  # fresh tables for a new geometry
    g = QuadricGeometry(D)
    names = g.tables.names
    assert not names
    rng = random.Random(2004 + D)
    seen = set()
    for r in (1, 2, 3):
        for _ in range(20):
            terms = [tuple(rng.choice(g.factors()) for _ in range(r)) for _ in range(rng.randrange(6))]
            c = cycle(g, r, terms)
            assert render_cycle(c) == _render_by_format(c)
            seen.update(f for t in c.terms for f in t)
            assert set(names) == seen
    for f in g.factors():
        assert render_cycle(single(g, f)) == f"{f.kind}{f.index}"
    assert set(names) == set(g.factors())
