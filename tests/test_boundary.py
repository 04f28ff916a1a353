"""Golden tests for the representation boundary.

Factors are interned ints inside the kernel; everything a user sees (repr,
ordering, rendered text, JSON, checker witnesses) keeps the strings the
named-tuple representation produced.  The literals below were captured from
that representation.
"""

import copy
import pickle

import pytest

from chowq.basis import (
    ArityError,
    BasisFactor,
    Cycle,
    GeometryError,
    QuadricGeometry,
    cycle,
    cycle_from_json,
    cycle_to_json,
    h,
    l,
    parse_cycle,
    render_cycle,
    single,
)
from chowq.structure import SplittingData, check_forbidden


def test_factor_repr_and_fields():
    assert repr(h(3)) == "BasisFactor(kind='h', index=3)"
    assert str(l(0)) == "BasisFactor(kind='l', index=0)"
    assert (l(4).kind, l(4).index) == ("l", 4)
    assert BasisFactor("h", 2) is h(2)
    assert BasisFactor(kind="l", index=1) is l(1)


def test_factor_and_term_order():
    got = sorted([l(2), h(5), l(0), h(0), h(3), l(1)])
    assert repr(got) == (
        "[BasisFactor(kind='h', index=0), BasisFactor(kind='h', index=3), "
        "BasisFactor(kind='h', index=5), BasisFactor(kind='l', index=0), "
        "BasisFactor(kind='l', index=1), BasisFactor(kind='l', index=2)]"
    )
    terms = sorted([(l(1), h(0)), (h(2), l(0)), (h(0), l(3)), (l(0), l(0)), (h(0), h(1))])
    assert repr(terms) == (
        "[(BasisFactor(kind='h', index=0), BasisFactor(kind='h', index=1)), "
        "(BasisFactor(kind='h', index=0), BasisFactor(kind='l', index=3)), "
        "(BasisFactor(kind='h', index=2), BasisFactor(kind='l', index=0)), "
        "(BasisFactor(kind='l', index=0), BasisFactor(kind='l', index=0)), "
        "(BasisFactor(kind='l', index=1), BasisFactor(kind='h', index=0))]"
    )


def test_render_and_json_of_an_arity_3_cycle():
    g = QuadricGeometry(8)
    c = cycle(g, 3, [(l(2), h(0), h(4)), (h(1), l(3), l(0)), (h(1), h(0), l(4))])
    assert render_cycle(c) == "h1 x h0 x l4 + h1 x l3 x l0 + l2 x h0 x h4"
    assert cycle_to_json(c) == {
        "D": 8,
        "r": 3,
        "terms": [
            [["h", 1], ["h", 0], ["l", 4]],
            [["h", 1], ["l", 3], ["l", 0]],
            [["l", 2], ["h", 0], ["h", 4]],
        ],
    }
    assert cycle_from_json(cycle_to_json(c)) == c


def test_plain_int_factor_codes_render_by_code():
    g = QuadricGeometry(6)
    c = Cycle(g, 1, frozenset({(3,)}))  # the code of l1 as a plain int
    assert render_cycle(c) == "l1"
    assert cycle_to_json(c) == cycle_to_json(single(g, l(1)))


def test_forbidden_cells_witness_text():
    alpha = parse_cycle("h1 x l2 + l2 x h1", QuadricGeometry(6), 2)
    res = check_forbidden(alpha, SplittingData((2, 2)))
    assert [str(w) for w in res.witnesses] == [
        "(BasisFactor(kind='h', index=1), BasisFactor(kind='l', index=2))",
        "(BasisFactor(kind='l', index=2), BasisFactor(kind='h', index=1))",
    ]


def test_public_constructors_reject_bad_input():
    g = QuadricGeometry(6)
    with pytest.raises(ValueError):
        BasisFactor("x", 0)
    with pytest.raises(GeometryError):
        h(-1)
    with pytest.raises(GeometryError):
        single(g, h(4))
    with pytest.raises(GeometryError):
        Cycle(g, 2, frozenset({(h(0), l(4))}))
    with pytest.raises(GeometryError):
        cycle_from_json({"D": 6, "r": 1, "terms": [[["l", 9]]]})
    for flag in (True, False):  # bool is an int subclass, but no factor index
        with pytest.raises(GeometryError):
            BasisFactor("l", flag)
        with pytest.raises(GeometryError):
            cycle_from_json({"D": 6, "r": 1, "terms": [[["l", flag]]]})
    for bad in (True, False, 6.0, "6"):  # D and the arity are ints too, and no bool
        with pytest.raises(GeometryError, match="non-negative integer"):
            QuadricGeometry(bad)
        with pytest.raises(GeometryError, match="non-negative integer"):
            cycle_from_json({"D": bad, "r": 1, "terms": [[["l", 1]]]})
        with pytest.raises(ArityError, match="non-negative integer"):
            Cycle(g, bad)
        with pytest.raises(ArityError, match="non-negative integer"):
            cycle_from_json({"D": 6, "r": bad, "terms": [[["l", 1]]]})
    with pytest.raises(ArityError):
        Cycle(g, 2, frozenset({(h(0), l(1)), (h(0),)}))
    with pytest.raises(TypeError):
        Cycle(g, 1, frozenset({(99,)}))


def test_factors_survive_pickle_and_copy():
    for f in (h(0), l(0), h(7), l(7)):
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.copy(f) is f and copy.deepcopy(f) is f
    c = single(QuadricGeometry(6), h(1), l(2))
    assert pickle.loads(pickle.dumps(c)) == c
