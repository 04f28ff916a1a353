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
    zero,
)
from chowq.correspondence import (
    compose,
    derivative,
    pullback_diagonal,
    pushforward_diagonal,
    pushforward_projection,
)
from chowq.holes import HoleParams, build_mu_zero, build_xi
from chowq.isotropy import IsotropySignature, in_multi
from chowq.ring import external_product, mul
from chowq.structure import (
    CheckResult,
    FamilyError,
    RationalFamily,
    SplittingData,
    check_forbidden,
    check_known,
    check_minimal_diagonal,
    closure,
    minimal_cycles,
)


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
    term = (h(0), l(0))
    for terms in ([term] * 2, [term], [], {term}, set(), (term,), ()):  # cycle() takes these
        with pytest.raises(TypeError, match="frozenset"):
            Cycle(g, 2, terms)


def test_factors_survive_pickle_and_copy():
    for f in (h(0), l(0), h(7), l(7)):
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.copy(f) is f and copy.deepcopy(f) is f
    c = single(QuadricGeometry(6), h(1), l(2))
    assert pickle.loads(pickle.dumps(c)) == c


# ---------------------------------------------------------------------------
# guards of the cycle operations and checkers


def test_composition_and_push_pull_guards():
    g = QuadricGeometry(6)
    with pytest.raises(GeometryError):
        compose(single(g, h(0), l(1)), single(QuadricGeometry(4), h(0), l(1)))
    with pytest.raises(ArityError, match="at least 1"):
        compose(zero(g, 0), single(g, h(0), l(1)))
    with pytest.raises(ArityError):
        pushforward_projection(single(g, l(0)))
    with pytest.raises(ArityError):
        pullback_diagonal(single(g, h(1)))
    with pytest.raises(ArityError):
        pushforward_diagonal(zero(g, 0))


def test_derivative_guards():
    g = QuadricGeometry(6)
    with pytest.raises(ArityError):
        derivative(single(g, h(0), h(0), l(3)), 0, 0)
    nothing = zero(g, 2)
    assert derivative(nothing, 5, 5) is nothing  # a zero cycle comes back unchanged
    with pytest.raises(ValueError, match="homogeneous"):
        derivative(single(g, l(0), l(1)) + single(g, l(0), l(2)), 0, 0)
    with pytest.raises(ValueError, match="at least D"):
        derivative(single(g, l(0), l(1)), 0, 0)


def test_inclusion_checks_the_inner_geometry_and_arity():
    sig = IsotropySignature(1, 6, (1, 0))  # one core position: inner arity 1 over D = 4
    with pytest.raises(GeometryError):
        in_multi(single(QuadricGeometry(6), h(0)), sig)
    with pytest.raises(ArityError, match="inner arity 1"):
        in_multi(single(QuadricGeometry(4), h(0), h(0)), sig)


def test_scalar_product_and_external_product_across_geometries():
    g = QuadricGeometry(6)
    one = Cycle(g, 0, frozenset({()}))
    assert mul(one, one) == one
    assert mul(one, zero(g, 0)).is_zero
    with pytest.raises(GeometryError):
        external_product(single(g, h(0)), single(QuadricGeometry(4), h(0)))


def test_family_guards_and_check_results():
    g = QuadricGeometry(6)
    family = RationalFamily(g, 2)
    for bad in (single(g, h(0), h(0), h(0)), Cycle(g, 0, frozenset({()}))):
        with pytest.raises(ArityError, match="outside 1..2"):
            family.add(bad)
    flat = closure(RationalFamily(g, 1))
    with pytest.raises(FamilyError, match="need an arity-2 group"):
        minimal_cycles(flat)
    assert check_minimal_diagonal(flat) == CheckResult(
        "minimal_diagonal", False, ("minimal cycles need an arity-2 group",)
    )
    # d + 1 = 5 is odd, so a first Witt index of 2 cannot belong to a small form
    assert check_known(closure(RationalFamily(QuadricGeometry(8), 2)), SplittingData((2,))) == (
        CheckResult("known", False, ("divisibility",))
    )
    assert CheckResult("springer", True) and not CheckResult("springer", False, (0,))


def test_build_xi_guards():
    params = HoleParams(4, 3, 1)
    g = params.geometry
    # h^0 x h^3 x l_4 has dimension 49, not mu0's 51, so its non-zero xi has dimension 21
    with pytest.raises(ValueError, match="xi has dimension 21"):
        build_xi(single(g, h(0), h(3), l(4)), params)
    # an inhomogeneous mu stops at the Steenrod square, so xi is never inhomogeneous
    with pytest.raises(ValueError, match="homogeneous input"):
        build_xi(build_mu_zero(params) + single(g, h(0), h(3), l(4)), params)
    with pytest.raises(ValueError, match="arity 3"):
        build_xi(single(g, h(0), l(4)), params)
