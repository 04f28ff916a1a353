"""Closed groups have homogeneous echelon rows, which the one-cycle checks need.

check_all reads even_essential, forbidden_cells and pairs off the arity-2
rows of a closed family, taking each row's dimension from its lowest bit,
without splitting the rows.  That is sound because a closed group is graded,
and the reduced echelon basis of a graded subspace is the union of the
unique reduced bases of its pieces.  These tests check the claim on closed
families and pin the contract of the public checkers check_even_essential,
check_forbidden and check_pairs: the zero cycle passes and an inhomogeneous
cycle raises ValueError, also under python -O.
"""

import itertools

import pytest

from chowq.basis import QuadricGeometry, cycle, enumerate_basis, parse_cycle, render_cycle, zero
from chowq.structure import (
    SplittingData,
    check_even_essential,
    check_forbidden,
    check_pairs,
    closure,
    decode_cycle,
    family_from_generators,
)
from test_closure_oracle import random_family, staircase
from test_golden import families as golden_families


def assert_rows_homogeneous(fam):
    closed = closure(fam)
    for r in closed.groups:
        for v in closed.groups[r].rows():
            member = decode_cycle(closed.geometry, r, v)
            assert member.is_homogeneous, (r, render_cycle(member))


def test_golden_families():
    for name, fam, inner in golden_families():
        assert_rows_homogeneous(fam)
        if inner is not None:
            assert_rows_homogeneous(inner)


def test_d30_staircase():
    assert_rows_homogeneous(staircase(30, 8, (8, 8), 2))


def sweep(D):
    """Arity-3 families of one generator: every one- and two-term cycle for D <= 1,
    every one-term cycle of arity up to 3 for D = 2, 3 and of arity 1 for D = 4..6."""
    g = QuadricGeometry(D)
    top = 3 if D <= 3 else 1
    for r in range(1, top + 1):
        terms = [be.factors for be in enumerate_basis(g, r)]
        for k in (1, 2) if D <= 1 else (1,):
            for chosen in itertools.combinations(terms, k):
                yield family_from_generators(g, 3, [cycle(g, r, chosen)])


@pytest.mark.parametrize("D", range(7))
def test_arity3_sweep(D):
    for fam in sweep(D):
        assert_rows_homogeneous(fam)


def test_random_generator_sets():
    for seed in range(60):
        assert_rows_homogeneous(random_family(seed))


G6 = QuadricGeometry(6)
SPLIT = SplittingData((2, 2))
CHECKERS = [
    check_even_essential,
    lambda alpha: check_forbidden(alpha, SPLIT),
    lambda alpha: check_pairs(alpha, SPLIT),
]


@pytest.mark.parametrize("check", CHECKERS)
def test_checkers_need_a_homogeneous_cycle(check):
    assert check(zero(G6, 2)).passed
    with pytest.raises(ValueError):
        check(parse_cycle("h0 x l0 + h1 x l2", G6, 2))  # dimensions 6 and 7
