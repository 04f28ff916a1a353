"""Tests for the bitset-backed GF(2) subspace."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowq.gf2 import Gf2Subspace


def test_basic_membership():
    s = Gf2Subspace([0b101, 0b011])
    assert 0b101 in s and 0b011 in s and 0b110 in s and 0 in s
    assert 0b100 not in s
    assert s.rank == 2


def test_add_reports_growth():
    s = Gf2Subspace()
    assert s.add(0b1)
    assert not s.add(0b1)
    assert s.add(0b10)
    assert not s.add(0b11)


def test_rows_fully_reduced():
    s = Gf2Subspace([0b111, 0b011, 0b001])
    rows = s.rows()
    assert len(rows) == 3
    for i, r in enumerate(rows):
        pivot = r & -r
        for j, other in enumerate(rows):
            if i != j:
                assert not other & pivot


def test_equality_is_subspace_equality():
    a = Gf2Subspace([0b110, 0b011])
    b = Gf2Subspace([0b101, 0b011])
    assert a == b
    assert Gf2Subspace([0b110]) != a
    for other in (0, 0b110, None, [0b110], "x"):  # a subspace never equals a non-subspace
        assert (a == other) is False and (a != other) is True


def test_support_and_enumerate():
    s = Gf2Subspace([0b1010, 0b0011])
    assert s.support() == 0b1011
    members = sorted(s.enumerate())
    assert len(members) == 4 and 0 in members
    assert set(members) == {0, 0b1010, 0b0011, 0b1001}
    big = Gf2Subspace([1 << i for i in range(30)])
    with pytest.raises(ValueError):
        list(big.enumerate(cap=1 << 20))


def test_copy_is_independent():
    a = Gf2Subspace([0b1])
    b = a.copy()
    b.add(0b10)
    assert 0b10 in b and 0b10 not in a


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 24) - 1), max_size=12),
       st.integers(min_value=0))
def test_closure_under_sums(vectors, seed):
    s = Gf2Subspace(vectors)
    rng = random.Random(seed)
    for _ in range(10):
        picks = [v for v in vectors if rng.random() < 0.5]
        acc = 0
        for v in picks:
            acc ^= v
        assert acc in s
    assert s.rank <= len(vectors)
    # reduction residue of a member is zero, of the sum with a fresh unit bit is not
    if vectors:
        fresh = 1 << 30
        assert s.reduce(vectors[0] ^ fresh) == fresh


@pytest.mark.parametrize("seed", range(20))
def test_disjoint_union_of_homogeneous_pieces(seed):
    """Pieces over disjoint bit ranges, like the dimensions of a grading, join to
    the subspace of all their rows; overlapping supports raise ValueError."""
    rng = random.Random(seed)
    width = rng.randint(1, 8)
    vectors = [[rng.getrandbits(width) << width * p for _ in range(rng.randint(0, 6))] for p in range(5)]
    pieces = [Gf2Subspace(piece) for piece in vectors]
    joined = Gf2Subspace.disjoint_union(pieces)
    assert joined == Gf2Subspace([v for piece in vectors for v in piece])
    assert all(v in joined for piece in vectors for v in piece)  # the pivots came along
    support = joined.support()
    if support:  # a piece meeting one bit of another's support
        with pytest.raises(ValueError):
            Gf2Subspace.disjoint_union(pieces + [Gf2Subspace([support & -support])])


def test_disjoint_union_rejects_overlapping_supports():
    with pytest.raises(ValueError, match="overlap"):
        Gf2Subspace.disjoint_union([Gf2Subspace([0b011]), Gf2Subspace([0b110])])
    assert Gf2Subspace.disjoint_union([]) == Gf2Subspace()
