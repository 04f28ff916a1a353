"""The pivot-mask reduce of Gf2Subspace against the reduce that walks every row."""

from hypothesis import given, settings
from hypothesis import strategies as st

from chowq.gf2 import Gf2Subspace

vectors = st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1), max_size=16)


def naive_reduce(s: Gf2Subspace, v: int) -> int:
    for p, row in s._rows.items():
        if (v >> p) & 1:
            v ^= row
    return v


def pivot_union(s: Gf2Subspace) -> int:
    return sum(1 << p for p in s._rows)


@settings(max_examples=300, deadline=None)
@given(vectors, st.lists(st.integers(min_value=0, max_value=(1 << 42) - 1), max_size=8))
def test_reduce_matches_naive_reduce(basis, queries):
    s = Gf2Subspace(basis)
    for v in queries + basis:
        assert s.reduce(v) == naive_reduce(s, v)


@settings(max_examples=300, deadline=None)
@given(vectors, vectors)
def test_pivot_mask_tracks_the_rows(first, second):
    s = Gf2Subspace()
    for v in first:
        rank = s.rank
        assert s.add(v) == (s.rank == rank + 1)
        assert s._pivots == pivot_union(s) and v in s
    t = s.copy()
    assert t._pivots == s._pivots == pivot_union(s)
    for v in second:
        t.add(v)
        assert t._pivots == pivot_union(t)
    assert s._pivots == pivot_union(s)  # the copy is independent
    assert Gf2Subspace(first + second) == t
