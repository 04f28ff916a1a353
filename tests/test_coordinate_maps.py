"""The coordinate maps the closure reads, against the Cycle-level maps.

For every basis term with D <= 8 and arity <= 3 (both parities of D), and
with D <= 4 at arity 4 (so the third transposition is met), the image of its
coordinate under each map of CoordinateMaps is the encoding of the Cycle-level
image: each adjacent transpose (the term reordered by transpositions[i]),
steenrod_total, and the first-projection pull-back and push-forward.  The
dimension masks cut out homogeneous_components, and each slot shift is the
product with that slot's generator h^0 x .. x h^1 x .. x h^0.  The maps are
linear, so a sum of terms is checked too, where images cancel mod 2.  A table
with one Steenrod bit flipped fails.
"""

import pytest

from chowq.basis import Cycle, QuadricGeometry, apply_table, single
from chowq.correspondence import pullback_projection, pushforward_projection
from chowq.ring import homogeneous_components, transpose
from chowq.steenrod import steenrod_total
from chowq.structure import _Entry, _product_vector, encode_cycle

CASES = [(D, r) for D in range(0, 9) for r in range(1, 4)] + [(D, 4) for D in range(0, 5)]


def mismatches(maps, steenrod, c):
    """The names of the maps whose table image of c differs from the Cycle-level one."""
    v, r = encode_cycle(c), c.arity
    want = {f"swap {i}": transpose(c, i, i + 1) for i in range(r - 1)}
    want["steenrod"] = steenrod_total(c)
    want["pullback"] = pullback_projection(c)
    got = {
        f"swap {i}": sum([1 << maps.index[t] for t in map(swap, c.terms)])
        for i, swap in enumerate(maps.transpositions)
    }
    got["steenrod"] = apply_table(steenrod, v)
    got["pullback"] = v  # h^0 x c has the coordinates of c
    if r >= 2:
        want["pushforward"] = pushforward_projection(c)
        got["pushforward"] = maps.pushforward(v)
    bad = [name for name, image in want.items() if got[name] != encode_cycle(image)]
    pieces = {dim: v & m for dim, m in enumerate(maps.dim_masks) if v & m}
    if pieces != {dim: encode_cycle(p) for dim, p in homogeneous_components(c).items()}:
        bad.append("masks")
    return bad


@pytest.mark.parametrize("D, r", CASES)
def test_tables_agree_with_the_cycle_maps_on_every_basis_term(D, r):
    g = QuadricGeometry(D)
    maps = g.tables.maps[r]
    for k, t in enumerate(maps.terms):
        c = single(g, *t)
        assert maps.dims[k] == c.dimension and maps.dim_masks[c.dimension] >> k & 1, t
        assert mismatches(maps, maps.steenrod, c) == [], t
    everything = Cycle(g, r, frozenset(maps.terms))
    assert mismatches(maps, maps.steenrod, everything) == []


@pytest.mark.parametrize("D", [5, 6])
def test_a_flipped_steenrod_bit_is_caught(D):
    g = QuadricGeometry(D)
    maps = g.tables.maps[2]
    t = (g.tables.h[1], g.tables.l[g.d])
    k = maps.index[t]
    mutated = {j: maps.steenrod[j] for j in range(len(maps.terms))}
    mutated[k] ^= 1 << maps.index[(g.tables.h[0], g.tables.l[0])]
    assert mismatches(maps, mutated, single(g, *t)) == ["steenrod"]
    assert mismatches(maps, maps.steenrod, single(g, *t)) == []


@pytest.mark.parametrize("D, r", CASES)
def test_slot_shifts_are_the_products_with_the_slot_generators(D, r):
    g = QuadricGeometry(D)
    tables, maps = g.tables, g.tables.maps[r]
    assert len(maps.slot_shifts) == r
    for i, (hmask, lmask, stride) in enumerate(maps.slot_shifts):
        if g.d == 0:  # no h^1: the slot generator is zero
            assert hmask == lmask == 0
            continue
        slot = (tables.h[0],) * i + (tables.h[1],) + (tables.h[0],) * (r - 1 - i)
        generator = _Entry(maps, 1 << maps.index[slot])
        for k, t in enumerate(maps.terms):
            v = 1 << k
            want = _product_vector(tables, maps.index, _Entry(maps, v), generator)
            assert (v & hmask) << stride | (v & lmask) >> stride == want, (i, t)
