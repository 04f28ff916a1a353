"""Exact minimal cycles (classes of equal columns) against the enumerating version."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowq.basis import QuadricGeometry, h, l
from chowq.gf2 import Gf2Subspace
from chowq.structure import (
    FamilyError,
    RationalFamily,
    SplittingData,
    _require_closed,
    check_all,
    closure,
    decode_cycle,
    family_from_generators,
    known_generator,
    minimal_cycles,
)


def enumerating_minimal_cycles(family, cap=1 << 20):
    """The intersection of all members through each coordinate, over all 2^rank members."""
    _require_closed(family)
    geometry = family.geometry
    maps = geometry.tables.maps[2]
    mask = maps.essential & sum(maps.dim_masks[geometry.D :])
    ess = Gf2Subspace(v & mask for v in family.groups[2].rows())
    if ess.support() >> maps.index[(l(geometry.d), l(geometry.d))] & 1:
        raise FamilyError("family contains l_d x l_d in a rational cycle")
    elements = [v for v in ess.enumerate(cap) if v]
    atoms = {}
    support = ess.support()
    bit = 1
    while bit <= support:
        if support & bit:
            meet = None
            for v in elements:
                if v & bit:
                    meet = v if meet is None else meet & v
            if meet not in ess:
                raise FamilyError("intersection closure violated; the family is inconsistent")
            atoms[meet] = meet
        bit <<= 1
    out = [decode_cycle(geometry, 2, v) for v in atoms]
    return sorted(out, key=lambda c: (c.dimension, c.sorted_terms()))


def outcome(fn, family):
    """The list of atoms, or the type and text of the error raised."""
    try:
        return fn(family)
    except (FamilyError, ValueError) as exc:
        return type(exc), str(exc)


def essential_rank(family):
    maps = family.geometry.tables.maps[2]
    mask = maps.essential & sum(maps.dim_masks[family.geometry.D :])
    return Gf2Subspace(v & mask for v in family.groups[2].rows()).rank


def closed_staircases(max_D):
    for D in range(1, max_D + 1):
        g = QuadricGeometry(D)
        for a in range(1, g.d + 2):
            if (g.d + 1) % a == 0:
                yield D, a, closure(family_from_generators(g, 2, [known_generator(g, a)]))


def test_staircases_match_enumeration():
    checked = []
    for D, a, fam in closed_staircases(16):
        if essential_rank(fam) <= 20:
            want = outcome(enumerating_minimal_cycles, fam)
            assert outcome(minimal_cycles, fam) == want, (D, a)
            checked.append(essential_rank(fam))
    assert max(checked) == 20 and len(checked) > 30


G4 = QuadricGeometry(4)
MAPS4 = G4.tables.maps[2]
# homogeneous essential slices of dimension >= D, without l_d x l_d
SLICES4 = [
    m & MAPS4.essential & ~(1 << MAPS4.index[(l(G4.d), l(G4.d))])
    for m in MAPS4.dim_masks[G4.D :]
    if m & MAPS4.essential
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SLICES4), st.integers(min_value=0, max_value=(1 << 36) - 1)), max_size=8))
def test_arbitrary_spans_match_enumeration(pieces):
    """Spans flagged closed without the closure, so intersection closure may fail."""
    fam = RationalFamily(G4, 2)
    for mask, bits in pieces:
        fam.groups[2].add(mask & bits)
    fam.closed = True
    assert outcome(minimal_cycles, fam) == outcome(enumerating_minimal_cycles, fam)


def test_inconsistent_span_is_rejected():
    g = QuadricGeometry(4)
    index = g.tables.maps[2].index
    a, b, c = (1 << index[t] for t in [(h(0), l(0)), (h(1), l(1)), (l(0), h(0))])
    fam = RationalFamily(g, 2)
    fam.groups[2].add(a | b)
    fam.groups[2].add(b | c)
    fam.closed = True
    with pytest.raises(FamilyError, match="intersection closure"):
        minimal_cycles(fam)


def test_d30_staircase_passes_every_checker():
    g = QuadricGeometry(30)
    fam = family_from_generators(g, 2, [known_generator(g, 8)], SplittingData((8, 8)))
    report = check_all(fam)
    assert {"primordial", "known", "pairs", "forbidden_cells"} <= report.keys()
    assert all(r.passed for r in report.values()), report
    assert essential_rank(closure(fam)) == 36
