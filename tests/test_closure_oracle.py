"""The worklist closure against the round-based fixpoint it replaced.

`round_closure` re-runs every forced operation on every member in every
round until nothing grows.  It is slow but obviously complete, and since
subspace equality is canonical the two closures must agree with `==` on
every group.
"""

import itertools
import random

import pytest

from chowq.basis import QuadricGeometry, cycle, enumerate_basis, single
from chowq.correspondence import (
    pullback_diagonal,
    pullback_projection,
    pushforward_diagonal,
    pushforward_projection,
)
from chowq.ring import homogeneous_components, mul, permute, sym
from chowq.steenrod import steenrod_total
from chowq.structure import (
    RationalFamily,
    SplittingData,
    closure,
    encode_cycle,
    family_from_generators,
    known_generator,
)


def round_closure(family: RationalFamily) -> RationalFamily:
    fam = family.copy()
    for r in range(1, fam.max_arity + 1):
        index = fam.geometry.tables.maps[r].index
        for t in itertools.product(fam.geometry.tables.h, repeat=r):  # the non-essential seed
            fam.groups[r].add(1 << index[t])

    def feed(c):
        if c.is_zero or not 1 <= c.arity <= fam.max_arity:
            return False
        return fam.groups[c.arity].add(encode_cycle(c))

    changed = True
    while changed:
        changed = False
        for r in range(1, fam.max_arity + 1):
            members = fam.members(r)
            for c in members:
                for piece in homogeneous_components(c).values():
                    changed |= feed(piece)
                for sigma in itertools.permutations(range(r)):
                    changed |= feed(permute(c, sigma))
                changed |= feed(steenrod_total(c))
                changed |= feed(pullback_projection(c))
                changed |= feed(pushforward_diagonal(c))
                if r >= 2:
                    changed |= feed(pushforward_projection(c))
                    changed |= feed(pullback_diagonal(c))
            for c1, c2 in itertools.combinations_with_replacement(members, 2):
                changed |= feed(mul(c1, c2))
    fam.closed = True
    return fam


def staircase(D, a, splitting, max_arity):
    g = QuadricGeometry(D)
    split = SplittingData(splitting) if splitting else None
    return family_from_generators(g, max_arity, [known_generator(g, a)], split)


def d6_mutations():
    """The staircase D=6 (2,2) plus one essential cell it does not contain."""
    g = QuadricGeometry(6)
    base = closure(staircase(6, 2, (2, 2), 2))
    out = []
    for be in enumerate_basis(g, 2):
        cell = single(g, *be.factors)
        if be.is_essential and cell.dimension >= 6 and not base.contains(cell):
            generator = known_generator(g, 2) + cell
            out.append(family_from_generators(g, 2, [generator], SplittingData((2, 2))))
    return out


def random_family(seed):
    """One to two generators of one to two random terms, half of them symmetrised."""
    rng = random.Random(seed)
    max_arity = rng.randint(1, 3)
    D = rng.randint(1, 8 if max_arity < 3 else 5)
    g = QuadricGeometry(D)
    gens = []
    for _ in range(rng.randint(1, 2)):
        r = rng.randint(1, max_arity)
        terms = [tuple(rng.choice(g.factors()) for _ in range(r)) for _ in range(rng.randint(1, 2))]
        c = cycle(g, r, terms)
        gens.append(sym(c) if rng.random() < 0.5 else c)
    return family_from_generators(g, max_arity, gens)


def assert_same_closure(fam):
    before = fam.copy()
    got = closure(fam)
    want = round_closure(fam)
    assert got.closed
    assert got.groups.keys() == want.groups.keys()
    for r in want.groups:
        assert got.groups[r] == want.groups[r], r
    assert fam.groups == before.groups and not fam.closed  # the input is left alone


@pytest.mark.parametrize(
    "D, a, splitting",
    [(6, 2, (2, 2)), (2, 2, (2,)), (8, 1, None)],
)
def test_bench_arity3_families(D, a, splitting):
    assert_same_closure(staircase(D, a, splitting, 3))


def test_d6_mutations():
    families = d6_mutations()
    assert len(families) == 21
    for fam in families:
        assert_same_closure(fam)


@pytest.mark.parametrize("seed", range(60))
def test_random_generator_sets(seed):
    assert_same_closure(random_family(seed))

