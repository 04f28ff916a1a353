"""The worklist closure against the round-based oracle where random sets do not reach.

- D = 0 and D = 1 have d = 0: h^0 is the only h-monomial, so there are no
  slot generators and the seeds are just the units.  Every generator of one
  or two terms at arity up to 3 is tried.
- Every ninth of the 43 arity-2 D=10 (2,2,2) staircase mutations, each with
  one essential cell added: the shape of the mutation jobs in the
  screen-families benchmark.
- A family whose closure needs the total Steenrod operation.  The seeded
  random sets of one or two terms never do, so without it no test would
  notice a closure that drops some or all of the Steenrod components.
- A family whose closure needs a product of two queued vectors whose
  dimensions add up to exactly r*D, the edge of the dimension floor.
"""

import itertools

import pytest

from chowq.basis import QuadricGeometry, cycle, enumerate_basis, parse_cycle
from chowq.structure import RationalFamily, closure, family_from_generators
from test_closure_oracle import assert_same_closure, d10_mutations


@pytest.mark.parametrize("D", [0, 1])
def test_no_slot_generators(D):
    g = QuadricGeometry(D)
    assert_same_closure(RationalFamily(g, 3))
    for r in range(1, 4):
        terms = [be.factors for be in enumerate_basis(g, r)]
        for k in (1, 2):
            for chosen in itertools.combinations(terms, k):
                assert_same_closure(family_from_generators(g, 3, [cycle(g, r, chosen)]))


@pytest.mark.parametrize("index", range(5))
def test_d10_staircase_mutations(index):
    assert_same_closure(d10_mutations()[::9][index])


@pytest.mark.parametrize("max_arity", [2, 3])
def test_a_family_that_needs_steenrod(max_arity):
    g = QuadricGeometry(3)
    fam = family_from_generators(g, max_arity, [parse_cycle("h0 x l0 + l1 x h1", g, 2)])
    assert_same_closure(fam)
    # the Steenrod image of the generator is l0 x h1 plus the generator; products
    # and correspondences alone do not reach l0 x h1
    assert closure(fam).contains(parse_cycle("l0 x h1", g, 2))


def test_a_family_that_needs_a_product_of_dimension_0():
    g = QuadricGeometry(7)
    fam = family_from_generators(g, 2, [parse_cycle("h0 x l1 + l2 x h1", g, 2)])
    assert_same_closure(fam)
    # such a product is the point class l0 x l0, which nothing else reaches here
    assert closure(fam).contains(parse_cycle("l0 x l0", g, 2))
