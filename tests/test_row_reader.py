"""The arity-2 row reader against the cycle-level checkers it replaced.

check_all reads the witnesses of even_essential, forbidden_cells and pairs
off each echelon row of a closed arity-2 group as a bitset, and check_known
buckets the rows by dimension once.  The `*_oracle` functions below are the
earlier bodies, which decode each row into a Cycle and recompute its
dimension; they are compared with the reader row by row, and with the public
checkers and check_known, on the golden families, random generator sets, the
single-cell mutations of the D=6 and D=10 staircases and the D=14, 22 and 30
staircases.  check_all lists each witness once, in first-seen order.  The
last tests pin that, the arity guard and the ("slice", k) witnesses of
check_known.
"""

import pytest

from chowq.basis import (
    ArityError,
    QuadricGeometry,
    enumerate_basis,
    h,
    l,
    single,
    term_is_essential,
)
from chowq.correspondence import derivative
from chowq.gf2 import Gf2Subspace
from chowq.ring import sym
from chowq.structure import (
    CheckResult,
    RationalFamily,
    SplittingData,
    _is_small,
    _read_row,
    check_all,
    check_even_essential,
    check_forbidden,
    check_known,
    check_pairs,
    closure,
    decode_cycle,
    encode_cycle,
    family_from_generators,
    forbidden_cells,
    known_generator,
)
from test_closure_oracle import random_family, staircase
from test_golden import families as golden_families

# ---------------------------------------------------------------------------
# oracles: the checkers as they were, one decoded Cycle at a time


def even_essential_oracle(alpha):
    if alpha.is_zero or alpha.dimension < alpha.geometry.D:
        return CheckResult("even_essential", True)
    n = sum(1 for t in alpha.terms if term_is_essential(t))
    return CheckResult("even_essential", n % 2 == 0, ((alpha.dimension, n),) if n % 2 else ())


def forbidden_oracle(alpha, splitting):
    if alpha.is_zero:
        return CheckResult("forbidden_cells", True)
    cells = forbidden_cells(alpha.geometry, splitting, alpha.dimension - alpha.geometry.D + 1)
    bad = sorted(alpha.terms & cells)
    return CheckResult("forbidden_cells", not bad, tuple(bad))


def pairs_oracle(alpha, splitting):
    geometry = alpha.geometry
    if alpha.is_zero or alpha.dimension < geometry.D:
        return CheckResult("pairs", True)
    k = alpha.dimension - geometry.D
    js, H, L = splitting.partial_sums, geometry.tables.h, geometry.tables.l
    bad = []
    for q in splitting.shells():
        for x in range(js[q - 1], js[q] - k):
            y = js[q - 1] + js[q] - 1 - x
            if x + k > geometry.d or y > geometry.d:
                continue
            left = (H[x], L[x + k])
            right = (L[y], H[y - k])
            if (left in alpha.terms) != (right in alpha.terms):
                bad.append((left, right))
    return CheckResult("pairs", not bad, tuple(bad))


def check_known_oracle(family, splitting):
    geometry = family.geometry
    if not _is_small(geometry, splitting):
        return CheckResult("known", False, ("divisibility",))
    a = splitting.witt_indices[0]
    problems = []
    pi = known_generator(geometry, a)
    if not family.contains(pi):
        problems.append("staircase-not-rational")
    maps = geometry.tables.maps[2]
    for k in range(0, geometry.D + 1):
        mask = maps.essential & maps.dim_masks[geometry.D + k]
        got = Gf2Subspace(v & mask for v in family.groups[2].rows() if v & mask)
        want = Gf2Subspace()
        if k < a:
            for j in range(1, a - k + 1):
                want.add(encode_cycle(derivative(pi, j - 1, a - k - j)))
        if got != want:
            problems.append(("slice", k))
    return CheckResult("known", not problems, tuple(problems))


# ---------------------------------------------------------------------------
# families


def mutations(D, splitting):
    """The a = 2 staircase plus one essential cell of dimension at least D it lacks,
    each a family of its own (all of them, not one per transposition orbit)."""
    g = QuadricGeometry(D)
    base = closure(staircase(D, 2, splitting, 2))
    split, out = SplittingData(splitting), []
    for be in enumerate_basis(g, 2):
        cell = single(g, *be.factors)
        if be.is_essential and cell.dimension >= D and not base.contains(cell):
            out.append(family_from_generators(g, 2, [known_generator(g, 2) + cell], split))
    return out


def splittings(family):
    """The family's own splitting data (None without), one shell, all shells of one,
    and one shell past d + 1, so that pairs and cells past d are skipped."""
    d = family.geometry.d
    own = [family.splitting] if family.splitting is not None else [None]
    return own + [SplittingData((d + 1,)), SplittingData((1,) * (d + 1)), SplittingData((d + 2,))]


def assert_reader_matches(family):
    if family.max_arity < 2:
        return
    closed = closure(family)
    g = closed.geometry
    for split in splittings(family):
        for v in closed.groups[2].rows():
            alpha = decode_cycle(g, 2, v)
            want = [even_essential_oracle(alpha)]
            if split is not None:
                want += [forbidden_oracle(alpha, split), pairs_oracle(alpha, split)]
            got = _read_row(g, split, v)
            assert got[: len(want)] == tuple(r.witnesses for r in want), (split, v)
            assert check_even_essential(alpha) == want[0]
            if split is not None:
                assert [check_forbidden(alpha, split), check_pairs(alpha, split)] == want[1:]
        if split is not None:
            assert check_known(closed, split) == check_known_oracle(closed, split)
    report = check_all(closed)
    for name, check in (("even_essential", even_essential_oracle),
                        ("forbidden_cells", forbidden_oracle),
                        ("pairs", pairs_oracle)):
        if name not in report:
            continue
        args = () if name == "even_essential" else (closed.splitting,)
        members = [decode_cycle(closed.geometry, 2, v) for v in closed.groups[2].rows()]
        bad = list(dict.fromkeys([w for m in members for w in check(m, *args).witnesses]))
        assert report[name] == CheckResult(name, not bad, tuple(bad))


def test_golden_families():
    for name, fam, inner in golden_families():
        assert_reader_matches(fam)
        if inner is not None:
            assert_reader_matches(inner)


@pytest.mark.parametrize("seed", range(60))
def test_random_generator_sets(seed):
    assert_reader_matches(random_family(seed))


@pytest.mark.parametrize("D, splitting, count", [(6, (2, 2), 21), (10, (2, 2, 2), 43)])
def test_single_cell_mutations(D, splitting, count):
    families = mutations(D, splitting)
    assert len(families) == count
    for fam in families:
        assert_reader_matches(fam)


@pytest.mark.parametrize(
    "D, a, splitting", [(14, 4, (4, 4)), (22, 4, (4, 4, 4)), (30, 8, (8, 8))]
)
def test_staircases(D, a, splitting):
    assert_reader_matches(staircase(D, a, splitting, 2))


# ---------------------------------------------------------------------------
# the arity guard and the ("slice", k) witnesses


G6 = QuadricGeometry(6)
SPLIT = SplittingData((2, 2))


@pytest.mark.parametrize(
    "alpha", [single(G6, l(2)), single(G6, h(1), l(2), h(0)), sym(single(G6, h(0), l(1), h(0)))]
)
def test_one_cycle_checkers_need_arity_two(alpha):
    checks = (check_even_essential, check_forbidden, check_pairs)
    for check, args in zip(checks, [(), (SPLIT,), (SPLIT,)]):
        with pytest.raises(ArityError, match="arity-2"):
            check(alpha, *args)


@pytest.mark.parametrize("D, generator", [(6, (l(0), l(0))), (2, (l(0), h(0))), (4, (l(0), h(0))),
                                          (6, (l(0), h(0)))])
def test_check_all_lists_each_witness_once(D, generator):
    """Two rows of the closed group give the witness (D, 1); check_all lists it once."""
    g = QuadricGeometry(D)
    report = check_all(family_from_generators(g, 2, [single(g, *generator)]))
    assert report["even_essential"].witnesses == ((D, 1),)


def with_staircase(*extra):
    return closure(family_from_generators(G6, 2, [known_generator(G6, 2), *extra], SPLIT))


def test_known_flags_a_row_at_k_at_least_a():
    # h0 x l3 + l3 x h0 has dimension D + 3; its products with h-monomials reach
    # every lower slice, so all four differ from the staircase's
    fam = with_staircase(sym(single(G6, h(0), l(3))))
    assert check_known(fam, SPLIT).witnesses == tuple(("slice", k) for k in range(4))
    # the same row alone on top of the closed staircase: only its own slice differs
    fam = with_staircase()
    fam.groups[2].add(encode_cycle(sym(single(G6, h(0), l(3)))))
    assert check_known(fam, SPLIT) == CheckResult("known", False, (("slice", 3),))


def test_known_flags_a_wrong_slice_below_a():
    fam = with_staircase(sym(single(G6, h(2), l(3))))  # dimension D + 1, with a = 2
    assert check_known(fam, SPLIT) == CheckResult("known", False, (("slice", 0), ("slice", 1)))
    # no staircase: the slices k < a are missing, every other one is empty as it should be
    empty = closure(RationalFamily(G6, 2, splitting=SPLIT))
    assert check_known(empty, SPLIT).witnesses == (
        "staircase-not-rational", ("slice", 0), ("slice", 1)
    )
