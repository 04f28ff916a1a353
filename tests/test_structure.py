"""Tests for candidate-family closure and the structural checkers."""

import itertools

import pytest

from chowq import basis, structure
from chowq.basis import GeometryError, QuadricGeometry, enumerate_basis, h, l, single
from chowq.correspondence import diagonal_class
from chowq.gf2 import Gf2Subspace
from chowq.isotropy import all_signatures, pr_multi
from chowq.ring import mul, sym, transpose
from chowq.steenrod import steenrod_k
from chowq.structure import (
    FamilyError,
    RationalFamily,
    SplittingData,
    allowed_first_witt_indices,
    binary_cycle,
    check_all,
    check_binary_size,
    check_even_essential,
    check_forbidden,
    check_known,
    check_minimal_diagonal,
    check_pairs,
    check_springer,
    closure,
    decode_cycle,
    diagonal_essential_sum,
    encode_cycle,
    family_from_generators,
    forbidden_cells,
    known_generator,
    minimal_cycles,
    primordial_cycles,
    splitting_readoff,
    witt_index_readoff,
)


def known_family(max_arity=3):
    g = QuadricGeometry(6)
    return closure(
        family_from_generators(
            g, max_arity, [known_generator(g, 2)], SplittingData((2, 2))
        )
    )


def split_pairs_family(D):
    """Closure of all symmetric diagonal pairs h^i x l_i + l_i x h^i."""
    g = QuadricGeometry(D)
    gens = [sym(single(g, h(i), l(i))) for i in range(g.d + 1)]
    return closure(family_from_generators(g, 2, gens))


# ---------------------------------------------------------------------------
# coordinates and splitting data


def test_encode_decode_roundtrip():
    g = QuadricGeometry(4)
    basis = [single(g, *be.factors) for be in enumerate_basis(g, 2)]
    c = basis[0] + basis[7] + basis[13]
    assert decode_cycle(g, 2, encode_cycle(c)) == c
    assert encode_cycle(decode_cycle(g, 2, 0b1011)) == 0b1011


def test_membership_needs_the_family_geometry():
    g6, g8 = QuadricGeometry(6), QuadricGeometry(8)
    fam = family_from_generators(g6, 1, [single(g6, l(1))])
    assert fam.contains(single(g6, l(1)))
    # l0 at D=8 has the same coordinate as l1 at D=6
    with pytest.raises(ValueError, match="different geometry"):
        fam.contains(single(g8, l(0)))
    with pytest.raises(ValueError, match="different geometry"):
        fam.add(single(g8, l(0)))


def test_splitting_data():
    s = SplittingData((2, 2))
    assert s.height == 2
    assert s.partial_sums == (0, 2, 4)
    assert list(s.shells()) == [1, 2]
    with pytest.raises(ValueError):
        SplittingData(())
    with pytest.raises(ValueError):
        SplittingData((1, 0))


# ---------------------------------------------------------------------------
# closure


def test_closure_seeds_nonessential():
    g = QuadricGeometry(4)
    fam = closure(RationalFamily(g, 2))
    for i, j in itertools.product(range(g.d + 1), repeat=2):
        assert fam.contains(single(g, h(i), h(j)))
    assert not fam.contains(single(g, h(0), l(0)))


def test_closure_of_diagonal_contains_its_products():
    g = QuadricGeometry(2)
    delta = diagonal_class(g)
    fam = closure(family_from_generators(g, 2, [delta]))
    assert fam.contains(delta)
    assert fam.contains(mul(delta, single(g, h(1), h(0))))
    assert fam.contains(transpose(delta))


def test_closure_is_idempotent():
    fam = known_family(max_arity=2)
    again = closure(fam)
    for r in (1, 2):
        assert fam.groups[r] == again.groups[r]


# ---------------------------------------------------------------------------
# elementary checkers


def test_springer():
    g = QuadricGeometry(6)
    fam = closure(family_from_generators(g, 1, [single(g, l(2))]))
    res = check_springer(fam)
    assert not res.passed and 2 in res.witnesses
    assert check_springer(known_family(max_arity=2)).passed
    # the middle class of an even-dimensional quadric is exempt by itself
    mid = family_from_generators(g, 1, [single(g, l(3))])
    assert check_springer(mid).passed


def test_binary_size():
    g = QuadricGeometry(8)
    good = RationalFamily(g, 2)
    good.add(binary_cycle(g, 1))  # D - i + 1 = 8
    assert check_binary_size(good).passed
    bad = RationalFamily(g, 2)
    bad.add(binary_cycle(g, 3))  # D - i + 1 = 6
    res = check_binary_size(bad)
    assert not res.passed and res.witnesses == (3,)
    assert binary_cycle(g, 4).terms == {(h(0), l(4)), (l(4), h(0))}
    for i in (-1, 5, True):  # l_i exists for integers 0 <= i <= d only
        with pytest.raises(GeometryError):
            binary_cycle(g, i)


def test_witt_index_readoff():
    g = QuadricGeometry(6)
    fam = RationalFamily(g, 1)
    assert witt_index_readoff(fam) == 0
    fam.add(single(g, l(0)))
    fam.add(single(g, l(1)))
    assert witt_index_readoff(fam) == 2


def test_splitting_readoff_known():
    fam = known_family(max_arity=3)
    assert splitting_readoff(fam).witt_indices == (2, 2)


def test_splitting_readoff_split():
    g = QuadricGeometry(4)
    gens = [single(g, l(i)) for i in range(g.d + 1)]
    fam = closure(family_from_generators(g, 2, gens))
    assert splitting_readoff(fam).witt_indices == (3,)


def test_splitting_readoff_at_height_three():
    # the third step needs arity 4; one arity less stops at step 3
    g = QuadricGeometry(4)
    gens = [known_generator(g, 1)]
    assert splitting_readoff(closure(family_from_generators(g, 4, gens))).witt_indices == (1, 1, 1)
    with pytest.raises(FamilyError, match="need arity 4"):
        splitting_readoff(closure(family_from_generators(g, 3, gens)))


def test_splitting_readoff_insufficient():
    fam = known_family(max_arity=2)
    with pytest.raises(FamilyError):
        splitting_readoff(fam)
    empty = closure(RationalFamily(QuadricGeometry(4), 2))
    with pytest.raises(FamilyError):
        splitting_readoff(empty)
    with pytest.raises(FamilyError):
        splitting_readoff(RationalFamily(QuadricGeometry(4), 2))  # not closed


def test_splitting_readoff_finds_no_step_in_a_span_without_the_diagonal():
    # a closure holds h^0 x h^j1 x .. x l_0 (the diagonal times slot generators),
    # so only a span flagged closed as given can lack every step
    fam = RationalFamily(QuadricGeometry(4), 2)
    fam.closed = True
    with pytest.raises(FamilyError, match="no step found at arity 2"):
        splitting_readoff(fam)


# ---------------------------------------------------------------------------
# minimal and primordial cycles


def test_minimal_cycles_splits_generators():
    g = QuadricGeometry(4)
    b0, b1 = sym(single(g, h(0), l(0))), sym(single(g, h(1), l(1)))
    fam = family_from_generators(g, 2, [b0 + b1, b0])
    fam.closed = True  # the span as given, without running the closure
    assert set(minimal_cycles(fam)) == {b0, b1}
    # the dimension-D identity needs every diagonal cell, which this span lacks
    assert not check_minimal_diagonal(fam).passed


def test_minimal_diagonal_on_full_families():
    assert check_minimal_diagonal(split_pairs_family(4)).passed
    assert check_minimal_diagonal(known_family(max_arity=2)).passed


def test_minimal_cycles_rejects_middle_square():
    g = QuadricGeometry(6)
    fam = closure(family_from_generators(g, 2, [single(g, l(3), l(3))]))
    with pytest.raises(FamilyError):
        minimal_cycles(fam)


def test_primordial_chain_split():
    fam = split_pairs_family(4)
    report = primordial_cycles(fam, SplittingData((1, 1, 1)))
    g = fam.geometry
    expected = [sym(single(g, h(i), l(i))) for i in range(3)]
    assert list(report.primordial) == expected
    assert sorted(report.f_map.values()) == [1, 2, 3]


def test_primordial_chain_known():
    fam = known_family(max_arity=2)
    report = primordial_cycles(fam, SplittingData((2, 2)))
    assert report.primordial == (known_generator(fam.geometry, 2),)
    assert report.f_map == {known_generator(fam.geometry, 2): 1}


def test_primordial_rejects_bad_splitting():
    fam = known_family(max_arity=2)
    with pytest.raises(FamilyError):
        primordial_cycles(fam, SplittingData((2, 3)))


def test_primordial_detects_missing_top_cell():
    g = QuadricGeometry(6)
    broken = sym(single(g, h(2), l(3)))  # staircase with its first step removed
    fam = closure(family_from_generators(g, 2, [broken]))
    with pytest.raises(FamilyError):
        primordial_cycles(fam, SplittingData((2, 2)))


def test_primordial_reports_a_first_shell_cycle_claimed_again():
    # A holds the top cells of both width-2 shells; its derivatives cancel at the
    # diagonal cell 3 (from h^2 x l_3 and h^3 x l_4), so shell 2 picks A again,
    # which takes shell 1's claim and cancels A out; B then covers every cell alone
    g = QuadricGeometry(8)
    a = sym(single(g, h(0), l(1)) + single(g, h(2), l(3)) + single(g, h(3), l(4)))
    b = diagonal_essential_sum(g)
    fam = RationalFamily(g, 2, {2: Gf2Subspace([encode_cycle(a), encode_cycle(b)])})
    fam.closed = True  # the span as given
    assert minimal_cycles(fam) == [b, a]
    with pytest.raises(FamilyError, match="the first shell produced no primordial cycle"):
        primordial_cycles(fam, SplittingData((2, 2, 1)))


# ---------------------------------------------------------------------------
# shell-triangle checkers


def test_forbidden_cells_table():
    g = QuadricGeometry(6)
    s = SplittingData((2, 2))
    assert forbidden_cells(g, s, 0) == set()
    assert forbidden_cells(g, s, 1) == set()
    assert forbidden_cells(g, s, 2) == {(h(1), l(2)), (l(2), h(1))}
    assert (h(0), l(2)) in forbidden_cells(g, s, 3)
    assert check_forbidden(known_generator(g, 2), s).passed
    res = check_forbidden(sym(single(g, h(1), l(2))), s)
    assert not res.passed


def test_pairs():
    g = QuadricGeometry(6)
    s = SplittingData((2, 2))
    assert check_pairs(diagonal_essential_sum(g), s).passed
    assert check_pairs(known_generator(g, 2), s).passed
    res = check_pairs(single(g, h(0), l(1)), s)
    assert not res.passed


def test_pairs_skip_the_cells_past_d_of_a_splitting_too_long():
    g = QuadricGeometry(6)  # d = 3; the pairs of x = 1, 2, 3 stay
    s = SplittingData((g.d + 2,))
    assert check_pairs(diagonal_essential_sum(g), s).passed
    assert check_pairs(single(g, h(1), l(1)), s).witnesses == (((h(1), l(1)), (l(3), h(3))),)


def test_even_essential():
    g = QuadricGeometry(6)
    assert check_even_essential(diagonal_essential_sum(g)).passed
    assert not check_even_essential(single(g, h(0), l(0))).passed
    # below dimension D the parity constraint does not apply
    assert check_even_essential(single(g, h(2), l(0))).passed


# ---------------------------------------------------------------------------
# small-quadric shape


def test_known_generator_shape():
    g = QuadricGeometry(6)
    pi = known_generator(g, 2)
    assert pi == sym(single(g, h(0), l(1)) + single(g, h(2), l(3)))
    with pytest.raises(ValueError):
        known_generator(g, 3)
    for a in (0, -1, -3, True, 1.0, "1"):
        with pytest.raises(ValueError, match="positive integer"):
            known_generator(QuadricGeometry(4), a)


def test_check_known():
    assert check_known(known_family(max_arity=2), SplittingData((2, 2))).passed
    g = QuadricGeometry(6)
    noisy = closure(
        family_from_generators(
            g, 2, [known_generator(g, 2), sym(single(g, h(1), l(2)))]
        )
    )
    assert not check_known(noisy, SplittingData((2, 2))).passed


# ---------------------------------------------------------------------------
# first-index exclusion: the Steenrod witness of Karpenko's bound is the oracle


def i1_exclusion_via_steenrod(D: int, i1_candidate: int) -> str:
    """Mechanize the 2-adic bound on the first higher Witt index.

    With dim(form) = D + 2 and 2^r the largest power of two dividing
    dim(form) - i1: a candidate i1 > 2^r is refuted by applying the order
    2^r Steenrod operation to the forced top cycle and exhibiting a mirror
    asymmetry; otherwise the candidate survives.  Returns "excluded" or
    "not-excluded".

    S^k keeps each factor's kind, raises h^i to h^(i+k) and lowers l_i to
    l_(i-k), so only h^0 x l_(i1-1), a cell of the known cycle, reaches the
    target h^0 x l_(i1-1-2^r), and only l_(i1-1+k) x h^k with 0 <= k <= 2^r
    reaches the partner l_(i1-1) x h^(2^r), through S^k x S^(2^r-k); k = 0
    is the other cell of the known cycle.  Every other such cell that exists
    (i1 - 1 + k <= d) has 1 <= k <= 2^r < i1, so the first shell alone
    forbids it to the hypothetical top cycle: it is the cell x = k, y = k +
    i1 - 1 of forbidden_cells with q = 1 and k = i1.  Nothing can cancel the
    asymmetry, and a candidate that reaches the check is excluded.
    """
    if i1_candidate < 1:
        raise ValueError("the first Witt index must be positive")
    dim_form = D + 2
    v = dim_form - i1_candidate
    if v <= 0:
        raise ValueError("candidate exceeds the dimension of the form")
    two_r = v & -v
    if i1_candidate <= two_r:
        return "not-excluded"

    geometry = QuadricGeometry(D)
    i1 = i1_candidate
    target = (h(0), l(i1 - 1 - two_r))
    partner = (l(i1 - 1), h(two_r))
    image = steenrod_k(binary_cycle(geometry, i1 - 1), two_r)
    if target not in image.terms or partner in image.terms:
        raise RuntimeError(f"S_{two_r} of the top cycle is not mirror-asymmetric at i1={i1}")
    return "excluded"


def test_i1_exclusion():
    assert i1_exclusion_via_steenrod(5, 2) == "excluded"
    assert i1_exclusion_via_steenrod(5, 1) == "not-excluded"
    assert i1_exclusion_via_steenrod(5, 3) == "not-excluded"
    with pytest.raises(ValueError):
        i1_exclusion_via_steenrod(5, 0)
    with pytest.raises(ValueError):
        i1_exclusion_via_steenrod(5, 10)


def _oracle_set(dim):
    return {
        i1
        for i1 in range(1, dim // 2 + 1)
        if i1_exclusion_via_steenrod(dim - 2, i1) == "not-excluded"
    }


def test_allowed_first_witt_indices():
    assert allowed_first_witt_indices(7) == {1, 3}
    assert allowed_first_witt_indices(26) == {1, 2, 10}
    for bad in (2, True, 7.0, "7"):
        with pytest.raises(ValueError, match="at least 3"):
            allowed_first_witt_indices(bad)
    for dim in range(3, 301):
        assert allowed_first_witt_indices(dim) == _oracle_set(dim), dim


def test_allowed_first_witt_indices_builds_no_table():
    before = set(basis._TABLES)
    assert allowed_first_witt_indices(2**40 + 6) == {1, 2, 6}
    assert set(basis._TABLES) <= before


def test_partner_cells_of_an_excluded_candidate_are_first_shell_forbidden():
    # S^k x S^(2^r-k) reaches the partner l_(i1-1) x h^(2^r) only from l_(i1-1+k) x h^k,
    # so the exclusion needs each such cell with k >= 1 to be forbidden by the first shell
    for dim in range(3, 301):
        g = QuadricGeometry(dim - 2)
        for i1 in range(1, g.d + 2):
            two_r = (dim - i1) & -(dim - i1)
            if i1 <= two_r:
                continue
            blocked = forbidden_cells(g, SplittingData((i1,)), i1)
            for k in range(1, min(two_r, g.d - i1 + 1) + 1):
                assert (l(i1 - 1 + k), h(k)) in blocked, (dim, i1, k)


@pytest.mark.parametrize(
    "row, fix",  # S_1 of h^0 x l_1 + l_1 x h^0 at D=5 loses the target, or gains the partner
    [(l(1), [l(1), None]), (h(0), [h(0), h(1), None])],
    ids=["target-lost", "partner-gained"],
)
def test_i1_exclusion_raises_without_the_mirror_asymmetry(monkeypatch, row, fix):
    monkeypatch.setitem(QuadricGeometry(5).tables.squares, row, fix)
    with pytest.raises(RuntimeError, match="mirror-asymmetric"):
        i1_exclusion_via_steenrod(5, 2)


@pytest.mark.parametrize("dim", range(510, 4095, 512))
def test_allowed_first_witt_indices_at_scale(dim):
    """The closed form against the Steenrod oracle, and against i1 <= 2^v, the largest power
    of 2 dividing dim - i1, over the candidates up to dim / 2; the same bound with v read off
    dim in place of dim - i1 is a different set."""
    want = {i1 for i1 in range(1, dim // 2 + 1) if i1 <= (dim - i1) & -(dim - i1)}
    wrong = {i1 for i1 in range(1, dim // 2 + 1) if i1 <= dim & -dim}
    got = allowed_first_witt_indices(dim)
    assert got == _oracle_set(dim)
    assert got == want
    assert got != wrong


# ---------------------------------------------------------------------------
# combined driver


def test_check_all_known_family_passes():
    fam = known_family(max_arity=2)
    report = check_all(fam)
    assert set(report) >= {
        "springer",
        "binary_size",
        "even_essential",
        "forbidden_cells",
        "pairs",
        "primordial",
        "known",
    }
    assert all(res.passed for res in report.values())


def test_check_all_supplement():
    fam = known_family(max_arity=2)
    a = fam.splitting.witt_indices[0]
    inner_g = QuadricGeometry(fam.geometry.D - 2 * a)
    images = []
    for r in range(1, fam.max_arity + 1):
        for sig in all_signatures(fam.geometry, a, r):
            if not 1 <= sig.s <= 2:
                continue
            for member in [decode_cycle(fam.geometry, r, v) for v in fam.groups[r].rows()]:
                img = pr_multi(member, sig)
                if not img.is_zero:
                    images.append(img)
    inner = closure(
        family_from_generators(inner_g, 2, images, SplittingData((2,)))
    )
    assert inner.contains(known_generator(inner_g, 2))
    report = check_all(fam, inner)
    assert report["supplement"].passed

    empty_inner = closure(RationalFamily(inner_g, 2))
    report = check_all(fam, empty_inner)
    assert not report["supplement"].passed

    with pytest.raises(FamilyError):
        check_all(fam, RationalFamily(QuadricGeometry(4), 2))


def supplement_oracle(fam, inner):
    """The supplement witnesses as the signature-outer, member-inner loop lists them."""
    a = fam.splitting.witt_indices[0]
    bad = []
    for r in range(1, fam.max_arity + 1):
        members = [decode_cycle(fam.geometry, r, v) for v in fam.groups[r].rows()]
        for sig in all_signatures(fam.geometry, a, r):
            if not 1 <= sig.s <= inner.max_arity:
                continue
            for member in members:
                image = pr_multi(member, sig)
                if not image.is_zero and not inner.contains(image):
                    bad.append((sig.indices, r))
    return tuple(bad)


@pytest.mark.parametrize(
    "D, a, splitting, max_arity, inner_arity, count",
    [
        (6, 2, (2, 2), 3, 2, 51),
        (14, 4, (4, 4), 2, 2, 15),
        (10, 2, (2, 2, 2), 2, 2, 7),
        (6, 2, (2, 2), 3, 1, 0),  # drops the keys with s = 2, where the 51 above lie
        (10, 2, (2, 2, 2), 3, 2, 143),
    ],
    ids=[
        "6-2-splitting0-3-51",
        "14-4-splitting1-2-15",
        "10-2-splitting2-2-7",
        "6-2-splitting3-3-inner1-0",
        "10-2-splitting4-3-143",
    ],
)
def test_supplement_witnesses_match_the_loop_over_signatures(
    D, a, splitting, max_arity, inner_arity, count
):
    g, inner_g = QuadricGeometry(D), QuadricGeometry(D - 2 * a)
    fam = closure(
        family_from_generators(g, max_arity, [known_generator(g, a)], SplittingData(splitting))
    )
    gens = [known_generator(inner_g, 1)] if inner_arity >= 2 else [single(inner_g, l(inner_g.d))]
    for inner_gens in ([], gens):
        inner = closure(family_from_generators(inner_g, inner_arity, inner_gens))
        report = check_all(fam, inner)["supplement"]
        assert report.witnesses == supplement_oracle(fam, inner)
        assert report.passed == (count == 0) and len(report.witnesses) == count


def test_supplement_needs_splitting_data():
    fam = family_from_generators(QuadricGeometry(8), 2, [known_generator(QuadricGeometry(8), 1)])
    inner = RationalFamily(QuadricGeometry(2), 2)
    with pytest.raises(FamilyError, match="the supplement check needs splitting data"):
        check_all(fam, inner)
    assert "supplement" not in check_all(fam)


def test_inner_geometry_is_checked_before_closing(monkeypatch):
    g = QuadricGeometry(10)
    fam = family_from_generators(g, 3, [known_generator(g, 2)], SplittingData((2, 2, 2)))

    def no_closure(family):
        raise AssertionError("closure ran before the inner geometry was checked")

    monkeypatch.setattr(structure, "closure", no_closure)
    inner = RationalFamily(QuadricGeometry(4), 2)
    with pytest.raises(FamilyError, match="does not match the first Witt index"):
        check_all(fam, inner)


def test_check_all_flags_corruption():
    g = QuadricGeometry(6)
    corrupted = known_generator(g, 2) + sym(single(g, h(1), l(2)))
    fam = family_from_generators(g, 2, [corrupted], SplittingData((2, 2)))
    report = check_all(fam)
    assert not report["forbidden_cells"].passed
