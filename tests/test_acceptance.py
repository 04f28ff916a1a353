"""Acceptance suite: one test per acceptance criterion, with pinned bounds.

Each criterion is a single test function so that `pytest -v` prints one
pass/fail line per criterion.  Wall-clock limits are asserted where the
criterion pins one.
"""

import itertools
import random
import time

from chowq.basis import QuadricGeometry, enumerate_basis, h, l, single
from chowq.correspondence import compose, diagonal_class
from chowq.gf2 import Gf2Subspace
from chowq.holes import (
    HoleParams,
    build_mu_zero,
    build_xi,
    dim_In_set,
    first_summand_formula,
    small_splitting_pattern,
    target_cell,
    verify_contradiction,
    vishik_pattern,
)
from chowq.isotropy import all_signatures, in_multi, pr_multi
from chowq.ring import external_product, mul, permute
from chowq.steenrod import binom_mod2, steenrod_k, steenrod_total, steenrod_upto
from chowq.structure import (
    SplittingData,
    allowed_first_witt_indices,
    check_all,
    closure,
    encode_cycle,
    family_from_generators,
    known_generator,
    primordial_cycles,
    splitting_readoff,
)
from test_structure import i1_exclusion_via_steenrod


def test_criterion_01_ring_laws():
    start = time.perf_counter()
    for D in range(0, 7):
        g = QuadricGeometry(D)
        for r in (1, 2):
            basis = [single(g, *be.factors) for be in enumerate_basis(g, r)]
            for x, y in itertools.combinations_with_replacement(basis, 2):
                assert mul(x, y) == mul(y, x)
            for x, y, z in itertools.product(basis, repeat=3):
                assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert time.perf_counter() - start < 30.0


def test_criterion_02_steenrod_homomorphism():
    start = time.perf_counter()
    for D in range(0, 7):
        g = QuadricGeometry(D)
        for r in (1, 2):
            basis = [single(g, *be.factors) for be in enumerate_basis(g, r)]
            images = [steenrod_total(x) for x in basis]
            for (x, sx), (y, sy) in itertools.combinations_with_replacement(
                list(zip(basis, images)), 2
            ):
                assert steenrod_total(mul(x, y)) == mul(sx, sy)
            for x in basis:
                assert steenrod_k(x, 0) == x  # S^0 = id
    g = QuadricGeometry(6)
    b1 = [single(g, *be.factors) for be in enumerate_basis(g, 1)]
    for x, y in itertools.product(b1, repeat=2):
        assert steenrod_total(external_product(x, y)) == external_product(
            steenrod_total(x), steenrod_total(y)
        )
    for be in enumerate_basis(g, 2):
        c = single(g, *be.factors)
        for sigma in ((0, 1), (1, 0)):
            assert steenrod_total(permute(c, sigma)) == permute(
                steenrod_total(c), sigma
            )
    assert time.perf_counter() - start < 60.0


def test_criterion_03_lucas():
    start = time.perf_counter()
    N = 4096
    row = 1  # exact Pascal parities via row XOR recurrence
    for n in range(N + 1):
        got = 0
        for k in range(N + 1):
            if binom_mod2(n, k):
                got |= 1 << k
        assert got == row, n
        row ^= row << 1
    assert time.perf_counter() - start < 5.0


def test_criterion_04_diagonal_neutrality():
    for D in range(0, 9):
        g = QuadricGeometry(D)
        delta = diagonal_class(g)
        for be in enumerate_basis(g, 2):
            c = single(g, *be.factors)
            assert compose(c, delta) == c
            assert compose(delta, c) == c


def test_criterion_05_isotropic_bijectivity():
    for D in range(0, 7):
        g = QuadricGeometry(D)
        for a in range(1, g.d + 1):
            for r in (1, 2):
                sigs = all_signatures(g, a, r)
                offsets, off = [], 0
                for sig in sigs:
                    inner = sig.inner_geometry
                    offsets.append(off)
                    off += (2 * (inner.d + 1)) ** sig.s if sig.s else 1
                vectors = []
                for be in enumerate_basis(g, r):
                    c = single(g, *be.factors)
                    v = 0
                    for i, sig in enumerate(sigs):
                        img = pr_multi(c, sig)
                        if img.arity == 0:
                            v |= (1 if img.terms else 0) << offsets[i]
                        else:
                            v |= encode_cycle(img) << offsets[i]
                    vectors.append(v)
                    # the inverse: summed inclusions reproduce the element
                    total = None
                    for sig in sigs:
                        img = pr_multi(c, sig)
                        if img.is_zero:
                            continue
                        lifted = in_multi(img, sig)
                        total = lifted if total is None else total + lifted
                    assert total == c
                assert Gf2Subspace(vectors).rank == (2 * (g.d + 1)) ** r


def test_criterion_06_first_summand_formula():
    params = HoleParams(4, 3, 1)
    xi = build_xi(build_mu_zero(params), params)
    assert xi == first_summand_formula(params)
    assert target_cell(params) == (h(1), l(2))
    assert target_cell(params) in xi.terms


def test_criterion_07_contradiction_certification():
    start = time.perf_counter()
    brute = verify_contradiction(HoleParams(4, 3, 1), method="brute")
    assert brute["passed"] and brute["cases"] == 4096 and not brute["failures"]
    assert time.perf_counter() - start < 300.0

    start = time.perf_counter()
    bilinear = verify_contradiction(HoleParams(4, 3, 1), method="bilinear")
    assert bilinear["passed"] and bilinear["cases"] == brute["cases"]
    assert time.perf_counter() - start < 300.0

    start = time.perf_counter()
    second = verify_contradiction(HoleParams(5, 4, 2), method="brute")
    assert second["passed"] and second["cases"] == 4096 and not second["failures"]
    assert time.perf_counter() - start < 300.0


def _expected_upto_h(geometry, a, i):
    out = {(h(i * a),)}
    if i % 4 in (1, 3) and (i + 1) * a <= geometry.d:
        out.add((h((i + 1) * a),))
    if i % 4 in (2, 3) and (i + 2) * a <= geometry.d:
        out.add((h((i + 2) * a),))
    return frozenset(out)


def _expected_upto_l(geometry, a, i):
    out = {(l(i * a - 1),)}
    if i % 4 in (1, 3) and (i - 1) * a - 1 >= 0:
        out.add((l((i - 1) * a - 1),))
    if i % 4 in (0, 3) and (i - 2) * a - 1 >= 0:
        out.add((l((i - 2) * a - 1),))
    return frozenset(out)


def test_criterion_08_steenrod_case_tables():
    for nmp in ((4, 3, 1), (5, 4, 2)):
        params = HoleParams(*nmp)
        g, a, d = params.geometry, params.a, params.d
        for i in range(0, d // a + 1):
            got = steenrod_upto(single(g, h(i * a)), 2 * a)
            assert got.terms == _expected_upto_h(g, a, i), (nmp, "h", i)
        for i in range(1, (d + 1) // a + 1):
            got = steenrod_upto(single(g, l(i * a - 1)), 2 * a)
            assert got.terms == _expected_upto_l(g, a, i), (nmp, "l", i)


def test_criterion_09_first_index_exclusion():
    assert i1_exclusion_via_steenrod(5, 2) == "excluded"
    assert i1_exclusion_via_steenrod(5, 1) == "not-excluded"
    assert i1_exclusion_via_steenrod(5, 3) == "not-excluded"
    assert allowed_first_witt_indices(26) == {1, 2, 10}
    # oracle: i1 survives iff it is at most the 2-part of dim - i1
    for dim in range(3, 4096):
        predicate = {
            i1 for i1 in range(1, dim // 2 + 1) if i1 <= ((dim - i1) & -(dim - i1))
        }
        assert allowed_first_witt_indices(dim) == predicate, dim


def _descending_jumps(pattern):
    values = sorted(pattern, reverse=True)
    return list(zip(values, values[1:]))


def _karpenko_allows(hi, lo):
    return (hi - lo) // 2 in allowed_first_witt_indices(hi)


def test_criterion_10_formula_suite():
    assert 10 not in dim_In_set(3, 100)
    assert 26 not in dim_In_set(4, 100)
    for n in range(1, 11):
        s = dim_In_set(n, 1 << (n + 2))
        assert not {v for v in s if 0 < v < (1 << n)}
        assert not {v for v in s if (1 << (n + 1)) - 2 < v < (1 << (n + 1))}
    assert vishik_pattern(2, 3) == {0, 4, 6, 8, 10, 12}
    assert small_splitting_pattern(4, 2) == {0, 16, 24, 28}
    assert len(small_splitting_pattern(4, 2)) - 1 == 3
    # every descending jump hi -> lo drops the Witt index by i1 = (hi - lo)/2, which
    # Karpenko's bound must allow at hi; n = 1 is left out, as its jump 2 -> 0 is below
    # dimension 3
    patterns = [small_splitting_pattern(n, m) for n in range(2, 13) for m in range(1, n + 2)]
    patterns += [vishik_pattern(n, m) for n in range(2, 9) for m in range(1, 7)]
    jumps = [jump for pattern in patterns for jump in _descending_jumps(pattern)]
    assert len(jumps) == 3148
    assert not [(hi, lo) for hi, lo in jumps if not _karpenko_allows(hi, lo)]
    assert small_splitting_pattern(3, 2) == {0, 8, 12}
    assert all(_karpenko_allows(hi, lo) for hi, lo in _descending_jumps({0, 8, 12}))
    assert allowed_first_witt_indices(12) == {1, 2, 4}
    assert not _karpenko_allows(12, 6)  # the mutated pattern {0, 6, 12}: i1 = 3 at 12


def test_criterion_11_structure_suite():
    g = QuadricGeometry(6)  # a = 2, d + 1 = 4
    pi = known_generator(g, 2)
    splitting = SplittingData((2, 2))
    fam3 = closure(family_from_generators(g, 3, [pi], splitting))
    report = primordial_cycles(fam3, splitting)
    assert report.primordial == (pi,)
    assert splitting_readoff(fam3).partial_sums[1] == 2
    results = check_all(fam3)
    assert results["known"].passed
    assert all(r.passed for r in results.values())

    # mutation test: flipping any unseen essential upper cell breaks a checker
    base = closure(family_from_generators(g, 2, [pi], splitting))
    candidates = []
    for be in enumerate_basis(g, 2):
        c = single(g, *be.factors)
        if be.is_essential and c.dimension >= g.D and not base.contains(c):
            candidates.append(c)
    rng = random.Random(20240824)
    rng.shuffle(candidates)
    assert len(candidates) >= 20
    for mutation in candidates[:20]:
        mutated = family_from_generators(g, 2, [pi + mutation], splitting)
        mutated_report = check_all(mutated)
        assert not all(r.passed for r in mutated_report.values()), mutation
