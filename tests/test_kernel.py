"""Oracle tests for the table-driven kernel.

The per-geometry tables are checked against the rule-based definitions the
kernel used before it was table-driven; those rules live only here now.  The
brute certifier's walk over the defect selections (the target bit of xi
updated from the block table of target bits, one flipped part at a time) is
checked case by case against the public build_xi.
"""

import random

import pytest

from chowq.basis import QuadricGeometry, h, l, single
from chowq.holes import (
    HoleParams,
    _target_rows,
    _walk,
    build_mu_zero,
    build_xi,
    mu_prime_generators,
    target_cell,
)
from chowq.ring import mul_factor_raw
from chowq.steenrod import binom_mod2, steenrod_factor

# ---------------------------------------------------------------------------
# rule-based oracles


def rule_product(g, a, b):
    d = g.d
    if a.kind == "h" and b.kind == "h":
        s = a.index + b.index
        return h(s) if s <= d else None
    if a.kind == "h":
        a, b = b, a
    if b.kind == "h":
        s = a.index - b.index
        return l(s) if s >= 0 else None
    if a.index == d and b.index == d and ((g.D + 1) * (d + 1)) % 2 == 1:
        return l(0)
    return None


def rule_partners(g, f):
    out = [l(f.index)] if f.kind == "h" else [h(f.index)]
    if f.kind == "l" and f.index == g.d and ((g.D + 1) * (g.d + 1)) % 2 == 1:
        out.append(l(g.d))
    return out


def rule_steenrod(g, f):
    if f.kind == "h":
        return [
            h(f.index + k)
            for k in range(f.index + 1)
            if f.index + k <= g.d and binom_mod2(f.index, k)
        ]
    n = g.D - f.index + 1
    return [l(f.index - k) for k in range(f.index + 1) if binom_mod2(n, k)]


def rule_dimension(g, f):
    return g.D - f.index if f.kind == "h" else f.index


# ---------------------------------------------------------------------------
# tables against the rules


def test_tables_match_rules_up_to_D_40():
    parities = set()
    for D in range(41):
        g = QuadricGeometry(D)
        t = g.tables
        fs = g.factors()
        parities.add((D + 1) * (g.d + 1) % 2)
        assert t.valid == frozenset(fs)
        assert [t.factors[f] for f in fs] == fs
        for a in fs:
            assert t.dims[a] == rule_dimension(g, a)
            assert sorted(t.partners[a]) == sorted(rule_partners(g, a))
            assert list(t.steenrod[a]) == rule_steenrod(g, a)
            assert steenrod_factor(g, a) == rule_steenrod(g, a)
            for b in fs:
                want = rule_product(g, a, b)
                assert t.prod[a][b] is want, (D, a, b)
                assert mul_factor_raw(g, a, b) is want
    assert parities == {0, 1}


def test_tables_are_shared_per_dimension():
    assert QuadricGeometry(12).tables is QuadricGeometry(12).tables
    assert QuadricGeometry(12).tables is not QuadricGeometry(13).tables


# ---------------------------------------------------------------------------
# the brute certifier's walk over the defect selections


def _parts(params, gens):
    parts = [build_mu_zero(params)] + gens
    return parts, _target_rows(params, parts)


def _mu(parts, selection):
    mu = parts[0]
    for k, gen in enumerate(parts[1:]):
        if selection >> k & 1:
            mu = mu + gen
    return mu


@pytest.mark.parametrize("nmp", [(4, 3, 1), (5, 4, 2)])
def test_hoisted_xi_matches_build_xi(nmp):
    """Every selection at (4,3,1), 64 seeded ones at (5,4,2); each from 0 and mid-way."""
    params = HoleParams(*nmp)
    target = target_cell(params)
    parts, rows = _parts(params, mu_prime_generators(params))
    n_cases = 1 << (len(parts) - 1)
    rng = random.Random(2004)
    for lo, hi in ((0, n_cases), (1000, 2500)):
        picked = range(lo, hi) if nmp == (4, 3, 1) else sorted(rng.sample(range(lo, hi), 64))
        seen = []
        for case, bit in _walk(rows, lo, hi):
            if case in picked:
                assert bit == (target in build_xi(_mu(parts, case), params)), case
                seen.append(case)
        assert seen == list(picked)


def test_mutated_generators_fail_on_the_cases_build_xi_finds():
    params = HoleParams(4, 3, 1)
    gens = mu_prime_generators(params)
    chi = gens[3]  # chi_2 on the first slot
    gens[3] = chi + single(params.geometry, *chi.sorted_terms()[0])
    parts, rows = _parts(params, gens)
    target = target_cell(params)
    cases = range(1 << len(gens))
    walked = {c for c, bit in _walk(rows, 0, len(cases)) if not bit}
    direct = {c for c in cases if target not in build_xi(_mu(parts, c), params)}
    assert walked == direct
    assert walked


def test_walk_evaluates_the_quadratic_form_of_any_table():
    """Random rows exercise the off-diagonal bits that the real blocks leave at 0."""
    rng = random.Random(2004)
    rows = [rng.getrandbits(9) for _ in range(9)]
    for lo, hi in ((0, 256), (100, 200)):
        cases = []
        for case, bit in _walk(rows, lo, hi):
            chosen = case << 1 | 1
            want = sum((row & chosen).bit_count() for x, row in enumerate(rows) if chosen >> x & 1)
            assert bit == want & 1, case
            cases.append(case)
        assert cases == list(range(lo, hi))
