"""Oracle tests for the table-driven kernel.

The per-geometry tables are checked against the rule-based definitions the
kernel used before it was table-driven; those rules live only here now.  The
brute certifier's hoisted xi (precomputed S_2a(x) * weight parts, summed per
selection) is checked against the public build_xi.
"""

import random

import pytest

from chowq.basis import QuadricGeometry, h, l, single
from chowq.holes import (
    HoleParams,
    _inner_parts,
    _xi_from_parts,
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
# the brute certifier's hoisted xi


def _parts(params, gens):
    parts = [build_mu_zero(params)] + gens
    return parts, _inner_parts(params, parts)


def _mu(parts, selection):
    mu = parts[0]
    for k, gen in enumerate(parts[1:]):
        if selection >> k & 1:
            mu = mu + gen
    return mu


@pytest.mark.parametrize("nmp", [(4, 3, 1), (5, 4, 2)])
def test_hoisted_xi_matches_build_xi(nmp):
    params = HoleParams(*nmp)
    parts, inners = _parts(params, mu_prime_generators(params))
    rng = random.Random(2004)
    for selection in rng.sample(range(1 << (len(parts) - 1)), 64):
        want = build_xi(_mu(parts, selection), params)
        assert _xi_from_parts(parts, inners, selection, params) == want, selection


def test_mutated_generators_fail_on_the_cases_build_xi_finds():
    params = HoleParams(4, 3, 1)
    gens = mu_prime_generators(params)
    chi = gens[3]  # chi_2 on the first slot
    gens[3] = chi + single(params.geometry, *chi.sorted_terms()[0])
    parts, inners = _parts(params, gens)
    target = target_cell(params)
    cases = range(1 << len(gens))
    hoisted = {c for c in cases if target not in _xi_from_parts(parts, inners, c, params)}
    direct = {c for c in cases if target not in build_xi(_mu(parts, c), params)}
    assert hoisted == direct
    assert hoisted
