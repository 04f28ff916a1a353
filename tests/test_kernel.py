"""Oracle tests for the table-driven kernel.

The per-geometry tables are checked against the rule-based definitions the
kernel used before it was table-driven; those rules live only here now.  The
table of target bits is checked against its definition by compose and
delta_q^*, one composite per block.  The brute certifier's evaluation of
the defect selections (the quadratic form of that table, one bit per case)
is checked case by case against the public build_xi, and the exact rule
of the bilinear certifier against brute on real and random tables.
"""

import random

import pytest

from chowq import basis, holes
from chowq.basis import FactorTables, GeometryError, QuadricGeometry, _Images, h, l, single
from chowq.correspondence import compose, delta_pullback_q
from chowq.holes import (
    HoleParams,
    _brute,
    _exact,
    _inner_parts,
    _target_rows,
    build_mu_zero,
    build_xi,
    mu_prime_generators,
    target_cell,
    verify_contradiction,
)
from chowq.ring import mul_factor, mul_factor_raw
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


def rule_target_rows(params, parts):
    """Bit y of row x: the target cell is a term of delta_q^*(compose(inner_y, x))."""
    target = target_cell(params)
    inners = _inner_parts(params, parts)
    return [
        sum(
            1 << y
            for y, inner in enumerate(inners)
            if target in delta_pullback_q(compose(inner, x))
        )
        for x in parts
    ]


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
            assert sorted(t.quotients[l(0)][a]) == sorted(rule_partners(g, a))
            assert list(t.steenrod[a]) == rule_steenrod(g, a)
            assert steenrod_factor(g, a) == rule_steenrod(g, a)
            quotients = t.quotients[a]
            for b in fs:
                want = rule_product(g, a, b)
                assert t.prod[a][b] is want, (D, a, b)
                assert mul_factor_raw(g, a, b) is want
                assert list(quotients[b]) == [f for f in fs if rule_product(g, f, b) is a]
    assert parities == {0, 1}


def test_roots_match_square_rows_up_to_D_40():
    """roots[top][s][k] is u exactly when squares[u][k] is s, for every k <= top <= 8."""
    for D in range(41):
        g = QuadricGeometry(D)
        t, fs = g.tables, g.factors()
        for top in range(9):
            for s in fs:
                row = t.roots[top][s]
                assert len(row) == top + 1
                for k in range(top + 1):
                    want = [u for u in fs if k < len(t.squares[u]) and t.squares[u][k] is s]
                    assert want == ([] if row[k] is None else [row[k]]), (D, top, s, k)
    fresh = FactorTables(24)
    assert not fresh.roots
    assert fresh.roots[2][l(3)] == [l(3), l(4), None]  # C(21, 1) is odd, C(20, 2) even
    assert list(fresh.roots) == [2] and list(fresh.roots[2]) == [l(3)]


def test_shift_matches_the_h_rows_of_the_product_table_up_to_D_40():
    """shift(f, k) is entry f of the product row of h^k, for every factor f and k <= d."""
    for D in range(41):
        t = QuadricGeometry(D).tables
        for k in range(t.d + 1):
            row = t.prod[h(k)]
            assert all(t.shift(f, k) is row[f] for f in t.factors), (D, k)
    fresh = FactorTables(24)
    assert [fresh.shift(f, 3) for f in (h(9), h(10), l(3), l(2))] == [h(12), None, l(0), None]
    assert not fresh.prod


def test_tables_are_shared_per_dimension():
    assert QuadricGeometry(12).tables is QuadricGeometry(12).tables
    assert QuadricGeometry(12).tables is not QuadricGeometry(13).tables


# ---------------------------------------------------------------------------
# every table is built on first read


def test_product_rows_are_built_one_at_a_time():
    parities = set()
    for D in range(2, 12):
        g = QuadricGeometry(D)
        t = FactorTables(D)
        assert not t.prod
        parities.add(t.middle_square)
        built = set()
        for a in [l(g.d)] + g.factors():  # the l_d row first, alone
            row = t.prod[a]
            built.add(a)
            assert t.prod.keys() == built
            assert row == [rule_product(g, a, b) for b in t.factors], (D, a)  # by code
    assert parities == {False, True}


def test_a_certificate_builds_few_product_rows(monkeypatch):
    monkeypatch.setattr(basis, "_TABLES", _Images(FactorTables))
    params = HoleParams(8, 5, 2)
    assert verify_contradiction(params)["passed"]
    tables = params.geometry.tables
    assert tables is basis._TABLES[params.D]
    assert 0 < len(tables.prod) < (2 * params.d + 2) // 10


def test_factor_helpers_reject_factors_outside_the_geometry():
    g = QuadricGeometry(4)
    t = g.tables
    before = set(t.squares), set(t.steenrod), set(t.prod)
    with pytest.raises(GeometryError):
        steenrod_factor(g, l(7))
    with pytest.raises(GeometryError):
        g.factor_dimension(h(3))
    for a, b in [(l(7), h(0)), (h(0), l(7)), (h(3), h(1))]:
        with pytest.raises(GeometryError):
            mul_factor_raw(g, a, b)
        with pytest.raises(GeometryError):
            mul_factor(g, a, b)
    assert (set(t.squares), set(t.steenrod), set(t.prod)) == before


# ---------------------------------------------------------------------------
# the brute certifier's evaluation of every defect selection


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
    """Every selection at (4,3,1); at (5,4,2) 64 seeded ones, and 64 more from 1000..2499."""
    params = HoleParams(*nmp)
    target = target_cell(params)
    parts, rows = _parts(params, mu_prime_generators(params))
    n_cases = 1 << (len(parts) - 1)
    rng = random.Random(2004)
    if nmp == (4, 3, 1):
        picked = range(n_cases)
    else:
        picked = rng.sample(range(n_cases), 64) + rng.sample(range(1000, 2500), 64)
    fails = _brute(rows)
    for case in picked:
        assert (not fails >> case & 1) == (target in build_xi(_mu(parts, case), params)), case


def test_mutated_generators_fail_on_the_cases_build_xi_finds():
    params = HoleParams(4, 3, 1)
    gens = mu_prime_generators(params)
    chi = gens[3]  # chi_2 on the first slot
    gens[3] = chi + single(params.geometry, *chi.sorted_terms()[0])
    parts, rows = _parts(params, gens)
    target = target_cell(params)
    direct = sum(1 << c for c in range(1 << len(gens)) if target not in build_xi(_mu(parts, c), params))
    assert _brute(rows) == direct
    assert direct


def _agree(rows):
    """_exact passes exactly when _brute's mask is 0, and reports one of brute's failures."""
    fails, found = _brute(rows), _exact(rows)
    assert (found == []) == (fails == 0) and len(found) <= 1, rows
    assert all(fails >> case & 1 for case in found), rows


@pytest.mark.parametrize("size", range(1, 11))
def test_brute_evaluates_the_quadratic_form_of_any_table(size):
    """Random rows exercise the off-diagonal bits that the real blocks leave at 0.

    1 to 10 parts make planes of 1 to 512 cases."""
    rng = random.Random(2004 + size)
    rows = [rng.getrandbits(size) for _ in range(size)]
    fails = 0
    for case in range(1 << (size - 1)):
        chosen = case << 1 | 1
        want = sum((row & chosen).bit_count() for x, row in enumerate(rows) if chosen >> x & 1)
        if not want & 1:
            fails |= 1 << case
    assert _brute(rows) == fails
    _agree(rows)


def test_exact_agrees_with_brute_on_sparse_tables():
    """2 to 13 rows: B00 and a few pairs of cells that cancel in q (Bxy and Byx, B0x and
    Bx0, B0x and Bxx, for x, y >= 1), then 0 to 2 random bits flipped."""
    rng = random.Random(2004)
    passed, sizes = 0, set()
    for _ in range(1000):
        size = rng.randint(2, 13)
        cells = [(0, 0)]
        for _ in range(rng.randint(0, size)):
            x, y = rng.randrange(1, size), rng.randrange(size)
            cells += [(x, y), (y, x)] if y else [(0, x), rng.choice([(x, 0), (x, x)])]
        cells += [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.choice([0, 0, 1, 2]))]
        rows = [0] * size
        for x, y in cells:
            rows[x] ^= 1 << y
        _agree(rows)
        found = _exact(rows)
        passed += found == []
        sizes.update([case.bit_count() for case in found] or [None])
    assert 300 < passed < 700 and sizes == {None, 0, 1, 2}  # cases 0, {x} and {x, y} are seen


def test_a_symmetric_off_diagonal_pair_passes(monkeypatch):
    """B12 = B21 = 1 cancels in q: both rules and the certificate pass."""
    params = HoleParams(4, 3, 1)
    rows = [1, 1 << 2, 1 << 1] + [0] * (3 * params.j_count - 2)
    assert _brute(rows) == 0 and _exact(rows) == []
    monkeypatch.setattr(holes, "_target_rows", lambda params, parts: rows)
    cert = verify_contradiction(params, method="bilinear")
    assert cert["passed"] is True and cert["failures"] == []
    assert cert["blocks"] == {"0,0": 1, "1,2": 1, "2,1": 1}


def test_a_linear_term_is_reported_before_its_pair():
    """B22 leaves s_2 and B12 leaves s_1 s_2 in q - 1: q is 0 on {2} alone, 1 on {1, 2}."""
    rows = [1, 1 << 2, 1 << 2]
    assert _brute(rows) == 1 << 0b10 and _exact(rows) == [0b10]


# ---------------------------------------------------------------------------
# the table of target bits against one composite per block

TRIPLES_UP_TO_7 = [
    (n, m, p) for n in range(4, 8) for m in range(3, n) for p in range(1, m - 1)
]


@pytest.mark.parametrize("nmp", TRIPLES_UP_TO_7)
def test_target_rows_match_composites(nmp):
    params = HoleParams(*nmp)
    parts, rows = _parts(params, mu_prime_generators(params))
    assert rows == rule_target_rows(params, parts)
    assert rows[0] & 1  # block (0, 0) carries the target cell


def test_target_rows_match_composites_on_mutated_generators():
    params = HoleParams(4, 3, 1)
    g = params.geometry
    _, plain = _parts(params, mu_prime_generators(params))
    lost = mu_prime_generators(params)
    lost[3] = lost[3] + single(g, *lost[3].sorted_terms()[0])  # chi_2 on slot 1 loses a term
    # chi_2 with h^a on slot 2, and on slot 3, each gains a term of its dimension
    gained = mu_prime_generators(params)
    gained[4] = gained[4] + single(g, h(0), h(1), l(4))
    gained[5] = gained[5] + single(g, h(0), l(4), h(1))
    for gens in (lost, gained):
        parts, rows = _parts(params, gens)
        assert rows == rule_target_rows(params, parts)
        assert rows != plain
