"""Tests for the triple-power construction and the dimension-gap formulas."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chowq.basis import enumerate_basis, h, l, single
from chowq import basis, holes, ring, steenrod
from chowq.correspondence import compose, delta_pullback_q
from chowq.holes import (
    HoleParams,
    build_mu_zero,
    build_xi,
    certificate_json,
    dim_In_set,
    first_summand_formula,
    forced_witt_sequence,
    mu_prime_generators,
    small_splitting_pattern,
    target_cell,
    verify_contradiction,
    vishik_pattern,
)
from chowq.isotropy import generic_point_pullback
from chowq.ring import external_product, mul, sym, transpose
from chowq.steenrod import steenrod_k
from chowq.structure import _staircase
from test_kernel import rule_target_rows
from test_steenrod import steenrod_k_oracle

VALID_PARAMS = [
    (4, 3, 1),
    (5, 3, 1), (5, 4, 1), (5, 4, 2),
    (6, 3, 1), (6, 4, 1), (6, 4, 2), (6, 5, 1), (6, 5, 2), (6, 5, 3),
]


# ---------------------------------------------------------------------------
# parameters


def test_params_derived_values():
    p = HoleParams(4, 3, 1)
    assert (p.a, p.b, p.c, p.d, p.D) == (1, 4, 8, 12, 24)
    assert (p.n_b, p.j_count) == (3, 4)
    assert p.dim_form == 26
    q = HoleParams(5, 4, 2)
    assert (q.a, q.b, q.c, q.d, q.D) == (2, 8, 16, 25, 50)
    assert (q.n_b, q.j_count) == (3, 4)
    for n in range(4, 13):
        for m in range(3, n):
            for pp in range(1, m - 1):
                d = sum(1 << i for i in range(m - 1, n)) + (1 << (pp - 1)) - 1
                assert HoleParams(n, m, pp).d == d, (n, m, pp)


def test_params_validation():
    for bad in [(3, 3, 1), (4, 3, 2), (4, 2, 1), (4, 4, 1), (5, 4, 3)]:
        with pytest.raises(ValueError):
            HoleParams(*bad)
    for bad in [(4, 3, True), (5, 4, True), (4.0, 3, 1), (4, 3.0, 1), (4, 3, 1.0), ("4", 3, 1)]:
        with pytest.raises(ValueError, match="need n >= 4"):  # bools and non-ints
            HoleParams(*bad)
    for ok in VALID_PARAMS:
        HoleParams(*ok)


def test_params_range_makes_every_divisibility_an_identity():
    for n in range(4, 41):
        for m in range(3, n):
            for p in range(1, m - 1):
                q = HoleParams(n, m, p)
                assert q.d == (1 << n) - q.b + q.a - 1
                assert q.d - q.a + 1 == (1 << n) - q.b and (q.d - q.a + 1) % q.b == 0
                assert q.d - q.b - q.a + 1 == (1 << n) - q.c and (q.d - q.b - q.a + 1) % q.c == 0
                assert q.b == 4 * q.a << (m - p - 2)
                assert q.d + 1 == (1 << n) - q.b + q.a and (q.d + 1) % q.b == q.a < q.b
    for n in range(4, 41):
        for bad in ((3, 3, 1), (n, n, 1), (n, n - 1, n - 2)):  # n = 3, m = n, p = m - 1
            with pytest.raises(ValueError, match="need n >= 4"):
                HoleParams(*bad)


def test_forced_witt_sequence_reads_the_params_back():
    for n in range(4, 13):
        for m in range(3, n):
            for p in range(1, m - 1):
                q = HoleParams(n, m, p)
                want = (q.a,) + tuple(1 << i for i in range(m - 1, n))
                assert forced_witt_sequence(n, q.dim_form).witt_indices == want
    # zero, negative, odd, a power of two, bits 1, 3, 5 (no 2^4), and -38 (bits 1, 3, 4)
    for n, dim in [(4, 0), (4, -26), (4, 27), (4, 32), (5, 42), (4, -38)]:
        with pytest.raises(ValueError, match="need n >= 4|is not 2"):
            forced_witt_sequence(n, dim)


def test_vishik_pattern_is_the_small_pattern_with_the_even_tail():
    for n in range(1, 8):
        for m in range(-1, 10):
            tail = set(range(1 << (n + 1), m * (1 << n) + 1, 2))
            assert vishik_pattern(n, m) == small_splitting_pattern(n, 1) | tail
    for pattern in (lambda: vishik_pattern(0, 3), lambda: small_splitting_pattern(0, 1)):
        with pytest.raises(ValueError, match="n >= 1"):
            pattern()
    # no bool, no float, no str
    for bad in (True, 3.0, "3"):
        with pytest.raises(ValueError, match="n >= 1"):
            vishik_pattern(bad, 3)
        with pytest.raises(ValueError, match="int m"):
            vishik_pattern(2, bad)


def test_forced_witt_sequence():
    s = forced_witt_sequence(4, 26)
    assert s.witt_indices == (1, 4, 8)
    assert forced_witt_sequence(5, 52).witt_indices == (2, 8, 16)
    assert forced_witt_sequence(5, 50).witt_indices == (1, 8, 16)
    # consistent with the parameter object: first index is a = 2^(p-1)
    assert forced_witt_sequence(5, 52).witt_indices[0] == HoleParams(5, 4, 2).a
    with pytest.raises(ValueError):
        forced_witt_sequence(4, 20)
    with pytest.raises(ValueError):
        forced_witt_sequence(4, 28)  # p = m - 1 is too large


# ---------------------------------------------------------------------------
# construction cycles


def test_mu_zero_shape():
    p = HoleParams(4, 3, 1)
    mu0 = build_mu_zero(p)
    assert len(mu0.terms) == 18
    assert mu0.is_homogeneous and mu0.dimension == 51
    g = p.geometry
    assert (h(0), h(1), l(4)) in mu0.terms
    assert (l(4), h(1), h(0)) in mu0.terms
    # the first slot h^0 projection recovers the two-slot staircase
    want = sym(
        single(g, h(1), l(4)) + single(g, h(5), l(8)) + single(g, h(9), l(12))
    )
    assert generic_point_pullback(mu0) == want


def test_mu_zero_h_indices_divisible():
    p = HoleParams(5, 4, 2)
    for t in build_mu_zero(p).terms:
        for f in t:
            if f.kind == "h":
                assert f.index % p.a == 0 or f.index == 0


def test_chi_shape():
    p = HoleParams(4, 3, 1)
    gens = mu_prime_generators(p)
    g = p.geometry
    assert gens[0] == single(g, h(1), h(5), l(9)) + single(g, h(1), l(12), h(8))
    for j in range(1, p.j_count + 1):
        for t in gens[3 * j - 3].terms:  # chi_j, h^a on the first slot
            assert t[0] == h(p.a)
            for f in t:
                if f.kind == "h":
                    assert f.index % p.a == 0


def ring_op_generators(params):
    """chi_j = h^a x (inner staircase * (h^((j-1)a) x h^(c-b-ja))) and its two slot copies,
    by mul, external_product and transpose: the oracle of mu_prime_generators."""
    g, a, b, c = params.geometry, params.a, params.b, params.c
    inner = _staircase(g, b + a, c)
    out = []
    for j in range(1, params.j_count + 1):
        shifted = mul(inner, single(g, h((j - 1) * a), h(c - b - j * a)))
        chi = external_product(single(g, h(a)), shifted)
        out += [chi, transpose(chi, 0, 1), transpose(chi, 0, 2)]
    return out


TRIPLES_UP_TO_9 = [(n, m, p) for n in range(4, 10) for m in range(3, n) for p in range(1, m - 1)]


def test_generators_match_the_ring_op_oracle_up_to_n9():
    for nmp in TRIPLES_UP_TO_9:
        p = HoleParams(*nmp)
        assert mu_prime_generators(p) == ring_op_generators(p), nmp


@pytest.mark.parametrize("nmp", [(7, 6, 1), (7, 3, 1)])
def test_generators_take_no_ring_op(nmp, monkeypatch):
    p = HoleParams(*nmp)
    want = ring_op_generators(p)

    def refuse(*args, **kwargs):
        raise AssertionError("the generators took a ring op")

    for name in ("mul", "external_product", "transpose", "permute"):
        monkeypatch.setattr(holes, name, refuse, raising=False)  # holes imports none of them
        monkeypatch.setattr(ring, name, refuse)
    assert mu_prime_generators(p) == want


def test_generator_count():
    for nmp in [(4, 3, 1), (5, 4, 2)]:
        p = HoleParams(*nmp)
        gens = mu_prime_generators(p)
        assert len(gens) == 3 * p.j_count == 12
        assert len(set(gens)) == len(gens)


def test_staircase_steenrod_image():
    p = HoleParams(4, 3, 1)
    g = p.geometry
    got = steenrod_k(build_mu_zero(p), 2 * p.a)
    want = sym(
        single(g, h(0), h(2), l(3))
        + single(g, h(0), h(6), l(7))
        + single(g, h(0), h(10), l(11))
    )
    assert got == want


@pytest.mark.parametrize("nmp", VALID_PARAMS)
def test_xi_homogeneous(nmp):
    p = HoleParams(*nmp)
    xi = build_xi(build_mu_zero(p), p)
    assert not xi.is_zero
    assert xi.is_homogeneous
    assert xi.dimension == 2 * p.d + p.b - 2 * p.a - 1


def test_xi_rejects_wrong_arity():
    p = HoleParams(4, 3, 1)
    with pytest.raises(ValueError):
        build_xi(single(p.geometry, h(0), l(0)), p)


def test_first_summand_exact():
    p = HoleParams(4, 3, 1)
    xi = build_xi(build_mu_zero(p), p)
    assert xi == first_summand_formula(p)
    assert len(xi.terms) == 12
    assert target_cell(p) == (h(1), l(2))
    assert target_cell(p) in xi.terms


def test_no_h_a_defects_do_not_reach_target():
    """Any admissible-shaped defect avoiding h^a leaves the target coefficient alone."""
    p = HoleParams(4, 3, 1)
    g = p.geometry
    mu0 = build_mu_zero(p)
    dim = mu0.dimension
    a = p.a
    candidates = []
    for t in (be.factors for be in enumerate_basis(g, 3, dim)):
        if any(f.kind == "h" and f.index == 0 for f in t):
            continue
        if any(f.kind == "h" and f.index % a for f in t):
            continue
        if any(f.kind == "h" and f.index == a for f in t):
            continue
        candidates.append(single(g, *t))
    assert candidates
    target = target_cell(p)
    k = 2 * p.a
    s_mu0 = steenrod_k(mu0, k)
    weight = single(g, h(0), h(0), h(p.b - 1))
    for nu in candidates:
        s_nu = steenrod_k(nu, k)
        for left, right in ((s_nu, mu0), (s_mu0, nu), (s_nu, nu)):
            block = delta_pullback_q(compose(mul(left, weight), right))
            assert target not in block.terms


# ---------------------------------------------------------------------------
# certification


@pytest.mark.parametrize("nmp", [(4, 3, 1), (5, 4, 2)])
def test_verify_both_methods(nmp):
    p = HoleParams(*nmp)
    brute = verify_contradiction(p, method="brute")
    bilinear = verify_contradiction(p, method="bilinear")
    assert brute["passed"] and bilinear["passed"]
    assert brute["cases"] == bilinear["cases"] == 4096
    assert brute["failures"] == [] and bilinear["failures"] == []
    assert brute["target"] == bilinear["target"]


def test_verify_brute_at_J8_agrees_with_bilinear():
    """2^24 cases in one process: every case is one bit of a 2 MB int."""
    p = HoleParams(5, 4, 1)
    assert p.j_count == 8
    brute = verify_contradiction(p, method="brute")
    bilinear = verify_contradiction(p, method="bilinear")
    assert brute["cases"] == bilinear["cases"] == 1 << 24
    assert brute["failures"] == [] and brute["passed"]
    assert bilinear["failures"] == [] and bilinear["passed"] and bilinear["blocks"] == {"0,0": 1}


J4_PARAMS = [
    (4, 3, 1), (5, 3, 1), (5, 4, 2), (6, 3, 1), (6, 4, 2),
    (6, 5, 3), (7, 3, 1), (7, 4, 2), (7, 5, 3), (7, 6, 4),
]


def _mutated_generators(params):
    gens = mu_prime_generators(params)
    chi = gens[3]  # chi_2 on the first slot, less one term
    gens[3] = chi + single(params.geometry, *chi.sorted_terms()[0])
    return gens


@pytest.mark.parametrize("nmp", J4_PARAMS)
def test_brute_and_bilinear_agree_on_every_J4_triple(nmp, monkeypatch):
    p = HoleParams(*nmp)
    assert p.j_count == 4 and p.D <= 248
    for method in ("brute", "bilinear"):
        cert = verify_contradiction(p, method=method)
        assert cert["passed"] and cert["failures"] == [] and cert["cases"] == 4096
    monkeypatch.setattr(holes, "mu_prime_generators", _mutated_generators)
    brute = verify_contradiction(p, method="brute")
    bilinear = verify_contradiction(p, method="bilinear")
    assert brute["passed"] is False and bilinear["passed"] is False
    assert brute["failures"] == [8]
    parts = [holes.build_mu_zero(p)] + holes.mu_prime_generators(p)
    fails = holes._brute(holes._target_rows(p, parts))
    assert fails == sum(1 << case for case in range(4096) if case >> 3 & 1)  # every case with {4}


MUTATED_541_CHILD = '''
import json
from chowq import holes
from chowq.basis import single

def mutated(params):  # chi_2 on the first slot, less one term
    gens = mu_prime_generators(params)
    chi = gens[3]
    gens[3] = chi + single(params.geometry, *chi.sorted_terms()[0])
    return gens

mu_prime_generators, holes.mu_prime_generators = holes.mu_prime_generators, mutated
cert = holes.verify_contradiction(holes.HoleParams(5, 4, 1), method="brute")
print(json.dumps({"passed": cert["passed"], "failures": cert["failures"]}))
'''

# ru_maxrss survives exec, so a child of the test process would report at least the test
# process's own peak.  A small interpreter in between runs the child and reads its peak.
PEAK_OF_CHILD = '''
import json, resource, subprocess, sys
out = subprocess.run([sys.executable, "-c", sys.argv[1]], capture_output=True, text=True, check=True)
child = json.loads(out.stdout)
child["peak_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps(child))
'''


def test_mutated_forced_brute_at_J8_reports_one_case_in_bounded_memory(monkeypatch):
    """2^24 cases, half of them failing: brute reports the lowest, case 8, as one int's low bit,
    in a fresh process under 150 MB; listing every failing case took 394 MB."""
    env = {**os.environ, "PYTHONPATH": str(Path(holes.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", PEAK_OF_CHILD, MUTATED_541_CHILD], env=env,
                         capture_output=True, text=True, check=True)
    child = json.loads(out.stdout)
    assert child["passed"] is False and child["failures"] == [8]
    assert child["peak_kb"] < 150 * 1024, child["peak_kb"]
    monkeypatch.setattr(holes, "mu_prime_generators", _mutated_generators)
    p = HoleParams(5, 4, 1)
    assert verify_contradiction(p)["failures"] == [8]
    parts = [holes.build_mu_zero(p)] + holes.mu_prime_generators(p)
    assert target_cell(p) not in build_xi(parts[0] + parts[4], p)  # case 8 selects parts[4]
    assert target_cell(p) in build_xi(parts[0] + parts[3], p)  # case 4 passes


def _less_first_term(x):
    return x + single(x.geometry, *x.sorted_terms()[0])


MUTATIONS = {  # bilinear reports the case {4} (8); {4} (8); the empty case 0
    "chi_2": ("mu_prime_generators", _mutated_generators),
    "every generator": (
        "mu_prime_generators",
        lambda params: [_less_first_term(g) for g in mu_prime_generators(params)],
    ),
    "mu0": ("build_mu_zero", lambda params: _less_first_term(build_mu_zero(params))),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("nmp", J4_PARAMS + [(7, 6, 1)])
def test_bilinear_failures_are_the_blocks_off_the_demand(nmp, mutation, monkeypatch):
    """The demand on the blocks is q = 1 on every case.  The one case bilinear reports off it
    loses the target cell in xi of its own sum of parts, and at J = 4 it is set in brute's mask."""
    monkeypatch.setattr(holes, *MUTATIONS[mutation])
    p = HoleParams(*nmp)
    cert = verify_contradiction(p, method="bilinear")
    assert cert["passed"] is False and len(cert["failures"]) == 1
    (case,) = cert["failures"]
    parts = [holes.build_mu_zero(p)] + holes.mu_prime_generators(p)
    mu = sum((x for k, x in enumerate(parts[1:]) if case >> k & 1), parts[0])
    assert target_cell(p) not in build_xi(mu, p)
    if p.j_count == 4:
        assert holes._brute(holes._target_rows(p, parts)) >> case & 1


def _oracle_inner_parts(p, parts):
    weight = single(p.geometry, h(0), h(0), h(p.b - 1))
    return [mul(steenrod_k_oracle(x, 2 * p.a), weight) for x in parts]


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("nmp", J4_PARAMS + [(7, 6, 1)])
def test_inner_parts_of_mutated_sets_match_total_square_oracle(nmp, mutation, monkeypatch):
    """Each part, mutated or not, gets the square of its own terms."""
    monkeypatch.setattr(holes, *MUTATIONS[mutation])
    p = HoleParams(*nmp)
    parts = [holes.build_mu_zero(p)] + holes.mu_prime_generators(p)
    assert holes._inner_parts(p, parts) == _oracle_inner_parts(p, parts)


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("nmp", J4_PARAMS)
def test_target_rows_of_mutated_sets_match_composite_oracle(nmp, mutation, monkeypatch):
    """Bit y of row x is the target bit of the pulled-back composite, built in full."""
    monkeypatch.setattr(holes, *MUTATIONS[mutation])
    p = HoleParams(*nmp)
    parts = [holes.build_mu_zero(p)] + holes.mu_prime_generators(p)
    inners, target = _oracle_inner_parts(p, parts), target_cell(p)
    want = [
        sum(1 << y for y, s in enumerate(inners) if target in delta_pullback_q(compose(s, x)))
        for x in parts
    ]
    assert holes._target_rows(p, parts) == want


@pytest.mark.parametrize("nmp", [(7, 6, 1), (7, 3, 1), (9, 3, 1)])
def test_inner_parts_match_total_square_oracle(nmp):
    p = HoleParams(*nmp)
    parts = [build_mu_zero(p)] + mu_prime_generators(p)
    assert holes._inner_parts(p, parts) == _oracle_inner_parts(p, parts)


def test_table_refuses_parts_of_two_dimensions():
    """S_2a is graded: a part with terms of two dimensions has no square, with or without -O."""
    p = HoleParams(4, 3, 1)
    mu0 = build_mu_zero(p)
    mixed = mu0 + single(p.geometry, h(0), h(0), h(0))
    for parts in ([mixed], [mu0, mixed]):
        with pytest.raises(ValueError, match="homogeneous"):
            holes._target_rows(p, parts)
        with pytest.raises(ValueError, match="homogeneous"):
            holes._inner_parts(p, parts)


@pytest.mark.parametrize("nmp", [(7, 6, 1), (7, 3, 1)])
def test_table_builds_no_cycle(nmp, monkeypatch):
    """The table reads the squares of the terms: no Cycle, graded square, product or swap."""
    p = HoleParams(*nmp)
    parts = [build_mu_zero(p)] + mu_prime_generators(p)
    want = holes._target_rows(p, parts)

    def refuse(*args, **kwargs):
        raise AssertionError("the table of target bits built a cycle")

    for module, name in [(holes, "mul"), (holes, "transpose"), (holes, "cycle"), (ring, "mul"),
                         (ring, "transpose"), (ring, "permute"), (steenrod, "steenrod_k"),
                         (basis, "cycle")]:
        monkeypatch.setattr(module, name, refuse, raising=module is not holes)  # holes has neither
    monkeypatch.setattr(basis.Cycle, "__post_init__", refuse)
    assert holes._target_rows(p, parts) == want and want[0] & 1


def _counted_walks(monkeypatch):
    """The parts that _target_rows walks with _compositions, in order."""
    walked, walk = [], holes._compositions

    def counted(x, *args, **kwargs):
        walked.append(x)
        return walk(x, *args, **kwargs)

    monkeypatch.setattr(holes, "_compositions", counted)
    return walked


@pytest.mark.parametrize("nmp", [(7, 3, 1), (7, 6, 1)])
def test_table_walks_once_per_slot_orbit_and_only_on_matching_terms(nmp, monkeypatch):
    """mu0 and each chi_j are walked, their slot copies are not.  A copy that lost a term is
    no transpose of chi_1 and gets its own walk, and its row is still that of its composites."""
    p = HoleParams(*nmp)
    parts = [build_mu_zero(p)] + mu_prime_generators(p)
    walked = _counted_walks(monkeypatch)
    assert holes._target_rows(p, parts) == rule_target_rows(p, parts)  # the oracle walks too
    walked.clear()
    holes._target_rows(p, parts)
    assert walked == parts[0:1] + parts[1::3] and len(walked) == 1 + p.j_count
    parts[2] = _less_first_term(parts[2])  # the 0 <-> 1 copy of chi_1
    walked.clear()
    rows = holes._target_rows(p, parts)
    assert len(walked) == 1 + p.j_count + 1 and parts[2] in walked
    assert rows == rule_target_rows(p, parts)


def test_verify_bilinear_at_D_1016():
    cert = verify_contradiction(HoleParams(9, 3, 1), method="bilinear")
    assert cert["params"]["n"] == 9 and cert["passed"]
    assert cert["failures"] == [] and cert["blocks"] == {"0,0": 1}


def test_every_certificate_up_to_n9_passes_on_B00_alone():
    """The real tables set only B00: bilinear, the default, reports no case and one set cell."""
    for t in [(n, m, p) for n in range(4, 10) for m in range(3, n) for p in range(1, m - 1)]:
        default = verify_contradiction(HoleParams(*t))
        cert = verify_contradiction(HoleParams(*t), method="bilinear")
        assert default == cert, t
        assert cert["passed"] is True and cert["failures"] == [] and cert["blocks"] == {"0,0": 1}, t


@pytest.mark.parametrize("method", ["brute", "bilinear"])
def test_verify_runs_in_one_process(method):
    p = HoleParams(4, 3, 1)
    for jobs in (0, 2, -1):
        with pytest.raises(ValueError, match="one process"):
            verify_contradiction(p, method=method, jobs=jobs)
    assert verify_contradiction(p, method=method, jobs=1) == verify_contradiction(p, method=method)


def test_verify_refuses_brute_force_above_its_limit(monkeypatch):
    """J = 16 is 2^48 cases: refused before mu0, the generators or the table is built."""
    p = HoleParams(6, 5, 1)
    monkeypatch.setattr(holes, "build_mu_zero", None)  # a build would raise TypeError
    with pytest.raises(ValueError, match=r"281474976710656 cases.*--method bilinear"):
        verify_contradiction(p, method="brute")


def test_import_loads_no_process_pool():
    """A fresh interpreter imports the chowq under test and nothing of a process pool."""
    code = "import sys, chowq; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(holes.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_verify_default_method_and_errors():
    p = HoleParams(4, 3, 1)
    cert = verify_contradiction(p)
    assert cert["method"] == "bilinear" and cert == verify_contradiction(p, method="bilinear")
    with pytest.raises(ValueError):
        verify_contradiction(p, method="magic")


def test_certificate_json_roundtrip():
    p = HoleParams(4, 3, 1)
    cert = verify_contradiction(p, method="bilinear")
    data = json.loads(certificate_json(cert))
    assert data["passed"] is True
    assert data["params"] == {"n": 4, "m": 3, "p": 1}
    assert data["blocks"]["0,0"] == 1


# ---------------------------------------------------------------------------
# dimension and splitting-pattern formulas


def test_dim_in_set():
    assert dim_In_set(3, 20) == {0, 8, 12, 14, 16, 18, 20}
    assert 10 not in dim_In_set(3, 100)
    assert 26 not in dim_In_set(4, 100)


def test_dim_in_set_gaps():
    for n in range(1, 11):
        s = dim_In_set(n, 1 << (n + 2))
        # no positive value below 2^n, and none strictly between 2^(n+1)-2 and 2^(n+1)
        assert not {v for v in s if 0 < v < (1 << n)}
        assert not {v for v in s if (1 << (n + 1)) - 2 < v < (1 << (n + 1))}


def test_patterns():
    assert vishik_pattern(2, 3) == {0, 4, 6, 8, 10, 12}
    assert small_splitting_pattern(4, 2) == {0, 16, 24, 28}
    assert len(small_splitting_pattern(4, 2)) - 1 == 3  # height
    assert small_splitting_pattern(4, 5) == {0}
    with pytest.raises(ValueError):
        small_splitting_pattern(4, 6)
    # no bool, no float, no str
    for bad in (True, 3.0, "3"):
        with pytest.raises(ValueError, match="n >= 1"):
            small_splitting_pattern(bad, 1)
        with pytest.raises(ValueError, match="1 <= m"):
            small_splitting_pattern(3, bad)
        with pytest.raises(ValueError, match="n >= 1"):
            dim_In_set(bad, 20)
        with pytest.raises(ValueError, match="int cap"):
            dim_In_set(3, bad)


def test_small_patterns_realized():
    for n in range(1, 7):
        realized = dim_In_set(n, 1 << (n + 1)) | {0}
        for m in range(1, n + 2):
            assert small_splitting_pattern(n, m) <= realized
