"""The four benchmark workloads: their inputs, their jobs and the check on each answer.

A job is one top-level public call into chowq (a closure job closes its
families and then runs check_all, as `chowq check` does).  Every job
returns one of OK, UNDECIDED or WRONG.  UNDECIDED is a verdict that rests
on a resource cap instead of on the mathematics; the runner counts it as a
failed job, never as a pass or a falsification.  Functions are looked up
on the `chowq` package at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import chowq

OK, UNDECIDED, WRONG = "ok", "undecided", "wrong"

# Witness text of checker verdicts that stopped at a resource limit.
CAP_MARKERS = ("too large to enumerate",)


def is_capped(text: str) -> bool:
    return any(marker in text for marker in CAP_MARKERS)


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], tuple[str, str]]  # returns (verdict, detail)


@dataclass(frozen=True)
class Workload:
    jobs: list[Job]
    warm: Callable[[], None]  # touches every geometry the jobs use; part of set-up


# ---------------------------------------------------------------------------
# certifier


def _brute_job(params: chowq.HoleParams) -> Job:
    def run():
        cert = chowq.verify_contradiction(params, method="brute", jobs=1)
        if cert["passed"] is True and cert["cases"] == 4096 and cert["failures"] == []:
            return OK, ""
        return WRONG, f"passed={cert['passed']} cases={cert['cases']} failures={cert['failures'][:5]}"

    return Job(f"brute {params.n},{params.m},{params.p}", run)


def _bilinear_job(params: chowq.HoleParams) -> Job:
    def run():
        cert = chowq.verify_contradiction(params, method="bilinear", jobs=1)
        if cert["passed"] is True and cert["blocks"]["0,0"] == 1:
            return OK, ""
        return WRONG, f"passed={cert['passed']} block(0,0)={cert['blocks']['0,0']}"

    return Job(f"bilinear {params.n},{params.m},{params.p}", run)


def _warm_certifier(all_params: list[chowq.HoleParams]) -> Callable[[], None]:
    def warm():
        for params in all_params:
            chowq.build_xi(chowq.build_mu_zero(params), params)

    return warm


def certify_brute(rng: random.Random) -> Workload:
    params = [chowq.HoleParams(4, 3, 1), chowq.HoleParams(5, 4, 2)]
    return Workload([_brute_job(p) for p in params], _warm_certifier(params))


def certify_fast(rng: random.Random) -> Workload:
    params = [chowq.HoleParams(7, 6, 1), chowq.HoleParams(7, 3, 1)]
    return Workload([_bilinear_job(p) for p in params], _warm_certifier(params))


# ---------------------------------------------------------------------------
# closure and checkers


def staircase(D: int, a: int, splitting: tuple[int, ...] | None, max_arity: int):
    g = chowq.QuadricGeometry(D)
    split = chowq.SplittingData(splitting) if splitting else None
    return chowq.family_from_generators(g, max_arity, [chowq.known_generator(g, a)], split)


def _valid_verdict(report: dict) -> tuple[str, str]:
    """A family that should pass every checker."""
    failed = {name: r for name, r in report.items() if not r.passed}
    if not failed:
        return OK, ""
    detail = "; ".join(f"{name}: {list(map(str, r.witnesses))[:3]}" for name, r in failed.items())
    if all(any(is_capped(str(w)) for w in r.witnesses) for r in failed.values()):
        return UNDECIDED, detail
    return WRONG, detail


def _mutation_verdict(report: dict) -> tuple[str, str]:
    """A mutated family that at least one checker must falsify."""
    failed = [r for r in report.values() if not r.passed]
    if any(not any(is_capped(str(w)) for w in r.witnesses) for r in failed):
        return OK, ""
    if failed:
        return UNDECIDED, "; ".join(f"{r.name}: {list(map(str, r.witnesses))[:3]}" for r in failed)
    return WRONG, "mutation passed every checker"


def _closure_job(name, family, inner, ranks) -> Job:
    def run():
        closed = chowq.closure(family)
        inner_closed = chowq.closure(inner) if inner is not None else None
        report = chowq.check_all(closed, inner_closed)
        got = {r: s.rank for r, s in closed.groups.items()}
        if got != ranks:
            return WRONG, f"ranks {got}, expected {ranks}"
        return _valid_verdict(report)

    return Job(name, run)


def _check_job(name, family, inner, verdict) -> Job:
    return Job(name, lambda: verdict(chowq.check_all(family, inner)))


def _warm_codec(shapes: list[tuple[int, int]]) -> Callable[[], None]:
    """Fill the per-(D, arity) coordinate tables the jobs' families use."""

    def warm():
        for D, max_arity in shapes:
            g = chowq.QuadricGeometry(D)
            for r in range(1, max_arity + 1):
                chowq.decode_cycle(g, r, chowq.encode_cycle(chowq.unit(g, r)))

    return warm


def closure_arity3(rng: random.Random) -> Workload:
    d6 = staircase(6, 2, (2, 2), 3)
    d2 = staircase(2, 2, (2,), 3)
    d8 = staircase(8, 1, None, 3)
    jobs = [
        _closure_job("closure D6 (2,2) inner D2", d6, d2, {1: 4, 2: 24, 3: 160}),
        _closure_job("closure D8", d8, None, {1: 5, 2: 30, 3: 200}),
    ]
    return Workload(jobs, _warm_codec([(6, 3), (2, 3), (8, 3)]))


def mutations(D: int, a: int, splitting: tuple[int, ...]) -> list:
    """Single essential cells of codimension at most D missing from the closed family."""
    g = chowq.QuadricGeometry(D)
    base = chowq.closure(staircase(D, a, splitting, 2))
    out = []
    for be in chowq.enumerate_basis(g, 2):
        cell = chowq.single(g, *be.factors)
        if be.is_essential and cell.dimension >= D and not base.contains(cell):
            out.append(cell)
    return out


def _mutated(D, a, splitting, cell):
    g = chowq.QuadricGeometry(D)
    generator = chowq.known_generator(g, a) + cell
    return chowq.family_from_generators(g, 2, [generator], chowq.SplittingData(splitting))


def _one_per_transposition_orbit(cells: list, rng: random.Random) -> list:
    """One cell of each {c, transpose(c)}; the seed picks the side.

    The closures of the two mutations of an orbit span the same family, so
    the sample costs about the same whatever the seed.
    """
    orbits: dict = {}
    for cell in cells:
        orbits.setdefault(frozenset((cell, chowq.transpose(cell))), []).append(cell)
    return [rng.choice(members) for members in orbits.values()]


def screen_families(rng: random.Random) -> Workload:
    d6_cells = mutations(6, 2, (2, 2))
    d10_cells = mutations(10, 2, (2, 2, 2))
    if (len(d6_cells), len(d10_cells)) != (21, 43):
        raise RuntimeError(f"expected 21 and 43 mutations, found {len(d6_cells)} and {len(d10_cells)}")
    jobs = [
        _check_job(f"mutation D6 {chowq.render_cycle(c)}", _mutated(6, 2, (2, 2), c), None, _mutation_verdict)
        for c in d6_cells
    ]
    jobs += [
        _check_job(f"mutation D10 {chowq.render_cycle(c)}", _mutated(10, 2, (2, 2, 2), c), None, _mutation_verdict)
        for c in _one_per_transposition_orbit(d10_cells, rng)
    ]
    valid = [
        ("valid D14 (4,4) inner D6", staircase(14, 4, (4, 4), 2), staircase(6, 4, (4,), 2)),
        ("valid D22 (4,4,4) inner D14", staircase(22, 4, (4, 4, 4), 2), staircase(14, 4, (4, 4), 2)),
        # Ends in "primordial: FAIL - subspace too large to enumerate (rank 36)":
        # an undecided verdict, so this job counts as failed until minimal_cycles is exact.
        ("valid D30 (8,8)", staircase(30, 8, (8, 8), 2), None),
    ]
    jobs += [_check_job(name, fam, inner, _valid_verdict) for name, fam, inner in valid]
    return Workload(jobs, _warm_codec([(D, 2) for D in (6, 10, 14, 22, 30)]))


WORKLOADS = {
    "certify-brute": certify_brute,
    "certify-fast": certify_fast,
    "closure-arity3": closure_arity3,
    "screen-families": screen_families,
}


def build(name: str, seed: int) -> Workload:
    """The workload's inputs for this seed, with its jobs in seeded order."""
    rng = random.Random(seed)
    workload = WORKLOADS[name](rng)
    jobs = list(workload.jobs)
    rng.shuffle(jobs)
    return Workload(jobs, workload.warm)
