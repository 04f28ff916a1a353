"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py [workload ...]

Checks, for each workload (all four by default):
  - the metric names and units of both kinds of run match BENCHMARK.json;
  - two traced runs with the same seed give identical op counts;
  - a traced run with another seed gives the same counts, except on
    screen-families, whose seed picks the mutation sample;
and, once, that the runner fails without printing a result when the
chowq sources are missing.  Each run is as short as the runner allows
(one untraced and one traced pass); the whole test takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED, OTHER_SEED = 7, 8
SEED_DEPENDENT = {"screen-families"}


def run(workload: str, seed: int, trace: int, root: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def check_workload(workload: str) -> list[str]:
    runs = {
        "untraced": run(workload, SEED, 0),
        "traced": run(workload, SEED, 1),
        "traced again": run(workload, SEED, 1),
        "traced, other seed": run(workload, OTHER_SEED, 1),
    }
    problems = [
        f"{workload} {label}: exit {code}, result {result}"
        for label, (code, result) in runs.items()
        if code != 0 or result is None or not result["correct"]
    ]
    if problems:
        return problems
    for label, key in (("untraced", "end_to_end"), ("traced", "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in runs[label][1]["metrics"].items()}
        if got != want:
            problems.append(f"{workload} {label}: metrics differ from {key}: {sorted(set(got.items()) ^ set(want.items()))}")
    first, again, other = (counts(runs[k][1]) for k in ("traced", "traced again", "traced, other seed"))
    if first != again:
        problems.append(f"{workload}: counts differ between two runs of one seed: {sorted(k for k in first if first[k] != again.get(k))}")
    if (first != other) != (workload in SEED_DEPENDENT):
        problems.append(f"{workload}: another seed {'changes' if first != other else 'keeps'} the counts")
    return problems


def check_without_sources() -> list[str]:
    bare = ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, bare / "bench")
    code, result = run("certify-fast", SEED, 0, root=bare)
    shutil.rmtree(bare)
    return [] if code != 0 and result is None else [f"runner without sources: exit {code}, result {result}"]


def main(argv: list[str]) -> int:
    workloads = argv or [w["name"] for w in SPEC["workloads"]]
    problems = check_without_sources()
    for workload in workloads:
        found = check_workload(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
