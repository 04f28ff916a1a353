"""Run one workload of the chowq benchmark and print its metrics.

    python3 bench/run.py --workload certify-brute --seed 1 --seconds 25 --trace 0

Everything runs in one process with jobs=1, against chowq from ./src.
With --trace 0 the run repeats passes over the workload's jobs until
--seconds have gone by and reports the end-to-end metrics; with --trace 1
it alternates untraced and traced passes for as long and reports the
per-layer metrics.  Set-up time is measured in fresh child processes, each
importing chowq, building the inputs and warming up, and reported as the
median, in seconds at a reference speed (see below).  Every job's answer
is checked; the last line of stdout is one JSON object, and the exit code
is 1 when any answer is wrong.  Results
(and, traced, the spans of the last traced pass) go to bench/out/.

Pass and job times are reported twice: in seconds, and in calibration
loops ("cal").  The effective speed of a shared host drifts by up to 2x
within a minute, so before and after every job the runner times a fixed
pure-Python loop that never touches chowq, and divides the job's seconds
by the mean of the two.  The gated metrics are the calibrated ones.  Each
set-up child times the same loop after its first job is ready, and its
set-up seconds are scaled to a host on which the loop takes REF_CAL_S.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_SAMPLES = 11
SETUP_CAL_LOOPS = 5  # calibration loops each set-up child times, after it is ready
REF_CAL_S = 0.008  # seconds of one calibration loop on the reference host

UNITS = {"peak_rss_mb": "MB", "ok_share": "ratio", "fail_share": "ratio"}

# Per-layer metrics: (metric prefix, span names summed, fields reported).
SPAN_METRICS = [
    ("basis.cycle_init", ["basis.cycle_init"], ("calls", "self_s")),
    ("ring.mul", ["ring.mul"], ("calls", "terms_in", "terms_out", "self_s")),
    ("correspondence.compose", ["correspondence.compose"], ("calls", "terms_out", "self_s")),
    ("correspondence.delta_pullback_q", ["correspondence.delta_pullback_q"], ("calls", "self_s")),
    ("holes.verify_contradiction", ["holes.verify_contradiction"], ("self_s",)),
    ("steenrod.steenrod_k", ["steenrod.steenrod_k"], ("calls", "self_s")),
    ("gf2.add", ["gf2.add"], ("calls", "self_s")),
    ("structure.closure", ["structure.closure"], ("calls", "self_s")),
    ("structure.codec", ["structure.encode_cycle", "structure.decode_cycle"], ("calls", "self_s")),
    ("steenrod.steenrod_total", ["steenrod.steenrod_total"], ("calls", "terms_out", "self_s")),
    ("ring.permute", ["ring.permute"], ("calls", "self_s")),
    ("ring.homogeneous_components", ["ring.homogeneous_components"], ("calls",)),
    (
        "correspondence.push_pull",
        [
            "correspondence.pullback_projection",
            "correspondence.pushforward_projection",
            "correspondence.pullback_diagonal",
            "correspondence.pushforward_diagonal",
        ],
        ("calls", "self_s"),
    ),
    ("structure.check_all", ["structure.check_all"], ("self_s",)),
    ("structure.minimal_cycles", ["structure.minimal_cycles"], ("calls", "self_s")),
    ("isotropy.pr_multi", ["isotropy.pr_multi"], ("calls", "self_s")),
]

# Counts carried in a span's VALUE field (see tracing.VALUE_OF).
VALUE_METRICS = {
    "holes.cases": "holes.verify_contradiction",
    "gf2.add.grew": "gf2.add",
    "structure.closure.final_rank": "structure.closure",
    "gf2.enumerate.members": "gf2.enumerate",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def setup_probe(args) -> int:
    """Child process: import chowq, build the inputs, warm up, report; then time the calibration loop."""
    t0 = time.perf_counter()
    import chowq  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads

    workloads.build(args.workload, args.seed).warm()
    print(json.dumps({"import_s": import_s}), flush=True)
    print(json.dumps({"cal_s": statistics.median(calibrate() for _ in range(SETUP_CAL_LOOPS))}), flush=True)
    return 0


def measure_setup(args) -> tuple[float, float, float]:
    """Seconds from starting a child until its first job is ready, the same
    scaled to the reference speed by the child's calibration loop, and its
    import time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - t0
        rest = child.stdout.read()
    if child.returncode != 0 or not line or not rest:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return ready, ready * REF_CAL_S / json.loads(rest)["cal_s"], json.loads(line)["import_s"]


# ---------------------------------------------------------------------------
# passes


def calibration_loop() -> int:
    """Fixed work in the mix of chowq's hot paths: tuples, set symmetric
    differences, dict inserts and int bit operations.  About 8 ms on a
    2-CPU Xeon VM with Python 3.11."""
    acc, table, v = set(), {}, 0
    for i in range(6000):
        t = (i & 7, (i >> 3) & 7, (i >> 6) & 7)
        acc.symmetric_difference_update(((t[1], t[0], t[2]),))
        table.setdefault(t[0], []).append(t)
        v ^= 1 << (i & 63)
    return len(acc) + len(table) + v


def calibrate() -> float:
    """Seconds one calibration loop takes now; no collection of chowq's heap lands in it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


@dataclass
class Pass:
    times: list[float]  # seconds per job
    refs: list[float]  # seconds of a calibration loop around each job
    verdicts: list[tuple[str, str, str]]  # (job name, verdict, detail)

    @property
    def cals(self) -> list[float]:
        return [t / r for t, r in zip(self.times, self.refs)]


def run_pass(jobs, tracer=None) -> Pass:
    """Run every job once, between calibration loops."""
    from workloads import WRONG, UNDECIDED, is_capped

    out = Pass([], [], [])
    before = calibrate()
    for i, job in enumerate(jobs, 1):
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            verdict, detail = job.run()
        except Exception as exc:  # a crash is an answer too: wrong, or undecided at a cap
            traceback.print_exc()
            verdict, detail = (UNDECIDED if is_capped(str(exc)) else WRONG), repr(exc)
        out.times.append(time.perf_counter() - t0)
        after = calibrate()
        out.refs.append((before + after) / 2)
        out.verdicts.append((job.name, verdict, detail))
        before = after
    return out


def run_plain(jobs, seconds):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(jobs))
    return passes


def run_traced(jobs, seconds):
    """Alternate untraced and traced passes; returns both lists and per-pass op totals."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, snapshots = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(jobs))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(jobs, tracer))
        finally:
            tracer.uninstall()
        snapshots.append({name: list(stat) for name, stat in tracer.stats.items()})
    return plain, traced, snapshots, tracer


# ---------------------------------------------------------------------------
# metrics


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def job_latencies(per_pass: list[list[float]]) -> list[float]:
    """Each job's median over the passes; the percentiles are taken over the workload's jobs."""
    return [statistics.median(job) for job in zip(*per_pass)]


def end_to_end(passes: list[Pass], setups, failed: int) -> tuple[dict, dict]:
    """The gated metrics, and the same times in plain seconds."""
    cals = job_latencies([p.cals for p in passes])
    secs = job_latencies([p.times for p in passes])
    attempted = len(passes) * len(secs)
    gated = {
        "setup_s": statistics.median(s for _, s, _ in setups),
        "pass_cal": statistics.median(sum(p.cals) for p in passes),
        "job_p50_cal": statistics.median(cals),
        "job_p90_cal": p90(cals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1 - failed / attempted,
    }
    wall = {
        "setup_wall_s": statistics.median(s for s, _, _ in setups),
        "pass_s": statistics.median(sum(p.times) for p in passes),
        "job_p50_s": statistics.median(secs),
        "job_p90_s": p90(secs),
        "fail_share": failed / attempted,
        "calibration_s": statistics.median(r for p in passes for r in p.refs),
    }
    return gated, wall


def per_layer(snapshots, plain, traced, setups) -> dict:
    """Counts from the first traced pass, self times as medians over traced passes."""
    from tracing import CALLS, LAYERS, SELF_NS, TERMS_IN, TERMS_OUT, VALUE, group, layer_names

    first = snapshots[0]
    fields = {"calls": CALLS, "terms_in": TERMS_IN, "terms_out": TERMS_OUT}

    def self_s(names):
        return statistics.median(group(s, names, SELF_NS) for s in snapshots) / 1e9

    out = {}
    for prefix, names, reported in SPAN_METRICS:
        for f in reported:
            out[f"{prefix}.{f}"] = self_s(names) if f == "self_s" else group(first, names, fields[f])
    for metric, name in VALUE_METRICS.items():
        out[metric] = group(first, [name], VALUE)
    calls = out["gf2.add.calls"]
    out["gf2.add.useful_ratio"] = out["gf2.add.grew"] / calls if calls else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(layer_names(first, layer))
    out["chowq.import_s"] = statistics.median(i for _, _, i in setups)
    out["trace.overhead_ratio"] = statistics.median(sum(p.times) for p in traced) / statistics.median(
        sum(p.times) for p in plain
    )
    return out


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_cal"):
        return "cal"
    return "ratio" if metric.endswith("ratio") else "count"


# ---------------------------------------------------------------------------
# provenance


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, n_passes) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": n_passes,
        "jobs": 1,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chowq" / "__init__.py").is_file():
        print(f"error: no chowq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setups = [measure_setup(args) for _ in range(SETUP_SAMPLES)]
    workload = workloads.build(args.workload, args.seed)
    workload.warm()

    if args.trace:
        plain, traced, snapshots, tracer = run_traced(workload.jobs, args.seconds)
        passes = plain + traced
    else:
        passes = run_plain(workload.jobs, args.seconds)
    verdicts = [v for p in passes for v in p.verdicts]
    attempted = len(verdicts)
    failed = sum(v != workloads.OK for _, v, _ in verdicts)
    correct = all(v != workloads.WRONG for _, v, _ in verdicts)
    if args.trace:
        metrics, wall = per_layer(snapshots, plain, traced, setups), {"fail_share": failed / attempted}
    else:
        metrics, wall = end_to_end(passes, setups, failed)
    prov = provenance(args, len(passes))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"jobs/pass {len(workload.jobs)}  job samples {attempted}")
    for name, verdict, detail in dict.fromkeys(v for v in verdicts if v[1] != workloads.OK):
        print(f"  {verdict}: {name}: {detail}", file=sys.stderr if verdict == workloads.WRONG else sys.stdout)
    for name, value in {**metrics, **wall}.items():
        print(f"  {name} = {value:.6g} {unit(name)}")
    print("provenance " + json.dumps(prov))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": prov, "metrics": metrics, "wall": wall, "attempted": attempted, "failed": failed,
              "correct": correct, "verdicts": sorted(set(verdicts))}
    if args.trace:
        record["functions"] = snapshots[0]
        tracer.write_spans(OUT / f"{stem}-spans.jsonl.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
