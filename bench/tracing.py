"""Spans and op counts for the traced run, recorded from outside chowq.

Tracer.install() replaces the public cycle-level functions of each layer
module with wrappers in every loaded chowq namespace that holds them, so
calls between modules (chowq.holes.mul, chowq.structure.steenrod_total,
...) are seen as well as calls from the benchmark.  Three methods are
wrapped as well: Cycle.__post_init__ (validation, "basis.cycle_init") and
Gf2Subspace.add / .enumerate.  uninstall() restores the originals.

Each wrapped call is a span with a parent span and a job id.  A span's
self time is its duration minus the durations of its child spans.  Every
span adds to its function's totals for the pass.  Spans of at least
KEEP_NS are also kept in memory, for the latest traced pass, and written
out at the end; a span is never shorter than its children, so the kept
spans form a tree under the job.  Shorter ones (millions of them on the
closure workloads) are in the totals only.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import types

LAYERS = ("basis", "ring", "steenrod", "correspondence", "isotropy", "gf2", "structure", "holes")

# Per-factor and per-term helpers stay unwrapped: counts are per cycle op.
PER_TERM = {
    "h", "l", "term_dimension", "term_is_essential", "h_power_term",
    "mul_factor", "mul_factor_raw", "mul_term", "steenrod_factor", "binom_mod2",
}

# Layers whose functions take and return cycles: these count terms in and out.
CYCLE_OPS = {"ring", "steenrod", "correspondence", "isotropy"}

CALLS, SELF_NS, TERMS_IN, TERMS_OUT, VALUE = range(5)

KEEP_NS = 100_000


def _final_rank(family) -> int:
    return sum(s.rank for s in family.groups.values())


def _cases(cert) -> int:
    """Defect selections evaluated: every case for brute, every block for bilinear."""
    return len(cert["blocks"]) if cert["method"] == "bilinear" else cert["cases"]


# What VALUE counts for a span name, computed from the call's result.
VALUE_OF = {
    "gf2.add": bool,  # rank grew
    "gf2.enumerate": len,  # members listed
    "structure.closure": _final_rank,
    "holes.verify_contradiction": _cases,
}


def _terms(x) -> int:
    terms = getattr(x, "terms", None)
    if isinstance(terms, frozenset):
        return len(terms)
    if isinstance(x, dict):
        return sum(_terms(v) for v in x.values())
    return 0


def _listing(fn):
    """Gf2Subspace.enumerate lists its members eagerly, so that its span covers the work."""

    def enumerate(self, *args, **kwargs):
        return list(fn(self, *args, **kwargs))

    return enumerate


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self.job = 0
        self._next_id = 0
        self._stack: list[list[int]] = [[0, 0]]  # [span id, child ns]; the root is id 0
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a new pass: zero the totals and drop the kept spans."""
        self.stats = {name: [0] * 5 for name in self.stats}
        self.spans = []

    def _wrap(self, name: str, fn, count_terms: bool):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns
        value_of = VALUE_OF.get(name)

        def wrapper(*args, **kwargs):
            stat = tracer.stats.get(name)
            if stat is None:
                stat = tracer.stats[name] = [0] * 5
            tracer._next_id += 1
            frame = [tracer._next_id, 0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[1] += t1 - t0
                stat[CALLS] += 1
                stat[SELF_NS] += t1 - t0 - frame[1]
                if t1 - t0 >= KEEP_NS:
                    tracer.spans.append((frame[0], parent[0], tracer.job, name, t0, t1))
            if count_terms:
                stat[TERMS_IN] += sum(_terms(a) for a in args)
                stat[TERMS_OUT] += _terms(out)
            if value_of is not None:
                stat[VALUE] += value_of(out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import chowq

        namespaces = [m for n, m in sys.modules.items() if n == "chowq" or n.startswith("chowq.")]
        for layer in LAYERS:
            module = sys.modules[f"chowq.{layer}"]
            for fname in module.__all__:
                fn = getattr(module, fname)
                if not isinstance(fn, types.FunctionType) or fname in PER_TERM:
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", fn, layer in CYCLE_OPS)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapped)
        self._patch(chowq.Cycle, "__post_init__", self._wrap("basis.cycle_init", chowq.Cycle.__post_init__, False))
        self._patch(chowq.Gf2Subspace, "add", self._wrap("gf2.add", chowq.Gf2Subspace.add, False))
        self._patch(
            chowq.Gf2Subspace, "enumerate", self._wrap("gf2.enumerate", _listing(chowq.Gf2Subspace.enumerate), False)
        )

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    def write_spans(self, path) -> None:
        """One JSON object per span: id, parent, job, name, start and end in ns."""
        with gzip.open(path, "wt") as fh:
            for sid, parent, job, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name, "t0": t0, "t1": t1}))
                fh.write("\n")


def group(stats: dict, names, field: int) -> int:
    return sum(stats.get(n, (0,) * 5)[field] for n in names)


def layer_names(stats: dict, layer: str) -> list[str]:
    return [n for n in stats if n.startswith(layer + ".")]
