"""Closed-loop measurement of one workload: one client, each op starting
when the previous one and its checks have finished.

``measure`` returns the result of one run; ``main`` prints it, writes the
run record and the deterministic result fields under ``.bench_out/`` and
ends stdout with the one-line JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback

import numpy as np

import tracing
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 11
END_TO_END_UNITS = {"run_s": "s", "time_to_mask_s": "s", "final_accuracy": "fraction",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def tail_percentile(samples):
    """(p, value): the highest whole percentile with at least ten samples
    above it, by nearest rank; None with ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(samples)[rank - 1]


def git_commit(root):
    """HEAD of the checkout at root, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


class Loop:
    """Runs and checks ops of one workload on one fixture, recording each
    op's wall time and outcome."""

    def __init__(self, workload, fixture, probe):
        self.workload, self.fixture, self.probe = workload, fixture, probe
        self.walls, self.outcomes, self.errors = [], [], []

    def run_op(self, tracer=None):
        index = len(self.walls)
        self.probe.reset()
        error, result = None, None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.workload.op(self.fixture)
            else:
                with tracer.op(index):
                    result = self.workload.op(self.fixture)
        except Exception:
            error = traceback.format_exc()
        self.walls.append(time.perf_counter() - t0)
        outcome = None
        if error is None:
            try:
                outcome = self.workload.check(self.fixture, result, self.probe)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            self.errors.append({"op": index, "failures": [error]})
        else:
            if self.outcomes and outcome.deterministic != self.outcomes[0].deterministic:
                outcome.failures.append("deterministic fields differ from the first op")
            if outcome.failures:
                self.errors.append({"op": index, "failures": outcome.failures})
        self.outcomes.append(outcome)
        # free this op's garbage now, so the next op neither pays for it
        # nor raises the peak RSS with it
        self.probe.reset()
        gc.collect()
        return index

    def until(self, deadline, tracer=None):
        """Indices of ops run until the next one would end after deadline;
        at least one."""
        done, cycles = [], []
        while True:
            t0 = time.perf_counter()
            done.append(self.run_op(tracer))
            cycles.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(cycles) > deadline:
                return done


def measure(name, seed, seconds, trace, workdir, **sizes):
    """One run of a workload: (result record as a dict, Tracer or None).

    The first op warms up and is checked but not timed.  A traced run then
    times one untraced op, to give the tracing overhead, and traces the
    rest."""
    workload = WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fixture = workload.setup(seed, workdir, **sizes)
        setups.append(time.perf_counter() - t0)

    probe = tracing.Probe()
    loop = Loop(workload, fixture, probe)
    tracer = tracing.Tracer() if trace else None
    with tracing.instrument(probe):
        loop.run_op()
        start = time.perf_counter()
        if trace:
            timed = [loop.run_op()]
        else:
            timed = loop.until(start + seconds)
    if trace:
        with tracing.instrument(probe, tracer):
            traced = loop.until(start + seconds, tracer=tracer)

    good = [o for o in loop.outcomes if o is not None]
    walls = [loop.walls[i] for i in timed]
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "attempted": len(loop.walls),
        "failed": len(loop.errors),
        "errors": loop.errors,
        "op_seconds": loop.walls,
        "timed_ops": timed,
        "setup_seconds": setups,
        "deterministic": good[0].deterministic if good else None,
    }
    tail = tail_percentile(walls)
    record["run_s_tail"] = None if tail is None else {"percentile": tail[0], "value": tail[1]}
    if trace:
        layer = tracing.layer_metrics(tracer, traced)
        layer["trace.overhead_s"] = (layer["trace.op_s"][0] - walls[0], "s")
        record["metrics"] = layer
        record["spans_per_op"] = {
            name: {"busy_s": busy / len(traced), "self_s": own / len(traced),
                   "calls": calls / len(traced)}
            for name, (busy, own, calls) in tracing.span_totals(
                *tracing.op_spans(tracer, traced)).items()}
        return record, tracer

    ttm = [t for i in timed if loop.outcomes[i] is not None
           for t in loop.outcomes[i].time_to_mask]
    metrics = {  # None where every op failed
        "run_s": statistics.median(walls),
        "time_to_mask_s": statistics.median(ttm) if ttm else None,
        "final_accuracy": statistics.fmean(o.final_accuracy for o in good) if good else None,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record["metrics"] = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return record, None


def _report(record):
    """Human-readable lines before the JSON result line."""
    lines = [f"workload {record['workload']}: {record['attempted']} ops, "
             f"{record['failed']} failed, error_rate "
             f"{record['failed'] / record['attempted']:.4g}"]
    walls = [record["op_seconds"][i] for i in record["timed_ops"]]
    tail = record["run_s_tail"]
    lines.append(f"op wall s: median {statistics.median(walls):.4f}, n={len(walls)}, "
                 + (f"p{tail['percentile']} {tail['value']:.4f}" if tail else
                    "no percentile has ten samples above it"))
    for name, (value, unit) in record["metrics"].items():
        lines.append(f"  {name} = {value if value is None else format(value, '.6g')} {unit}")
    for err in record["errors"]:
        lines.append(f"op {err['op']} failed: " + " | ".join(err["failures"]))
    lines.append("environment " + json.dumps(record["environment"], sort_keys=True))
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    out_dir = os.path.join(ROOT, ".bench_out", args.workload)
    workdir = os.path.join(out_dir, f"seed{args.seed}")
    record, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             workdir)
    stem = os.path.join(out_dir, f"seed{args.seed}")
    with open(stem + ".deterministic.json", "w") as f:
        json.dump(record["deterministic"], f, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.save(stem + ".spans.npz")
    with open(stem + f".trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for line in _report(record):
        print(line)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0
