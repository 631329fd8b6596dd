"""Outside-in instrumentation of ticketlab.

Everything here works by rebinding public functions of the package: a
wrapper replaces the function at every binding of it across the
``ticketlab.*`` namespaces (``engines`` holds its own ``train`` through
``from .nn import train``, the package root re-exports most names), and
the original object is put back afterwards.  Nothing under ``src/`` is
changed.

Two kinds of wrapper exist:

* ``Probe`` is installed on every op, traced or not.  It checks that every
  masked training result keeps its pruned positions at exactly zero and
  keeps the ``RunRecord`` of each engine call, so the checks can reach
  results that the CLI does not return.
* ``Tracer`` records one span per call of each function in ``TRACED``:
  name, start, end, parent span and op id, in flat arrays kept in memory
  until the run ends.  It also adds up the per-call counts defined in
  ``COUNTERS``.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from ticketlab import analysis, autodiff, cli, data, engines, nn, pruning

# span name -> (namespace that defines it, attribute).  The layer is the
# part of the name before the first dot.
TRACED = {
    "autodiff.backward": (autodiff.Var, "backward"),
    "autodiff.conv2d": (autodiff, "conv2d"),
    "autodiff.avgpool2x2": (autodiff, "avgpool2x2"),
    "autodiff.relu": (autodiff, "relu"),
    "autodiff.matmul": (autodiff, "matmul"),
    "autodiff.add": (autodiff, "add"),
    "autodiff.reshape": (autodiff, "reshape"),
    "autodiff.cross_entropy_mean": (autodiff, "cross_entropy_mean"),
    "nn.train": (nn, "train"),
    "nn.evaluate": (nn, "evaluate"),
    "pruning.magnitude_prune": (pruning, "magnitude_prune"),
    "data.distill_kmeans_herding": (data, "distill_kmeans_herding"),
    "data.distill_random": (data, "distill_random"),
    "data.distill_class_mean": (data, "distill_class_mean"),
    "data.load_idx": (data, "load_idx"),
    "engines.imp_run": (engines, "imp_run"),
    "engines.distilled_prune_run": (engines, "distilled_prune_run"),
    "engines.random_prune_run": (engines, "random_prune_run"),
    "analysis.train_twin": (analysis, "train_twin"),
    "analysis.interpolate_curve": (analysis, "interpolate_curve"),
    "analysis.weight_histogram": (analysis, "weight_histogram"),
    "cli.main": (cli, "main"),
    "cli.config_load": (cli.ExperimentConfig, "load"),
    "cli.atomic_write_text": (cli, "atomic_write_text"),
    "cli.atomic_write_bytes": (cli, "atomic_write_bytes"),
}

LAYERS = ("autodiff", "nn", "pruning", "data", "engines", "analysis", "cli")
PRIMITIVES = ("conv2d", "avgpool2x2", "relu", "matmul", "add", "reshape",
              "cross_entropy_mean")
ROOT_SPAN = "op"


def _record_of(result):
    # distilled_prune_run returns (params, mask, record)
    return result[2] if isinstance(result, tuple) else result


def _count_train(a, result):
    cfg, size = a["cfg"], a["data"].size
    return {"nn.sgd_steps": cfg.epochs * math.ceil(size / cfg.batch_size),
            "nn.examples_trained": cfg.epochs * size}


def _count_prune(a, result):
    sel = a["mask"].prunable_selector(a["scope"])
    before = int(np.count_nonzero(a["mask"].bits[sel]))
    return {"pruning.ranked_positions": before,
            "pruning.pruned_positions": before - int(np.count_nonzero(result.bits[sel]))}


def _count_engine(a, result):
    its = _record_of(result).iterations
    return {"engines.iterations": len(its),
            "engines.mask_phase_s": sum(it.mask_phase_seconds for it in its),
            "engines.finetune_s": sum(it.finetune_seconds or 0.0 for it in its)}


def _count_distill(a, result):
    return {"data.distill_points": a["data"].size}


def _count_write(a, result):
    payload = a["text"].encode() if "text" in a else a["blob"]
    return {"cli.files_written": 1, "cli.bytes_written": len(payload)}


# span name -> function(bound arguments, result) giving the counts one call adds
COUNTERS = {
    "nn.train": _count_train,
    "nn.evaluate": lambda a, r: {"nn.eval_examples": a["data"].size},
    "pruning.magnitude_prune": _count_prune,
    "data.distill_kmeans_herding": _count_distill,
    "data.distill_random": _count_distill,
    "data.distill_class_mean": _count_distill,
    "data.load_idx": lambda a, r: {"data.idx_bytes_read": os.path.getsize(a["images_path"])
                                   + os.path.getsize(a["labels_path"])},
    "engines.imp_run": _count_engine,
    "engines.distilled_prune_run": _count_engine,
    "engines.random_prune_run": _count_engine,
    "analysis.interpolate_curve": lambda a, r: {"analysis.interp_points": len(r.alphas)},
    "cli.atomic_write_text": _count_write,
    "cli.atomic_write_bytes": _count_write,
}


# ---------------------------------------------------------------------------
# Rebinding

def _ticketlab_namespaces():
    """Every ticketlab module and every class defined in one."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "ticketlab" or name.startswith("ticketlab."))]
    classes = {}
    for m in modules:
        for value in vars(m).values():
            if isinstance(value, type) and value.__module__.startswith("ticketlab"):
                classes[id(value)] = value
    return modules + list(classes.values())


def bindings():
    """{(namespace, attribute): value} over all ticketlab namespaces; used
    to prove that a rebinding was undone."""
    return {(id(ns), attr): value for ns in _ticketlab_namespaces()
            for attr, value in vars(ns).items()}


class Rebind:
    """Context manager replacing objects at every binding of them across the
    ticketlab namespaces, and putting the originals back on exit."""

    def __init__(self, replacements):
        self._by_id = {id(orig): (orig, new) for orig, new in replacements}
        self._undo = []

    def __enter__(self):
        for ns in _ticketlab_namespaces():
            for attr, value in list(vars(ns).items()):
                hit = self._by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        return self

    def __exit__(self, *exc):
        while self._undo:
            ns, attr, value = self._undo.pop()
            setattr(ns, attr, value)
        return False


def _rewrap(orig, make):
    """make(function) applied through a classmethod if orig is one."""
    if isinstance(orig, classmethod):
        return classmethod(make(orig.__func__))
    return make(orig)


def instrument(probe, tracer=None):
    """A Rebind installing the probe and, if given, the tracer."""
    wrapped = {id(orig): (orig, new) for orig, new in probe.replacements()}
    if tracer is not None:
        for name, (ns, attr) in TRACED.items():
            orig = vars(ns)[attr]
            inner = wrapped.get(id(orig), (orig, orig))[1]
            wrapped[id(orig)] = (orig, _rewrap(inner, functools.partial(tracer.wrap, name)))
    return Rebind(wrapped.values())


# ---------------------------------------------------------------------------
# Probe

class Probe:
    """Result checks that need values the program does not return."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.records = []
        self.trained = 0
        self.unmasked = 0  # training results with a nonzero pruned weight

    def replacements(self):
        def train(fn):
            @functools.wraps(fn)
            def probed(spec, params, mask, *args, **kwargs):
                out = fn(spec, params, mask, *args, **kwargs)
                self.trained += 1
                self.unmasked += bool(np.count_nonzero(out.values[mask.bits == 0.0]))
                return out
            return probed

        def engine(fn):
            @functools.wraps(fn)
            def probed(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.records.append(_record_of(out))
                return out
            return probed

        return [(nn.train, train(nn.train))] + [
            (f, engine(f)) for f in (engines.imp_run, engines.distilled_prune_run,
                                     engines.random_prune_run)]


# ---------------------------------------------------------------------------
# Tracer

class Tracer:
    """Spans in flat arrays: name code, parent index (-1 for a root), op id,
    start and end in perf_counter seconds."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.code = array("l")
        self.parent = array("l")
        self.op_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.op_counts = {}  # op id -> {counter: total}
        self.counts = defaultdict(float)  # where calls outside an op count
        self._stack = [-1]
        self._op = -1

    def _code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self, code):
        idx = len(self.start)
        self.code.append(code)
        self.parent.append(self._stack[-1])
        self.op_id.append(self._op)
        self.end.append(0.0)
        self.start.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """Root span of one op; spans opened inside belong to it."""
        self._op = op_id
        self.counts = self.op_counts[op_id] = defaultdict(float)
        idx = self._open(self._code(ROOT_SPAN))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1
            self.counts = defaultdict(float)

    def wrap(self, name, fn):
        """fn wrapped to record a span per call and add up its counts; the
        signature is read through any __wrapped__ chain."""
        code = self._code(name)
        count = COUNTERS.get(name)
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(code)
            self.start[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound.arguments, result).items():
                    self.counts[key] += value
            return result

        return traced

    def arrays(self):
        """(names per span, start, end, parent, op id) as numpy arrays."""
        names = np.array(self.names, dtype=object)[np.asarray(self.code, dtype=np.int64)]
        return (names, np.asarray(self.start), np.asarray(self.end),
                np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.op_id, dtype=np.int64))

    def save(self, path):
        """Write the spans; span i is named names[code[i]]."""
        np.savez_compressed(path, names=np.array(self.names), code=np.asarray(self.code),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent), op_id=np.asarray(self.op_id))


def self_times(start, end, parent):
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span never overlap and
    their durations add up to the time they cover."""
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(covered, parent[has], dur[has])
    return dur - covered


def span_totals(names, start, end, parent):
    """{span name: (busy seconds, self seconds, calls)}."""
    dur = np.asarray(end) - np.asarray(start)
    own = self_times(start, end, parent)
    out = {}
    for name in dict.fromkeys(names):
        sel = names == name
        out[name] = (float(dur[sel].sum()), float(own[sel].sum()), int(sel.sum()))
    return out


def op_spans(tracer, op_ids):
    """(names, start, end, parent) of the spans of the given ops, with
    parents re-indexed into that subset."""
    names, start, end, parent, op_id = tracer.arrays()
    keep = np.isin(op_id, list(op_ids))
    index = np.full(len(names), -1, dtype=np.int64)
    index[keep] = np.arange(int(keep.sum()))
    par = parent[keep]
    return names[keep], start[keep], end[keep], np.where(par >= 0, index[np.maximum(par, 0)], -1)


def layer_metrics(tracer, op_ids):
    """Per-layer metrics, each the mean over the given traced ops, as
    {name: (value, unit)}.  The layer self times plus trace.unattributed_s
    add up to trace.op_s."""
    names, start, end, par = op_spans(tracer, op_ids)
    totals = span_totals(names, start, end, par)
    n = len(op_ids)

    def busy(*spans):
        return sum(totals.get(s, (0.0, 0.0, 0))[0] for s in spans) / n

    def own(*spans):
        return sum(totals.get(s, (0.0, 0.0, 0))[1] for s in spans) / n

    counts = defaultdict(float)
    for op in op_ids:
        for key, value in tracer.op_counts.get(op, {}).items():
            counts[key] += value
    c = {k: v / n for k, v in counts.items()}

    parent_name = np.where(par >= 0, names[np.maximum(par, 0)], "")
    in_train = parent_name == "nn.train"
    prim = np.isin(names, ["autodiff." + p for p in PRIMITIVES])
    steps = c.get("nn.sgd_steps", 0.0)
    train_s = busy("nn.train")
    s, cnt = "s", "count"
    m = {
        "autodiff.backward_s": (busy("autodiff.backward"), s),
        **{f"autodiff.{p}_s": (busy("autodiff." + p), s) for p in PRIMITIVES},
        "autodiff.nodes_per_step": (int((prim & in_train).sum()) / n / steps
                                    if steps else 0.0, cnt),
        "nn.train_s": (train_s, s),
        "nn.train_self_s": (own("nn.train"), s),
        "nn.sgd_steps": (steps, cnt),
        "nn.examples_trained": (c.get("nn.examples_trained", 0.0), cnt),
        "nn.examples_per_s": (c.get("nn.examples_trained", 0.0) / train_s
                              if train_s else 0.0, "1/s"),
        "nn.step_ms": (1000.0 * train_s / steps if steps else 0.0, "ms"),
        "nn.evaluate_s": (busy("nn.evaluate"), s),
        "nn.eval_examples": (c.get("nn.eval_examples", 0.0), cnt),
        "pruning.magnitude_prune_s": (busy("pruning.magnitude_prune"), s),
        "pruning.ranked_positions": (c.get("pruning.ranked_positions", 0.0), cnt),
        "pruning.pruned_positions": (c.get("pruning.pruned_positions", 0.0), cnt),
        "pruning.pruned_per_ranked": (
            c.get("pruning.pruned_positions", 0.0) / c["pruning.ranked_positions"]
            if c.get("pruning.ranked_positions") else 0.0, "ratio"),
        "data.distill_s": (busy("data.distill_kmeans_herding", "data.distill_random",
                                "data.distill_class_mean"), s),
        "data.distill_points": (c.get("data.distill_points", 0.0), cnt),
        "data.load_idx_s": (busy("data.load_idx"), s),
        "data.idx_bytes_read": (c.get("data.idx_bytes_read", 0.0), "bytes"),
        "engines.run_s": (busy("engines.imp_run", "engines.distilled_prune_run",
                               "engines.random_prune_run"), s),
        "engines.iterations": (c.get("engines.iterations", 0.0), cnt),
        "engines.mask_phase_s": (c.get("engines.mask_phase_s", 0.0), s),
        "engines.finetune_s": (c.get("engines.finetune_s", 0.0), s),
        "analysis.train_twin_s": (busy("analysis.train_twin"), s),
        "analysis.interpolate_s": (busy("analysis.interpolate_curve"), s),
        "analysis.interp_points": (c.get("analysis.interp_points", 0.0), cnt),
        "analysis.weight_histogram_s": (busy("analysis.weight_histogram"), s),
        "cli.main_s": (busy("cli.main"), s),
        "cli.config_load_s": (busy("cli.config_load"), s),
        "cli.write_s": (busy("cli.atomic_write_text", "cli.atomic_write_bytes"), s),
        "cli.files_written": (c.get("cli.files_written", 0.0), cnt),
        "cli.bytes_written": (c.get("cli.bytes_written", 0.0), "bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (own(*[t for t in TRACED if t.startswith(layer + ".")]), s)
    m["trace.op_s"] = (busy(ROOT_SPAN), s)
    m["trace.unattributed_s"] = (own(ROOT_SPAN), s)
    return m
