"""Command-line front end and deterministic report emission.

Subcommands: distill, prune, report, validate.  Configs are JSON; reports
are CSV tables plus a summary JSON written atomically, the LMC curve and
weight histograms among them when the config's report options ask.  Exit
codes: 0 ok, 2 config error, 3 runtime failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
from pathlib import Path

import numpy as np

from . import analysis, data as data_mod, engines, nn, pruning

SCHEMA_VERSION = 1
MASK_MAGIC = b"MASK"

ITERATIONS_HEADER = ("method", "seed", "iteration", "sparsity", "test_accuracy",
                     "mask_phase_seconds", "finetune_seconds")
LMC_HEADER = ("alpha", "accuracy", "loss", "mask_sparsity", "seed_a", "seed_b")
HIST_HEADER = ("bin_left", "bin_right", "count", "sparsity")

EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Every diagnostic of a config, joined by "; " in the message."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# Atomic file output

def atomic_write_text(path, text):
    """UTF-8 with the text's own line endings."""
    data_mod.atomic_write(path, text.encode("utf-8"))


def atomic_write_bytes(path, blob):
    data_mod.atomic_write(path, blob)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def csv_text(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def strip_timing_columns(csv_body: str) -> str:
    """Drop wall-clock columns so tables can be compared byte-for-byte."""
    lines = csv_body.splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if not name.endswith("_seconds")]
    out = [",".join(line.split(",")[i] for i in keep) for line in lines]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Mask persistence: bit-packed binary + JSON sidecar

def save_mask(path, mask: pruning.SparsityMask, method="", seed=0):
    blob = MASK_MAGIC + struct.pack("<I", mask.bits.size) + np.packbits(mask.bits).tobytes()
    atomic_write_bytes(path, blob)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "layer_map": [{"name": e.name, "offset": e.offset, "length": e.length,
                       "kind": e.kind} for e in mask.layer_map],
        "sparsity": pruning.sparsity(mask),
        "whole_vector_sparsity": pruning.whole_vector_sparsity(mask),
        "method": method,
        "seed": seed,
    }
    atomic_write_text(path + ".json", json.dumps(sidecar, indent=2, allow_nan=False) + "\n")


def load_mask(path) -> pruning.SparsityMask:
    with open(path, "rb") as f:
        if data_mod.read_exact(f, 4, "magic") != MASK_MAGIC:
            raise data_mod.FormatError(f"bad magic in {path}")
        n, = struct.unpack("<I", data_mod.read_exact(f, 4, "bit count"))
        payload = data_mod.read_exact(f, -(-n // 8), "payload")
        if f.read(1):
            raise data_mod.FormatError(f"trailing bytes in {path}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n)
    try:
        with open(path + ".json", encoding="utf-8") as f:
            entries = json.load(f)["layer_map"]
        layer_map = tuple(nn.LayerEntry(e["name"], e["offset"], e["length"], e["kind"])
                          for e in entries)
        return pruning.SparsityMask(bits, layer_map)
    except (KeyError, TypeError, ValueError, RecursionError) as e:
        # ValueError: not UTF-8, not JSON, or a layer map that does not tile the bits
        raise data_mod.FormatError(f"{path}.json: bad sidecar ({e!r})") from None


# ---------------------------------------------------------------------------
# Experiment configuration

METHODS = ("imp", "distilled", "random")
DISTILLERS = tuple(data_mod.PROVENANCE_CODES)
_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
          int: "an integer", float: "a finite number"}
_UNSET = object()  # a field left to the default of the library function _make calls


def _is_kind(value, kind):
    """A JSON value of `kind`: bool is no number, and a number is a finite float."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


class ExperimentConfig:
    """A JSON config and every object a command builds from it, before any
    training: the --method and --seed overrides applied, each field read once
    through `get`, the model, training, pruning, report and distiller
    settings constructed and the IDX data loaded.  A model, prune or
    training key the config leaves out is not passed to its constructor,
    whose default then applies.  Whatever would stop the run, or a key that
    no field reads, is a diagnostic, and all of them are raised as one
    ConfigError.  Synthetic data takes the model's input shape and classes,
    and is checked from its fields; a dry build never makes it."""

    def __init__(self, raw, base_dir="", method=None, seeds=None, dry=False):
        self.raw, self.base_dir = raw, base_dir
        self.diagnostics, self._synth, self._read = [], None, {}
        if not isinstance(raw, dict):
            raise ConfigError(["config root must be a JSON object"])
        self._build(method, seeds)
        self._unread(raw, "")
        if self.diagnostics:
            raise ConfigError(self.diagnostics)
        if self._synth and not dry:
            self.train, self.test = (data_mod.synth_dataset(*a) for a in self._synth)

    @classmethod
    def load(cls, path, method=None, seeds=None, dry=False):
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise ConfigError([f"invalid JSON: {e}"]) from None
        return cls(raw, os.path.dirname(path), method, seeds, dry)

    def get(self, name, default=None, kind=float, choices=None):
        """The field at dotted `name`, or `default` (None: required) if absent.
        A missing required field or a value not of `kind` or not among `choices`
        adds a diagnostic and gives `default`, as does, without one, any field
        under a section that is not an object; other rules are run by `_make`."""
        self._read[name] = kind
        *parents, key = name.split(".")
        section = self.raw
        for parent in parents:
            section = section.get(parent) if isinstance(section, dict) else None
        if not isinstance(section, dict) or key not in section:
            if default is None and isinstance(section, dict):
                self.diagnostics.append(f"{name} missing")
            return default
        value = section[key]
        if not _is_kind(value, kind):
            problem = f"must be {_KINDS[kind]}"
        elif choices is not None and value not in choices:
            problem = f"must be one of {', '.join(choices)}"
        else:
            return value
        self.diagnostics.append(f"{name} {problem}")
        return default

    def _file(self, name):
        """The path of the existing file named at `name`, else None; a
        relative path is taken from the directory of the config file."""
        value = self.get(name, kind=str)
        if value is not None and not os.path.exists(os.path.join(self.base_dir, value)):
            self.diagnostics.append(f"{name} file not found: {value}")
            value = None
        return value if value is None else os.path.join(self.base_dir, value)

    def _unread(self, section, prefix):
        """A diagnostic per unread key of `section` and of each section read in it."""
        for key, value in section.items():
            kind = self._read.get(prefix + key)
            if kind is None:
                self.diagnostics.append(f"{prefix}{key} is never read")
            elif kind is dict and isinstance(value, dict):
                self._unread(value, f"{prefix}{key}.")

    def _make(self, since, prefix, build, *args, **fields):
        """build(*args, **fields), else None: untried if a field it reads has a
        diagnostic (made after `since`), and a diagnostic per rule it reports
        broken.  A field read as _UNSET is left out, so build's default applies."""
        if len(self.diagnostics) > since:
            return None
        try:
            return build(*args, **{k: v for k, v in fields.items() if v is not _UNSET})
        except (ValueError, TypeError) as e:
            self.diagnostics.extend(prefix + rule for rule in str(e).split("; "))

    def _build(self, method, seeds):
        get = self.get
        self.out_dir = get("out_dir", "ticketlab_out", str)
        configured = get("method", "imp", str, choices=METHODS)  # read even if overridden
        self.method = method or configured
        configured = get("seeds", [0, 1, 2, 3, 4], list)  # read even if overridden
        self.seeds = tuple(seeds or configured)
        if not (self.seeds and all(nn.is_whole(s, 0) for s in self.seeds)
                and len(set(self.seeds)) == len(self.seeds)):
            self.diagnostics.append(
                "seeds must be a non-empty list of distinct non-negative integers")

        n = len(self.diagnostics)
        get("model", kind=dict)
        arch, shape = get("model.architecture", kind=str), get("model.input_shape", kind=list)
        classes = get("model.num_classes", kind=int)
        sizes = {key: get(f"model.{key}", _UNSET, list) for key in ("hidden", "channels")}
        self.spec = self._make(n, "model: ", nn.ModelSpec, arch, shape, classes, **sizes)

        n = len(self.diagnostics)
        get("prune", {}, dict)
        train = {key: self._train_config(key) for key in ("mask_train", "finetune")}
        fields = dict(desired_sparsity=get("prune.desired_sparsity", 0.5),
                      amount=get("prune.amount", _UNSET),
                      rewind_epoch=get("prune.rewind_epoch", _UNSET, int),
                      prune_scope=get("prune.scope", _UNSET, str, choices=pruning.SCOPES))
        self.cfg = self._make(n, "prune: ", engines.PruneRunConfig, **fields,
                              train_config_mask=train["mask_train"],
                              train_config_finetune=train["finetune"])

        get("report", {}, dict)
        self.report = {key: get(f"report.{key}", default, kind) for key, default, kind in (
            ("finetune_each", True, bool), ("lmc", False, bool), ("histograms", False, bool),
            ("lmc_points", 21, int), ("threshold", 0.02, float), ("num_bins", 30, int))}
        for key, grid in (("lmc_points", "num_points"), ("num_bins", "num_bins")):
            self._make(len(self.diagnostics), f"report.{key}: ", analysis.check_grid,
                       **{grid: self.report[key]})
        self._distiller(self._data())

    def _train_config(self, key):
        """The TrainConfig of prune.`key`, whose epochs are prune.`key`_epochs."""
        get, name = self.get, f"prune.{key}"
        n = len(self.diagnostics)
        get(name, {}, dict)
        epochs = get(f"{name}_epochs", 3, int)
        fields = {field: get(f"{name}.{field}", _UNSET, kind) for field, kind in (
            ("learning_rate", float), ("momentum", float), ("weight_decay", float),
            ("batch_size", int), ("milestones", list), ("gamma", float), ("shuffle_seed", int))}
        return self._make(n, f"{name}: ", nn.TrainConfig, epochs, **fields)

    def _data(self):
        """Check the dataset against the model, loading IDX files into
        self.train and self.test; the smallest class size, or None if unusable."""
        get = self.get
        n = len(self.diagnostics)
        get("dataset", kind=dict)
        source = get("dataset.source", kind=str, choices=("idx", "synth"))
        if source == "idx":
            keys = ["images", "labels", "test_images", "test_labels"]  # test: both or neither
            keys = keys if set(keys[2:]) & set(self.raw["dataset"]) else keys[:2]
            files = [self._file(f"dataset.{key}") for key in keys]
            if len(self.diagnostics) > n:
                return None
            sets = [data_mod.load_idx(*files[i:i + 2]) for i in range(0, len(files), 2)]
            self.train, self.test = sets[0], sets[-1]
            for i, d in enumerate(sets if self.spec else ()):
                m = len(self.diagnostics)
                for key, y in zip(keys[2 * i:], (None, d.labels)):  # labels once images fit
                    self._make(m, f"dataset.{key}: ", nn.check_data, self.spec, d.examples, y)
            return int(self.train.class_counts().min())
        if source == "synth":
            kind, per_class = get("dataset.kind", kind=str), get("dataset.per_class", kind=int)
            test_per_class = get("dataset.test_per_class", (per_class or 0) // 4 or 1, int)
            noise, seed = get("dataset.noise", 0.5), get("dataset.seed", 0, int)
            if self.spec is None:  # the model diagnostics say why
                return None
            shape, classes = self.spec.input_shape, self.spec.num_classes
            self._synth = ((kind, classes, per_class, noise, seed, shape),
                           (kind, classes, test_per_class, noise, seed + 10_000, shape))
            for prefix, args in zip(("dataset.", "dataset.test_"), self._synth):
                self._make(n, prefix, data_mod.check_synth, *args)
            return per_class if len(self.diagnostics) == n else None

    def _distiller(self, smallest):
        """Read and check the distiller settings; if the method is distilled,
        check them against the data too, loading an external distilled set."""
        get = self.get
        n = len(self.diagnostics)
        get("distiller", {}, dict)
        kind = get("distiller.kind", "kmeansHerding", str, choices=DISTILLERS)
        # a kind reads only the fields it uses; classMean distills one per class
        picks = kind in ("random", "kmeansHerding")
        ipc = get("distiller.ipc", 10, int) if picks else 1
        seed = get("distiller.seed", 0, int) if picks else _UNSET
        iterations = get("distiller.iterations", 50, int) if kind == "kmeansHerding" else _UNSET
        path = self._file("distiller.path") if kind == "external" else None
        # (distiller, its arguments after self.train): no closure over self to make a cycle
        self._distill = {
            "classMean": (data_mod.distill_class_mean,),
            "random": (data_mod.distill_random, ipc, seed),
            "kmeansHerding": (data_mod.distill_kmeans_herding, ipc, iterations, seed),
        }.get(kind)
        distills = self.method == "distilled"
        # every rule runs; the class bound only on a section read without a diagnostic
        bound = distills and kind != "external" and len(self.diagnostics) == n
        self._make(len(self.diagnostics), "distiller.", data_mod.check_distiller, ipc=ipc,
                   seed=seed, iterations=iterations, smallest=smallest if bound else None)
        if distills and kind == "external" and len(self.diagnostics) == n:
            dsyn = data_mod.load_distilled(path)
            self._distill = (lambda _: dsyn,)
            if self.spec:
                self._make(n, "distiller.path: ", nn.check_data, self.spec, dsyn.examples,
                           dsyn.labels)

    def distilled(self):
        """The set the mask trains on, made from self.train by the distiller."""
        return self._distill[0](self.train, *self._distill[1:])


def validate_config(path):
    """Every diagnostic of a dry build of the config at `path`; [] if valid."""
    try:
        ExperimentConfig.load(path, dry=True)
    except ConfigError as e:
        return e.diagnostics
    return []


# ---------------------------------------------------------------------------
# Experiment orchestration

def run_experiment(config: ExperimentConfig, out_dir) -> dict:
    """Run the configured engine over all seeds, write the report into `out_dir`
    and return its summary.  As each seed ends, its mask and the table so far are
    written (an earlier run's summary.json removed first), so a failed run leaves
    its finished seeds for `report`; the summary and the rest follow the last seed."""
    spec, cfg, method, opts = config.spec, config.cfg, config.method, config.report
    d_syn = config.distilled() if method == "distilled" else None
    records, rows = [], []
    for seed in config.seeds:
        theta = nn.init_params(spec, seed)
        kw = dict(eval_data=config.test, finetune_each=opts["finetune_each"], seed=seed)
        # engines.<name> is looked up per call, so a rebound engine is the one run
        if method == "distilled":
            rec = engines.distilled_prune_run(spec, theta, d_syn, config.train, cfg, **kw)[2]
        else:
            run = engines.imp_run if method == "imp" else engines.random_prune_run
            rec = run(spec, theta, config.train, cfg, **kw)
        records.append(rec)
        Path(out_dir, "summary.json").unlink(missing_ok=True)
        save_mask(os.path.join(out_dir, f"mask_{rec.method}_seed{rec.seed}.mask"),
                  rec.final_mask, rec.method, rec.seed)
        rows += [(rec.method, rec.seed, it.index, it.sparsity, it.finetune_accuracy,
                  it.mask_phase_seconds, it.finetune_seconds) for it in rec.iterations]
        atomic_write_text(os.path.join(out_dir, "iterations.csv"),
                          csv_text(ITERATIONS_HEADER, rows))

    summary = summarize(records)
    if opts["lmc"]:
        summary["lmc"] = _emit_lmc(config, records[0], os.path.join(out_dir, "lmc.csv"))
    if opts["histograms"]:
        summary["survivor_magnitude_ratio"] = _emit_histograms(config, records, out_dir)
    _write_summary(out_dir, summary)
    return summary


def summarize(records):
    """The summary of a run's records: their sorted methods, their seeds,
    the first record's final sparsity, best-seed and mean/std finetuned
    accuracy per sparsity level, and each seed's time-to-mask."""
    by_level = {}
    for rec in records:
        for it in rec.iterations:
            if it.finetune_accuracy is not None:
                by_level.setdefault(round(it.sparsity, 12), []).append(
                    (rec.seed, it.finetune_accuracy))
    levels = []
    for level in sorted(by_level):
        pairs = by_level[level]
        accs = np.array([a for _, a in pairs])
        best_seed, best_acc = max(pairs, key=lambda p: (p[1], -p[0]))
        levels.append({"sparsity": level, "mean_accuracy": float(accs.mean()),
                       "std_accuracy": float(accs.std()), "best_seed": int(best_seed),
                       "best_accuracy": float(best_acc)})
    return {
        "schema_version": SCHEMA_VERSION,
        "method": ",".join(sorted({rec.method for rec in records})),
        "seeds": [rec.seed for rec in records],
        "final_sparsity": records[0].final_sparsity,
        "levels": levels,
        "time_to_mask_seconds": {
            str(rec.seed): {
                "mask_only": engines.time_to_mask(rec, False),
                "with_final_retrain": engines.time_to_mask(rec, True),
            } for rec in records
        },
    }


def _write_summary(out_dir, summary):
    atomic_write_text(os.path.join(out_dir, "summary.json"),
                      json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _emit_lmc(config, record, path):
    """Train two twins of the final mask from the record's rewind point,
    as its finetunes were, and write their interpolation curve."""
    seed_a, seed_b = 1, 2
    spec, opts = config.spec, config.report
    mask = record.final_mask
    ta, tb = analysis.train_twin(spec, record.rewind, mask, config.train,
                                 config.cfg.train_config_finetune, seed_a, seed_b)
    curve = analysis.interpolate_curve(spec, ta, tb, mask, config.test,
                                       opts["lmc_points"])
    rows = [(a, acc, loss, curve.mask_sparsity, seed_a, seed_b)
            for a, acc, loss in zip(curve.alphas, curve.accuracies, curve.losses)]
    atomic_write_text(path, csv_text(LMC_HEADER, rows))
    rep = analysis.instability(curve, opts["threshold"])
    return {"error_barrier": rep.error_barrier, "stable": rep.stable,
            "threshold": opts["threshold"]}


def _emit_histograms(config, records, out_dir):
    """Write one histogram per layer of the first record's final mask over
    its initial weights; each record's survivor magnitude ratio, by seed."""
    thetas = [nn.init_params(config.spec, rec.seed) for rec in records]
    theta, mask = thetas[0], records[0].final_mask
    for name in dict.fromkeys(e.name for e in theta.layer_map):
        hist = analysis.weight_histogram(theta, mask, name, config.report["num_bins"])
        rows = [(hist.bin_edges[i], hist.bin_edges[i + 1], int(hist.counts[i]),
                 hist.sparsity) for i in range(len(hist.counts))]
        atomic_write_text(os.path.join(out_dir, f"hist_{name}.csv"),
                          csv_text(HIST_HEADER, rows))
    return {str(rec.seed): analysis.survivor_magnitude_ratio(t, rec.final_mask)
            for rec, t in zip(records, thetas)}


def rebuild_summary(out_dir):
    """summarize() of the records in iterations.csv.  A row starts a new
    record unless it has the previous row's method and seed; then its
    iteration must be higher.  A seed starts one record only.  The table
    holds no masks (None in the records), and no LMC result."""
    path = os.path.join(out_dir, "iterations.csv")
    records, previous = [], ()
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        if len(lines) < 2:
            raise ValueError("no iteration rows")
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells under {len(header)} columns")
            row = dict(zip(header, cells))
            method, seed, index = row["method"], int(row["seed"]), int(row["iteration"])
            accuracy, finetune = (float(row[key]) if row[key] else None
                                  for key in ("test_accuracy", "finetune_seconds"))
            if (method, seed) != previous[:2]:
                if seed in (rec.seed for rec in records):
                    raise ValueError(f"seed {seed} starts a second record")
                records.append(engines.RunRecord(method, seed))
            elif index <= previous[2]:
                raise ValueError(f"seed {seed}: iteration {index} after {previous[2]}")
            previous = (method, seed, index)
            records[-1].iterations.append(engines.IterationRecord(
                index, None, float(row["sparsity"]), float(row["mask_phase_seconds"]),
                accuracy, finetune))
        for rec in records:
            rec.validate()
        summary = summarize(records)
        json.dumps(summary, allow_nan=False)  # finite seconds may sum to inf
    except (KeyError, ValueError) as e:
        raise data_mod.FormatError(f"{path}: {e!r}") from None
    return summary


# ---------------------------------------------------------------------------
# Entry point

def _parser():
    p = argparse.ArgumentParser(prog="ticketlab",
                                description="Sparse-subnetwork pruning laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("distill", "prune"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
    # prune's flags; distill has no --seed, as the distiller's seed is distiller.seed
    sp.add_argument("--seed", type=int, action="append", default=None)
    sp.add_argument("--method", choices=METHODS, default=None)
    sp = sub.add_parser("report")
    sp.add_argument("--out", required=True)
    sp = sub.add_parser("validate")
    sp.add_argument("--config", required=True)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except engines.RUNTIME_FAILURES as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, data_mod.FormatError) as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_IO


def _dispatch(args):
    if args.command == "validate":
        diagnostics = validate_config(args.config)
        print(json.dumps({"diagnostics": diagnostics}))
        return 0 if not diagnostics else EXIT_CONFIG

    if args.command == "report":
        # the rebuilt keys replace their old values; the others (lmc) stay
        summary = rebuild_summary(args.out)
        try:
            with open(os.path.join(args.out, "summary.json"), encoding="utf-8") as f:
                kept = json.load(f)
            json.dumps(kept, allow_nan=False)  # NaN, Infinity and 1e999 are unreadable too
        except (OSError, ValueError, RecursionError):
            kept = None  # none, or unreadable: the rebuilt summary replaces it
        summary = {**kept, **summary} if isinstance(kept, dict) else summary
        _write_summary(args.out, summary)
        print(json.dumps(summary, sort_keys=True))
        return 0

    method = "distilled" if args.command == "distill" else args.method
    config = ExperimentConfig.load(args.config, method, getattr(args, "seed", None))
    out_dir = args.out or config.out_dir

    if args.command == "distill":
        dsyn = config.distilled()
        path = os.path.join(out_dir, "dsyn.dstl")
        data_mod.save_distilled(dsyn, path)
        print(json.dumps({"path": path, "ipc": dsyn.ipc, "size": dsyn.size,
                          "provenance": dsyn.provenance}))
        return 0

    print(json.dumps(run_experiment(config, out_dir), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
