"""Command-line front end and deterministic report emission.

Subcommands: distill, prune, lmc, weights, report, validate.  Configs are
JSON; reports are CSV tables plus a summary JSON written atomically.  Exit
codes: 0 ok, 2 config error, 3 runtime divergence, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import tempfile
from dataclasses import dataclass

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
    pass


# ---------------------------------------------------------------------------
# Atomic file output

def _atomic_write(path, blob):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    """UTF-8 with the text's own line endings."""
    _atomic_write(path, text.encode("utf-8"))


def atomic_write_bytes(path, blob):
    _atomic_write(path, blob)


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
    bits = mask.bits.astype(np.uint8)
    blob = MASK_MAGIC + struct.pack("<I", bits.size) + np.packbits(bits).tobytes()
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
    atomic_write_text(path + ".json", json.dumps(sidecar, indent=2) + "\n")


def _tiles(layer_map, n):
    """True if the entries cover positions 0..n-1 in order, without gaps."""
    covered = 0
    for e in layer_map:
        if e.offset != covered or not isinstance(e.length, int) or e.length < 0:
            return False
        covered += e.length
    return covered == n


def load_mask(path) -> pruning.SparsityMask:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MASK_MAGIC:
        raise data_mod.FormatError(f"bad magic in {path}")
    if len(blob) < 8:
        raise data_mod.FormatError(f"truncated header in {path}")
    n, = struct.unpack("<I", blob[4:8])
    if len(blob) - 8 != -(-n // 8):
        raise data_mod.FormatError(
            f"{path}: {len(blob) - 8} payload bytes for {n} bits")
    bits = np.unpackbits(np.frombuffer(blob[8:], dtype=np.uint8), count=n)
    with open(path + ".json") as f:
        sidecar = json.load(f)
    try:
        layer_map = tuple(nn.LayerEntry(e["name"], e["offset"], e["length"], e["kind"])
                          for e in sidecar["layer_map"])
    except (KeyError, TypeError) as e:
        raise data_mod.FormatError(f"{path}.json: bad layer_map ({e!r})") from None
    if not _tiles(layer_map, n):
        raise data_mod.FormatError(f"{path}.json: layer_map does not cover {n} positions")
    return pruning.SparsityMask(bits.astype(np.float64), layer_map)


# ---------------------------------------------------------------------------
# Experiment configuration

@dataclass
class ExperimentConfig:
    raw: dict
    base_dir: str = ""      # directory of the config file

    @classmethod
    def load(cls, path):
        raw, diagnostics = _read_config(path)
        if diagnostics:
            raise ConfigError("; ".join(diagnostics))
        return cls(raw, os.path.dirname(path))

    def path(self, name):
        """A path named in the config; relative ones are taken from the
        directory of the config file."""
        return os.path.join(self.base_dir, name)

    def model_spec(self) -> nn.ModelSpec:
        m = self.raw["model"]
        return nn.ModelSpec(
            architecture=m["architecture"],
            input_shape=tuple(m["input_shape"]),
            num_classes=m["num_classes"],
            hidden=tuple(m.get("hidden", ())),
            channels=tuple(m.get("channels", ())),
        )

    def _train_config(self, key, epochs):
        sub = self.raw.get("prune", {}).get(key, {})
        return nn.TrainConfig(
            epochs=epochs,
            learning_rate=sub.get("learning_rate", 0.1),
            momentum=sub.get("momentum", 0.9),
            weight_decay=sub.get("weight_decay", 0.0),
            batch_size=sub.get("batch_size", 32),
            milestones=tuple(sub.get("milestones", ())),
            gamma=sub.get("gamma", 1.0),
            shuffle_seed=sub.get("shuffle_seed", 0),
        )

    def prune_config(self) -> engines.PruneRunConfig:
        p = self.raw.get("prune", {})
        t = p.get("mask_train_epochs", 3)
        n = p.get("finetune_epochs", 3)
        return engines.PruneRunConfig(
            desired_sparsity=p.get("desired_sparsity", 0.5),
            amount=p.get("amount", 0.2),
            mask_train_epochs=t,
            finetune_epochs=n,
            rewind_epoch=p.get("rewind_epoch", 0),
            prune_scope=pruning.PruneScope(p.get("scope", "global")),
            train_config_mask=self._train_config("mask_train", t),
            train_config_finetune=self._train_config("finetune", n),
            iteration_cap=p.get("iteration_cap", engines.DEFAULT_ITERATION_CAP),
            seeds=tuple(self.raw.get("seeds", (0, 1, 2, 3, 4))),
        )

    def datasets(self):
        """(train dataset, eval dataset) from the configured source."""
        d = self.raw["dataset"]
        if d["source"] == "idx":
            train = data_mod.load_idx(self.path(d["images"]), self.path(d["labels"]))
            if "test_images" not in d:
                return train, train
            return train, data_mod.load_idx(self.path(d["test_images"]),
                                            self.path(d["test_labels"]),
                                            num_classes=train.num_classes)
        shape = tuple(d.get("input_shape", (2,)))
        train = data_mod.synth_dataset(d["kind"], d["num_classes"], d["per_class"],
                                       d.get("noise", 0.5), d.get("seed", 0), shape)
        test = data_mod.synth_dataset(d["kind"], d["num_classes"],
                                      d.get("test_per_class", d["per_class"] // 4 or 1),
                                      d.get("noise", 0.5), d.get("seed", 0) + 10_000,
                                      shape)
        return train, test

    def distilled(self, train_set) -> data_mod.DistilledDataset:
        d = self.raw.get("distiller", {"kind": "kmeansHerding", "ipc": 10})
        kind = d.get("kind", "kmeansHerding")
        if kind == "external":
            return data_mod.load_distilled(self.path(d["path"]))
        if kind == "classMean":
            return data_mod.distill_class_mean(train_set)
        if kind == "random":
            return data_mod.distill_random(train_set, d.get("ipc", 10),
                                           d.get("seed", 0))
        return data_mod.distill_kmeans_herding(train_set, d.get("ipc", 10),
                                               d.get("iterations", 50),
                                               d.get("seed", 0))

    def report_options(self):
        r = self.raw.get("report", {})
        return {
            "finetune_each": r.get("finetune_each", True),
            "lmc": r.get("lmc", False),
            "histograms": r.get("histograms", False),
            "lmc_points": r.get("lmc_points", 21),
            "threshold": r.get("threshold", 0.02),
            "num_bins": r.get("num_bins", 30),
        }


_TRAIN_FIELDS = {"learning_rate": False, "momentum": False, "weight_decay": False,
                 "batch_size": True, "gamma": False, "shuffle_seed": True}

# Every object section ExperimentConfig reads, parents before children, with
# its numeric fields; True marks the fields that must be integers.
_SECTIONS = {
    "dataset": {"num_classes": True, "per_class": True, "test_per_class": True,
                "noise": False, "seed": True},
    "model": {"num_classes": True},
    "prune": {"amount": False, "desired_sparsity": False, "rewind_epoch": True,
              "mask_train_epochs": True, "finetune_epochs": True,
              "iteration_cap": True},
    "prune.mask_train": _TRAIN_FIELDS,
    "prune.finetune": _TRAIN_FIELDS,
    "distiller": {"ipc": True, "iterations": True, "seed": True},
    "report": {"lmc_points": True, "threshold": False, "num_bins": True},
}


def _is_number(value, integer=False):
    """A JSON number (an integer if asked); bool does not count."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (not integer and isinstance(value, float))


def _typed_sections(raw, out):
    """Each object section by dotted name ({} where absent or not an
    object), appending a diagnostic to `out` for every section that is not
    an object and every numeric field of the wrong type."""
    sections = {}
    for name, fields in _SECTIONS.items():
        parent, _, key = name.rpartition(".")
        sec = (sections[parent] if parent else raw).get(key, {})
        if not isinstance(sec, dict):
            out.append(f"{name} must be an object")
            sec = {}
        for field, integer in fields.items():
            if field in sec and not _is_number(sec[field], integer):
                out.append(f"{name}.{field} must be {'an integer' if integer else 'a number'}")
        sections[name] = sec
    return sections


def _check_path(out, name, path, config):
    if path is None:
        out.append(f"{name} missing")
    elif not isinstance(path, str):
        out.append(f"{name} must be a path string")
    elif not os.path.exists(config.path(path)):
        out.append(f"{name} file not found: {path}")


def _check_model(config, out):
    """The ModelSpec a run would build from the model section, or None,
    appending a diagnostic for whatever stops it."""
    m = config.raw.get("model")
    if not isinstance(m, dict):
        return None
    for key in ("architecture", "input_shape", "num_classes"):
        if key not in m:
            out.append(f"model.{key} missing")
    for key in ("input_shape", "hidden", "channels"):
        if not isinstance(m.get(key, []), list):
            out.append(f"model.{key} must be a list")
    if any(d.startswith("model.") for d in out):
        return None
    try:
        return config.model_spec()
    except ValueError as e:
        out.append(f"model: {e}")


def validate_config_dict(raw, base_dir=""):
    """All violations, not fail-fast; empty list means valid."""
    out = []
    if not isinstance(raw, dict):
        return ["config root must be a JSON object"]
    for key in ("dataset", "model"):
        if key not in raw:
            out.append(f"missing section '{key}'")
    sections = _typed_sections(raw, out)
    method = raw.get("method", "imp")
    if method not in ("imp", "distilled", "random"):
        out.append(f"unknown method '{method}'")
    p = sections["prune"]
    amount = p.get("amount", 0.2)
    if _is_number(amount) and not 0 < amount < 1:
        out.append("amount must be in (0,1)")
    ds = p.get("desired_sparsity", 0.5)
    if _is_number(ds) and not 0 < ds < 1:
        out.append("desired_sparsity must be in (0,1)")
    k = p.get("rewind_epoch", 0)
    t = p.get("mask_train_epochs", 3)
    if _is_number(k) and _is_number(t):
        if k < 0:
            out.append("rewind_epoch must be >= 0")
        elif k > 0 and k >= t:
            out.append("rewind_epoch must be < mask_train_epochs")
    if p.get("scope", "global") not in ("global", "layerwise"):
        out.append("scope must be global or layerwise")
    seeds = raw.get("seeds", [0, 1, 2, 3, 4])
    if not isinstance(seeds, list) or not seeds \
            or not all(_is_number(s, integer=True) for s in seeds):
        out.append("seeds must be a non-empty list of integers")
    config = ExperimentConfig(raw, base_dir)
    spec = _check_model(config, out)
    d = sections["dataset"]
    if d.get("source") == "idx":
        for key in ("images", "labels") + (("test_images", "test_labels")
                                           if "test_images" in d else ()):
            _check_path(out, f"dataset.{key}", d.get(key), config)
    elif d.get("source") == "synth":
        if d.get("kind") not in ("gaussianBlobs", "spirals"):
            out.append("dataset.kind must be gaussianBlobs or spirals")
        for key in ("num_classes", "per_class"):
            if key not in d:
                out.append(f"dataset.{key} missing")
        if spec is not None:
            shape = d.get("input_shape", [2])
            if "num_classes" in d and d["num_classes"] != spec.num_classes:
                out.append("dataset.num_classes must equal model.num_classes")
            if not (isinstance(shape, list) and all(_is_number(v, True) for v in shape)
                    and tuple(shape) == spec.input_shape):
                out.append("dataset.input_shape must equal model.input_shape")
    elif "source" in d:
        out.append(f"unknown dataset source '{d.get('source')}'")
    elif isinstance(raw.get("dataset"), dict):
        out.append("dataset.source missing")
    dist = sections["distiller"]
    if dist.get("kind") == "external":
        _check_path(out, "distiller.path", dist.get("path"), config)
    return out


def _read_config(path):
    """(parsed config or None, diagnostics); OSError propagates."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        return None, [f"invalid JSON: {e}"]
    return raw, validate_config_dict(raw, base_dir=os.path.dirname(path))


def validate_config(path):
    return _read_config(path)[1]


# ---------------------------------------------------------------------------
# Experiment orchestration

@dataclass
class ReportBundle:
    summary: dict
    csv_paths: dict


def _run_seeds(config, method, seeds, finetune_each, count=None):
    """(spec, cfg, train set, eval set, one RunRecord per seed) for the
    given seeds, else the configured ones; only the first `count` run."""
    spec, cfg = config.model_spec(), config.prune_config()
    d_real, d_test = config.datasets()
    d_syn = config.distilled(d_real) if method == "distilled" else None
    records = []
    for seed in (tuple(seeds) if seeds else cfg.seeds)[:count]:
        theta = nn.init_params(spec, seed)
        kw = dict(eval_data=d_test, finetune_each=finetune_each, seed=seed)
        # engines.<name> is looked up per call, so a rebound engine is the one run
        if method == "distilled":
            records.append(engines.distilled_prune_run(spec, theta, d_syn, d_real,
                                                       cfg, **kw)[2])
        else:
            run = engines.imp_run if method == "imp" else engines.random_prune_run
            records.append(run(spec, theta, d_real, cfg, **kw))
    return spec, cfg, d_real, d_test, records


def run_experiment(config: ExperimentConfig, out_dir, method=None,
                   seeds=None) -> ReportBundle:
    """Execute the configured engine over all seeds and emit the report."""
    opts = config.report_options()
    method = method or config.raw.get("method", "imp")
    spec, cfg, d_real, d_test, records = _run_seeds(config, method, seeds,
                                                    opts["finetune_each"])

    rows = [(rec.method, rec.seed, it.index, it.sparsity, it.finetune_accuracy,
             it.mask_phase_seconds, it.finetune_seconds)
            for rec in records for it in rec.iterations]
    paths = {"iterations": os.path.join(out_dir, "iterations.csv")}
    atomic_write_text(paths["iterations"], csv_text(ITERATIONS_HEADER, rows))

    for rec in records:
        mask_path = os.path.join(out_dir, f"mask_{rec.method}_seed{rec.seed}.mask")
        save_mask(mask_path, rec.final_mask, rec.method, rec.seed)

    summary = summarize(records)
    if opts["lmc"]:
        paths["lmc"] = os.path.join(out_dir, "lmc.csv")
        summary["lmc"] = _emit_lmc(spec, cfg, d_real, d_test, records[0], opts,
                                   paths["lmc"])
    if opts["histograms"]:
        _emit_histograms(spec, records[0], opts, out_dir, paths)

    atomic_write_text(os.path.join(out_dir, "summary.json"),
                      json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return ReportBundle(summary, paths)


def _levels(rows):
    """Best-seed and mean/std accuracy per sparsity level from
    (sparsity, seed, accuracy or None) rows."""
    by_level = {}
    for level, seed, acc in rows:
        if acc is not None:
            by_level.setdefault(round(level, 12), []).append((seed, acc))
    levels = []
    for level in sorted(by_level):
        pairs = by_level[level]
        accs = np.array([a for _, a in pairs])
        best_seed, best_acc = max(pairs, key=lambda p: (p[1], -p[0]))
        levels.append({"sparsity": level, "mean_accuracy": float(accs.mean()),
                       "std_accuracy": float(accs.std()), "best_seed": int(best_seed),
                       "best_accuracy": float(best_acc)})
    return levels


def summarize(records):
    """Best-seed and mean/std accuracy per sparsity level; timing totals."""
    return {
        "schema_version": SCHEMA_VERSION,
        "method": records[0].method,
        "seeds": [rec.seed for rec in records],
        "final_sparsity": records[0].final_sparsity,
        "levels": _levels((it.sparsity, rec.seed, it.finetune_accuracy)
                          for rec in records for it in rec.iterations),
        "time_to_mask_seconds": {
            str(rec.seed): {
                "mask_only": engines.time_to_mask(rec, False),
                "with_final_retrain": engines.time_to_mask(rec, True),
            } for rec in records
        },
    }


def _emit_lmc(spec, cfg, d_real, d_test, record, opts, path):
    seed_a, seed_b = 1, 2
    theta = nn.init_params(spec, record.seed)
    mask = record.final_mask
    ta, tb = analysis.train_twin(spec, theta, mask, d_real,
                                 cfg.train_config_finetune, seed_a, seed_b)
    curve = analysis.interpolate_curve(spec, ta, tb, mask, d_test,
                                       opts["lmc_points"], (seed_a, seed_b))
    rows = [(a, acc, loss, curve.mask_sparsity, seed_a, seed_b)
            for a, acc, loss in zip(curve.alphas, curve.accuracies, curve.losses)]
    atomic_write_text(path, csv_text(LMC_HEADER, rows))
    rep = analysis.instability(curve, opts["threshold"])
    return {"error_barrier": rep.error_barrier, "stable": rep.stable,
            "threshold": rep.threshold}


def _emit_histograms(spec, record, opts, out_dir, paths):
    theta = nn.init_params(spec, record.seed)
    mask = record.final_mask
    for name in dict.fromkeys(e.name for e in theta.layer_map):
        hist = analysis.weight_histogram(theta, mask, name, opts["num_bins"])
        rows = [(hist.bin_edges[i], hist.bin_edges[i + 1], int(hist.counts[i]),
                 hist.sparsity) for i in range(len(hist.counts))]
        path = os.path.join(out_dir, f"hist_{name}.csv")
        paths[f"hist_{name}"] = path
        atomic_write_text(path, csv_text(HIST_HEADER, rows))


def rebuild_summary(out_dir):
    """Recompute summary accuracy levels from iterations.csv alone."""
    path = os.path.join(out_dir, "iterations.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    if len(lines) < 2:
        raise data_mod.FormatError(f"{path} has no iteration rows")
    header = lines[0].split(",")
    idx = {name: i for i, name in enumerate(header)}
    methods, seeds, rows = set(), set(), []
    try:
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells under {len(header)} columns")
            methods.add(cells[idx["method"]])
            seed = int(cells[idx["seed"]])
            seeds.add(seed)
            if cells[idx["test_accuracy"]]:
                rows.append((float(cells[idx["sparsity"]]), seed,
                             float(cells[idx["test_accuracy"]])))
    except (KeyError, ValueError) as e:
        raise data_mod.FormatError(f"{path}: {e!r}") from None
    return {"schema_version": SCHEMA_VERSION, "method": ",".join(sorted(methods)),
            "seeds": sorted(seeds), "levels": _levels(rows)}


# ---------------------------------------------------------------------------
# Entry point

def _parser():
    p = argparse.ArgumentParser(prog="ticketlab",
                                description="Sparse-subnetwork pruning laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("distill", "prune", "lmc", "weights"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, action="append", default=None)
        sp.add_argument("--out", default=None)
        if name == "prune":
            sp.add_argument("--method", choices=("imp", "distilled", "random"),
                            default=None)
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
    except (nn.TrainingDiverged, engines.SparsityUnreachable, FloatingPointError) as e:
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
        summary = rebuild_summary(args.out)
        atomic_write_text(os.path.join(args.out, "summary.json"),
                          json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(json.dumps(summary, sort_keys=True))
        return 0

    config = ExperimentConfig.load(args.config)
    out_dir = args.out or config.raw.get("out_dir", "ticketlab_out")

    if args.command == "distill":
        d_real, _ = config.datasets()
        dsyn = config.distilled(d_real)
        path = os.path.join(out_dir, "dsyn.dstl")
        os.makedirs(out_dir, exist_ok=True)
        data_mod.save_distilled(dsyn, path)
        print(json.dumps({"path": path, "ipc": dsyn.ipc, "size": dsyn.size,
                          "provenance": dsyn.provenance}))
        return 0

    if args.command == "prune":
        bundle = run_experiment(config, out_dir, method=args.method,
                                seeds=args.seed)
        print(json.dumps(bundle.summary, sort_keys=True))
        return 0

    # lmc and weights: one engine run of the first seed, without finetune_each
    spec, cfg, d_real, d_test, (rec,) = _run_seeds(
        config, config.raw.get("method", "imp"), args.seed, False, count=1)
    opts = config.report_options()
    if args.command == "lmc":
        result = _emit_lmc(spec, cfg, d_real, d_test, rec, opts,
                           os.path.join(out_dir, "lmc.csv"))
    else:
        paths = {}
        _emit_histograms(spec, rec, opts, out_dir, paths)
        ratio = analysis.survivor_magnitude_ratio(nn.init_params(spec, rec.seed),
                                                  rec.final_mask)
        result = {"survivor_magnitude_ratio": ratio, "files": sorted(paths.values())}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
