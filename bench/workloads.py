"""The benchmark workloads.

Each workload builds its inputs from the run seed (``setup``), runs one op
through the package's public API (``op``) and checks the op's outputs
(``check``).  Every op of a run gets the same inputs, so its deterministic
result fields must repeat exactly from op to op.  The keyword arguments of
``setup`` give the full size; the tests pass smaller values.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import ticketlab as tl
from ticketlab import cli

NUM_CLASSES = 4
AMOUNT = 0.2
TARGET = 0.9


@dataclass
class Outcome:
    """What the checks of one op found."""

    failures: list = field(default_factory=list)
    deterministic: dict = field(default_factory=dict)
    time_to_mask: list = field(default_factory=list)  # mask-only, one per seed
    final_accuracy: float = float("nan")  # mean over seeds


def derive_seeds(seed, n):
    """n independent 31-bit seeds drawn from the run seed."""
    return [int(s) >> 1 for s in np.random.SeedSequence(seed).generate_state(n)]


def mask_sha256(mask):
    return hashlib.sha256(mask.bits.astype(np.uint8).tobytes()).hexdigest()


def record_fields(record):
    """The deterministic fields of one seed's run."""
    return {"seed": record.seed,
            "final_mask_sha256": mask_sha256(record.final_mask),
            "sparsity": [it.sparsity for it in record.iterations],
            "accuracy": [it.finetune_accuracy for it in record.iterations]}


def check_record(record, prunable, failures):
    """Sparsity schedule and above-chance accuracy of one RunRecord."""
    for j, it in enumerate(record.iterations, start=1):
        # each iteration prunes floor(AMOUNT * survivors), so survivors stay
        # within j positions above (1 - AMOUNT)**j of the prunable count
        upper = 1.0 - (1.0 - AMOUNT) ** j
        if not upper - j / prunable < it.sparsity <= upper + 1e-12:
            failures.append(f"seed {record.seed}: sparsity {it.sparsity} at iteration "
                            f"{j} outside the floor bound of {upper}")
    if record.final_sparsity < TARGET:
        failures.append(f"seed {record.seed}: final sparsity {record.final_sparsity}")
    acc = record.iterations[-1].finetune_accuracy
    if acc is None or not acc > 1.0 / NUM_CLASSES:
        failures.append(f"seed {record.seed}: final accuracy {acc} not above chance")


def check_probe(probe, failures):
    if probe.unmasked:
        failures.append(f"{probe.unmasked} of {probe.trained} training results "
                        "have nonzero pruned weights")


def prunable_count(spec):
    return sum(int(np.prod(shape)) for _, kind, shape in spec.layer_shapes()
               if kind == "weight")


def desk_train_config(batch_size, epochs):
    return tl.TrainConfig(epochs=epochs, learning_rate=0.1, momentum=0.9,
                          batch_size=batch_size)


def blobs(num_classes, per_class, noise, seed, input_shape):
    return tl.synth_dataset("gaussianBlobs", num_classes, per_class, noise,
                            seed=seed, input_shape=input_shape)


@dataclass
class ConvnetFixture:
    spec: tl.ModelSpec
    train: tl.LabeledDataset
    test: tl.LabeledDataset
    cfg: tl.PruneRunConfig
    inits: list  # (seed, initial parameters)


def _convnet_fixture(seed, n_seeds, per_class, test_per_class, epochs, mask_batch,
                     mask_epochs):
    data_seed, test_seed, *init_seeds = derive_seeds(seed, 2 + n_seeds)
    spec = tl.ModelSpec("convnet", (1, 8, 8), NUM_CLASSES, channels=(6,))
    cfg = tl.PruneRunConfig(
        desired_sparsity=TARGET, amount=AMOUNT, mask_train_epochs=mask_epochs,
        finetune_epochs=epochs,
        train_config_mask=desk_train_config(mask_batch, mask_epochs),
        train_config_finetune=desk_train_config(64, epochs))
    return ConvnetFixture(
        spec=spec,
        train=blobs(NUM_CLASSES, per_class, 0.8, data_seed, (1, 8, 8)),
        test=blobs(NUM_CLASSES, test_per_class, 0.8, test_seed, (1, 8, 8)),
        cfg=cfg,
        inits=[(s, tl.init_params(spec, s)) for s in init_seeds])


def _outcome(records, spec, probe):
    """Checks and deterministic fields shared by every workload."""
    out = Outcome()
    for rec in records:
        check_record(rec, prunable_count(spec), out.failures)
        out.deterministic[str(rec.seed)] = record_fields(rec)
        out.time_to_mask.append(tl.time_to_mask(rec, include_final_retrain=False))
    check_probe(probe, out.failures)
    out.final_accuracy = statistics.fmean(
        rec.iterations[-1].finetune_accuracy or 0.0 for rec in records)
    return out


class ImpConvnet:
    """One op: one IMP run of the desk ConvNet to 90% sparsity with a
    finetune after every iteration, evaluated on the test split."""

    name = "imp_convnet"

    @staticmethod
    def setup(seed, workdir, per_class=500, test_per_class=125, epochs=4):
        return _convnet_fixture(seed, 1, per_class, test_per_class, epochs, 64, epochs)

    @staticmethod
    def op(fx):
        (seed, theta), = fx.inits
        return tl.imp_run(fx.spec, theta, fx.train, fx.cfg, eval_data=fx.test,
                          finetune_each=True, seed=seed)

    @staticmethod
    def check(fx, record, probe):
        return _outcome([record], fx.spec, probe)


class DistilledConvnet:
    """One op: k-means herding (ipc 10) then distilled pruning to 90%
    sparsity, for three seeds, on the imp_convnet fixture.  The mask loop
    trains 16 epochs per iteration on the 40 distilled examples, so that
    the mask phase is about half of the op (see README.md)."""

    name = "distilled_convnet"
    IPC = 10

    @staticmethod
    def setup(seed, workdir, per_class=500, test_per_class=125, epochs=4, n_seeds=3,
              mask_epochs=16):
        return _convnet_fixture(seed, n_seeds, per_class, test_per_class, epochs, 16,
                                mask_epochs)

    @classmethod
    def op(cls, fx):
        out = []
        for seed, theta in fx.inits:
            dsyn = tl.distill_kmeans_herding(fx.train, ipc=cls.IPC, seed=seed)
            out.append(tl.distilled_prune_run(fx.spec, theta, dsyn, fx.train, fx.cfg,
                                              eval_data=fx.test, seed=seed))
        return out

    @staticmethod
    def check(fx, results, probe):
        records = [rec for _, _, rec in results]
        out = _outcome(records, fx.spec, probe)
        for theta, mask, rec in results:
            if not np.array_equal(mask.bits, rec.final_mask.bits):
                out.failures.append(f"seed {rec.seed}: returned mask differs from record")
            if np.count_nonzero(theta.values[mask.bits == 0.0]):
                out.failures.append(f"seed {rec.seed}: finetuned pruned weights nonzero")
        return out


@dataclass
class CliFixture:
    spec: tl.ModelSpec
    config_path: str
    workdir: str
    seeds: list
    ops: int = 0


def to_pixels(x):
    """Blob coordinates to [0, 1] pixel values for an IDX file.  Negative
    coordinates become dark background, as in real digit images.  (Pixels
    centred on 0.5 made SGD swing between chance and 0.95 accuracy from
    one pruning iteration to the next.)"""
    return np.clip(x / 3.0, 0.0, 1.0)


class CliMlpLmc:
    """One op: ``ticketlab prune`` through cli.main on IDX files: IMP of an
    MLP over two seeds with finetune_each, LMC and histograms."""

    name = "cli_mlp_lmc"

    @staticmethod
    def setup(seed, workdir, per_class=750, test_per_class=188, hidden=(128, 64),
              epochs=2, batch_size=64):
        data_seed, test_seed, *seeds = derive_seeds(seed, 4)
        data_dir = os.path.join(workdir, "data")
        os.makedirs(data_dir, exist_ok=True)
        paths = {}
        for split, n, s in (("train", per_class, data_seed), ("test", test_per_class, test_seed)):
            d = blobs(NUM_CLASSES, n, 0.7, s, (16, 16))
            # (N, H, W) images, the layout of real MNIST IDX files
            d = tl.LabeledDataset(to_pixels(d.examples), d.labels, NUM_CLASSES)
            paths[split] = (os.path.join(data_dir, f"{split}-images.idx3"),
                            os.path.join(data_dir, f"{split}-labels.idx1"))
            tl.write_idx(d, *paths[split])
        train_cfg = {"learning_rate": 0.05, "momentum": 0.9, "batch_size": batch_size}
        config = {
            "method": "imp",
            "seeds": seeds,
            # absolute paths: IDX paths are checked against the config
            # directory but opened against the working directory
            "dataset": {"source": "idx",
                        "images": paths["train"][0], "labels": paths["train"][1],
                        "test_images": paths["test"][0], "test_labels": paths["test"][1]},
            "model": {"architecture": "mlp", "input_shape": [16, 16],
                      "num_classes": NUM_CLASSES, "hidden": list(hidden)},
            "prune": {"desired_sparsity": TARGET, "amount": AMOUNT,
                      "mask_train_epochs": epochs, "finetune_epochs": epochs,
                      "mask_train": train_cfg, "finetune": train_cfg},
            "report": {"finetune_each": True, "lmc": True, "lmc_points": 21,
                       "histograms": True},
        }
        config_path = os.path.join(workdir, "config.json")
        with open(config_path, "w") as f:
            json.dump(config, f, indent=2)
        spec = tl.ModelSpec("mlp", (16, 16), NUM_CLASSES, hidden=tuple(hidden))
        return CliFixture(spec, config_path, workdir, seeds)

    @staticmethod
    def op(fx):
        fx.ops += 1
        out_dir = os.path.join(fx.workdir, f"out{fx.ops}")
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(["prune", "--config", fx.config_path, "--out", out_dir])
        return code, out_dir, stderr.getvalue()

    @staticmethod
    def check(fx, result, probe):
        code, out_dir, stderr = result
        if code != 0:
            return Outcome(failures=[f"ticketlab prune exited {code}: {stderr.strip()}"])
        try:
            return CliMlpLmc._check_artifacts(fx, out_dir, probe)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    @staticmethod
    def _check_artifacts(fx, out_dir, probe):
        out = _outcome(probe.records, fx.spec, probe)
        if [rec.seed for rec in probe.records] != fx.seeds:
            out.failures.append(f"ran seeds {[r.seed for r in probe.records]}, "
                                f"configured {fx.seeds}")
        for rec in probe.records:
            saved = cli.load_mask(os.path.join(out_dir, f"mask_imp_seed{rec.seed}.mask"))
            if not (np.array_equal(saved.bits, rec.final_mask.bits)
                    and saved.layer_map == rec.final_mask.layer_map):
                out.failures.append(f"seed {rec.seed}: .mask file differs from record")
        with open(os.path.join(out_dir, "summary.json")) as f:
            summary = json.load(f)
        if not levels_match(summary["levels"], cli.rebuild_summary(out_dir)["levels"]):
            out.failures.append("summary.json levels differ from rebuild_summary")
        out.time_to_mask = [summary["time_to_mask_seconds"][str(s)]["mask_only"]
                            for s in fx.seeds]
        barrier = summary["lmc"]["error_barrier"]
        out.deterministic[str(fx.seeds[0])]["lmc_error_barrier"] = barrier
        for layer in dict.fromkeys(e.name for e in fx.spec.layer_map()):
            if not os.path.exists(os.path.join(out_dir, f"hist_{layer}.csv")):
                out.failures.append(f"hist_{layer}.csv not written")
        return out


def levels_match(written, rebuilt):
    """summary.json levels against those rebuilt from iterations.csv.

    The CSV carries 12 significant digits, so rebuilt accuracies can differ
    from the written ones in the twelfth digit; seeds and level count must
    match exactly."""
    if len(written) != len(rebuilt):
        return False
    for a, b in zip(written, rebuilt):
        if a.keys() != b.keys() or a["best_seed"] != b["best_seed"]:
            return False
        if not all(math.isclose(a[k], b[k], rel_tol=1e-10, abs_tol=1e-12)
                   for k in a if k != "best_seed"):
            return False
    return True


WORKLOADS = {w.name: w for w in (ImpConvnet, DistilledConvnet, CliMlpLmc)}
