"""Iterative pruning engines.

One loop runs all three: train a mask, prune, rewind, until the desired
sparsity.  The engines differ only in its choices.  imp_run trains the
mask on the real data and rewinds to epoch k of the first training pass.
distilled_prune_run trains it on a small synthetic summary of the data
and rewinds to initialization.  random_prune_run, the data-blind
baseline, trains no mask and prunes at random.  Finetunes always train
on real data.  Wall-clock time around the train/prune calls is recorded
per iteration so time-to-mask can be reported with or without the final
retrain.

When the mask trains on the finetune data with the finetune's TrainConfig
(IMP with finetune_each), training is deterministic and each finetune is
the very training the next iteration would repeat; so it stands in for
that mask training, as in classic IMP, and its seconds are charged to that
mask phase.  Failures are named in one place: the loop's one except adds
the seed, iteration and phase to any of RUNTIME_FAILURES, the one list of
what the CLI exits 3 on, a MemoryError from numpy included."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .nn import (ModelSpec, ParameterVector, TrainConfig, TrainingDiverged, check_data,
                 check_seed, evaluate, is_number, is_whole, require, train)
from .pruning import SCOPES, SparsityMask, magnitude_prune, random_prune, sparsity


class SparsityUnreachable(RuntimeError):
    """Desired sparsity out of reach: an iteration pruned no weight."""


# what a checked pruning run can fail with, numpy's refused allocation too: CLI exit 3
RUNTIME_FAILURES = (TrainingDiverged, SparsityUnreachable, FloatingPointError, MemoryError)


@dataclass(frozen=True)
class PruneRunConfig:
    """Each phase trains its TrainConfig's epochs: mask_train_epochs (t, per
    iteration) and finetune_epochs (n) are read from them, and must agree if
    given; a phase given no TrainConfig gets the default one with its epochs."""

    desired_sparsity: float
    amount: float = 0.2
    mask_train_epochs: int = None
    finetune_epochs: int = None
    rewind_epoch: int = 0               # k: 0 = rewind to initialization
    prune_scope: str = "global"
    train_config_mask: TrainConfig = None
    train_config_finetune: TrainConfig = None

    def __post_init__(self):
        phases = (("mask_train_epochs", "train_config_mask"),
                  ("finetune_epochs", "train_config_finetune"))
        require([(isinstance(getattr(self, key), (TrainConfig, type(None))),
                  f"{key} must be a TrainConfig") for _, key in phases])
        agree = []
        for name, key in phases:
            epochs = getattr(self, name)
            if getattr(self, key) is None:
                object.__setattr__(self, key, TrainConfig(1 if epochs is None else epochs))
            agree.append((epochs in (None, getattr(self, key).epochs),
                          f"{name} must equal {key}.epochs"))
            object.__setattr__(self, name, getattr(self, key).epochs)
        require([
            (is_number(self.amount) and 0.0 < self.amount < 1.0, "amount must be in (0, 1)"),
            (is_number(self.desired_sparsity) and 0.0 < self.desired_sparsity < 1.0,
             "desired_sparsity must be in (0, 1)"),
            (is_whole(self.rewind_epoch, 0), "rewind_epoch must be an integer >= 0"),
            (self.prune_scope in SCOPES, f"prune_scope must be one of {', '.join(SCOPES)}"),
            (not is_whole(self.rewind_epoch, 1)
             or self.rewind_epoch < self.train_config_mask.epochs,
             "rewind_epoch must be < mask_train_epochs"),
            *agree,
        ])


@dataclass
class IterationRecord:
    index: int
    mask: SparsityMask
    sparsity: float
    mask_phase_seconds: float
    finetune_accuracy: float | None = None
    finetune_seconds: float | None = None


@dataclass
class RunRecord:
    method: str                      # imp | distilled | random
    seed: int
    iterations: list[IterationRecord] = field(default_factory=list)
    rewind: ParameterVector = None   # where each finetune starts; None if rebuilt

    def validate(self):
        """Check the ranges of a record read from a file; each rule is a comparison NaN fails."""
        its = self.iterations
        levels = [it.sparsity for it in its]
        require([
            (all(0 <= s <= 1 for s in levels), "sparsity must be in [0, 1]"),
            (all(a < b for a, b in zip(levels, levels[1:])),
             "sparsity must strictly increase across iterations"),
            (all(0 <= it.finetune_accuracy <= 1 for it in its
                 if it.finetune_accuracy is not None), "accuracy must be in [0, 1]"),
            (all(0 <= t < np.inf for it in its
                 for t in (it.mask_phase_seconds, it.finetune_seconds) if t is not None),
             "timings must be finite and non-negative"),
        ])

    @property
    def final_mask(self) -> SparsityMask:
        return self.iterations[-1].mask

    @property
    def final_sparsity(self) -> float:
        return self.iterations[-1].sparsity


def time_to_mask(record: RunRecord, include_final_retrain: bool) -> float:
    """Mask-phase seconds summed over iterations; optionally plus the final
    finetune.  Distillation cost is never part of this number."""
    total = sum(it.mask_phase_seconds for it in record.iterations)
    if include_final_retrain and record.iterations:
        total += record.iterations[-1].finetune_seconds or 0.0
    return total


def _prune_loop(spec, theta_init, mask_data, d_real, cfg, rewind_epoch, eval_data,
                finetune_each, method, seed):
    """Check every set against the model, then prune until the desired
    sparsity: magnitude pruning after training on `mask_data` from the rewind
    point (epoch `rewind_epoch` of the first pass), or random pruning if it is
    None; finetune from the rewind point on real data if `finetune_each` or at
    the target.  Returns (last finetuned params, RunRecord)."""
    record = RunRecord(method=method, seed=check_seed(seed))
    eval_data = d_real if eval_data is None else eval_data
    for data in [d for d in (mask_data, d_real, eval_data) if d is not None]:
        check_data(spec, data.examples, data.labels)
    mask = SparsityMask.ones(theta_init.layer_map)
    level = sparsity(mask)
    rewind = theta_init
    # each finetune is the next iteration's mask training if both share data and config
    reuse = (finetune_each and mask_data is d_real
             and cfg.train_config_mask == cfg.train_config_finetune)
    try:
        while level < cfg.desired_sparsity:
            iteration, phase, charged = len(record.iterations) + 1, "mask training", 0.0
            t0 = time.monotonic()
            if reuse and iteration > 1:
                trained, charged = theta, record.iterations[-1].finetune_seconds
            elif mask_data is not None:
                # iteration 1 trains from init and keeps epoch k as the rewind point
                snaps = {rewind_epoch: None} if iteration == 1 else None
                trained = train(spec, rewind, mask, mask_data, cfg.train_config_mask, snaps)
                rewind = snaps[rewind_epoch] if snaps else rewind
            phase = "pruning"
            if mask_data is None:
                mask = random_prune(mask, cfg.amount, seed=_iteration_seed(seed, iteration),
                                    scope=cfg.prune_scope)
            else:
                mask = magnitude_prune(trained, mask, cfg.amount, cfg.prune_scope)
            seconds = charged + time.monotonic() - t0
            previous, level = level, sparsity(mask)
            if level <= previous:  # floor(amount * survivors) is 0 in every pool, for good
                raise SparsityUnreachable(f"sparsity {previous:.4f} after {iteration - 1} "
                                          f"iterations: amount {cfg.amount} prunes no weight")
            rec = IterationRecord(iteration, mask, level, seconds)
            if finetune_each or level >= cfg.desired_sparsity:
                phase = "finetune"
                t0 = time.monotonic()
                theta = train(spec, rewind, mask, d_real, cfg.train_config_finetune)
                rec.finetune_seconds = time.monotonic() - t0
                phase = "evaluation"
                rec.finetune_accuracy, _ = evaluate(spec, theta, mask, eval_data)
            record.iterations.append(rec)
    except RUNTIME_FAILURES as e:
        e.args = (f"{e} (seed {seed}, iteration {iteration}, {phase})",)
        raise
    record.rewind = rewind
    return theta, record


def imp_run(spec: ModelSpec, theta_init: ParameterVector, d_real, cfg: PruneRunConfig,
            eval_data=None, finetune_each=False, seed=0) -> RunRecord:
    """Classic IMP with weight rewinding to epoch k of the first training pass."""
    return _prune_loop(spec, theta_init, d_real, d_real, cfg, cfg.rewind_epoch,
                       eval_data, finetune_each, "imp", seed)[1]


def distilled_prune_run(spec: ModelSpec, theta_init: ParameterVector, d_syn,
                        d_real, cfg: PruneRunConfig, eval_data=None,
                        finetune_each=False, seed=0):
    """Distilled pruning: the mask loop trains only on the synthetic summary
    and always rewinds to initialization; the finetunes train on real data.

    Returns (finetuned params, mask, RunRecord).
    """
    theta, record = _prune_loop(spec, theta_init, d_syn, d_real, cfg, 0, eval_data,
                                finetune_each, "distilled", seed)
    return theta, record.final_mask, record


def random_prune_run(spec: ModelSpec, theta_init: ParameterVector, d_real,
                     cfg: PruneRunConfig, eval_data=None, finetune_each=False,
                     seed=0) -> RunRecord:
    """Random-mask baseline: masks depend only on (seed, amount, iteration);
    training happens only to evaluate accuracy at retained sparsities."""
    return _prune_loop(spec, theta_init, None, d_real, cfg, 0, eval_data,
                       finetune_each, "random", seed)[1]


def _iteration_seed(seed, iteration):
    # stable derived stream per iteration so masks are data-independent
    return int(np.random.SeedSequence([seed, iteration]).generate_state(1)[0])
