"""Instability analysis via linear interpolation between SGD-noise twins,
and initialization-weight-distribution analysis of sparsity masks."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nn import (ModelSpec, ParameterVector, TrainConfig, check_aligned, evaluate,
                 is_whole, require, train)
from .pruning import SparsityMask, sparsity


@dataclass
class InterpolationCurve:
    alphas: np.ndarray
    accuracies: np.ndarray
    losses: np.ndarray
    mask_sparsity: float

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=np.float64)
        self.accuracies = np.asarray(self.accuracies, dtype=np.float64)
        self.losses = np.asarray(self.losses, dtype=np.float64)
        if not (len(self.alphas) == len(self.accuracies) == len(self.losses)):
            raise ValueError("curve arrays must have equal length")
        if np.any(np.diff(self.alphas) <= 0):
            raise ValueError("alphas must be strictly increasing")
        if self.alphas[0] != 0.0 or self.alphas[-1] != 1.0:
            raise ValueError("alphas must span [0, 1]")


@dataclass
class InstabilityReport:
    error_barrier: float
    stable: bool


@dataclass
class WeightHistogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    sparsity: float


def train_twin(spec: ModelSpec, theta_rewind: ParameterVector, mask: SparsityMask,
               d_real, cfg: TrainConfig, noise_seed_a: int, noise_seed_b: int):
    """Train the same masked starting point twice, differing only in the
    data-order seed (SGD noise)."""
    theta_a = train(spec, theta_rewind, mask, d_real,
                    replace(cfg, shuffle_seed=noise_seed_a))
    theta_b = train(spec, theta_rewind, mask, d_real,
                    replace(cfg, shuffle_seed=noise_seed_b))
    return theta_a, theta_b


def check_grid(num_points=21, num_bins=30):
    """Raise one ValueError naming every rule the grid sizes of interpolate_curve
    and weight_histogram break: at least 2 points and 1 bin, and no float64
    grid (of num_bins + 1 edges) past numpy's largest array."""
    grids = (("num_points", num_points, 2), ("num_bins", num_bins, 1))
    require([rule for name, size, least in grids for rule in (
        (is_whole(size, least), f"{name} must be an integer >= {least}, got {size!r}"),
        (not is_whole(size, least) or 8 * (int(size) + 1) <= np.iinfo(np.intp).max,
         f"{name} {size} makes a grid past numpy's largest array"))])


def interpolate_curve(spec: ModelSpec, theta_a: ParameterVector,
                      theta_b: ParameterVector, mask: SparsityMask, test_data,
                      num_points: int = 21) -> InterpolationCurve:
    """Evaluate (1-alpha) * theta_a + alpha * theta_b on a uniform alpha grid."""
    check_grid(num_points=num_points)
    if theta_b.layer_map != theta_a.layer_map:
        raise ValueError("theta_b must have the layer map of theta_a")
    alphas = np.linspace(0.0, 1.0, num_points)
    accs = np.empty(num_points)
    losses = np.empty(num_points)
    for i, alpha in enumerate(alphas):
        blended = ParameterVector(
            (1.0 - alpha) * theta_a.values + alpha * theta_b.values,
            theta_a.layer_map)
        accs[i], losses[i] = evaluate(spec, blended, mask, test_data)
    return InterpolationCurve(alphas, accs, losses, sparsity(mask))


def instability(curve: InterpolationCurve, threshold: float = 0.02) -> InstabilityReport:
    """Error barrier: max interpolated error minus mean endpoint error.

    Signed: a negative barrier means the interior outperforms the endpoints.
    """
    errors = 1.0 - curve.accuracies
    barrier = float(errors.max() - 0.5 * (errors[0] + errors[-1]))
    return InstabilityReport(barrier, barrier <= threshold)


def weight_histogram(theta_init: ParameterVector, mask: SparsityMask,
                     layer_name: str, num_bins: int = 30) -> WeightHistogram:
    """Histogram of surviving weights' initialization values for one layer.

    Bin edges span the layer's full init range symmetrically about zero.
    """
    check_aligned(theta_init, mask)
    check_grid(num_bins=num_bins)
    entries = [e for e in theta_init.layer_map
               if e.name == layer_name and e.kind == "weight"]
    if not entries:
        raise KeyError(f"no weight layer named {layer_name!r}")
    e = entries[0]
    vals = theta_init.values[e.offset:e.offset + e.length]
    survivors = vals[mask.bits[e.offset:e.offset + e.length]]
    limit = float(np.abs(vals).max())
    if limit == 0.0:
        limit = 1.0
    edges = np.linspace(-limit, limit, num_bins + 1)
    counts, _ = np.histogram(survivors, bins=edges)  # all zero if none survive
    return WeightHistogram(edges, counts, 1.0 - survivors.size / e.length)


def survivor_magnitude_ratio(theta_init: ParameterVector, mask: SparsityMask) -> float:
    """Mean |init| of surviving prunable weights over mean |init| of pruned
    ones; a magnitude-blind mask gives a ratio near 1."""
    check_aligned(theta_init, mask)
    sel = mask.prunable_selector()
    vals = np.abs(theta_init.values[sel])
    surv, pruned = vals[mask.bits[sel]], vals[~mask.bits[sel]]
    if surv.size == 0 or pruned.size == 0:
        raise ValueError("mask must have both survivors and pruned positions")
    if pruned.mean() == 0.0:
        raise ValueError("pruned weights have mean |init| 0; the ratio is undefined")
    return float(surv.mean() / pruned.mean())
