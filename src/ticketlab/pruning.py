"""Bit masks, sparsity accounting, and the magnitude / random pruning
operators.

Masks hold one bool per position, aligned with a ParameterVector.  Only
weights are prunable: biases are never pruned and stay True in every mask
this module produces.  Sparsity is reported over prunable positions only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (LayerEntry, ParameterVector, check_aligned, check_layer_map, check_seed,
                 is_number, require)

# where pruning ranks candidates: one global pool, or one pool per layer
SCOPES = ("global", "layerwise")


@dataclass
class SparsityMask:
    """Bools (True: kept) aligned with a ParameterVector, plus its layer map."""

    bits: np.ndarray
    layer_map: tuple[LayerEntry, ...]

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("mask entries must be 0 or 1")
        self.bits = bits.astype(bool, copy=False)
        check_layer_map(self.layer_map, self.bits, "bits")

    @classmethod
    def ones(cls, layer_map) -> "SparsityMask":
        return cls(np.ones(sum(e.length for e in layer_map), dtype=bool), tuple(layer_map))

    def copy(self) -> "SparsityMask":
        return SparsityMask(self.bits.copy(), self.layer_map)

    def prunable_selector(self, scope: str = "global") -> np.ndarray:
        """The weight positions.  Both scopes prune the same positions,
        so the scope does not change the result."""
        sel = np.zeros(self.bits.size, dtype=bool)
        for e in self.layer_map:
            if e.kind == "weight":
                sel[e.offset:e.offset + e.length] = True
        return sel


def sparsity(mask: SparsityMask) -> float:
    """Fraction of prunable positions pruned (zeros / prunable)."""
    sel = mask.prunable_selector()
    total = int(sel.sum())
    if total == 0:
        raise ValueError("no prunable positions")
    return float((~mask.bits[sel]).sum()) / total


def whole_vector_sparsity(mask: SparsityMask) -> float:
    """Zeros over the entire vector, biases included; reporting only."""
    return float((~mask.bits).sum()) / mask.bits.size


def magnitude_prune(params: ParameterVector, mask: SparsityMask, amount: float,
                    scope: str = "global") -> SparsityMask:
    """Prune the lowest-|value| surviving prunable weights.

    Removes floor(amount * survivors) positions: one pooled ranking in
    global mode, floor per layer in layerwise mode.  Never revives pruned
    positions.
    """
    check_aligned(params, mask)
    if not np.all(np.isfinite(params.values)):
        raise ValueError("parameters must be finite to rank by magnitude")
    return _prune_by_key(mask, amount, scope, np.abs(params.values * mask.bits))


def random_prune(mask: SparsityMask, amount: float, seed: int,
                 scope: str = "global") -> SparsityMask:
    """Prune uniformly random surviving positions; same count contract as
    magnitude_prune; deterministic in seed.  Each surviving prunable
    position draws one key from one stream, in flat order; ties are
    measure-zero."""
    key = np.zeros(mask.bits.size)
    candidates = mask.prunable_selector() & mask.bits
    key[candidates] = np.random.default_rng(check_seed(seed)).random(int(candidates.sum()))
    return _prune_by_key(mask, amount, scope, key)


def _prune_by_key(mask, amount, scope, key):
    """Zero the floor(amount * survivors) surviving prunable positions of
    each pool with the smallest key: one pool in global mode, one per weight
    layer in layerwise mode.  Ties break toward the lower flat index (a stable
    sort of flat-ordered candidates)."""
    require([(is_number(amount) and 0.0 < amount < 1.0, "amount must be in (0, 1)"),
             (scope in SCOPES, f"scope must be one of {', '.join(SCOPES)}")])
    out = mask.copy()
    candidates = mask.prunable_selector() & mask.bits
    pools = [(0, mask.bits.size)] if scope == "global" else [
        (e.offset, e.offset + e.length) for e in mask.layer_map if e.kind == "weight"]
    for start, stop in pools:
        pool = start + np.flatnonzero(candidates[start:stop])
        ranked = pool[np.argsort(key[pool], kind="stable")]
        out.bits[ranked[:int(np.floor(amount * pool.size))]] = False
    return out


def apply_mask(params: ParameterVector, mask: SparsityMask) -> ParameterVector:
    """Elementwise product of parameters and mask; idempotent."""
    check_aligned(params, mask)
    return ParameterVector(params.values * mask.bits, params.layer_map)


def mask_layer_stats(mask: SparsityMask):
    """Per-layer (name, sparsity over prunable positions, surviving count)."""
    stats = []
    for e in mask.layer_map:
        if e.kind != "weight":
            continue
        surviving = int(np.count_nonzero(mask.bits[e.offset:e.offset + e.length]))
        stats.append((e.name, (e.length - surviving) / e.length, surviving))
    return stats
