"""Binary sparsity masks, sparsity accounting, and the magnitude / random
pruning operators.

Masks are aligned index-for-index with a ParameterVector.  Only weights
are prunable: biases are never pruned and stay 1 in every mask this module
produces.  Sparsity is reported over prunable positions only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import LayerEntry, ParameterVector, check_layer_map


@dataclass(frozen=True)
class PruneScope:
    """Where pruning ranks candidates: one global pool or per layer."""

    mode: str = "global"

    def __post_init__(self):
        if self.mode not in ("global", "layerwise"):
            raise ValueError(f"unknown scope mode {self.mode!r}")


GLOBAL = PruneScope("global")
LAYERWISE = PruneScope("layerwise")


@dataclass
class SparsityMask:
    """0/1 float vector aligned with a ParameterVector, plus its layer map."""

    bits: np.ndarray
    layer_map: tuple[LayerEntry, ...]

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.float64)
        if not np.all((self.bits == 0.0) | (self.bits == 1.0)):
            raise ValueError("mask entries must be 0 or 1")
        check_layer_map(self.layer_map, self.bits.size)

    @classmethod
    def ones(cls, layer_map) -> "SparsityMask":
        return cls(np.ones(sum(e.length for e in layer_map)), tuple(layer_map))

    def copy(self) -> "SparsityMask":
        return SparsityMask(self.bits.copy(), self.layer_map)

    def __len__(self):
        return self.bits.size

    def prunable_selector(self, scope: PruneScope = GLOBAL) -> np.ndarray:
        """The weight positions.  Both scope modes prune the same positions,
        so the scope does not change the result."""
        sel = np.zeros(self.bits.size, dtype=bool)
        for e in self.layer_map:
            if e.kind == "weight":
                sel[e.offset:e.offset + e.length] = True
        return sel


def _check_aligned(params: ParameterVector, mask: SparsityMask):
    if len(params) != len(mask):
        raise ValueError(f"length mismatch: params {len(params)} vs mask {len(mask)}")


def sparsity(mask: SparsityMask) -> float:
    """Fraction of prunable positions pruned (zeros / prunable)."""
    sel = mask.prunable_selector()
    total = int(sel.sum())
    if total == 0:
        raise ValueError("no prunable positions")
    return float((mask.bits[sel] == 0.0).sum()) / total


def whole_vector_sparsity(mask: SparsityMask) -> float:
    """Zeros over the entire vector, biases included; reporting only."""
    return float((mask.bits == 0.0).sum()) / mask.bits.size


def magnitude_prune(params: ParameterVector, mask: SparsityMask, amount: float,
                    scope: PruneScope = GLOBAL) -> SparsityMask:
    """Prune the lowest-|value| surviving prunable weights.

    Removes floor(amount * survivors) positions: one pooled ranking in
    global mode, floor per layer in layerwise mode.  Never revives pruned
    positions.
    """
    _check_aligned(params, mask)
    if not np.all(np.isfinite(params.values)):
        raise ValueError("parameters must be finite to rank by magnitude")
    return _prune_by_key(mask, amount, scope, np.abs(params.values * mask.bits))


def random_prune(mask: SparsityMask, amount: float, seed: int,
                 scope: PruneScope = GLOBAL) -> SparsityMask:
    """Prune uniformly random surviving positions; same count contract as
    magnitude_prune; deterministic in seed.  Each surviving prunable
    position draws one key from one stream, in flat order; ties are
    measure-zero."""
    key = np.zeros(mask.bits.size)
    candidates = mask.prunable_selector() & (mask.bits == 1.0)
    key[candidates] = np.random.default_rng(seed).random(int(candidates.sum()))
    return _prune_by_key(mask, amount, scope, key)


def _prune_by_key(mask, amount, scope, key):
    """Zero the floor(amount * survivors) surviving prunable positions of
    each pool with the smallest key: one pool in global mode, one per layer
    in layerwise mode.  Ties break toward the lower flat index (a stable
    sort of flat-ordered candidates)."""
    if not 0.0 < amount < 1.0:
        raise ValueError("amount must be in (0, 1)")
    out = mask.copy()
    candidates = mask.prunable_selector() & (mask.bits == 1.0)
    pools = [(0, mask.bits.size)] if scope.mode == "global" else [
        (e.offset, e.offset + e.length) for e in mask.layer_map]
    for start, stop in pools:
        pool = start + np.flatnonzero(candidates[start:stop])
        ranked = pool[np.argsort(key[pool], kind="stable")]
        out.bits[ranked[:int(np.floor(amount * pool.size))]] = 0.0
    return out


def apply_mask(params: ParameterVector, mask: SparsityMask) -> ParameterVector:
    """Elementwise product of parameters and mask; idempotent."""
    _check_aligned(params, mask)
    return ParameterVector(params.values * mask.bits, params.layer_map)


def mask_layer_stats(mask: SparsityMask):
    """Per-layer (name, sparsity over prunable positions, surviving count)."""
    stats = []
    for e in mask.layer_map:
        if e.kind != "weight":
            continue
        seg = mask.bits[e.offset:e.offset + e.length]
        surviving = int(seg.sum())
        stats.append((e.name, (e.length - surviving) / e.length, surviving))
    return stats
