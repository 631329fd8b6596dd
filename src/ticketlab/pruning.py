"""Binary sparsity masks, sparsity accounting, and the magnitude / random
pruning operators.

Masks are aligned index-for-index with a ParameterVector.  Biases (and any
kind not listed in the scope's prunable kinds) are never pruned and stay 1
in every mask this module produces.  Sparsity is reported over prunable
positions only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import LayerEntry, ParameterVector, check_layer_map


@dataclass(frozen=True)
class PruneScope:
    """Where pruning ranks candidates: one global pool or per layer."""

    mode: str = "global"
    prunable_kinds: frozenset[str] = frozenset({"weight"})

    def __post_init__(self):
        if self.mode not in ("global", "layerwise"):
            raise ValueError(f"unknown scope mode {self.mode!r}")
        if not self.prunable_kinds:
            raise ValueError("prunable_kinds must be non-empty")


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
        sel = np.zeros(self.bits.size, dtype=bool)
        for e in self.layer_map:
            if e.kind in scope.prunable_kinds:
                sel[e.offset:e.offset + e.length] = True
        return sel


def _check_aligned(params: ParameterVector, mask: SparsityMask):
    if len(params) != len(mask):
        raise ValueError(f"length mismatch: params {len(params)} vs mask {len(mask)}")


def sparsity(mask: SparsityMask, scope: PruneScope = GLOBAL) -> float:
    """Fraction of prunable positions pruned (zeros / prunable)."""
    sel = mask.prunable_selector(scope)
    total = int(sel.sum())
    if total == 0:
        raise ValueError("no prunable positions")
    return float((mask.bits[sel] == 0.0).sum()) / total


def whole_vector_sparsity(mask: SparsityMask) -> float:
    """Zeros over the entire vector, biases included; reporting only."""
    return float((mask.bits == 0.0).sum()) / mask.bits.size


def _prune_count(survivors: int, amount: float) -> int:
    return int(np.floor(amount * survivors))


def _prune_lowest(order_key: np.ndarray, candidates: np.ndarray, n_prune: int,
                  bits: np.ndarray):
    """Zero the n_prune candidate positions with the smallest key; ties break
    toward the lower flat index (stable sort on flat-index-ordered input)."""
    if n_prune == 0:
        return
    ranked = candidates[np.argsort(order_key[candidates], kind="stable")]
    bits[ranked[:n_prune]] = 0.0


def magnitude_prune(params: ParameterVector, mask: SparsityMask, amount: float,
                    scope: PruneScope = GLOBAL) -> SparsityMask:
    """Prune the lowest-|value| surviving prunable weights.

    Removes floor(amount * survivors) positions: one pooled ranking in
    global mode, floor per layer in layerwise mode.  Never revives pruned
    positions.
    """
    _check_aligned(params, mask)
    if not 0.0 < amount < 1.0:
        raise ValueError("amount must be in (0, 1)")
    if not np.all(np.isfinite(params.values)):
        raise ValueError("parameters must be finite to rank by magnitude")
    key = np.abs(params.values * mask.bits)
    return _prune_by_key(mask, amount, scope, lambda cand: key)


def random_prune(mask: SparsityMask, amount: float, seed: int,
                 scope: PruneScope = GLOBAL) -> SparsityMask:
    """Prune uniformly random surviving positions; same count contract as
    magnitude_prune; deterministic in seed."""
    if not 0.0 < amount < 1.0:
        raise ValueError("amount must be in (0, 1)")
    rng = np.random.default_rng(seed)

    def key_fn(cand):
        # fresh random ranking per candidate pool; ties are measure-zero
        key = np.empty(mask.bits.size)
        key[cand] = rng.random(cand.size)
        return key

    return _prune_by_key(mask, amount, scope, key_fn)


def _prune_by_key(mask, amount, scope, key_fn):
    out = mask.copy()
    sel = mask.prunable_selector(scope)
    if scope.mode == "global":
        cand = np.flatnonzero(sel & (out.bits == 1.0))
        _prune_lowest(key_fn(cand), cand, _prune_count(cand.size, amount), out.bits)
    else:
        for e in mask.layer_map:
            if e.kind not in scope.prunable_kinds:
                continue
            span = np.arange(e.offset, e.offset + e.length)
            cand = span[out.bits[span] == 1.0]
            if cand.size:
                _prune_lowest(key_fn(cand), cand,
                              _prune_count(cand.size, amount), out.bits)
    return out


def apply_mask(params: ParameterVector, mask: SparsityMask) -> ParameterVector:
    """Elementwise product of parameters and mask; idempotent."""
    _check_aligned(params, mask)
    return ParameterVector(params.values * mask.bits, params.layer_map)


def mask_layer_stats(mask: SparsityMask, scope: PruneScope = GLOBAL):
    """Per-layer (name, sparsity over prunable positions, surviving count)."""
    stats = []
    for e in mask.layer_map:
        if e.kind not in scope.prunable_kinds:
            continue
        seg = mask.bits[e.offset:e.offset + e.length]
        surviving = int(seg.sum())
        stats.append((e.name, (e.length - surviving) / e.length, surviving))
    return stats
