"""Deterministic training core: parameter vectors, masked forward/backward,
SGD with momentum and milestone learning-rate decay.

Models are described by a ``ModelSpec`` and their weights live in a flat
``ParameterVector`` with an explicit layer map, so pruning masks can be
aligned index-for-index with the weights.  Both architectures are static,
so training runs through a fixed forward/backward layer chain that writes
gradients straight into a flat buffer aligned with that map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

KSIZE = 3  # convolution kernel size used by the convnet architecture


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite, or (loss None) when
    the parameters do after the last batch's finite loss.  Carries where it
    happened, the learning rate in effect (after milestone decay) and the
    last finite batch loss (None if the first batch diverged)."""

    def __init__(self, epoch, batch, loss, learning_rate, last_finite_loss):
        what = "parameters" if loss is None else f"loss {loss!r}"
        super().__init__(f"non-finite {what} at epoch {epoch}, batch {batch} "
                         f"(learning rate {learning_rate!r}, "
                         f"last finite loss {last_finite_loss!r})")
        self.epoch = epoch
        self.batch = batch
        self.loss = loss
        self.learning_rate = learning_rate
        self.last_finite_loss = last_finite_loss


@dataclass(frozen=True)
class LayerEntry:
    name: str
    offset: int
    length: int
    kind: str  # "weight" or "bias"


@dataclass
class ParameterVector:
    """Flat float64 view of all model parameters plus the layer map."""

    values: np.ndarray
    layer_map: tuple[LayerEntry, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        check_layer_map(self.layer_map, self.values.size)

    def __len__(self):
        return self.values.size

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.values.copy(), self.layer_map)

    def segment(self, name: str, kind: str) -> np.ndarray:
        for e in self.layer_map:
            if e.name == name and e.kind == kind:
                return self.values[e.offset:e.offset + e.length]
        raise KeyError(f"no segment {name}.{kind}")


def is_whole(value, minimum):
    """An integer (a bool is not one) of at least `minimum`."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= minimum)


def check_layer_map(layer_map, n):
    """Raise ValueError unless the entries tile positions 0..n-1 in order:
    each offset where the previous entry ended, each length an integer >= 0."""
    covered = 0
    for e in layer_map:
        if e.offset != covered or not (is_whole(e.offset, 0) and is_whole(e.length, 0)):
            raise ValueError(f"layer map not contiguous at {e.name}.{e.kind}")
        covered += e.length
    if covered != n:
        raise ValueError(f"layer map covers {covered} positions, not {n}")


def require(rules):
    """Raise one ValueError naming, joined by "; ", every (holds, message)
    rule that does not hold.  A rule written as a comparison that must be
    true fails on NaN."""
    broken = [message for holds, message in rules if not holds]
    if broken:
        raise ValueError("; ".join(broken))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 32
    milestones: tuple[int, ...] = ()
    gamma: float = 1.0
    shuffle_seed: int = 0

    def __post_init__(self):
        ms = list(self.milestones)
        require([
            (is_whole(self.epochs, 0), "epochs must be an integer >= 0"),
            (0 < self.learning_rate < np.inf, "learning rate must be positive and finite"),
            (0 <= self.momentum < 1, "momentum must be in [0, 1)"),
            (0 <= self.weight_decay < np.inf, "weight decay must be non-negative and finite"),
            (is_whole(self.batch_size, 1), "batch size must be a positive integer"),
            (0 < self.gamma <= 1, "gamma must be in (0, 1]"),
            (is_whole(self.shuffle_seed, 0), "shuffle_seed must be an integer >= 0"),
            (all(is_whole(m, 0) and m < self.epochs for m in ms) and ms == sorted(set(ms)),
             "milestones must be strictly increasing integers >= 0 and < epochs"),
        ])


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; 'mlp' uses hidden widths, 'convnet' channel
    counts (3x3 conv + ReLU + 2x2 average pool per block, then a linear
    classifier)."""

    architecture: str
    input_shape: tuple[int, ...]
    num_classes: int
    hidden: tuple[int, ...] = ()     # mlp widths
    channels: tuple[int, ...] = ()   # convnet channels per block

    def __post_init__(self):
        if self.architecture not in ("mlp", "convnet"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if not self.input_shape or not all(
                is_whole(d, 1) for d in (*self.input_shape, *self.hidden, *self.channels)):
            raise ValueError("input_shape (non-empty), hidden and channels must be "
                             "positive integers")
        if self.architecture == "convnet":
            if len(self.input_shape) != 3:
                raise ValueError("convnet input_shape must be (C, H, W)")
            h, w = self.input_shape[1:]
            for _ in self.channels:
                if h % 2 or w % 2:
                    raise ValueError("spatial dims must halve evenly at each pool")
                h, w = h // 2, w // 2

    def layer_shapes(self):
        """Canonical (name, kind, shape) sequence defining the flatten order."""
        out = []
        if self.architecture == "mlp":
            dims = [int(np.prod(self.input_shape))] + list(self.hidden) + [self.num_classes]
            for i in range(len(dims) - 1):
                out.append((f"fc{i + 1}", "weight", (dims[i + 1], dims[i])))
                out.append((f"fc{i + 1}", "bias", (dims[i + 1],)))
        else:
            c, h, w = self.input_shape
            for i, oc in enumerate(self.channels):
                out.append((f"conv{i + 1}", "weight", (oc, c, KSIZE, KSIZE)))
                out.append((f"conv{i + 1}", "bias", (oc,)))
                c, h, w = oc, h // 2, w // 2
            out.append(("fc", "weight", (self.num_classes, c * h * w)))
            out.append(("fc", "bias", (self.num_classes,)))
        return out

    def layer_map(self) -> tuple[LayerEntry, ...]:
        entries, offset = [], 0
        for name, kind, shape in self.layer_shapes():
            length = int(np.prod(shape))
            entries.append(LayerEntry(name, offset, length, kind))
            offset += length
        return tuple(entries)

    def param_count(self) -> int:
        return sum(int(np.prod(s)) for _, _, s in self.layer_shapes())


def init_params(spec: ModelSpec, seed: int) -> ParameterVector:
    """Scaled-uniform fan-in initialization, biases zero; deterministic in seed."""
    rng = np.random.default_rng(seed)
    values = np.zeros(spec.param_count())
    for wshape, ws, _ in _layers(spec):
        bound = 1.0 / np.sqrt(int(np.prod(wshape[1:])))
        values[ws] = rng.uniform(-bound, bound, size=ws.stop - ws.start)
    return ParameterVector(values, spec.layer_map())


def _as_batch(spec: ModelSpec, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.shape[1:] != tuple(spec.input_shape):
        raise ValueError(
            f"batch shape {batch.shape[1:]} does not match input shape {spec.input_shape}")
    return batch


def _check_layout(spec: ModelSpec, params: ParameterVector, mask) -> None:
    """Raise ValueError unless params are laid out as spec's model and mask as
    params, so that the chain's slices index the vectors it was given."""
    if tuple(params.layer_map) != spec.layer_map():
        raise ValueError(f"parameters ({len(params)} positions) do not match the model's "
                         f"layer map ({spec.param_count()} positions)")
    if tuple(mask.layer_map) != tuple(params.layer_map):
        raise ValueError(f"mask ({mask.bits.size} positions) does not match the "
                         f"parameters' layer map ({len(params)} positions)")


def _check_labels(spec: ModelSpec, labels) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= spec.num_classes:
        raise ValueError("labels out of range")
    return labels


# ---------------------------------------------------------------------------
# The layer chain.  Both architectures are a fixed sequence of (weight, bias)
# layers: conv blocks (3x3 same conv + ReLU + 2x2 average pool) followed by
# dense layers with a ReLU between them.  Conv activations are kept
# batch-innermost, (C, H, W, N): a block's conv is one (OC, C*9) @ (C*9, HWN)
# product, its bias gradient a sum over contiguous rows, and every window
# copy of im2col, col2im, pooling and unpooling moves runs of W*N elements.
# The last block's output is already the dense input, transposed.

def _layers(spec: ModelSpec):
    """(weight shape, weight slice, bias slice) per layer, input to output,
    with the slices indexing the flat parameter vector."""
    slices = [slice(e.offset, e.offset + e.length) for e in spec.layer_map()]
    wshapes = [shape for _, kind, shape in spec.layer_shapes() if kind == "weight"]
    return list(zip(wshapes, slices[0::2], slices[1::2]))


def _im2col(x):
    """(C, H, W, N) -> (C*k*k, H*W*N) patch matrix of a same-padded stride-1
    conv; rows are ordered (c, ki, kj) like a flattened kernel, columns
    (h, w, n) like the activations.  The patches are one strided view of
    the padded input, copied once by the reshape."""
    c, h, w, n = x.shape
    pad = KSIZE // 2
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n))
    xp[:, pad:pad + h, pad:pad + w] = x
    sc, sh, sw, sn = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (c, KSIZE, KSIZE, h, w, n), (sc, sh, sw, sh, sw, sn), writeable=False)
    return windows.reshape(c * KSIZE * KSIZE, h * w * n)


def _col2im(dcols, shape):
    """Adjoint of _im2col: scatter (C*k*k, H*W*N) patch gradients back onto
    the (C, H, W, N) input."""
    c, h, w, n = shape
    pad = KSIZE // 2
    dcols = dcols.reshape(c, KSIZE, KSIZE, h, w, n)
    gxp = np.zeros((c, h + 2 * pad, w + 2 * pad, n))
    for i in range(KSIZE):
        for j in range(KSIZE):
            gxp[:, i:i + h, j:j + w] += dcols[:, i, j]
    return gxp[:, pad:pad + h, pad:pad + w]


def _forward(layers, effective, batch, tape=None):
    """Logits of the chain.  If ``tape`` is a list, one entry per layer is
    appended for _backward: (dense input or conv patch matrix, boolean ReLU
    mask of the layer's output or None)."""
    n = batch.shape[0]
    conv_first = len(layers[0][0]) == 4
    x = batch.transpose(1, 2, 3, 0) if conv_first else batch.reshape(n, -1)
    last = len(layers) - 1
    for i, (wshape, ws, bs) in enumerate(layers):
        w = effective[ws].reshape(wshape[0], -1)
        b = effective[bs]
        if len(wshape) == 4:
            _, h, wd, _ = x.shape
            cols = _im2col(x)
            z = w @ cols
            z += b[:, None]
            # np.maximum: about 10x faster than np.where at these sizes
            a = np.maximum(z, 0.0, out=z).reshape(wshape[0], h, wd, n)
            # the pool sums in the order (a00 + a01) + a10 + a11, then scales
            x = a[:, 0::2, 0::2] + a[:, 0::2, 1::2]
            x += a[:, 1::2, 0::2]
            x += a[:, 1::2, 1::2]
            x *= 0.25
            entry = (cols, a > 0.0)
        else:
            if x.ndim == 4:
                x = x.reshape(-1, n).T  # (N, C*H*W), a view
            z = x @ w.T
            z += b
            entry = (x, None)
            if i < last:
                np.maximum(z, 0.0, out=z)
                entry = (x, z > 0.0)
            x = z
        if tape is not None:
            tape.append(entry)
    return x


def _nll(logits, labels, rows=None):
    """(per-example softmax cross-entropy, softmax probabilities); ``rows``
    is np.arange(len(labels)), if the caller has it."""
    if rows is None:
        rows = np.arange(len(labels))
    zmax = np.maximum.reduce(logits, axis=1, keepdims=True)
    p = logits - zmax
    np.exp(p, out=p)
    total = np.add.reduce(p, axis=1, keepdims=True)
    nll = zmax[:, 0] + np.log(total[:, 0]) - logits[rows, labels]
    p /= total
    return nll, p


def _cross_entropy(logits, labels):
    """(mean softmax cross-entropy, its gradient w.r.t. the logits)."""
    n = len(labels)
    rows = np.arange(n)
    nll, p = _nll(logits, labels, rows)
    p[rows, labels] -= 1.0
    p /= n
    return float(np.add.reduce(nll)) / n, p


def _backward(layers, effective, tape, g, grad):
    """Backpropagate g = d loss / d logits through the chain, writing each
    layer's gradient into its slices of the flat buffer ``grad``.  The
    gradient w.r.t. the input batch is never formed."""
    for i in range(len(layers) - 1, -1, -1):
        wshape, ws, bs = layers[i]
        x, keep = tape[i]
        w = effective[ws].reshape(wshape[0], -1)
        gw = grad[ws].reshape(w.shape)
        if len(wshape) == 4:
            oc, h, wd, n = keep.shape
            if g.ndim == 2:
                g = g.reshape(oc, h // 2, wd // 2, n)
            # unpool over each 2x2 window and apply the ReLU mask in one multiply
            gz = np.multiply((g * 0.25)[:, :, None, :, None],
                             keep.reshape(oc, h // 2, 2, wd // 2, 2, n)).reshape(oc, -1)
            np.matmul(gz, x.T, out=gw)
            gz.sum(axis=1, out=grad[bs])
            if i:
                g = _col2im(w.T @ gz, (x.shape[0] // KSIZE ** 2, h, wd, n))
        else:
            if keep is not None:
                g *= keep  # g is a fresh g @ w here, never the caller's array
            np.matmul(g.T, x, out=gw)
            g.sum(axis=0, out=grad[bs])
            if i:
                # into a conv block as (C*H*W, N), its own layout
                g = w.T @ g.T if len(layers[i - 1][0]) == 4 else g @ w


def _loss_and_grad(layers, effective, batch, labels, grad):
    """Mean cross-entropy of a batch; its gradient w.r.t. the effective
    weights is written into the flat buffer ``grad``."""
    tape = []
    loss, dlogits = _cross_entropy(_forward(layers, effective, batch, tape), labels)
    _backward(layers, effective, tape, dlogits, grad)
    return loss


def forward(spec: ModelSpec, params: ParameterVector, mask, batch) -> np.ndarray:
    """Logits for a batch, computed with effective weights (params * mask)."""
    _check_layout(spec, params, mask)
    batch = _as_batch(spec, batch)
    out = _forward(_layers(spec), params.values * mask.bits, batch)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite logits in forward pass")
    return out


def backward(spec: ModelSpec, params: ParameterVector, mask, batch, labels) -> ParameterVector:
    """Gradient of mean cross-entropy w.r.t. params; zero at masked positions."""
    _check_layout(spec, params, mask)
    batch = _as_batch(spec, batch)
    labels = _check_labels(spec, labels)
    grad = np.empty_like(params.values)
    _loss_and_grad(_layers(spec), params.values * mask.bits, batch, labels, grad)
    # gradient w.r.t. params equals gradient w.r.t. effective weights times mask
    grad *= mask.bits
    return ParameterVector(grad, params.layer_map)


@functools.lru_cache(maxsize=32)
def _epoch_order(shuffle_seed, epoch, n):
    """The read-only order in which `train` visits n examples in an epoch,
    a permutation deterministic in (shuffle_seed, epoch).  Every iteration
    of a pruning run, and every seed with the same TrainConfig, replays the
    same orders, so they are cached; the cache holds at most 32 * n * 8
    bytes for the largest n trained on."""
    order = np.random.default_rng([shuffle_seed, epoch]).permutation(n)
    order.flags.writeable = False
    return order


def train(spec, params, mask, data, cfg: TrainConfig,
          snapshot_epochs=(), _snapshots=None) -> ParameterVector:
    """SGD training of the masked network; deterministic in cfg.shuffle_seed.

    Masked positions stay exactly zero.  If ``_snapshots`` is a dict, it gets
    copies (epoch index -> ParameterVector) of the masked starting parameters
    at 0 and of the parameters after each epoch in ``snapshot_epochs``.
    """
    _check_layout(spec, params, mask)
    if data.size == 0:
        raise ValueError("empty dataset")
    examples = _as_batch(spec, data.examples)
    _check_labels(spec, data.labels)
    theta = params.copy()
    theta.values *= mask.bits
    if _snapshots is not None:
        _snapshots[0] = theta.copy()
    if cfg.epochs == 0:
        return theta
    layers = _layers(spec)
    grad = np.empty_like(theta.values)
    velocity = np.zeros_like(theta.values)
    step = np.empty_like(theta.values)
    decay_sel = np.zeros(theta.values.size, dtype=bool)
    for _, ws, _ in layers:
        decay_sel[ws] = mask.bits[ws] != 0.0
    lr = cfg.learning_rate
    last_loss = None
    for epoch in range(cfg.epochs):
        if epoch in cfg.milestones:
            lr *= cfg.gamma
        perm = _epoch_order(cfg.shuffle_seed, epoch, data.size)
        for bi, start in enumerate(range(0, data.size, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            # theta is kept masked, so it is its own effective weight vector
            loss = _loss_and_grad(layers, theta.values, examples[idx],
                                  data.labels[idx], grad)
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, bi, loss, lr, last_loss)
            last_loss = loss
            grad *= mask.bits
            g = grad
            if cfg.weight_decay:
                g = g + np.where(decay_sel, cfg.weight_decay * theta.values, 0.0)
            velocity *= cfg.momentum
            velocity += g
            np.multiply(velocity, lr, out=step)
            # g is +-0 at masked positions, so the velocity (from +0) and the
            # step stay +0 there and theta keeps its masked start, sign and all
            theta.values -= step
        if _snapshots is not None and epoch + 1 in snapshot_epochs:
            _snapshots[epoch + 1] = theta.copy()
    if not np.all(np.isfinite(theta.values)):
        raise TrainingDiverged(cfg.epochs - 1, bi, None, lr, last_loss)
    return theta


def train_with_snapshots(spec, params, mask, data, cfg, snapshot_epochs):
    """Like train() but also returns {epoch: params-after-epoch} snapshots.

    Epoch 0 always maps to the (masked) starting parameters.
    """
    snaps = {}
    out = train(spec, params, mask, data, cfg,
                snapshot_epochs=tuple(snapshot_epochs), _snapshots=snaps)
    return out, snaps


def evaluate(spec, params, mask, data):
    """(accuracy, mean loss) on a dataset; pure, argmax ties -> lowest class.
    Each forward call checks the parameters' and mask's layout."""
    if data.size == 0:
        raise ValueError("empty dataset")
    _check_labels(spec, data.labels)
    correct, loss_sum = 0, 0.0
    for start in range(0, data.size, 512):
        xb = data.examples[start:start + 512]
        yb = data.labels[start:start + 512]
        logits = forward(spec, params, mask, xb)
        correct += int((logits.argmax(axis=1) == yb).sum())
        loss_sum += float(_nll(logits, yb)[0].sum())
    return correct / data.size, loss_sum / data.size
