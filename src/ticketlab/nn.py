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
from dataclasses import dataclass

import numpy as np

KSIZE = 3  # convolution kernel size used by the convnet architecture
CONV_BLOCK = 64  # examples per pass of a forward without a tape
GEMM_ALIGN = 8  # a GEMM's columns are computed in groups of this many


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
        check_layer_map(self.layer_map, self.values, "values")

    def __len__(self):
        return self.values.size

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.values.copy(), self.layer_map)


def is_whole(value, minimum):
    """An integer (a bool is not one) of at least `minimum`."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= minimum)


def is_number(value):
    """A real number (a bool is not one), for a range check to compare."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _store_tuple(obj, name):
    """The list or tuple field `name` of the frozen `obj`, stored as a tuple;
    None, the field left for its check to reject, if it is neither."""
    value = getattr(obj, name)
    if not isinstance(value, (list, tuple)):
        return None
    object.__setattr__(obj, name, tuple(value))
    return getattr(obj, name)


def check_layer_map(layer_map, array, name):
    """Raise ValueError unless `array`, the field `name`, is a vector whose
    positions the entries tile in order: each offset where the previous
    entry ended, each length an integer >= 0."""
    if array.ndim != 1:
        raise ValueError(f"{name} must be a vector, not of shape {array.shape}")
    n, covered = array.size, 0
    for e in layer_map:
        if e.offset != covered or not (is_whole(e.offset, 0) and is_whole(e.length, 0)):
            raise ValueError(f"layer map not contiguous at {e.name}.{e.kind}")
        covered += e.length
    if covered != n:
        raise ValueError(f"layer map covers {covered} positions, not {n}")


def check_seed(seed):
    """`seed`, if it is an integer >= 0; else a ValueError naming it."""
    require([(is_whole(seed, 0), "seed must be an integer >= 0")])
    return seed


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
        ms = _store_tuple(self, "milestones")
        require([
            (is_whole(self.epochs, 0), "epochs must be an integer >= 0"),
            (is_number(self.learning_rate) and 0 < self.learning_rate < np.inf,
             "learning rate must be positive and finite"),
            (is_number(self.momentum) and 0 <= self.momentum < 1, "momentum must be in [0, 1)"),
            (is_number(self.weight_decay) and 0 <= self.weight_decay < np.inf,
             "weight decay must be non-negative and finite"),
            (is_whole(self.batch_size, 1), "batch size must be a positive integer"),
            (is_number(self.gamma) and 0 < self.gamma <= 1, "gamma must be in (0, 1]"),
            (is_whole(self.shuffle_seed, 0), "shuffle_seed must be an integer >= 0"),
            (ms is not None
             and all(is_whole(m, 0) and is_whole(self.epochs, m + 1) for m in ms)
             and list(ms) == sorted(set(ms)),
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
        if not is_whole(self.num_classes, 2):
            raise ValueError("num_classes must be an integer: need at least 2 classes")
        sizes = [_store_tuple(self, key) for key in ("input_shape", "hidden", "channels")]
        if None in sizes or not sizes[0] or not all(is_whole(d, 1) for s in sizes for d in s):
            raise ValueError("input_shape (non-empty), hidden and channels must be "
                             "positive integers")
        if self.architecture == "convnet":
            if len(self.input_shape) != 3:
                raise ValueError("convnet input_shape must be (C, H, W)")
            if any(d % 2 ** len(self.channels) for d in self.input_shape[1:]):
                raise ValueError("spatial dims must halve evenly at each pool")
        unread = "channels" if self.architecture == "mlp" else "hidden"
        if getattr(self, unread):
            raise ValueError(f"{unread} is not read by the {self.architecture} architecture")
        if 8 * self.param_count() > np.iinfo(np.intp).max:  # float64 bytes
            raise ValueError(f"{self.param_count()} parameters exceed numpy's largest array")

    def layer_shapes(self):
        """Canonical (name, kind, shape) flatten order, in Python ints that cannot wrap."""
        out, classes = [], int(self.num_classes)
        if self.architecture == "mlp":
            dims = [math.prod(map(int, self.input_shape)), *map(int, self.hidden), classes]
            for i in range(len(dims) - 1):
                out.append((f"fc{i + 1}", "weight", (dims[i + 1], dims[i])))
                out.append((f"fc{i + 1}", "bias", (dims[i + 1],)))
        else:
            c, h, w = map(int, self.input_shape)
            for i, oc in enumerate(map(int, self.channels)):
                out.append((f"conv{i + 1}", "weight", (oc, c, KSIZE, KSIZE)))
                out.append((f"conv{i + 1}", "bias", (oc,)))
                c, h, w = oc, h // 2, w // 2
            out.append(("fc", "weight", (classes, c * h * w)))
            out.append(("fc", "bias", (classes,)))
        return out

    def layer_map(self) -> tuple[LayerEntry, ...]:
        entries, offset = [], 0
        for name, kind, shape in self.layer_shapes():
            length = math.prod(shape)
            entries.append(LayerEntry(name, offset, length, kind))
            offset += length
        return tuple(entries)

    def param_count(self) -> int:
        return sum(e.length for e in self.layer_map())


def init_params(spec: ModelSpec, seed: int) -> ParameterVector:
    """Scaled-uniform fan-in initialization, biases zero; deterministic in seed."""
    rng = np.random.default_rng(check_seed(seed))
    values = np.zeros(spec.param_count())
    for wshape, ws, _ in _layers(spec):
        bound = 1.0 / np.sqrt(math.prod(wshape[1:]))
        values[ws] = rng.uniform(-bound, bound, size=ws.stop - ws.start)
    return ParameterVector(values, spec.layer_map())


def _check_inputs(spec: ModelSpec, params: ParameterVector, mask, batch, labels=None):
    """check_data(spec, batch, labels), once params have spec's layer map and mask params'."""
    if tuple(params.layer_map) != spec.layer_map():
        raise ValueError(f"parameters ({len(params)} positions) do not match the model's "
                         f"layer map ({spec.param_count()} positions)")
    check_aligned(params, mask)
    return check_data(spec, batch, labels)


def check_data(spec: ModelSpec, examples, labels=None):
    """(examples as float64, labels as check_labels gives them) once spec's
    model can take them: a non-empty set of its input shape, and a logit for
    each example's label if given."""
    examples = np.asarray(examples, dtype=np.float64)
    if examples.size == 0:
        raise ValueError("empty dataset")
    if examples.shape[1:] != spec.input_shape:
        raise ValueError(f"batch shape {examples.shape[1:]} does not match input shape "
                         f"{spec.input_shape}")
    if labels is not None:
        labels = check_labels(labels, examples.shape[0], spec.num_classes)
    return examples, labels


def check_labels(labels, count, num_classes):
    """`labels` as an int64 vector once it holds `count` (at least 1) whole
    numbers in 0..num_classes-1; else a ValueError that starts with "labels"."""
    labels = np.asarray(labels)
    if labels.shape != (count,):
        raise ValueError(f"labels of shape {labels.shape} for {count} examples")
    if labels.dtype.kind not in "iuf" or not np.all(labels == np.round(labels)):
        raise ValueError("labels must be whole numbers")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels out of range: {labels.min()}..{labels.max()} for "
                         f"num_classes {num_classes}")
    return labels.astype(np.int64, copy=False)


def check_aligned(params: ParameterVector, mask) -> None:
    """Raise ValueError unless mask has params' layer map, not just its length."""
    if tuple(mask.layer_map) != tuple(params.layer_map):
        raise ValueError(f"mask ({mask.bits.size} positions) does not match the "
                         f"parameters' layer map ({len(params)} positions)")


# ---------------------------------------------------------------------------
# The layer chain.  Both architectures are a fixed sequence of (weight, bias)
# layers: conv blocks (3x3 same conv + ReLU + 2x2 average pool) followed by
# dense layers with a ReLU between them.  Every activation is kept
# feature-major with the batch innermost: (C, H, W, N) in the conv blocks,
# (features, N) in the dense layers.  Every layer's product is then one
# (out, in) @ (in, columns) GEMM through _gemm, a conv bias gradient is a sum
# over contiguous rows, and every window copy of im2col, col2im, pooling and
# unpooling moves runs of W*N elements.  The last block's output, read as
# (C*H*W, N), is the dense input.

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


def _gemm(w, x):
    """w @ x for a contiguous x, each column with the bits it has in any
    other product of w with it.  BLAS computes a GEMM's columns in groups,
    with one kernel for whole groups and others, whose bits differ, for a
    partial last group.  So x is padded with zero columns to whole groups
    of GEMM_ALIGN, and the padding's columns are dropped from the product."""
    m = x.shape[1]
    if not m % GEMM_ALIGN:
        return w @ x
    padded = np.zeros((x.shape[0], -(-m // GEMM_ALIGN) * GEMM_ALIGN))
    padded[:, :m] = x
    return (w @ padded)[:, :m]


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
    """(N, classes) logits of the chain.  Each layer's output column holds
    one example and _gemm gives it the same bits in any product, so an
    example's logits do not depend on the batch around it.  If ``tape`` is
    a list, the whole batch is one block and one entry per layer is
    appended for _backward: (dense input or conv patch matrix, boolean ReLU
    mask of the layer's output or None).  Without one, no ReLU mask is
    formed, non-finite logits are a FloatingPointError, and the chain runs
    on blocks of CONV_BLOCK examples, each writing its logits into its
    slice, so the temporaries stop growing with the batch."""
    n = batch.shape[0]
    step = n if tape is not None else CONV_BLOCK
    logits = np.empty((n, layers[-1][0][0]))
    last = len(layers) - 1
    chain = [(len(wshape) == 4, effective[ws].reshape(wshape[0], -1), effective[bs][:, None])
             for wshape, ws, bs in layers]
    axes = (*range(1, batch.ndim), 0)
    for start in range(0, n, step):
        x = batch[start:start + step].transpose(axes)  # a view, batch innermost
        for i, (conv, w, b) in enumerate(chain):
            if conv:
                _, h, wd, nb = x.shape
                cols = _im2col(x)
                z = _gemm(w, cols)
                z += b
                # np.maximum: about 10x faster than np.where at these sizes
                a = np.maximum(z, 0.0, out=z).reshape(w.shape[0], h, wd, nb)
                # the pool sums in the order (a00 + a01) + a10 + a11, then scales
                x = a[:, 0::2, 0::2] + a[:, 0::2, 1::2]
                x += a[:, 1::2, 0::2]
                x += a[:, 1::2, 1::2]
                x *= 0.25
                if tape is not None:
                    tape.append((cols, a > 0.0))
                del cols, z, a  # freed before the next layer or block builds its own
            else:
                # (features, N); an MLP's input is copied, as _gemm needs
                x = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
                z = _gemm(w, x)
                z += b
                if i < last:
                    np.maximum(z, 0.0, out=z)
                if tape is not None:
                    tape.append((x, z > 0.0 if i < last else None))
                x = z
        logits[start:start + step] = x.T
    if tape is None and not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits in forward pass")
    return logits


def _nll(logits, labels):
    """(per-example softmax cross-entropy, exp(logits - row max), its row
    sums): the softmax is the second over the third."""
    zmax = np.maximum.reduce(logits, axis=1, keepdims=True)
    p = logits - zmax
    np.exp(p, out=p)
    total = np.add.reduce(p, axis=1, keepdims=True)
    nll = zmax[:, 0] + np.log(total[:, 0]) - logits[np.arange(len(labels)), labels]
    return nll, p, total


def _cross_entropy(logits, labels):
    """(mean softmax cross-entropy, its gradient w.r.t. the logits)."""
    n = len(labels)
    nll, p, total = _nll(logits, labels)
    p /= total
    p[np.arange(n), labels] -= 1.0
    p /= n
    return float(np.add.reduce(nll)) / n, p


def _backward(layers, effective, tape, g, grad):
    """Backpropagate g = d loss / d logits, (classes, N) like the tape,
    through the chain, writing each layer's gradient into its slices of the
    flat buffer ``grad``.  The gradient w.r.t. the input batch is never
    formed."""
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
                g *= keep  # g is a fresh w.T @ g here, never the caller's array
            np.matmul(g, x.T, out=gw)
            g.sum(axis=1, out=grad[bs])
            if i:
                g = w.T @ g


def _loss_and_grad(layers, effective, batch, labels, grad):
    """Mean cross-entropy of a batch; its gradient w.r.t. the effective
    weights is written into the flat buffer ``grad``."""
    tape = []
    loss, dlogits = _cross_entropy(_forward(layers, effective, batch, tape), labels)
    _backward(layers, effective, tape, dlogits.T, grad)
    return loss


def forward(spec: ModelSpec, params: ParameterVector, mask, batch) -> np.ndarray:
    """Logits for a batch, computed with effective weights (params * mask)."""
    batch, _ = _check_inputs(spec, params, mask, batch)
    return _forward(_layers(spec), params.values * mask.bits, batch)


def backward(spec: ModelSpec, params: ParameterVector, mask, batch, labels) -> ParameterVector:
    """Gradient of mean cross-entropy w.r.t. params; zero at masked positions."""
    batch, labels = _check_inputs(spec, params, mask, batch, labels)
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


def train(spec, params, mask, data, cfg: TrainConfig, snapshots=None) -> ParameterVector:
    """SGD training of the masked network; deterministic in cfg.shuffle_seed.

    Masked positions stay exactly zero.  If ``snapshots`` is a dict, each of
    its keys e gets a copy of the parameters after epoch e (0: the masked
    start); a key outside 0..cfg.epochs is a ValueError.
    """
    examples, _ = _check_inputs(spec, params, mask, data.examples, data.labels)
    snapshots = {} if snapshots is None else snapshots
    if not all(is_whole(e, 0) and e <= cfg.epochs for e in snapshots):
        raise ValueError(f"snapshot epochs {list(snapshots)} not all in 0..{cfg.epochs}")
    keep = mask.bits.astype(np.float64)  # a step multiplies by floats 2x faster than by bools
    theta = ParameterVector(params.values * keep, params.layer_map)
    if 0 in snapshots:
        snapshots[0] = theta.copy()
    if cfg.epochs == 0:
        return theta
    layers = _layers(spec)
    grad = np.empty_like(theta.values)
    velocity = np.zeros_like(theta.values)
    step = np.empty_like(theta.values)
    decay_sel = np.zeros(theta.values.size, dtype=bool)
    for _, ws, _ in layers:
        decay_sel[ws] = True  # theta is +-0 where masked: its decay term adds nothing
    lr = cfg.learning_rate
    last_loss = None
    with np.errstate(over="ignore", invalid="ignore"):  # the finite checks decide
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
                grad *= keep
                g = grad
                if cfg.weight_decay:
                    g = g + np.where(decay_sel, cfg.weight_decay * theta.values, 0.0)
                velocity *= cfg.momentum
                velocity += g
                np.multiply(velocity, lr, out=step)
                # g is +-0 at masked positions, so the velocity (from +0) and the
                # step stay +0 there and theta keeps its masked start, sign and all
                theta.values -= step
            if epoch + 1 in snapshots:
                snapshots[epoch + 1] = theta.copy()
    if not np.all(np.isfinite(theta.values)):
        raise TrainingDiverged(cfg.epochs - 1, bi, None, lr, last_loss)
    return theta


def evaluate(spec, params, mask, data):
    """(accuracy, mean loss) on a dataset; pure, argmax ties -> lowest class.
    The inputs are checked, and the effective weights formed, once."""
    examples, labels = _check_inputs(spec, params, mask, data.examples, data.labels)
    with np.errstate(over="ignore", invalid="ignore"):  # as in train
        logits = _forward(_layers(spec), params.values * mask.bits, examples)
        loss_sum = float(_nll(logits, labels)[0].sum())
    return int((logits.argmax(axis=1) == labels).sum()) / data.size, loss_sum / data.size
