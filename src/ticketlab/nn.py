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
from types import SimpleNamespace

import numpy as np

KSIZE = 3  # convolution kernel size used by the convnet architecture
CONV_BLOCK = 64  # examples per block of an inference pass (forward, evaluate)
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
# (out, in) @ (in, columns) GEMM, a conv bias gradient is a sum over
# contiguous rows, and every window copy of im2col, col2im, pooling and
# unpooling moves runs of W*N elements.  The last block's output, read as
# (C*H*W, N), is the dense input.  A _Plan holds every buffer of a pass.

def _layers(spec: ModelSpec):
    """(weight shape, weight slice, bias slice) per layer, input to output,
    with the slices indexing the flat parameter vector."""
    slices = [slice(e.offset, e.offset + e.length) for e in spec.layer_map()]
    wshapes = [shape for _, kind, shape in spec.layer_shapes() if kind == "weight"]
    return list(zip(wshapes, slices[0::2], slices[1::2]))


def _columns(m):
    """m columns rounded up to whole groups of GEMM_ALIGN.  BLAS computes a
    GEMM's columns in groups, with one kernel for whole groups and others,
    whose bits differ, for a partial last group.  So each product of the
    chain runs on whole groups, its input padded with columns that start at
    zero, and a column's bits do not depend on the columns computed with it."""
    return -(-m // GEMM_ALIGN) * GEMM_ALIGN


class _Plan:
    """Every buffer that a pass of the chain over a block of n examples
    writes, and each layer's views of the flat vectors: its weight and bias
    in ``effective`` and, given ``grad``, the slices of ``grad`` that
    ``step`` writes, with the step's ReLU masks and input gradients.  A pass
    writes every op into these buffers with ``out=``, so a step allocates no
    array of the chain; a plan serves the one call that built it.

    Per layer, ``cols`` is the GEMM's input, (in, _columns(m)) for m
    columns: the patch matrix of a conv block, gathered from ``xp``, its
    input with a zero border, or a dense input.  Its first m columns are
    ``x`` and those of the product ``z`` are ``zv``.  A ReLU works in place
    on ``zv``; a dense layer's ``z`` is the next dense layer's ``cols``, and
    a conv block pools ``zv``, seen by 2x2 window as ``a6``, into ``pooled``,
    the next layer's input.  The step reads each ReLU mask off ``zv``; a
    conv block then writes its gradients over ``zv`` and ``x``."""

    def __init__(self, spec, effective, n, grad=None):
        self.layers, dims, layers = [], spec.input_shape, _layers(spec)
        for i, (wshape, ws, bs) in enumerate(layers):
            oc, last = wshape[0], self.layers[-1] if self.layers else None
            L = SimpleNamespace(conv=len(wshape) == 4, relu=i < len(layers) - 1,
                                w=effective[ws].reshape(oc, -1), b=effective[bs][:, None])
            if L.conv:
                c, h, w = dims
                m, L.xp = h * w * n, np.zeros((c, h + 2, w + 2, n))
                into = L.xp[:, 1:h + 1, 1:w + 1]
                sc, sh, sw, sn = L.xp.strides
                L.windows = np.lib.stride_tricks.as_strided(
                    L.xp, (c, KSIZE, KSIZE, h, w, n), (sc, sh, sw, sh, sw, sn), writeable=False)
                L.cols = np.zeros((c * KSIZE ** 2, _columns(m)))
                dims = (oc, h // 2, w // 2)
            else:
                m = n
                L.cols = (last.z if last and not last.conv
                          else np.zeros((math.prod(dims), _columns(n))))
                into = L.cols[:, :n].reshape(*dims, n)
                dims = (oc,)
            if last is None:
                self.input = into  # (*input_shape, n)
            elif last.conv:
                last.pooled = into
            L.x, L.z = L.cols[:, :m], np.empty((oc, L.cols.shape[1]))
            L.zv = L.z[:, :m]
            if L.conv:
                L.patches = L.x.reshape(c, KSIZE, KSIZE, h, w, n)
                L.a6 = L.zv.reshape(oc, h // 2, 2, w // 2, 2, n)
            if grad is not None:
                L.gw, L.gb = grad[ws].reshape(L.w.shape), grad[bs]
                if L.relu:
                    L.keep = np.empty((oc, m), dtype=bool)
                    L.keep6 = L.keep.reshape(L.a6.shape) if L.conv else None
                if i:  # the gradient w.r.t. the layer's input
                    L.gx = np.empty_like(L.xp) if L.conv else np.empty((L.x.shape[0], n))
            self.layers.append(L)

    def forward(self, batch):
        """The plan's (n, classes) logits of a batch of n examples, a
        transposed view of the last product.  Each column of a layer's
        product holds one example, so an example's logits do not depend on
        the batch around it."""
        self.input[...] = batch.transpose(*range(1, batch.ndim), 0)
        for L in self.layers:
            if L.conv:
                L.patches[...] = L.windows  # im2col: the nine shifted windows in one copy
            np.matmul(L.w, L.cols, out=L.z)
            L.zv += L.b
            if L.relu:
                # np.maximum: about 10x faster than np.where at these sizes
                np.maximum(L.zv, 0.0, out=L.zv)
            if L.conv:
                # the pool sums in the order (a00 + a01) + a10 + a11, then scales
                a, out = L.a6, L.pooled
                np.add(a[:, :, 0, :, 0], a[:, :, 0, :, 1], out=out)
                out += a[:, :, 1, :, 0]
                out += a[:, :, 1, :, 1]
                out *= 0.25
        return L.zv.T

    def step(self, batch, labels):
        """The mean cross-entropy of a batch of n examples, backpropagated
        through the chain into each layer's slices of ``grad``.  The
        gradient w.r.t. the input batch is never formed."""
        loss, g = _cross_entropy(self.forward(batch), labels)
        g = g.T
        for i in range(len(self.layers) - 1, -1, -1):
            L = self.layers[i]
            if L.relu:  # then g is the next layer's gx, never the caller's array
                np.greater(L.zv, 0.0, out=L.keep)  # zv holds the ReLU's output
            if L.conv:
                # unpool over each 2x2 window and apply the ReLU mask in one
                # broadcast multiply, over the activation the pool has read
                g = g.reshape(L.pooled.shape)
                g *= 0.25
                np.multiply(g[:, :, None, :, None], L.keep6, out=L.a6)
                g = L.zv
            elif L.relu:
                g *= L.keep
            np.matmul(g, L.x.T, out=L.gw)
            g.sum(axis=1, out=L.gb)
            if not i:
                break
            if L.conv:
                # col2im: the patch gradient, written over the patch matrix that
                # this pass no longer reads, scattered back onto the input
                _, _, _, h, w, _ = L.patches.shape
                np.matmul(L.w.T, g, out=L.x)
                L.gx.fill(0.0)
                for ki in range(KSIZE):
                    for kj in range(KSIZE):
                        L.gx[:, ki:ki + h, kj:kj + w] += L.patches[:, ki, kj]
                g = L.gx[:, 1:h + 1, 1:w + 1]
            else:
                g = np.matmul(L.w.T, g, out=L.gx)
        return loss


def _plans(spec, effective, n, block, grad=None):
    """A plan per width of the blocks of `block` examples that cover n
    examples: a full block and a partial last one."""
    widths = {min(block, n), n % block} - {0}
    return {width: _Plan(spec, effective, width, grad) for width in widths}


def _infer(spec, effective, batch):
    """(N, classes) logits of the chain, run on blocks of CONV_BLOCK
    examples, each writing its logits into its slice, so the buffers stop
    growing with the batch.  Non-finite logits are a FloatingPointError."""
    n = batch.shape[0]
    plans, logits = _plans(spec, effective, n, CONV_BLOCK), np.empty((n, spec.num_classes))
    for start in range(0, n, CONV_BLOCK):
        block = batch[start:start + CONV_BLOCK]
        logits[start:start + CONV_BLOCK] = plans[block.shape[0]].forward(block)
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits in forward pass")
    return logits


def _nll(logits, labels):
    """(per-example softmax cross-entropy, exp(logits - row max), its row
    sums): the softmax is the second over the third.  On a plan's logits,
    a view of its (classes, n) product, the max runs over whole rows of
    it; the sums run along rows of a C-ordered copy whatever the layout."""
    zmax = np.maximum.reduce(logits, axis=1, keepdims=True)
    p = np.subtract(logits, zmax, order="C")
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


def forward(spec: ModelSpec, params: ParameterVector, mask, batch) -> np.ndarray:
    """Logits for a batch, computed with effective weights (params * mask)."""
    batch, _ = _check_inputs(spec, params, mask, batch)
    with np.errstate(over="ignore", invalid="ignore"):  # as in evaluate
        return _infer(spec, params.values * mask.bits, batch)


def backward(spec: ModelSpec, params: ParameterVector, mask, batch, labels) -> ParameterVector:
    """Gradient of mean cross-entropy w.r.t. params; zero at masked positions.
    A non-finite loss or gradient is a FloatingPointError."""
    batch, labels = _check_inputs(spec, params, mask, batch, labels)
    grad = np.empty_like(params.values)
    with np.errstate(over="ignore", invalid="ignore"):  # as in forward and evaluate
        plan = _Plan(spec, params.values * mask.bits, batch.shape[0], grad)  # one block
        loss = plan.step(batch, labels)
        # gradient w.r.t. params equals gradient w.r.t. effective weights times mask
        grad *= mask.bits
    if not (math.isfinite(loss) and np.all(np.isfinite(grad))):
        raise FloatingPointError("non-finite loss or gradient in backward pass")
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
    grad = np.empty_like(theta.values)
    # theta is kept masked, so it is its own effective weight vector
    plans = _plans(spec, theta.values, data.size, cfg.batch_size, grad)
    velocity = np.zeros_like(theta.values)
    step = np.empty_like(theta.values)
    lr = cfg.learning_rate
    last_loss = None
    with np.errstate(over="ignore", invalid="ignore"):  # the finite checks decide
        for epoch in range(cfg.epochs):
            if epoch in cfg.milestones:
                lr *= cfg.gamma
            perm = _epoch_order(cfg.shuffle_seed, epoch, data.size)
            for bi, start in enumerate(range(0, data.size, cfg.batch_size)):
                idx = perm[start:start + cfg.batch_size]
                plan = plans[idx.size]
                loss = plan.step(examples[idx], data.labels[idx])
                if not math.isfinite(loss):
                    raise TrainingDiverged(epoch, bi, loss, lr, last_loss)
                last_loss = loss
                grad *= keep
                if cfg.weight_decay:
                    for L in plan.layers:  # theta is +-0 where masked: its decay adds nothing
                        L.gw += cfg.weight_decay * L.w
                velocity *= cfg.momentum
                velocity += grad
                np.multiply(velocity, lr, out=step)
                # grad is +-0 at masked positions, so the velocity (from +0) and the
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
        logits = _infer(spec, params.values * mask.bits, examples)
        loss_sum = float(_nll(logits, labels)[0].sum())
    return int((logits.argmax(axis=1) == labels).sum()) / data.size, loss_sum / data.size
