import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ticketlab as tl
from ticketlab import autodiff as ad
from ticketlab import nn
from conftest import finite_difference_gradient, max_relative_error, reference_loss


def ones_mask(params):
    return tl.SparsityMask.ones(params.layer_map)


class TestModelSpec:
    @pytest.mark.parametrize("args,kw,message", [
        (("mlp", (4,), 2), {"channels": (3,)}, "channels is not read by the mlp"),
        (("convnet", (1, 4, 4), 2), {"hidden": (5,)}, "hidden is not read by the convnet"),
        (("mlp", (4,), 2.5), {}, "num_classes must be an integer"),
        (("mlp", (4,), True), {}, "num_classes must be an integer"),
        (("mlp", (4,), 1), {}, "at least 2 classes"),
        (("convnet", (4, 4), 2), {"channels": (2,)}, r"input_shape must be \(C, H, W\)"),
        (("mlp", None, 2), {}, r"input_shape \(non-empty\), hidden and channels must be"),
        (("mlp", (4,), 2), {"hidden": None}, "hidden and channels must be positive integers"),
        # the first pool halves 6 to 3, which the second cannot halve
        (("convnet", (1, 6, 6), 2), {"channels": (2, 2)}, "halve evenly"),
        # past numpy's largest array; in int64 each has a length that wraps negative
        (("mlp", (2,), 3), {"hidden": (2**62,)}, "parameters exceed numpy's largest array"),
        (("mlp", (np.int64(2),), 3), {"hidden": (np.int64(2**62),)}, "numpy's largest array"),
        (("convnet", (1, 2**31, 2**31), 3), {"channels": (4,)}, "numpy's largest array"),
    ])
    def test_fields_the_model_cannot_use_rejected(self, args, kw, message):
        with pytest.raises(ValueError, match=message):
            tl.ModelSpec(*args, **kw)

    def test_input_halving_at_every_pool_accepted(self):
        spec = tl.ModelSpec("convnet", (1, 4, 12), 2, channels=(2, 2))
        assert spec.layer_shapes()[-2] == ("fc", "weight", (2, 2 * 1 * 3))

    def test_sizes_are_exact_up_to_numpy_largest_array(self):
        # 5 * 2**57 + 2 float64 values fill about 5/8 of numpy's largest array
        spec = tl.ModelSpec("mlp", (np.int64(2),), np.int64(2), hidden=(2**57,))
        assert [e.length for e in spec.layer_map()] == [2**58, 2**57, 2**58, 2]
        assert spec.param_count() == 5 * 2**57 + 2

    def test_sizes_stored_as_tuples(self):
        listed = tl.ModelSpec("mlp", [4], 2, hidden=[3])
        assert listed == tl.ModelSpec("mlp", (4,), 2, hidden=(3,))
        assert hash(listed) == hash(tl.ModelSpec("mlp", (4,), 2, hidden=(3,)))
        assert (listed.input_shape, listed.hidden, listed.channels) == ((4,), (3,), ())

    def test_empty_unread_widths_accepted(self):
        mlp = tl.ModelSpec("mlp", (4,), 2, hidden=(3,), channels=())
        conv = tl.ModelSpec("convnet", (1, 4, 4), 2, hidden=(), channels=(2,))
        assert (mlp.param_count(), conv.param_count()) == (4 * 3 + 3 + 3 * 2 + 2,
                                                           2 * 9 + 2 + 2 * 8 + 2)


# values of the wrong kind or out of range: each replaces one valid argument
ODD_VALUES = [None, True, "1", float("nan"), float("inf"), -1, 1.5, [1]]
_BLOBS = tl.synth_dataset("gaussianBlobs", 2, 4, 0.5, seed=0)
_SPEC = tl.ModelSpec("mlp", (2,), 2)
_THETA = tl.init_params(_SPEC, 0)
_CFG = tl.PruneRunConfig(0.5)
# every function that draws from a random stream, all but its seed given
SEEDED = [
    functools.partial(tl.init_params, _SPEC),
    functools.partial(tl.random_prune, tl.SparsityMask.ones(_THETA.layer_map), 0.5),
    functools.partial(tl.distill_random, _BLOBS, 2),
    functools.partial(tl.distill_kmeans_herding, _BLOBS, 2),
    functools.partial(tl.random_prune_run, _SPEC, _THETA, _BLOBS, _CFG),
    functools.partial(tl.imp_run, _SPEC, _THETA, _BLOBS, _CFG),
    functools.partial(tl.distilled_prune_run, _SPEC, _THETA, _BLOBS, _BLOBS, _CFG),
]
CONSTRUCTORS = [
    (tl.TrainConfig, dict(epochs=3, learning_rate=0.1, momentum=0.9, weight_decay=0.0,
                          batch_size=4, milestones=(1,), gamma=0.5, shuffle_seed=0)),
    (tl.PruneRunConfig, dict(desired_sparsity=0.5, amount=0.2, mask_train_epochs=2,
                             finetune_epochs=2, rewind_epoch=1, prune_scope="global",
                             train_config_mask=tl.TrainConfig(2),
                             train_config_finetune=tl.TrainConfig(2))),
    (tl.ModelSpec, dict(architecture="mlp", input_shape=(4,), num_classes=2, hidden=(3,),
                        channels=())),
    (tl.LabeledDataset, dict(examples=np.zeros((2, 2)), labels=np.array([0, 1]),
                             num_classes=2)),
    (functools.partial(tl.ParameterVector, layer_map=_THETA.layer_map),
     dict(values=_THETA.values)),
    (functools.partial(tl.SparsityMask, layer_map=_THETA.layer_map),
     dict(bits=np.ones(len(_THETA), dtype=bool))),
    (functools.partial(tl.forward, _SPEC, _THETA, tl.SparsityMask.ones(_THETA.layer_map)),
     dict(batch=np.zeros((2, 2)))),
    (functools.partial(tl.backward, _SPEC, _THETA, tl.SparsityMask.ones(_THETA.layer_map),
                       labels=[0, 1]), dict(batch=np.zeros((2, 2)))),
    (tl.synth_dataset, dict(kind="gaussianBlobs", num_classes=2, per_class=2, noise=0.5,
                            seed=0, input_shape=(2,))),
    (functools.partial(tl.distill_random, _BLOBS, seed=0), dict(ipc=2)),
    (functools.partial(tl.distill_kmeans_herding, _BLOBS, seed=0), dict(ipc=2)),
    *[(draw, dict(seed=0)) for draw in SEEDED[:5]],
]


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(CONSTRUCTORS), data=st.data())
def test_constructors_reject_odd_arguments_with_value_error(case, data):
    # an argument of the wrong kind or range is a ValueError, never a TypeError
    # or IndexError from a comparison or an index that ran on it; an array
    # argument given one axis more, or as a 0-d array, is one naming its field
    build, kwargs = case
    key = data.draw(st.sampled_from(sorted(kwargs)))
    valid = kwargs[key]
    wrong_rank = ([valid[None], valid.ravel()[:1].reshape(())]
                  if isinstance(valid, np.ndarray) else [])
    value = data.draw(st.sampled_from(ODD_VALUES + wrong_rank))
    if isinstance(value, np.ndarray):
        with pytest.raises(ValueError, match=key):
            build(**{**kwargs, key: value})
        return
    try:
        build(**{**kwargs, key: value})
    except ValueError:
        pass


@pytest.mark.parametrize("seed", [None, True, 1.5, -1, "0"])
@pytest.mark.parametrize("draw", SEEDED, ids=lambda f: f.func.__name__)
def test_every_random_stream_takes_a_checked_seed(draw, seed):
    # None would draw from OS entropy, and True would be seed 1
    with pytest.raises(ValueError, match="^seed must be an integer >= 0$"):
        draw(seed=seed)


class TestInitParams:
    def test_deterministic(self, tiny_mlp_spec):
        a = tl.init_params(tiny_mlp_spec, 0)
        b = tl.init_params(tiny_mlp_spec, 0)
        assert np.array_equal(a.values, b.values)

    def test_seed_sensitivity(self, tiny_mlp_spec):
        a = tl.init_params(tiny_mlp_spec, 0)
        b = tl.init_params(tiny_mlp_spec, 1)
        assert not np.array_equal(a.values, b.values)

    def test_mlp_784_64_10_length(self):
        spec = tl.ModelSpec("mlp", (784,), 10, hidden=(64,))
        params = tl.init_params(spec, 0)
        assert len(params) == 784 * 64 + 64 + 64 * 10 + 10 == 50890

    def test_biases_zero_weights_bounded(self, tiny_conv_spec):
        params = tl.init_params(tiny_conv_spec, 3)
        for e in params.layer_map:
            seg = params.values[e.offset:e.offset + e.length]
            if e.kind == "bias":
                assert np.all(seg == 0.0)
            else:
                assert np.all(np.abs(seg) <= 1.0)

    def test_layer_map_contiguous(self, tiny_conv_spec):
        params = tl.init_params(tiny_conv_spec, 0)
        offset = 0
        for e in params.layer_map:
            assert e.offset == offset
            offset += e.length
        assert offset == len(params)


class TestForward:
    def test_identity_mask_equals_unmasked(self, tiny_mlp_spec):
        params = tl.init_params(tiny_mlp_spec, 0)
        mask = ones_mask(params)
        x = np.random.default_rng(0).standard_normal((6, 5))
        a = tl.forward(tiny_mlp_spec, params, mask, x)
        b = tl.forward(tiny_mlp_spec, tl.apply_mask(params, mask), mask, x)
        assert np.array_equal(a, b)

    def test_all_zero_mask_annihilates(self, tiny_mlp_spec):
        params = tl.init_params(tiny_mlp_spec, 0)
        mask = ones_mask(params)
        mask.bits[:] = 0.0
        x = np.random.default_rng(0).standard_normal((4, 5))
        assert np.array_equal(tl.forward(tiny_mlp_spec, params, mask, x),
                              np.zeros((4, 3)))

    def test_single_linear_layer_by_hand(self):
        spec = tl.ModelSpec("mlp", (3,), 3, hidden=())
        params = tl.init_params(spec, 0)
        w = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0], [2.0, 0.0, -2.0]])
        b = np.array([0.5, -0.5, 0.0])
        params.values[:9] = w.ravel()
        params.values[9:] = b
        x = np.array([[1.0, -1.0, 2.0]])
        logits = tl.forward(spec, params, ones_mask(params), x)
        assert np.allclose(logits[0], w @ x[0] + b)

    def test_shape_mismatch_rejected(self, tiny_mlp_spec):
        params = tl.init_params(tiny_mlp_spec, 0)
        with pytest.raises(ValueError):
            tl.forward(tiny_mlp_spec, params, ones_mask(params), np.zeros((2, 4)))

    def test_empty_batch_rejected(self, tiny_mlp_spec):
        params = tl.init_params(tiny_mlp_spec, 0)
        with pytest.raises(ValueError, match="^empty dataset$"):
            tl.forward(tiny_mlp_spec, params, ones_mask(params), np.zeros((0, 5)))
        with pytest.raises(ValueError, match="^empty dataset$"):
            tl.backward(tiny_mlp_spec, params, ones_mask(params), np.zeros((0, 5)),
                        np.zeros(0, dtype=int))


def test_check_data_names_the_value_that_does_not_fit():
    """The one check of data against a model: a non-empty set of the
    model's input shape, with a logit for each label."""
    spec = tl.ModelSpec("mlp", (2,), 2, hidden=())
    x, labels = nn.check_data(spec, [[0, 1], [2, 3]], [1, 0])
    assert x.dtype == np.float64 and labels.tolist() == [1, 0]
    with pytest.raises(ValueError, match="^empty dataset$"):
        nn.check_data(spec, np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match=r"^batch shape \(3,\) does not match input "
                                         r"shape \(2,\)$"):
        nn.check_data(spec, np.zeros((4, 3)))
    for labels, span in (([0, 1, 2], "0..2"), ([-1, 0, 1], "-1..1")):
        with pytest.raises(ValueError, match=rf"^labels out of range: {span} for "
                                             r"num_classes 2$"):
            nn.check_data(spec, np.zeros((3, 2)), labels)


@pytest.mark.parametrize("labels", [[[0, 1, 2]], [0, 1], 0, [0, 1, 2, 0], [0.5, 1, 2]],
                         ids=["rank_2", "too_few", "rank_0", "too_many", "not_whole"])
def test_labels_that_do_not_fit_the_batch_are_named(labels):
    # one label rule for a batch and a dataset: a ValueError naming the
    # labels, never an error from inside numpy, and the same text from both
    spec = tl.ModelSpec("mlp", (2,), 3)
    params = tl.init_params(spec, 0)
    x = np.zeros((3, 2))
    with pytest.raises(ValueError, match="^labels") as from_backward:
        tl.backward(spec, params, ones_mask(params), x, labels)
    with pytest.raises(ValueError) as from_dataset:
        tl.LabeledDataset(x, labels, 3)
    with pytest.raises(ValueError) as from_check:
        nn.check_data(spec, x, labels)
    assert str(from_dataset.value) == str(from_check.value) == str(from_backward.value)


class TestBackward:
    @pytest.mark.parametrize("seed", range(3))
    def test_finite_difference_oracle_mlp(self, seed):
        spec = tl.ModelSpec("mlp", (6,), 4, hidden=(8,))
        params = tl.init_params(spec, seed)
        mask = ones_mask(params)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, 6))
        y = rng.integers(0, 4, 5)
        grad = tl.backward(spec, params, mask, x, y)
        fd = finite_difference_gradient(spec, params, mask, x, y)
        assert max_relative_error(grad.values, fd) < 1e-4

    def test_masked_positions_zero_gradient(self, tiny_mlp_spec):
        params = tl.init_params(tiny_mlp_spec, 0)
        mask = ones_mask(params)
        rng = np.random.default_rng(1)
        kill = rng.choice(len(params), size=20, replace=False)
        mask.bits[kill] = 0.0
        x = rng.standard_normal((4, 5))
        y = rng.integers(0, 3, 4)
        grad = tl.backward(tiny_mlp_spec, params, mask, x, y)
        assert np.all(grad.values[kill] == 0.0)

    def test_mean_reduction_row_duplication(self, tiny_mlp_spec):
        params = tl.init_params(tiny_mlp_spec, 0)
        mask = ones_mask(params)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 5))
        y = rng.integers(0, 3, 3)
        g1 = tl.backward(tiny_mlp_spec, params, mask, x, y)
        g2 = tl.backward(tiny_mlp_spec, params, mask,
                         np.repeat(x, 2, axis=0), np.repeat(y, 2))
        assert np.allclose(g1.values, g2.values, atol=1e-12)

    def test_labels_out_of_range(self, tiny_mlp_spec):
        params = tl.init_params(tiny_mlp_spec, 0)
        with pytest.raises(ValueError):
            tl.backward(tiny_mlp_spec, params, ones_mask(params),
                        np.zeros((1, 5)), np.array([5]))


def tape_gradient(spec, params, mask, x, y):
    """Gradient of the mean cross-entropy built on the autodiff tape, one
    primitive per layer operation; the independent oracle for nn.backward."""
    effective = params.values * mask.bits
    seg = {(e.name, e.kind): effective[e.offset:e.offset + e.length]
           for e in params.layer_map}
    weights = []  # (name, Var, transposed)
    h = ad.Var(x)
    for name, kind, shape in spec.layer_shapes():
        if kind == "bias":
            continue
        b = ad.Var(seg[(name, "bias")])
        w = seg[(name, "weight")].reshape(shape)
        if len(shape) == 4:
            wv = ad.Var(w)
            h = ad.avgpool2x2(ad.relu(ad.conv2d(h, wv, b)))
            weights.append((name, wv, b, False))
        else:
            wv = ad.Var(w.T)
            h = ad.add(ad.matmul(ad.reshape(h, (x.shape[0], -1)), wv), b)
            weights.append((name, wv, b, True))
            if name != spec.layer_shapes()[-1][0]:
                h = ad.relu(h)
    loss = ad.cross_entropy_mean(h, y)
    loss.backward()
    flat = np.concatenate([np.concatenate([(w.grad.T if t else w.grad).ravel(), b.grad])
                           for _, w, b, t in weights])
    return flat * mask.bits


def loop_forward(spec, params, mask, x):
    """Logits by explicit loops over every output position: 3x3 same conv,
    ReLU, 2x2 average pool, then the dense layers."""
    effective = params.values * mask.bits
    seg = {(e.name, e.kind): effective[e.offset:e.offset + e.length]
           for e in params.layer_map}
    h = x
    for i, oc in enumerate(spec.channels):
        n, c, hh, ww = h.shape
        w = seg[(f"conv{i + 1}", "weight")].reshape(oc, c, 3, 3)
        b = seg[(f"conv{i + 1}", "bias")]
        hp = np.pad(h, ((0, 0), (0, 0), (1, 1), (1, 1)))
        out = np.zeros((n, oc, hh // 2, ww // 2))
        for s in range(n):
            for o in range(oc):
                z = np.zeros((hh, ww))
                for r in range(hh):
                    for q in range(ww):
                        z[r, q] = max(0.0, float(np.sum(hp[s, :, r:r + 3, q:q + 3] * w[o]))
                                      + b[o])
                for r in range(hh // 2):
                    for q in range(ww // 2):
                        out[s, o, r, q] = z[2 * r:2 * r + 2, 2 * q:2 * q + 2].sum() / 4
        h = out
    h = h.reshape(h.shape[0], -1)
    w = seg[("fc", "weight")].reshape(spec.num_classes, -1)
    return h @ w.T + seg[("fc", "bias")]


CHAIN_SPECS = [
    tl.ModelSpec("mlp", (6,), 4, hidden=()),
    tl.ModelSpec("mlp", (6,), 4, hidden=(8,)),
    tl.ModelSpec("mlp", (3, 4), 4, hidden=(9, 5)),
    tl.ModelSpec("convnet", (3, 4, 4), 3, channels=(4,)),
    tl.ModelSpec("convnet", (2, 8, 8), 3, channels=(4, 5)),
]


def chain_spec_id(spec):
    return f"{spec.architecture}{spec.hidden or spec.channels}"


def chain_inputs(spec, seed, batch=7):
    """Perturbed parameters, a mask pruning about 30%, and a batch."""
    params = tl.init_params(spec, seed)
    rng = np.random.default_rng(seed)
    params.values += 0.1 * rng.standard_normal(len(params))
    mask = ones_mask(params)
    mask.bits[rng.random(len(params)) < 0.3] = 0.0
    x = rng.standard_normal((batch,) + spec.input_shape)
    y = rng.integers(0, spec.num_classes, batch)
    return params, mask, x, y


@st.composite
def chain_specs(draw):
    """MLPs on rank-1 to rank-3 inputs with 0-2 hidden layers, and ConvNets
    of 1-3 blocks on 1-3 input channels with independent, often non-square,
    spatial sizes."""
    num_classes = draw(st.integers(2, 4))
    if draw(st.booleans()):
        shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        hidden = draw(st.lists(st.integers(1, 6), max_size=2))
        return tl.ModelSpec("mlp", tuple(shape), num_classes, hidden=tuple(hidden))
    channels = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    scale = 2 ** len(channels)
    h, w = (draw(st.integers(1, 3)) * scale for _ in range(2))
    return tl.ModelSpec("convnet", (draw(st.integers(1, 3)), h, w), num_classes,
                        channels=tuple(channels))


class TestChainOracle:
    @pytest.mark.parametrize("spec", CHAIN_SPECS, ids=chain_spec_id)
    @pytest.mark.parametrize("seed", range(2))
    def test_backward_matches_tape(self, spec, seed):
        params, mask, x, y = chain_inputs(spec, seed)
        grad = tl.backward(spec, params, mask, x, y)
        assert max_relative_error(grad.values, tape_gradient(spec, params, mask, x, y)) <= 1e-12

    def test_taped_pass_is_one_block(self):
        # a training batch larger than an inference block: its gradient is
        # still the tape's, from one conv pass over the whole batch
        spec = CHAIN_SPECS[4]
        params, mask, x, y = chain_inputs(spec, 0, batch=2 * nn.CONV_BLOCK + 1)
        grad = tl.backward(spec, params, mask, x, y)
        assert max_relative_error(grad.values, tape_gradient(spec, params, mask, x, y)) <= 1e-12

    def test_forward_matches_explicit_loops(self):
        spec = tl.ModelSpec("convnet", (2, 8, 8), 3, channels=(4, 5))
        params = tl.init_params(spec, 0)
        rng = np.random.default_rng(0)
        mask = ones_mask(params)
        mask.bits[rng.random(len(params)) < 0.3] = 0.0
        x = rng.standard_normal((3, 2, 8, 8))
        assert np.allclose(tl.forward(spec, params, mask, x),
                           loop_forward(spec, params, mask, x))

    @settings(max_examples=150, deadline=None)
    @given(spec=chain_specs(), seed=st.integers(0, 2 ** 16), batch=st.integers(1, 5))
    def test_generated_architectures(self, spec, seed, batch):
        params, mask, x, y = chain_inputs(spec, seed, batch)
        inputs = (params.values, mask.bits, x, y)
        before = [a.tobytes() for a in inputs]
        grad = tl.backward(spec, params, mask, x, y)
        want = tape_gradient(spec, params, mask, x, y)
        # Each entry's error is taken relative to the largest gradient entry:
        # an entry whose summands cancel to 1e-5 of their size differs from
        # the tape in its 12th digit under any other summation order (about
        # 1 generated ConvNet in 1000, under either conv layout the chain
        # has used).
        scale = max(1e-8, float(np.abs(want).max()))
        assert max_relative_error(grad.values, want, floor=scale) <= 1e-12
        if spec.architecture == "convnet":
            assert np.allclose(tl.forward(spec, params, mask, x),
                               loop_forward(spec, params, mask, x))
        assert [a.tobytes() for a in inputs] == before

    @settings(max_examples=40, deadline=None)
    @given(spec=chain_specs().filter(lambda s: s.architecture == "convnet"),
           seed=st.integers(0, 2 ** 16), batch=st.integers(1, 200))
    @example(spec=CHAIN_SPECS[4], seed=0, batch=nn.CONV_BLOCK + 1)
    @example(spec=CHAIN_SPECS[4], seed=0, batch=2 * nn.CONV_BLOCK)
    # a 2x2 image: the whole batch's conv GEMM has 4 * 129 columns, 4 past
    # a whole group of nn.GEMM_ALIGN, and the last block 4 columns
    @example(spec=tl.ModelSpec("convnet", (2, 2, 2), 2, channels=(2,)), seed=0,
             batch=2 * nn.CONV_BLOCK + 1)
    def test_inference_logits_equal_taped_logits(self, spec, seed, batch):
        # evaluate and forward run without a tape; their logits must be the
        # bits of the taped pass that training takes, at any batch size
        params, mask, x, _ = chain_inputs(spec, seed, batch)
        layers, effective = nn._layers(spec), params.values * mask.bits
        taped = nn._forward(layers, effective, x, [])
        assert nn._forward(layers, effective, x).tobytes() == taped.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(spec=chain_specs(), seed=st.integers(0, 2 ** 16), batch=st.integers(1, 300))
    # found by hypothesis against a chain whose dense layers ran as x @ W.T
    # and whose GEMMs were aligned to 64 columns, then to 4
    @example(spec=tl.ModelSpec("mlp", (2,), 2), seed=0, batch=2)
    @example(spec=tl.ModelSpec("convnet", (1, 4, 2), 2, channels=(1,)), seed=0, batch=2)
    @example(spec=tl.ModelSpec("convnet", (1, 2, 4), 2, channels=(1,)), seed=0, batch=9)
    @example(spec=tl.ModelSpec("convnet", (1, 4, 4), 2, channels=(2, 2)), seed=0, batch=2)
    @example(spec=tl.ModelSpec("convnet", (2, 2, 2), 2, channels=(2,)), seed=0, batch=2)
    def test_logits_do_not_depend_on_the_batch(self, spec, seed, batch):
        # an example's logits are the bits of its own one-example pass, in
        # any batch and at any position in it
        params, mask, x, _ = chain_inputs(spec, seed, batch)
        logits = tl.forward(spec, params, mask, x)
        for i in range(batch):
            alone = tl.forward(spec, params, mask, x[i:i + 1])
            assert logits[i].tobytes() == alone[0].tobytes(), f"row {i}"


# (out, in) of every weight matrix in this file's and conftest's models
GEMM_SHAPES = sorted({(wshape[0], int(np.prod(wshape[1:])))
                      for spec in CHAIN_SPECS + [
                          tl.ModelSpec("mlp", (5,), 3, hidden=(7,)),
                          tl.ModelSpec("mlp", (2,), 2, hidden=(16,)),
                          tl.ModelSpec("convnet", (2, 4, 4), 3, channels=(3,)),
                          tl.ModelSpec("convnet", (1, 8, 8), 4, channels=(6,))]
                      for wshape, _, _ in nn._layers(spec)})


@pytest.mark.parametrize("shape", GEMM_SHAPES, ids=str)
def test_gemm_gives_any_aligned_column_range_the_bits_of_the_whole_product(shape):
    # the chain's batch invariance rests on this: a range of columns that
    # starts at a multiple of nn.GEMM_ALIGN, of any length, computed as its
    # own product gets the bits those columns have in the whole product
    rng = np.random.default_rng(0)
    w, x = rng.standard_normal(shape), rng.standard_normal((shape[1], 300))
    whole = nn._gemm(w, x)
    for start in range(0, 300, nn.GEMM_ALIGN):
        for stop in range(start + 1, 301):
            part = nn._gemm(w, np.ascontiguousarray(x[:, start:stop]))
            assert part.tobytes() == np.ascontiguousarray(whole[:, start:stop]).tobytes(), (
                f"columns {start}..{stop - 1} of a {shape} @ {x.shape} product differ from "
                f"the whole product's: this BLAS does not compute a GEMM's columns in "
                f"groups of nn.GEMM_ALIGN = {nn.GEMM_ALIGN}")


def slice_loop_im2col(x):
    """_im2col as nine slice copies of the padded (C, H, W, N) input."""
    c, h, w, n = x.shape
    xp = np.zeros((c, h + 2, w + 2, n))
    xp[:, 1:1 + h, 1:1 + w] = x
    cols = np.empty((c, 3, 3, h, w, n))
    for i in range(3):
        for j in range(3):
            cols[:, i, j] = xp[:, i:i + h, j:j + w]
    return cols.reshape(c * 9, h * w * n)


@pytest.mark.parametrize("shape", [(1, 4, 4, 1), (3, 2, 6, 1), (2, 6, 4, 5), (3, 5, 3, 16)])
def test_im2col_matches_slice_loop(shape):
    x = np.random.default_rng(0).standard_normal(shape)
    x[0, 0, 0] = -0.0
    # the first block's im2col gets the batch as a transposed, non-contiguous view
    for view in (x, x.transpose(1, 2, 3, 0).copy().transpose(3, 0, 1, 2)):
        cols = nn._im2col(view)
        assert cols.shape == (shape[0] * 9, shape[1] * shape[2] * shape[3])
        assert cols.tobytes() == slice_loop_im2col(view).tobytes()


DECAYING = tl.TrainConfig(epochs=2, batch_size=3, weight_decay=1e-3, milestones=(1,),
                          gamma=0.5)

ENTRY_POINTS = {
    "forward": lambda spec, params, mask, data: tl.forward(spec, params, mask,
                                                           data.examples),
    "backward": lambda spec, params, mask, data: tl.backward(spec, params, mask,
                                                             data.examples, data.labels),
    "train": lambda spec, params, mask, data: tl.train(spec, params, mask, data, DECAYING),
    "evaluate": lambda spec, params, mask, data: tl.evaluate(spec, params, mask, data),
}


@pytest.mark.parametrize("spec", CHAIN_SPECS, ids=chain_spec_id)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_chain_writes_into_no_input(spec, entry):
    # the chain works in place on its own temporaries only
    params, mask, x, y = chain_inputs(spec, 0)
    data = tl.LabeledDataset(x, y, spec.num_classes)
    inputs = (params.values, mask.bits, x, y, data.examples, data.labels)
    before = [a.tobytes() for a in inputs]
    ENTRY_POINTS[entry](spec, params, mask, data)
    assert [a.tobytes() for a in inputs] == before


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("wrong", ["params", "mask"])
def test_layout_of_another_model_rejected(entry, wrong):
    spec = tl.ModelSpec("mlp", (2,), 2, hidden=(4,))
    # 27 positions: trained through spec's slices, only the first 22 would move
    wider = tl.ModelSpec("mlp", (2,), 2, hidden=(5,))
    # 22 positions, like spec, but sliced differently
    same_size = tl.ModelSpec("mlp", (1,), 2, hidden=(5,))
    params = tl.init_params(wider if wrong == "params" else spec, 0)
    layout = params.layer_map if wrong == "params" else same_size.layer_map()
    rng = np.random.default_rng(0)
    data = tl.LabeledDataset(rng.standard_normal((6, 2)), rng.integers(0, 2, 6), 2)
    with pytest.raises(ValueError, match="layer map"):
        ENTRY_POINTS[entry](spec, params, tl.SparsityMask.ones(layout), data)


MASK_READERS = {
    **ENTRY_POINTS,
    "magnitude_prune": lambda spec, params, mask, data: tl.magnitude_prune(params, mask, 0.3),
    "random_prune": lambda spec, params, mask, data: tl.random_prune(mask, 0.3, 0),
}


def result_bytes(out):
    """The bytes of a mask reader's result; a mask's bits as 0.0/1.0."""
    if isinstance(out, tuple):
        return tuple(result_bytes(o) for o in out)
    if isinstance(out, tl.SparsityMask):
        return out.bits.astype(np.float64).tobytes()
    if isinstance(out, tl.ParameterVector):
        return out.values.tobytes()
    return out.tobytes() if isinstance(out, np.ndarray) else out


@settings(max_examples=80, deadline=None)
@given(spec=chain_specs(), seed=st.integers(0, 2 ** 16),
       entry=st.sampled_from(sorted(MASK_READERS)))
def test_mask_given_as_float_or_bool_gives_the_same_bytes(spec, seed, entry):
    params, mask, x, y = chain_inputs(spec, seed)
    data = tl.LabeledDataset(x, y, spec.num_classes)
    bits = mask.bits.astype(np.float64)
    masks = [tl.SparsityMask(b, params.layer_map) for b in (bits, bits.astype(bool))]
    if entry in ENTRY_POINTS:
        # the training core only multiplies by the bits, so float64 bits set
        # past the constructor give the bytes of the mask's own storage
        masks.append(mask.copy())
        masks[-1].bits = bits
    results = [result_bytes(MASK_READERS[entry](spec, params, m, data)) for m in masks]
    assert all(r == results[0] for r in results)


class TestTrain:
    def cfg(self, **kw):
        base = dict(epochs=5, learning_rate=0.1, momentum=0.9, batch_size=32)
        base.update(kw)
        return tl.TrainConfig(**base)

    def test_zero_epochs_returns_masked_params(self, blob_mlp_spec, blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        mask = ones_mask(params)
        mask.bits[::3] = 0.0
        out = tl.train(blob_mlp_spec, params, mask, blobs_2d, self.cfg(epochs=0))
        assert np.array_equal(out.values, params.values * mask.bits)

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_data_checked_at_any_epoch_count(self, blob_mlp_spec, epochs):
        params = tl.init_params(blob_mlp_spec, 0)
        rng = np.random.default_rng(0)
        wide = tl.LabeledDataset(rng.standard_normal((3, 5)), np.array([0, 1, 0]), 2)
        with pytest.raises(ValueError, match="batch shape"):
            tl.train(blob_mlp_spec, params, ones_mask(params), wide, self.cfg(epochs=epochs))
        # a label the 2-class model has no logit for
        three = tl.LabeledDataset(rng.standard_normal((3, 2)), np.array([0, 1, 2]), 3)
        with pytest.raises(ValueError, match="labels out of range"):
            tl.train(blob_mlp_spec, params, ones_mask(params), three, self.cfg(epochs=epochs))

    @pytest.mark.parametrize("spec", [CHAIN_SPECS[2], CHAIN_SPECS[4]], ids=chain_spec_id)
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_masked_positions_keep_their_start_bits(self, spec, weight_decay):
        # -0.0 where a negative weight is masked, +0.0 elsewhere
        params, mask, x, y = chain_inputs(spec, 0, batch=12)
        data = tl.LabeledDataset(x, y, spec.num_classes)
        cfg = tl.TrainConfig(epochs=3, batch_size=5, weight_decay=weight_decay,
                             milestones=(1,), gamma=0.5)
        out = tl.train(spec, params, mask, data, cfg)
        pruned = mask.bits == 0.0
        start = (params.values * mask.bits)[pruned]
        assert np.signbit(start).any() and not np.signbit(start).all()
        assert out.values[pruned].tobytes() == start.tobytes()

    def test_deterministic(self, blob_mlp_spec, blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        mask = ones_mask(params)
        a = tl.train(blob_mlp_spec, params, mask, blobs_2d, self.cfg())
        b = tl.train(blob_mlp_spec, params, mask, blobs_2d, self.cfg())
        assert np.array_equal(a.values, b.values)

    def test_shuffle_seed_changes_result(self, blob_mlp_spec, blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        mask = ones_mask(params)
        a = tl.train(blob_mlp_spec, params, mask, blobs_2d, self.cfg(shuffle_seed=0))
        b = tl.train(blob_mlp_spec, params, mask, blobs_2d, self.cfg(shuffle_seed=1))
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("seed, epoch, n", [(0, 0, 1), (0, 3, 40), (7, 1, 1000)])
    def test_epoch_order_is_the_seeded_permutation(self, seed, epoch, n):
        order = nn._epoch_order(seed, epoch, n)
        assert np.array_equal(order, np.random.default_rng([seed, epoch]).permutation(n))
        with pytest.raises(ValueError, match="read-only"):
            order[0] = order[-1]

    def test_cached_orders_train_identically(self, blob_mlp_spec, blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        mask = ones_mask(params)
        cfg = self.cfg(epochs=3, shuffle_seed=5)
        nn._epoch_order.cache_clear()
        cold = tl.train(blob_mlp_spec, params, mask, blobs_2d, cfg)
        assert nn._epoch_order.cache_info().misses == 3
        warm = tl.train(blob_mlp_spec, params, mask, blobs_2d, cfg)
        assert nn._epoch_order.cache_info().hits == 3
        assert cold.values.tobytes() == warm.values.tobytes()

    def test_separable_blobs_accuracy(self, blob_mlp_spec, blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        mask = ones_mask(params)
        out = tl.train(blob_mlp_spec, params, mask, blobs_2d, self.cfg(epochs=10))
        acc, _ = tl.evaluate(blob_mlp_spec, out, mask, blobs_2d)
        assert acc >= 0.95

    def test_final_loss_below_initial(self, blob_mlp_spec, blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        mask = ones_mask(params)
        _, loss0 = tl.evaluate(blob_mlp_spec, params, mask, blobs_2d)
        out = tl.train(blob_mlp_spec, params, mask, blobs_2d, self.cfg())
        _, loss1 = tl.evaluate(blob_mlp_spec, out, mask, blobs_2d)
        assert loss1 < loss0

    def test_masked_positions_stay_zero(self, blob_mlp_spec, blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        mask = ones_mask(params)
        mask.bits[::2] = 0.0
        out = tl.train(blob_mlp_spec, params, mask, blobs_2d,
                       self.cfg(weight_decay=1e-3))
        assert np.all(out.values[mask.bits == 0.0] == 0.0)

    def test_milestone_decay_changes_trajectory(self, blob_mlp_spec, blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        mask = ones_mask(params)
        a = tl.train(blob_mlp_spec, params, mask, blobs_2d,
                     self.cfg(epochs=4, milestones=(2,), gamma=0.1))
        b = tl.train(blob_mlp_spec, params, mask, blobs_2d, self.cfg(epochs=4))
        assert not np.array_equal(a.values, b.values)

    def test_snapshots_capture_epochs(self, blob_mlp_spec, blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        mask = ones_mask(params)
        snaps = {0: None, 1: None, 2: None}
        out = tl.train(blob_mlp_spec, params, mask, blobs_2d, self.cfg(epochs=3),
                       snapshots=snaps)
        assert set(snaps) == {0, 1, 2}
        assert np.array_equal(snaps[0].values, params.values)
        # epoch snapshots are intermediate, not the final weights
        assert not np.array_equal(snaps[1].values, out.values)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("arch", ["mlp", "convnet"])
    def test_snapshot_is_a_shorter_training(self, arch, k):
        # the parameters after epoch k are those of a k-epoch run with the
        # milestones below k; snapshot 0 is the masked start
        spec = (tl.ModelSpec("mlp", (2, 2, 2), 3, hidden=(6,)) if arch == "mlp" else
                tl.ModelSpec("convnet", (2, 2, 2), 3, channels=(3,)))
        data = tl.synth_dataset("gaussianBlobs", 3, 12, 0.5, seed=1, input_shape=(2, 2, 2))
        params = tl.init_params(spec, 2)
        mask = ones_mask(params)
        mask.bits[1::4] = 0.0
        cfg = self.cfg(epochs=4, weight_decay=1e-2, milestones=(1,), gamma=0.5,
                       batch_size=8, shuffle_seed=3)
        snaps = {0: None, k: None}
        tl.train(spec, params, mask, data, cfg, snapshots=snaps)
        short = replace(cfg, epochs=k, milestones=tuple(m for m in cfg.milestones if m < k))
        expected = tl.train(spec, params, mask, data, short)
        assert snaps[k].values.tobytes() == expected.values.tobytes()
        assert snaps[0].values.tobytes() == (params.values * mask.bits).tobytes()

    def test_snapshots_fill_only_requested_keys(self, blob_mlp_spec, blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        mask = ones_mask(params)
        cfg = self.cfg(epochs=3)
        snaps = {3: None}
        out = tl.train(blob_mlp_spec, params, mask, blobs_2d, cfg, snapshots=snaps)
        assert list(snaps) == [3]
        plain = tl.train(blob_mlp_spec, params, mask, blobs_2d, cfg)
        assert out.values.tobytes() == plain.values.tobytes() == snaps[3].values.tobytes()
        # the last epoch's snapshot is a copy, not the returned parameters
        assert not np.shares_memory(snaps[3].values, out.values)

    @pytest.mark.parametrize("key", [4, -1, 1.0, True, "1"])
    def test_snapshot_outside_the_epochs_rejected(self, blob_mlp_spec, blobs_2d, key):
        params = tl.init_params(blob_mlp_spec, 0)
        with pytest.raises(ValueError, match="snapshot epochs"):
            tl.train(blob_mlp_spec, params, ones_mask(params), blobs_2d,
                     self.cfg(epochs=3), snapshots={key: None})

    def test_milestones_stored_as_a_tuple(self):
        listed = tl.TrainConfig(3, milestones=[1])
        assert listed == tl.TrainConfig(3, milestones=(1,)) and listed.milestones == (1,)
        assert hash(listed) == hash(tl.TrainConfig(3, milestones=(1,)))

    def test_milestone_validation(self):
        with pytest.raises(ValueError):
            tl.TrainConfig(epochs=3, milestones=(5,))

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("momentum", float("nan")), ("weight_decay", float("nan")),
        ("weight_decay", float("inf")), ("gamma", float("nan"))])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            self.cfg(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("epochs", 2.5), ("batch_size", 2.5), ("batch_size", True), ("shuffle_seed", 1.5),
        ("milestones", (1.5,)), ("milestones", (True,)), ("milestones", (-1,)),
        ("milestones", None), ("milestones", "1")])
    def test_non_integer_fields_rejected(self, field, value):
        # a milestone of 1.5 never equals an epoch, so its decay would never fire
        with pytest.raises(ValueError, match="integer"):
            self.cfg(**{field: value})

    @pytest.mark.parametrize("field,value,name", [
        ("learning_rate", None, "learning rate"), ("learning_rate", True, "learning rate"),
        ("momentum", "0.9", "momentum"), ("weight_decay", [0.0], "weight decay"),
        ("gamma", None, "gamma")])
    def test_non_number_fields_rejected(self, field, value, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            self.cfg(**{field: value})

    def test_every_broken_rule_is_named(self):
        with pytest.raises(ValueError) as info:
            self.cfg(learning_rate=-1, momentum=1.0)
        assert "learning rate" in str(info.value) and "momentum" in str(info.value)

    def test_non_finite_final_parameters_diverge(self, blob_mlp_spec, blobs_2d):
        # one batch whose loss is finite but whose update overflows: no later
        # loss would show it, so the final parameters are checked
        params = tl.init_params(blob_mlp_spec, 0)
        data = tl.LabeledDataset(blobs_2d.examples * 1e200, blobs_2d.labels, 2)
        cfg = self.cfg(epochs=1, learning_rate=1e200, batch_size=data.size)
        with pytest.raises(tl.TrainingDiverged) as info:
            tl.train(blob_mlp_spec, params, ones_mask(params), data, cfg)
        assert info.value.loss is None and np.isfinite(info.value.last_finite_loss)
        assert str(info.value).startswith("non-finite parameters at epoch 0, batch 0")

    def test_divergence_reports_decayed_rate_and_last_finite_loss(self, blob_mlp_spec,
                                                                  blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        cfg = self.cfg(epochs=3, learning_rate=1e8, milestones=(1,), gamma=0.5)
        with pytest.raises(tl.TrainingDiverged) as info:
            tl.train(blob_mlp_spec, params, ones_mask(params), blobs_2d, cfg)
        e = info.value
        # it survives the first epoch, so the milestone has halved the rate
        assert e.epoch >= 1
        assert e.learning_rate == 5e7
        assert not np.isfinite(e.loss)
        assert np.isfinite(e.last_finite_loss)
        assert f"learning rate {5e7!r}" in str(e)
        assert f"last finite loss {e.last_finite_loss!r}" in str(e)


class TestEvaluate:
    def test_separable_linear_model(self):
        spec = tl.ModelSpec("mlp", (2,), 2, hidden=())
        params = tl.init_params(spec, 0)
        params.values[:4] = [1.0, 0.0, -1.0, 0.0]  # class 0 iff x[0] > 0
        params.values[4:] = 0.0
        data = tl.LabeledDataset(np.array([[2.0, 1.0], [-2.0, 0.5]]),
                                 np.array([0, 1]), 2)
        acc, _ = tl.evaluate(spec, params, tl.SparsityMask.ones(params.layer_map),
                             data)
        assert acc == 1.0

    def test_constant_logits_tie_to_class_zero(self):
        spec = tl.ModelSpec("mlp", (2,), 3, hidden=())
        params = tl.init_params(spec, 0)
        params.values[:] = 0.0
        labels = np.array([0, 0, 1, 2, 0])
        data = tl.LabeledDataset(np.ones((5, 2)), labels, 3)
        acc, _ = tl.evaluate(spec, params, tl.SparsityMask.ones(params.layer_map),
                             data)
        assert acc == np.mean(labels == 0)

    def test_purity(self, blob_mlp_spec, blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        before = params.values.copy()
        tl.evaluate(blob_mlp_spec, params, tl.SparsityMask.ones(params.layer_map),
                    blobs_2d)
        assert np.array_equal(params.values, before)

    @pytest.mark.parametrize("labels,num_classes", [([0, 1, 2], 3), ([-1, 1, 0], 2)])
    def test_labels_out_of_range(self, labels, num_classes):
        # a label the 2-class model has no logit for, or a negative one set
        # after the dataset checked its own
        spec = tl.ModelSpec("mlp", (2,), 2, hidden=())
        params = tl.init_params(spec, 0)
        data = tl.LabeledDataset(np.ones((3, 2)), np.abs(labels), num_classes)
        data.labels = np.array(labels)
        with pytest.raises(ValueError, match="labels out of range"):
            tl.evaluate(spec, params, tl.SparsityMask.ones(params.layer_map), data)

    def test_empty_dataset_rejected(self, blob_mlp_spec):
        params = tl.init_params(blob_mlp_spec, 0)
        mask = tl.SparsityMask.ones(params.layer_map)
        empty = tl.LabeledDataset(np.ones((1, 2)), np.zeros(1, dtype=int), 2)
        empty.examples = empty.examples[:0]
        empty.labels = empty.labels[:0]
        with pytest.raises(ValueError):
            tl.evaluate(blob_mlp_spec, params, mask, empty)

    def test_convnet_memory_does_not_grow_with_the_chunk(self):
        # the desk ConvNet on 512 examples: the chain runs on 64-example
        # blocks, so the temporaries are one block's (all 512 at once peaked
        # at 4.25 MB)
        spec = tl.ModelSpec("convnet", (1, 8, 8), 4, channels=(6,))
        data = tl.synth_dataset("gaussianBlobs", 4, 128, 0.8, seed=0, input_shape=(1, 8, 8))
        params = tl.init_params(spec, 0)
        mask = tl.SparsityMask.ones(params.layer_map)
        tracemalloc.start()
        try:
            tl.evaluate(spec, params, mask, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.size == 512 and peak < 2_000_000


def test_reference_loss_matches_internal(tiny_mlp_spec):
    params = tl.init_params(tiny_mlp_spec, 0)
    mask = tl.SparsityMask.ones(params.layer_map)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 5))
    y = rng.integers(0, 3, 8)
    data = tl.LabeledDataset(x, y, 3)
    _, internal = tl.evaluate(tiny_mlp_spec, params, mask, data)
    assert np.isclose(internal, reference_loss(tiny_mlp_spec, params, mask, x, y))
