import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ticketlab as tl
from ticketlab import autodiff as ad
from ticketlab import nn
from conftest import finite_difference_gradient, max_relative_error, reference_loss


def ones_mask(params):
    return tl.SparsityMask.ones(params.layer_map)


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
        out, snaps = tl.train_with_snapshots(blob_mlp_spec, params, mask,
                                             blobs_2d, self.cfg(epochs=3), (1, 2))
        assert set(snaps) == {0, 1, 2}
        assert np.array_equal(snaps[0].values, params.values)
        # epoch snapshots are intermediate, not the final weights
        assert not np.array_equal(snaps[1].values, out.values)

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
        ("milestones", (1.5,)), ("milestones", (True,)), ("milestones", (-1,))])
    def test_non_integer_fields_rejected(self, field, value):
        # a milestone of 1.5 never equals an epoch, so its decay would never fire
        with pytest.raises(ValueError, match="integer"):
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
        with np.errstate(all="ignore"), pytest.raises(tl.TrainingDiverged) as info:
            tl.train(blob_mlp_spec, params, ones_mask(params), data, cfg)
        assert info.value.loss is None and np.isfinite(info.value.last_finite_loss)
        assert str(info.value).startswith("non-finite parameters at epoch 0, batch 0")

    def test_divergence_reports_decayed_rate_and_last_finite_loss(self, blob_mlp_spec,
                                                                  blobs_2d):
        params = tl.init_params(blob_mlp_spec, 0)
        cfg = self.cfg(epochs=3, learning_rate=1e8, milestones=(1,), gamma=0.5)
        with np.errstate(all="ignore"), pytest.raises(tl.TrainingDiverged) as info:
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


def test_segment_round_trip(tiny_conv_spec):
    params = tl.init_params(tiny_conv_spec, 0)
    rebuilt = np.concatenate([params.segment(e.name, e.kind)
                              for e in params.layer_map])
    assert np.array_equal(rebuilt, params.values)


def test_reference_loss_matches_internal(tiny_mlp_spec):
    params = tl.init_params(tiny_mlp_spec, 0)
    mask = tl.SparsityMask.ones(params.layer_map)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 5))
    y = rng.integers(0, 3, 8)
    data = tl.LabeledDataset(x, y, 3)
    _, internal = tl.evaluate(tiny_mlp_spec, params, mask, data)
    assert np.isclose(internal, reference_loss(tiny_mlp_spec, params, mask, x, y))
