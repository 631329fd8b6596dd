import numpy as np
import pytest

import ticketlab as tl
from ticketlab import autodiff as ad
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


class TestChainOracle:
    @pytest.mark.parametrize("spec", CHAIN_SPECS,
                             ids=lambda s: f"{s.architecture}{s.hidden or s.channels}")
    @pytest.mark.parametrize("seed", range(2))
    def test_backward_matches_tape(self, spec, seed):
        params = tl.init_params(spec, seed)
        rng = np.random.default_rng(seed)
        params.values += 0.1 * rng.standard_normal(len(params))
        mask = ones_mask(params)
        mask.bits[rng.random(len(params)) < 0.3] = 0.0
        x = rng.standard_normal((7,) + spec.input_shape)
        y = rng.integers(0, spec.num_classes, 7)
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
