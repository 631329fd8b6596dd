import numpy as np
import pytest

import ticketlab as tl
from ticketlab.analysis import InterpolationCurve
from ticketlab.nn import LayerEntry, ParameterVector


@pytest.fixture
def setup():
    data = tl.synth_dataset("gaussianBlobs", 2, 80, 0.6, seed=0)
    test = tl.synth_dataset("gaussianBlobs", 2, 40, 0.6, seed=100)
    spec = tl.ModelSpec("mlp", (2,), 2, hidden=(12,))
    theta = tl.init_params(spec, 0)
    params = tl.init_params(spec, 0)
    mask = tl.magnitude_prune(params, tl.SparsityMask.ones(params.layer_map), 0.3)
    cfg = tl.TrainConfig(epochs=3, learning_rate=0.1, momentum=0.9, batch_size=32)
    return spec, theta, mask, data, test, cfg


class TestTrainTwin:
    def test_same_seed_twins_identical(self, setup):
        spec, theta, mask, data, _, cfg = setup
        a, b = tl.train_twin(spec, theta, mask, data, cfg, 5, 5)
        assert np.array_equal(a.values, b.values)

    def test_distinct_seeds_differ(self, setup):
        spec, theta, mask, data, _, cfg = setup
        a, b = tl.train_twin(spec, theta, mask, data, cfg, 5, 6)
        assert not np.array_equal(a.values, b.values)

    def test_twins_respect_mask(self, setup):
        spec, theta, mask, data, _, cfg = setup
        a, b = tl.train_twin(spec, theta, mask, data, cfg, 1, 2)
        dead = mask.bits == 0.0
        assert np.all(a.values[dead] == 0.0)
        assert np.all(b.values[dead] == 0.0)


class TestInterpolation:
    def test_endpoints_match_direct_evaluation(self, setup):
        spec, theta, mask, data, test, cfg = setup
        a, b = tl.train_twin(spec, theta, mask, data, cfg, 1, 2)
        curve = tl.interpolate_curve(spec, a, b, mask, test, 9)
        acc_a, loss_a = tl.evaluate(spec, tl.apply_mask(a, mask), mask, test)
        acc_b, loss_b = tl.evaluate(spec, tl.apply_mask(b, mask), mask, test)
        assert curve.accuracies[0] == acc_a and curve.accuracies[-1] == acc_b
        assert abs(curve.losses[0] - loss_a) <= 1e-12
        assert abs(curve.losses[-1] - loss_b) <= 1e-12

    def test_identical_endpoints_give_constant_curve(self, setup):
        spec, theta, mask, data, test, cfg = setup
        a, _ = tl.train_twin(spec, theta, mask, data, cfg, 1, 1)
        curve = tl.interpolate_curve(spec, a, a, mask, test, 7)
        assert np.all(curve.accuracies == curve.accuracies[0])
        assert np.allclose(curve.losses, curve.losses[0])

    def test_mask_closure_along_path(self, setup):
        spec, theta, mask, data, _, cfg = setup
        a, b = tl.train_twin(spec, theta, mask, data, cfg, 1, 2)
        for alpha in (0.25, 0.5, 0.75):
            blended = (1 - alpha) * a.values + alpha * b.values
            assert np.all(blended[mask.bits == 0.0] == 0.0)

    def test_needs_two_points(self, setup):
        spec, theta, mask, data, test, cfg = setup
        with pytest.raises(ValueError):
            tl.interpolate_curve(spec, theta, theta, mask, test, 1)

    @pytest.mark.parametrize("num_points", [2.5, True])
    def test_num_points_must_be_an_integer(self, setup, num_points):
        spec, theta, mask, data, test, cfg = setup
        with pytest.raises(ValueError, match="num_points must be an integer >= 2"):
            tl.interpolate_curve(spec, theta, theta, mask, test, num_points)

    def test_theta_b_of_another_model_of_the_same_length_rejected(self):
        # both models have 10 parameters, laid out differently
        spec = tl.ModelSpec("mlp", (1,), 2, hidden=(2,))
        theta_a = tl.init_params(spec, 0)
        theta_b = tl.init_params(tl.ModelSpec("mlp", (1,), 4, hidden=(1,)), 0)
        test = tl.LabeledDataset(np.array([[-1.0], [1.0]]), np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="theta_b"):
            tl.interpolate_curve(spec, theta_a, theta_b,
                                 tl.SparsityMask.ones(theta_a.layer_map), test, 3)

    def test_alpha_grid_validation(self):
        with pytest.raises(ValueError):
            InterpolationCurve(np.array([0.0, 0.5]), np.zeros(2), np.zeros(2), 0.5)


class TestInstability:
    def curve(self, accs):
        n = len(accs)
        return InterpolationCurve(np.linspace(0, 1, n), np.array(accs),
                                  np.zeros(n), 0.5)

    def test_constant_curve_is_stable(self):
        rep = tl.instability(self.curve([0.9, 0.9, 0.9]))
        assert rep.error_barrier == 0.0 and rep.stable

    def test_hand_arithmetic(self):
        rep = tl.instability(self.curve([0.9, 0.5, 0.9]))
        assert rep.error_barrier == pytest.approx(0.4)
        assert not rep.stable

    def test_interior_above_endpoints_gives_zero_barrier(self):
        # the max over alpha includes the endpoints, so a better interior
        # cannot push the barrier below the endpoint spread
        rep = tl.instability(self.curve([0.8, 0.95, 0.8]))
        assert rep.error_barrier == pytest.approx(0.0)
        mid = tl.instability(self.curve([0.8, 0.9, 1.0]))
        assert mid.error_barrier == pytest.approx(0.1)

    def test_same_seed_twins_give_zero_barrier(self, setup):
        spec, theta, mask, data, test, cfg = setup
        a, b = tl.train_twin(spec, theta, mask, data, cfg, 3, 3)
        curve = tl.interpolate_curve(spec, a, b, mask, test, 11)
        assert tl.instability(curve).error_barrier == 0.0

    def test_threshold_flag(self):
        rep = tl.instability(self.curve([0.9, 0.885, 0.9]), threshold=0.02)
        assert rep.stable
        rep = tl.instability(self.curve([0.9, 0.85, 0.9]), threshold=0.02)
        assert not rep.stable


class TestWeightHistogram:
    def test_all_ones_mask_full_distribution(self, setup):
        spec, theta, _, _, _, _ = setup
        ones = tl.SparsityMask.ones(theta.layer_map)
        hist = tl.weight_histogram(theta, ones, "fc1", 10)
        entry = [e for e in theta.layer_map
                 if e.name == "fc1" and e.kind == "weight"][0]
        assert hist.counts.sum() == entry.length
        assert hist.sparsity == 0.0

    def test_counts_sum_to_survivors(self, setup):
        spec, theta, mask, _, _, _ = setup
        hist = tl.weight_histogram(theta, mask, "fc1", 16)
        entry = [e for e in theta.layer_map
                 if e.name == "fc1" and e.kind == "weight"][0]
        survivors = int(mask.bits[entry.offset:entry.offset + entry.length].sum())
        assert hist.counts.sum() == survivors

    def test_edges_symmetric(self, setup):
        spec, theta, mask, _, _, _ = setup
        hist = tl.weight_histogram(theta, mask, "fc2", 8)
        assert hist.bin_edges[0] == -hist.bin_edges[-1]

    def test_fully_pruned_layer_flagged(self, setup):
        spec, theta, _, _, _, _ = setup
        mask = tl.SparsityMask.ones(theta.layer_map)
        entry = [e for e in theta.layer_map
                 if e.name == "fc1" and e.kind == "weight"][0]
        mask.bits[entry.offset:entry.offset + entry.length] = 0.0
        hist = tl.weight_histogram(theta, mask, "fc1", 8)
        assert hist.counts.sum() == 0 and hist.sparsity == 1.0

    def test_unknown_layer(self, setup):
        spec, theta, mask, _, _, _ = setup
        with pytest.raises(KeyError):
            tl.weight_histogram(theta, mask, "nope", 8)

    @pytest.mark.parametrize("num_bins", [0, -1, True, 2.5])
    def test_fewer_than_one_bin_rejected(self, setup, num_bins):
        spec, theta, mask, _, _, _ = setup
        with pytest.raises(ValueError, match="num_bins must be an integer >= 1"):
            tl.weight_histogram(theta, mask, "fc1", num_bins)


@pytest.mark.parametrize("analyse", [
    lambda theta, mask: tl.weight_histogram(theta, mask, "fc1", 4),
    tl.survivor_magnitude_ratio], ids=["weight_histogram", "survivor_magnitude_ratio"])
def test_mask_of_another_model_of_the_same_length_rejected(foreign_mask, analyse):
    with pytest.raises(ValueError, match="does not match the parameters' layer map"):
        analyse(*foreign_mask)


class TestSurvivorMagnitudeRatio:
    def big_params(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(20_000)
        lm = (LayerEntry("w", 0, 20_000, "weight"),)
        return ParameterVector(values, lm)

    def test_random_mask_ratio_near_one(self):
        params = self.big_params()
        mask = tl.random_prune(tl.SparsityMask.ones(params.layer_map), 0.5, seed=1)
        assert abs(tl.survivor_magnitude_ratio(params, mask) - 1.0) < 0.1

    def test_magnitude_mask_ratio_above_one(self):
        params = self.big_params()
        mask = tl.magnitude_prune(params, tl.SparsityMask.ones(params.layer_map),
                                  0.5)
        assert tl.survivor_magnitude_ratio(params, mask) > 1.0

    def test_degenerate_mask_rejected(self):
        params = self.big_params()
        with pytest.raises(ValueError):
            tl.survivor_magnitude_ratio(params,
                                        tl.SparsityMask.ones(params.layer_map))

    def test_pruned_mean_of_zero_rejected(self):
        # the weights of a masked network are 0 wherever the mask is
        params = self.big_params()
        mask = tl.random_prune(tl.SparsityMask.ones(params.layer_map), 0.5, seed=1)
        with pytest.raises(ValueError, match="mean \\|init\\| 0"):
            tl.survivor_magnitude_ratio(tl.apply_mask(params, mask), mask)
