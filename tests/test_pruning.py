import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ticketlab as tl
from ticketlab.nn import LayerEntry, ParameterVector


def flat_model(values, bias_tail=0):
    """Single-layer model: one weight segment plus an optional bias tail."""
    values = np.asarray(values, dtype=np.float64)
    entries = [LayerEntry("layer", 0, values.size, "weight")]
    if bias_tail:
        entries.append(LayerEntry("layer", values.size, bias_tail, "bias"))
        values = np.concatenate([values, np.zeros(bias_tail)])
    return ParameterVector(values, tuple(entries))


def two_layer_model(a_vals, b_vals):
    a = np.asarray(a_vals, dtype=np.float64)
    b = np.asarray(b_vals, dtype=np.float64)
    entries = (LayerEntry("A", 0, a.size, "weight"),
               LayerEntry("B", a.size, b.size, "weight"))
    return ParameterVector(np.concatenate([a, b]), entries)


def brute_force_magnitude_prune(params, mask, amount):
    """Independent oracle: full sort of (|value|, flat index) over survivors."""
    sel = mask.prunable_selector()
    survivors = np.flatnonzero(sel & (mask.bits == 1.0))
    n_prune = int(np.floor(amount * survivors.size))
    ranked = sorted(survivors, key=lambda i: (abs(params.values[i]), i))
    out = mask.copy()
    for i in ranked[:n_prune]:
        out.bits[i] = 0.0
    return out


class TestMaskLayerMap:
    @pytest.mark.parametrize("entries", [
        ((0, 4), (2, 2)),      # overlapping, yet the lengths add up to 6
        ((0, 2), (3, 4)),      # a gap
        ((0, 2), (2, 3)),      # short of the bits
        ((0, 6.0),),           # not an integer length
    ])
    def test_map_must_tile_the_bits(self, entries):
        layer_map = tuple(LayerEntry(f"l{i}", off, n, "weight")
                          for i, (off, n) in enumerate(entries))
        with pytest.raises(ValueError, match="layer map"):
            tl.SparsityMask(np.ones(6), layer_map)
        with pytest.raises(ValueError, match="layer map"):
            ParameterVector(np.zeros(6), layer_map)


@pytest.mark.parametrize("bad", [0.5, -1.0, np.nan])
def test_mask_entries_must_be_zero_or_one(bad):
    bits = np.ones(6)
    bits[2] = bad
    with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
        tl.SparsityMask(bits, (LayerEntry("layer", 0, 6, "weight"),))


class TestSparsity:
    def test_all_ones_is_zero(self):
        params = flat_model(np.ones(10))
        assert tl.sparsity(tl.SparsityMask.ones(params.layer_map)) == 0.0

    def test_four_of_ten(self):
        params = flat_model(np.ones(10))
        mask = tl.SparsityMask.ones(params.layer_map)
        mask.bits[:4] = 0.0
        assert tl.sparsity(mask) == 0.4

    def test_iterated_twenty_percent_schedule(self):
        params = flat_model(np.random.default_rng(0).standard_normal(1000))
        mask = tl.SparsityMask.ones(params.layer_map)
        for k in range(1, 4):
            mask = tl.magnitude_prune(params, mask, 0.2)
        assert tl.sparsity(mask) == pytest.approx(1 - 0.8 ** 3, abs=3 / 1000)
        assert tl.sparsity(mask) == pytest.approx(0.488, abs=0.003)

    def test_mask_without_weights_has_no_sparsity(self):
        mask = tl.SparsityMask.ones((LayerEntry("layer", 0, 3, "bias"),))
        with pytest.raises(ValueError, match="no prunable positions"):
            tl.sparsity(mask)

    def test_biases_excluded_from_accounting(self):
        params = flat_model(np.ones(10), bias_tail=5)
        mask = tl.SparsityMask.ones(params.layer_map)
        mask.bits[:5] = 0.0
        assert tl.sparsity(mask) == 0.5
        assert tl.whole_vector_sparsity(mask) == 5 / 15


class TestMagnitudePrune:
    def test_spec_example_four_weights(self):
        params = flat_model([0.5, -0.1, 0.3, -0.7])
        mask = tl.SparsityMask.ones(params.layer_map)
        out = tl.magnitude_prune(params, mask, 0.5)
        assert list(out.bits) == [1, 0, 0, 1]

    def test_floor_to_zero_keeps_mask(self):
        params = flat_model([0.5, 0.1, 0.3, 0.7])
        mask = tl.SparsityMask.ones(params.layer_map)
        mask.bits[1:] = 0.0  # one survivor
        out = tl.magnitude_prune(params, mask, 0.2)
        assert np.array_equal(out.bits, mask.bits)

    def test_tie_break_lowest_flat_index(self):
        params = flat_model([0.5, 0.5, 0.5, 0.5])
        mask = tl.SparsityMask.ones(params.layer_map)
        out = tl.magnitude_prune(params, mask, 0.5)
        assert list(out.bits) == [0, 0, 1, 1]

    def test_amount_out_of_range(self):
        params = flat_model([1.0, 2.0])
        mask = tl.SparsityMask.ones(params.layer_map)
        for amount in (0.0, 1.0, -0.2, 1.5, None, "0.5", True):
            with pytest.raises(ValueError):
                tl.magnitude_prune(params, mask, amount)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_params_rejected(self, bad):
        params = flat_model([1.0, bad, 3.0, 4.0])
        with pytest.raises(ValueError, match="finite"):
            tl.magnitude_prune(params, tl.SparsityMask.ones(params.layer_map), 0.5)

    def test_layerwise_floor_per_layer(self):
        params = two_layer_model([0.1, 0.2, 0.3, 0.4], [10.0, 20.0])
        mask = tl.SparsityMask.ones(params.layer_map)
        out = tl.magnitude_prune(params, mask, 0.5, "layerwise")
        # layer A loses 2 (the two smallest), layer B loses 1
        assert list(out.bits) == [0, 0, 1, 1, 0, 1]

    def test_global_pools_across_layers(self):
        params = two_layer_model([0.1, 0.2, 0.3, 0.4], [10.0, 20.0])
        mask = tl.SparsityMask.ones(params.layer_map)
        out = tl.magnitude_prune(params, mask, 0.5, "global")
        # global ranking prunes the three smallest, all in layer A
        assert list(out.bits) == [0, 0, 0, 1, 1, 1]

    def test_never_revives(self):
        rng = np.random.default_rng(0)
        params = flat_model(rng.standard_normal(50))
        mask = tl.SparsityMask.ones(params.layer_map)
        for _ in range(6):
            out = tl.magnitude_prune(params, mask, 0.3)
            assert np.all(out.bits <= mask.bits)
            mask = out


class TestRandomPrune:
    def test_deterministic_for_seed(self):
        params = flat_model(np.ones(20))
        mask = tl.SparsityMask.ones(params.layer_map)
        a = tl.random_prune(mask, 0.4, seed=7)
        b = tl.random_prune(mask, 0.4, seed=7)
        assert np.array_equal(a.bits, b.bits)
        c = tl.random_prune(mask, 0.4, seed=8)
        assert not np.array_equal(a.bits, c.bits)

    def test_count_contract(self):
        params = flat_model(np.ones(4))
        mask = tl.SparsityMask.ones(params.layer_map)
        out = tl.random_prune(mask, 0.5, seed=0)
        assert (out.bits == 0.0).sum() == 2

    def test_uniformity_monte_carlo(self):
        params = flat_model(np.ones(10))
        mask = tl.SparsityMask.ones(params.layer_map)
        hits = np.zeros(10)
        trials = 10_000
        for seed in range(trials):
            out = tl.random_prune(mask, 0.5, seed=seed)
            hits += out.bits == 0.0
        freq = hits / trials
        assert np.all(np.abs(freq - 0.5) < 0.05)

    def test_same_count_as_magnitude(self):
        rng = np.random.default_rng(1)
        params = flat_model(rng.standard_normal(37))
        mask = tl.SparsityMask.ones(params.layer_map)
        mask.bits[rng.choice(37, 9, replace=False)] = 0.0
        mag = tl.magnitude_prune(params, mask, 0.31)
        rnd = tl.random_prune(mask, 0.31, seed=0)
        assert (mag.bits == 0).sum() == (rnd.bits == 0).sum()


def _reference_random_prune(mask, amount, seed, scope):
    """random_prune as first written: a fresh draw of keys per candidate pool
    (one pool in global mode, one per prunable layer in layerwise mode)."""
    rng = np.random.default_rng(seed)
    out = mask.copy()
    if scope == "global":
        pools = [np.flatnonzero(mask.prunable_selector(scope) & (mask.bits == 1.0))]
    else:
        pools = []
        for e in mask.layer_map:
            if e.kind == "weight":
                span = np.arange(e.offset, e.offset + e.length)
                pools.append(span[mask.bits[span] == 1.0])
    for cand in pools:
        if cand.size:
            key = rng.random(cand.size)
            n_prune = int(np.floor(amount * cand.size))
            out.bits[cand[np.argsort(key, kind="stable")][:n_prune]] = 0.0
    return out


class TestRandomPruneOracle:
    """One key per surviving prunable position, drawn in flat order, ranks
    each pool exactly as a fresh draw per pool did: the pools sit in flat
    order, and consecutive draws from one generator chain."""

    @staticmethod
    def mask_with_bias_tails(dead_fraction, seed):
        sizes = (("A", 13, 3), ("B", 17, 2), ("C", 6, 4))
        entries, offset = [], 0
        for name, nw, nb in sizes:
            entries += [LayerEntry(name, offset, nw, "weight"),
                        LayerEntry(name, offset + nw, nb, "bias")]
            offset += nw + nb
        mask = tl.SparsityMask.ones(tuple(entries))
        rng = np.random.default_rng(seed + 100)
        for e in entries[0::2]:
            mask.bits[e.offset + np.flatnonzero(rng.random(e.length) < dead_fraction)] = 0.0
        return mask

    @pytest.mark.parametrize("scope", ["global", "layerwise"])
    @pytest.mark.parametrize("amount", [0.2, 0.5])
    @pytest.mark.parametrize("dead_fraction", [0.0, 0.4])
    def test_matches_reference(self, scope, amount, dead_fraction):
        for seed in (0, 1, 7, 12345):
            mask = self.mask_with_bias_tails(dead_fraction, seed)
            got = tl.random_prune(mask, amount, seed, scope)
            want = _reference_random_prune(mask, amount, seed, scope)
            assert got.bits.tobytes() == want.bits.tobytes()

    @pytest.mark.parametrize("scope", ["global", "layerwise"])
    def test_fully_pruned_layer_draws_nothing(self, scope):
        mask = self.mask_with_bias_tails(0.3, 5)
        mask.bits[16:33] = 0.0  # every weight of layer B
        for seed in (2, 9):
            got = tl.random_prune(mask, 0.5, seed, scope)
            assert got.bits.tobytes() == _reference_random_prune(
                mask, 0.5, seed, scope).bits.tobytes()


class TestApplyMask:
    def test_identity(self):
        params = flat_model([1.0, -2.0, 3.0])
        mask = tl.SparsityMask.ones(params.layer_map)
        assert np.array_equal(tl.apply_mask(params, mask).values, params.values)

    def test_idempotent(self):
        params = flat_model([2.0, -3.0, 4.0, 5.0])
        mask = tl.SparsityMask.ones(params.layer_map)
        mask.bits[0] = 0.0
        once = tl.apply_mask(params, mask)
        twice = tl.apply_mask(once, mask)
        assert np.array_equal(once.values, twice.values)

    def test_elementwise(self):
        params = flat_model([2.0, -3.0])
        mask = tl.SparsityMask(np.array([0.0, 1.0]), params.layer_map)
        assert list(tl.apply_mask(params, mask).values) == [0.0, -3.0]

    def test_length_mismatch(self):
        params = flat_model([1.0, 2.0])
        other = flat_model([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            tl.apply_mask(params, tl.SparsityMask.ones(other.layer_map))


@pytest.mark.parametrize("prune", [tl.apply_mask,
                                   lambda params, mask: tl.magnitude_prune(params, mask, 0.5)],
                         ids=["apply_mask", "magnitude_prune"])
def test_mask_of_another_model_of_the_same_length_rejected(foreign_mask, prune):
    with pytest.raises(ValueError, match="does not match the parameters' layer map"):
        prune(*foreign_mask)


class TestScope:
    # sha256 of the bits, as float64 0.0/1.0, after three 30% rounds of each
    # pruner (random seeds 0, 1, 2) on init_params(SPEC, 7), pinned so that how
    # a scope is passed or checked cannot move a bit of either pool choice
    SPEC = tl.ModelSpec("mlp", (4,), 3, hidden=(8, 6))
    DIGESTS = {
        "global": ("05f5886032ac95f23060cc80ff70048133edf0543040a12e177b3cfefab745aa",
                   "bbc42d573754139d0c314269cc4a22ad6632b1ff314dac5ba3be1429d248aeca"),
        "layerwise": ("57d78377cf111999ff38a19045f05f3f9614f941c56984a09ec640676af858de",
                      "8490b83c039cc85f79b7d24590ee09fdeb4f1ba198a178f4953e29312a67aa88"),
    }

    @pytest.mark.parametrize("scope", ["global", "layerwise"])
    def test_scope_string_keeps_the_bits(self, scope):
        params = tl.init_params(self.SPEC, 7)
        by_magnitude = at_random = tl.SparsityMask.ones(params.layer_map)
        for seed in range(3):
            by_magnitude = tl.magnitude_prune(params, by_magnitude, 0.3, scope)
            at_random = tl.random_prune(at_random, 0.3, seed, scope)
        assert tuple(hashlib.sha256(m.bits.astype(np.float64).tobytes()).hexdigest()
                     for m in (by_magnitude, at_random)) == self.DIGESTS[scope]

    @pytest.mark.parametrize("scope", ["x", "Global", None])
    def test_unknown_scope_rejected(self, scope):
        params = flat_model([1.0, 2.0])
        mask = tl.SparsityMask.ones(params.layer_map)
        match = "^scope must be one of global, layerwise$"
        with pytest.raises(ValueError, match=match):
            tl.magnitude_prune(params, mask, 0.5, scope)
        with pytest.raises(ValueError, match=match):
            tl.random_prune(mask, 0.5, 0, scope)

    def test_amount_message_alone_when_scope_is_known(self):
        params = flat_model([1.0, 2.0])
        mask = tl.SparsityMask.ones(params.layer_map)
        with pytest.raises(ValueError, match=r"^amount must be in \(0, 1\)$"):
            tl.magnitude_prune(params, mask, 1.5, "layerwise")
        with pytest.raises(ValueError, match="amount must be in .*; scope must be one of"):
            tl.random_prune(mask, 1.5, 0, "x")


class TestLayerStats:
    def test_all_ones(self):
        params = two_layer_model([1.0] * 4, [1.0] * 2)
        stats = tl.mask_layer_stats(tl.SparsityMask.ones(params.layer_map))
        assert [s[1] for s in stats] == [0.0, 0.0]

    def test_single_layer_equals_global(self):
        rng = np.random.default_rng(2)
        params = flat_model(rng.standard_normal(30))
        mask = tl.magnitude_prune(params, tl.SparsityMask.ones(params.layer_map), 0.4)
        stats = tl.mask_layer_stats(mask)
        assert stats[0][1] == tl.sparsity(mask)

    def test_hand_built_two_layers(self):
        params = two_layer_model([1.0] * 4, [1.0] * 2)
        mask = tl.SparsityMask.ones(params.layer_map)
        mask.bits[[0, 1, 4]] = 0.0  # layer A: 2/4, layer B: 1/2
        stats = tl.mask_layer_stats(mask)
        assert stats == [("A", 0.5, 2), ("B", 0.5, 1)]
        assert tl.sparsity(mask) == 0.5

    def test_biases_have_no_row(self):
        # the desk ConvNet: conv1 (54 weights, 6 biases) and fc (384 weights, 4 biases)
        spec = tl.ModelSpec("convnet", (1, 8, 8), 4, channels=(6,))
        mask = tl.SparsityMask.ones(spec.layer_map())
        mask.bits[[54, 59, 444, 447]] = False  # two biases of each layer
        assert tl.mask_layer_stats(mask) == [("conv1", 0.0, 54), ("fc", 0.0, 384)]

    def test_weighted_mean_matches_global(self):
        rng = np.random.default_rng(3)
        params = two_layer_model(rng.standard_normal(41), rng.standard_normal(17))
        mask = tl.SparsityMask.ones(params.layer_map)
        mask.bits[rng.choice(58, 23, replace=False)] = 0.0
        stats = tl.mask_layer_stats(mask)
        counts = [e.length for e in mask.layer_map]
        weighted = sum(s * c for (_, s, _), c in zip(stats, counts)) / sum(counts)
        assert abs(weighted - tl.sparsity(mask)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_global_magnitude_matches_brute_force_oracle(data):
    n = data.draw(st.integers(2, 200))
    # coarse grid values force plenty of magnitude ties
    vals = np.array(data.draw(st.lists(
        st.integers(-4, 4), min_size=n, max_size=n))) / 4.0
    params = flat_model(vals)
    mask = tl.SparsityMask.ones(params.layer_map)
    dead = data.draw(st.lists(st.integers(0, n - 1), max_size=n // 2, unique=True))
    mask.bits[dead] = 0.0
    amount = data.draw(st.floats(0.05, 0.95))
    expected = brute_force_magnitude_prune(params, mask, amount)
    actual = tl.magnitude_prune(params, mask, amount)
    assert np.array_equal(actual.bits, expected.bits)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), amount=st.floats(0.05, 0.95),
       n=st.integers(2, 120))
def test_prune_invariants(seed, amount, n):
    rng = np.random.default_rng(seed)
    params = flat_model(rng.standard_normal(n), bias_tail=3)
    mask = tl.SparsityMask.ones(params.layer_map)
    mask.bits[rng.random(n + 3) < 0.3] = 0.0
    mask.bits[n:] = 1.0  # biases stay up
    for out in (tl.magnitude_prune(params, mask, amount),
                tl.random_prune(mask, amount, seed)):
        # monotone, exact count, biases untouched
        assert np.all(out.bits <= mask.bits)
        survivors_in = int(mask.bits[:n].sum())
        expected = survivors_in - int(np.floor(amount * survivors_in))
        assert int(out.bits[:n].sum()) == expected
        assert np.all(out.bits[n:] == 1.0)
