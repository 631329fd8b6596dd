"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk-scale comparison (criteria 5, 6, 8) runs once per session on a
2,000-example image-blob fixture with a small ConvNet, seeds 0-2, and is
shared across the criteria that consume it.
"""

import struct

import numpy as np
import pytest

import ticketlab as tl
from ticketlab import cli
from conftest import finite_difference_gradient, max_relative_error


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# ---------------------------------------------------------------------------
# Desk-scale fixture: 4-class image blobs, 2,000 train / 500 test examples

DESK_SEEDS = (0, 1, 2)


def desk_train_config(batch_size=64):
    return tl.TrainConfig(epochs=4, learning_rate=0.1, momentum=0.9,
                          batch_size=batch_size)


@pytest.fixture(scope="module")
def desk():
    train = tl.synth_dataset("gaussianBlobs", 4, 500, 0.8, seed=0,
                             input_shape=(1, 8, 8))
    test = tl.synth_dataset("gaussianBlobs", 4, 125, 0.8, seed=10_000,
                            input_shape=(1, 8, 8))
    spec = tl.ModelSpec("convnet", (1, 8, 8), 4, channels=(6,))
    tc = desk_train_config()
    cfg_deep = tl.PruneRunConfig(
        desired_sparsity=0.90, amount=0.2, mask_train_epochs=4,
        finetune_epochs=4, train_config_mask=tc, train_config_finetune=tc)
    cfg_half = tl.PruneRunConfig(
        desired_sparsity=0.48, amount=0.2, mask_train_epochs=4,
        finetune_epochs=4, train_config_mask=desk_train_config(batch_size=16),
        train_config_finetune=tc)

    out = {"spec": spec, "train": train, "test": test, "cfg_deep": cfg_deep,
           "cfg_half": cfg_half, "runs": []}
    for seed in DESK_SEEDS:
        theta = tl.init_params(spec, seed)
        ones = tl.SparsityMask.ones(theta.layer_map)
        dense = tl.train(spec, theta, ones, train, tc)
        dense_acc, _ = tl.evaluate(spec, dense, ones, test)
        imp = tl.imp_run(spec, theta, train, cfg_deep, eval_data=test,
                         finetune_each=True, seed=seed)
        rnd = tl.random_prune_run(spec, theta, train, cfg_deep, eval_data=test,
                                  finetune_each=True, seed=seed)
        dsyn = tl.distill_kmeans_herding(train, ipc=10, seed=seed)
        _, dist_mask, dist = tl.distilled_prune_run(
            spec, theta, dsyn, train, cfg_half, eval_data=test, seed=seed)
        out["runs"].append({
            "seed": seed, "theta": theta, "dense_acc": dense_acc, "imp": imp,
            "rnd": rnd, "dist": dist, "dist_mask": dist_mask, "dsyn": dsyn,
        })
    return out


def acc_at(record, target):
    """Finetuned accuracy at the retained iteration closest to a sparsity."""
    it = min(record.iterations, key=lambda r: abs(r.sparsity - target))
    return it.finetune_accuracy, it.sparsity


def test_criterion_1_engine_equivalence():
    data = tl.synth_dataset("gaussianBlobs", 2, 100, 0.5, seed=0)
    spec = tl.ModelSpec("mlp", (2,), 2, hidden=(32,))
    assert spec.param_count() <= 10_000
    tc = tl.TrainConfig(epochs=2, learning_rate=0.1, momentum=0.9, batch_size=32)
    cfg = tl.PruneRunConfig(desired_sparsity=0.6, amount=0.2,
                            mask_train_epochs=2, finetune_epochs=2,
                            rewind_epoch=0, train_config_mask=tc,
                            train_config_finetune=tc)
    ok = True
    for seed in range(3):
        theta = tl.init_params(spec, seed)
        imp = tl.imp_run(spec, theta, data, cfg, seed=seed)
        _, _, dist = tl.distilled_prune_run(spec, theta, data, data, cfg,
                                            seed=seed)
        ok &= len(imp.iterations) == len(dist.iterations)
        ok &= all(np.array_equal(a.mask.bits, b.mask.bits)
                  for a, b in zip(imp.iterations, dist.iterations))
    report(1, "engine equivalence (D_syn = D_real)", ok)


def test_criterion_2_sparsity_schedule(desk):
    spec = desk["spec"]
    prunable = sum(e.length for e in spec.layer_map() if e.kind == "weight")
    ok = True
    for run in desk["runs"]:
        for record in (run["imp"], run["rnd"], run["dist"]):
            for j, it in enumerate(record.iterations, start=1):
                ok &= abs(it.sparsity - (1 - 0.8 ** j)) < j / prunable
    report(2, "sparsity follows 1 - 0.8^j within floor bound", ok)


def test_criterion_3_pruning_oracle():
    from test_pruning import brute_force_magnitude_prune, flat_model
    rng = np.random.default_rng(0)
    ok = True
    for trial in range(1000):
        n = int(rng.integers(2, 1001))
        if trial % 3 == 0:
            values = rng.integers(-3, 4, n) / 3.0  # heavy ties
        else:
            values = rng.standard_normal(n)
        params = flat_model(values)
        mask = tl.SparsityMask.ones(params.layer_map)
        mask.bits[rng.random(n) < 0.25] = 0.0
        amount = float(rng.uniform(0.05, 0.95))
        expected = brute_force_magnitude_prune(params, mask, amount)
        actual = tl.magnitude_prune(params, mask, amount)
        ok &= np.array_equal(actual.bits, expected.bits)
    report(3, "global magnitude prune equals brute-force oracle", ok)


def test_criterion_4_gradient_checks():
    mlp = tl.ModelSpec("mlp", (6,), 3, hidden=(8,))
    conv = tl.ModelSpec("convnet", (1, 4, 4), 3, channels=(2,))
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for spec, shape in ((mlp, (4, 6)), (conv, (4, 1, 4, 4))):
            params = tl.init_params(spec, seed)
            mask = tl.SparsityMask.ones(params.layer_map)
            mask.bits[rng.random(len(params)) < 0.2] = 0.0
            x = rng.standard_normal(shape)
            y = rng.integers(0, 3, shape[0])
            grad = tl.backward(spec, params, mask, x, y)
            fd = finite_difference_gradient(spec, params, mask, x, y)
            ok &= max_relative_error(grad.values, fd) < 1e-4
    report(4, "analytic gradient vs central finite differences", ok)


def test_criterion_5_desk_scale_accuracy_analog(desk):
    target_half = 1 - 0.8 ** 3   # ~0.488
    dense = np.mean([r["dense_acc"] for r in desk["runs"]])
    imp_half = np.mean([acc_at(r["imp"], target_half)[0] for r in desk["runs"]])
    dist_half = np.mean([r["dist"].iterations[-1].finetune_accuracy
                         for r in desk["runs"]])
    imp_high = np.mean([acc_at(r["imp"], 0.83)[0] for r in desk["runs"]])
    rnd_high = np.mean([acc_at(r["rnd"], 0.83)[0] for r in desk["runs"]])
    a = imp_half >= dense - 0.015
    b = abs(dist_half - imp_half) <= 0.02
    c = rnd_high <= imp_high - 0.05
    print(f"  dense {dense:.3f}  imp@49 {imp_half:.3f}  dist@49 {dist_half:.3f}"
          f"  imp@83 {imp_high:.3f}  random@83 {rnd_high:.3f}")
    report("5a", "IMP at ~49% sparsity within 1.5 points of dense", a)
    report("5b", "distilled (herding ipc=10) within 2 points of IMP", b)
    report("5c", "random mask >= 5 points below IMP at >= 80% sparsity", c)


def test_criterion_6_time_to_mask_analog(desk):
    target_half = 1 - 0.8 ** 3
    ok = True
    for run in desk["runs"]:
        # budget precondition: |D_syn| * t <= |D_real| * n / 5
        t = desk["cfg_half"].mask_train_epochs
        n = desk["cfg_deep"].finetune_epochs
        assert run["dsyn"].size * t <= desk["train"].size * n / 5
        # IMP mask time through the matched-sparsity iteration
        imp_secs = sum(it.mask_phase_seconds for it in run["imp"].iterations
                       if it.sparsity <= target_half + 1e-9)
        dist_secs = tl.time_to_mask(run["dist"], False)
        dist_total = tl.time_to_mask(run["dist"], True)
        ratio = imp_secs / dist_secs
        print(f"  seed {run['seed']}: IMP {imp_secs:.3f}s vs distilled "
              f"{dist_secs:.3f}s (with retrain {dist_total:.3f}s), "
              f"ratio {ratio:.1f}x")
        ok &= ratio >= 3.0
    report(6, "distilled time-to-mask <= 1/3 of IMP at matched sparsity", ok)


def test_criterion_7_lmc_properties(desk, tmp_path):
    spec = desk["spec"]
    train, test = desk["train"], desk["test"]
    run = desk["runs"][0]
    mask = run["dist_mask"]
    tc = desk_train_config()
    # same-seed twins: identical path, exactly zero barrier
    a, b = tl.train_twin(spec, run["theta"], mask, train, tc, 7, 7)
    same = tl.interpolate_curve(spec, a, b, mask, test, 11)
    zero_barrier = tl.instability(same).error_barrier == 0.0
    # endpoint exactness against direct evaluation
    a, b = tl.train_twin(spec, run["theta"], mask, train, tc, 1, 2)
    curve = tl.interpolate_curve(spec, a, b, mask, test, 21)
    _, loss_a = tl.evaluate(spec, tl.apply_mask(a, mask), mask, test)
    _, loss_b = tl.evaluate(spec, tl.apply_mask(b, mask), mask, test)
    endpoints = (abs(curve.losses[0] - loss_a) <= 1e-12
                 and abs(curve.losses[-1] - loss_b) <= 1e-12)
    # distinct-seed barrier: recorded, finite, threshold-flagged, not asserted
    rows = [(al, acc, loss, curve.mask_sparsity, 1, 2)
            for al, acc, loss in zip(curve.alphas, curve.accuracies, curve.losses)]
    path = tmp_path / "lmc.csv"
    cli.atomic_write_text(str(path), cli.csv_text(cli.LMC_HEADER, rows))
    rep = tl.instability(curve, threshold=0.02)
    recorded = path.exists() and np.isfinite(rep.error_barrier)
    print(f"  distilled-mask barrier {rep.error_barrier:+.4f} "
          f"(stable@0.02: {rep.stable}) at sparsity {curve.mask_sparsity:.3f}")
    report(7, "LMC endpoints exact, same-seed barrier 0, barrier recorded",
           zero_barrier and endpoints and recorded)


def test_criterion_8_init_weight_distribution(desk):
    ok = True
    rnd_ratios = []
    for run in desk["runs"]:
        imp_ratio = tl.survivor_magnitude_ratio(run["theta"],
                                                run["imp"].final_mask)
        # random mask at moderate sparsity: magnitude-blind, ratio near 1
        target_half = 1 - 0.8 ** 3
        rnd_it = min(run["rnd"].iterations,
                     key=lambda r: abs(r.sparsity - target_half))
        rnd_ratio = tl.survivor_magnitude_ratio(run["theta"], rnd_it.mask)
        rnd_ratios.append(rnd_ratio)
        print(f"  seed {run['seed']}: IMP@{run['imp'].final_sparsity:.2f} ratio "
              f"{imp_ratio:.2f}, random ratio {rnd_ratio:.2f}")
        ok &= imp_ratio > 1.0
    # a single 438-weight mask carries ~8% sampling noise on the ratio, so
    # the 1 +/- 0.1 band is checked on the across-seed mean
    ok &= abs(np.mean(rnd_ratios) - 1.0) < 0.1
    report(8, "survivor |init| ratio: IMP > 1, random within 1 +/- 0.1", ok)


def test_criterion_9_format_round_trips(tmp_path):
    # IDX: hand-written bytes parse to exact pixel values
    pixels = bytes([0, 128, 255, 17, 34, 51, 68, 85, 102,
                    119, 136, 153, 170, 187, 204, 221, 238, 255])
    ipath, lpath = tmp_path / "im.idx", tmp_path / "lb.idx"
    ipath.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 3) + pixels)
    lpath.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
    ds = tl.load_idx(ipath, lpath)
    idx_ok = (ds.examples[0, 0, 0] == 0.0 and ds.examples[0, 0, 1] == 128 / 255
              and ds.examples[0, 0, 2] == 1.0)
    tl.write_idx(ds, tmp_path / "im2.idx", tmp_path / "lb2.idx")
    idx_ok &= (tmp_path / "im2.idx").read_bytes() == ipath.read_bytes()

    # DSTL round trip, bit-exact float payload
    base = tl.synth_dataset("gaussianBlobs", 3, 8, 0.3, seed=1,
                            input_shape=(1, 4, 4))
    dsyn = tl.distill_kmeans_herding(base, ipc=2, seed=0)
    tl.save_distilled(dsyn, tmp_path / "d.dstl")
    loaded = tl.load_distilled(tmp_path / "d.dstl")
    tl.save_distilled(loaded, tmp_path / "d2.dstl")
    dstl_ok = (tmp_path / "d.dstl").read_bytes() == \
              (tmp_path / "d2.dstl").read_bytes()

    # MASK round trip
    spec = tl.ModelSpec("mlp", (4,), 3, hidden=(6,))
    params = tl.init_params(spec, 0)
    mask = tl.magnitude_prune(params, tl.SparsityMask.ones(params.layer_map), 0.5)
    cli.save_mask(str(tmp_path / "m.mask"), mask, "imp", 0)
    mask_ok = np.array_equal(cli.load_mask(str(tmp_path / "m.mask")).bits,
                             mask.bits)

    # CSV byte-determinism across two identical runs (wall-clock columns,
    # which the determinism claim excludes, are stripped before comparing)
    from test_cli import write_config
    config = cli.ExperimentConfig.load(write_config(
        tmp_path, overrides={"report": {"finetune_each": True, "lmc": True,
                                        "histograms": True}}))
    cli.run_experiment(config, tmp_path / "a")
    cli.run_experiment(config, tmp_path / "b")
    csv_ok = True
    for name in ("iterations.csv", "lmc.csv", "hist_fc1.csv", "hist_fc2.csv"):
        ta = cli.strip_timing_columns((tmp_path / "a" / name).read_text())
        tb = cli.strip_timing_columns((tmp_path / "b" / name).read_text())
        csv_ok &= ta == tb

    report(9, "IDX / DSTL / MASK round-trips and CSV determinism",
           idx_ok and dstl_ok and mask_ok and csv_ok)
