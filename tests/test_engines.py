from dataclasses import replace

import numpy as np
import pytest

import ticketlab as tl
from ticketlab import engines
from ticketlab.engines import IterationRecord, RunRecord, SparsityUnreachable


@pytest.fixture
def blobs():
    return tl.synth_dataset("gaussianBlobs", 2, 100, 0.5, seed=0)


@pytest.fixture
def spec():
    return tl.ModelSpec("mlp", (2,), 2, hidden=(16,))


def make_cfg(desired, amount=0.2, t=2, n=2, k=0, batch_syn=None, cap=40,
             scope="global"):
    tc = tl.TrainConfig(epochs=t, learning_rate=0.1, momentum=0.9, batch_size=32,
                        shuffle_seed=3)
    tcf = tl.TrainConfig(epochs=n, learning_rate=0.1, momentum=0.9, batch_size=32,
                         shuffle_seed=3)
    return tl.PruneRunConfig(desired_sparsity=desired, amount=amount,
                             mask_train_epochs=t, finetune_epochs=n,
                             rewind_epoch=k, prune_scope=scope, train_config_mask=tc,
                             train_config_finetune=tcf, iteration_cap=cap)


class TestImpRun:
    def test_single_iteration_when_amount_reaches_target(self, blobs):
        # 60 prunable weights divide evenly by 5, so one 20% cut lands on 0.2
        spec = tl.ModelSpec("mlp", (2,), 2, hidden=(15,))
        theta = tl.init_params(spec, 0)
        rec = tl.imp_run(spec, theta, blobs, make_cfg(0.2), seed=0)
        assert len(rec.iterations) == 1
        assert rec.final_sparsity >= 0.2

    def test_sparsity_schedule_matches_closed_form(self, spec, blobs):
        theta = tl.init_params(spec, 0)
        rec = tl.imp_run(spec, theta, blobs, make_cfg(0.6), seed=0)
        prunable = sum(e.length for e in theta.layer_map if e.kind == "weight")
        for j, it in enumerate(rec.iterations, start=1):
            assert abs(it.sparsity - (1 - 0.8 ** j)) < j / prunable

    def test_rewind_to_init_contract(self, spec, blobs):
        theta = tl.init_params(spec, 0)
        cfg = make_cfg(0.5)
        rec = tl.imp_run(spec, theta, blobs, cfg, seed=0)
        # re-derive: after the run, surviving init values are untouched by
        # the loop itself (rewinding resets them each iteration)
        mask = rec.final_mask
        rewound = tl.apply_mask(theta, mask)
        assert np.all(rewound.values[mask.bits == 0.0] == 0.0)
        survivors = mask.bits == 1.0
        assert np.array_equal(rewound.values[survivors], theta.values[survivors])

    def test_rewind_to_epoch_k(self, spec, blobs):
        theta = tl.init_params(spec, 0)
        cfg = make_cfg(0.4, t=3, k=1)
        rec = tl.imp_run(spec, theta, blobs, cfg, seed=0)
        assert rec.final_sparsity >= 0.4
        # k=1 run differs from k=0 once more than one iteration happens
        rec0 = tl.imp_run(spec, theta, blobs, make_cfg(0.4, t=3, k=0), seed=0)
        assert not np.array_equal(rec.final_mask.bits, rec0.final_mask.bits)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_record_rewind_is_epoch_k_of_the_first_training(self, spec, blobs, k):
        theta = tl.init_params(spec, 0)
        cfg = make_cfg(0.4, t=3, k=k)
        rec = tl.imp_run(spec, theta, blobs, cfg, seed=0)
        expected = tl.train(spec, theta, tl.SparsityMask.ones(theta.layer_map), blobs,
                            replace(cfg.train_config_mask, epochs=k))
        assert rec.rewind.values.tobytes() == expected.values.tobytes()
        # the other engines rewind to initialization, whatever k
        dsyn = tl.distill_kmeans_herding(blobs, ipc=5, seed=0)
        for other in (tl.distilled_prune_run(spec, theta, dsyn, blobs, cfg, seed=0)[2],
                      tl.random_prune_run(spec, theta, blobs, cfg, seed=0)):
            assert other.rewind.values.tobytes() == theta.values.tobytes()

    def test_stopping_correctness(self, spec, blobs):
        theta = tl.init_params(spec, 0)
        cfg = make_cfg(0.55)
        rec = tl.imp_run(spec, theta, blobs, cfg, seed=0)
        assert rec.final_sparsity >= 0.55
        if len(rec.iterations) > 1:
            assert rec.iterations[-2].sparsity < 0.55

    def test_mask_monotonic_across_iterations(self, spec, blobs):
        theta = tl.init_params(spec, 0)
        rec = tl.imp_run(spec, theta, blobs, make_cfg(0.7), seed=0)
        for a, b in zip(rec.iterations, rec.iterations[1:]):
            assert np.all(b.mask.bits <= a.mask.bits)

    def test_iteration_cap(self, spec, blobs):
        theta = tl.init_params(spec, 0)
        with pytest.raises(SparsityUnreachable):
            tl.imp_run(spec, theta, blobs, make_cfg(0.99, cap=3), seed=0)

    @pytest.mark.parametrize("cap", [0, -1, 1.5, True])
    def test_iteration_cap_must_be_a_positive_integer(self, cap):
        with pytest.raises(ValueError, match="^iteration_cap must be an integer >= 1$"):
            make_cfg(0.5, cap=cap)

    def test_rewind_validation(self):
        with pytest.raises(ValueError):
            make_cfg(0.5, t=2, k=2)

    @pytest.mark.parametrize("scope", ["x", "Layerwise", None])
    def test_unknown_scope_rejected_at_construction(self, scope):
        with pytest.raises(ValueError, match="^prune_scope must be one of global, layerwise$"):
            make_cfg(0.5, scope=scope)


class TestPhaseEpochs:
    """Each phase's epochs are its TrainConfig's."""

    def test_epochs_read_from_train_configs(self):
        cfg = tl.PruneRunConfig(desired_sparsity=0.3, train_config_mask=tl.TrainConfig(2),
                                train_config_finetune=tl.TrainConfig(3))
        assert (cfg.mask_train_epochs, cfg.finetune_epochs) == (2, 3)

    def test_train_configs_built_from_epochs(self):
        cfg = tl.PruneRunConfig(desired_sparsity=0.3, mask_train_epochs=4)
        assert cfg.train_config_mask == tl.TrainConfig(4)
        assert cfg.train_config_finetune == tl.TrainConfig(1)
        assert (cfg.mask_train_epochs, cfg.finetune_epochs) == (4, 1)

    def test_disagreeing_epochs_rejected(self):
        # the rewind epoch fits the stated 5 epochs, not the 2 that run
        with pytest.raises(ValueError, match="mask_train_epochs must equal "
                                             "train_config_mask.epochs") as e:
            tl.PruneRunConfig(desired_sparsity=0.3, mask_train_epochs=5, rewind_epoch=3,
                              train_config_mask=tl.TrainConfig(epochs=2))
        assert "rewind_epoch must be < mask_train_epochs" in str(e.value)
        with pytest.raises(ValueError, match="finetune_epochs must equal"):
            tl.PruneRunConfig(desired_sparsity=0.3, finetune_epochs=1,
                              train_config_finetune=tl.TrainConfig(epochs=2))

    @pytest.mark.parametrize("rewind_epoch", [1.5, True, -1])
    def test_rewind_epoch_must_be_an_integer(self, rewind_epoch):
        with pytest.raises(ValueError, match="rewind_epoch must be an integer >= 0"):
            tl.PruneRunConfig(desired_sparsity=0.3, mask_train_epochs=3,
                              rewind_epoch=rewind_epoch)


def reference_imp(spec, theta, data, cfg, finetune_each):
    """IMP with every training run afresh: (mask bytes, finetune accuracy or
    None) per iteration."""
    mask = tl.SparsityMask.ones(theta.layer_map)
    rewind, out = theta, []
    while tl.sparsity(mask) < cfg.desired_sparsity:
        if not out:
            snaps = {cfg.rewind_epoch: None}
            trained = tl.train(spec, theta, mask, data, cfg.train_config_mask,
                               snapshots=snaps)
            rewind = snaps[cfg.rewind_epoch]
        else:
            trained = tl.train(spec, rewind, mask, data, cfg.train_config_mask)
        mask = tl.magnitude_prune(trained, mask, cfg.amount, cfg.prune_scope)
        acc = None
        if finetune_each or tl.sparsity(mask) >= cfg.desired_sparsity:
            theta_ft = tl.train(spec, rewind, mask, data, cfg.train_config_finetune)
            acc, _ = tl.evaluate(spec, theta_ft, mask, data)
        out.append((mask.bits.tobytes(), acc))
    return out


def count_trainings(monkeypatch):
    """Records the engine's calls of train: "train", or "train+snapshots"
    for a call that asks for snapshots."""
    calls, train = [], engines.train

    def counted(spec, params, mask, data, cfg, snapshots=None):
        calls.append("train" if snapshots is None else "train+snapshots")
        return train(spec, params, mask, data, cfg, snapshots)
    monkeypatch.setattr(engines, "train", counted)
    return calls


class TestFinetuneReuse:
    """With mask data = finetune data and equal TrainConfigs, each finetune
    is the next iteration's mask training."""

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("scope", ["global", "layerwise"])
    def test_masks_independent_of_finetune_each(self, spec, blobs, k, scope):
        cfg = make_cfg(0.6, k=k, scope=scope)
        theta = tl.init_params(spec, 0)
        a, b = (tl.imp_run(spec, theta, blobs, cfg, finetune_each=each, seed=0)
                for each in (False, True))
        assert len(a.iterations) == len(b.iterations) > 2
        for x, y in zip(a.iterations, b.iterations):
            assert np.array_equal(x.mask.bits, y.mask.bits)
            assert x.sparsity == y.sparsity

    @pytest.mark.parametrize("finetune_each", [False, True])
    @pytest.mark.parametrize("k", [0, 1])
    def test_matches_reference_loop(self, spec, blobs, k, finetune_each):
        cfg = make_cfg(0.6, k=k)
        theta = tl.init_params(spec, 1)
        rec = tl.imp_run(spec, theta, blobs, cfg, finetune_each=finetune_each, seed=1)
        got = [(it.mask.bits.tobytes(), it.finetune_accuracy) for it in rec.iterations]
        assert got == reference_imp(spec, theta, blobs, cfg, finetune_each)

    def test_imp_trains_once_per_iteration(self, spec, blobs, monkeypatch):
        calls = count_trainings(monkeypatch)
        rec = tl.imp_run(spec, tl.init_params(spec, 0), blobs, make_cfg(0.6),
                         finetune_each=True, seed=0)
        n = len(rec.iterations)
        assert n > 2 and len(calls) == n + 1
        # only the first mask training takes the rewind point
        assert [c == "train+snapshots" for c in calls] == [True] + [False] * n

    @pytest.mark.parametrize("finetune_each", [False, True])
    def test_unequal_configs_train_twice(self, spec, blobs, monkeypatch, finetune_each):
        cfg = make_cfg(0.6)
        cfg = tl.PruneRunConfig(
            desired_sparsity=0.6, train_config_mask=cfg.train_config_mask,
            train_config_finetune=replace(cfg.train_config_finetune, shuffle_seed=4))
        calls = count_trainings(monkeypatch)
        rec = tl.imp_run(spec, tl.init_params(spec, 0), blobs, cfg,
                         finetune_each=finetune_each, seed=0)
        n = len(rec.iterations)
        assert len(calls) == (2 * n if finetune_each else n + 1)

    @pytest.mark.parametrize("finetune_each", [False, True])
    def test_distilled_and_random_counts_unchanged(self, spec, blobs, monkeypatch,
                                                   finetune_each):
        theta, cfg = tl.init_params(spec, 0), make_cfg(0.6)
        dsyn = tl.distill_kmeans_herding(blobs, ipc=5, seed=0)
        calls = count_trainings(monkeypatch)
        _, _, rec = tl.distilled_prune_run(spec, theta, dsyn, blobs, cfg,
                                           finetune_each=finetune_each, seed=0)
        n = len(rec.iterations)
        assert len(calls) == (2 * n if finetune_each else n + 1)
        calls.clear()
        rec = tl.random_prune_run(spec, theta, blobs, cfg, finetune_each=finetune_each,
                                  seed=0)
        assert calls == ["train"] * (len(rec.iterations) if finetune_each else 1)

    def test_reused_training_is_charged_to_the_mask_phase(self, spec, blobs):
        rec = tl.imp_run(spec, tl.init_params(spec, 0), blobs, make_cfg(0.6),
                         finetune_each=True, seed=0)
        for prev, it in zip(rec.iterations, rec.iterations[1:]):
            assert it.mask_phase_seconds >= prev.finetune_seconds > 0


class TestDistilledRun:
    @pytest.mark.parametrize("finetune_each", [False, True])
    @pytest.mark.parametrize("scope", ["global", "layerwise"])
    def test_engine_equivalence_degenerate(self, spec, blobs, scope, finetune_each):
        """D_syn = D_real, t = n, k = 0 must reproduce IMP bit for bit."""
        cfg = make_cfg(0.6, scope=scope)
        for seed in range(3):
            theta = tl.init_params(spec, seed)
            imp = tl.imp_run(spec, theta, blobs, cfg, finetune_each=finetune_each,
                             seed=seed)
            _, mask, rec = tl.distilled_prune_run(spec, theta, blobs, blobs, cfg,
                                                  finetune_each=finetune_each,
                                                  seed=seed)
            assert len(imp.iterations) == len(rec.iterations)
            for a, b in zip(imp.iterations, rec.iterations):
                assert np.array_equal(a.mask.bits, b.mask.bits)
                assert a.finetune_accuracy == b.finetune_accuracy
            assert (imp.iterations[0].finetune_accuracy is not None) == finetune_each

    def test_ignores_rewind_epoch(self, spec, blobs):
        """Distilled pruning always rewinds to initialization, whatever k."""
        theta = tl.init_params(spec, 0)
        dsyn = tl.distill_kmeans_herding(blobs, ipc=5, seed=0)
        runs = [tl.distilled_prune_run(spec, theta, dsyn, blobs,
                                       make_cfg(0.5, t=3, k=k), finetune_each=True,
                                       seed=0) for k in (0, 1)]
        (theta0, mask0, rec0), (theta1, mask1, rec1) = runs
        assert np.array_equal(theta0.values, theta1.values)
        assert np.array_equal(mask0.bits, mask1.bits)
        assert [it.finetune_accuracy for it in rec0.iterations] == \
               [it.finetune_accuracy for it in rec1.iterations]

    def test_stop_iteration_count_for_half_sparsity(self, spec, blobs):
        # 1 - 0.8^j >= 0.5 first at j = 4 (0.5904)
        theta = tl.init_params(spec, 0)
        dsyn = tl.distill_kmeans_herding(blobs, ipc=5, seed=0)
        _, mask, rec = tl.distilled_prune_run(spec, theta, dsyn, blobs,
                                              make_cfg(0.5), seed=0)
        assert len(rec.iterations) == 4
        assert rec.iterations[-2].sparsity < 0.5 <= rec.final_sparsity
        # floor() can only under-prune the 1 - 0.8^4 = 0.5904 schedule
        assert rec.final_sparsity <= 0.5904

    def test_returns_finetuned_params_and_mask(self, spec, blobs):
        theta = tl.init_params(spec, 0)
        dsyn = tl.distill_kmeans_herding(blobs, ipc=5, seed=0)
        theta_ft, mask, rec = tl.distilled_prune_run(spec, theta, dsyn, blobs,
                                                     make_cfg(0.4), seed=0)
        assert np.all(theta_ft.values[mask.bits == 0.0] == 0.0)
        assert rec.iterations[-1].finetune_accuracy is not None
        assert rec.iterations[-1].finetune_seconds > 0

    def test_mask_phase_cheaper_than_imp_on_small_syn(self, spec):
        # |D_syn| = 4 vs |D_real| = 800: the mask phase must be clearly
        # cheaper, with a 2x margin to keep the check timing-noise proof
        big = tl.synth_dataset("gaussianBlobs", 2, 400, 0.5, seed=0)
        theta = tl.init_params(spec, 0)
        dsyn = tl.distill_kmeans_herding(big, ipc=2, seed=0)
        cfg = make_cfg(0.6, t=3)
        imp = tl.imp_run(spec, theta, big, cfg, seed=0)
        _, _, rec = tl.distilled_prune_run(spec, theta, dsyn, big, cfg, seed=0)
        assert 2 * tl.time_to_mask(rec, False) < tl.time_to_mask(imp, False)


class TestRandomRun:
    def test_masks_independent_of_data(self, spec, blobs):
        other = tl.synth_dataset("gaussianBlobs", 2, 50, 1.5, seed=9)
        theta = tl.init_params(spec, 0)
        cfg = make_cfg(0.5)
        a = tl.random_prune_run(spec, theta, blobs, cfg, seed=4)
        b = tl.random_prune_run(spec, theta, other, cfg, seed=4)
        for ra, rb in zip(a.iterations, b.iterations):
            assert np.array_equal(ra.mask.bits, rb.mask.bits)

    def test_count_schedule_matches_imp(self, spec, blobs):
        theta = tl.init_params(spec, 0)
        cfg = make_cfg(0.6)
        imp = tl.imp_run(spec, theta, blobs, cfg, seed=0)
        rnd = tl.random_prune_run(spec, theta, blobs, cfg, seed=0)
        assert [it.sparsity for it in imp.iterations] == \
               [it.sparsity for it in rnd.iterations]

    def test_deterministic_in_seed(self, spec, blobs):
        theta = tl.init_params(spec, 0)
        cfg = make_cfg(0.5)
        a = tl.random_prune_run(spec, theta, blobs, cfg, seed=4)
        b = tl.random_prune_run(spec, theta, blobs, cfg, seed=4)
        assert np.array_equal(a.final_mask.bits, b.final_mask.bits)
        c = tl.random_prune_run(spec, theta, blobs, cfg, seed=5)
        assert not np.array_equal(a.final_mask.bits, c.final_mask.bits)


class TestTimeToMask:
    def test_empty_record(self):
        rec = RunRecord(method="imp", seed=0)
        assert tl.time_to_mask(rec, False) == 0.0
        assert tl.time_to_mask(rec, True) == 0.0

    def test_final_retrain_toggle(self):
        rec = RunRecord(method="imp", seed=0)
        rec.iterations = [
            IterationRecord(1, None, 0.2, 1.5),
            IterationRecord(2, None, 0.36, 2.0, finetune_accuracy=0.9,
                            finetune_seconds=4.0),
        ]
        assert tl.time_to_mask(rec, False) == 3.5
        assert tl.time_to_mask(rec, True) == 7.5

    def test_record_validation(self):
        rec = RunRecord(method="imp", seed=0)
        rec.iterations = [IterationRecord(1, None, 0.4, 0.1),
                          IterationRecord(2, None, 0.3, 0.1)]
        with pytest.raises(ValueError):
            rec.validate()
