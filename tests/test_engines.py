import numpy as np
import pytest

import ticketlab as tl
from ticketlab.engines import IterationRecord, RunRecord, SparsityUnreachable


@pytest.fixture
def blobs():
    return tl.synth_dataset("gaussianBlobs", 2, 100, 0.5, seed=0)


@pytest.fixture
def spec():
    return tl.ModelSpec("mlp", (2,), 2, hidden=(16,))


def make_cfg(desired, amount=0.2, t=2, n=2, k=0, batch_syn=None, cap=40,
             scope=tl.GLOBAL):
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

    def test_rewind_validation(self):
        with pytest.raises(ValueError):
            make_cfg(0.5, t=2, k=2)


class TestDistilledRun:
    @pytest.mark.parametrize("finetune_each", [False, True])
    @pytest.mark.parametrize("scope", ["global", "layerwise"])
    def test_engine_equivalence_degenerate(self, spec, blobs, scope, finetune_each):
        """D_syn = D_real, t = n, k = 0 must reproduce IMP bit for bit."""
        cfg = make_cfg(0.6, scope=tl.PruneScope(scope))
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
        rec = RunRecord(method="imp", seed=0, config=make_cfg(0.5))
        assert tl.time_to_mask(rec, False) == 0.0
        assert tl.time_to_mask(rec, True) == 0.0

    def test_final_retrain_toggle(self):
        rec = RunRecord(method="imp", seed=0, config=make_cfg(0.5))
        rec.iterations = [
            IterationRecord(1, None, 0.2, 1.5),
            IterationRecord(2, None, 0.36, 2.0, finetune_accuracy=0.9,
                            finetune_seconds=4.0),
        ]
        assert tl.time_to_mask(rec, False) == 3.5
        assert tl.time_to_mask(rec, True) == 7.5

    def test_record_validation(self):
        rec = RunRecord(method="imp", seed=0, config=make_cfg(0.5))
        rec.iterations = [IterationRecord(1, None, 0.4, 0.1),
                          IterationRecord(2, None, 0.3, 0.1)]
        with pytest.raises(ValueError):
            rec.validate()
