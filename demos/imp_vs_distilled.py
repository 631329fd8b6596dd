"""Accuracy-vs-sparsity and time-to-mask comparison across pruning methods.

Runs classic iterative magnitude pruning, distilled pruning (per-class
k-means herding as the synthetic data source), and the random-mask baseline
on a small image-blob classification task, then prints the accuracy curve
and the mask-generation wall-clock cost of each method.
"""

import numpy as np

import ticketlab as tl

train = tl.synth_dataset("gaussianBlobs", 4, 500, 0.8, seed=0,
                         input_shape=(1, 8, 8))
test = tl.synth_dataset("gaussianBlobs", 4, 125, 0.8, seed=10_000,
                        input_shape=(1, 8, 8))
spec = tl.ModelSpec("convnet", (1, 8, 8), 4, channels=(6,))
tc = tl.TrainConfig(epochs=4, learning_rate=0.1, momentum=0.9, batch_size=64)
cfg = tl.PruneRunConfig(desired_sparsity=0.85, amount=0.2,
                        train_config_mask=tc, train_config_finetune=tc)
# distilled pruning trains its mask on only 40 examples: 16 epochs at batch
# 16 take 3 steps per epoch, where batch 64 would take 1
dcfg = tl.PruneRunConfig(
    desired_sparsity=0.85, amount=0.2, train_config_finetune=tc,
    train_config_mask=tl.TrainConfig(epochs=16, learning_rate=0.1, momentum=0.9,
                                     batch_size=16))

seed = 0
theta = tl.init_params(spec, seed)
ones = tl.SparsityMask.ones(theta.layer_map)

dense = tl.train(spec, theta, ones, train, tc)
dense_acc, _ = tl.evaluate(spec, dense, ones, test)
print(f"dense baseline accuracy: {dense_acc:.3f}\n")

print("running IMP ...")
imp = tl.imp_run(spec, theta, train, cfg, eval_data=test, finetune_each=True,
                 seed=seed)

print("running distilled pruning (herding, 10 images per class) ...")
dsyn = tl.distill_kmeans_herding(train, ipc=10, seed=seed)
_, _, dist = tl.distilled_prune_run(spec, theta, dsyn, train, dcfg,
                                    eval_data=test, finetune_each=True,
                                    seed=seed)

print("running random-mask baseline ...\n")
rnd = tl.random_prune_run(spec, theta, train, cfg, eval_data=test,
                          finetune_each=True, seed=seed)

print(f"{'sparsity':>9} {'imp':>7} {'distilled':>10} {'random':>7}")
for a, b, c in zip(imp.iterations, dist.iterations, rnd.iterations):
    accs = [f"{it.finetune_accuracy:.3f}" if it.finetune_accuracy is not None
            else "  -  " for it in (a, b, c)]
    print(f"{a.sparsity:9.3f} {accs[0]:>7} {accs[1]:>10} {accs[2]:>7}")

print("\ntime-to-mask (mask phase only / with final retrain):")
for name, rec in (("imp", imp), ("distilled", dist), ("random", rnd)):
    print(f"  {name:>9}: {tl.time_to_mask(rec, False):7.3f}s / "
          f"{tl.time_to_mask(rec, True):7.3f}s")
