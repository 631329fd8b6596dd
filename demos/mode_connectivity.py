"""Instability analysis: train one sparse subnetwork twice under different
data orders, then walk the straight line between the two solutions.

A flat accuracy profile along the path (small error barrier) means the
subnetwork is stable to SGD noise; a dip means instability.
"""

import ticketlab as tl

train = tl.synth_dataset("gaussianBlobs", 4, 500, 0.8, seed=0,
                         input_shape=(1, 8, 8))
test = tl.synth_dataset("gaussianBlobs", 4, 125, 0.8, seed=10_000,
                        input_shape=(1, 8, 8))
spec = tl.ModelSpec("convnet", (1, 8, 8), 4, channels=(6,))
tc = tl.TrainConfig(epochs=4, learning_rate=0.1, momentum=0.9, batch_size=64)

theta = tl.init_params(spec, 0)
# the mask trains on only 40 distilled examples: 16 epochs at batch 16 take
# 3 steps per epoch, where batch 64 would take 1
cfg = tl.PruneRunConfig(
    desired_sparsity=0.70, amount=0.2, train_config_finetune=tc,
    train_config_mask=tl.TrainConfig(epochs=16, learning_rate=0.1, momentum=0.9,
                                     batch_size=16))

dsyn = tl.distill_kmeans_herding(train, ipc=10, seed=0)
_, mask, _ = tl.distilled_prune_run(spec, theta, dsyn, train, cfg,
                                    eval_data=test, seed=0)
print(f"mask from distilled pruning at sparsity {tl.sparsity(mask):.3f}")

theta_a, theta_b = tl.train_twin(spec, theta, mask, train, tc,
                                 noise_seed_a=1, noise_seed_b=2)
curve = tl.interpolate_curve(spec, theta_a, theta_b, mask, test, num_points=21)

print("\nalpha   accuracy  loss")
for alpha, acc, loss in zip(curve.alphas, curve.accuracies, curve.losses):
    bar = "#" * int(acc * 40)
    print(f"{alpha:5.2f}   {acc:.3f}    {loss:7.4f}  {bar}")

threshold = 0.02
rep = tl.instability(curve, threshold)
verdict = "stable" if rep.stable else "UNSTABLE"
print(f"\nerror barrier: {rep.error_barrier:+.4f} "
      f"({verdict} at threshold {threshold})")
