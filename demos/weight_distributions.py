"""Which initialization values survive pruning?

Prunes a small ConvNet to high sparsity, then histograms the surviving
weights' values at initialization, layer by layer.  Magnitude pruning with
rewinding empties the middle of the distribution: weights initialized near
zero get pruned, leaving a two-humped shape at high sparsity.  A random
mask, by contrast, is magnitude-blind (ratio near 1).
"""

import ticketlab as tl

train = tl.synth_dataset("gaussianBlobs", 4, 500, 0.8, seed=0,
                         input_shape=(1, 8, 8))
spec = tl.ModelSpec("convnet", (1, 8, 8), 4, channels=(6,))
tc = tl.TrainConfig(epochs=4, learning_rate=0.1, momentum=0.9, batch_size=64)
cfg = tl.PruneRunConfig(desired_sparsity=0.90, amount=0.2,
                        train_config_mask=tc, train_config_finetune=tc)

theta = tl.init_params(spec, 0)
record = tl.imp_run(spec, theta, train, cfg, seed=0)

for it in (record.iterations[2], record.iterations[-1]):
    print(f"\n=== sparsity {it.sparsity:.3f} ===")
    for name in ("conv1", "fc"):
        hist = tl.weight_histogram(theta, it.mask, name, num_bins=15)
        print(f"  layer {name} ({int(hist.counts.sum())} survivors):")
        peak = max(int(c) for c in hist.counts) or 1
        for left, right, count in zip(hist.bin_edges, hist.bin_edges[1:],
                                      hist.counts):
            bar = "#" * round(30 * int(count) / peak)
            print(f"    [{left:+.3f}, {right:+.3f}) {bar}")

ratio = tl.survivor_magnitude_ratio(theta, record.final_mask)
# a single random mask is noisy at this model size; average a few draws
rnd_ratio = sum(
    tl.survivor_magnitude_ratio(
        theta, tl.random_prune(tl.SparsityMask.ones(theta.layer_map), 0.5, seed=s))
    for s in range(20)) / 20
print(f"\nsurvivor/pruned mean |init| ratio: IMP {ratio:.2f}, "
      f"random masks {rnd_ratio:.2f} (avg of 20)")
