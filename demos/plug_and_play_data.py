"""The distilled-data provider interface and the DSTL file format.

Any source of synthetic data can drive the pruning loop: the built-in
distillers (random subset, class means, k-means herding) or an external
file produced by any other tool, exchanged through the DSTL format.
"""

import os
import tempfile

import ticketlab as tl

train = tl.synth_dataset("gaussianBlobs", 3, 200, 0.5, seed=0,
                         input_shape=(1, 4, 4))

print("built-in distillers:")
for name, dsyn in [
    ("random subset", tl.distill_random(train, ipc=5, seed=0)),
    ("class means", tl.distill_class_mean(train)),
    ("k-means herding", tl.distill_kmeans_herding(train, ipc=5, seed=0)),
]:
    print(f"  {name:>16}: {dsyn.size} examples, ipc={dsyn.ipc}, "
          f"provenance={dsyn.provenance}")

# round-trip through the on-disk format
dsyn = tl.distill_kmeans_herding(train, ipc=5, seed=0)
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "summary.dstl")
    tl.save_distilled(dsyn, path)
    loaded = tl.load_distilled(path)
    print(f"\nDSTL round trip: {os.path.getsize(path)} bytes, "
          f"{loaded.size} examples, provenance={loaded.provenance}")

# an external file is just another provider: feed it to the pruning loop
spec = tl.ModelSpec("convnet", (1, 4, 4), 3, channels=(4,))
tc = tl.TrainConfig(epochs=3, learning_rate=0.1, momentum=0.9, batch_size=32)
cfg = tl.PruneRunConfig(desired_sparsity=0.6, amount=0.2, train_config_mask=tc,
                        train_config_finetune=tc)
theta = tl.init_params(spec, 0)
theta_ft, mask, record = tl.distilled_prune_run(spec, theta, loaded, train, cfg,
                                                seed=0)
print(f"\npruned with the loaded summary: sparsity {tl.sparsity(mask):.3f}, "
      f"finetuned accuracy {record.iterations[-1].finetune_accuracy:.3f}")
