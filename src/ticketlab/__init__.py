"""Desk-scale lottery-ticket laboratory: iterative magnitude pruning,
distilled pruning, and instability analysis with deterministic numerics."""

from .nn import (LayerEntry, ModelSpec, ParameterVector, TrainConfig,
                 TrainingDiverged, evaluate, forward, backward, init_params, train)
from .pruning import (SparsityMask, apply_mask, magnitude_prune, mask_layer_stats,
                      random_prune, sparsity, whole_vector_sparsity)
from .data import (DistilledDataset, FormatError, LabeledDataset,
                   distill_class_mean, distill_kmeans_herding, distill_random,
                   load_distilled, load_idx, save_distilled, synth_dataset,
                   write_idx)
from .engines import (IterationRecord, PruneRunConfig, RunRecord,
                      SparsityUnreachable, distilled_prune_run, imp_run,
                      random_prune_run, time_to_mask)
from .analysis import (InstabilityReport, InterpolationCurve, WeightHistogram,
                       instability, interpolate_curve, survivor_magnitude_ratio,
                       train_twin, weight_histogram)

__version__ = "0.1.0"
