"""Mutation probe of the test suite, run by hand; pytest does not collect it.

Each entry of MUTANTS changes one piece of text in one file of src/ and
names the test expected to fail under it, or says "equivalent: why" for a
change that no test can see because it changes no result.  The runner
copies the repository into a temporary directory and applies one mutant
at a time there; the working tree is never touched.  A mutant with a named
test runs that test first; if it passes, `pytest -x tests` decides whether
any other test kills the mutant, and if it does not run (an id not found),
the mutant is stale.  An equivalent mutant runs `pytest -x tests` and must
survive it.  A verdict other than the expected one is followed by the last
lines of the pytest run that gave it.

    python tests/mutants.py           # every mutant, about 2 minutes on 2 cores
    python tests/mutants.py 0 4       # the mutants at these indexes
    python tests/mutants.py --list

The exit status is 0 when every mutant with a named test is killed and
every equivalent one survives.  A rule added to src/ adds its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAIL_LINES = 20  # of a pytest run's output, shown under a verdict not expected

# (file, old text, new text, the test expected to fail or "equivalent: why")
MUTANTS = [
    # the rules of nn.check_data, the one check of data against a model, and
    # of nn.check_labels, the one label rule of a batch and a dataset
    ("src/ticketlab/nn.py", "    if examples.size == 0:\n", "    if examples.size < 0:\n",
     "tests/test_nn.py::test_check_data_names_the_value_that_does_not_fit"),
    ("src/ticketlab/nn.py", "if examples.shape[1:] != spec.input_shape:",
     "if examples.shape[2:] != spec.input_shape[1:]:",
     "tests/test_nn.py::test_check_data_names_the_value_that_does_not_fit"),
    ("src/ticketlab/nn.py", "labels.max() >= num_classes:", "labels.max() > num_classes:",
     "tests/test_nn.py::test_check_data_names_the_value_that_does_not_fit"),
    ("src/ticketlab/nn.py", "if labels.shape != (count,):", "if labels.ndim != 1:",
     "tests/test_nn.py::test_labels_that_do_not_fit_the_batch_are_named"),
    # a MASK file ends where its bits do, like an IDX or DSTL file
    ("src/ticketlab/cli.py", "        if f.read(1):\n", "        if False:\n",
     "tests/test_cli.py::TestMaskFiles::test_trailing_payload_rejected"),
    # the engines check every set before any training
    ("src/ticketlab/engines.py", "        check_data(spec, data.examples, data.labels)\n",
     "        pass\n",
     "tests/test_engines.py::test_every_set_is_checked_before_any_training"),
    # the CLI checks the IDX test set and an external distilled set
    ("src/ticketlab/cli.py", "enumerate(sets if self.spec else ())",
     "enumerate(sets[:1] if self.spec else ())",
     "tests/test_cli.py::TestConfigPaths::test_test_labels_may_reach_classes_training_lacks"),
    ("src/ticketlab/cli.py", "            if self.spec:\n                self._make(n, \"distiller",
     "            if not self.spec:\n                self._make(n, \"distiller",
     "tests/test_cli.py::TestConfigPaths::test_external_distilled_set_must_fit_model"),
    # numpy's overflow and invalid-value warnings stay inside train, evaluate,
    # forward and backward, and backward names a non-finite result
    ("src/ticketlab/nn.py",
     'with np.errstate(over="ignore", invalid="ignore"):  # the finite checks decide',
     "with np.errstate():  # the finite checks decide",
     "tests/test_cli.py::TestSubcommands::test_divergence_names_learning_rate"),
    ("src/ticketlab/nn.py", 'with np.errstate(over="ignore", invalid="ignore"):  # as in train',
     "with np.errstate():  # as in train",
     "tests/test_cli.py::TestSubcommands::test_non_finite_logits_are_runtime_error"),
    ("src/ticketlab/nn.py",
     'with np.errstate(over="ignore", invalid="ignore"):  # as in evaluate',
     "with np.errstate():  # as in evaluate",
     "tests/test_nn.py::TestForward::test_overflow_is_the_documented_floating_point_error"),
    ("src/ticketlab/nn.py",
     'with np.errstate(over="ignore", invalid="ignore"):  # as in forward and evaluate',
     "with np.errstate():  # as in forward and evaluate",
     "tests/test_nn.py::TestForward::test_overflow_is_the_documented_floating_point_error"),
    ("src/ticketlab/nn.py",
     "if not (math.isfinite(loss) and np.all(np.isfinite(grad))):", "if False:",
     "tests/test_nn.py::TestForward::test_overflow_is_the_documented_floating_point_error"),
    # inference runs the chain on blocks; training runs one block; every
    # product's columns are whole groups of the GEMM alignment
    ("src/ticketlab/nn.py", "for start in range(0, n, CONV_BLOCK):",
     "for start in range(0, n - 1, CONV_BLOCK):",
     "tests/test_nn.py::TestChainOracle::test_inference_logits_equal_taped_logits"),
    ("src/ticketlab/nn.py", "_Plan(spec, params.values * mask.bits, batch.shape[0], grad)",
     "_Plan(spec, params.values * mask.bits, min(batch.shape[0], CONV_BLOCK), grad)",
     "tests/test_nn.py::TestChainOracle::test_taped_pass_is_one_block"),
    ("src/ticketlab/nn.py", "L.cols = np.zeros((c * KSIZE ** 2, _columns(m)))",
     "L.cols = np.zeros((c * KSIZE ** 2, m))",
     "tests/test_nn.py::TestChainOracle::test_inference_logits_equal_taped_logits"),
    ("src/ticketlab/nn.py", "else np.zeros((math.prod(dims), _columns(n))))",
     "else np.zeros((math.prod(dims), n)))",
     "tests/test_nn.py::TestChainOracle::test_logits_do_not_depend_on_the_batch"),
    ("src/ticketlab/nn.py", "GEMM_ALIGN = 8  #", "GEMM_ALIGN = 4  #",
     "tests/test_nn.py::TestChainOracle::test_logits_do_not_depend_on_the_batch"),
    # a plan's logits are a view of its product: the softmax's row sums run
    # along C-ordered rows, as they do on contiguous logits
    ("src/ticketlab/nn.py", 'p = np.subtract(logits, zmax, order="C")', "p = logits - zmax",
     "tests/test_nn.py::test_cross_entropy_of_a_plan_view_has_the_bits_of_contiguous_logits"),
    # a training plan's buffers carry nothing from one step to the next: each
    # step rewrites its ReLU masks, each batch width has its own plan, and the
    # zero border of a conv block's padded input stays zero
    ("src/ticketlab/nn.py", "                np.greater(L.zv, 0.0, out=L.keep)",
     "                if not hasattr(L, 'seen'): L.seen = np.greater(L.zv, 0.0, out=L.keep)",
     "tests/test_nn.py::test_train_steps_carry_nothing_in_reused_buffers"),
    ("src/ticketlab/nn.py", "plan = plans[idx.size]", "plan = plans[max(plans)]",
     "tests/test_nn.py::test_train_steps_carry_nothing_in_reused_buffers"),
    ("src/ticketlab/nn.py", "L.gx = np.empty_like(L.xp) if L.conv", "L.gx = L.xp if L.conv",
     "tests/test_nn.py::test_train_steps_carry_nothing_in_reused_buffers"),
    # the step's backprop: a ReLU passes the gradient only where its output is
    # positive, the pool's backward scales by a quarter, and the weight decay
    # goes into the weights' gradient only
    ("src/ticketlab/nn.py", "np.greater(L.zv, 0.0, out=L.keep)",
     "np.greater_equal(L.zv, 0.0, out=L.keep)",
     "tests/test_nn.py::TestChainOracle::test_backward_matches_tape"),
    ("src/ticketlab/nn.py", "                g *= 0.25\n", "",
     "tests/test_nn.py::TestChainOracle::test_backward_matches_tape"),
    ("src/ticketlab/nn.py", "L.gw += cfg.weight_decay * L.w", "L.gb += cfg.weight_decay * L.b[:, 0]",
     "tests/test_nn.py::test_train_steps_carry_nothing_in_reused_buffers"),
    # a failed run says where it failed, and a finetune stands in only for a
    # mask training that would repeat it
    ("src/ticketlab/engines.py", 'len(record.iterations) + 1, "mask training", 0.0',
     'len(record.iterations) + 1, "finetune", 0.0',
     "tests/test_cli.py::TestSubcommands::test_divergence_names_seed_iteration_and_phase"),
    ("src/ticketlab/engines.py", 'phase = "evaluation"', 'phase = "finetune"',
     "tests/test_engines.py::test_non_finite_evaluation_names_seed_iteration_and_phase"),
    ("src/ticketlab/engines.py", "reuse = (finetune_each and mask_data is d_real",
     "reuse = (mask_data is d_real",
     "tests/test_engines.py::TestFinetuneReuse::test_matches_reference_loop"),
    # rules that held with no test to notice a change
    ("src/ticketlab/engines.py", "(all(a < b for a, b in zip(levels, levels[1:])),",
     "(all(a <= b for a, b in zip(levels, levels[1:])),",
     "tests/test_engines.py::TestTimeToMask::"
     "test_record_refuses_equal_consecutive_sparsities"),
    ("src/ticketlab/analysis.py", "barrier <= threshold", "barrier < threshold",
     "tests/test_analysis.py::TestInstability::test_barrier_equal_to_threshold_is_stable"),
    ("src/ticketlab/data.py", "far = points[int(np.argmax(", "far = points[int(np.argmin(",
     "tests/test_data.py::TestHerdingOracle::"
     "test_empty_cluster_reseeded_from_the_farthest_point"),
    # herding's screen: its rounding bound, the one-candidate test, and the
    # re-seed of a cluster that stays empty
    ("src/ticketlab/data.py",
     "scale * (d + 2) * 2.0 ** -48 + (d + 2) * 2.0 ** -1070, np.nan)",
     "0 * (scale * (d + 2) * 2.0 ** -48 + (d + 2) * 2.0 ** -1070), np.nan)",
     "tests/test_data.py::TestHerdingOracle::test_grid_points_with_distance_ties"),
    ("src/ticketlab/data.py", "near = np.flatnonzero(count != 1)",
     "near = np.flatnonzero(count > 1)",
     "tests/test_data.py::TestHerdingOracle::"
     "test_points_past_the_screen_take_the_exact_path"),
    ("src/ticketlab/data.py", "        redo[:k] |= empty\n", "",
     "tests/test_data.py::TestHerdingOracle::test_cluster_empty_two_rounds_running"),
    # a distilled set is class-major by construction, so a DSTL file is too
    ("src/ticketlab/data.py", "if np.any(np.diff(self.labels) < 0):",
     "if np.any(np.diff(self.labels) < 0) and False:",
     "tests/test_data.py::TestDstlContents::test_labels_must_be_class_major"),
    # a ConvNet's input halves evenly at every pool, not only the first
    ("src/ticketlab/nn.py", "d % 2 ** len(self.channels)", "d % 2",
     "tests/test_nn.py::TestModelSpec::test_fields_the_model_cannot_use_rejected"),
    # an allocation numpy refuses is a runtime failure, not a traceback
    ("src/ticketlab/engines.py", "FloatingPointError, MemoryError)", "FloatingPointError)",
     "tests/test_cli.py::TestSubcommands::test_refused_allocation_is_runtime_error"),
    # a size past numpy's largest array is refused from the config, in exact
    # Python ints, for the model and for each split of a synthetic set
    ("src/ticketlab/nn.py", "if 8 * self.param_count() > np.iinfo(np.intp).max:",
     "if False:",
     "tests/test_nn.py::TestModelSpec::test_fields_the_model_cannot_use_rejected"),
    ("src/ticketlab/data.py", "(not counts or 8 * int(num_classes)",
     "(True or 8 * int(num_classes)",
     "tests/test_data.py::TestSynth::test_check_names_each_broken_argument"),
    ("src/ticketlab/cli.py", 'zip(("dataset.", "dataset.test_"), self._synth)',
     'zip(("dataset.",), self._synth)',
     "tests/test_cli.py::TestSubcommands::"
     "test_sizes_past_numpy_largest_array_are_config_errors"),
    ("src/ticketlab/nn.py", "            length = math.prod(shape)\n",
     "            length = int(np.prod(shape))\n",
     "tests/test_nn.py::TestModelSpec::test_fields_the_model_cannot_use_rejected"),
    ("src/ticketlab/nn.py", "[math.prod(map(int, self.input_shape)), *map(int, self.hidden),",
     "[math.prod(self.input_shape), *self.hidden,",
     "tests/test_nn.py::TestModelSpec::test_fields_the_model_cannot_use_rejected"),
    # each config rule is stated once, by the library function that uses the
    # value, and the config build runs it: the grid sizes of the LMC curve and
    # the histograms, in exact Python ints, and the distiller's arguments,
    # whose ipc the smallest class bounds only when the run distills
    ("src/ticketlab/analysis.py",
     "(not is_whole(size, least) or 8 * (int(size) + 1) <= np.iinfo(np.intp).max,",
     "(True,", "tests/test_analysis.py::test_grid_past_numpy_largest_array_is_named"),
    ("src/ticketlab/analysis.py", "8 * (int(size) + 1)", "8 * (size + 1)",
     "tests/test_analysis.py::test_grid_past_numpy_largest_array_is_named"),
    ("src/ticketlab/data.py", "(not whole or smallest is None or ipc <= smallest,", "(True,",
     "tests/test_data.py::TestDistillers::test_ipc_past_the_smallest_class_rejected"),
    ("src/ticketlab/cli.py",
     'for key, grid in (("lmc_points", "num_points"), ("num_bins", "num_bins")):',
     "for key, grid in ():",
     "tests/test_cli.py::TestSubcommands::test_each_rule_names_its_key_then_its_owners_text"),
    ("src/ticketlab/cli.py", "data_mod.check_distiller, **fields", "dict, **fields",
     "tests/test_cli.py::TestSubcommands::test_each_rule_names_its_key_then_its_owners_text"),
    ("src/ticketlab/cli.py", 'bound = distills and kind != "external" and',
     "bound = False and",
     "tests/test_cli.py::TestSubcommands::test_each_rule_names_its_key_then_its_owners_text"),
    ("src/ticketlab/cli.py", 'bound = distills and kind != "external" and',
     "bound = kind != \"external\" and",
     "tests/test_cli.py::TestSubcommands::"
     "test_class_size_bounds_ipc_only_when_the_run_distills"),
    ("src/ticketlab/cli.py", 'kind != "external" and len(self.diagnostics) == n',
     'kind != "external"',
     "tests/test_cli.py::TestSubcommands::"
     "test_class_size_bounds_ipc_only_when_the_run_distills"),
    # a run writes each seed's mask and the table so far as the seed ends, so a
    # failed run keeps its finished seeds, and no file of an earlier prune with them
    ("src/ticketlab/cli.py", '        atomic_write_text(os.path.join(out_dir, "iterations.csv"),',
     '        if seed == config.seeds[-1]: atomic_write_text(os.path.join(out_dir, '
     '"iterations.csv"),',
     "tests/test_cli.py::TestPartialRun::test_failed_run_keeps_the_finished_seeds"),
    ("src/ticketlab/cli.py",
     '        save_mask(os.path.join(out_dir, f"mask_{rec.method}_seed{rec.seed}.mask"),',
     "        for rec in records if seed == config.seeds[-1] else ():\n"
     '            save_mask(os.path.join(out_dir, f"mask_{rec.method}_seed{rec.seed}.mask"),',
     "tests/test_cli.py::TestPartialRun::test_failed_run_keeps_the_finished_seeds"),
    ("src/ticketlab/cli.py", '("summary.json", "lmc.csv", "hist_*.csv", "mask_*.mask", '
     '"mask_*.mask.json")', "()",
     "tests/test_cli.py::TestPartialRun::test_failed_rerun_leaves_no_earlier_summary"),
    ("src/ticketlab/cli.py", '("summary.json", "lmc.csv", "hist_*.csv", "mask_*.mask", '
     '"mask_*.mask.json")', '("summary.json",)',
     "tests/test_cli.py::TestPartialRun::test_failed_rerun_leaves_no_file_of_the_earlier_run"),
    # a bias has no row of per-layer sparsity
    ("src/ticketlab/pruning.py", 'if e.kind != "weight":', "if False:",
     "tests/test_pruning.py::TestLayerStats::test_biases_have_no_row"),
    # input checks that held with no test to reach them
    ("src/ticketlab/data.py", "if code not in _CODE_TO_PROVENANCE:", "if False:",
     "tests/test_data.py::TestDstlContents::test_rejected_contents_are_format_errors"),
    ("src/ticketlab/data.py", "if self.provenance not in PROVENANCE_CODES:", "if False:",
     "tests/test_data.py::TestDistillers::test_unknown_provenance_rejected"),
    ("src/ticketlab/analysis.py",
     "if not (len(self.alphas) == len(self.accuracies) == len(self.losses)):", "if False:",
     "tests/test_analysis.py::TestInterpolation::test_malformed_curve_rejected"),
    ("src/ticketlab/analysis.py", "if np.any(np.diff(self.alphas) <= 0):", "if False:",
     "tests/test_analysis.py::TestInterpolation::test_malformed_curve_rejected"),
    ("src/ticketlab/analysis.py", "if limit == 0.0:", "if False:",
     "tests/test_analysis.py::TestWeightHistogram::"
     "test_all_zero_layer_spans_minus_one_to_one"),
    ("src/ticketlab/pruning.py", "if total == 0:", "if False:",
     "tests/test_pruning.py::TestSparsity::test_mask_without_weights_has_no_sparsity"),
    # a parameter vector and a mask are vectors
    ("src/ticketlab/nn.py", "    if array.ndim != 1:\n", "    if False:\n",
     "tests/test_nn.py::test_constructors_reject_odd_arguments_with_value_error"),
    # masks store bools, checked as given; a config holds no closure over itself
    ("src/ticketlab/pruning.py", "        bits = np.asarray(self.bits)\n",
     "        bits = np.asarray(self.bits).astype(bool)\n",
     "tests/test_pruning.py::test_mask_entries_must_be_zero_or_one"),
    ("src/ticketlab/pruning.py", "self.bits = bits.astype(bool, copy=False)",
     "self.bits = bits.astype(np.float64)",
     "tests/test_engines.py::TestImpRun::test_record_masks_hold_one_byte_per_position"),
    ("src/ticketlab/cli.py", "function and functools.partial(function, **fields)",
     "function and (lambda _: function(self.train, **fields))",
     "tests/test_cli.py::TestRunExperiment::"
     "test_dropped_config_frees_its_data_without_the_cyclic_gc"),
    # the distiller is bound to its fields by name, whatever their order
    ("src/ticketlab/cli.py", "functools.partial(function, **fields)",
     "functools.partial(function, *fields.values())",
     "tests/test_artifacts.py::test_artifacts_match_the_fixture"),
    # equivalent: no result can change
    ("src/ticketlab/nn.py",
     "                grad *= keep\n                if cfg.weight_decay:\n"
     "                    for L in plan.layers:  # theta is +-0 where masked: its decay adds "
     "nothing\n                        L.gw += cfg.weight_decay * L.w\n",
     "                if cfg.weight_decay:\n                    for L in plan.layers:\n"
     "                        L.gw += cfg.weight_decay * L.w\n                grad *= keep\n",
     "equivalent: theta is +-0 at masked positions, so their decay term adds +-0 to the "
     "gradient there before or after the mask makes it +-0, and the velocity there stays "
     "+0"),
    ("src/ticketlab/nn.py", "for L in plan.layers:", "for L in plans[max(plans)].layers:",
     "equivalent: every plan of a train call views the same theta and grad vectors, each "
     "layer's weight at the same offset and shape, whatever the plan's batch width"),
    ("src/ticketlab/pruning.py", 'for e in mask.layer_map if e.kind == "weight"]',
     "for e in mask.layer_map]",
     "equivalent: a bias pool holds no candidate, so it prunes nothing"),
]


def _pytest(copy, *args):
    """(exit status, its last TAIL_LINES lines of output) of `python -m pytest
    -x -q args` in the copy: 0 if the tests passed, 1 if one failed; any
    other status means they did not run (a test id not found is 4)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *args], cwd=copy, env=env, capture_output=True, text=True)
    return run.returncode, "\n".join((run.stdout + run.stderr).splitlines()[-TAIL_LINES:])


def probe(copy, index):
    """(ok, verdict, the output of the pytest run that gave a verdict not
    expected, else "") of mutant `index`, applied to the copy and undone."""
    name, old, new, expected = MUTANTS[index]
    path = copy / name
    original = path.read_text(encoding="utf-8")
    if original.count(old) != 1:
        return False, f"stale: the old text occurs {original.count(old)} times", ""
    path.write_text(original.replace(old, new), encoding="utf-8")
    try:
        if expected.startswith("equivalent"):
            status, output = _pytest(copy, "tests")
            if status == 0:
                return True, "survived", ""
            return False, "KILLED, yet listed as equivalent", output
        status, output = _pytest(copy, expected)
        if status == 1:
            return True, "killed by the named test", ""
        if status != 0:
            return False, f"stale: the named test did not run (pytest exit {status})", output
        status, output = _pytest(copy, "tests")
        return False, "SURVIVED" if status == 0 else "killed, but not by the named test", output
    finally:
        path.write_text(original, encoding="utf-8")


def main(argv):
    if argv == ["--list"]:
        for i, (name, old, new, expected) in enumerate(MUTANTS):
            print(f"{i:2d} {name}: {old.strip()!r} -> {new.strip()!r}\n   {expected}")
        return 0
    indexes = [int(a) for a in argv] or range(len(MUTANTS))
    failures = 0
    with tempfile.TemporaryDirectory() as d:
        copy = Path(d) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".bench_out", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        for i in indexes:
            t0 = time.monotonic()
            ok, verdict, output = probe(copy, i)
            failures += not ok
            print(f"{i:2d} {'ok  ' if ok else 'FAIL'} {MUTANTS[i][0]}: {verdict} "
                  f"({time.monotonic() - t0:.0f} s)", flush=True)
            if output:
                print("\n".join("    " + line for line in output.splitlines()), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
