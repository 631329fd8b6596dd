import argparse
import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ticketlab as tl
from ticketlab import cli, engines, nn


BASE_CONFIG = {
    "dataset": {"source": "synth", "kind": "gaussianBlobs", "per_class": 60, "noise": 0.6,
                "seed": 0},
    "model": {"architecture": "mlp", "input_shape": [2], "num_classes": 3,
              "hidden": [10]},
    "method": "imp",
    "prune": {"desired_sparsity": 0.5, "amount": 0.2, "mask_train_epochs": 2,
              "finetune_epochs": 2,
              "mask_train": {"learning_rate": 0.1, "batch_size": 32},
              "finetune": {"learning_rate": 0.1, "batch_size": 32}},
    "seeds": [0, 1],
    "report": {"finetune_each": True, "lmc": False, "histograms": False},
}


def strict_json(text):
    """json.loads that refuses NaN, Infinity and numbers that overflow to inf."""
    def refuse(token):
        raise ValueError(f"non-finite number {token}")

    return json.loads(text, parse_constant=refuse,
                      parse_float=lambda t: float(t) if math.isfinite(float(t)) else refuse(t))


def write_config(tmp_path, overrides=None, **prune_overrides):
    raw = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        raw.update(overrides)
    raw["prune"].update(prune_overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


class TestValidate:
    def test_valid_profile_empty_diagnostics(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.validate_config(path) == []

    @pytest.mark.parametrize("distiller", [
        {"kind": "classMean"}, {"kind": "random", "ipc": 2, "seed": 1},
        {"kind": "kmeansHerding", "ipc": 2, "iterations": 3, "seed": 1},
        {"kind": "external", "path": "d.dstl"}])
    def test_each_distiller_kind_reads_its_fields(self, tmp_path, distiller):
        # method distilled: the set is checked against the data, an external one loaded
        tl.save_distilled(tl.distill_class_mean(tl.synth_dataset(
            "gaussianBlobs", 3, 4, 0.6, seed=0)), tmp_path / "d.dstl")
        raw = {**with_section("distiller", distiller), "method": "distilled"}
        assert cli.validate_config(write_raw(tmp_path, raw)) == []

    def test_omitted_keys_take_the_library_defaults(self):
        model = {key: BASE_CONFIG["model"][key]
                 for key in ("architecture", "input_shape", "num_classes")}
        bare = {key: value for key, value in BASE_CONFIG.items() if key != "prune"}
        for raw in ({**bare, "model": model}, {**bare, "model": model, "prune": {}}):
            config = cli.ExperimentConfig(raw, dry=True)
            assert config.spec == tl.ModelSpec("mlp", (2,), 3)
            assert config.cfg == tl.PruneRunConfig(
                0.5, train_config_mask=tl.TrainConfig(3),
                train_config_finetune=tl.TrainConfig(3))

    def test_amount_out_of_range(self, tmp_path):
        path = write_config(tmp_path, amount=1.5)
        diags = cli.validate_config(path)
        assert any("amount" in d for d in diags)

    def test_rewind_vs_epochs(self, tmp_path):
        path = write_config(tmp_path, rewind_epoch=2, mask_train_epochs=2)
        diags = cli.validate_config(path)
        assert any("rewind_epoch" in d for d in diags)

    def test_collects_all_violations(self, tmp_path):
        path = write_config(tmp_path, amount=2.0, desired_sparsity=1.5)
        assert len(cli.validate_config(path)) >= 2

    def test_seeds_diagnosed_apart_from_prune(self, tmp_path):
        # seeds is a top-level key, and a bad list hides no prune diagnostic
        path = write_raw(tmp_path, with_section("seeds", []))
        assert cli.validate_config(path) == [
            "seeds must be a non-empty list of distinct non-negative integers"]
        raw = with_section("seeds", 5)
        raw["prune"]["amount"] = 1.5
        assert cli.validate_config(write_raw(tmp_path, raw)) == [
            "seeds must be a list", "prune: amount must be in (0, 1)"]

    def test_missing_idx_file(self, tmp_path):
        path = write_config(tmp_path, overrides={
            "dataset": {"source": "idx", "images": "missing.idx",
                        "labels": "missing2.idx"}})
        diags = cli.validate_config(path)
        assert any("not found" in d for d in diags)

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path)
        assert cli.main(["validate", "--config", str(good)]) == 0
        bad = write_config(tmp_path, amount=2.0)
        assert cli.main(["validate", "--config", str(bad)]) == cli.EXIT_CONFIG
        out = capsys.readouterr().out.strip().splitlines()
        assert all(json.loads(line) is not None for line in out)

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert cli.main(["validate", "--config",
                         str(tmp_path / "nope.json")]) == cli.EXIT_IO


def write_raw(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def with_section(key, value):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw[key] = value
    return raw


WRONG_TYPES = [
    ("seeds", with_section("seeds", 5)),
    ("seeds", with_section("seeds", [0, True])),
    ("prune", with_section("prune", [])),
    ("dataset", with_section("dataset", [])),
    ("distiller", with_section("distiller", "x")),
    ("report", with_section("report", 3)),
    ("prune.amount", with_section("prune", {"amount": "0.2"})),
    ("prune.amount", with_section("prune", {"amount": True})),
    ("prune.mask_train_epochs", with_section("prune", {"mask_train_epochs": 2.5})),
    ("prune.rewind_epoch", with_section("prune", {"rewind_epoch": None})),
    ("prune.finetune", with_section("prune", {"finetune": [0.1]})),
    ("prune.mask_train.batch_size",
     with_section("prune", {"mask_train": {"batch_size": "32"}})),
    ("dataset.per_class", with_section("dataset", {**BASE_CONFIG["dataset"],
                                                   "per_class": "60"})),
    ("dataset.images", with_section("dataset", {"source": "idx", "images": 7,
                                                "labels": ["a"]})),
    ("distiller.path", with_section("distiller", {"kind": "external", "path": {}})),
    ("distiller.ipc", with_section("distiller", {"ipc": 2.0})),
]


def with_model(**fields):
    """BASE_CONFIG with model fields changed; a field set to None is removed."""
    model = {**BASE_CONFIG["model"], **fields}
    return with_section("model", {k: v for k, v in model.items() if v is not None})


# well-typed sections from which no model can be built, and synthetic data
# that restates the model's classes or shape
MODEL_CASES = [
    ("model.input_shape", with_model(input_shape=None)),
    ("model.architecture", with_model(architecture=None)),
    ("model.num_classes", with_model(num_classes=None)),
    ("unknown architecture", with_model(architecture="resnet")),
    ("at least 2 classes", with_model(num_classes=1)),
    ("model.hidden", with_model(hidden="abc")),
    ("positive integers", with_model(hidden=["a"])),
    ("positive integers", with_model(input_shape=[])),
    ("halve evenly", with_model(architecture="convnet", input_shape=[1, 3, 3],
                                channels=[2])),
    ("dataset.num_classes is never read", with_section("dataset", {
        **BASE_CONFIG["dataset"], "num_classes": 3})),
    ("dataset.input_shape is never read", with_section("dataset", {
        **BASE_CONFIG["dataset"], "input_shape": [2]})),
    ("dataset.source", with_section("dataset", {k: v for k, v in
                                                BASE_CONFIG["dataset"].items()
                                                if k != "source"})),
]


def with_prune(key, **fields):
    """BASE_CONFIG with fields of prune.`key` changed."""
    prune = json.loads(json.dumps(BASE_CONFIG["prune"]))
    prune[key].update(fields)
    return with_section("prune", prune)


def with_dataset(**fields):
    return with_section("dataset", {**BASE_CONFIG["dataset"], **fields})


# well-typed values out of the range the run accepts
RANGE_CASES = [
    ("prune.mask_train", with_prune("mask_train", learning_rate=-1)),
    ("prune.mask_train", with_prune("mask_train", milestones="ab")),
    ("prune.mask_train", with_prune("mask_train", milestones=5)),
    ("prune.mask_train", with_prune("mask_train", milestones=[2])),
    ("prune.finetune", with_prune("finetune", batch_size=0)),
    ("prune.finetune", with_prune("finetune", momentum=1.0)),
    ("prune.finetune", with_prune("finetune", gamma=2)),
    ("prune.finetune", with_prune("finetune", shuffle_seed=-1)),
    ("prune.finetune", with_section("prune", {**BASE_CONFIG["prune"],
                                              "finetune_epochs": -1})),
    ("dataset.per_class", with_dataset(per_class=0)),
    ("dataset.test_per_class", with_dataset(test_per_class=0)),
    ("dataset.seed", with_dataset(seed=-1)),
    ("seeds", with_section("seeds", [0, -1])),
    ("spirals", {**with_dataset(kind="spirals"),
                 "model": {**BASE_CONFIG["model"], "input_shape": [3]}}),
    ("at least 2 values", with_model(input_shape=[1])),
    ("report.lmc_points", with_section("report", {"lmc": True, "lmc_points": 1})),
    ("report.num_bins", with_section("report", {"histograms": True, "num_bins": -2})),
    ("distiller.ipc", {**with_section("distiller", {"ipc": 0}), "method": "distilled"}),
    ("distiller.ipc", {**with_section("distiller", {"ipc": 61}), "method": "distilled"}),
    ("distiller.seed", {**with_section("distiller", {"seed": -1}),
                        "method": "distilled"}),
]
NAN, INF = float("nan"), float("inf")

# report flags that are not booleans, and numbers that are not finite
FLAG_AND_FINITE_CASES = [
    ("report.lmc", with_section("report", {"lmc": "no"})),
    ("report.finetune_each", with_section("report", {"finetune_each": "no"})),
    ("prune.mask_train.learning_rate", with_section("prune", {
        **BASE_CONFIG["prune"], "mask_train_epochs": 1,
        "mask_train": {"learning_rate": NAN, "batch_size": 512}})),
    ("prune.finetune.weight_decay", with_prune("finetune", weight_decay=INF)),
    ("dataset.noise", with_dataset(noise=NAN)),
]
# a test split named by one file only, and a seed given twice
PAIR_CASES = [
    # the config file itself stands in for the training files: it exists, and
    # the missing test_images stops the build before any file is read
    ("dataset.test_images", with_section("dataset", {
        "source": "idx", "images": "config.json", "labels": "config.json",
        "test_labels": "config.json"})),
    ("distinct", with_section("seeds", [0, 0])),
]
# milestones that are not integers, and keys no field reads
LATER_CASES = [
    ("prune.mask_train", with_prune("mask_train", milestones=[1.5])),
    ("prune.mask_train", with_prune("mask_train", milestones=[True])),
    ("prune.desired_sparsty", with_section("prune", {**BASE_CONFIG["prune"],
                                                     "desired_sparsty": 0.9})),
    ("prune.finetune.learning_rat", with_prune("finetune", learning_rat=0.5)),
    ("seed", {**BASE_CONFIG, "seed": 3}),
    ("dataset.images", with_dataset(images="train.idx")),
]
# widths the architecture does not read, and distiller fields its kind does not
UNREAD_CASES = [
    ("model: channels is not read", with_model(channels=[16, 32])),
    ("model: hidden is not read", with_model(architecture="convnet", input_shape=[1, 4, 4],
                                             channels=[2])),
    ("distiller.ipc is never read", with_section("distiller", {"kind": "classMean",
                                                               "ipc": 7})),
    ("distiller.iterations is never read", with_section("distiller", {
        "kind": "random", "ipc": 2, "iterations": 5})),
    ("distiller.seed is never read", with_section("distiller", {
        "kind": "external", "path": "config.json", "seed": 1})),
]
# a scope pruning does not know, a negative Lloyd round count and an
# iteration cap, which no field reads; appended last so that no earlier
# case's id changes
CHOICE_CASES = [
    ("prune.scope must be one of global, layerwise", with_section("prune", {
        **BASE_CONFIG["prune"], "scope": "x"})),
    ("distiller.iterations must be an integer >= 0", with_section("distiller", {
        "kind": "kmeansHerding", "ipc": 2, "iterations": -3})),
    ("prune.iteration_cap is never read", with_section("prune", {
        **BASE_CONFIG["prune"], "iteration_cap": 0})),
]
INVALID = (WRONG_TYPES + MODEL_CASES + RANGE_CASES + FLAG_AND_FINITE_CASES + PAIR_CASES
           + LATER_CASES + UNREAD_CASES + CHOICE_CASES)
INVALID_IDS = [f"{field}-{i}" for i, (field, _) in enumerate(INVALID)]
PRUNE_CASES = (INVALID[:7] + MODEL_CASES + RANGE_CASES + FLAG_AND_FINITE_CASES
               + PAIR_CASES + LATER_CASES + UNREAD_CASES + CHOICE_CASES)
PRUNE_CASE_IDS = INVALID_IDS[:7] + INVALID_IDS[len(WRONG_TYPES):]


class TestValidateTypes:
    @pytest.mark.parametrize("field,raw", INVALID, ids=INVALID_IDS)
    def test_wrong_type_is_a_diagnostic(self, tmp_path, capsys, field, raw):
        path = write_raw(tmp_path, raw)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
        diags = json.loads(capsys.readouterr().out)["diagnostics"]
        assert any(field in d for d in diags), diags

    @pytest.mark.parametrize("field,raw", PRUNE_CASES, ids=PRUNE_CASE_IDS)
    def test_prune_rejects_wrong_type_before_running(self, tmp_path, field, raw):
        path = write_raw(tmp_path, raw)
        assert cli.main(["prune", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("missing", ["per_class"])
    def test_synth_fields_required(self, tmp_path, missing):
        dataset = {k: v for k, v in BASE_CONFIG["dataset"].items() if k != missing}
        path = write_raw(tmp_path, with_section("dataset", dataset))
        assert f"dataset.{missing} missing" in cli.validate_config(path)
        assert cli.main(["prune", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG

    def test_prune_on_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"dataset": ')
        assert cli.main(["prune", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_config_is_read_as_utf8_in_an_ascii_locale(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**BASE_CONFIG, "out_dir": "sortie_\u00e9"},
                                   ensure_ascii=False), encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-m", "ticketlab.cli", "validate", "--config",
                              str(path)], env=env, capture_output=True, timeout=60)
        assert (run.returncode, run.stdout) == (0, b'{"diagnostics": []}\n'), run.stderr

    def test_non_utf8_config_is_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"seeds": "\xff"}')
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_deeply_nested_config_is_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_validate_never_generates_synth_data(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("validate generated the synthetic data")

        monkeypatch.setattr(tl.data, "synth_dataset", refuse)
        assert cli.main(["validate", "--config", str(write_config(tmp_path))]) == 0


CONFIG_KEYS = sorted({"dataset", "model", "prune", "distiller", "report", "seeds",
                      "method", "mask_train", "finetune", "source", "kind", "path",
                      "images", "labels",
                      # numeric fields
                      "num_classes", "per_class", "test_per_class", "noise", "seed",
                      "amount", "desired_sparsity", "rewind_epoch", "mask_train_epochs",
                      "finetune_epochs", "learning_rate", "momentum",
                      "weight_decay", "batch_size", "gamma", "shuffle_seed", "ipc",
                      "iterations", "lmc_points", "threshold", "num_bins"})


def json_of(integers):
    """Any JSON value, with integers drawn from `integers`; a bare scalar at
    least half the time, as st.recursive alone draws almost only containers."""
    leaves = (st.none() | st.booleans() | integers | st.floats() | st.text(max_size=8)
              | st.sampled_from(["idx", "synth", "external", "gaussianBlobs", "imp",
                                 "distilled", "random", "classMean", "spirals", "layerwise"]))
    return leaves | st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(CONFIG_KEYS) | st.text(max_size=6), inner,
                          max_size=6),
        max_leaves=20)


json_values = json_of(st.integers())


@settings(max_examples=300, deadline=None)
@given(value=json_values)
def test_validate_is_total_on_json(value):
    """Any JSON value as the config gives a documented exit code."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "config.json"
        path.write_text(json.dumps(value))
        assert cli.main(["validate", "--config", str(path)]) in (0, 2, 3, 4)


TRAIN = {"learning_rate": 0.1, "momentum": 0.9, "weight_decay": 0.0, "batch_size": 8,
         "milestones": [], "gamma": 1.0, "shuffle_seed": 0}
TINY_CONFIG = {
    "dataset": {"source": "synth", "kind": "gaussianBlobs", "per_class": 8,
                "test_per_class": 4, "noise": 0.6, "seed": 0},
    "model": {"architecture": "mlp", "input_shape": [2], "num_classes": 3, "hidden": [4],
              "channels": []},
    "method": "imp",
    "prune": {"desired_sparsity": 0.5, "amount": 0.2, "mask_train_epochs": 1,
              "finetune_epochs": 1, "rewind_epoch": 0, "scope": "global",
              "mask_train": TRAIN, "finetune": TRAIN},
    "seeds": [0],
    "distiller": {"kind": "kmeansHerding", "ipc": 2, "iterations": 5, "seed": 0},
    "report": {"finetune_each": False, "lmc": False, "histograms": False,
               "lmc_points": 3, "threshold": 0.02, "num_bins": 4},
}


def field_paths(section, prefix=()):
    for key, value in section.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


# fields whose value sets the size of the work (epochs, example counts, widths
# and point counts), and the sections that hold them, draw small integers and,
# but for the epoch counts, which set how long prune trains, sizes at and past
# numpy's largest array; all top-level fields draw small integers only
SIZE_FIELDS = {"mask_train_epochs", "finetune_epochs", "per_class", "test_per_class",
               "num_classes", "input_shape", "hidden", "channels", "lmc_points",
               "num_bins", "ipc", "iterations", "mask_train", "finetune"}
EPOCH_FIELDS = {"mask_train_epochs", "finetune_epochs"}
HUGE = st.sampled_from([2**59, 2**60, 2**63, 10**19])


def mutated_values(path):
    """The values the property sets the field at `path` to."""
    if len(path) > 1 and path[-1] not in SIZE_FIELDS:
        return json_values
    if len(path) == 1 or path[-1] in EPOCH_FIELDS:
        return json_of(st.integers(-2, 6))
    return HUGE | json_of(st.integers(-2, 6) | HUGE)  # a scalar size, drawn often


MUTATIONS = st.sampled_from(sorted(field_paths(TINY_CONFIG))).flatmap(
    lambda path: st.tuples(st.just(path), mutated_values(path)))


@settings(max_examples=100, deadline=None)
@given(mutation=MUTATIONS)
@example(mutation=(("report", "lmc_points"), 2**60))
@example(mutation=(("report", "num_bins"), 10**19))
def test_prune_is_total_on_one_mutated_field(mutation):
    """A tiny valid config, with the LMC curve and histograms on, with any
    one field set to any JSON value: prune returns a documented exit code
    and raises nothing."""
    path, value = mutation
    raw = json.loads(json.dumps(TINY_CONFIG))
    raw["report"].update(lmc=True, histograms=True)
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with tempfile.TemporaryDirectory() as d:
        config = Path(d) / "config.json"
        config.write_text(json.dumps(raw))
        code = cli.main(["prune", "--config", str(config), "--out", str(Path(d) / "out")])
    assert code in (0, 2, 3, 4)


def assert_close(got, want, where="summary"):
    """The same structure, strings and integers, and each float within a
    relative 1e-10 of the one in `want`."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=1e-10), \
            (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


PRUNE_RUNS = st.fixed_dictionaries({
    "method": st.sampled_from(cli.METHODS),
    "seeds": st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True),
    "scope": st.sampled_from(["global", "layerwise"]),
    "mask_train_epochs": st.integers(1, 2), "finetune_epochs": st.integers(1, 2),
    "finetune_each": st.booleans()})


@settings(max_examples=40, deadline=None)
@given(run=PRUNE_RUNS)
def test_report_inverts_prune(run):
    """The summary report rebuilds from iterations.csv is the one prune
    wrote: levels, seeds and best seeds exactly, every other number to a
    relative 1e-10 (the CSV keeps 12 significant digits)."""
    raw = json.loads(json.dumps(TINY_CONFIG))
    raw.update(method=run["method"], seeds=run["seeds"])
    raw["prune"].update({key: run[key] for key in
                         ("scope", "mask_train_epochs", "finetune_epochs")})
    raw["report"]["finetune_each"] = run["finetune_each"]
    with tempfile.TemporaryDirectory() as d:
        config, out = Path(d) / "config.json", Path(d) / "out"
        config.write_text(json.dumps(raw))
        assert cli.main(["prune", "--config", str(config), "--out", str(out)]) == 0
        written = json.loads((out / "summary.json").read_text())
        assert_close(cli.rebuild_summary(out), written)


class TestRunExperiment:
    def test_byte_deterministic_reports(self, tmp_path):
        path = write_config(tmp_path, overrides={
            "report": {"finetune_each": True, "lmc": True, "histograms": True}})
        config = cli.ExperimentConfig.load(path)
        cli.run_experiment(config, tmp_path / "a")
        cli.run_experiment(config, tmp_path / "b")
        for name in ("iterations.csv", "lmc.csv", "hist_fc1.csv", "hist_fc2.csv"):
            a = (tmp_path / "a" / name).read_text()
            b = (tmp_path / "b" / name).read_text()
            assert cli.strip_timing_columns(a) == cli.strip_timing_columns(b), name

    def test_iterations_schema(self, tmp_path):
        path = write_config(tmp_path)
        config = cli.ExperimentConfig.load(path)
        cli.run_experiment(config, tmp_path / "out")
        lines = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
        assert lines[0] == ("method,seed,iteration,sparsity,test_accuracy,"
                            "mask_phase_seconds,finetune_seconds")
        assert lines[0].split(",") == list(cli.ITERATIONS_HEADER)
        assert len(lines) > 2

    def test_summary_recomputable_from_csv(self, tmp_path):
        path = write_config(tmp_path)
        config = cli.ExperimentConfig.load(path)
        summary = cli.run_experiment(config, tmp_path / "out")
        rebuilt = cli.rebuild_summary(tmp_path / "out")
        assert rebuilt["levels"] == summary["levels"]

    def test_method_override(self, tmp_path):
        path = write_config(tmp_path)
        config = cli.ExperimentConfig.load(path, method="random", seeds=[0])
        summary = cli.run_experiment(config, tmp_path / "out")
        assert summary["method"] == "random" and summary["seeds"] == [0]

    @pytest.mark.parametrize("distiller", [
        {"kind": "classMean"}, {"kind": "random", "ipc": 2},
        {"kind": "kmeansHerding", "ipc": 2}, {"kind": "external", "path": "d.dstl"}])
    def test_dropped_config_frees_its_data_without_the_cyclic_gc(self, tmp_path, distiller):
        # a config is no reference cycle, so its sets go with its last reference
        tl.save_distilled(tl.distill_class_mean(tl.synth_dataset(
            "gaussianBlobs", 3, 4, 0.6, seed=0)), tmp_path / "d.dstl")
        config = cli.ExperimentConfig.load(write_raw(
            tmp_path, {**with_section("distiller", distiller), "method": "distilled"}))
        assert config.distilled().size in (3, 6)
        train = weakref.ref(config.train)
        gc.disable()
        try:
            del config
            assert train() is None
        finally:
            gc.enable()

    def test_lf_line_endings(self, tmp_path):
        path = write_config(tmp_path)
        config = cli.ExperimentConfig.load(path)
        cli.run_experiment(config, tmp_path / "out")
        blob = (tmp_path / "out" / "iterations.csv").read_bytes()
        assert b"\r" not in blob


def diverge_at(monkeypatch, failing_seed):
    """Rebind engines.imp_run to diverge at `failing_seed` and run as it did at others."""
    imp_run = engines.imp_run

    def diverging(*args, seed, **kwargs):
        if seed == failing_seed:
            raise nn.TrainingDiverged(1, 0, float("nan"), 0.1, None)
        return imp_run(*args, seed=seed, **kwargs)

    monkeypatch.setattr(engines, "imp_run", diverging)


class TestPartialRun:
    """A prune that fails keeps what its finished seeds wrote: their masks
    and their rows of iterations.csv, which report summarizes."""

    @staticmethod
    def prune(tmp_path, out, seeds, **report):
        path = write_config(tmp_path, {"seeds": seeds,
                                       "report": {**BASE_CONFIG["report"], **report}})
        return cli.main(["prune", "--config", str(path), "--out", str(out)])

    def test_failed_run_keeps_the_finished_seeds(self, tmp_path, monkeypatch, capsys):
        full, partial = tmp_path / "full", tmp_path / "partial"
        assert self.prune(tmp_path, full, [0, 1]) == 0
        tables, atomic_write_text = [], cli.atomic_write_text

        def counting(path, text):
            if os.path.basename(path) == "iterations.csv":
                tables.append(path)
            atomic_write_text(path, text)

        monkeypatch.setattr(cli, "atomic_write_text", counting)
        diverge_at(monkeypatch, 2)
        assert self.prune(tmp_path, partial, [0, 1, 2]) == cli.EXIT_RUNTIME
        assert len(tables) == 2  # one per finished seed
        masks = [f"mask_imp_seed{seed}{suffix}" for seed in (0, 1)
                 for suffix in (".mask", ".mask.json")]
        # no mask of seed 2 and no summary.json
        assert sorted(p.name for p in partial.iterdir()) == sorted(["iterations.csv", *masks])
        for name in masks:
            assert (partial / name).read_bytes() == (full / name).read_bytes(), name
        table, want = (cli.strip_timing_columns((out / "iterations.csv").read_text())
                       for out in (partial, full))
        assert table == want
        capsys.readouterr()
        assert cli.main(["report", "--out", str(partial)]) == 0
        rebuilt = json.loads(capsys.readouterr().out)
        written = json.loads((full / "summary.json").read_text())
        assert rebuilt["seeds"] == written["seeds"] == [0, 1]
        assert rebuilt["levels"] == written["levels"]

    def test_failure_in_the_first_seed_writes_nothing(self, tmp_path, monkeypatch):
        diverge_at(monkeypatch, 0)
        assert self.prune(tmp_path, tmp_path / "out", [0, 1, 2]) == cli.EXIT_RUNTIME
        assert not (tmp_path / "out").exists()

    def test_failed_rerun_leaves_no_earlier_summary(self, tmp_path, monkeypatch):
        # else report would merge the earlier run's lmc into the partial table's summary
        out = tmp_path / "out"
        assert self.prune(tmp_path, out, [0, 1], lmc=True, lmc_points=3) == 0
        assert "lmc" in json.loads((out / "summary.json").read_text())
        diverge_at(monkeypatch, 2)
        assert self.prune(tmp_path, out, [0, 1, 2], lmc=True,
                          lmc_points=3) == cli.EXIT_RUNTIME
        assert not (out / "summary.json").exists()
        assert cli.main(["report", "--out", str(out)]) == 0
        assert "lmc" not in json.loads((out / "summary.json").read_text())


class TestMaskFiles:
    def test_round_trip(self, tmp_path):
        spec = tl.ModelSpec("mlp", (4,), 2, hidden=(5,))
        params = tl.init_params(spec, 0)
        mask = tl.magnitude_prune(params, tl.SparsityMask.ones(params.layer_map),
                                  0.4)
        path = str(tmp_path / "m.mask")
        cli.save_mask(path, mask, method="imp", seed=7)
        loaded = cli.load_mask(path)
        assert np.array_equal(loaded.bits, mask.bits)
        assert loaded.layer_map == mask.layer_map

    def test_sidecar_is_auditable_json(self, tmp_path):
        spec = tl.ModelSpec("mlp", (4,), 2, hidden=(5,))
        params = tl.init_params(spec, 0)
        mask = tl.SparsityMask.ones(params.layer_map)
        path = str(tmp_path / "m.mask")
        cli.save_mask(path, mask, method="random", seed=3)
        sidecar = json.loads((tmp_path / "m.mask.json").read_text())
        assert sidecar["method"] == "random" and sidecar["seed"] == 3
        assert sidecar["sparsity"] == 0.0
        assert sidecar["layer_map"][0]["name"] == "fc1"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.mask"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(tl.FormatError):
            cli.load_mask(str(path))

    def saved_mask(self, tmp_path):
        spec = tl.ModelSpec("mlp", (6,), 2, hidden=(8,))  # 66 positions
        params = tl.init_params(spec, 0)
        mask = tl.magnitude_prune(params, tl.SparsityMask.ones(params.layer_map), 0.4)
        path = tmp_path / "m.mask"
        cli.save_mask(str(path), mask)
        return path

    @pytest.mark.parametrize("keep", [2, 6, 10, 16])
    def test_truncated_payload_rejected(self, tmp_path, keep):
        # 66 bits need 9 payload bytes after the 8-byte header; the text is
        # that of a truncated IDX or DSTL file
        path = self.saved_mask(tmp_path)
        path.write_bytes(path.read_bytes()[:keep])
        what = {2: "magic", 6: "bit count"}.get(keep, "payload")
        with pytest.raises(tl.FormatError, match=f"^truncated file while reading {what} "
                                                 f"in {re.escape(str(path))}$"):
            cli.load_mask(str(path))

    def test_trailing_payload_rejected(self, tmp_path):
        path = self.saved_mask(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(tl.FormatError, match=f"^trailing bytes in {re.escape(str(path))}$"):
            cli.load_mask(str(path))

    @pytest.mark.parametrize("edit", ["drop_last", "shift_offset", "no_length"])
    def test_sidecar_must_cover_mask(self, tmp_path, edit):
        path = self.saved_mask(tmp_path)
        sidecar_path = tmp_path / "m.mask.json"
        sidecar = json.loads(sidecar_path.read_text())
        if edit == "drop_last":
            sidecar["layer_map"].pop()
        elif edit == "shift_offset":
            sidecar["layer_map"][1]["offset"] += 1
        else:
            del sidecar["layer_map"][0]["length"]
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(tl.FormatError):
            cli.load_mask(str(path))


class TestSubcommands:
    def test_prune_emits_summary_line(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out"), "--seed", "0"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["seeds"] == [0]
        assert (tmp_path / "out" / "summary.json").exists()

    def test_distill_write_failure_leaves_no_file(self, tmp_path, monkeypatch):
        def full_disk(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        path = write_config(tmp_path, overrides={
            "distiller": {"kind": "kmeansHerding", "ipc": 3, "seed": 0}})
        out = tmp_path / "out"
        assert cli.main(["distill", "--config", str(path), "--out", str(out)]) == cli.EXIT_IO
        assert list(out.iterdir()) == []

    def test_distill_writes_dstl(self, tmp_path, capsys):
        path = write_config(tmp_path, overrides={
            "distiller": {"kind": "kmeansHerding", "ipc": 3, "seed": 0}})
        code = cli.main(["distill", "--config", str(path), "--out",
                         str(tmp_path / "out")])
        assert code == 0
        info = json.loads(capsys.readouterr().out.strip())
        loaded = tl.load_distilled(info["path"])
        assert loaded.ipc == 3 and loaded.num_classes == 3

    def test_distill_takes_no_seed_flag(self, tmp_path, capsys):
        # the distilled set depends on distiller.seed only
        path = write_config(tmp_path, overrides={"distiller": {"ipc": 3, "seed": 0}})
        with pytest.raises(SystemExit) as e:
            cli.main(["distill", "--config", str(path), "--out", str(tmp_path / "out"),
                      "--seed", "5"])
        assert e.value.code == cli.EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lmc_writes_curve(self, tmp_path, capsys):
        path = write_config(tmp_path, overrides={
            "report": {"finetune_each": False, "lmc": True}})
        code = cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out"), "--seed", "0"])
        assert code == 0
        result = json.loads(capsys.readouterr().out.strip())["lmc"]
        assert "error_barrier" in result
        lines = (tmp_path / "out" / "lmc.csv").read_text().splitlines()
        assert lines[0].split(",") == list(cli.LMC_HEADER)
        assert len(lines) == 22  # header + default 21 alpha points

    def test_weights_writes_histograms(self, tmp_path):
        path = write_config(tmp_path, overrides={
            "report": {"finetune_each": False, "histograms": True}})
        code = cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out")])
        assert code == 0
        # each seed's ratio is over its own initial weights and final mask;
        # seed 1's, not the first record's, is pinned bit for bit
        ratios = json.loads((tmp_path / "out" / "summary.json").read_text())[
            "survivor_magnitude_ratio"]
        assert sorted(ratios) == ["0", "1"] and ratios["0"] > 0
        assert ratios["1"] == 1.9312522404537524
        lines = (tmp_path / "out" / "hist_fc1.csv").read_text().splitlines()
        assert lines[0].split(",") == list(cli.HIST_HEADER)

    def test_report_rebuilds_summary(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == 0
        first = json.loads(capsys.readouterr().out.strip())
        assert cli.main(["report", "--out", str(tmp_path / "out")]) == 0
        rebuilt = json.loads(capsys.readouterr().out.strip())
        assert rebuilt["levels"] == first["levels"]

    def test_report_keeps_the_summary_keys(self, tmp_path, capsys):
        path = write_config(tmp_path, overrides={
            "report": {"finetune_each": False, "lmc": True, "lmc_points": 3,
                       "histograms": True}})
        out = tmp_path / "out"
        assert cli.main(["prune", "--config", str(path), "--out", str(out)]) == 0
        written = json.loads((out / "summary.json").read_text())
        assert cli.main(["report", "--out", str(out)]) == 0
        rebuilt = json.loads((out / "summary.json").read_text())
        assert rebuilt == json.loads(capsys.readouterr().out.splitlines()[-1])
        assert rebuilt.keys() == written.keys()
        for key in ("schema_version", "method", "seeds", "lmc", "survivor_magnitude_ratio"):
            assert rebuilt[key] == written[key], key
        assert rebuilt["final_sparsity"] == pytest.approx(written["final_sparsity"],
                                                          rel=1e-11)
        for seed, times in written["time_to_mask_seconds"].items():
            assert rebuilt["time_to_mask_seconds"][seed] == pytest.approx(times, rel=1e-11)

    @pytest.mark.parametrize("kept", ['{"lmc": {"error_barrier": 1e999}}',
                                      '{"lmc": {"error_barrier": NaN}}', '{"x": -Infinity}'])
    def test_report_replaces_a_kept_summary_that_is_not_finite(self, tmp_path, kept):
        # json.load reads all three, but no strict JSON reader can read them back
        (tmp_path / "iterations.csv").write_text(
            ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,0.5,0.25,0.5\n")
        (tmp_path / "summary.json").write_text(kept)
        assert cli.main(["report", "--out", str(tmp_path)]) == 0
        rebuilt = strict_json((tmp_path / "summary.json").read_text())
        assert rebuilt == cli.rebuild_summary(tmp_path)

    def test_report_splits_the_table_into_records(self, tmp_path):
        # imp seeds 0 and 1 (its iterations restart), then random seed 2
        (tmp_path / "iterations.csv").write_text(",".join(cli.ITERATIONS_HEADER) + "\n" + "".join(
            row + "\n" for row in ["imp,0,1,0.2,0.5,0.25,0.5", "imp,0,2,0.36,0.75,0.25,0.5",
                                    "imp,1,1,0.2,,0.5,", "random,2,1,0.2,1,0,0.5"]))
        summary = cli.rebuild_summary(tmp_path)
        assert summary["method"] == "imp,random" and summary["seeds"] == [0, 1, 2]
        assert summary["final_sparsity"] == 0.36
        assert summary["time_to_mask_seconds"] == {
            "0": {"mask_only": 0.5, "with_final_retrain": 1.0},
            "1": {"mask_only": 0.5, "with_final_retrain": 0.5},
            "2": {"mask_only": 0.0, "with_final_retrain": 0.5}}
        assert [(lv["sparsity"], lv["mean_accuracy"]) for lv in summary["levels"]] == [
            (0.2, 0.75), (0.36, 0.75)]

    def test_repeated_seed_flag_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path)
        argv = ["prune", "--config", str(path), "--out", str(tmp_path / "out")]
        assert cli.main(argv + ["--seed", "0", "--seed", "0"]) == cli.EXIT_CONFIG
        assert "distinct" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method,rewind_epoch", [("imp", 0), ("imp", 1),
                                                     ("distilled", 1), ("random", 1)])
    def test_lmc_twins_start_at_the_rewind_point(self, tmp_path, monkeypatch, method,
                                                 rewind_epoch):
        # IMP finetunes from its epoch-k snapshot; the other engines from init
        path = write_config(tmp_path, rewind_epoch=rewind_epoch, overrides={
            "method": method, "distiller": {"ipc": 3},
            "report": {"finetune_each": False, "lmc": True}})
        config = cli.ExperimentConfig.load(path)
        theta = nn.init_params(config.spec, 0)
        if method == "imp":
            snaps = {rewind_epoch: None}
            nn.train(config.spec, theta, tl.SparsityMask.ones(theta.layer_map), config.train,
                     config.cfg.train_config_mask, snapshots=snaps)
            theta = snaps[rewind_epoch]
        starts, train_twin = [], tl.analysis.train_twin

        def recording(spec, start, *args):
            starts.append(start)
            return train_twin(spec, start, *args)

        monkeypatch.setattr(tl.analysis, "train_twin", recording)
        assert cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out"), "--seed", "0"]) == 0
        assert [s.values.tobytes() for s in starts] == [theta.values.tobytes()]

    def test_invalid_config_exit_code(self, tmp_path):
        path = write_config(tmp_path, amount=5.0)
        assert cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == cli.EXIT_CONFIG

    def test_unreachable_sparsity_is_runtime_error(self, tmp_path, capsys):
        # 50 weights: an iteration that leaves 4 survivors prunes none of them
        path = write_config(tmp_path, desired_sparsity=0.99)
        assert cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("runtime failure: sparsity 0.9200 after ")

    @pytest.mark.parametrize("body", [
        "",
        ",".join(cli.ITERATIONS_HEADER) + "\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,zero,1,0.2,0.9,0.1,0.1\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,,0.1,\nimp,0,2,0.1,,0.1,\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,,-1,\n",
        "method,seed,sparsity,test_accuracy\nimp,0,0.2,0.5\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,nan,,0.1,\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,,0.1,\nimp,0,2,inf,,0.1,\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,,nan,\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,7.5,0.1,0.1\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,1.7,,0.1,\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,0.5,0.1,-3\n",
        ",".join(cli.ITERATIONS_HEADER).encode() + b"\nimp,0,1,0.2,\xff,0.1,\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,,0.1,\nimp,1,1,0.2,,0.1,\n"
        "imp,0,1,0.2,,0.1,\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,,0.1,\nrandom,0,1,0.2,,0.1,\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,,0.1,\nimp,0,1,0.2,,0.1,\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,,1e308,\nimp,0,2,0.3,0.5,1e308,0\n",
    ], ids=["empty", "header_only", "bad_seed", "short_row", "sparsity_falls",
            "negative_seconds", "no_iteration_column", "nan_sparsity", "inf_sparsity",
            "nan_seconds", "accuracy_above_one", "sparsity_above_one",
            "negative_finetune_seconds", "not_utf8", "repeated_seed",
            "seed_under_two_methods", "iteration_repeats", "seconds_sum_to_inf"])
    def test_report_on_bad_iterations_is_io_error(self, tmp_path, capsys, body):
        if isinstance(body, str):
            body = body.encode()
        (tmp_path / "iterations.csv").write_bytes(body)
        assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("i/o failure:")
        assert not (tmp_path / "summary.json").exists()

    def test_divergence_names_learning_rate(self, tmp_path, capsys):
        path = write_config(tmp_path, mask_train={"learning_rate": 1e20, "batch_size": 32,
                                                  "milestones": [1], "gamma": 0.5})
        code = cli.main(["prune", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: non-finite loss")
        assert "learning rate 5e+19" in err and "last finite loss" in err

    @pytest.mark.parametrize("phase,named", [("finetune", "finetune"),
                                             ("mask_train", "mask training")])
    def test_divergence_names_seed_iteration_and_phase(self, tmp_path, capsys, phase, named):
        path = write_config(tmp_path, overrides={"seeds": [5]},
                            **{phase: {"learning_rate": 1e200, "batch_size": 32}})
        code = cli.main(["prune", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: non-finite loss")
        assert err.endswith(f"(seed 5, iteration 1, {named})\n")

    def test_refused_allocation_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        # 10**15 examples per class fit numpy's index, so numpy refuses their
        # memory: the rebound generator refuses it without allocating
        def refuse(*args):
            raise MemoryError("Unable to allocate 21.3 PiB")

        monkeypatch.setattr(tl.data, "synth_dataset", refuse)
        path = write_config(tmp_path, overrides={"dataset": {**BASE_CONFIG["dataset"],
                                                             "per_class": 10**15}})
        assert cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == cli.EXIT_RUNTIME
        # refused before the loop, the message is numpy's alone
        assert capsys.readouterr().err == "runtime failure: Unable to allocate 21.3 PiB\n"

    def test_refused_allocation_names_seed_iteration_and_phase(self, tmp_path, capsys,
                                                               monkeypatch):
        def refuse(*args):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(engines, "train", refuse)
        path = write_config(tmp_path, overrides={"seeds": [5]})
        assert cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == ("runtime failure: Unable to allocate 1.00 TiB "
                                           "(seed 5, iteration 1, mask training)\n")

    @pytest.mark.parametrize("section,values,named", [
        ("dataset", {"per_class": 10**18}, "dataset.per_class 10"),
        ("dataset", {"test_per_class": 10**18}, "dataset.test_per_class 10"),
        ("dataset", {"per_class": 10**19}, "dataset.per_class 10"),
        ("model", {"hidden": [10**19]}, "model: "),
        ("model", {"hidden": [2**62]}, "model: "),
        ("report", {"lmc": True, "lmc_points": 2**60}, f"report.lmc_points: num_points {2**60}"),
        ("report", {"lmc": True, "lmc_points": 10**19}, f"report.lmc_points: num_points {10**19}"),
        ("report", {"histograms": True, "num_bins": 10**19},
         f"report.num_bins: num_bins {10**19}"),
    ], ids=["per_class", "test_per_class", "per_class_past_int64", "hidden_past_int64",
            "hidden_wraps_in_int64", "lmc_points", "lmc_points_past_int64",
            "num_bins_past_int64"])
    def test_sizes_past_numpy_largest_array_are_config_errors(self, tmp_path, capsys,
                                                             section, values, named):
        # each is refused from the config, before numpy is asked for an array
        path = write_config(tmp_path, overrides={section: {**BASE_CONFIG[section], **values}})
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
        [diagnostic] = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostic.startswith(named) and "numpy's largest array" in diagnostic
        assert cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {diagnostic}\n"
        assert not (tmp_path / "out").exists()

    # each rule is stated by the library function that uses the value; the
    # config build runs it, and its diagnostic names the key, then the rule
    @pytest.mark.parametrize("overrides,diagnostic", [
        ({"dataset": {**BASE_CONFIG["dataset"], "test_per_class": 0}},
         "dataset.test_per_class must be an integer >= 1"),
        ({"report": {"lmc": True, "lmc_points": 1}},
         "report.lmc_points: num_points must be an integer >= 2, got 1"),
        ({"report": {"histograms": True, "num_bins": 0}},
         "report.num_bins: num_bins must be an integer >= 1, got 0"),
        ({"distiller": {"ipc": 0}}, "distiller.ipc must be an integer >= 1, got 0"),
        ({"distiller": {"seed": -1}}, "distiller.seed must be an integer >= 0"),
        ({"distiller": {"iterations": -1}},
         "distiller.iterations must be an integer >= 0, got -1"),
        ({"distiller": {"ipc": 99}, "method": "distilled"},
         "distiller.ipc 99 exceeds the smallest class, of 60 examples"),
    ], ids=["test_per_class", "lmc_points", "num_bins", "ipc", "seed", "iterations",
            "ipc_past_smallest_class"])
    def test_each_rule_names_its_key_then_its_owners_text(self, tmp_path, capsys, overrides,
                                                          diagnostic):
        path = write_config(tmp_path, overrides=overrides)
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
        assert json.loads(capsys.readouterr().out) == {"diagnostics": [diagnostic]}
        assert cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {diagnostic}\n"
        assert not (tmp_path / "out").exists()

    def test_class_size_bounds_ipc_only_when_the_run_distills(self, tmp_path):
        path = write_config(tmp_path, overrides={"distiller": {"ipc": 99}})
        assert cli.validate_config(path) == []
        assert cli.main(["prune", "--config", str(path), "--method", "distilled", "--out",
                         str(tmp_path / "out")]) == cli.EXIT_CONFIG
        # and on an ipc read without fault: a faulty one reads as its default, 10
        path = write_config(tmp_path, overrides={
            "method": "distilled", "distiller": {"ipc": 2.5, "seed": -1},
            "dataset": {**BASE_CONFIG["dataset"], "per_class": 8}})
        assert cli.validate_config(path) == ["distiller.ipc must be an integer",
                                             "distiller.seed must be an integer >= 0"]

    # 50 prunable weights reach 0.5 in 4 iterations; without finetune_each,
    # the first evaluation is the last iteration's
    @pytest.mark.parametrize("report,iteration", [(BASE_CONFIG["report"], 1),
                                                  ({"finetune_each": False, "lmc": True}, 4)],
                             ids=["prune", "lmc"])
    def test_non_finite_logits_are_runtime_error(self, tmp_path, capsys, monkeypatch,
                                                 report, iteration):
        # evaluation inputs that overflow the network: the chain, run
        # without a tape, raises FloatingPointError on the non-finite logits
        chain = nn._forward
        monkeypatch.setattr(nn, "_forward", lambda layers, effective, batch, tape=None:
                            chain(layers, effective,
                                  batch * np.inf if tape is None else batch, tape))
        path = write_config(tmp_path, overrides={"report": report})
        code = cli.main(["prune", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: non-finite logits")
        assert err.count("\n") == 1
        assert err.endswith(f"(seed 0, iteration {iteration}, evaluation)\n")


class TestConfigPaths:
    """Relative data paths are taken from the config file's directory,
    whatever the working directory."""

    def config_dir(self, tmp_path, monkeypatch, **sections):
        cfg_dir, elsewhere = tmp_path / "cfg", tmp_path / "elsewhere"
        cfg_dir.mkdir()
        elsewhere.mkdir()
        ds = tl.synth_dataset("gaussianBlobs", 3, 20, 0.6, seed=0, input_shape=(3, 3))
        tl.write_idx(tl.LabeledDataset(np.clip(ds.examples / 3 + 0.5, 0, 1),
                                       ds.labels, 3), cfg_dir / "im.idx", cfg_dir / "lb.idx")
        raw = with_model(input_shape=[3, 3])
        raw["dataset"] = {"source": "idx", "images": "im.idx", "labels": "lb.idx",
                          "test_images": "im.idx", "test_labels": "lb.idx"}
        raw["seeds"] = [0]
        raw.update(sections)
        (cfg_dir / "config.json").write_text(json.dumps(raw))
        monkeypatch.chdir(elsewhere)
        return cfg_dir

    def test_idx_paths(self, tmp_path, monkeypatch):
        cfg_dir = self.config_dir(tmp_path, monkeypatch)
        config = str(cfg_dir / "config.json")
        assert cli.main(["validate", "--config", config]) == 0
        assert cli.main(["prune", "--config", config, "--out", "out"]) == 0
        assert (tmp_path / "elsewhere" / "out" / "iterations.csv").exists()

    def test_cwd_relative_path_is_not_found(self, tmp_path, monkeypatch):
        cfg_dir = self.config_dir(tmp_path, monkeypatch)
        (tmp_path / "elsewhere" / "cfg").symlink_to(cfg_dir)
        raw = json.loads((cfg_dir / "config.json").read_text())
        raw["dataset"]["images"] = "cfg/im.idx"
        (cfg_dir / "config.json").write_text(json.dumps(raw))
        diags = cli.validate_config(cfg_dir / "config.json")
        assert diags == ["dataset.images file not found: cfg/im.idx"]

    def test_external_distiller_path(self, tmp_path, monkeypatch, capsys):
        cfg_dir = self.config_dir(tmp_path, monkeypatch, method="distilled",
                                  distiller={"kind": "external", "path": "d.dstl"})
        train = tl.load_idx(cfg_dir / "im.idx", cfg_dir / "lb.idx")
        tl.save_distilled(tl.distill_class_mean(train), cfg_dir / "d.dstl")
        config = str(cfg_dir / "config.json")
        assert cli.main(["validate", "--config", config]) == 0
        assert cli.main(["prune", "--config", config, "--out", "out"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["method"] == "distilled"

    @pytest.mark.parametrize("classes,shape,problem", [
        (4, (3, 3), "labels out of range: 0..3 for num_classes 3"),
        (3, (2, 2), "batch shape (2, 2) does not match input shape (3, 3)"),
    ], ids=["labels", "shape"])
    def test_external_distilled_set_must_fit_model(self, tmp_path, monkeypatch, capsys,
                                                   classes, shape, problem):
        # the IDX data fit the 3-class (3, 3) model; the external set does not
        cfg_dir = self.config_dir(tmp_path, monkeypatch, method="distilled",
                                  distiller={"kind": "external", "path": "d.dstl"})
        other = tl.synth_dataset("gaussianBlobs", classes, 5, 0.5, seed=0, input_shape=shape)
        tl.save_distilled(tl.distill_class_mean(other), cfg_dir / "d.dstl")
        config = str(cfg_dir / "config.json")
        assert self.assert_config_error(
            capsys, ["prune", "--config", config, "--out", "out"],
            tmp_path / "elsewhere" / "out") == f"config error: distiller.path: {problem}\n"
        assert cli.validate_config(config) == [f"distiller.path: {problem}"]

    def assert_config_error(self, capsys, argv, out_dir):
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert not out_dir.exists()
        return err

    @pytest.mark.parametrize("model,key,problem", [
        pytest.param({"num_classes": 2}, "labels",  # labels reach class 2
                     "labels out of range: 0..2 for num_classes 2",
                     id="model0-dataset.num_classes"),
        pytest.param({"input_shape": [4, 4]}, "images",  # images are 3x3
                     "batch shape (3, 3) does not match input shape (4, 4)",
                     id="model1-dataset.input_shape"),
    ])
    def test_idx_data_must_fit_model(self, tmp_path, monkeypatch, capsys, model, key,
                                     problem):
        # the train and test sets are the same files: each key is named
        cfg_dir = self.config_dir(tmp_path, monkeypatch, model={
            **with_model(input_shape=[3, 3])["model"], **model})
        config = str(cfg_dir / "config.json")
        diagnostics = [f"dataset.{key}: {problem}", f"dataset.test_{key}: {problem}"]
        assert self.assert_config_error(
            capsys, ["prune", "--config", config, "--out", "out"],
            tmp_path / "elsewhere" / "out") == f"config error: {'; '.join(diagnostics)}\n"
        assert cli.validate_config(config) == diagnostics

    @pytest.mark.parametrize("classes", [3, 2])
    def test_test_labels_may_reach_classes_training_lacks(self, tmp_path, monkeypatch,
                                                          capsys, classes):
        # training labels 0..1, test labels 0..2: the model must take 3 classes
        cfg_dir = self.config_dir(tmp_path, monkeypatch, model={
            **with_model(input_shape=[3, 3])["model"], "num_classes": classes})
        full = tl.load_idx(cfg_dir / "im.idx", cfg_dir / "lb.idx")
        two = full.labels < 2
        tl.write_idx(tl.LabeledDataset(full.examples[two], full.labels[two], 2),
                     cfg_dir / "im2.idx", cfg_dir / "lb2.idx")
        raw = json.loads((cfg_dir / "config.json").read_text())
        raw["dataset"].update(images="im2.idx", labels="lb2.idx")
        (cfg_dir / "config.json").write_text(json.dumps(raw))
        argv = ["prune", "--config", str(cfg_dir / "config.json"), "--out", "out"]
        if classes == 3:
            assert cli.main(argv) == 0
        else:
            assert self.assert_config_error(capsys, argv, tmp_path / "elsewhere" / "out") == (
                "config error: dataset.test_labels: labels out of range: 0..2 for "
                "num_classes 2\n")

    def test_idx_ipc_checked_against_smallest_class(self, tmp_path, monkeypatch, capsys):
        # 20 examples per class
        cfg_dir = self.config_dir(tmp_path, monkeypatch, distiller={"ipc": 21})
        config = str(cfg_dir / "config.json")
        assert cli.main(["validate", "--config", config]) == 0
        assert "distiller.ipc" in self.assert_config_error(
            capsys, ["prune", "--config", config, "--method", "distilled", "--out", "out"],
            tmp_path / "elsewhere" / "out")

    @pytest.mark.parametrize("command", ["prune", "distill"])
    def test_distilling_run_checks_ipc(self, tmp_path, capsys, command):
        # method imp, no distiller section: the default ipc 10 is more than 5
        path = write_raw(tmp_path, with_dataset(per_class=5))
        assert cli.validate_config(path) == []
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        argv += ["--method", "distilled"] if command == "prune" else []
        assert "distiller.ipc" in self.assert_config_error(capsys, argv, tmp_path / "out")

    @pytest.mark.parametrize("name", ["ipc_zero", "label_out_of_range", "non_finite",
                                      "unequal_classes", "empty_class", "unknown_provenance"])
    def test_rejected_external_contents_are_io_errors(self, tmp_path, monkeypatch,
                                                      capsys, name):
        from test_data import BAD_DSTL_CONTENTS
        cfg_dir = self.config_dir(tmp_path, monkeypatch, method="distilled",
                                  distiller={"kind": "external", "path": "d.dstl"})
        (cfg_dir / "d.dstl").write_bytes(BAD_DSTL_CONTENTS[name])
        assert cli.main(["prune", "--config", str(cfg_dir / "config.json"),
                         "--out", "out"]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("i/o failure:")

    @pytest.mark.parametrize("key", ["images", "test_labels"])
    def test_truncated_idx_file_is_named(self, tmp_path, monkeypatch, capsys, key):
        # each key names its own copy of the files; only `key`'s loses 2 bytes
        cfg_dir = self.config_dir(tmp_path, monkeypatch)
        raw = json.loads((cfg_dir / "config.json").read_text())
        for name, path in raw["dataset"].items():
            if name != "source":
                (cfg_dir / f"{name}.idx").write_bytes((cfg_dir / path).read_bytes())
                raw["dataset"][name] = f"{name}.idx"
        (cfg_dir / "config.json").write_text(json.dumps(raw))
        short = cfg_dir / f"{key}.idx"
        short.write_bytes(short.read_bytes()[:-2])
        for command in ["validate", "prune"]:
            assert cli.main([command, "--config", str(cfg_dir / "config.json")]) == cli.EXIT_IO
            assert capsys.readouterr().err == (
                f"i/o failure: truncated file while reading payload in {short}\n")


class TestEngineCalls:
    """The CLI reaches each engine through its module attribute at call
    time, so a function bound there in its place is the one that runs."""

    # The lmc and weights rows are the prune runs that replace those commands.
    @pytest.mark.parametrize("argv,report,seeds", [
        (["prune"], {}, [0, 1]),
        (["prune", "--seed", "0"], {"finetune_each": False, "lmc": True}, [0]),
        (["prune", "--seed", "0"], {"finetune_each": False, "histograms": True}, [0])],
        ids=["prune-seeds0", "lmc-seeds1", "weights-seeds2"])
    def test_imp_run_called_per_seed(self, tmp_path, monkeypatch, argv, report, seeds):
        calls = []
        imp_run = engines.imp_run

        def counting(*args, seed, **kwargs):
            calls.append(seed)
            return imp_run(*args, seed=seed, **kwargs)

        monkeypatch.setattr(engines, "imp_run", counting)
        path = write_config(tmp_path, {"report": {**BASE_CONFIG["report"], **report}})
        assert cli.main(argv + ["--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert calls == seeds


def test_docs_name_the_parser_subcommands():
    """The README's CLI block and cli's docstring list exactly the parser's
    subcommands."""
    sub, = (a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = sorted(sub.choices)
    assert commands == ["distill", "prune", "report", "validate"]
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert sorted(line.split()[1] for line in block.splitlines()
                  if line.startswith("ticketlab ")) == commands
    listed = re.search(r"Subcommands: ([^.]+)\.", cli.__doc__).group(1)
    assert sorted(listed.replace("\n", " ").split(", ")) == commands


@pytest.mark.parametrize("command", ["lmc", "weights"])
def test_reports_are_no_subcommands(tmp_path, capsys, command):
    # the LMC curve and the histograms are report options of prune
    with pytest.raises(SystemExit) as e:
        cli.main([command, "--config", str(write_config(tmp_path)),
                  "--out", str(tmp_path / "out")])
    assert e.value.code == cli.EXIT_CONFIG
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A small valid run on IDX files with an external distilled set, and the
# inputs each command reads; report reads the table and summary of a run.
CORRUPT_CONFIG = {
    "dataset": {"source": "idx", "images": "im.idx", "labels": "lb.idx"},
    "model": {"architecture": "mlp", "input_shape": [2, 2], "num_classes": 3, "hidden": [4]},
    "prune": {"desired_sparsity": 0.5, "amount": 0.3, "mask_train_epochs": 1,
              "finetune_epochs": 1, "mask_train": {"batch_size": 8},
              "finetune": {"batch_size": 8}},
    "seeds": [0],
    "distiller": {"kind": "external", "path": "d.dstl"},
    "report": {"finetune_each": False, "lmc": True, "lmc_points": 3, "histograms": True,
               "num_bins": 4},
}
DATA_INPUTS = ["config.json", "im.idx", "lb.idx", "d.dstl"]
READS = {"validate": DATA_INPUTS, "distill": DATA_INPUTS, "prune": DATA_INPUTS,
         "report": ["run/iterations.csv", "run/summary.json"]}


@cache
def pristine_inputs(method):
    """{relative path: bytes} of every input, for a config of `method`."""
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        ds = tl.synth_dataset("gaussianBlobs", 3, 8, 0.6, seed=0, input_shape=(2, 2))
        tl.write_idx(tl.LabeledDataset(np.clip(ds.examples / 3 + 0.5, 0, 1), ds.labels, 3),
                     root / "im.idx", root / "lb.idx")
        tl.save_distilled(tl.distill_class_mean(tl.load_idx(root / "im.idx", root / "lb.idx")),
                          root / "d.dstl")
        (root / "config.json").write_text(json.dumps({**CORRUPT_CONFIG, "method": method}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["prune", "--config", str(root / "config.json"),
                             "--out", str(root / "run")]) == 0
        return {path: (root / path).read_bytes()
                for path in DATA_INPUTS + READS["report"]}


# one splice of one input the command reads: `length` bytes from `start`
# (modulo the file size plus one) replaced by `payload`
CORRUPTED_RUNS = st.fixed_dictionaries({
    "command": st.sampled_from(sorted(READS)), "method": st.sampled_from(cli.METHODS),
    "index": st.integers(0, 3), "start": st.integers(0, 1 << 12),
    "length": st.integers(0, 8) | st.just(1 << 30),
    "payload": st.binary(max_size=8) | st.sampled_from(
        [b"NaN", b"Infinity", b"1e999", b"-1", b"null", b"[]", b"\xff", b"9"])})
PREFIX = {cli.EXIT_RUNTIME: "runtime failure:", cli.EXIT_IO: "i/o failure:"}


@settings(max_examples=400, deadline=None)
@given(run=CORRUPTED_RUNS)
@example(run={"command": "report", "method": "imp", "index": 1, "start": 0,
              "length": 1 << 30, "payload": b'{"lmc": {"error_barrier": 1e999}}'})
def test_every_command_is_total_on_one_corrupted_input(run):
    """Any command on one corrupted input: a documented exit code, no
    exception, the documented prefix on a runtime or I/O failure, and, on
    success, strict JSON in every JSON file written and on stdout."""
    command, inputs = run["command"], READS[run["command"]]
    target = inputs[run["index"] % len(inputs)]
    with tempfile.TemporaryDirectory() as d:
        root = Path(d)
        (root / "run").mkdir()
        for path, blob in pristine_inputs(run["method"]).items():
            if path == target:
                start = run["start"] % (len(blob) + 1)
                blob = blob[:start] + run["payload"] + blob[start + run["length"]:]
            (root / path).write_bytes(blob)
        argv = [command, "--out", str(root / "run")] if command == "report" else [
            command, "--config", str(root / "config.json")]
        argv += ["--out", str(root / "out")] if command in ("distill", "prune") else []
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4)
        if code in PREFIX:
            assert stderr.getvalue().startswith(PREFIX[code]), stderr.getvalue()
        if code == 0:
            written = sorted((root / "out").rglob("*.json"))
            written += [root / "run" / "summary.json"] if command == "report" else []
            for path in written:
                strict_json(path.read_text(encoding="utf-8"))
            strict_json(stdout.getvalue())
