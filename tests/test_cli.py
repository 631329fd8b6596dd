import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ticketlab as tl
from ticketlab import cli, engines, nn


BASE_CONFIG = {
    "dataset": {"source": "synth", "kind": "gaussianBlobs", "num_classes": 3,
                "per_class": 60, "noise": 0.6, "seed": 0, "input_shape": [2]},
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


# well-typed sections from which no model can be built, or one the data
# does not fit
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
    ("dataset.num_classes", with_section("dataset", {**BASE_CONFIG["dataset"],
                                                     "num_classes": 4})),
    ("dataset.input_shape", with_section("dataset", {**BASE_CONFIG["dataset"],
                                                     "input_shape": [3]})),
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
    ("spirals", {**with_dataset(kind="spirals", input_shape=[3]),
                 "model": {**BASE_CONFIG["model"], "input_shape": [3]}}),
    ("at least 2 values", {**with_dataset(input_shape=[1]),
                           "model": {**BASE_CONFIG["model"], "input_shape": [1]}}),
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
INVALID = WRONG_TYPES + MODEL_CASES + RANGE_CASES + FLAG_AND_FINITE_CASES
INVALID_IDS = [f"{field}-{i}" for i, (field, _) in enumerate(INVALID)]
PRUNE_CASES = INVALID[:7] + MODEL_CASES + RANGE_CASES + FLAG_AND_FINITE_CASES
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

    @pytest.mark.parametrize("missing", ["num_classes", "per_class"])
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
                      "finetune_epochs", "iteration_cap", "learning_rate", "momentum",
                      "weight_decay", "batch_size", "gamma", "shuffle_seed", "ipc",
                      "iterations", "lmc_points", "threshold", "num_bins"})


def json_of(integers):
    """Any JSON value, with integers drawn from `integers`."""
    return st.recursive(
        st.none() | st.booleans() | integers | st.floats() | st.text(max_size=8)
        | st.sampled_from(["idx", "synth", "external", "gaussianBlobs", "imp",
                           "distilled", "random", "classMean", "spirals", "layerwise"]),
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
    "dataset": {"source": "synth", "kind": "gaussianBlobs", "num_classes": 3,
                "per_class": 8, "test_per_class": 4, "noise": 0.6, "seed": 0,
                "input_shape": [2]},
    "model": {"architecture": "mlp", "input_shape": [2], "num_classes": 3, "hidden": [4],
              "channels": []},
    "method": "imp",
    "prune": {"desired_sparsity": 0.5, "amount": 0.2, "mask_train_epochs": 1,
              "finetune_epochs": 1, "rewind_epoch": 0, "scope": "global",
              "iteration_cap": 40, "mask_train": TRAIN, "finetune": TRAIN},
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
# and point counts) and the sections that hold them draw only small integers;
# so do all top-level fields
SIZE_FIELDS = {"mask_train_epochs", "finetune_epochs", "per_class", "test_per_class",
               "num_classes", "input_shape", "hidden", "channels", "lmc_points",
               "num_bins", "ipc", "iterations", "mask_train", "finetune"}
MUTATIONS = st.sampled_from(sorted(field_paths(TINY_CONFIG))).flatmap(
    lambda path: st.tuples(st.just(path), json_of(st.integers(-2, 6))
                           if len(path) == 1 or path[-1] in SIZE_FIELDS else json_values))


@settings(max_examples=100, deadline=None)
@given(mutation=MUTATIONS)
def test_prune_is_total_on_one_mutated_field(mutation):
    """A tiny valid config with any one field set to any JSON value: prune
    returns a documented exit code and raises nothing."""
    path, value = mutation
    raw = json.loads(json.dumps(TINY_CONFIG))
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with tempfile.TemporaryDirectory() as d:
        config = Path(d) / "config.json"
        config.write_text(json.dumps(raw))
        with np.errstate(all="ignore"):
            code = cli.main(["prune", "--config", str(config), "--out", str(Path(d) / "out")])
    assert code in (0, 2, 3, 4)


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

    def test_lf_line_endings(self, tmp_path):
        path = write_config(tmp_path)
        config = cli.ExperimentConfig.load(path)
        cli.run_experiment(config, tmp_path / "out")
        blob = (tmp_path / "out" / "iterations.csv").read_bytes()
        assert b"\r" not in blob


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

    @pytest.mark.parametrize("keep", [6, 10, 16])
    def test_truncated_payload_rejected(self, tmp_path, keep):
        # 66 bits need 9 payload bytes after the 8-byte header
        path = self.saved_mask(tmp_path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(tl.FormatError):
            cli.load_mask(str(path))

    def test_trailing_payload_rejected(self, tmp_path):
        path = self.saved_mask(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(tl.FormatError):
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

    def test_lmc_writes_curve(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = cli.main(["lmc", "--config", str(path), "--out",
                         str(tmp_path / "out")])
        assert code == 0
        result = json.loads(capsys.readouterr().out.strip())
        assert "error_barrier" in result
        lines = (tmp_path / "out" / "lmc.csv").read_text().splitlines()
        assert lines[0].split(",") == list(cli.LMC_HEADER)
        assert len(lines) == 22  # header + default 21 alpha points

    def test_weights_writes_histograms(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = cli.main(["weights", "--config", str(path), "--out",
                         str(tmp_path / "out")])
        assert code == 0
        result = json.loads(capsys.readouterr().out.strip())
        assert result["survivor_magnitude_ratio"] > 0
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
            "report": {"finetune_each": False, "lmc": True, "lmc_points": 3}})
        out = tmp_path / "out"
        assert cli.main(["prune", "--config", str(path), "--out", str(out)]) == 0
        written = json.loads((out / "summary.json").read_text())
        assert cli.main(["report", "--out", str(out)]) == 0
        rebuilt = json.loads((out / "summary.json").read_text())
        assert rebuilt == json.loads(capsys.readouterr().out.splitlines()[-1])
        assert rebuilt.keys() == written.keys()
        for key in ("schema_version", "method", "seeds", "lmc"):
            assert rebuilt[key] == written[key], key
        assert rebuilt["final_sparsity"] == pytest.approx(written["final_sparsity"],
                                                          rel=1e-11)
        for seed, times in written["time_to_mask_seconds"].items():
            assert rebuilt["time_to_mask_seconds"][seed] == pytest.approx(times, rel=1e-11)

    def test_report_splits_the_table_into_records(self, tmp_path):
        # seed 0 twice (its iterations restart), then random seed 2
        (tmp_path / "iterations.csv").write_text(",".join(cli.ITERATIONS_HEADER) + "\n" + "".join(
            row + "\n" for row in ["imp,0,1,0.2,0.5,0.25,0.5", "imp,0,2,0.36,0.75,0.25,0.5",
                                    "imp,0,1,0.2,,0.5,", "random,2,1,0.2,1,0,0.5"]))
        summary = cli.rebuild_summary(tmp_path)
        assert summary["method"] == "imp,random" and summary["seeds"] == [0, 0, 2]
        assert summary["final_sparsity"] == 0.36
        assert summary["time_to_mask_seconds"] == {
            "0": {"mask_only": 0.5, "with_final_retrain": 0.5},
            "2": {"mask_only": 0.0, "with_final_retrain": 0.5}}
        assert [(lv["sparsity"], lv["mean_accuracy"]) for lv in summary["levels"]] == [
            (0.2, 0.75), (0.36, 0.75)]

    def test_invalid_config_exit_code(self, tmp_path):
        path = write_config(tmp_path, amount=5.0)
        assert cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == cli.EXIT_CONFIG

    def test_unreachable_sparsity_is_runtime_error(self, tmp_path):
        path = write_config(tmp_path, desired_sparsity=0.99,
                            **{"iteration_cap": 2})
        assert cli.main(["prune", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == cli.EXIT_RUNTIME

    @pytest.mark.parametrize("body", [
        "",
        ",".join(cli.ITERATIONS_HEADER) + "\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,zero,1,0.2,0.9,0.1,0.1\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,,0.1,\nimp,0,2,0.1,,0.1,\n",
        ",".join(cli.ITERATIONS_HEADER) + "\nimp,0,1,0.2,,-1,\n",
        "method,seed,sparsity,test_accuracy\nimp,0,0.2,0.5\n",
    ], ids=["empty", "header_only", "bad_seed", "short_row", "sparsity_falls",
            "negative_seconds", "no_iteration_column"])
    def test_report_on_bad_iterations_is_io_error(self, tmp_path, capsys, body):
        (tmp_path / "iterations.csv").write_text(body)
        assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("i/o failure:")
        assert not (tmp_path / "summary.json").exists()

    def test_divergence_names_learning_rate(self, tmp_path, capsys):
        path = write_config(tmp_path, mask_train={"learning_rate": 1e20, "batch_size": 32,
                                                  "milestones": [1], "gamma": 0.5})
        with np.errstate(all="ignore"):
            code = cli.main(["prune", "--config", str(path), "--out",
                             str(tmp_path / "out")])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: non-finite loss")
        assert "learning rate 5e+19" in err and "last finite loss" in err

    @pytest.mark.parametrize("command", ["prune", "lmc"])
    def test_non_finite_logits_are_runtime_error(self, tmp_path, capsys, monkeypatch,
                                                 command):
        # evaluation inputs that overflow the network: the real forward
        # raises FloatingPointError on the non-finite logits
        forward = nn.forward
        monkeypatch.setattr(nn, "forward", lambda spec, params, mask, batch:
                            forward(spec, params, mask, np.asarray(batch) * np.inf))
        path = write_config(tmp_path)
        with np.errstate(all="ignore"):
            code = cli.main([command, "--config", str(path), "--out",
                             str(tmp_path / "out")])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: non-finite logits")
        assert err.count("\n") == 1


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

    def assert_config_error(self, capsys, argv, out_dir):
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert not out_dir.exists()
        return err

    @pytest.mark.parametrize("model,field", [
        ({"num_classes": 2}, "dataset.num_classes"),        # labels reach class 2
        ({"input_shape": [4, 4]}, "dataset.input_shape"),   # images are 3x3
    ])
    def test_idx_data_must_fit_model(self, tmp_path, monkeypatch, capsys, model, field):
        cfg_dir = self.config_dir(tmp_path, monkeypatch, model={
            **with_model(input_shape=[3, 3])["model"], **model})
        config = str(cfg_dir / "config.json")
        assert field in self.assert_config_error(
            capsys, ["prune", "--config", config, "--out", "out"],
            tmp_path / "elsewhere" / "out")
        assert any(field in d for d in cli.validate_config(config))

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
            assert "dataset.num_classes 3 does not fit model.num_classes 2" in \
                self.assert_config_error(capsys, argv, tmp_path / "elsewhere" / "out")

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

    @pytest.mark.parametrize("name", ["ipc_zero", "label_out_of_range", "non_finite"])
    def test_rejected_external_contents_are_io_errors(self, tmp_path, monkeypatch,
                                                      capsys, name):
        from test_data import BAD_DSTL_CONTENTS
        cfg_dir = self.config_dir(tmp_path, monkeypatch, method="distilled",
                                  distiller={"kind": "external", "path": "d.dstl"})
        (cfg_dir / "d.dstl").write_bytes(BAD_DSTL_CONTENTS[name])
        assert cli.main(["prune", "--config", str(cfg_dir / "config.json"),
                         "--out", "out"]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("i/o failure:")


class TestEngineCalls:
    """The CLI reaches each engine through its module attribute at call
    time, so a function bound there in its place is the one that runs."""

    @pytest.mark.parametrize("command,seeds", [("prune", [0, 1]), ("lmc", [0]),
                                               ("weights", [0])])
    def test_imp_run_called_per_seed(self, tmp_path, monkeypatch, command, seeds):
        calls = []
        imp_run = engines.imp_run

        def counting(*args, seed, **kwargs):
            calls.append(seed)
            return imp_run(*args, seed=seed, **kwargs)

        monkeypatch.setattr(engines, "imp_run", counting)
        path = write_config(tmp_path)
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        assert calls == seeds
