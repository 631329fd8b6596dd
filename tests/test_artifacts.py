"""Every artifact of one small synthetic run of each command, pinned by its
sha256 in artifact_hashes.json: `prune` with each method (LMC and
histograms on), `distill`, and `report` over the IMP run; then, under
convnet/, `prune` with each method of a 1-block ConvNet, so the conv
chain's bits are pinned too; and, under convnet2/, `prune --method imp`
of a 2-block ConvNet trained with weight decay and a milestone decay,
which pins col2im and both decays.
Timing is stripped before hashing: the *_seconds columns of each CSV and
time_to_mask_seconds of each summary.  The hashes hold for one numpy and
BLAS build; another may round the training arithmetic differently.

A change meant to alter the output bits regenerates the fixture with

    PYTHONPATH=src python tests/test_artifacts.py

in its own commit, and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from ticketlab import cli

FIXTURE = Path(__file__).with_name("artifact_hashes.json")

CONFIG = {
    "dataset": {"source": "synth", "kind": "gaussianBlobs", "num_classes": 3,
                "per_class": 30, "noise": 0.6, "seed": 0, "input_shape": [2]},
    "model": {"architecture": "mlp", "input_shape": [2], "num_classes": 3, "hidden": [8]},
    "prune": {"desired_sparsity": 0.5, "amount": 0.3, "rewind_epoch": 0,
              "mask_train_epochs": 2, "finetune_epochs": 2,
              "mask_train": {"batch_size": 16}, "finetune": {"batch_size": 16}},
    "distiller": {"kind": "kmeansHerding", "ipc": 3, "seed": 1},
    "seeds": [0, 1],
    "report": {"finetune_each": True, "lmc": True, "histograms": True, "lmc_points": 5},
}

COMMANDS = [("prune_imp", ["prune", "--method", "imp"]),
            ("prune_distilled", ["prune", "--method", "distilled"]),
            ("prune_random", ["prune", "--method", "random"]),
            ("distill", ["distill"])]

CONV_CONFIG = {
    **CONFIG,
    "dataset": {**CONFIG["dataset"], "input_shape": [1, 4, 4]},
    "model": {"architecture": "convnet", "input_shape": [1, 4, 4], "num_classes": 3,
              "channels": [2]},
}
CONV_COMMANDS = COMMANDS[:3]

DECAYED = {"batch_size": 16, "weight_decay": 1e-3, "milestones": [1], "gamma": 0.5}
CONV2_CONFIG = {
    **CONFIG,
    "dataset": {**CONFIG["dataset"], "input_shape": [2, 4, 4]},
    "model": {"architecture": "convnet", "input_shape": [2, 4, 4], "num_classes": 3,
              "channels": [2, 3]},
    "prune": {**CONFIG["prune"], "mask_train": DECAYED, "finetune": DECAYED},
}
CONV2_COMMANDS = COMMANDS[:1]


def _stripped(path):
    blob = path.read_bytes()
    if path.suffix == ".csv":
        return cli.strip_timing_columns(blob.decode()).encode()
    if path.name == "summary.json":
        summary = json.loads(blob)
        summary.pop("time_to_mask_seconds")
        return json.dumps(summary, indent=2, sort_keys=True).encode()
    return blob


def artifact_hashes(root):
    """{relative path: sha256 of the stripped file} over every output."""
    with contextlib.redirect_stdout(io.StringIO()):
        for config, out, commands in ((CONFIG, root, COMMANDS),
                                      (CONV_CONFIG, root / "convnet", CONV_COMMANDS),
                                      (CONV2_CONFIG, root / "convnet2", CONV2_COMMANDS)):
            out.mkdir(exist_ok=True)
            (out / "config.json").write_text(json.dumps(config))
            for name, argv in commands:
                assert cli.main(argv + ["--config", str(out / "config.json"), "--out",
                                        str(out / name)]) == 0, name
        shutil.copytree(root / "prune_imp", root / "report")
        assert cli.main(["report", "--out", str(root / "report")]) == 0
    return {path.relative_to(root).as_posix(): hashlib.sha256(_stripped(path)).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "config.json"}


def test_artifacts_match_the_fixture(tmp_path):
    assert artifact_hashes(tmp_path) == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        hashes = artifact_hashes(Path(d))
    FIXTURE.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {FIXTURE}", file=sys.stderr)
