"""Tests of the benchmark itself: span and percentile arithmetic, undoing
the rebinding, and a reduced-size run of every workload.

Run with ``python -m pytest bench``; ``src`` must be importable (the
repository's test command puts it on PYTHONPATH)."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
from ticketlab import engines, nn  # noqa: E402

SMALL = {
    "imp_convnet": dict(per_class=120, test_per_class=25, epochs=3),
    "distilled_convnet": dict(per_class=120, test_per_class=25, epochs=3, n_seeds=2,
                              mask_epochs=3),
    "cli_mlp_lmc": dict(per_class=100, test_per_class=25, hidden=(16,), epochs=2, batch_size=16),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONTRACT = json.load(f)


def test_self_time_subtracts_direct_children_only():
    # op [0,10] > a [1,4] > b [2,3];  op > c [5,9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]
    names = np.array(["op", "x", "y", "x"], dtype=object)
    assert tracing.span_totals(names, start, end, parent) == {
        "op": (10.0, 3.0, 1), "x": (7.0, 6.0, 2), "y": (1.0, 1.0, 1)}


def test_layer_self_times_add_up_to_op_time():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("autodiff.relu", lambda: sum(range(1000)))
    outer = tracer.wrap("cli.main", lambda: [leaf() for _ in range(3)])
    for op in range(2):
        with tracer.op(op):
            outer()
    outer()  # outside an op: not counted
    m = tracing.layer_metrics(tracer, [0, 1])
    parts = sum(m[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert parts + m["trace.unattributed_s"][0] == pytest.approx(m["trace.op_s"][0])
    assert m["autodiff.relu_s"][0] == m["autodiff.self_s"][0] > 0
    assert m["cli.main_s"][0] == pytest.approx(m["cli.self_s"][0] + m["autodiff.relu_s"][0])


def test_tail_percentile_is_the_highest_with_ten_samples_above():
    for n in range(1, 201):
        samples = [float(v) for v in np.random.default_rng(n).permutation(n)]
        got = harness.tail_percentile(samples)
        if n <= 10:
            assert got is None
            continue
        p, value = got
        assert sum(s > value for s in samples) >= 10
        # the next whole percentile, by nearest rank, leaves fewer above
        nxt = sorted(samples)[max(1, -(-(p + 1) * n // 100)) - 1]
        assert sum(s > nxt for s in samples) < 10


def test_tail_percentile_examples():
    assert harness.tail_percentile(list(range(1, 101))) == (90, 90)
    assert harness.tail_percentile(list(range(1, 21))) == (50, 10)
    assert harness.tail_percentile(list(range(1, 12))) == (9, 1)


def _contract_units(section):
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_reduced_run_of_each_workload_passes_its_checks(name, tmp_path):
    record, _ = harness.measure(name, seed=3, seconds=0, trace=False,
                                workdir=str(tmp_path), **SMALL[name])
    assert record["attempted"] >= 1
    assert record["failed"] == 0, record["errors"]
    assert {k: u for k, (v, u) in record["metrics"].items()} == _contract_units("end_to_end")
    assert all(v > 0 for v, _ in record["metrics"].values())
    again, _ = harness.measure(name, seed=3, seconds=0, trace=False,
                               workdir=str(tmp_path / "again"), **SMALL[name])
    assert again["deterministic"] == record["deterministic"]


def test_traced_run_restores_every_binding(tmp_path):
    before = tracing.bindings()
    seen = {}

    def spy(*args, **kwargs):
        seen["engines.train"] = engines.train
        return original(*args, **kwargs)

    original = harness.Loop.run_op
    harness.Loop.run_op = spy
    try:
        record, _ = harness.measure("cli_mlp_lmc", seed=3, seconds=0, trace=True,
                                    workdir=str(tmp_path), **SMALL["cli_mlp_lmc"])
    finally:
        harness.Loop.run_op = original
    after = tracing.bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # the copy bound in engines by `from .nn import train` was wrapped too
    assert seen["engines.train"] is not nn.train
    assert record["failed"] == 0, record["errors"]
    assert {k: u for k, (v, u) in record["metrics"].items()} == _contract_units("per_layer")
    m = record["metrics"]
    parts = sum(m[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert parts + m["trace.unattributed_s"][0] == pytest.approx(m["trace.op_s"][0])
    assert m["cli.files_written"][0] > 0 and m["analysis.interp_points"][0] == 21
