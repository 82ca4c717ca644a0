"""Smoke test of the benchmark harness itself.

Run with ``pytest benchmarks/perf -q`` (not part of the tier-1
``testpaths``).  One ``--quick --traced`` suite run feeds most checks;
it asserts the shape of the output, never a speed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5
SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def suite(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )


@pytest.fixture(scope="module")
def doc() -> dict:
    proc = suite("--quick", "--traced", "--seed", str(SEED))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_document_schema_is_pinned(doc):
    assert set(doc) == {
        "schema_version", "environment", "seed", "seconds", "workloads", "correct",
    }
    assert doc["schema_version"] == run.SCHEMA_VERSION
    assert set(doc["environment"]) == {"commit", "nproc", "python", "numpy", "platform"}
    assert doc["seed"] == SEED
    for entry in doc["workloads"].values():
        assert set(entry) == {
            "end_to_end", "per_layer", "attempted", "failed", "failed_frac",
            "diagnostics", "layer_diagnostics", "correct",
        }
        for metrics in (entry["end_to_end"], entry["per_layer"]):
            for value in metrics.values():
                assert set(value) == {"value", "unit"}
        assert entry["diagnostics"]["latency_samples"] >= 1
        assert entry["layer_diagnostics"]["traced_ops"] >= 1


def test_names_printed_are_the_names_declared(doc):
    assert sorted(doc["workloads"]) == sorted(WORKLOADS)
    assert set(workloads.WORKLOADS) == set(WORKLOADS)
    for entry in doc["workloads"].values():
        assert {k: v["unit"] for k, v in entry["end_to_end"].items()} == END_TO_END
        assert {k: v["unit"] for k, v in entry["per_layer"].items()} == PER_LAYER
    assert set(layers.TIME_LAYERS) | set(layers.SERVE_PARTS_US) <= set(PER_LAYER)


def test_nothing_failed_and_every_gated_metric_is_nonzero(doc):
    assert doc["correct"]
    for entry in doc["workloads"].values():
        assert entry["failed"] == 0 and entry["failed_frac"] == 0
        assert all(v["value"] > 0 for v in entry["end_to_end"].values())
    assert doc["workloads"]["ingest_read_mix"]["diagnostics"]["flush_policy"] == "always"


def test_layer_budget_adds_up_to_the_traced_median(doc):
    for entry in doc["workloads"].values():
        layer = {k: v["value"] for k, v in entry["per_layer"].items()}
        total = sum(layer[m] for m in layers.TIME_LAYERS) + layer["unattributed_ms"]
        assert total == pytest.approx(layer["traced_latency_p50_ms"], rel=1e-9)


def test_each_layer_works_where_it_should_and_nowhere_else(doc):
    layer = {
        name: {k: v["value"] for k, v in entry["per_layer"].items()}
        for name, entry in doc["workloads"].items()
    }
    for name in ("inproc_point", "inproc_analytic"):
        assert layer[name]["net.rtt_floor_ms"] == layer[name]["net.decode_ms"] == 0
    for name in WORKLOADS:
        durable = name == "ingest_read_mix"
        assert (layer[name]["durability.fsync_ms"] > 0) == durable
        assert (layer[name]["graph.refresh_ms"] > 0) == durable
    assert layer["remote_stream"]["net.decode_ms"] > layer["remote_point"]["net.decode_ms"]
    assert layer["inproc_point"]["graql.cache_hit_ratio"] > 0


def test_unknown_workload_is_rejected():
    proc = suite("--workload", "no_such_workload", "--trace", "0")
    assert proc.returncode == 2
    assert "no_such_workload" in proc.stderr


def test_same_seed_same_operations():
    def signature(ops):
        return [(op.name, op.mode, op.source, str(op.params)) for op in ops]

    assert signature(workloads.point_ops(3, 2000, True)) == signature(
        workloads.point_ops(3, 2000, True)
    )
    assert signature(workloads.point_ops(3, 2000, True)) != signature(
        workloads.point_ops(4, 2000, True)
    )
    assert signature(workloads.analytic_ops(3)) == signature(workloads.analytic_ops(3))
    a, b = (workloads.IngestReadMix(3, 1, "unused") for _ in range(2))
    assert (a.src == b.src).all() and (a.dst == b.dst).all() and (a.city == b.city).all()


def test_counts_repeat_exactly_for_a_seed(doc):
    counts = (
        "durability.fsyncs_per_stmt", "durability.wal_bytes_per_user_byte",
        "net.bytes_per_row", "graql.cache_hit_ratio",
    )
    for name in ("ingest_read_mix", "remote_stream"):
        again = run.run_child(name, SEED, doc["seconds"], 1)["metrics"]
        first = doc["workloads"][name]["per_layer"]
        for metric in counts:
            assert again[metric]["value"] == first[metric]["value"], (name, metric)
