"""Tests of the benchmark itself, at its tiny size.

Each smoke run pins the tiny outputs into a scratch reference first, so
the tests exercise the same pin-and-check path as the full benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from sb_layers import LayerTracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def bench(*args: str, reference) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--size", "tiny", "--reference", str(reference), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("simbench") / "reference.json"
    done = bench("--pin", reference=path)
    assert done.returncode == 0, done.stderr
    return path


@pytest.fixture(scope="module")
def traced(reference):
    """The traced tiny run of every workload, keyed by workload."""
    return {
        workload: result_of(
            bench("--workload", workload, "--seconds", "0", "--trace", "1", reference=reference)
        )
        for workload in ("memwall", "fig9-sweep", "xl-sampled")
    }


def units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["memwall", "fig9-sweep", "xl-sampled"])
def test_untraced_smoke_reports_every_end_to_end_metric(reference, workload):
    result = result_of(bench("--workload", workload, "--seconds", "0", reference=reference))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in benchmark_spec()["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_smoke_reports_every_per_layer_metric(traced):
    expected = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    for result in traced.values():
        assert result["correct"] is True
        assert units(result) == expected


def test_layer_readings_match_the_workload_design(traced):
    value = {w: {n: m["value"] for n, m in r["metrics"].items()} for w, r in traced.items()}
    for workload in ("memwall", "fig9-sweep"):
        zero = [n for n in value[workload] if n.startswith(("sampling.", "warmstate."))]
        assert value[workload]["trace.digest_s"] == 0
        assert all(value[workload][n] == 0 for n in zero)
    assert all(v == 0 for n, v in value["memwall"].items() if n.startswith("pool."))
    assert value["memwall"]["core.skip_frac"] > value["fig9-sweep"]["core.skip_frac"]
    assert value["xl-sampled"]["trace.digests"] > 0
    assert value["xl-sampled"]["warmstate.reuse"] == 0.5


def test_perturbed_pinned_value_is_a_failed_cell(reference, tmp_path):
    data = json.loads(reference.read_text())
    cells = data["sizes"]["tiny"]["memwall"]["cells"]
    cells[sorted(cells)[0]]["cycles"] += 1
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(data))
    result = result_of(bench("--workload", "memwall", "--seconds", "0", reference=perturbed))
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["metrics"]["cell_success_pct"]["value"] < 100


def test_unpinned_seed_still_checks_every_cell(reference):
    done = bench("--workload", "memwall", "--seed", "7", "--seconds", "0", reference=reference)
    assert result_of(done)["correct"] is True
    assert "unpinned: seed 7" in done.stdout


def test_version_mismatch_stops_without_a_result(reference, tmp_path):
    data = json.loads(reference.read_text())
    data["repro_version"] = "0.0.0"
    stale = tmp_path / "reference.json"
    stale.write_text(json.dumps(data))
    done = bench("--workload", "memwall", "--seconds", "0", reference=stale)
    assert done.returncode != 0
    assert "pinned under repro 0.0.0" in done.stderr
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_ledger_counts_nested_spans_once():
    tracer = LayerTracer()
    outer = tracer.begin("workloads.build")
    inner = tracer.begin("trace.digest")
    tracer.finish(inner)
    tracer.finish(outer, traces=1)
    summary = tracer.summary()
    assert summary["attributed_s"] == pytest.approx(outer.duration)
    assert summary["trace.digest_s"] == pytest.approx(inner.duration)
    assert summary["workloads.build_s"] == pytest.approx(outer.duration - inner.duration)
    assert summary["traces_built"] == 1
