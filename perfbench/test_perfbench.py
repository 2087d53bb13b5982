"""Tests of the benchmark itself, on the workloads' tiny twins.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170,
                          check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if trace:
        parts = [values[f"{layer}.self_s"] for layer in spans.LAYERS]
        total = sum(parts) + values["untraced_remainder_s"]
        assert total == pytest.approx(values["traced_wall_s"], rel=1e-9)
        assert values["linalg.thin_svd_calls"] >= 1
    else:
        assert all(v > 0 for v in values.values())
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_tmp"))


def test_run_without_the_package_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "csv-roundtrip", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_trace_target_stops_before_wrapping(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from delayframe import models

    fit = models.fit
    monkeypatch.delattr(models, "thin_svd")
    with pytest.raises(LookupError, match="delayframe.models.thin_svd"):
        spans.Tracer().install()
    assert models.fit is fit


def test_self_time_subtracts_children():
    tree = [
        {"parent": None, "start": 0.0, "end": 10.0},
        {"parent": 0, "start": 1.0, "end": 4.0},
        {"parent": 1, "start": 2.0, "end": 3.0},
        {"parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]


def test_deviation_is_normwise_and_strict_on_digests():
    assert workloads.deviation([[1.0, 0.0]], [[1.0, 1e-300]]) < 1e-12
    assert workloads.deviation([1.0, 2.0], [1.0, 2.0 + 4e-9]) == pytest.approx(2e-9)
    assert workloads.deviation([1.0], [1.0, 2.0]) == float("inf")
    assert workloads.deviation("ab", "ac") == float("inf")
    assert workloads.check({"a": 1.0}, {"a": 1.0, "b": 2.0}) == float("inf")
