"""Smoke tests of the benchmark itself.

    python3 -m pytest bench/tests -q

Whole runs go through ``bench/run.py`` in a subprocess, so BLAS is pinned
before numpy loads exactly as in a real run; the fault-injection tests drive
the workload and tracer objects in process.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fermigauss import correlators, quadratic  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

_RUNS: dict = {}


def bench(workload: str, trace: int, repeat: int = 0, cwd: str = ROOT):
    """Output lines and exit code of one short run, cached per (workload, trace, repeat)."""
    key = (workload, trace, repeat, cwd)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
             "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300, cwd=cwd)
        _RUNS[key] = (proc.returncode, proc.stdout.strip().splitlines(), proc.stderr)
    return _RUNS[key]


def final_object(lines) -> dict:
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_every_metric_with_unit(workload, trace, section):
    code, lines, err = bench(workload, trace)
    assert code == 0, err
    doc = final_object(lines)
    assert doc["correct"] is True and doc["attempted"] >= 1
    for metric in SPEC[section]:
        assert doc["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
                   for line in lines), metric["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first = final_object(bench(workload, 1)[1])["metrics"]
    second = final_object(bench(workload, 1, repeat=1)[1])["metrics"]
    for name in tracing.EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    code, lines, _ = bench("overlap-sweep", 0, cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def _one_round(name, tmp_path):
    workload, _ = workloads.build(name, 5, str(tmp_path), bench_run._oracles())
    return next(workload.rounds(np.random.default_rng(0)))


def test_corrupted_result_counts_as_failed(tmp_path, monkeypatch):
    real = correlators.n_point
    monkeypatch.setattr(correlators, "n_point", lambda ctx, ops: real(ctx, ops) * (1 + 1e-6) + 1e-6)
    records = bench_run.execute(_one_round("correlator-table", tmp_path))
    verdicts, failures, _ = bench_run.grade(bench_run.check_rows(records))
    n_point_ops = sum(1 for op, _, _, _ in records if op.kind.startswith("n_point"))
    assert n_point_ops > 0
    assert failures["wrong value"] == n_point_ops
    assert sum(v.wrong for v in verdicts) == n_point_ops


def test_raised_error_is_failed_and_broken_down_by_type(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(correlators, "generalized_expectation", refuse)
    records = bench_run.execute(_one_round("correlator-table", tmp_path))
    verdicts, failures, by_kind = bench_run.grade(bench_run.check_rows(records))
    failed = sum(1 for v in verdicts if not v.ok)
    assert failed > 0 and failures == {"ArithmeticError": failed}
    assert not any(v.wrong for v in verdicts)
    assert all(kind.startswith("generalized_expectation") for kind in by_kind)


def test_missing_traced_function_reports_absent_metrics(monkeypatch):
    monkeypatch.delattr(quadratic, "cp_scan")
    tracer = tracing.Tracer()
    undo = tracer.patch()
    try:
        metrics = tracing.layer_metrics(tracer, [None])
    finally:
        tracer.unpatch(undo)
    assert "quadratic.cp_scan" not in tracer.present
    assert not any(name.startswith("quadratic.cp_scan") for name in metrics)
    assert "linalg.expm_calls_per_op" in metrics
