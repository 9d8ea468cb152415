"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
from spans import Tracer, layer_metrics, layer_patches, patched
from workloads import DEFAULT_SEED, REFERENCE_FILE, WORKLOADS, run_op, stiff_law

TINY = {
    "fine-lu": {"meshes": (4,), "steps": 2},
    "newton-stiff": {"meshes": (4,), "steps": 2},
    "cli-study": {"meshes": (2, 4), "t_final": 0.02},
}


def _tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def _traced(workload, law_text, csv_path):
    tracer = Tracer()
    with patched(layer_patches(tracer)), tracer.span("op"):
        op = run_op(workload, law_text, csv_path)
    return op, tracer.spans


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_at_tiny_size(name, tmp_path) -> None:
    workload = _tiny(name)
    op = run_op(workload, workload.law(DEFAULT_SEED), tmp_path / "report.csv")
    assert op.failure is None
    assert len(op.runs) == len(workload.meshes)
    assert all(math.isfinite(e) and e > 0.0 for e in op.errors)
    assert op.wall > 0.0 and op.step_ms > 0.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_changes_no_result(name, tmp_path) -> None:
    workload = _tiny(name)
    law_text = workload.law(DEFAULT_SEED)
    plain = run_op(workload, law_text, tmp_path / "plain.csv")
    traced, spans = _traced(workload, law_text, tmp_path / "traced.csv")
    assert traced.failure is None
    assert traced.errors == plain.errors
    names = {span[0] for span in spans}
    assert {"solver.factor", "solver.tri_solve", "law.eval", "mms.forcing", "mesh.build"} <= names


def test_traced_run_restores_every_attribute(tmp_path) -> None:
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in layer_patches(Tracer())]
    _traced(_tiny("cli-study"), "1:0,1:1", tmp_path / "report.csv")
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)


def test_self_times_cover_the_operation(tmp_path) -> None:
    workload = _tiny("newton-stiff")
    op, spans = _traced(workload, workload.law(DEFAULT_SEED), tmp_path / "report.csv")
    metrics = layer_metrics(spans, op.picard_iters, op.steps)
    layers = [value for name, value in metrics.items() if name.endswith("_s")]
    wall = spans[0][2] - spans[0][1]
    assert sum(layers) == pytest.approx(metrics["trace.coverage"] * wall, rel=1e-9)
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    assert metrics["solver.factor_count"] == metrics["solver.tri_solve_count"] == op.picard_iters
    assert metrics["solver.factor_per_solve"] == 1.0
    assert metrics["solver.picard_per_step"] == op.picard_iters / op.steps >= 1.0


def test_stiff_law_seeds_have_references() -> None:
    assert stiff_law(DEFAULT_SEED) == "1:0,10000:2"
    references = json.loads(REFERENCE_FILE.read_text())["newton-stiff"]
    laws = {stiff_law(seed) for seed in range(200)}
    assert len(laws) == 9 and laws <= set(references)


def test_benchmark_json_matches_spec() -> None:
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.benchmark_spec()


def test_command_prints_result_line() -> None:
    argv = [sys.executable, "perfbench/run.py", "--workload", "newton-stiff",
            "--seed", "5", "--seconds", "0.01", "--trace", "0"]
    completed = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {name for name, *_ in run.END_TO_END}


def test_command_fails_without_program_source(tmp_path) -> None:
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "fine-lu",
            "--seed", "0", "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
