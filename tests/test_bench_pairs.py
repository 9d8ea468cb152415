"""tools/bench_pairs.py on stand-in checkouts whose benchmark prints fixed results."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]

_SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "step_ms", "unit": "ms", "better": "lower", "bound": 0.24},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    ],
}

# a perfbench/run.py that prints a result in the form of the real one
_RUN = """import json, sys
print("machine " + json.dumps({{"nproc": 1, "commit": "abc"}}))
print(json.dumps({{"correct": {failed} == 0, "attempted": 3, "failed": {failed},
                  "metrics": {{"step_ms": {{"value": {step_ms}, "unit": "ms"}}}}}}))
sys.exit({code})
"""


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", _ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, side: str, step_ms: float, failed: int = 0, code: int = 0) -> Path:
    (root / side / "perfbench").mkdir(parents=True)
    (root / side / "BENCHMARK.json").write_text(json.dumps(_SPEC))
    (root / side / "perfbench" / "run.py").write_text(
        _RUN.format(failed=failed, step_ms=step_ms, code=code)
    )
    return root / side


def test_pairs_are_summarized_per_metric(tmp_path: Path) -> None:
    parent, change = _checkout(tmp_path, "parent", 2.0), _checkout(tmp_path, "change", 1.0)
    out = tmp_path / "BENCH.json"
    assert _tool().main([str(parent), str(change), "--pairs", "3", "--seconds", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert (record["parent"], record["change"]) == ("parent", "change")
    assert "commit" not in record["machine"]
    workload = record["workloads"]["w"]
    assert workload["attempted"] == {"parent": 9, "change": 9}
    assert workload["failed"] == {"parent": 0, "change": 0}
    # wall_s is in the spec but not reported by the runs, so it is left out
    assert list(workload["metrics"]) == ["step_ms"]
    step = workload["metrics"]["step_ms"]
    assert step["parent"] == [2.0] * 3 and step["change"] == [1.0] * 3
    assert step["parent_q1_median_q3"] == [2.0, 2.0, 2.0]
    assert step["parent_iqr"] == 0.0
    assert step["median_ratio"] == 0.5
    assert (step["change_better_in"], step["ties"], step["within_bound"]) == (3, 0, True)


def test_parent_runs_first_in_even_pairs(tmp_path: Path, monkeypatch) -> None:
    tool = _tool()
    parent, change = _checkout(tmp_path, "parent", 1.0), _checkout(tmp_path, "change", 1.0)
    calls = []
    run = tool._run
    monkeypatch.setattr(tool, "_run", lambda checkout, *args: calls.append(checkout.name) or run(checkout, *args))
    tool.main([str(parent), str(change), "--pairs", "3", "--out", str(tmp_path / "out.json")])
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]


def test_a_failed_operation_or_run_exits_nonzero(tmp_path: Path) -> None:
    parent = _checkout(tmp_path, "parent", 1.0)
    worse = _checkout(tmp_path, "change", 1.5, failed=1)
    out = tmp_path / "BENCH.json"
    assert _tool().main([str(parent), str(worse), "--pairs", "2", "--out", str(out)]) == 1
    workload = json.loads(out.read_text())["workloads"]["w"]
    assert workload["failed"] == {"parent": 0, "change": 2}
    assert workload["metrics"]["step_ms"]["within_bound"] is False
    crashed = _checkout(tmp_path / "crash", "change", 1.0, code=3)
    with pytest.raises(SystemExit, match="exited with 3"):
        _tool().main([str(parent), str(crashed), "--pairs", "2", "--out", str(out)])
