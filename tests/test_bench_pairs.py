"""tools/bench_pairs.py on stand-in checkouts whose benchmark prints fixed results."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]

_SPEC = {
    "run_seconds": 30,
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "step_ms", "unit": "ms", "better": "lower", "bound": 0.24},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    ],
}

# a perfbench/run.py that prints a result in the form of the real one, its
# k-th run the step_ms value k of the list, cyclically; it appends the
# --seconds it was given to the file "seconds"
_RUN = """import json, pathlib, sys
count = pathlib.Path("runs")
k = int(count.read_text()) if count.exists() else 0
count.write_text(str(k + 1))
with open("seconds", "a") as seconds:
    seconds.write(sys.argv[sys.argv.index("--seconds") + 1] + "\\n")
step_ms = {step_ms}[k % {runs}]
print("machine " + json.dumps({{"nproc": 1, "commit": "abc"}}))
print(json.dumps({{"correct": {failed} == 0, "attempted": 3, "failed": {failed},
                  "metrics": {{"step_ms": {{"value": step_ms, "unit": "ms"}}}}}}))
sys.exit({code})
"""


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", _ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, side: str, step_ms: float | list[float], failed: int = 0, code: int = 0) -> Path:
    """A stand-in checkout whose runs report step_ms, or its values in turn."""
    values = step_ms if isinstance(step_ms, list) else [step_ms]
    (root / side / "perfbench").mkdir(parents=True)
    (root / side / "BENCHMARK.json").write_text(json.dumps(_SPEC))
    (root / side / "perfbench" / "run.py").write_text(
        _RUN.format(failed=failed, step_ms=values, runs=len(values), code=code)
    )
    return root / side


def _step_ms(tmp_path: Path, parent: list[float], change: list[float]) -> dict:
    """The step_ms summary of len(parent) pairs of stand-in runs."""
    out = tmp_path / "BENCH.json"
    checkouts = [str(_checkout(tmp_path, "parent", parent)), str(_checkout(tmp_path, "change", change))]
    assert _tool().main([*checkouts, "--pairs", str(len(parent)), "--seconds", "1", "--out", str(out)]) == 0
    return json.loads(out.read_text())["workloads"]["w"]["metrics"]["step_ms"]


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
    assert (step["resolved"], step["gain_claimable"]) == (True, True)


def test_a_parent_spread_wider_than_the_bound_leaves_a_metric_unresolved(tmp_path: Path) -> None:
    """The parent's quartiles 1.0 and 1.5 about a median of 1.25 span 40%,
    above the 24% bound, so a change of the same spread is no verdict; one
    whose every run beats every parent run is, spread or not."""
    spread = [1.0, 1.5] * 5
    noise = _step_ms(tmp_path / "noise", spread, spread[::-1])
    assert noise["parent_iqr"] / noise["parent_q1_median_q3"][1] == pytest.approx(0.4)
    assert (noise["resolved"], noise["gain_claimable"]) == (False, False)
    faster = _step_ms(tmp_path / "faster", [2.0, 3.0] * 5, [0.8, 1.2] * 5)
    assert faster["change_better_in"] == 10
    assert (faster["resolved"], faster["gain_claimable"]) == (True, True)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_median_shift_past_the_spread(tmp_path: Path) -> None:
    parent = [1.0, 1.2] * 5
    # better in every pair, but the medians differ by 0.05 against an IQR of 0.2
    close = _step_ms(tmp_path / "close", parent, [value - 0.05 for value in parent])
    assert (close["change_better_in"], close["resolved"], close["gain_claimable"]) == (10, True, False)
    # better in 8 of 10 pairs: parent runs 3 and 7 read 1.2 against 1.25
    change = [0.5, 0.6, 0.5, 1.25, 0.5, 0.6, 0.5, 1.25, 0.5, 0.6]
    mostly = _step_ms(tmp_path / "mostly", parent, change)
    assert (mostly["change_better_in"], mostly["gain_claimable"]) == (8, False)
    # a tie counts for neither side: better in 9 pairs and tied in one claims
    tied = _step_ms(tmp_path / "tied", parent, [0.5, 0.6, 0.5, 1.2, 0.5, 0.6, 0.5, 0.6, 0.5, 0.6])
    assert (tied["change_better_in"], tied["ties"], tied["gain_claimable"]) == (9, 1, True)


def test_parent_runs_first_in_even_pairs(tmp_path: Path, monkeypatch) -> None:
    tool = _tool()
    parent, change = _checkout(tmp_path, "parent", 1.0), _checkout(tmp_path, "change", 1.0)
    calls = []
    run = tool._run
    monkeypatch.setattr(tool, "_run", lambda checkout, *args: calls.append(checkout.name) or run(checkout, *args))
    tool.main([str(parent), str(change), "--pairs", "3", "--out", str(tmp_path / "out.json")])
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]


def test_runs_last_the_specs_run_seconds_unless_told_otherwise(tmp_path: Path) -> None:
    parent, change = _checkout(tmp_path, "parent", 1.0), _checkout(tmp_path, "change", 1.0)
    out = tmp_path / "BENCH.json"
    assert _tool().main([str(parent), str(change), "--pairs", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["command"].startswith("python3 perfbench/run.py --workload W --seconds 30 ")
    assert _tool().main([str(parent), str(change), "--pairs", "2", "--seconds", "1.5", "--out", str(out)]) == 0
    for checkout in (parent, change):
        assert (checkout / "seconds").read_text().split() == ["30.0", "30.0", "1.5", "1.5"]


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
