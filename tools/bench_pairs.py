"""Alternating pairs of benchmark runs of two source checkouts.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --out BENCH_<name>.json

PARENT and CHANGE are directories holding a checkout each.  For every
workload of CHANGE's BENCHMARK.json, pair k runs

    python3 perfbench/run.py --workload W --seconds S --trace 0

once for each checkout, each run a fresh process, with the parent first in
even pairs and the change first in odd ones, so that a drift of the
machine's speed falls on both sides alike.  Every run takes place in one
stage, a temporary directory made once per invocation, whose contents are
replaced before the run by the side's src/, its perfbench/ (without out/
and __pycache__/) and its BENCHMARK.json.  perfbench/run.py turns off
address-space randomization, so the directory a run starts from fixes its
memory layout: one commit in two directories read fine-lu peak RSS 1 MiB
apart in every pair.  The stage gives both sides the same path; it does not
control the drift of the machine's speed, which can move a median step time
by a quarter between two sides of one commit.  S is --seconds, by default the
spec's run_seconds, the run length the benchmark is judged at.  The output
file holds, per workload and end-to-end metric, both sides' values pair by
pair, their quartiles, the parent's interquartile range, the ratio of the
medians, in how many pairs the change was better, and whether the change's
median is within the metric's bound of the parent's.  Two verdicts follow:
a metric is resolved unless the parent's interquartile range exceeds the
bound times its median and some change run fails to beat every parent run,
since a shift of the median within that spread reads as noise; a gain is
claimable when the change is better in at least nine tenths of the pairs,
ties counting for neither side, and its median beats the parent's by more
than the parent's interquartile range.  The exit status is 1 when a run
fails or reports a failed operation; the file is written all the same
unless a run gave no result at all.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def _stage(checkout: Path, stage: Path) -> None:
    """Replace stage's contents with what a run of checkout's benchmark reads."""
    for entry in stage.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()
    leave_out = shutil.ignore_patterns("out", "__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(checkout / name, stage / name, ignore=leave_out)
    shutil.copy2(checkout / "BENCHMARK.json", stage)


def _run(checkout: Path, stage: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """One benchmark run of checkout, staged, in a fresh process: its result
    and machine facts."""
    _stage(checkout, stage)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(argv, cwd=stage, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {workload} in {checkout} exited with {completed.returncode}")
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), {})
    return json.loads(lines[-1]), machine


def _commit(checkout: Path) -> str:
    """The checkout's git commit, else the name of its directory."""
    completed = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return completed.stdout.strip() if completed.returncode == 0 else checkout.resolve().name


def _quartiles(values: list[float]) -> list[float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def _metric(spec: dict, parent: list[float], change: list[float]) -> dict:
    """A metric's pairs and their summary; spec is its BENCHMARK.json entry."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p_q, c_q = _quartiles(parent), _quartiles(change)
    worse_by = sign * (c_q[1] - p_q[1]) / abs(p_q[1]) if p_q[1] else 0.0
    iqr = p_q[2] - p_q[0]
    better_in = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    # every change run beats every parent run
    dominates = max(sign * c for c in change) < min(sign * p for p in parent)
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": parent,
        "change": change,
        "parent_q1_median_q3": p_q,
        "change_q1_median_q3": c_q,
        "parent_iqr": iqr,
        "median_ratio": c_q[1] / p_q[1] if p_q[1] else None,
        "change_better_in": better_in,
        "ties": sum(c == p for p, c in zip(parent, change)),
        "within_bound": worse_by <= spec["bound"],
        "resolved": iqr <= spec["bound"] * abs(p_q[1]) or dominates,
        "gain_claimable": 10 * better_in >= 9 * len(parent) and sign * (p_q[1] - c_q[1]) > iqr,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.pairs < 2 or args.seconds <= 0:
        parser.error("--pairs must be at least 2, for quartiles, and --seconds positive")
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    workloads, machine, failed = {}, {}, False
    stage = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        for name in (w["name"] for w in spec["workloads"]):
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for k in range(args.pairs):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    result, machine = _run(checkouts[side], stage, name, args.seconds)
                    runs[side].append(result)
                    failed |= result["failed"] > 0 or not result["correct"]
                    print(f"{name} pair {k} {side}: attempted {result['attempted']}, "
                          f"failed {result['failed']}", file=sys.stderr)
            metrics = {}
            for entry in spec["end_to_end"]:
                values = {side: [r["metrics"].get(entry["name"], {}).get("value") for r in runs[side]]
                          for side in SIDES}
                if all(v is not None for side in SIDES for v in values[side]):
                    metrics[entry["name"]] = _metric(entry, values["parent"], values["change"])
            workloads[name] = {
                "pairs": args.pairs,
                "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
                "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
                "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
                "metrics": metrics,
            }
    finally:
        shutil.rmtree(stage)

    machine.pop("commit", None)
    record = {
        "command": f"python3 perfbench/run.py --workload W --seconds {args.seconds:g} --trace 0",
        "method": f"{args.pairs} alternating pairs per workload by tools/bench_pairs.py: the parent "
                  "runs first in even pairs and the change in odd ones, each run a fresh process "
                  "in one temporary directory staged with the side's src/, perfbench/ and BENCHMARK.json",
        "parent": _commit(args.parent),
        "change": _commit(args.change),
        "workloads": workloads,
        "machine": machine,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
