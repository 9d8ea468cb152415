"""Benchmark of the forchmix solver, its library API and its CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fine-lu --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each
    python3 perfbench/run.py --write-spec          # regenerate BENCHMARK.json

Each run is closed loop with one client on one thread: it repeats the
workload's operation until ``--seconds`` have passed and reports medians.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations and prints the per-layer metrics
plus the tracing overhead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Machine facts,
the full result and (traced) every span go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
RUN_SECONDS = 30
ADDR_NO_RANDOMIZE = 0x0040000

END_TO_END = [
    ("wall_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("step_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("err_p", "1", "lower", 0.1),
    ("err_s", "1", "lower", 0.1),
    ("err_u", "1", "lower", 0.1),
]
PER_LAYER = [
    ("solver.factor_s", "s", "lower"),
    ("solver.factor_count", "count", "lower"),
    ("solver.lu_fill_nnz", "count", "lower"),
    ("solver.tri_solve_s", "s", "lower"),
    ("solver.tri_solve_count", "count", "lower"),
    ("solver.factor_per_solve", "ratio", "lower"),
    ("solver.picard_per_step", "count", "lower"),
    ("solver.run_self_s", "s", "lower"),
    ("solver.init_self_s", "s", "lower"),
    ("law.eval_s", "s", "lower"),
    ("law.eval_calls", "count", "lower"),
    ("law.eval_points", "count", "lower"),
    ("law.us_per_point", "us", "lower"),
    ("mms.forcing_s", "s", "lower"),
    ("mms.error_norms_s", "s", "lower"),
    ("mms.study_self_s", "s", "lower"),
    ("mesh.build_s", "s", "lower"),
    ("spaces.assemble_s", "s", "lower"),
    ("spaces.project_s", "s", "lower"),
    ("cli.report_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
]


def pin_threads() -> None:
    """One BLAS/OpenMP thread: the benchmark measures single-thread runs."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def pin_layout() -> None:
    """Re-execute this process with a fixed memory layout, once.

    The peak RSS of identical runs varies by up to 25% (177-224 MiB on
    fine-lu) with the address-space layout and the string hash seed.  A
    fixed hash seed, and no address-space randomization where the kernel
    lets a process turn it off for itself, make it repeat exactly.
    """
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    os.environ["PYTHONHASHSEED"] = "0"
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def import_program() -> None:
    """Import forchmix from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import forchmix
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import forchmix from {src}: {exc}")
    if not Path(forchmix.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: forchmix was imported from {forchmix.__file__}, not {src}")


def benchmark_spec() -> dict:
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def _median(values) -> float:
    return float(statistics.median(values))


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """Run one workload; returns the result object and the traced spans.

    Untraced, each operation is preceded by one timed setup.  Traced, the
    operations alternate between untraced and traced.
    """
    from forchmix.law import law_from_string
    from spans import Tracer, layer_metrics, layer_patches, patched
    from workloads import WORKLOADS, check_reference, run_op, setup_seconds

    workload = WORKLOADS[name]
    law_text = workload.law(seed)
    law = law_from_string(law_text)
    csv_path = OUT / f"{name}-seed{seed}.csv"

    setups: list[float] = []
    records = []  # (operation, its spans or None when untraced)
    deadline = time.perf_counter() + seconds
    while len(records) < 2 or time.perf_counter() < deadline:
        # collect garbage outside the timed regions, so that neither the
        # timings nor the peak RSS depend on when the collector last ran
        gc.collect()
        if not trace:
            setups.append(setup_seconds(workload, law))
            gc.collect()
        op_spans = None
        if trace and len(records) % 2 == 1:
            tracer = Tracer()
            with patched(layer_patches(tracer)), tracer.span("op"):
                op = run_op(workload, law_text, csv_path)
            op_spans = tracer.spans
        else:
            op = run_op(workload, law_text, csv_path)
        if op.failure is None:
            op.failure = check_reference(workload, law_text, op.errors)
        if op.failure is not None:
            print(f"perfbench: {name} operation {len(records)} failed: {op.failure}", file=sys.stderr)
        records.append((op, op_spans))
        if len(records) == 1:
            # a user's single run; later operations would add only heap growth
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    good = [(op, op_spans) for op, op_spans in records if op.failure is None]
    if trace:
        traced = [(op, op_spans) for op, op_spans in good if op_spans is not None]
        plain = [op for op, op_spans in good if op_spans is None]
        layers = [layer_metrics(op_spans, op.picard_iters, op.steps) for op, op_spans in traced]
        values = {metric: _median(row[metric] for row in layers) for metric in layers[0]} if layers else {}
        if traced and plain:
            values["trace.wall_s"] = _median(op.wall for op, _ in traced)
            values["trace.untraced_wall_s"] = _median(op.wall for op in plain)
            values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        values = {"setup_s": _median(setups), "peak_rss_mb": peak_rss_mb}
        if good:
            values["wall_s"] = _median(op.wall for op, _ in good)
            values["step_ms"] = _median(op.step_ms for op, _ in good)
            values.update(zip(("err_p", "err_s", "err_u"), good[0][0].errors))
        units = {n: u for n, u, _, _ in END_TO_END}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units if n in values}
    failed = len(records) - len(good)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    return result, [op_spans for _, op_spans in records if op_spans is not None]


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    facts = machine_facts(seed)
    result, spans = measure(name, seed, seconds, trace)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    record = {"workload": name, "trace": trace, "seconds": seconds, "machine": facts, **result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    if trace:
        (OUT / f"spans-{tag}.json").write_text(json.dumps({"fields": ["name", "start", "end", "parent", "size"], "ops": spans}))
    print(f"machine {json.dumps(facts)}")
    for metric, entry in result["metrics"].items():
        print(f"{name:<13} {metric:<24} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so that peak_rss_mb stays per workload."""
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        completed = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("machine ")))
        last = json.loads(lines[-1]) if completed.returncode == 0 and lines else None
        if last is None or not last["correct"]:
            code = 1
        print(f"{name:<13} correct={last and last['correct']} attempted={last and last['attempted']} "
              f"failed={last and last['failed']}")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_threads()
    pin_layout()
    import_program()
    from workloads import WORKLOADS

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
