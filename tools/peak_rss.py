"""Peak resident memory of one march and its error norms.

Usage, from anywhere:

    python3 tools/peak_rss.py N [--steps K]

Runs the benchmark's fine-lu operation, perfbench/workloads.py's _api, on
the n x n unit-square mesh in place of n = 128: the manufactured problem of
fine-lu's law marched for K steps at dt = h^2, by default fine-lu's own
number, then the error norms of the final level.  It prints the process's
peak RSS in MiB, so a long march's peak reads in the benchmark's layout.
It runs as the benchmark does: one BLAS thread and the fixed memory layout
of perfbench/run.py, whose pin_layout re-executes this script once, and
forchmix from this checkout's src/.  Run it in a fresh process per figure;
the peak is the process's own.
"""

from __future__ import annotations

import argparse
import dataclasses
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import import_program, pin_layout, pin_threads  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="mesh size")
    parser.add_argument("--steps", type=int, help="time steps (default: fine-lu's)")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("N must be positive")
    if args.steps is not None and args.steps < 1:
        parser.error("--steps must be positive")

    pin_threads()
    pin_layout()
    import_program()
    from forchmix import law_from_string
    from workloads import DEFAULT_SEED, WORKLOADS, _api

    workload = WORKLOADS["fine-lu"]
    workload = dataclasses.replace(workload, meshes=(args.n,), steps=args.steps or workload.steps)
    _api(workload, law_from_string(workload.law(DEFAULT_SEED)))
    print(f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
