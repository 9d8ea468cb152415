"""Command-line driver for convergence studies.

Runs the manufactured-solution study for a configurable Forchheimer law,
mesh sequence, and time-step policy, and writes the report as CSV or a
Markdown table.  Exit codes: 0 success, 2 usage error, 3 failure of the
study (nonlinear solve, root solve, out of memory or an internal error),
4 output I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .law import ForchheimerLaw, law_from_string
from .mms import _check_study, convergence_study

_DEFAULT_MESHES = (4, 8, 16, 32, 64)


def _law(text: str) -> ForchheimerLaw:
    try:
        return law_from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _mesh_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid mesh list {text!r}")


def _dt_policy(text: str) -> float | str:
    """A number as a float, any other text as it is: the study names the policies."""
    try:
        return float(text)
    except ValueError:
        return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forchmix",
        description=(
            "Convergence study for the expanded mixed finite element "
            "discretization of generalized Forchheimer flow."
        ),
    )
    parser.add_argument(
        "--law",
        type=_law,
        default="1:0,1:1",
        help="comma list of coefficient:exponent terms (default '1:0,1:1', i.e. g(s)=1+s)",
    )
    parser.add_argument(
        "--mesh",
        dest="mesh_sizes",
        type=_mesh_sizes,
        default=_DEFAULT_MESHES,
        help=(
            "comma list of strictly increasing mesh sizes n (default 4,8,16,32,64); "
            "under the h2 policy with T=1 mesh n takes n^2/2 steps; README gives their cost"
        ),
    )
    parser.add_argument(
        "--dt",
        type=_dt_policy,
        default="h2",
        help="fixed time step, or 'h2' for dt = min(cap, h^2) per mesh (default h2)",
    )
    parser.add_argument(
        "--dt-cap",
        type=float,
        default=1e-2,
        help="cap for the h2 policy, inf for none (default 1e-2)",
    )
    parser.add_argument(
        "--T",
        dest="t_final",
        type=float,
        default=1.0,
        help="final time (default 1.0)",
    )
    parser.add_argument(
        "--tol",
        dest="picard_tol",
        type=float,
        default=1e-6,
        help="relative tolerance of the Newton iteration in each step (default 1e-6)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("csv", "markdown"),
        default="markdown",
        help="report format (default markdown)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: write the report to stdout)",
    )
    return parser


def _study_keywords(args: argparse.Namespace) -> dict:
    """convergence_study's keyword arguments, each the dest of its flag."""
    return {name: getattr(args, name) for name in ("dt", "dt_cap", "t_final", "picard_tol")}


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Parse CLI flags and check them as convergence_study does; malformed
    flags exit with code 2, a bad value naming the study argument at fault.

    The namespace holds the law as a ForchheimerLaw, the study's keyword
    arguments under convergence_study's names, and fmt and out.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_study(args.mesh_sizes, **_study_keywords(args))
    except ValueError as exc:
        parser.error(str(exc))
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Run the study described by argv and write the report."""
    args = parse_args(argv)
    try:
        report = convergence_study(args.law, args.mesh_sizes, **_study_keywords(args))
    except (RuntimeError, ValueError) as exc:
        print(f"forchmix: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"forchmix: out of memory: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug: report it in one line, not a traceback
        print(f"forchmix: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    text = report.to_csv() if args.fmt == "csv" else report.to_markdown()
    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        print(f"forchmix: cannot write report: {exc}", file=sys.stderr)
        return 4

    last = report.rows[-1]
    rate_text = ", ".join(
        f"{name}={value:.2f}" if value is not None else f"{name}=n/a"
        for name, value in (("p", last.rate_p), ("s", last.rate_s), ("u", last.rate_u))
    )
    print(f"forchmix: finest mesh n={last.n}: rates {rate_text}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
