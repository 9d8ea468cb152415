"""The benchmark's workloads: inputs from a seed, one closed-loop operation
each, and the checks every operation's outputs must pass.

Only the public API is driven: ``unit_square_mesh``,
``ExpandedMixedSolver(...).run``, ``error_norms`` and ``forchmix.cli.main``.
Each is looked up on its module at call time, so the wrappers of
``spans.layer_patches`` see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import forchmix.cli as fcli
import forchmix.mesh as fmesh
import forchmix.mms as fmms
import forchmix.solver as fsolver
from forchmix.law import ForchheimerLaw, law_from_string
from spans import patched

DEFAULT_SEED = 0
# Relative tolerance on err_p, err_s, err_u against the recorded reference.
# Iterates may move within the Picard tolerance (1e-6); accuracy lost beyond
# 0.1% of an error norm is a failed operation.
ERR_REL_TOL = 1e-3
# |int p^n - int p^{n-1} - dt int f^n| is at rounding level (~1e-16) by
# construction of the scheme, whatever the linear solver returns.
MASS_TOL = 1e-12
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def linear_law(seed: int) -> str:
    """g(s) = 1 + s, for which K has a closed form; the seed is only recorded."""
    return "1:0,1:1"


def stiff_law(seed: int) -> str:
    """g(s) = 1 + a_2 s^2, which needs the Newton root solve for K.

    a_2 is 1e4 at the default seed, else drawn from 1e4 * (1 + k/100) with
    k in -4..4: wide enough to change the inputs, narrow enough that the
    Picard counts (and so the work) do not change.
    """
    a2 = 10000
    if seed != DEFAULT_SEED:
        a2 += 100 * int(np.random.default_rng(seed).integers(-4, 5))
    return f"1:0,{a2}:2"


@dataclass(frozen=True)
class Workload:
    """One benchmark input.

    API workloads run one mesh for a fixed number of backward-Euler steps
    at dt = h^2; CLI workloads run ``forchmix.cli.main`` on the mesh list
    with ``--T t_final`` and its default step policy.
    """

    name: str
    why: str
    meshes: tuple[int, ...]
    steps: int = 0
    t_final: float = 0.0
    cli: bool = False
    law: Callable[[int], str] = linear_law


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fine-lu",
            "n=128, closed-form K: one sparse LU per Picard iterate dominates, "
            "where LU reuse must win",
            meshes=(128,),
            steps=3,
        ),
        Workload(
            "newton-stiff",
            "n=16, law 1:0,1e4:2: Newton-solved K, forcing and Picard dominate "
            "and LU is small, so a faster K shows here only",
            meshes=(16,),
            steps=12,
            law=stiff_law,
        ),
        Workload(
            "cli-study",
            "the users' CLI study on meshes 4..32: small matrices, so per-call "
            "overhead, setup, error norms and the report matter",
            meshes=(4, 8, 16, 32),
            t_final=0.125,
            cli=True,
        ),
    )
}


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


@dataclass
class Op:
    """One closed-loop operation: wall time, each ``run`` call, final errors."""

    wall: float = 0.0
    # (seconds, steps, Picard iterates) of each ``run`` call, in call order
    runs: list[tuple[float, int, int]] = field(default_factory=list)
    errors: tuple[float, float, float] | None = None
    failure: str | None = None

    @property
    def step_ms(self) -> float:
        """Milliseconds per step of the finest (last) mesh's run."""
        seconds, steps, _ = self.runs[-1]
        return 1e3 * seconds / steps

    @property
    def steps(self) -> int:
        return sum(r[1] for r in self.runs)

    @property
    def picard_iters(self) -> int:
        """Picard iterates, each of which is one frozen-coefficient linear solve."""
        return sum(r[2] for r in self.runs)


def _recording(runs: list) -> Callable:
    def factory(original: Callable) -> Callable:
        def run(self, *args, **kwargs):
            start = time.perf_counter()
            result = original(self, *args, **kwargs)
            runs.append((time.perf_counter() - start, self.config.num_steps, result))
            return result

        return run

    return factory


def _api(workload: Workload, law: ForchheimerLaw) -> tuple[float, float, float]:
    exact = fmms.ManufacturedSolution(law)
    mesh = fmesh.unit_square_mesh(workload.meshes[0])
    dt = mesh.h**2
    config = fsolver.SolverConfig(dt=dt, t_final=workload.steps * dt)
    solver = fsolver.ExpandedMixedSolver(mesh, law, config)
    result = solver.run(exact.f, exact.p0, exact.s0, exact.u0)
    return fmms.error_norms(mesh, solver.dofmap, result.state, exact)


def _cli(workload: Workload, law_text: str, csv_path: Path) -> tuple[float, float, float]:
    argv = [
        "--law", law_text,
        "--mesh", ",".join(str(n) for n in workload.meshes),
        "--T", repr(workload.t_final),
        "--format", "csv",
        "--out", str(csv_path),
    ]
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = fcli.main(argv)
    if code != 0:
        raise CheckFailed(f"forchmix exited with {code}: {stderr.getvalue().strip()}")
    with open(csv_path, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if [int(row["n"]) for row in rows] != list(workload.meshes):
        raise CheckFailed("report rows do not match the mesh list")
    errors = [tuple(float(row[k]) for k in ("err_p", "err_s", "err_u")) for row in rows]
    if not all(math.isfinite(v) for row in errors for v in row):
        raise CheckFailed("report holds a non-finite error")
    return errors[-1]


def _check_runs(results: list[fsolver.RunResult]) -> None:
    if not results:
        raise CheckFailed("the solver never ran")
    for result in results:
        state = result.state
        if not all(np.all(np.isfinite(v)) for v in (state.p, state.s, state.u)):
            raise CheckFailed("non-finite field in the final state")
        for residual, f_int in zip(result.mass_residuals, result.f_integrals):
            if not residual <= MASS_TOL * (1.0 + abs(f_int)):
                raise CheckFailed(f"mass residual {residual:.3e} above rounding level")


def run_op(workload: Workload, law_text: str, csv_path: Path) -> Op:
    """Run one operation and check its outputs; a failure is recorded, not raised."""
    op = Op()
    runs: list[tuple[float, int, fsolver.RunResult]] = []
    start = time.perf_counter()
    try:
        with patched([(fsolver.ExpandedMixedSolver, "run", _recording(runs))]):
            law = law_from_string(law_text)
            if workload.cli:
                op.errors = _cli(workload, law_text, csv_path)
            else:
                op.errors = _api(workload, law)
        op.wall = time.perf_counter() - start
        _check_runs([result for _, _, result in runs])
    # RuntimeError covers PicardError, RootSolveError and non-finite solves
    except (RuntimeError, CheckFailed) as exc:
        op.wall = op.wall or time.perf_counter() - start
        op.failure = f"{type(exc).__name__}: {exc}"
    op.runs = [(seconds, steps, sum(result.picard_iters)) for seconds, steps, result in runs]
    return op


def check_reference(workload: Workload, law_text: str, errors) -> str | None:
    """Compare final errors with the recorded reference; None when they agree."""
    references = json.loads(REFERENCE_FILE.read_text())[workload.name]
    if law_text not in references:
        return f"no reference for law {law_text}"
    for name, value, ref in zip(("err_p", "err_s", "err_u"), errors, references[law_text]):
        if not abs(value - ref) <= ERR_REL_TOL * ref:
            return f"{name} = {value:.6e} differs from reference {ref:.6e}"
    return None


def setup_seconds(workload: Workload, law: ForchheimerLaw) -> float:
    """Mesh builds plus solver constructors over the workload's meshes.

    The constructor's work does not depend on dt or t_final, so one step of
    dt = h^2 stands in for every step policy.
    """
    start = time.perf_counter()
    for n in workload.meshes:
        mesh = fmesh.unit_square_mesh(n)
        config = fsolver.SolverConfig(dt=mesh.h**2, t_final=mesh.h**2)
        fsolver.ExpandedMixedSolver(mesh, law, config)
    return time.perf_counter() - start
