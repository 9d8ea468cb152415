"""Outside-in layer tracing for the benchmark.

The program under test carries no instrumentation.  Instead, module and
class attributes of ``forchmix`` are swapped for wrappers that record a span
(name, start, end, parent, size) around each call, and are put back
afterwards.  ``size`` is the work a call did where one is known: points for
a conductivity evaluation, L+U nonzeros for a factorization.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

Factory = Callable[[Callable], Callable]

NAME, START, END, PARENT, SIZE = range(5)


@contextmanager
def patched(patches: list[tuple[object, str, Factory]]) -> Iterator[None]:
    """Replace each ``owner.attr`` by ``factory(original)``; restore on exit."""
    saved = []
    try:
        for owner, attr, factory in patches:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder; spans nest by the call stack of one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, size: int = 0) -> Iterator[list]:
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, size]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, size: Callable[..., int] | None = None) -> Factory:
        def factory(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with self.span(name, size(*args, **kwargs) if size else 0):
                    return original(*args, **kwargs)

            return wrapper

        return factory

    def factorization(self, original: Callable) -> Callable:
        """Wrap ``splu``: time it, record the L+U fill, time the returned ``solve``."""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span("solver.factor") as record:
                lu = original(*args, **kwargs)
            record[SIZE] = lu.nnz
            return _TracedLU(lu, self)

        return wrapper


class _TracedLU:
    def __init__(self, lu, tracer: Tracer) -> None:
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("solver.tri_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._lu, name)


def _points(law, xi, *args, **kwargs) -> int:
    return int(np.size(xi))


def _vectors(law, y, *args, **kwargs) -> int:
    return int(np.size(y) // np.shape(y)[-1])


def layer_patches(tracer: Tracer) -> list[tuple[object, str, Factory]]:
    """Every layer boundary the benchmark traces, as (owner, attribute, wrapper)."""
    import forchmix.cli as cli
    import forchmix.mesh as mesh
    import forchmix.mms as mms
    import forchmix.solver as solver

    cls = solver.ExpandedMixedSolver
    return [
        (solver, "splu", tracer.factorization),
        (solver, "K_eval", tracer.timed("law.eval", _points)),
        (mms, "K_eval", tracer.timed("law.eval", _points)),
        (mms, "K_prime", tracer.timed("law.eval", _points)),
        (mms, "K_flux", tracer.timed("law.eval", _vectors)),
        (mms, "forcing_f", tracer.timed("mms.forcing")),
        (mms, "error_norms", tracer.timed("mms.error_norms")),
        (mesh, "unit_square_mesh", tracer.timed("mesh.build")),
        (mms, "unit_square_mesh", tracer.timed("mesh.build")),
        (solver, "build_dofmap", tracer.timed("spaces.assemble")),
        (solver, "assemble_forms", tracer.timed("spaces.assemble")),
        (solver, "l2_project_scalar", tracer.timed("spaces.project")),
        (solver, "l2_project_vector", tracer.timed("spaces.project")),
        (solver, "hdiv_interpolate", tracer.timed("spaces.project")),
        (cls, "__init__", tracer.timed("solver.init")),
        (cls, "run", tracer.timed("solver.run")),
        (cli, "convergence_study", tracer.timed("mms.study")),
        (cli, "main", tracer.timed("cli.main")),
    ]


# per-layer metric -> span name; each sums self time, the seconds net of child spans
_SELF_TIMES = {
    "solver.factor_s": "solver.factor",
    "solver.tri_solve_s": "solver.tri_solve",
    "solver.run_self_s": "solver.run",
    "solver.init_self_s": "solver.init",
    "law.eval_s": "law.eval",
    "mms.forcing_s": "mms.forcing",
    "mms.error_norms_s": "mms.error_norms",
    "mms.study_self_s": "mms.study",
    "mesh.build_s": "mesh.build",
    "spaces.assemble_s": "spaces.assemble",
    "spaces.project_s": "spaces.project",
    "cli.report_s": "cli.main",
}


def layer_metrics(spans: list[list], picard_iters: int, steps: int) -> dict[str, float]:
    """Per-layer metrics of one operation whose spans all descend from spans[0].

    ``picard_iters`` and ``steps`` are the operation's totals over its runs;
    each Picard iterate is one linear solve.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    size: dict[str, int] = defaultdict(int)
    fill = 0
    for index, span in enumerate(spans):
        name = span[NAME]
        self_s[name] += span[END] - span[START] - child[index]
        calls[name] += 1
        size[name] += span[SIZE]
        if name == "solver.factor":
            fill = max(fill, span[SIZE])
    root = spans[0]
    wall = root[END] - root[START]
    metrics = {metric: self_s[name] for metric, name in _SELF_TIMES.items()}
    metrics.update(
        {
            "solver.factor_count": calls["solver.factor"],
            "solver.lu_fill_nnz": fill,
            "solver.tri_solve_count": calls["solver.tri_solve"],
            "solver.factor_per_solve": calls["solver.factor"] / picard_iters,
            "solver.picard_per_step": picard_iters / steps,
            "law.eval_calls": calls["law.eval"],
            "law.eval_points": size["law.eval"],
            "law.us_per_point": 1e6 * self_s["law.eval"] / max(1, size["law.eval"]),
            "trace.coverage": 1.0 - self_s[root[NAME]] / wall,
            "trace.spans": len(spans),
        }
    )
    return metrics
