"""The package surface: its exports, the README examples, the attributes
the benchmark's tracer replaces, and one definition per top-level name."""

from __future__ import annotations

import ast
import collections
import contextlib
import importlib.util
import io
import re
from pathlib import Path

import forchmix
import forchmix.cli as cli
import forchmix.mesh as mesh_module
import forchmix.mms as mms

_ROOT = Path(__file__).resolve().parents[1]


def test_no_module_defines_a_name_twice() -> None:
    """No module of the package or its tests defines a top-level function
    or class twice: the second definition silently replaces the first, and a
    second test of one name hides the first from pytest."""
    modules = sorted((_ROOT / "src" / "forchmix").glob("*.py")) + sorted((_ROOT / "tests").glob("*.py"))
    assert modules
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    repeated = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        counts = collections.Counter(node.name for node in tree.body if isinstance(node, kinds))
        repeated += [f"{path.relative_to(_ROOT)}: {name}" for name, count in counts.items() if count > 1]
    assert repeated == []


def test_readme_names_every_export() -> None:
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`([A-Za-z_]\w*)`", readme))
    assert sorted(set(forchmix.__all__) - named) == []
    assert all(hasattr(forchmix, name) for name in forchmix.__all__)


def test_readme_python_examples_run() -> None:
    """Every fenced python block of README runs, so an example that uses a
    removed or renamed name fails here."""
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks
    for number, block in enumerate(blocks):
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, f"README.md python block {number}", "exec"), {})


def _load_spans():
    """perfbench/spans.py, loaded from its file: perfbench is no package."""
    spec = importlib.util.spec_from_file_location("spans", _ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_finds_every_layer() -> None:
    """perfbench/spans.py replaces module and class attributes by name; each
    one must still exist, or a traced benchmark run fails with KeyError."""
    spans = _load_spans()
    patches = spans.layer_patches(spans.Tracer())
    assert patches
    missing = [(owner.__name__, attr) for owner, attr, _ in patches if attr not in vars(owner)]
    assert missing == []


def test_every_traced_hook_is_called(tmp_path: Path) -> None:
    """A tiny API march and a tiny CLI study call every attribute the tracer
    wraps except mms.K_eval and mms.K_prime, since the forcing takes K and
    the slope of s g(s) from one root solve and evaluates no K', and
    solver.K_eval, since a Newton iterate evaluates the law's polynomial g
    with no root solve; a hook that nothing calls times no work."""
    spans = _load_spans()
    calls: dict[tuple[str, str], int] = {}

    def counter(key: tuple[str, str]):
        def factory(original):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            return wrapper

        return factory

    patches = []
    for owner, attr, _ in spans.layer_patches(spans.Tracer()):
        key = (owner.__name__, attr)
        calls[key] = 0
        patches.append((owner, attr, counter(key)))
    with spans.patched(patches):
        law = forchmix.law_from_string("1:0,1:1")
        exact = forchmix.ManufacturedSolution(law)
        mesh = mesh_module.unit_square_mesh(4)
        config = forchmix.SolverConfig(dt=0.01, t_final=0.02)
        solver = forchmix.ExpandedMixedSolver(mesh, law, config)
        result = solver.run(exact.f, exact.p0, exact.s0, exact.u0)
        mms.error_norms(mesh, solver.dofmap, result.state, exact)
        argv = ["--mesh", "2,4", "--T", "0.02", "--format", "csv", "--out", str(tmp_path / "study.csv")]
        assert cli.main(argv) == 0
    never = {key for key, count in calls.items() if count == 0}
    assert never == {
        ("forchmix.mms", "K_eval"),
        ("forchmix.mms", "K_prime"),
        ("forchmix.solver", "K_eval"),
    }
