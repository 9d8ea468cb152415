"""The package surface: its exports, the README examples, and the attributes
the benchmark's tracer replaces."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
from pathlib import Path

import forchmix

_ROOT = Path(__file__).resolve().parents[1]


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


def test_benchmark_tracer_finds_every_layer() -> None:
    """perfbench/spans.py replaces module and class attributes by name; each
    one must still exist, or a traced benchmark run fails with KeyError."""
    spec = importlib.util.spec_from_file_location("spans", _ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    patches = spans.layer_patches(spans.Tracer())
    assert patches
    missing = [(owner.__name__, attr) for owner, attr, _ in patches if attr not in vars(owner)]
    assert missing == []
