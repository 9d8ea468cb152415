"""tools/peak_rss.py: one march and its error norms, and the peak RSS."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"


def test_peak_rss_of_a_small_march(tmp_path) -> None:
    """At n=4 the tool runs fine-lu's march and norms, or a 5-step march
    under --steps 5, and prints one positive number of MiB; a mesh size of 0
    and --steps 0 are usage errors."""
    for extra in ([], ["--steps", "5"]):
        run = subprocess.run(
            [sys.executable, str(_TOOL), "4", *extra],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        )
        assert float(run.stdout) > 0.0
    for argv, message in ((["0"], "N must be positive"), (["4", "--steps", "0"], "--steps must be positive")):
        bad = subprocess.run([sys.executable, str(_TOOL), *argv], cwd=tmp_path, capture_output=True, text=True)
        assert bad.returncode == 2 and message in bad.stderr
