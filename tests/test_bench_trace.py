"""The traced benchmark run still finds every function it wraps.

``bench/run.py --trace 1`` wraps the package's public functions by name and
reads the first span of each; a verb that stops calling one of them fails
only the traced run.  fit-T reaches every wrapped name.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_fit_t_run_is_correct():
    argv = [sys.executable, "bench/run.py", "--workload", "fit-T", "--seed", "7",
            "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
