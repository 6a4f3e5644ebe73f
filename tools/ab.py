"""What the A/B tools share: the seed list, the BLAS setting and the child process.

Each tool runs from anywhere as a script in ``tools/``, which puts this
module on its path; pytest does not collect ``tools/``, and
``tests/test_tools.py`` loads this file by path.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    """``41-50`` or ``1,2,3,7,9`` as a list of seeds; a list with none is refused."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-", 1))
        values = list(range(lo, hi + 1))
    else:
        values = [int(part) for part in text.split(",")]
    if not values:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return values


def blas_threads() -> str:
    """The BLAS thread variables that are set, as ``NAME=value`` pairs, or ``"default"``."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    return " ".join(f"{n}={os.environ[n]}" for n in names if n in os.environ) or "default"


def run(args: list[str], cwd: Path, src: Path | None = None,
        what: str | None = None) -> subprocess.CompletedProcess:
    """``python *args`` in ``cwd``: a fresh process, the caller's environment less
    PYTHONPATH or with PYTHONPATH ``src``, output captured as text.  With ``what``, a
    nonzero exit ends the tool with ``what``, the exit status and stderr's last 2,000 chars."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    if src is None:
        del env["PYTHONPATH"]
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if what is not None and proc.returncode != 0:
        sys.exit(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return proc
