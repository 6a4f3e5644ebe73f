"""The A/B tools' shared runner, ``tools/ab.py``, loaded by path: pytest does
not collect ``tools/``, and the tools run as scripts rather than as a package."""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("ab", TOOLS / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PRINT_PYTHONPATH = "import os; print(os.environ.get('PYTHONPATH'))"


@pytest.mark.parametrize("text, seeds", [("1-3", [1, 2, 3]), ("1,2,3,7,9", [1, 2, 3, 7, 9])],
                         ids=["range", "list"])
def test_seeds_reads_a_range_and_a_list(text, seeds):
    assert ab.seeds(text) == seeds


def test_seeds_refuses_a_range_with_none():
    with pytest.raises(argparse.ArgumentTypeError, match=r"^no seeds in '10-1'$"):
        ab.seeds("10-1")


@pytest.mark.parametrize("tool", ["pairs", "quality", "same_bytes"])
def test_each_tool_refuses_an_empty_seed_list_in_one_line(tool, tmp_path):
    done = subprocess.run(
        [sys.executable, str(TOOLS / f"{tool}.py"), "A", "B", "--seeds", "10-1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.splitlines()[-1] == (
        f"{tool}.py: error: argument --seeds: no seeds in '10-1'"
    )
    assert done.stdout == ""


def test_a_child_sees_src_as_its_pythonpath_and_nothing_the_caller_set(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(tmp_path / "callers"))
    src = tmp_path / "src"
    assert ab.run(["-c", PRINT_PYTHONPATH], tmp_path, src=src).stdout == f"{src}\n"
    assert ab.run(["-c", PRINT_PYTHONPATH], tmp_path).stdout == "None\n"


def test_a_failing_child_ends_the_tool_with_its_status_and_stderr_tail(tmp_path):
    failing = "import sys; sys.stderr.write('x' * 3000 + 'TAIL'); sys.exit(3)"
    with pytest.raises(SystemExit) as info:
        ab.run(["-c", failing], tmp_path, what="checkout, seed 4")
    message = str(info.value.code)
    head, tail = message.split("\n", 1)
    assert head == "checkout, seed 4: exit 3"
    assert tail == ("x" * 3000 + "TAIL")[-2000:]
