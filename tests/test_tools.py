"""The A/B tools, loaded by path: pytest does not collect ``tools/``, and the
tools run as scripts rather than as a package.  Tested here: the shared runner
``tools/ab.py`` and the two rules every claim is judged by, ``pairs.judge`` and
``quality.verdict``."""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name: str):
    """``tools/<name>.py`` as a module; the tools' own ``import ab`` finds ``ab`` loaded first."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load("ab")
sys.modules.setdefault("ab", ab)
pairs, quality = load("pairs"), load("quality")

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


PARENT = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]  # quartile spread 0.015


@pytest.mark.parametrize("wins, claim", [(10, "claimable"), (9, "claimable"), (8, "not shown")])
def test_judge_claims_nine_wins_in_ten_beyond_the_parents_spread(wins, claim):
    change = [p - 0.1 if i < wins else p + 0.01 for i, p in enumerate(PARENT)]
    line = pairs.judge("total_s", "lower", 0.25, PARENT, change)
    assert f"wins {wins}/10" in line and f"gain {claim} " in line and "bound 0.25 held" in line


def test_judge_claims_no_gain_inside_the_parents_spread():
    line = pairs.judge("total_s", "lower", 0.25, PARENT, [p - 0.01 for p in PARENT])
    assert "wins 10/10" in line and "gain not shown " in line


def test_judge_counts_a_tie_for_neither_side():
    change = [p - 0.1 if i < 9 else p for i, p in enumerate(PARENT)]
    assert "wins 9/10" in pairs.judge("total_s", "lower", 0.25, PARENT, change)
    assert "wins 0/10" in pairs.judge("total_s", "lower", 0.25, PARENT, PARENT)


def test_judge_flips_its_sign_for_higher_is_better():
    faster = [p + 0.1 for p in PARENT]
    assert "wins 10/10" in pairs.judge("rate", "higher", 0.25, PARENT, faster)
    assert "gain claimable " in pairs.judge("rate", "higher", 0.25, PARENT, faster)
    assert "wins 0/10" in pairs.judge("rate", "lower", 0.25, PARENT, faster)


@pytest.mark.parametrize("better, factor, verdict", [
    ("lower", 1.2, "held"), ("lower", 1.3, "EXCEEDED"), ("lower", 0.5, "held"),
    ("higher", 0.8, "held"), ("higher", 0.7, "EXCEEDED"), ("higher", 1.5, "held"),
])
def test_judge_holds_the_change_to_the_metrics_bound(better, factor, verdict):
    line = pairs.judge("m", better, 0.25, PARENT, [p * factor for p in PARENT])
    assert line.endswith(f"bound 0.25 {verdict}")


def test_verdict_passes_a_change_that_moves_nothing():
    zero = {name: [0.0] * 30 for name in quality.COLUMNS}
    assert quality.verdict(zero) == "verdict: PASS"


@pytest.mark.parametrize("name, drop", [("gap", -1.0), ("path_hits10", -1.0), ("plain_mr", 1.0)])
def test_verdict_names_a_metric_worse_by_more_than_two_standard_errors(name, drop):
    diffs = {n: [0.0] * 30 for n in quality.COLUMNS}
    diffs[name] = [drop + 0.1 * (i % 3 - 1) for i in range(30)]  # s.e. ~0.015
    assert quality.verdict(diffs).startswith(f"verdict: FAIL: {name} {drop:+.4f} ± 0.01")
    diffs[name] = [-d for d in diffs[name]]  # the same move the other way is a gain
    assert quality.verdict(diffs) == "verdict: PASS"
