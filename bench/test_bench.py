"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import signal
import time
import types

import pytest

from layers import LAYER_UNITS
from pathkge.cli import SyntheticKGSpec, generate_synthetic_kg
from run import END_TO_END_UNITS
from spans import TraceError, Tracer
from speed import SpeedMeter
from synth import Spec, generate
from workloads import ROOT, WORKLOADS


@pytest.mark.parametrize(
    "workload,seed", [("fit-T", 2), ("pipeline-S", 7), ("mine-M", 7)]
)
def test_inputs_match_package_generator(tmp_path, workload, seed):
    spec = WORKLOADS[workload].spec
    ours = generate(Spec(seed=seed, **spec), tmp_path / "bench")
    theirs = generate_synthetic_kg(SyntheticKGSpec(seed=seed, **spec), tmp_path / "cli")
    assert ours == theirs
    for name in ("train.txt", "valid.txt", "test.txt", "spec.json"):
        assert (tmp_path / "bench" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


def test_benchmark_json_lists_what_the_runs_print():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_UNITS


def test_trace_wraps_and_restores_and_refuses_missing_names():
    class Box:
        @classmethod
        def make(cls, x):
            return (cls, x)

    mod = types.SimpleNamespace(double=lambda x: 2 * x)
    tracer = Tracer("test")
    tracer.patch("double", mod, "double", lambda a, k, res, counts: counts.update(out=res))
    tracer.patch("make", Box, "make")
    assert mod.double(3) == 6
    assert Box.make(1) == (Box, 1)
    assert [s["name"] for s in tracer.spans] == ["double", "make"]
    assert tracer.spans[0]["counts"] == {"out": 6}
    tracer.restore()
    assert not hasattr(mod.double, "__wrapped__")
    assert isinstance(vars(Box)["make"], classmethod)
    with pytest.raises(TraceError, match="gone_away no longer exists"):
        tracer.patch("gone", mod, "gone_away")


def test_speed_meter_samples_inside_the_call_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedMeter() as meter:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 4  # two bracketing samples, ~3 inside
    assert 0 < meter.sampling_s < 0.2 * meter.wall_s
    assert meter.ref_s > 0
