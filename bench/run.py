"""End-to-end benchmark of the pathkge verbs on seeded synthetic graphs.

Usage (from the repository root):

    python3 bench/run.py --workload pipeline-S --seed 7 --seconds 10 --trace 0

Each run generates its workload's dataset from ``--seed`` with the
benchmark's own generator, times ``load_dataset`` + ``augment_inverse``
(``setup_s``), then runs the workload's verb sequence in-process through
``pathkge.cli.main`` until ``--seconds`` have been measured (at least one
pass), timing each call in reference seconds (``speed.py``), checks every artifact and report, and prints one JSON result as the
last line of standard output.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` replays the sequence once with spans around the
package's public functions, runs the decomposition probes, and reports
the per-layer metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from speed import SpeedMeter  # noqa: E402
from synth import Spec, generate, split_digests  # noqa: E402
from workloads import (  # noqa: E402
    REPEAT_S, ROOT, WORK, WORKLOADS, Ops, Outcome, PassTimes, Workload, load_graph,
    quality, run_pass,
)

SRC = ROOT / "src"


def _import_package():
    """Import pathkge from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pathkge" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pathkge

    if Path(pathkge.__file__).resolve().parent != (SRC / "pathkge").resolve():
        raise SystemExit(f"error: pathkge imported from {pathkge.__file__}, not {SRC}")
    return pathkge


END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "mine_s": "s",
    "eval_instances_per_s": "instances/s",
    "peak_rss_mb": "MB",
    "mr_filter": "rank",
}


# -- end-to-end run ----------------------------------------------------------


def end_to_end(pk, wl: Workload, seed: int, seconds: float, work: Path, data: Path,
               ops: Ops) -> Outcome:
    setup: list[float] = []

    def time_setup(reps: int):
        g = None
        for _ in range(reps):
            with SpeedMeter() as meter:
                g = load_graph(pk, data)
            setup.append(meter.ref_s)
        return g

    # Half the set-up samples before the passes and half after; like a
    # short verb, set-up is timed by the median of its runs, in reference
    # seconds.
    g = time_setup((wl.setup_reps + 1) // 2)
    passes: list[PassTimes] = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        steps = wl.steps(work / f"pass{len(passes)}", seed)
        times = run_pass(pk.cli, steps, data, ops, repeat_s=REPEAT_S)
        if times is None:
            return Outcome({}, END_TO_END_UNITS, g, None, None, {})
        passes.append(times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    time_setup(wl.setup_reps // 2)

    def per_pass(verb: str) -> list[float]:
        return [sum(dt for v, dt in p.verb_s if v == verb) for p in passes]

    instances = sum(
        json.loads((Path(s.flags["out"]) / "report.json").read_text(encoding="utf-8"))
        ["n_instances"]
        for s in steps if s.verb == "evaluate"
    )
    metrics = {
        "setup_s": statistics.median(setup),
        "total_s": statistics.median(p.total_s for p in passes),
        "mine_s": statistics.median(per_pass("extract-paths")),
        "eval_instances_per_s": instances / statistics.median(per_pass("evaluate")),
        "peak_rss_mb": peak_mb,
        "mr_filter": quality(steps)["mr_filter"],
    }
    info = {"passes": len(passes), "setup_reps": len(setup),
            "verb_s": passes[-1].verb_s}
    return Outcome(metrics, END_TO_END_UNITS, g, steps, passes[-1].records, info)


# -- main ------------------------------------------------------------------------


def machine_info(pk) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pathkge": pk.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pk = _import_package()
    from checks import check_outputs
    from layers import traced_run
    from spans import TraceError

    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    ops = Ops()
    try:
        generate(Spec(seed=args.seed, **wl.spec), data)
        info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                "inputs_sha256": split_digests(data), "machine": machine_info(pk)}
        if args.trace:
            try:
                out = traced_run(pk, wl, args.seed, work, data, ops)
            except TraceError as exc:
                sys.stderr.write(f"error: {exc}\n")
                return 2
        else:
            out = end_to_end(pk, wl, args.seed, args.seconds, work, data, ops)
        if out.steps is not None:
            check_outputs(pk, out.g, out.steps, out.records, wl.check_sample)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info.update(out.info)
    for rec in ops.records:
        for why in rec["errors"]:
            sys.stderr.write(f"FAILED {rec['name']}: {why}\n")
    correct = ops.failed == 0 and out.steps is not None
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": out.metrics[name], "unit": unit}
            for name, unit in out.units.items() if name in out.metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
