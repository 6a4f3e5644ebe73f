"""Alternating benchmark pairs of two checkouts, judged metric by metric.

Each pair runs ``bench/run.py --workload W --seed S --seconds N`` once in
each checkout, as a fresh process with the same seed; the parent runs
first in even pairs and the change in odd ones.  For every end-to-end
metric of the parent's ``BENCHMARK.json`` it prints each side's median
and quartiles, the pairs the change won (ties count for neither) and
the parent's quartile spread, then whether a gain may be claimed: the
change wins at least nine pairs in ten and its median beats the
parent's by more than that spread.  It also prints the change's median
against the metric's bound, and every run's values as JSON lines.
``--workload`` takes a comma list: the workloads run one after another,
each with every seed, and each gets its own table.  The exit status is
nonzero if, on any workload, the change failed more runs than the parent.

    python3 tools/pairs.py PARENT CHANGE --workload mine-M,pipeline-S,fit-T --seeds 41-50

The two checkout directories must have names of equal length: fit-T
timings were seen to move with the length of the checkout's name.
Seeds (none is refused), the first line ``blas_threads: <setting>`` and each
run's process, with PYTHONPATH removed, come from ``tools/ab.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import ab


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its metric values, or the reason it failed."""
    proc = ab.run(["bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds)], checkout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if proc.returncode != 0 or not result["correct"]:
        return {"error": f"exit {proc.returncode}, {result['failed']} failed", **values}
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(name: str, better: str, bound: float, parent: list[float], change: list[float]) -> str:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = p3 - p1
    gain = sign * (pm - cm)
    claim = wins >= 0.9 * len(parent) and gain > spread
    within = sign * (cm - pm) <= bound * abs(pm)
    rel = 100 * (cm - pm) / abs(pm) if pm else float("nan")
    return (
        f"{name:22s} parent {pm:10.4g} [{p1:.4g}, {p3:.4g}]  change {cm:10.4g} "
        f"[{c1:.4g}, {c3:.4g}]  {rel:+6.1f}%  wins {wins}/{len(parent)}  "
        f"parent spread {spread:.4g}  gain {'claimable' if claim else 'not shown'}  "
        f"bound {bound:g} {'held' if within else 'EXCEEDED'}"
    )


def compare(parent: Path, change: Path, workload: str, seeds: list[int], seconds: float,
            spec: dict) -> bool:
    """Run and judge the pairs of one workload; True if the change failed
    more runs than the parent."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k, seed in enumerate(seeds):
        order = [("parent", parent), ("change", change)]
        for side, checkout in order if k % 2 == 0 else order[::-1]:
            values = run_once(checkout, workload, seed, seconds)
            runs[side].append(values)
            print(json.dumps({"workload": workload, "pair": k, "seed": seed, "side": side,
                              **values}), flush=True)

    failed = {side: sum("error" in r for r in rs) for side, rs in runs.items()}
    print(f"\n{workload}, {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}, "
          f"--seconds {seconds:g}; failed runs: parent {failed['parent']}, "
          f"change {failed['change']}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = [(p[name], c[name]) for p, c in zip(runs["parent"], runs["change"])
                 if name in p and name in c]
        if len(pairs) < 2:
            print(f"{name:22s} fewer than two pairs with a value")
            continue
        p_vals, c_vals = (list(side) for side in zip(*pairs))
        print(judge(name, metric["better"], metric["bound"], p_vals, c_vals))
    print(flush=True)
    return failed["change"] > failed["parent"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", type=lambda text: text.split(","), required=True)
    parser.add_argument("--seeds", type=ab.seeds, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    if len(parent.name) != len(change.name):
        parser.error(f"checkout names {parent.name!r} and {change.name!r} differ in length")
    spec = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workload if w not in names]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; the benchmark has {', '.join(names)}")
    print(f"blas_threads: {ab.blas_threads()}", flush=True)
    worse = [compare(parent, change, w, args.seeds, args.seconds, spec) for w in args.workload]
    return 1 if any(worse) else 0


if __name__ == "__main__":
    sys.exit(main())
