"""Acceptance 7's quality protocol over many seeds, for one checkout or paired with another.

For each seed, a fresh process that imports the checkout's own ``src``
runs acceptance 7's protocol (``tests/test_acceptance.py``): the default
synthetic graph of that seed, its path table at the default floor and
cap, a 100-epoch TransE warm start, then 40 epochs of TransR and of
PTransR from that start, and the test split ranked with every entity in
the rerank window.  It prints, per seed, the filtered Hits@10 and mean
rank of the plain model (ranked with ``PathTable.empty``) and of the path
model (ranked with the table), the Hits@10 gap (path minus plain), and
the two cross evaluations: the path model ranked with ``PathTable.empty``
and the plain model ranked with the table.  Then it prints the gap's mean,
sd, standard error, the seeds it loses and its means over blocks of five
seeds, and every metric's mean.  With ``--parent`` every seed also runs in the parent checkout, and
each metric's paired difference (checkout minus parent) is printed as
mean ± standard error, followed by one ``verdict: PASS`` or ``verdict:
FAIL`` line.

The rule for a change that re-draws the training stream: each paired
difference of the gap, of plain and path Hits@10 and of plain and path
mean rank must lie within two standard errors of 0, or be better (higher
Hits@10 and gap, lower mean rank).  A FAIL line names each metric that is
worse by more than that, with its mean ± s.e.  A byte-identical change
reads +0.0000 ± 0.0000 on every difference and passes.

    python3 tools/quality.py CHECKOUT [--parent DIR] --seeds 1-30

Seeds 1-5 are acceptance 7's own.  Run it from anywhere; pytest does not
collect ``tools/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Runs with the checkout's ``src`` on the path: argv[1] is the seed, argv[2]
# an empty directory for the graph; prints the metrics as one JSON line.
_PROTOCOL = """
import json, sys
from dataclasses import replace
from pathlib import Path
from pathkge.cli import SyntheticKGSpec, generate_synthetic_kg
from pathkge.evaluator import evaluate
from pathkge.kgdata import augment_inverse, load_dataset
from pathkge.paths import PathTable, build_path_table
from pathkge.trainer import TrainConfig, init_transe, train

seed, d = int(sys.argv[1]), Path(sys.argv[2])
generate_synthetic_kg(SyntheticKGSpec(seed=seed), d)
g = augment_inverse(load_dataset(d / "train.txt", d / "valid.txt", d / "test.txt"))
table, empty = build_path_table(g), PathTable.empty(g.n_entities)
base = TrainConfig(
    stage="transr", dim_entity=20, dim_relation=20,
    lr=0.01, margin2=0.5, batch_size=100, epochs=40,
    seed=seed, warm_lr=0.05, warm_epochs=100,
)
warm = init_transe(g, replace(base, stage="transe", lr=0.05, epochs=100))
models = {"plain": train(g, None, base, init_params=warm)[0],
          "path": train(g, table, replace(base, stage="ptransr"), init_params=warm)[0]}
out = {}
for name, model, tbl in (("plain", "plain", empty), ("path", "path", table),
                         ("path_empty", "path", empty), ("plain_table", "plain", table)):
    report = evaluate(models[model], tbl, g, split="test", rerank_k=g.n_entities)
    out[f"{name}_hits10"] = report.hits10_filter
    out[f"{name}_mr"] = report.mean_rank_filter
out["gap"] = out["path_hits10"] - out["plain_hits10"]
print(json.dumps(out))
"""

COLUMNS = ("plain_hits10", "path_hits10", "gap", "plain_mr", "path_mr",
           "path_empty_hits10", "path_empty_mr", "plain_table_hits10", "plain_table_mr")


def seed_range(text: str) -> list[int]:
    """``1-30`` or ``3,5,8`` as a list of seeds."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run_seed(checkout: Path, seed: int) -> dict[str, float]:
    """The protocol's metrics for one seed, computed by ``checkout``'s ``src``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-c", _PROTOCOL, str(seed), work],
                              cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}, seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def mean_se(values: list[float]) -> tuple[float, float, float]:
    """Mean, sample sd and standard error of the mean (sd 0 for one value)."""
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    return statistics.fmean(values), sd, sd / math.sqrt(len(values))


def summarize(seeds: list[int], rows: list[dict]) -> None:
    gaps = [row["gap"] for row in rows]
    mean, sd, se = mean_se(gaps)
    losing = [seed for seed, gap in zip(seeds, gaps) if gap < 0]
    blocks = [statistics.fmean(gaps[i:i + 5]) for i in range(0, len(gaps), 5)]
    print(f"gap over {len(gaps)} seeds: mean {mean:+.2f}, sd {sd:.2f}, s.e. {se:.2f}")
    print(f"losing seeds ({len(losing)}): {' '.join(map(str, losing)) or 'none'}")
    print("five-seed block means: " + "/".join(f"{b:+.2f}" for b in blocks))
    print("means: " + ", ".join(f"{name} {statistics.fmean(row[name] for row in rows):.2f}"
                                for name in COLUMNS))


def verdict(diffs: dict[str, list[float]]) -> str:
    """The docstring's rule over the paired differences, as one line."""
    failing = []
    for name in ("gap", "plain_hits10", "path_hits10", "plain_mr", "path_mr"):
        mean, _, se = mean_se(diffs[name])
        gain = -mean if name.endswith("_mr") else mean
        if gain < -2.0 * se:
            failing.append(f"{name} {mean:+.4f} ± {se:.4f}")
    return "verdict: " + ("FAIL: " + ", ".join(failing) if failing else "PASS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--seeds", type=seed_range, required=True)
    args = parser.parse_args(argv)

    sides = {"checkout": args.checkout.resolve()}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    print("seed " + " ".join(f"{name:>6s}" for name in COLUMNS))
    for seed in args.seeds:
        for side, checkout in sides.items():
            row = run_seed(checkout, seed)
            runs[side].append(row)
            label = f"{seed:4d}" if side == "checkout" else "   p"
            print(label + "".join(f" {row[name]:{max(len(name), 6)}.2f}" for name in COLUMNS),
                  flush=True)

    print(f"\n{sides['checkout']}")
    summarize(args.seeds, runs["checkout"])
    if "parent" in sides:
        print(f"\nparent {sides['parent']}")
        summarize(args.seeds, runs["parent"])
        print("\npaired difference, checkout minus parent (mean ± s.e.):")
        diffs = {name: [c[name] - p[name] for c, p in zip(runs["checkout"], runs["parent"])]
                 for name in COLUMNS}
        for name, values in diffs.items():
            mean, _, se = mean_se(values)
            print(f"  {name:18s} {mean:+.4f} ± {se:.4f}")
        print(verdict(diffs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
