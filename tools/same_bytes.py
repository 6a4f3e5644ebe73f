"""Compare the files two checkouts write for every benchmark workload, byte for byte.

For each workload of ``bench/workloads.py`` and each seed, the inputs are
generated once with ``bench/synth.py``.  The workload's verb sequence then
runs in a fresh process per checkout, on that checkout's ``src``, each
writing under its own directory.  After it, each ``evaluate`` step runs
once more with ``--rerank-k 1000000000``, a window that holds every
entity, into a sibling directory (``eval`` -> ``eval-whole``): mine-M's
valid split then ranks 2,500 entities that way.  Every file written is
compared between the two, except two fields that must differ: the
``config`` echo of ``report.json`` (it names run paths) and the
``wall_time`` of each ``train_log.jsonl`` record.  Those files are
compared without them.

    python3 tools/same_bytes.py PARENT CHANGE --seeds 1,2,3,7,9

It prints one line per file that differs or exists on one side only, and
one summary line per workload and seed; the exit status is 1 if any file
differs.  A ``train_log.jsonl`` that differs gets one more line naming
the record fields that differ and in how many records, e.g.
``fields: loss (8 of 8 records)``.  Seeds (none is refused), the first line
``blas_threads: <setting>`` and each side's process, with PYTHONPATH the
checkout's ``src``, come from ``tools/ab.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path

import ab

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
from synth import Spec, generate  # noqa: E402
from workloads import WORKLOADS, Step  # noqa: E402

# Runs with a checkout's ``src`` on the path: argv[1] is a JSON list of
# verb argument lists, run in order until one fails.
_VERBS = """
import json, sys
from pathkge.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"exit 1: {argv}")
"""


def with_whole_windows(steps: list[Step]) -> list[Step]:
    """``steps``, then each evaluate step again with a window of every
    entity, written to its output directory's ``-whole`` sibling."""
    return steps + [
        Step(s.verb, {**s.flags, "rerank-k": 10**9, "out": f"{s.flags['out']}-whole"})
        for s in steps if s.verb == "evaluate"
    ]


def content(path: Path) -> bytes:
    """The file's bytes, less the fields that name paths or times."""
    if path.name == "report.json":
        payload = json.loads(path.read_bytes())
        payload.pop("config", None)
        return json.dumps(payload, sort_keys=True, indent=2).encode()
    if path.name == "train_log.jsonl":
        records = [json.loads(line) for line in path.read_bytes().splitlines()]
        for record in records:
            record.pop("wall_time", None)
        return "\n".join(json.dumps(r, sort_keys=True) for r in records).encode()
    return path.read_bytes()


def log_fields(parent: Path, change: Path) -> str:
    """The record fields in which two train logs differ, less the ignored
    ones, each with the number of records it differs in."""
    logs = [[json.loads(line) for line in content(p).splitlines()] for p in (parent, change)]
    missing = object()
    counts = Counter()
    for a, b in zip_longest(*logs, fillvalue={}):
        counts.update(k for k in a.keys() | b.keys() if a.get(k, missing) != b.get(k, missing))
    n = max(map(len, logs))
    return "fields: " + (", ".join(f"{k} ({c} of {n} records)" for k, c in sorted(counts.items()))
                         or "none")


def files(root: Path) -> dict[str, Path]:
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=ab.seeds, default="1,2,3,7,9")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    print(f"blas_threads: {ab.blas_threads()}")
    differ = 0
    for name, wl in WORKLOADS.items():
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                tmp = Path(tmp)
                data = tmp / "data"
                generate(Spec(seed=seed, **wl.spec), data)
                written = {}
                for side, checkout in checkouts.items():
                    work = tmp / side
                    work.mkdir()
                    steps = with_whole_windows(wl.steps(work, seed))
                    ab.run(["-c", _VERBS, json.dumps([s.argv(data) for s in steps])], work,
                           src=checkout / "src", what=str(checkout))
                    written[side] = files(work)
                parent, change = written["parent"], written["change"]
                bad = []
                for rel in sorted(parent.keys() | change.keys()):
                    if rel not in parent or rel not in change:
                        bad.append((rel, f"only in {'parent' if rel in parent else 'change'}"))
                    elif content(parent[rel]) != content(change[rel]):
                        bad.append((rel, "differs"))
                for rel, why in bad:
                    print(f"{name} seed {seed}: {rel}: {why}")
                    if why == "differs" and Path(rel).name == "train_log.jsonl":
                        print(f"{name} seed {seed}: {rel}: {log_fields(parent[rel], change[rel])}")
                print(f"{name} seed {seed}: {len(parent.keys() | change.keys()) - len(bad)} "
                      f"files the same, {len(bad)} differ")
                differ += len(bad)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
