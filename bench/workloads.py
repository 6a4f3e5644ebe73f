"""Workloads, verb sequences and the pass runner shared by both run modes.

A workload is one seeded dataset spec plus the ``pathkge`` verb sequence
run on it.  Every verb runs in-process through ``pathkge.cli.main`` and
never passes ``--workers``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from speed import SpeedMeter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# Every call is timed in reference seconds (``speed.SpeedMeter``), which
# takes out the machine's drifting speed.  A verb shorter than SHORT_VERB_S
# carries few speed samples per call, so it runs again, in rounds over all
# short verbs after the sequence for about REPEAT_S seconds, and is timed
# by the median of its rounds.  In a round, a verb runs back to back for
# about BATCH_S, so that speed samples fall inside its calls.
SHORT_VERB_S = 2.0
REPEAT_S = 4.0
BATCH_S = 0.25
MAX_ROUNDS = 40


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One verb call; ``flags`` maps option names to their values."""

    verb: str
    flags: dict

    def argv(self, data: Path) -> list[str]:
        out = [self.verb, "--data", str(data)]
        for key, value in self.flags.items():
            out += [f"--{key}", str(value)]
        return out


def _fit_t(work: Path, seed: int) -> list[Step]:
    table = work / "paths.ptbl"
    warm = work / "warm" / "model.ptrm"
    dims = {"dim-entity": 20, "dim-relation": 20}
    proj = {"init": warm, **dims, "lr": 0.01, "epochs": 40, "batch-size": 100,
            "margin2": 0.5, "seed": seed}
    return [
        Step("extract-paths", {"out": table}),
        Step("train", {"stage": "transe", **dims, "lr": 0.05, "epochs": 100,
                       "batch-size": 100, "seed": seed, "out": work / "warm"}),
        Step("train", {"stage": "transr", **proj, "out": work / "transr"}),
        Step("train", {"stage": "ptransr", "table": table, **proj,
                       "out": work / "ptransr"}),
        Step("evaluate", {"model": work / "transr" / "model.ptrm", "rerank-k": 50,
                          "out": work / "eval-transr"}),
        Step("evaluate", {"model": work / "ptransr" / "model.ptrm", "table": table,
                          "rerank-k": 50, "out": work / "eval-ptransr"}),
    ]


def _pipeline_s(work: Path, seed: int) -> list[Step]:
    table = work / "paths.ptbl"
    return [
        Step("extract-paths", {"out": table}),
        Step("train", {"stage": "ptransr", "table": table, "dim-entity": 50,
                       "dim-relation": 50, "warm-epochs": 5, "epochs": 3,
                       "lr": 0.01, "warm-lr": 0.01, "seed": seed,
                       "out": work / "model"}),
        Step("evaluate", {"model": work / "model" / "model.ptrm", "table": table,
                          "out": work / "eval"}),
    ]


def _mine_m(work: Path, seed: int) -> list[Step]:
    return [
        Step("extract-paths", {"out": work / "paths.ptbl"}),
        Step("train", {"stage": "transe", "epochs": 0, "dim-entity": 50,
                       "dim-relation": 50, "seed": seed, "out": work / "model"}),
        Step("evaluate", {"model": work / "model" / "model.ptrm", "split": "valid",
                          "rerank-k": 10, "out": work / "eval"}),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict                                     # ``synth.Spec`` fields but the seed
    steps: Callable[[Path, int], list[Step]]       # (work dir, seed) -> verb sequence
    setup_reps: int
    check_sample: int  # instances per evaluate re-ranked by brute force


RULES_2 = ((0, 1, 2), (3, 4, 5))

WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance 7's protocol for one seed: tiny dense graph, small
        # batches, so per-triple trainer costs dominate and quality shows.
        Workload("fit-T", {}, _fit_t, setup_reps=60, check_sample=24),
        # The default user path at moderate scale: path hinges in training
        # and the path term of the rerank dominate.
        Workload(
            "pipeline-S",
            dict(n_entities=500, n_relations=8, composition_rules=RULES_2,
                 base_facts_per_relation=1000),
            _pipeline_s, setup_reps=25, check_sample=4,
        ),
        # 10x S: mining and graph indexing at scale.  Nothing is trained (an
        # untrained unit-norm model; stage-1 cost does not depend on model
        # quality) and evaluation is stage 1 only, with no table.
        Workload(
            "mine-M",
            dict(n_entities=2500, n_relations=8, composition_rules=RULES_2,
                 base_facts_per_relation=8000),
            _mine_m, setup_reps=5, check_sample=4,
        ),
    )
}


# -- operation accounting ----------------------------------------------------


class Ops:
    """Every verb call and probe, with the problems found in it.

    A nonzero exit, an exception or a failed output check fails the
    operation it belongs to.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []

    def record(self, name: str, error: str | None = None) -> dict:
        rec = {"name": name, "errors": [error] if error else []}
        self.records.append(rec)
        return rec

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for rec in self.records if rec["errors"])


def run_verb(cli, step: Step, data: Path, ops: Ops) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(step.argv(data))
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return ops.record(step.verb, f"raised {type(exc).__name__}: {exc}")
    return ops.record(step.verb, f"exit {rc}: {err.getvalue().strip()}" if rc else None)


@dataclass
class PassTimes:
    total_s: float
    verb_s: list[tuple[str, float]]  # (verb, seconds) per step
    records: list[dict]              # the operation record of each step


def run_pass(cli, steps: list[Step], data: Path, ops: Ops, tracer=None,
             repeat_s: float = 0.0) -> PassTimes | None:
    """Run the verb sequence once; None if a verb failed (the rest is skipped).

    Without ``tracer`` each call is timed in reference seconds; with it, in
    wall seconds inside a ``cli.<verb>`` span.  With ``repeat_s`` > 0 the
    short verbs then run again, round after round with the same arguments
    (each rewrites the same outputs), for about ``repeat_s`` seconds, in
    batches of about ``BATCH_S``; a verb's time is the median of its first
    call and its per-call batch times, and ``total_s`` is the sum of the
    verb times.
    """
    gc.collect()
    times: list[list[float]] = []
    records = []

    def call(step: Step, batch: int = 1) -> tuple[dict, float]:
        if tracer is None:
            with SpeedMeter() as meter:
                for _ in range(batch):
                    rec = run_verb(cli, step, data, ops)
                    if rec["errors"]:
                        break
            return rec, meter.ref_s / batch
        with tracer.span("cli." + step.verb):
            t0 = time.perf_counter()
            rec = run_verb(cli, step, data, ops)
            return rec, time.perf_counter() - t0

    for step in steps:
        rec, dt = call(step)
        if rec["errors"]:
            return None
        times.append([dt])
        records.append(rec)
    short = {i: max(1, round(BATCH_S / ts[0]))
             for i, ts in enumerate(times) if ts[0] < SHORT_VERB_S}
    t0 = time.perf_counter()
    rounds = 0
    while short and time.perf_counter() - t0 < repeat_s and rounds < MAX_ROUNDS:
        for i, batch in short.items():
            rec, dt = call(steps[i], batch)
            if rec["errors"]:
                return None
            times[i].append(dt)
        rounds += 1
    verb_s = [(step.verb, statistics.median(ts)) for step, ts in zip(steps, times)]
    return PassTimes(sum(dt for _, dt in verb_s), verb_s, records)


@dataclass
class Outcome:
    """What a run measured and the last pass whose outputs get checked."""

    metrics: dict
    units: dict
    g: object                 # the augmented graph, for the checks
    steps: list[Step] | None  # None when a verb failed
    records: list[dict] | None
    info: dict


def load_graph(pk, data: Path):
    """``load_dataset`` + ``augment_inverse``: what every verb does first."""
    return pk.augment_inverse(
        pk.load_dataset(data / "train.txt", data / "valid.txt", data / "test.txt")
    )


def quality(steps: list[Step]) -> dict:
    """Filtered metrics of the path model (the last evaluate with a table,
    else the last evaluate) and its Hits@10 gap over the path-free model
    evaluated in the same sequence (0 when there is none)."""
    reports = [
        (s, json.loads((Path(s.flags["out"]) / "report.json").read_text(encoding="utf-8")))
        for s in steps if s.verb == "evaluate"
    ]
    with_table = [r for s, r in reports if "table" in s.flags]
    without = [r for s, r in reports if "table" not in s.flags]
    main = with_table[-1] if with_table else reports[-1][1]
    hits = main["overall"]["hits_at_10"]["filter"]
    gap = 0.0
    if with_table and without:
        gap = hits - without[-1]["overall"]["hits_at_10"]["filter"]
    return {
        "hits10_filter": hits,
        "mr_filter": main["overall"]["mean_rank"]["filter"],
        "hits10_gap_pts": gap,
    }
