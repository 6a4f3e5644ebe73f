"""The traced run: per-layer metrics from spans the benchmark records.

The verb sequence runs once with every public function the verbs reach
wrapped in a span (``install``), then the decomposition probes run as
spans of their own: an evaluate with an empty table, one projected epoch
with and without the table, and a per-call score probe.  No file of the
package changes; the wrappers live only in this process.
"""

from __future__ import annotations

import os
import statistics
import time
import types
from pathlib import Path

import numpy as np

from workloads import WORK, Ops, Outcome, Step, Workload, load_graph, quality, run_pass
from spans import Tracer, duration

LAYER_UNITS = {
    "kgdata.load_s": "s",
    "kgdata.augment_s": "s",
    "kgdata.pair_index_s": "s",
    "kgdata.train_triples": "count",
    "paths.build_s": "s",
    "paths.entries_mined": "count",
    "paths.entries": "count",
    "paths.keep_ratio": "ratio",
    "paths.pairs": "count",
    "paths.paths": "count",
    "paths.save_s": "s",
    "paths.load_s": "s",
    "paths.table_bytes": "bytes",
    "models.score_transr_us": "us",
    "models.score_ptransr_us": "us",
    "models.probe_path_entries": "count",
    "trainer.train_triples_per_s": "triples/s",
    "trainer.warm_s": "s",
    "trainer.warm_triples_per_s": "triples/s",
    "trainer.proj_s": "s",
    "trainer.proj_triples_per_s": "triples/s",
    "trainer.epoch_s_p50": "s",
    "trainer.epoch_s_max": "s",
    "trainer.proj_epochs": "count",
    "trainer.violations": "count",
    "trainer.path_epoch_s": "s",
    "trainer.nopath_epoch_s": "s",
    "trainer.path_share": "ratio",
    "evaluator.evaluate_s": "s",
    "evaluator.instances_per_s": "instances/s",
    "evaluator.instances": "count",
    "evaluator.rerank_candidates": "count",
    "evaluator.nopath_s": "s",
    "evaluator.path_share": "ratio",
    "evaluator.write_s": "s",
    "cli.extract_paths_self_s": "s",
    "cli.train_self_s": "s",
    "cli.evaluate_self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "quality.hits10_filter": "%",
    "quality.mr_filter": "rank",
    "quality.hits10_gap_pts": "points",
}

PROBE_INSTANCES = 8    # facts whose rerank windows feed the score probe
PROBE_PER_WINDOW = 32  # top candidates taken from each window
PROBE_REPEATS = 3


def install(tracer: Tracer, pk) -> None:
    """Wrap each public name where its caller looks it up."""
    cli, trainer = pk.cli, pk.trainer

    def n_train(args, kwargs, g, counts):
        counts["train_triples"] = len(g.train)

    def mined(args, kwargs, table, counts):
        counts.update(kwargs.get("stats") or {})

    def saved(args, kwargs, result, counts):
        counts["bytes"] = os.path.getsize(args[1])

    def trained(args, kwargs, result, counts):
        g, config = args[0], args[2]
        _, records = result
        walls, prev = [], 0.0
        for rec in records:
            if "loss" in rec:
                walls.append((rec["stage"], rec["wall_time"] - prev, rec["violations"]))
                prev = rec["wall_time"]
        counts.update(
            stage=config.stage,
            n_train=len(g.train),
            epoch_s=[dt for stage, dt, _ in walls if stage != "transe"],
            violations=walls[-1][2] if walls else 0,
        )

    def warmed(args, kwargs, result, counts):
        counts["triples"] = args[1].epochs * len(args[0].train)

    def ranked(args, kwargs, report, counts):
        params = args[0]
        counts["instances"] = report.n_instances
        counts["rerank_candidates"] = report.n_instances * min(
            report.rerank_k, params.n_entities
        )

    tracer.patch("kgdata.load_dataset", cli, "load_dataset")
    tracer.patch("kgdata.augment_inverse", cli, "augment_inverse", n_train)
    tracer.patch("kgdata.train_pairs", pk.KnowledgeGraph, "train_pairs")
    tracer.patch("paths.build_path_table", cli, "build_path_table", mined)
    tracer.patch("paths.save", pk.PathTable, "save", saved)
    tracer.patch("paths.load", pk.PathTable, "load")
    tracer.patch("models.save", pk.ModelParams, "save")
    tracer.patch("models.load", pk.ModelParams, "load")
    tracer.patch("trainer.train", cli, "train", trained)
    tracer.patch("trainer.init_transe", trainer, "init_transe", warmed)
    tracer.patch("evaluator.evaluate", cli, "evaluate", ranked)
    for writer in ("write_report_text", "write_report_json", "write_ranks_csv"):
        tracer.patch("evaluator.write", cli, writer)


def traced_run(pk, wl: Workload, seed: int, work: Path, data: Path, ops: Ops) -> Outcome:
    g = load_graph(pk, data)
    tracer = Tracer(run_id=f"{wl.name}-seed{seed}-{os.getpid()}")
    steps = wl.steps(work / "traced", seed)
    try:
        install(tracer, pk)
        traced = run_pass(pk.cli, steps, data, ops, tracer)
        if traced is None:
            return Outcome({}, LAYER_UNITS, g, None, None, {})
        probes = run_probes(pk, tracer, g, steps, seed, ops)
    finally:
        tracer.restore()
    trace_file = WORK / "traces" / f"{wl.name}-seed{seed}.jsonl"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_file)

    metrics = layer_metrics(tracer, probes)
    metrics["trace.total_s"] = traced.total_s
    metrics["trace.overhead_s"] = len(tracer.spans) * span_cost_s()
    metrics.update({f"quality.{k}": v for k, v in quality(steps).items()})
    info = {"spans": len(tracer.spans),
            "trace_file": str(trace_file.relative_to(WORK.parent))}
    return Outcome(metrics, LAYER_UNITS, g, steps, traced.records, info)


def span_cost_s(calls: int = 5000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one,
    median of three measurements."""
    holder = types.SimpleNamespace(noop=lambda: None)
    bare = holder.noop
    tracer = Tracer("span-cost")
    tracer.patch("noop", holder, "noop")
    costs = []
    for _ in range(3):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            holder.noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            bare()
        costs.append(((t1 - t0) - (time.perf_counter() - t1)) / calls)
    return statistics.median(costs)


# -- probes ------------------------------------------------------------------


def run_probes(pk, tracer: Tracer, g, steps: list[Step], seed: int, ops: Ops) -> dict:
    """Decomposition probes; each is one operation and one span."""
    out: dict = {}
    evals = [s for s in steps if s.verb == "evaluate"]
    last_eval = evals[-1]
    table_file = next(s.flags["out"] for s in steps if s.verb == "extract-paths")

    def probe(name: str, fn) -> None:
        rec = ops.record(name)
        try:
            with tracer.span(name):
                fn()
        except Exception as exc:  # a failed probe is a failed operation
            rec["errors"].append(f"raised {type(exc).__name__}: {exc}")

    def eval_nopath():
        params = pk.ModelParams.load(last_eval.flags["model"])
        t0 = time.perf_counter()
        pk.evaluator.evaluate(
            params, pk.PathTable.empty(g.n_entities), g,
            split=last_eval.flags.get("split", "test"),
            rerank_k=int(last_eval.flags.get("rerank-k", pk.evaluator.DEFAULT_RERANK_K)),
        )
        out["evaluator.nopath_s"] = time.perf_counter() - t0

    if "table" in last_eval.flags:  # else the verb itself ran path-free
        probe("probe.evaluate_nopath", eval_nopath)

    projected = [s for s in steps if s.verb == "train" and s.flags["stage"] != "transe"]
    if projected:
        step = projected[-1]

        def epochs():
            params = pk.ModelParams.load(Path(step.flags["out"]) / "model.ptrm")
            table = pk.PathTable.load(table_file)
            cfg = pk.TrainConfig(
                stage="ptransr",
                dim_entity=params.dim_entity,
                dim_relation=params.dim_relation,
                lr=float(step.flags["lr"]),
                margin2=float(step.flags.get("margin2", 1.0)),
                batch_size=int(step.flags.get("batch-size", 4800)),
                seed=seed,
            )
            for name, tbl in (("path", table), ("nopath", pk.PathTable.empty(g.n_entities))):
                rng = np.random.default_rng(seed)
                work = params.copy()
                t0 = time.perf_counter()
                pk.trainer.train_epoch_ptransr(g, tbl, work, cfg, rng)
                out[f"trainer.{name}_epoch_s"] = time.perf_counter() - t0

        probe("probe.epoch_path_vs_nopath", epochs)

    def scores():
        params = pk.ModelParams.load(last_eval.flags["model"])
        table = pk.PathTable.load(table_file)
        k = int(last_eval.flags.get("rerank-k", pk.evaluator.DEFAULT_RERANK_K))
        triples = window_triples(g, params, last_eval.flags.get("split", "test"), k)
        out["models.probe_path_entries"] = sum(
            len(table.paths_for(h, t)[0]) for h, _, t in triples
        )
        for name, fn in (
            ("score_transr", lambda h, r, t: pk.score_transr(params, h, r, t)),
            ("score_ptransr", lambda h, r, t: pk.score_ptransr(params, table, h, r, t)),
        ):
            reps = []
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                for h, r, t in triples:
                    fn(h, r, t)
                reps.append((time.perf_counter() - t0) / len(triples) * 1e6)
            out[f"models.{name}_us"] = statistics.median(reps)

    probe("probe.score", scores)
    return out


def window_triples(g, params, split: str, k: int) -> list[tuple[int, int, int]]:
    """The top candidates of the tail-slot rerank windows of the first facts,
    in both directions, as the rerank scores them."""
    ent = params.entity_emb.astype(np.float64)
    out = []
    for h, r, _ in getattr(g, split)[:PROBE_INSTANCES].tolist():
        proj = ent @ params.proj[r].astype(np.float64).T
        s1 = np.square(proj[h] + params.relation_emb[r] - proj).sum(axis=1)
        window = np.argsort(s1, kind="stable")[: min(k, g.n_entities)]
        r_inv = g.inverse_of(r)
        for e in window[:PROBE_PER_WINDOW].tolist():
            out.append((h, r, e))
            out.append((e, r_inv, h))
    return out


# -- metrics -------------------------------------------------------------------


def layer_metrics(tracer: Tracer, probes: dict) -> dict:
    def spans(name: str) -> list[dict]:
        return tracer.named(name)

    def total(name: str) -> float:
        return sum(duration(s) for s in spans(name))

    def median(name: str) -> float:
        found = spans(name)
        return statistics.median(duration(s) for s in found) if found else 0.0

    m: dict = {}
    m["kgdata.load_s"] = median("kgdata.load_dataset")
    m["kgdata.augment_s"] = median("kgdata.augment_inverse")
    m["kgdata.pair_index_s"] = duration(spans("kgdata.train_pairs")[0])
    m["kgdata.train_triples"] = spans("kgdata.augment_inverse")[0]["counts"]["train_triples"]

    build = spans("paths.build_path_table")[0]
    stats = build["counts"]
    m["paths.build_s"] = duration(build)
    m["paths.entries_mined"] = stats["n_entries_prefilter"]
    m["paths.entries"] = stats["n_entries"]
    m["paths.keep_ratio"] = stats["n_entries"] / max(stats["n_entries_prefilter"], 1)
    m["paths.pairs"] = stats["n_pairs"]
    m["paths.paths"] = stats["n_paths"]
    m["paths.save_s"] = median("paths.save")
    m["paths.load_s"] = median("paths.load")
    m["paths.table_bytes"] = spans("paths.save")[0]["counts"]["bytes"]

    for name in ("models.score_transr_us", "models.score_ptransr_us",
                 "models.probe_path_entries"):
        m[name] = probes.get(name, 0.0)

    warm = spans("trainer.init_transe")
    m["trainer.warm_s"] = sum(duration(s) for s in warm)
    warm_triples = sum(s["counts"]["triples"] for s in warm)
    m["trainer.warm_triples_per_s"] = warm_triples / m["trainer.warm_s"] if warm else 0.0
    trains = spans("trainer.train")
    epoch_s = [dt for s in trains for dt in s["counts"]["epoch_s"]]
    proj_triples = sum(len(s["counts"]["epoch_s"]) * s["counts"]["n_train"] for s in trains)
    train_verbs_s = sum(duration(s) for s in spans("cli.train"))
    m["trainer.train_triples_per_s"] = (warm_triples + proj_triples) / train_verbs_s
    m["trainer.proj_s"] = sum(epoch_s)
    m["trainer.proj_triples_per_s"] = proj_triples / sum(epoch_s) if epoch_s else 0.0
    m["trainer.epoch_s_p50"] = statistics.median(epoch_s) if epoch_s else 0.0
    m["trainer.epoch_s_max"] = max(epoch_s, default=0.0)
    m["trainer.proj_epochs"] = len(epoch_s)
    m["trainer.violations"] = trains[-1]["counts"]["violations"]
    path_epoch = probes.get("trainer.path_epoch_s", 0.0)
    nopath_epoch = probes.get("trainer.nopath_epoch_s", 0.0)
    m["trainer.path_epoch_s"] = path_epoch
    m["trainer.nopath_epoch_s"] = nopath_epoch
    m["trainer.path_share"] = 1.0 - nopath_epoch / path_epoch if path_epoch else 0.0

    evals = spans("evaluator.evaluate")
    m["evaluator.evaluate_s"] = sum(duration(s) for s in evals)
    m["evaluator.instances"] = sum(s["counts"]["instances"] for s in evals)
    m["evaluator.instances_per_s"] = m["evaluator.instances"] / m["evaluator.evaluate_s"]
    m["evaluator.rerank_candidates"] = sum(s["counts"]["rerank_candidates"] for s in evals)
    nopath = probes.get("evaluator.nopath_s", duration(evals[-1]))
    m["evaluator.nopath_s"] = nopath
    m["evaluator.path_share"] = 1.0 - nopath / duration(evals[-1])
    m["evaluator.write_s"] = total("evaluator.write")

    for verb in ("extract-paths", "train", "evaluate"):
        key = f"cli.{verb.replace('-', '_')}_self_s"
        m[key] = sum(tracer.self_time(s) for s in spans(f"cli.{verb}"))
    return m
