"""FB15k's shape, from a seed: ingest, mining, table I/O, warm and projected epochs, evaluation.

The graph has FB15k's counts: 14,951 entities, 1,345 relations and
483,142 train, 50,000 valid and 59,071 test facts.  Relation frequencies
follow Zipf with exponent 1.1 and entity weights Zipf with exponent 0.5;
every fact is distinct and none is a self-loop.  Nothing is downloaded:
the splits are drawn with numpy and written as TSV files to a temporary
directory.  The script then times ``load_dataset`` + ``augment_inverse``,
``build_path_table`` at the default floor and cap, and the table's
``save`` and ``PathTable.load`` through a temporary file, and two epochs
of the warm start (dim 50, batches of 4,800, as ``train``'s defaults),
then prints one JSON line.  Both warm epochs are printed: the first
(``warm_epoch1_s``) also builds the sorted train keys, and
``warm_epoch_s`` and ``warm_triples_per_s`` are the second's.
The path evidence of every augmented train fact (``models.path_evidence``,
their stored paths and reliabilities) is then read once on its own
(``evidence_s``), and one projected epoch (``train_epoch_ptransr``, stage
ptransr, ``TrainConfig``'s defaults: dim 50, batches of 4,800, lr 0.001)
runs with the mined table on a copy of the warm model (``proj_epoch_s``).
``proj_epoch_s`` is that call's whole time: its own evidence pass, the
same work as ``evidence_s``, and then the epoch's batches.  The warm model is
then evaluated on a seeded sample of 2,000 test facts, with
the mined table, at ``rerank_k`` 10 and 500 (``eval_k10_instances_per_s``,
``eval_k500_instances_per_s``), and the early-stop probe
``valid_mean_rank`` runs on a seeded sample of 2,000 valid facts
(``probe_instances_per_s``).  Both samples go into one graph with the
whole train split, so the known facts that filter the ranks are train
plus the two samples; its index of them is built before the timing.

    PYTHONPATH=src python3 tools/scale.py --seed 0

Put another checkout's ``src`` on PYTHONPATH to measure that checkout.
``peak_rss_mb`` is the whole process's peak, generation and table load included,
and ``user_cpu_s`` its user CPU seconds.  ``blas_threads`` is the
``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` setting the process was
started with, or ``"default"`` (``tools/ab.py``'s ``blas_threads``): a
comparison must hold it fixed, and the script sets no thread count itself.
``mine_peak_mb`` is mining's own: the ``tracemalloc`` peak of numpy's
allocations in a second, untimed ``build_path_table`` run, so that
``mine_s`` is not traced.  That run follows the table's ``save``, with no
table held; the rest of the script uses the table ``PathTable.load`` read.
"""

from __future__ import annotations

import argparse
import json
import resource
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from pathkge import (
    KnowledgeGraph, PathTable, TrainConfig, augment_inverse, build_path_table, evaluate,
    load_dataset,
)
from pathkge.evaluator import valid_mean_rank
from pathkge.models import path_evidence
from pathkge.trainer import init_transe, train_epoch_ptransr

from ab import blas_threads

N_ENTITIES = 14_951
N_RELATIONS = 1_345
SPLITS = {"train": 483_142, "valid": 50_000, "test": 59_071}
RELATION_EXPONENT = 1.1
ENTITY_EXPONENT = 0.5
EVAL_SAMPLE = 2_000


def zipf_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Probabilities proportional to rank ** -exponent, ranks shuffled over ids."""
    w = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return rng.permutation(w / w.sum())


def draw_facts(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` distinct (h, r, t) rows without self-loops, in draw order."""
    rel_p = zipf_weights(N_RELATIONS, RELATION_EXPONENT, rng)
    ent_p = zipf_weights(N_ENTITIES, ENTITY_EXPONENT, rng)
    facts = np.zeros((0, 3), dtype=np.int64)
    while len(facts) < count:
        size = 2 * (count - len(facts))
        more = np.stack([
            rng.choice(N_ENTITIES, size=size, p=ent_p),
            rng.choice(N_RELATIONS, size=size, p=rel_p),
            rng.choice(N_ENTITIES, size=size, p=ent_p),
        ], axis=1)
        facts = np.concatenate((facts, more[more[:, 0] != more[:, 2]]))
        key = (facts[:, 0] * N_RELATIONS + facts[:, 1]) * N_ENTITIES + facts[:, 2]
        _, first = np.unique(key, return_index=True)
        facts = facts[np.sort(first)]
    return facts[:count]


def write_splits(facts: np.ndarray, out: Path) -> list[Path]:
    paths, start = [], 0
    for name, count in SPLITS.items():
        rows = facts[start:start + count].tolist()
        start += count
        path = out / f"{name}.txt"
        path.write_text("".join(f"e{h}\tr{r}\te{t}\n" for h, r, t in rows), encoding="utf-8")
        paths.append(path)
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    facts = draw_facts(np.random.default_rng(args.seed), sum(SPLITS.values()))
    with tempfile.TemporaryDirectory() as tmp:
        files = write_splits(facts, Path(tmp))
        del facts
        start = time.perf_counter()
        g = augment_inverse(load_dataset(*files))
        load_s = time.perf_counter() - start

    stats: dict = {}
    start = time.perf_counter()
    table = build_path_table(g, stats=stats)
    mine_s = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "paths.ptbl"
        start = time.perf_counter()
        table.save(path)
        table_save_s = time.perf_counter() - start
        table_bytes = path.stat().st_size
        del table
        tracemalloc.start()
        build_path_table(g)
        mine_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        start = time.perf_counter()
        table = PathTable.load(path)
        table_load_s = time.perf_counter() - start
    records: list[dict] = []
    cfg = TrainConfig(stage="transe", lr=0.01, epochs=2, seed=args.seed)
    params = init_transe(g, cfg, emit=records.append)
    warm_epoch1_s = records[0]["wall_time"]
    warm_epoch_s = records[1]["wall_time"] - records[0]["wall_time"]
    start = time.perf_counter()
    path_evidence(table, g.train[:, 0], g.train[:, 1], g.train[:, 2])
    evidence_s = time.perf_counter() - start
    start = time.perf_counter()
    train_epoch_ptransr(g, table, params.copy(), TrainConfig(seed=args.seed),
                        np.random.default_rng(args.seed))
    proj_epoch_s = time.perf_counter() - start

    pick = np.random.default_rng(args.seed)
    valid, test = (
        split[np.sort(pick.choice(len(split), EVAL_SAMPLE, replace=False))]
        for split in (g.valid, g.test)
    )
    sample = KnowledgeGraph(g.vocab, g.train, valid, test, g.n_relations_orig, augmented=True)
    sample.known_tails(0, 0)
    rates = {}
    for k in (10, 500):
        start = time.perf_counter()
        report = evaluate(params, table, sample, split="test", rerank_k=k)
        rates[f"eval_k{k}_instances_per_s"] = round(
            report.n_instances / (time.perf_counter() - start)
        )
    start = time.perf_counter()
    valid_mean_rank(params, sample)
    rates["probe_instances_per_s"] = round(2 * len(valid) / (time.perf_counter() - start))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "seed": args.seed,
        "entities": g.n_entities,
        "relations": g.n_relations_orig,
        "train_augmented": len(g.train),
        "load_augment_s": round(load_s, 3),
        "mine_s": round(mine_s, 3),
        "mine_peak_mb": round(mine_peak_mb, 1),
        "entries_mined": stats["n_entries_prefilter"],
        "entries_kept": stats["n_entries"],
        "pairs": stats["n_pairs"],
        "paths": stats["n_paths"],
        "pairs_capped": stats.get("n_pairs_capped"),
        "walks": stats.get("n_walks"),
        "save_s": round(table_save_s, 3),
        "load_s": round(table_load_s, 3),
        "table_bytes": table_bytes,
        "warm_epoch1_s": round(warm_epoch1_s, 3),
        "warm_epoch_s": round(warm_epoch_s, 3),
        "warm_triples_per_s": round(len(g.train) / warm_epoch_s),
        "evidence_s": round(evidence_s, 3),
        "proj_epoch_s": round(proj_epoch_s, 3),
        "proj_triples_per_s": round(len(g.train) / proj_epoch_s),
        **rates,
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "user_cpu_s": round(usage.ru_utime, 2),
        "blas_threads": blas_threads(),
    }))


if __name__ == "__main__":
    main()
