"""Entity-prediction evaluation: two-stage ranking over all entities.

For every evaluation fact and for each slot (head, tail), every entity is
scored as a replacement candidate.  The first stage ranks all candidates
by the projected-translation score alone; the top ``rerank_k`` are then
re-scored by the full model applied in both directions, i.e. the score of
(e, r, t) plus the score of (t, r^-1, e).  Candidates outside the rerank
window keep their first-stage order below the window.

Raw metrics rank against every candidate; filtered metrics drop
candidates that form a known-true fact (the gold entity is never
dropped).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Iterable, Iterator, Literal

import numpy as np

from pathkge.kgdata import (
    CATEGORY_LABELS,
    FREQUENCY_BUCKETS,
    KnowledgeGraph,
    _firsts,
    classify_relations,
    frequency_bucket,
    relation_train_counts,
)
from pathkge.models import ModelParams, path_score_terms
from pathkge.paths import PathTable

TiePolicy = Literal["pessimistic", "mean"]
Protocol = Literal["raw", "filter"]

DEFAULT_RERANK_K = 500
HITS_CUTOFF = 10


class EvalError(ValueError):
    """Invalid evaluation request."""


def tie_rank(scores: np.ndarray, gold_index: int, policy: TiePolicy = "pessimistic") -> int:
    """Rank of the gold candidate among scores (lower score is better).

    Pessimistic places the gold after every candidate with an equal
    score; mean assigns the average rank of the tie group, rounded up.
    Ranks are 1-based.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or len(scores) == 0:
        raise EvalError("scores must be a non-empty 1-D array")
    if not 0 <= gold_index < len(scores):
        raise EvalError(f"gold index {gold_index} out of range")
    if not np.all(np.isfinite(scores)):
        raise EvalError("scores must be finite")
    gold = scores[gold_index]
    return int(_tie_break((scores < gold).sum(), (scores == gold).sum(), policy))


def _tie_break(less: np.ndarray, ties: np.ndarray, policy: TiePolicy) -> np.ndarray:
    """1-based ranks from the count of better candidates and the size of
    the tie group, the gold included."""
    if policy == "pessimistic":
        return less + ties
    if policy == "mean":
        return less + (ties + 2) // 2
    raise EvalError(f"unknown tie policy {policy!r}")


@dataclass(frozen=True)
class RankResult:
    """Outcome of ranking one slot of one evaluation fact."""

    index: int
    slot: str  # "head" or "tail"
    h: int
    r: int
    t: int
    raw_rank: int
    filtered_rank: int | None
    in_window: bool  # the gold entity was in the stage-1 rerank window


@dataclass
class RankReport:
    """Aggregate metrics over one split plus the per-instance ranks."""

    split: str
    protocol: str
    tie_policy: str
    rerank_k: int
    n_triples: int
    n_instances: int
    mean_rank_raw: float
    mean_rank_filter: float | None
    hits10_raw: float
    hits10_filter: float | None
    per_category: dict[str, dict[str, dict[str, float | int]]]
    per_frequency: dict[str, dict[str, float | int]]
    unclassified_instances: int
    window_recall: float  # share of instances with the gold in the rerank window
    instances: list[RankResult] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "protocol": self.protocol,
            "tie_policy": self.tie_policy,
            "rerank_k": self.rerank_k,
            "n_triples": self.n_triples,
            "n_instances": self.n_instances,
            "overall": {
                "mean_rank": {"raw": self.mean_rank_raw, "filter": self.mean_rank_filter},
                "hits_at_10": {"raw": self.hits10_raw, "filter": self.hits10_filter},
                "window_recall": self.window_recall,
            },
            "per_category": self.per_category,
            "per_frequency": self.per_frequency,
            "unclassified_instances": self.unclassified_instances,
        }


# -- core ranking ------------------------------------------------------------


class _RelationContext:
    """Cached per-relation projections shared by every fact with that relation."""

    def __init__(self, params: ModelParams, g: KnowledgeGraph, r: int, ent: np.ndarray) -> None:
        # ent: params.entity_emb in float64, converted once per evaluation
        self.r = r
        self.r_inv = g.inverse_of(r)
        self.proj_fwd = ent @ params.proj[r].astype(np.float64).T
        self.proj_inv = ent @ params.proj[self.r_inv].astype(np.float64).T
        self.rv = params.relation_emb[r].astype(np.float64)
        self.riv = params.relation_emb[self.r_inv].astype(np.float64)

    def stage1(self, anchor: int, slot: str) -> np.ndarray:
        """Projected-translation score of every entity in the slot, the
        other slot holding ``anchor``; non-finite scores are refused."""
        if slot == "head":
            s1 = _sq_norms(self.proj_fwd + (self.rv - self.proj_fwd[anchor]))
        else:
            s1 = _sq_norms((self.proj_fwd[anchor] + self.rv) - self.proj_fwd)
        if not np.isfinite(s1).all():
            raise EvalError("scores must be finite")
        return s1


def _sq_norms(mat: np.ndarray) -> np.ndarray:
    """Squared row norms; squares the temporary ``mat`` in place."""
    return np.square(mat, out=mat).sum(axis=1)


def _groups(keys: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Each distinct key, ascending, with the positions that hold it."""
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(_firsts(keys[order]))
    return list(zip(keys[order[starts]].tolist(), np.split(order, starts[1:])))


def _queries(facts: np.ndarray) -> Iterator[tuple[str, int, np.ndarray, np.ndarray]]:
    """Each distinct query of one relation's facts, once per slot: (slot,
    anchor, rows, golds), where ``rows`` are the positions in ``facts`` of
    every fact whose other slot holds ``anchor`` and ``golds`` their
    entities in the slot."""
    for slot, anchor_col, gold_col in (("head", 2, 0), ("tail", 0, 2)):
        for anchor, rows in _groups(facts[:, anchor_col]):
            yield slot, anchor, rows, facts[rows, gold_col]


def _window(s1: np.ndarray, k: int) -> np.ndarray:
    """Mask of the first k entities of a stable argsort of s1, without
    sorting: every score below the k-th smallest, then the lowest-index
    entities tied with it."""
    if k >= len(s1):
        return np.ones(len(s1), dtype=bool)
    v = np.partition(s1, k - 1)[k - 1]
    window = s1 < v
    window[np.flatnonzero(s1 == v)[: k - np.count_nonzero(window)]] = True
    return window


def _rank_matrices(
    cand_in: np.ndarray, cand_val: np.ndarray, gold_in: np.ndarray, gold_val: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Which candidates rank above each gold (one row per gold) and which
    tie with it.  Window candidates (``*_in``) rank above all others; on the
    same side of the window the lower score ranks higher."""
    same = cand_in == gold_in[:, None]
    above = (cand_in > gold_in[:, None]) | (same & (cand_val < gold_val[:, None]))
    return above, same & (cand_val == gold_val[:, None])


def _gold_ranks(
    s1: np.ndarray, s2: np.ndarray, window: np.ndarray, golds: np.ndarray,
    known: np.ndarray, protocol: Protocol, tie_policy: TiePolicy,
) -> tuple[list[int], list[int] | list[None]]:
    """Raw and filtered ranks of each gold, scored by s2 (the window's, in
    entity order) inside the window and by s1 outside it.  The filtered
    rank drops the known entities other than the gold itself."""
    val = s1.copy()
    val[window] = s2
    gold_in, gold_val = window[golds], val[golds]
    above, tied = _rank_matrices(window, val, gold_in, gold_val)
    less, ties = above.sum(axis=1), tied.sum(axis=1)
    raw = _tie_break(less, ties, tie_policy).tolist()
    if protocol == "raw":
        return raw, [None] * len(golds)
    # Take out what the known entities counted, except each gold's own tie.
    above, tied = _rank_matrices(window[known], val[known], gold_in, gold_val)
    tied &= known != golds[:, None]
    filtered = _tie_break(less - above.sum(axis=1), ties - tied.sum(axis=1), tie_policy)
    return raw, filtered.tolist()


def _rank_query(
    params: ModelParams,
    table: PathTable,
    g: KnowledgeGraph,
    ctx: _RelationContext,
    anchor: int,
    slot: str,
    golds: np.ndarray,
    protocol: Protocol,
    rerank_k: int,
    tie_policy: TiePolicy,
) -> tuple[list[int], list[int] | list[None], list[bool]]:
    """Raw and filtered ranks of every gold of one query (relation ``ctx.r``,
    the other slot holding ``anchor``), and whether stage 1 put each in the
    rerank window.  Stage 1, the window and its full scores depend only on
    the query, so they are computed once for all of its golds."""
    r, r_inv = ctx.r, ctx.r_inv
    s1 = ctx.stage1(anchor, slot)
    window = _window(s1, rerank_k)
    win = np.flatnonzero(window)
    k = len(win)
    if slot == "head":
        s_inv = _sq_norms((ctx.proj_inv[anchor] + ctx.riv) - ctx.proj_inv[win])
        known = g.known_heads(r, anchor)
    else:
        s_inv = _sq_norms(ctx.proj_inv[win] + (ctx.riv - ctx.proj_inv[anchor]))
        known = g.known_tails(anchor, r)

    # Full-model scores in both directions for the rerank window, with the
    # path terms of every forward and inverse triple in one batch.
    s2 = s1[win] + s_inv
    if table.n_entries:
        fixed = np.full(k, anchor)
        fwd_h, fwd_t = (win, fixed) if slot == "head" else (fixed, win)
        terms = path_score_terms(
            params, table, np.concatenate((fwd_h, fwd_t)), np.repeat([r, r_inv], k),
            np.concatenate((fwd_t, fwd_h)),
        )
        s2 = s2 + (terms[:k] + terms[k:])
    if not np.isfinite(s2).all():
        raise EvalError("scores must be finite")

    raw, filtered = _gold_ranks(s1, s2, window, golds, known, protocol, tie_policy)
    return raw, filtered, window[golds].tolist()


def rank_entities(
    params: ModelParams,
    table: PathTable,
    g: KnowledgeGraph,
    triple: tuple[int, int, int],
    slot: str,
    protocol: Protocol = "filter",
    rerank_k: int = DEFAULT_RERANK_K,
    tie_policy: TiePolicy = "pessimistic",
) -> RankResult:
    """Rank every entity as a candidate for one slot of one fact."""
    _check_eval_args(params, g, rerank_k, protocol, slot=slot)
    h, r, t = (int(x) for x in triple)
    ctx = _RelationContext(params, g, r, params.entity_emb.astype(np.float64))
    anchor, gold = (t, h) if slot == "head" else (h, t)
    (raw,), (filtered,), (in_window,) = _rank_query(
        params, table, g, ctx, anchor, slot, np.array([gold]), protocol, rerank_k, tie_policy
    )
    return RankResult(0, slot, h, r, t, raw, filtered, in_window)


def _check_eval_args(
    params: ModelParams,
    g: KnowledgeGraph,
    rerank_k: int,
    protocol: str,
    slot: str | None = None,
) -> None:
    if not g.augmented:
        raise EvalError("evaluation expects an inverse-augmented graph")
    if params.n_entities != g.n_entities or params.n_relations != g.n_relations:
        raise EvalError(
            f"model shape ({params.n_entities} entities, {params.n_relations} "
            f"relations) does not match the graph "
            f"({g.n_entities}, {g.n_relations})"
        )
    if rerank_k < 1:
        raise EvalError(f"rerank_k must be >= 1, got {rerank_k}")
    if protocol not in ("raw", "filter"):
        raise EvalError(f"unknown protocol {protocol!r}")
    if slot is not None and slot not in ("head", "tail"):
        raise EvalError(f"unknown slot {slot!r}")


# -- split evaluation --------------------------------------------------------


def _instances_for_relations(
    rel_ids: Iterable[int],
    params: ModelParams,
    table: PathTable,
    g: KnowledgeGraph,
    ent: np.ndarray,
    split_triples: np.ndarray,
    by_relation: dict[int, np.ndarray],
    protocol: Protocol,
    rerank_k: int,
    tie_policy: TiePolicy,
) -> list[RankResult]:
    out: list[RankResult] = []
    for r in rel_ids:
        ctx = _RelationContext(params, g, int(r), ent)
        idxs = by_relation[int(r)]
        facts = split_triples[idxs]
        for slot, anchor, rows, golds in _queries(facts):
            ranks = _rank_query(
                params, table, g, ctx, anchor, slot, golds, protocol, rerank_k, tie_policy
            )
            for idx, (h, _, t), *rank in zip(
                idxs[rows].tolist(), facts[rows].tolist(), *ranks
            ):
                out.append(RankResult(idx, slot, h, int(r), t, *rank))
    return out


_EVAL_STATE: tuple | None = None


def _eval_worker(rel_chunk: list[int]) -> list[RankResult]:
    return _instances_for_relations(rel_chunk, *_EVAL_STATE)


def evaluate(
    params: ModelParams,
    table: PathTable,
    g: KnowledgeGraph,
    split: str = "test",
    rerank_k: int = DEFAULT_RERANK_K,
    tie_policy: TiePolicy = "pessimistic",
    protocol: Protocol = "filter",
    workers: int = 1,
    category_cutoff: float = 1.5,
) -> RankReport:
    """Rank both slots of every fact in the split and aggregate metrics.

    ``workers`` > 1 ranks groups of relations in forked processes; the
    report is the same as with one.
    """
    if split not in ("valid", "test"):
        raise EvalError(f"unknown split {split!r}")
    if workers < 1:
        raise EvalError(f"workers must be >= 1, got {workers}")
    _check_eval_args(params, g, rerank_k, protocol)
    split_triples = getattr(g, split)
    if len(split_triples) == 0:
        raise EvalError(f"cannot evaluate an empty {split} split")

    by_relation = dict(_groups(split_triples[:, 1]))
    rel_ids = sorted(by_relation)
    ent = params.entity_emb.astype(np.float64)
    state = (params, table, g, ent, split_triples, by_relation, protocol, rerank_k, tie_policy)

    if workers > 1:
        global _EVAL_STATE
        chunks = [list(c) for c in np.array_split(rel_ids, workers) if len(c)]
        _EVAL_STATE = state
        try:
            ctx = get_context("fork")
            with ctx.Pool(len(chunks)) as pool:
                parts = pool.map(_eval_worker, chunks)
        finally:
            _EVAL_STATE = None
        instances = [res for part in parts for res in part]
    else:
        instances = _instances_for_relations(rel_ids, *state)
    # Deterministic order regardless of relation grouping or worker split.
    instances.sort(key=lambda res: (res.index, res.slot))

    raw = np.array([res.raw_rank for res in instances], dtype=np.float64)
    mean_rank_raw = float(raw.mean())
    hits10_raw = float((raw <= HITS_CUTOFF).mean() * 100.0)
    if protocol == "filter":
        filt = np.array([res.filtered_rank for res in instances], dtype=np.float64)
        mean_rank_filter = float(filt.mean())
        hits10_filter = float((filt <= HITS_CUTOFF).mean() * 100.0)
        # Filtering only removes competitors, so it can never hurt.
        if hits10_filter < hits10_raw or mean_rank_filter > mean_rank_raw:
            raise EvalError("filtered metrics came out worse than raw ones")
    else:
        mean_rank_filter = None
        hits10_filter = None

    categories = classify_relations(g, category_cutoff)
    counts = relation_train_counts(g)
    unclassified = 0

    per_category: dict[str, dict[str, dict[str, float | int]]] = {
        slot: {
            label: {"hits10_filter": 0.0, "count": 0, "hits": 0}
            for label in CATEGORY_LABELS
        }
        for slot in ("head", "tail")
    }
    per_frequency: dict[str, dict[str, float | int]] = {
        bucket: {"mean_rank_raw": 0.0, "count": 0, "rank_sum": 0.0, "relations": 0}
        for bucket in FREQUENCY_BUCKETS
    }
    bucket_relations: dict[str, set[int]] = {b: set() for b in FREQUENCY_BUCKETS}
    for r in range(g.n_relations_orig):
        if counts[r] >= 1:
            bucket_relations[frequency_bucket(int(counts[r]))].add(r)

    for res in instances:
        cat = categories.get(res.r)
        if cat is None or counts[res.r] < 1:
            unclassified += 1
            continue
        if protocol == "filter" and res.filtered_rank is not None:
            cell = per_category[res.slot][cat.category]
            cell["count"] += 1
            if res.filtered_rank <= HITS_CUTOFF:
                cell["hits"] += 1
        bucket = frequency_bucket(int(counts[res.r]))
        fcell = per_frequency[bucket]
        fcell["count"] += 1
        fcell["rank_sum"] += res.raw_rank

    for slot in ("head", "tail"):
        for label in CATEGORY_LABELS:
            cell = per_category[slot][label]
            hits = cell.pop("hits")
            cell["hits10_filter"] = (
                100.0 * hits / cell["count"] if cell["count"] else None
            )
    for bucket in FREQUENCY_BUCKETS:
        fcell = per_frequency[bucket]
        rank_sum = fcell.pop("rank_sum")
        fcell["mean_rank_raw"] = (
            rank_sum / fcell["count"] if fcell["count"] else None
        )
        fcell["relations"] = len(bucket_relations[bucket])

    return RankReport(
        split=split,
        protocol=protocol,
        tie_policy=tie_policy,
        rerank_k=rerank_k,
        n_triples=len(split_triples),
        n_instances=len(instances),
        mean_rank_raw=mean_rank_raw,
        mean_rank_filter=mean_rank_filter,
        hits10_raw=hits10_raw,
        hits10_filter=hits10_filter,
        per_category=per_category,
        per_frequency=per_frequency,
        unclassified_instances=unclassified,
        window_recall=float(np.mean([res.in_window for res in instances])),
        instances=instances,
    )


# -- report output -----------------------------------------------------------


def _fmt(value: float | int | None, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.{digits}f}"


def write_report_text(report: RankReport, path: str | Path) -> None:
    lines: list[str] = []
    lines.append(
        f"entity prediction on {report.split} "
        f"({report.tie_policy} ties, rerank_k={report.rerank_k}, "
        f"protocol={report.protocol})"
    )
    lines.append(
        f"facts: {report.n_triples}   ranked instances: {report.n_instances}"
    )
    lines.append("")
    lines.append(f"{'':14}{'MeanRank':>20}{'Hits@10 (%)':>24}")
    lines.append(f"{'':14}{'raw':>10}{'filter':>10}{'raw':>12}{'filter':>12}")
    lines.append(
        f"{'overall':14}{_fmt(report.mean_rank_raw):>10}"
        f"{_fmt(report.mean_rank_filter):>10}"
        f"{_fmt(report.hits10_raw):>12}{_fmt(report.hits10_filter):>12}"
    )
    lines.append(
        f"window recall: {_fmt(report.window_recall, 4)} "
        f"(gold entity among the top {report.rerank_k} of stage 1)"
    )
    lines.append("")
    lines.append("hits@10 (filter, %) by relation category")
    header = f"{'slot':12}" + "".join(f"{label:>10}" for label in CATEGORY_LABELS)
    lines.append(header)
    for slot in ("head", "tail"):
        row = f"{slot:12}"
        for label in CATEGORY_LABELS:
            row += f"{_fmt(report.per_category[slot][label]['hits10_filter']):>10}"
        lines.append(row)
        row = f"{'  (count)':12}"
        for label in CATEGORY_LABELS:
            row += f"{report.per_category[slot][label]['count']:>10}"
        lines.append(row)
    lines.append("")
    lines.append("mean rank (raw) by relation train frequency")
    lines.append(f"{'bucket':12}" + "".join(f"{b:>10}" for b in FREQUENCY_BUCKETS))
    for key, label in (
        ("relations", "relations"),
        ("count", "instances"),
        ("mean_rank_raw", "mean rank"),
    ):
        row = f"{label:12}"
        for b in FREQUENCY_BUCKETS:
            row += f"{_fmt(report.per_frequency[b][key]):>10}"
        lines.append(row)
    if report.unclassified_instances:
        lines.append("")
        lines.append(
            f"instances with relations absent from train: "
            f"{report.unclassified_instances}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_json(
    report: RankReport, path: str | Path, config: dict | None = None
) -> None:
    payload = report.to_dict()
    if config is not None:
        payload["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_ranks_csv(report: RankReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["index", "slot", "head", "relation", "tail", "raw_rank", "filtered_rank"]
        )
        for res in report.instances:
            writer.writerow(
                [
                    res.index,
                    res.slot,
                    res.h,
                    res.r,
                    res.t,
                    res.raw_rank,
                    "" if res.filtered_rank is None else res.filtered_rank,
                ]
            )
