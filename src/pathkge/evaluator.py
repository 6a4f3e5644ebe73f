"""Entity-prediction evaluation: two-stage ranking over all entities.

For every evaluation fact and for each slot (head, tail), every entity is
scored as a replacement candidate.  The first stage ranks all candidates
by the projected-translation score alone; the top ``rerank_k`` are then
re-scored by the full model applied in both directions, i.e. the score of
(e, r, t) plus the score of (t, r^-1, e).  Candidates outside the rerank
window keep their first-stage order below the window.

Every instance gets both ranks: the raw rank counts every candidate, the
filtered rank drops candidates that form a known-true fact (the gold
entity is never dropped).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Literal

import numpy as np

from pathkge.kgdata import (
    CATEGORY_LABELS,
    DEFAULT_CATEGORY_CUTOFF,
    FREQUENCY_BUCKETS,
    KnowledgeGraph,
    _firsts,
    relation_breakdown,
)
from pathkge.models import ModelParams, path_score_terms
from pathkge.paths import PathTable

TiePolicy = Literal["pessimistic", "mean"]
SLOTS = ("head", "tail")  # the order in which a fact's two instances are reported

DEFAULT_RERANK_K = 500
HITS_CUTOFF = 10


class EvalError(ValueError):
    """Invalid evaluation request."""


def _tie_break(less: np.ndarray, ties: np.ndarray, policy: TiePolicy) -> np.ndarray:
    """1-based ranks from the count of better candidates and the size of
    the tie group, the gold included."""
    return less + ties if policy == "pessimistic" else less + (ties + 2) // 2


@dataclass(frozen=True)
class RankResult:
    """Outcome of ranking one slot of one evaluation fact."""

    index: int
    slot: str  # "head" or "tail"
    h: int
    r: int
    t: int
    raw_rank: int
    filtered_rank: int
    in_window: bool  # the gold entity was in the stage-1 rerank window


@dataclass
class RankReport:
    """Aggregate metrics over one split plus the per-instance ranks."""

    split: str
    tie_policy: str
    rerank_k: int
    n_triples: int
    n_instances: int
    mean_rank_raw: float
    mean_rank_filter: float
    hits10_raw: float
    hits10_filter: float
    per_category: dict[str, dict[str, dict[str, float | int]]]
    per_frequency: dict[str, dict[str, float | int]]
    unclassified_instances: int
    window_recall: float  # share of instances with the gold in the rerank window
    instances: list[RankResult] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "split": self.split,
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


# Stage 1 holds the GEMM scores of at most this many bytes at once: each
# block of queries is ranked before the next block is scored.
_BLOCK_BYTES = 4 << 20
# The rerank's path terms are computed in chunks of triples whose stored
# entries, as float64 path-relation gaps, take about this many bytes.
_TERM_BYTES = 1 << 20
_U = 2.0 ** -53  # unit roundoff of float64


class _RelationContext:
    """Cached per-relation projections shared by every fact with that relation."""

    def __init__(self, params: ModelParams, g: KnowledgeGraph, r: int, ent: np.ndarray) -> None:
        # ent: params.entity_emb in float64, converted once per evaluation
        self.r = r
        self.r_inv = g.inverse_of(r)
        self.proj_fwd = ent @ params.proj[r].astype(np.float64).T
        self.proj_inv = ent @ params.proj[self.r_inv].astype(np.float64).T
        self.p_sq = np.einsum("ij,ij->i", self.proj_fwd, self.proj_fwd)
        self.rv = params.relation_emb[r].astype(np.float64)
        self.riv = params.relation_emb[self.r_inv].astype(np.float64)

    def stage1(
        self, slot: str, anchors: list[int], golds: list[np.ndarray], k: int | None,
    ) -> list[np.ndarray]:
        """Stage-1 score row of each query of a block (``anchors[i]`` in the
        other slot, gold entities ``golds[i]``).  Each row decides the window
        of the ``k`` best entities (none if ``k`` is None) and every count
        against a gold exactly as the reference row of :func:`_exact` would.

        The block is scored as ||c||^2 + ||p_e||^2 - 2 c.p_e with one
        matrix product.  That value and the reference differ by at most
        ``band``, so only the entities within the band of a decision get
        their reference score: those near the k-th value (a superset of the
        window and its ties) and those near a gold's.  Every other entity
        scores strictly above the k-th best in both forms.
        """
        proj = self.proj_fwd
        n, d = proj.shape
        # The reference scores (P[a] + r) - p_e for a tail and
        # p_e + (r - P[a]), the same bits negated, for a head.
        c = proj[anchors] + self.rv if slot == "tail" else -(self.rv - proj[anchors])
        if k is not None and k >= n:  # every entity needs its exact score
            return [_exact(query, proj) for query in c]
        # Each form is within gamma_{d+3} (||c|| + ||p_e||)^2 of the exact
        # distance, plus underflow; the band doubles the sum of both.
        gamma = (d + 4) * _U / (1 - (d + 4) * _U)
        p_sq = self.p_sq
        c_sq = np.einsum("ij,ij->i", c, c)
        scores = _gemm_scores(c, proj, c_sq, p_sq)
        band = 4 * gamma * (np.sqrt(c_sq) + np.sqrt(p_sq.max())) ** 2 + np.finfo(np.float64).tiny
        if k is not None:
            # The k-th value moves by at most band from GEMM to reference,
            # and each score too: the window lies below edge.
            edge = np.partition(scores, k - 1, axis=1)[:, k - 1] + 2 * band
        for i, row in enumerate(scores):
            # Within 2 * band of a gold's GEMM value is within band of its
            # exact score.
            near = (np.abs(row - row[golds[i], None]) <= 2 * band[i]).any(axis=0)
            if k is not None:
                near |= row <= edge[i]
            rows = np.flatnonzero(near)
            row[rows] = _exact(c[i], proj, rows)
        return list(scores)


def _exact(
    query: np.ndarray, proj: np.ndarray, rows: np.ndarray | slice = slice(None)
) -> np.ndarray:
    """||query - p_e||^2 of the entities ``rows`` by the reference expression,
    the same bits for any subset of rows as in the full row."""
    return _sq_norms(query - proj[rows])


def _gemm_scores(
    c: np.ndarray, proj: np.ndarray, c_sq: np.ndarray, p_sq: np.ndarray
) -> np.ndarray:
    """||c_i - p_e||^2 for every query row c_i and entity row p_e, by GEMM."""
    scores = c @ proj.T
    scores *= -2.0
    scores += c_sq[:, None]
    scores += p_sq
    return scores


def _sq_norms(mat: np.ndarray) -> np.ndarray:
    """Squared row norms; squares the temporary ``mat`` in place."""
    return np.square(mat, out=mat).sum(axis=1)


def _groups(keys: np.ndarray) -> tuple[list[int], list[np.ndarray]]:
    """The distinct keys, ascending, and the positions that hold each."""
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(_firsts(keys[order]))
    return keys[order[starts]].tolist(), np.split(order, starts[1:])


def _queries(
    params: ModelParams, g: KnowledgeGraph, facts: np.ndarray,
) -> Iterator[tuple[_RelationContext, list[np.ndarray], str, list[int], list[np.ndarray]]]:
    """The distinct queries of ``facts``, per relation, per slot and per
    block of queries whose score rows fit in _BLOCK_BYTES: (the relation's
    context, rows, slot, anchors, golds), where ``rows[i]`` are the rows of
    ``facts`` whose other slot holds ``anchors[i]`` and ``golds[i]`` their
    entities in the slot.

    Non-finite parameters are refused here, once.  Finite float32 ones keep
    every float64 score, matrix-product term and band finite: an entry of
    P e is at most k (3.4e38)^2, about 6e78, so a squared norm stays near 1e160.
    """
    arrays = (params.entity_emb, params.relation_emb, params.proj)
    if not all(np.isfinite(a).all() for a in arrays):
        raise EvalError("model parameters must be finite")
    ent = params.entity_emb.astype(np.float64)
    step = max(1, _BLOCK_BYTES // (8 * params.n_entities))
    for r, idxs in zip(*_groups(facts[:, 1])):
        ctx = _RelationContext(params, g, r, ent)
        for slot, anchor_col, gold_col in (("head", 2, 0), ("tail", 0, 2)):
            anchors, rows = _groups(facts[idxs, anchor_col])
            for lo in range(0, len(anchors), step):
                block = [idxs[q] for q in rows[lo:lo + step]]
                yield ctx, block, slot, anchors[lo:lo + step], [facts[q, gold_col] for q in block]


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


def _path_terms(
    params: ModelParams, table: PathTable, ctx: _RelationContext, slot: str,
    anchors: list[int], windows: np.ndarray,
) -> np.ndarray:
    """Path terms of the forward and the inverse triple of every window
    entity of each query (``windows[i]`` the window of ``anchors[i]``): a
    (2, queries, n_entities) array, 0.0 where the entity shares no stored
    pair with the anchor, as path_score_terms gives for such a triple.

    A head query scores (e, r, a) and (a, r^-1, e), a tail query (a, r, e)
    and (e, r^-1, a).  Only the anchor's partners in the stored pairs are
    scored, all in one batch, cut into chunks of about _TERM_BYTES.
    """
    terms = np.zeros((2,) + windows.shape)
    anchors = np.asarray(anchors, dtype=np.int64)
    parts = []
    for side, (r, heads) in enumerate(((ctx.r, slot == "head"), (ctx.r_inv, slot == "tail"))):
        query, e = table.partners(anchors, heads)
        inside = windows[query, e]
        query, e = query[inside], e[inside]
        a = anchors[query]
        h, t = (e, a) if heads else (a, e)
        parts.append((np.full(len(e), side), query, e, h, np.full(len(e), r), t))
    side, query, e, h, r, t = (np.concatenate(col) for col in zip(*parts))
    # A chunk takes the triples whose first stored entry falls in the same
    # run of ``budget`` entries, so it holds fewer than budget entries
    # before its last triple.
    lo, hi = table.pair_spans(h, t)
    budget = max(1, _TERM_BYTES // (8 * params.dim_relation))
    cuts = np.flatnonzero(_firsts((np.cumsum(hi - lo) - (hi - lo)) // budget)).tolist()
    for c in map(slice, cuts, cuts[1:] + [len(h)]):
        terms[side[c], query[c], e[c]] = path_score_terms(params, table, h[c], r[c], t[c])
    return terms


def _rerank(
    params: ModelParams, table: PathTable, ctx: _RelationContext, slot: str,
    anchors: list[int], golds: list[np.ndarray], k: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each query's window mask and scores, for one block of queries in
    order: the stage-1 row with the window entities scored by the full
    model in both directions.  The window and its scores depend only on the
    query.  The block's windows come first, so that its path terms are
    computed in one batch."""
    s1s = ctx.stage1(slot, anchors, golds, k)
    windows = np.array([_window(s1, k) for s1 in s1s])
    terms = None
    if table.n_entries:
        terms = _path_terms(params, table, ctx, slot, anchors, windows)
    for i, (anchor, s1) in enumerate(zip(anchors, s1s)):
        win = np.flatnonzero(windows[i])
        # (t, r^-1, e) for a head, (e, r^-1, h) for a tail, as in stage 1.
        a_inv = ctx.proj_inv[anchor]
        c_inv = a_inv + ctx.riv if slot == "head" else -(ctx.riv - a_inv)
        s2 = s1[win] + _sq_norms(c_inv - ctx.proj_inv[win])
        if terms is not None:
            s2 = s2 + (terms[0, i, win] + terms[1, i, win])
        # Finite table flows can still scale a path term past float64's range.
        if not np.isfinite(s2).all():
            raise EvalError("scores must be finite")
        s1[win] = s2
        yield windows[i], s1


def _rank_matrices(
    cand_in: np.ndarray, cand_val: np.ndarray, gold_in: np.ndarray, gold_val: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Which candidates rank above each gold (one row per gold) and which
    tie with it.  Window candidates (``*_in``) rank above all others; on the
    same side of the window the lower score ranks higher."""
    same = cand_in == gold_in[:, None]
    above = (cand_in > gold_in[:, None]) | (same & (cand_val < gold_val[:, None]))
    return above, same & (cand_val == gold_val[:, None])


def valid_mean_rank(params: ModelParams, g: KnowledgeGraph) -> float:
    """Raw pessimistic mean rank of both slots of every valid fact by the
    stage-1 score alone: the early-stopping probe."""
    if len(g.valid) == 0:
        raise EvalError("cannot evaluate an empty valid split")
    ranks: list[np.ndarray] = []
    for ctx, _, slot, anchors, golds in _queries(params, g, g.valid):
        for q_golds, s1 in zip(golds, ctx.stage1(slot, anchors, golds, None)):
            ranks.append((s1 <= s1[q_golds][:, None]).sum(axis=1))  # pessimistic
    return float(np.mean(np.concatenate(ranks)))


# -- split evaluation --------------------------------------------------------


def evaluate(
    params: ModelParams,
    table: PathTable,
    g: KnowledgeGraph,
    split: str = "test",
    rerank_k: int = DEFAULT_RERANK_K,
    tie_policy: TiePolicy = "pessimistic",
    category_cutoff: float = DEFAULT_CATEGORY_CUTOFF,
) -> RankReport:
    """Rank both slots of every fact in the split, raw and filtered, and
    aggregate metrics.

    Each distinct query (relation, slot, entity in the other slot) is
    ranked once for all of its golds: stage 1 picks the window, the window
    gets its full scores, and the raw rank of a gold counts the candidates
    ranked above it and tied with it.  The filtered rank drops the known
    entities other than the gold itself.
    """
    if split not in ("valid", "test"):
        raise EvalError(f"unknown split {split!r}")
    if not g.augmented:
        raise EvalError("evaluation expects an inverse-augmented graph")
    if params.n_entities != g.n_entities or params.n_relations != g.n_relations:
        raise EvalError(
            f"model shape ({params.n_entities} entities, {params.n_relations} "
            f"relations) does not match the graph "
            f"({g.n_entities}, {g.n_relations})"
        )
    if table.n_entities != g.n_entities:
        raise EvalError(
            f"path table covers {table.n_entities} entities but the graph has {g.n_entities}"
        )
    if rerank_k < 1:
        raise EvalError(f"rerank_k must be >= 1, got {rerank_k}")
    if tie_policy not in ("pessimistic", "mean"):
        raise EvalError(f"unknown tie policy {tie_policy!r}")
    if not category_cutoff > 0:  # NaN too
        raise EvalError(f"category_cutoff must be positive, got {category_cutoff}")
    facts = getattr(g, split)
    if len(facts) == 0:
        raise EvalError(f"cannot evaluate an empty {split} split")
    # A negative id would otherwise index from the end and rank the wrong
    # entity without a word.
    ents, rels = facts[:, [0, 2]], facts[:, 1]
    if min(ents.min(), rels.min()) < 0 or ents.max() >= g.n_entities or (
        rels.max() >= g.n_relations_orig
    ):
        raise EvalError(f"the {split} split has an id outside the graph")

    # Ranks by fact and slot, the order in which they are reported.
    raw = np.zeros((len(facts), 2), dtype=np.int64)
    filtered = np.zeros_like(raw)
    in_window = np.zeros(raw.shape, dtype=bool)
    for ctx, rows, slot, anchors, golds in _queries(params, g, facts):
        col = SLOTS.index(slot)
        for anchor, q_rows, q_golds, (window, val) in zip(
            anchors, rows, golds, _rerank(params, table, ctx, slot, anchors, golds, rerank_k)
        ):
            gold_in = window[q_golds]
            above, tied = _rank_matrices(window, val, gold_in, val[q_golds])
            less, ties = above.sum(axis=1), tied.sum(axis=1)
            raw[q_rows, col] = _tie_break(less, ties, tie_policy)
            # Take out what the known entities counted, except each gold's own tie.
            known = g.known_heads(ctx.r, anchor) if slot == "head" else g.known_tails(anchor, ctx.r)
            filtered[q_rows, col] = _tie_break(
                less - above[:, known].sum(axis=1),
                ties - (tied[:, known] & (known != q_golds[:, None])).sum(axis=1),
                tie_policy,
            )
            in_window[q_rows, col] = gold_in

    mean_rank_raw = float(raw.mean())
    hits10_raw = float((raw <= HITS_CUTOFF).mean() * 100.0)
    mean_rank_filter = float(filtered.mean())
    hits10_filter = float((filtered <= HITS_CUTOFF).mean() * 100.0)
    # Filtering only removes competitors, so it can never hurt.
    if hits10_filter < hits10_raw or mean_rank_filter > mean_rank_raw:
        raise EvalError("filtered metrics came out worse than raw ones")

    # Each fact's relation category and frequency bucket, both -1 where the
    # relation has no train fact.
    categories, buckets = relation_breakdown(g, category_cutoff)
    seen = buckets[rels] >= 0
    cat, bucket = categories[rels][seen], buckets[rels][seen]
    n_cat, n_buckets = len(CATEGORY_LABELS), len(FREQUENCY_BUCKETS)
    counts = np.bincount(cat, minlength=n_cat).tolist()
    per_category = {}
    for col, slot in enumerate(SLOTS):
        hits = np.bincount(cat, filtered[seen, col] <= HITS_CUTOFF, minlength=n_cat).tolist()
        per_category[slot] = {
            label: {"hits10_filter": 100.0 * h / n if n else None, "count": n}
            for label, n, h in zip(CATEGORY_LABELS, counts, hits)
        }
    counts = (2 * np.bincount(bucket, minlength=n_buckets)).tolist()
    rank_sums = np.bincount(bucket, raw[seen].sum(axis=1), minlength=n_buckets).tolist()
    relations = np.bincount(buckets[buckets >= 0], minlength=n_buckets).tolist()
    per_frequency = {
        label: {"mean_rank_raw": s / n if n else None, "count": n, "relations": m}
        for label, n, s, m in zip(FREQUENCY_BUCKETS, counts, rank_sums, relations)
    }

    instances = [
        RankResult(i, slot, h, r, t, *ranks)
        for i, ((h, r, t), *rows) in enumerate(
            zip(facts.tolist(), raw.tolist(), filtered.tolist(), in_window.tolist())
        )
        for slot, *ranks in zip(SLOTS, *rows)
    ]
    return RankReport(
        split=split,
        tie_policy=tie_policy,
        rerank_k=rerank_k,
        n_triples=len(facts),
        n_instances=len(instances),
        mean_rank_raw=mean_rank_raw,
        mean_rank_filter=mean_rank_filter,
        hits10_raw=hits10_raw,
        hits10_filter=hits10_filter,
        per_category=per_category,
        per_frequency=per_frequency,
        unclassified_instances=2 * int(np.count_nonzero(~seen)),
        window_recall=float(in_window.mean()),
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
        f"({report.tie_policy} ties, rerank_k={report.rerank_k})"
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
                    res.filtered_rank,
                ]
            )
