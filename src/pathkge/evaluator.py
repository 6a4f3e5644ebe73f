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
from pathkge.paths import PathTable, expand_spans

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
# Reference scores, gathered score rows and the rerank's path terms are
# computed in chunks whose float64 temporaries take about this many bytes.
_TERM_BYTES = 1 << 20
_U = 2.0 ** -53  # unit roundoff of float64


class _RelationContext:
    """Cached per-relation projections shared by every fact with that relation."""

    def __init__(self, params: ModelParams, g: KnowledgeGraph, r: int, ent: np.ndarray) -> None:
        # ent: params.entity_emb in float64, converted once per evaluation
        self.r, self.r_inv = r, g.inverse_of(r)
        self.proj_fwd = ent @ params.proj[r].astype(np.float64).T
        self.proj_inv = ent @ params.proj[self.r_inv].astype(np.float64).T
        self.p_sq = np.einsum("ij,ij->i", self.proj_fwd, self.proj_fwd)
        self.rv = params.relation_emb[r].astype(np.float64)
        self.riv = params.relation_emb[self.r_inv].astype(np.float64)

    def stage1(self, slot: str, anchors: np.ndarray, k: int | None) -> _Stage1:
        """Stage 1 of a block of queries (``anchors`` in the other slot):
        each query's window, its first ``k`` entities by (reference score
        of :func:`_exact`, entity id), none if ``k`` is None.

        The block is scored as ||c||^2 + ||p_e||^2 - 2 c.p_e with one
        matrix product, within ``band`` of the reference.  Only entities at
        or below ``edge`` get their reference score: every other entity
        scores strictly above the k-th best in both forms."""
        proj = self.proj_fwd
        n, d = proj.shape
        # The reference scores (P[a] + r) - p_e for a tail and
        # p_e + (r - P[a]), the same bits negated, for a head.
        c = proj[anchors] + self.rv if slot == "tail" else -(self.rv - proj[anchors])
        queries = np.arange(len(c))
        if k is not None and k >= n:  # every entity needs its exact score
            return _Stage1(c, proj, None, _exact(c, proj, queries))
        # Each form is within gamma_{d+3} (||c|| + ||p_e||)^2 of the exact
        # distance, plus underflow; the band doubles the sum of both.
        gamma = (d + 4) * _U / (1 - (d + 4) * _U)
        c_sq, p_sq = np.einsum("ij,ij->i", c, c), self.p_sq
        scores = _gemm_scores(c, proj, c_sq, p_sq)
        band = 4 * gamma * (np.sqrt(c_sq) + np.sqrt(p_sq.max())) ** 2 + np.finfo(np.float64).tiny
        if k is None:
            return _Stage1(c, proj, queries[:, None][:, :0], np.zeros((len(c), 0)), scores, band)
        # The k-th value moves by at most band from GEMM to reference,
        # and each score too: the window lies at or below edge.
        edge = np.partition(scores, k - 1, axis=1)[:, k - 1] + 2 * band
        q, e = np.nonzero(scores <= edge[:, None])
        val = _exact(c, proj, q, e[:, None])[:, 0]
        # Each query has k candidates or more, and its window is their first k.
        take = np.lexsort((e, val, q))[np.searchsorted(q, queries)[:, None] + np.arange(k)]
        return _Stage1(c, proj, e[take], val[take], scores, band)


class _Stage1:
    """Stage 1 of a block of queries: each query's window ``win[i]``
    (every entity, in id order, if None) and its reference scores
    ``val[i]``.  Unless the window holds every entity, the GEMM ``scores``
    and their ``band`` decide the rest: an entity further than 2 * band
    from a gold's GEMM value is further than band from its reference
    score, so it compares with the gold as its GEMM value does."""

    def __init__(self, c, proj, win, val, scores=None, band=None) -> None:
        self.c, self.proj, self.win, self.val = c, proj, win, val
        self.scores, self.band = scores, band
        if win is not None:
            keys = (np.arange(len(win))[:, None] * len(proj) + win).ravel()
            order = np.argsort(keys)
            # A sentinel past every key keeps each search in range.
            self._keys = np.append(keys[order], np.iinfo(np.int64).max)
            self._order = np.append(order, 0)

    def find(self, q: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether entity e[i] is in the window of query q[i], and where in
        ``val`` flattened (meaningless where it is not)."""
        key = q * len(self.proj) + e
        if self.win is None:
            return np.ones(len(key), dtype=bool), key
        i = np.searchsorted(self._keys, key)
        return self._keys[i] == key, self._order[i]

    def _bands(self, q: np.ndarray, golds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The GEMM range around each gold's value where stage 1 compares
        by reference scores."""
        s, band = self.scores[q, golds], 2 * self.band[q]
        return s - band, s + band

    def decide(self, q: np.ndarray, e: np.ndarray, golds: np.ndarray) -> np.ndarray:
        """Stage 1's score of entity e[i] as compared with the gold golds[i]
        of query q[i]: -inf or inf below or above the gold's band, else
        its reference score."""
        lo, hi = self._bands(q, golds)
        s = self.scores[q, e]
        x = np.where(s < lo, -np.inf, np.inf)
        near = ~(s < lo) & (s <= hi)
        x[near] = _exact(self.c, self.proj, q[near], e[near, None])[:, 0]
        return x

    def counts(
        self, val: np.ndarray, q: np.ndarray, golds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each gold's count of better candidates and of its tie group (the
        gold included), whether it is in its query's window and the score
        it is compared by.  Window entities, scored ``val``, rank above the
        rest: a gold in its window counts its window's scores, and a gold
        outside counts the window, then the rest by stage 1."""
        inside, pos = self.find(q, golds)
        less, ties = np.zeros((2, len(q)), dtype=np.int64)
        gval = np.empty(len(q))
        ins, out = np.flatnonzero(inside), np.flatnonzero(~inside)
        gval[ins] = val.reshape(-1)[pos[ins]]
        for s in _chunks(len(ins), val[0].nbytes):
            rows, x = val[q[ins[s]]], gval[ins[s], None]
            less[ins[s]] = np.count_nonzero(rows < x, axis=1)
            ties[ins[s]] = np.count_nonzero(rows == x, axis=1)
        if len(out):
            q, golds = q[out], golds[out]
            gval[out] = x = self.decide(q, golds, golds)
            lo, hi = self._bands(q, golds)
            below, near = np.empty(len(q), dtype=np.int64), []
            for s in _chunks(len(q), self.scores[0].nbytes):
                rows = self.scores[q[s]]
                rows[np.arange(len(rows))[:, None], self.win[q[s]]] = np.inf  # counted whole below
                low = rows < lo[s, None]
                below[s] = np.count_nonzero(low, axis=1)
                i, e = np.nonzero(~low & (rows <= hi[s, None]))
                near.append((i + s.start, e))
            i, e = (np.concatenate(col) for col in zip(*near))
            ref = self.decide(q[i], e, golds[i])
            less[out] = self.win.shape[1] + below + np.bincount(i[ref < x[i]], minlength=len(q))
            ties[out] = np.bincount(i[ref == x[i]], minlength=len(q))
        return less, ties, inside, gval

    def versus(self, val: np.ndarray, q: np.ndarray, e: np.ndarray, golds: np.ndarray,
               gold_in: np.ndarray, gval: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether entity e[i] ranks above the gold golds[i] of query q[i]
        (in its window or not, compared by gval[i]), and whether it ties."""
        e_in, pos = self.find(q, e)
        ev = val.reshape(-1)[pos]
        out = ~e_in & ~gold_in
        if out.any():
            ev[out] = self.decide(q[out], e[out], golds[out])
        same = e_in == gold_in
        return (e_in & ~gold_in) | (same & (ev < gval)), same & (ev == gval)


def _exact(
    c: np.ndarray, proj: np.ndarray, q: np.ndarray, ents: np.ndarray | None = None
) -> np.ndarray:
    """||c[q[i]] - p_e||^2 by the reference expression for each entity e
    of ``ents[i]`` (every entity if None): a (len(q), m) array computed in
    chunks of rows of about _TERM_BYTES, each value the same bits as in
    the whole reference row."""
    m = len(proj) if ents is None else ents.shape[1]
    out = np.empty((len(q), m))
    for rows in _chunks(len(q), 8 * m * proj.shape[1]):
        out[rows] = _sq_norms(c[q[rows], None, :] - (proj if ents is None else proj[ents[rows]]))
    return out


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
    """Squared norms along the last axis; squares the temporary ``mat`` in place."""
    return np.square(mat, out=mat).sum(axis=-1)


def _chunks(count: int, item_bytes: int) -> Iterator[slice]:
    """Runs of ``count`` items of about _TERM_BYTES each."""
    step = max(1, _TERM_BYTES // max(1, item_bytes))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _queries(
    params: ModelParams, g: KnowledgeGraph, facts: np.ndarray,
) -> Iterator[tuple[_RelationContext, str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The distinct queries of ``facts``, per relation, per slot and per
    block of queries whose score rows fit in _BLOCK_BYTES: (the relation's
    context, slot, anchors, q, golds, rows), where ``rows`` are the block's
    rows of ``facts``, ``golds`` their entities in the slot and ``q`` the
    position in ``anchors`` (distinct, ascending) of their other entity.

    A model of another graph or with non-finite parameters is refused here,
    once.  Finite float32 ones keep every float64 score, matrix-product term
    and band finite: an entry of P e is at most k (3.4e38)^2, about 6e78, so
    a squared norm stays near 1e160.
    """
    params.check_graph(g, EvalError)
    arrays = (params.entity_emb, params.relation_emb, params.proj)
    if not all(np.isfinite(a).all() for a in arrays):
        raise EvalError("model parameters must be finite")
    ent = params.entity_emb.astype(np.float64)
    step = max(1, _BLOCK_BYTES // (8 * params.n_entities))
    by_rel = np.argsort(facts[:, 1], kind="stable")
    for idxs in np.split(by_rel, np.flatnonzero(_firsts(facts[by_rel, 1]))[1:]):
        ctx = _RelationContext(params, g, int(facts[idxs[0], 1]), ent)
        for slot, anchor_col, gold_col in (("head", 2, 0), ("tail", 0, 2)):
            rows = idxs[np.argsort(facts[idxs, anchor_col], kind="stable")]
            first = _firsts(facts[rows, anchor_col])
            q, anchors = np.cumsum(first) - 1, facts[rows[first], anchor_col].astype(np.int64)
            for lo in range(0, len(anchors), step):
                a, b = np.searchsorted(q, [lo, lo + step])
                block = rows[a:b]
                yield ctx, slot, anchors[lo:lo + step], q[a:b] - lo, facts[block, gold_col], block


def _rerank(
    params: ModelParams, table: PathTable, ctx: _RelationContext, slot: str,
    anchors: np.ndarray, st: _Stage1,
) -> np.ndarray:
    """The full scores of each window entity of a block: its stage-1
    score plus the inverse triple's, plus both triples' path terms.

    A head query scores (e, r, a) and (a, r^-1, e), a tail query (a, r, e)
    and (e, r^-1, a).  Only the window entities that share a stored pair
    with the anchor get path terms, all in one batch, cut into chunks of
    about _TERM_BYTES: any other has two terms of 0.0, as path_score_terms
    gives, and each score plus 0.0 is that score.
    """
    # (t, r^-1, e) for a head, (e, r^-1, h) for a tail, as in stage 1.
    a_inv = ctx.proj_inv[anchors]
    c_inv = a_inv + ctx.riv if slot == "head" else -(ctx.riv - a_inv)
    val = st.val + _exact(c_inv, ctx.proj_inv, np.arange(len(anchors)), st.win)
    if table.n_entries:
        parts = []
        for r, heads in ((ctx.r, slot == "head"), (ctx.r_inv, slot == "tail")):
            query, e = table.partners(anchors, heads)
            inside, pos = st.find(query, e)
            e, a = e[inside], anchors[query[inside]]
            h, t = (e, a) if heads else (a, e)
            parts.append((pos[inside], h, np.full(len(e), r), t))
        pos, h, r, t = (np.concatenate(col) for col in zip(*parts))
        terms = np.empty(len(h))
        # A chunk takes the triples whose first stored entry falls in the
        # same run of ``budget`` entries, so it holds fewer than budget
        # entries before its last triple.
        lo, hi = table.pair_spans(h, t)
        budget = max(1, _TERM_BYTES // (8 * params.dim_relation))
        cuts = np.flatnonzero(_firsts((np.cumsum(hi - lo) - (hi - lo)) // budget)).tolist()
        for c in map(slice, cuts, cuts[1:] + [len(h)]):
            terms[c] = path_score_terms(params, table, h[c], r[c], t[c])
        # The forward terms come first: each sum is 0.0 + forward + inverse.
        pos, owner = np.unique(pos, return_inverse=True)
        val.reshape(-1)[pos] += np.bincount(owner, weights=terms, minlength=len(pos))
    # Finite table flows can still scale a path term past float64's range.
    if not np.isfinite(val).all():
        raise EvalError("scores must be finite")
    return val


def valid_mean_rank(params: ModelParams, g: KnowledgeGraph) -> float:
    """Raw pessimistic mean rank of both slots of every valid fact by the
    stage-1 score alone: the early-stopping probe."""
    if len(g.valid) == 0:
        raise EvalError("cannot evaluate an empty valid split")
    ranks: list[np.ndarray] = []
    for ctx, slot, anchors, q, golds, _ in _queries(params, g, g.valid):
        st = ctx.stage1(slot, anchors, None)
        less, ties, _, _ = st.counts(st.val, q, golds)
        ranks.append(less + ties)  # pessimistic
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
    table.check_graph(g, EvalError)
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
    if (min(ents.min(), rels.min()) < 0 or ents.max() >= g.n_entities
            or rels.max() >= g.n_relations_orig):
        raise EvalError(f"the {split} split has an id outside the graph")

    # Ranks by fact and slot, the order in which they are reported.
    raw = np.zeros((len(facts), 2), dtype=np.int64)
    filtered = np.zeros_like(raw)
    in_window = np.zeros(raw.shape, dtype=bool)
    for ctx, slot, anchors, q, golds, rows in _queries(params, g, facts):
        st = ctx.stage1(slot, anchors, rerank_k)
        val = _rerank(params, table, ctx, slot, anchors, st)
        less, ties, inside, gval = st.counts(val, q, golds)
        # Take out what the known entities counted, except each gold's own tie.
        known, lo, hi = g.known_spans(anchors, ctx.r_inv if slot == "head" else ctx.r)
        owner, index = expand_spans(lo[q], hi[q])
        keep = known[index] != golds[owner]
        owner, e = owner[keep], known[index[keep]]
        above, tied = st.versus(val, q[owner], e, golds[owner], inside[owner], gval[owner])
        col = SLOTS.index(slot)
        raw[rows, col] = _tie_break(less, ties, tie_policy)
        filtered[rows, col] = _tie_break(
            less - np.bincount(owner[above], minlength=len(q)),
            ties - np.bincount(owner[tied], minlength=len(q)),
            tie_policy,
        )
        in_window[rows, col] = inside

    mean_rank_raw, mean_rank_filter = float(raw.mean()), float(filtered.mean())
    hits10_raw, hits10_filter = (float((x <= HITS_CUTOFF).mean() * 100.0) for x in (raw, filtered))
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
        split=split, tie_policy=tie_policy, rerank_k=rerank_k,
        n_triples=len(facts), n_instances=len(instances),
        mean_rank_raw=mean_rank_raw, mean_rank_filter=mean_rank_filter,
        hits10_raw=hits10_raw, hits10_filter=hits10_filter,
        per_category=per_category, per_frequency=per_frequency,
        unclassified_instances=2 * int(np.count_nonzero(~seen)),
        window_recall=float(in_window.mean()), instances=instances,
    )


# -- report output -----------------------------------------------------------


def _fmt(value: float | int | None, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.{digits}f}"


def write_report_text(report: RankReport, path: str | Path) -> None:
    def row(label: str, cells) -> str:
        return f"{label:12}" + "".join(f"{cell:>10}" for cell in cells)

    lines = [
        f"entity prediction on {report.split} "
        f"({report.tie_policy} ties, rerank_k={report.rerank_k})",
        f"facts: {report.n_triples}   ranked instances: {report.n_instances}",
        "",
        f"{'':14}{'MeanRank':>20}{'Hits@10 (%)':>24}",
        f"{'':14}{'raw':>10}{'filter':>10}{'raw':>12}{'filter':>12}",
        f"{'overall':14}{_fmt(report.mean_rank_raw):>10}{_fmt(report.mean_rank_filter):>10}"
        f"{_fmt(report.hits10_raw):>12}{_fmt(report.hits10_filter):>12}",
        f"window recall: {_fmt(report.window_recall, 4)} "
        f"(gold entity among the top {report.rerank_k} of stage 1)",
        "",
        "hits@10 (filter, %) by relation category",
        row("slot", CATEGORY_LABELS),
    ]
    for slot in SLOTS:
        cells = [report.per_category[slot][label] for label in CATEGORY_LABELS]
        lines.append(row(slot, (_fmt(cell["hits10_filter"]) for cell in cells)))
        lines.append(row("  (count)", (cell["count"] for cell in cells)))
    lines += ["", "mean rank (raw) by relation train frequency", row("bucket", FREQUENCY_BUCKETS)]
    for key, label in (("relations", "relations"), ("count", "instances"),
                       ("mean_rank_raw", "mean rank")):
        lines.append(row(label, (_fmt(report.per_frequency[b][key]) for b in FREQUENCY_BUCKETS)))
    if report.unclassified_instances:
        lines += ["", "instances with relations absent from train: "
                      f"{report.unclassified_instances}"]
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
        writer.writerow(["index", "slot", "head", "relation", "tail", "raw_rank", "filtered_rank"])
        writer.writerows(
            [res.index, res.slot, res.h, res.r, res.t, res.raw_rank, res.filtered_rank]
            for res in report.instances
        )
