"""Entity-prediction evaluation: two-stage ranking over all entities.

For every evaluation fact and for each slot (head, tail), every entity is
scored as a replacement candidate.  The first stage ranks all candidates
by the projected-translation score alone; the top ``rerank_k`` are then
re-scored by the full model applied in both directions, i.e. the score of
(e, r, t) plus the score of (t, r^-1, e).  Candidates outside the rerank
window keep their first-stage order below the window.

Scores come from matrix products, certified by a rounding band: only the
comparisons the band cannot decide use the one-query-at-a-time reference
expression.  A window of every entity is never scored whole: each entity
is ranked by its full score from the products of both directions plus the
path terms, and only a gold and the entities inside its band get their
reference full score.

Every instance gets both ranks: the raw rank counts every candidate, the
filtered rank drops candidates that form a known-true fact (the gold
entity is never dropped).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Literal

import numpy as np

from pathkge.kgdata import (
    CATEGORY_LABELS,
    FREQUENCY_BUCKETS,
    KnowledgeGraph,
    _firsts,
    relation_breakdown,
)
from pathkge.models import ModelParams, span_path_terms
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


@dataclass
class RankReport:
    """Aggregate metrics over one split plus the per-instance ranks: row i
    of ``raw``, ``filtered`` and ``in_window`` holds fact ``facts[i]``'s
    two slots in ``SLOTS`` order."""

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
    facts: np.ndarray      # (n, 3) the split's facts
    raw: np.ndarray        # (n, 2) int64
    filtered: np.ndarray   # (n, 2) int64
    in_window: np.ndarray  # (n, 2) bool: the gold was in the stage-1 rerank window

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
        self.params, self.ent = params, ent
        self.r, self.r_inv = r, g.inverse_of(r)
        self.proj_fwd = ent @ params.proj[r].astype(np.float64).T
        self.p_sq = np.einsum("ij,ij->i", self.proj_fwd, self.proj_fwd)
        self.rv = params.relation_emb[r].astype(np.float64)

    # The inverse relation's side, built when a rerank first reads it: the
    # early-stop probe never does.
    @cached_property
    def proj_inv(self) -> np.ndarray:
        return self.ent @ self.params.proj[self.r_inv].astype(np.float64).T

    @cached_property
    def p_sq_inv(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.proj_inv, self.proj_inv)

    @cached_property
    def riv(self) -> np.ndarray:
        return self.params.relation_emb[self.r_inv].astype(np.float64)

    def stage1(self, slot: str, anchors: np.ndarray, k: int | None) -> _Stage1:
        """Stage 1 of a block of queries (``anchors`` in the other slot):
        each query's window, its first ``k`` entities by (reference score
        of :func:`_exact`, entity id), an empty one if ``k`` is None.  ``k``
        is at most the entity count: a window that holds every entity is
        :func:`_whole`'s.

        The block is scored as ||c||^2 + ||p_e||^2 - 2 c.p_e with one
        matrix product, within ``band`` of the reference.  Only entities at
        or below ``edge`` get their reference score: every other entity
        scores strictly above the k-th best in both forms."""
        c = _points(self.proj_fwd, self.rv, anchors, slot == "tail")
        c_sq, band = _band(c, self.p_sq)
        scores = _gemm_scores(c, self.proj_fwd, c_sq, self.p_sq)
        queries = np.arange(len(c))
        if k is None:
            return _Stage1(c, self.proj_fwd, queries[:, None][:, :0], np.zeros((len(c), 0)),
                           scores, band)
        # The k-th value moves by at most band from GEMM to reference,
        # and each score too: the window lies at or below edge.
        edge = np.partition(scores, k - 1, axis=1)[:, k - 1] + 2 * band
        q, e = np.nonzero(scores <= edge[:, None])
        val = _exact(c, self.proj_fwd, q, e[:, None])[:, 0]
        # Each query has k candidates or more, and its window is their first k.
        take = np.lexsort((e, val, q))[np.searchsorted(q, queries)[:, None] + np.arange(k)]
        return _Stage1(c, self.proj_fwd, e[take], val[take], scores, band)


class _Stage1:
    """Stage 1 of a block of queries: each query's window ``win[i]`` and
    the window's scores ``val[i]``, its reference scores until the rerank
    makes them full scores.  The GEMM ``scores`` and their ``band`` decide
    the rest: an entity further than 2 * band from a gold's GEMM value is
    further than band from its reference score (:meth:`ref`), so it
    compares with the gold as its GEMM value does."""

    # A window of every entity (:func:`_whole`) sets ``full`` to its
    # inverse query points and projection and its path terms: (c_inv,
    # proj_inv, term positions ending in a sentinel, terms).
    full = None

    def __init__(self, c, proj, win, val, scores, band) -> None:
        self.c, self.proj, self.win, self.val = c, proj, win, val
        self.scores, self.band = scores, band
        keys = (np.arange(len(win))[:, None] * len(proj) + win).ravel()
        order = np.argsort(keys)
        # A sentinel past every key keeps each search in range.
        self._keys = np.append(keys[order], np.iinfo(np.int64).max)
        self._order = np.append(order, 0)

    def ref(self, q: np.ndarray, e: np.ndarray) -> np.ndarray:
        """The reference score of entity e[i] for query q[i]: with ``full``,
        its full score as the rerank adds it up, (forward + inverse) +
        (0.0 + t_fwd + t_inv), the last sum only where a term exists."""
        val = _exact(self.c, self.proj, q, e[:, None])[:, 0]
        if self.full is not None:
            c_inv, proj_inv, pos, terms = self.full
            val += _exact(c_inv, proj_inv, q, e[:, None])[:, 0]
            key = q * len(self.proj) + e
            i = np.searchsorted(pos, key)
            hit = pos[i] == key
            val[hit] += terms[i[hit]]
        return val

    def find(self, q: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether entity e[i] is in the window of query q[i], and where in
        ``val`` flattened (meaningless where it is not)."""
        key = q * len(self.proj) + e
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
        x[near] = self.ref(q[near], e[near])
        return x

    def counts(
        self, q: np.ndarray, golds: np.ndarray
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
        gval[ins] = self.val.reshape(-1)[pos[ins]]
        for s in _chunks(len(ins), self.val[0].nbytes):
            rows, x = self.val[q[ins[s]]], gval[ins[s], None]
            less[ins[s]] = np.count_nonzero(rows < x, axis=1)
            ties[ins[s]] = np.count_nonzero(rows == x, axis=1)
        if len(out):
            q, golds = q[out], golds[out]
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
            # Each gold is in its own band, so its score is among these.
            ref, own = self.ref(q[i], e), e == golds[i]
            x = np.empty(len(q))
            x[i[own]] = ref[own]
            gval[out] = x
            less[out] = self.win.shape[1] + below + np.bincount(i[ref < x[i]], minlength=len(q))
            ties[out] = np.bincount(i[ref == x[i]], minlength=len(q))
        return less, ties, inside, gval

    def versus(self, q: np.ndarray, e: np.ndarray, golds: np.ndarray,
               gold_in: np.ndarray, gval: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether entity e[i] ranks above the gold golds[i] of query q[i]
        (in its window or not, compared by gval[i]), and whether it ties."""
        e_in, pos = self.find(q, e)
        ev = np.zeros(len(q))
        ev[e_in] = self.val.reshape(-1)[pos[e_in]]
        out = ~e_in & ~gold_in
        if out.any():
            ev[out] = self.decide(q[out], e[out], golds[out])
        same = e_in == gold_in
        return (e_in & ~gold_in) | (same & (ev < gval)), same & (ev == gval)


def _points(proj: np.ndarray, rv: np.ndarray, anchors: np.ndarray, heads: bool) -> np.ndarray:
    """The query points c of the reference's ||c - p_e||^2: (P[a] + r) - p_e
    for anchors that are heads, and p_e + (r - P[a]), the same bits
    negated, for tails."""
    return proj[anchors] + rv if heads else -(rv - proj[anchors])


def _band(c: np.ndarray, p_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each query point's ||c||^2 and band, 4 gamma_{d+4} (||c|| +
    max ||p_e||)^2: the GEMM form and the reference are each within
    gamma_{d+3} (||c|| + ||p_e||)^2 of the exact distance, plus underflow,
    and the band doubles the sum of both."""
    m = c.shape[1] + 4
    c_sq = np.einsum("ij,ij->i", c, c)
    reach = (np.sqrt(c_sq) + np.sqrt(p_sq.max())) ** 2
    return c_sq, 4 * (m * _U / (1 - m * _U)) * reach + np.finfo(np.float64).tiny


def _exact(c: np.ndarray, proj: np.ndarray, q: np.ndarray, ents: np.ndarray) -> np.ndarray:
    """||c[q[i]] - p_e||^2 by the reference expression for each entity e
    of ``ents[i]``: a (len(q), m) array computed in chunks of rows of
    about _TERM_BYTES, each value the same bits as in the whole reference
    row."""
    out = np.empty(ents.shape)
    for rows in _chunks(len(q), 8 * ents.shape[1] * proj.shape[1]):
        out[rows] = _sq_norms(c[q[rows], None, :] - proj[ents[rows]])
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


def _path_terms(
    params: ModelParams, table: PathTable, ctx: _RelationContext, slot: str,
    anchors: np.ndarray, find,
) -> tuple[np.ndarray, np.ndarray]:
    """The path terms of a block's window entities: their positions,
    distinct and ascending, and 0.0 + forward term + inverse term at each.

    A head query scores (e, r, a) and (a, r^-1, e), a tail query (a, r, e)
    and (e, r^-1, a).  Only the entities that share a stored pair with the
    anchor get terms, all in one batch, cut into chunks of about
    _TERM_BYTES: any other has two terms of 0.0, as span_path_terms gives,
    and each score plus 0.0 is that score.  A triple's entries are its
    pair's, by ``PathTable.partners``' pair index.  ``find(q, e)`` tells
    whether entity e[i] is in query q[i]'s window and where.
    """
    parts = []
    for r, heads in ((ctx.r, slot == "head"), (ctx.r_inv, slot == "tail")):
        query, e, pair = table.partners(anchors, heads)
        inside, pos = find(query, e)
        parts.append((pos[inside], pair[inside], np.full(np.count_nonzero(inside), r)))
    pos, pair, r = (np.concatenate(col) for col in zip(*parts))
    lo, hi = table.pair_offsets[pair], table.pair_offsets[pair + 1]
    terms = np.empty(len(r))
    # A chunk takes the triples whose first stored entry falls in the
    # same run of ``budget`` entries, so it holds fewer than budget
    # entries before its last triple.
    budget = max(1, _TERM_BYTES // (8 * params.dim_relation))
    cuts = np.flatnonzero(_firsts((np.cumsum(hi - lo) - (hi - lo)) // budget)).tolist()
    for c in map(slice, cuts, cuts[1:] + [len(r)]):
        terms[c] = span_path_terms(params, table, lo[c], hi[c], r[c])
    # The forward terms come first: each sum is 0.0 + forward + inverse.
    pos, owner = np.unique(pos, return_inverse=True)
    return pos, np.bincount(owner, weights=terms, minlength=len(pos))


def _rerank(
    params: ModelParams, table: PathTable, ctx: _RelationContext, slot: str,
    anchors: np.ndarray, st: _Stage1,
) -> _Stage1:
    """Stage 1 with the full scores of each window entity as ``val``: its
    stage-1 score plus the inverse triple's, plus both triples' path terms
    (:func:`_path_terms`).  Windows narrower than the graph only: the
    inverse reference scores are computed for the window's rows.
    """
    c_inv = _points(ctx.proj_inv, ctx.riv, anchors, slot == "head")
    val = st.val + _exact(c_inv, ctx.proj_inv, np.arange(len(anchors)), st.win)
    if table.n_entries:
        pos, terms = _path_terms(params, table, ctx, slot, anchors, st.find)
        val.reshape(-1)[pos] += terms
    # Finite table flows can still scale a path term past float64's range.
    if not np.isfinite(val).all():
        raise EvalError("scores must be finite")
    st.val = val
    return st


def _whole(
    params: ModelParams, table: PathTable, ctx: _RelationContext, slot: str,
    anchors: np.ndarray,
) -> _Stage1:
    """A block ranked with a window that holds every entity: every entity
    by its full score, as :func:`_rerank` adds it up, from two certified
    matrix products and the block's path terms.

    The forward product gets the inverse one added in place, chunk by
    chunk, then each entity's path terms: S = fl(fl(g_f + g_i) + T),
    where the reference is fl(fl(f + i) + T) with the same T.  Each
    direction's band is twice the bound on |g - reference| and
    4 gamma_{d+4} R, R = (||c|| + max ||p_e||)^2 its reach, which bounds
    every distance and product value (to first order).  The first
    addition rounds each side by at most u (R_f + R_i), the second by at
    most u |S| / (1 - u) on one side and that plus the first gap on the
    other.  So |S - reference| stays within band_f + band_i +
    4 u (R_f + R_i + max_e |S|), and as 4 u R is at most a fifth of its
    band, within the block's band, 2 (band_f + band_i) + 4 u max_e |S|.
    Only the golds and the entities within a gold's band get their
    reference (:meth:`_Stage1.ref` with ``full``).  The window is empty:
    every entity compares with a gold as stage 1 compares the entities
    outside a window.
    """
    fwd = ctx.stage1(slot, anchors, None)
    c_inv = _points(ctx.proj_inv, ctx.riv, anchors, slot == "head")
    scores, n = fwd.scores, len(ctx.proj_inv)
    i_sq, band_inv = _band(c_inv, ctx.p_sq_inv)
    for rows in _chunks(len(c_inv), scores[0].nbytes):
        scores[rows] += _gemm_scores(c_inv[rows], ctx.proj_inv, i_sq[rows], ctx.p_sq_inv)
    pos, terms = np.zeros(0, dtype=np.int64), np.zeros(0)
    if table.n_entries:
        def every(q, e):  # each entity is in the window, at its own column
            return np.ones(len(q), dtype=bool), q * n + e

        pos, terms = _path_terms(params, table, ctx, slot, anchors, every)
        scores.reshape(-1)[pos] += terms
    top = np.maximum(scores.max(axis=1), -scores.min(axis=1))
    band = 2 * (fwd.band + band_inv) + 4 * _U * top
    # Finite table flows can still scale a path term past float64's range;
    # with 2 |S| + band finite, every reference score is finite too.
    if not np.isfinite(2 * top + band).all():
        raise EvalError("scores must be finite")
    fwd.band = band
    fwd.full = c_inv, ctx.proj_inv, np.append(pos, np.iinfo(np.int64).max), terms
    return fwd


def valid_mean_rank(params: ModelParams, g: KnowledgeGraph) -> float:
    """Raw pessimistic mean rank of both slots of every valid fact by the
    stage-1 score alone: the early-stopping probe."""
    if len(g.valid) == 0:
        raise EvalError("cannot evaluate an empty valid split")
    ranks: list[np.ndarray] = []
    for ctx, slot, anchors, q, golds, _ in _queries(params, g, g.valid):
        less, ties, _, _ = ctx.stage1(slot, anchors, None).counts(q, golds)
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
    whole = rerank_k >= g.n_entities
    for ctx, slot, anchors, q, golds, rows in _queries(params, g, facts):
        if whole:
            st = _whole(params, table, ctx, slot, anchors)
        else:
            st = _rerank(params, table, ctx, slot, anchors, ctx.stage1(slot, anchors, rerank_k))
        less, ties, inside, gval = st.counts(q, golds)
        # Take out what the known entities counted, except each gold's own tie.
        known, lo, hi = g.known_spans(anchors, ctx.r_inv if slot == "head" else ctx.r)
        owner, index = expand_spans(lo[q], hi[q])
        keep = known[index] != golds[owner]
        owner, e = owner[keep], known[index[keep]]
        above, tied = st.versus(q[owner], e, golds[owner], inside[owner], gval[owner])
        col = SLOTS.index(slot)
        raw[rows, col] = _tie_break(less, ties, tie_policy)
        filtered[rows, col] = _tie_break(
            less - np.bincount(owner[above], minlength=len(q)),
            ties - np.bincount(owner[tied], minlength=len(q)),
            tie_policy,
        )
        in_window[rows, col] = inside | whole

    mean_rank_raw, mean_rank_filter = float(raw.mean()), float(filtered.mean())
    hits10_raw, hits10_filter = (float((x <= HITS_CUTOFF).mean() * 100.0) for x in (raw, filtered))
    # Filtering only removes competitors, so it can never hurt.
    if hits10_filter < hits10_raw or mean_rank_filter > mean_rank_raw:
        raise EvalError("filtered metrics came out worse than raw ones")

    # Each fact's relation category and frequency bucket, both -1 where the
    # relation has no train fact.
    categories, buckets = relation_breakdown(g)
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

    return RankReport(
        split=split, tie_policy=tie_policy, rerank_k=rerank_k,
        n_triples=len(facts), n_instances=raw.size,
        mean_rank_raw=mean_rank_raw, mean_rank_filter=mean_rank_filter,
        hits10_raw=hits10_raw, hits10_filter=hits10_filter,
        per_category=per_category, per_frequency=per_frequency,
        unclassified_instances=2 * int(np.count_nonzero(~seen)),
        window_recall=float(in_window.mean()),
        facts=facts, raw=raw, filtered=filtered, in_window=in_window,
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
            [i, slot, h, r, t, raw, filtered]
            for i, ((h, r, t), *ranks) in enumerate(
                zip(report.facts.tolist(), report.raw.tolist(), report.filtered.tolist())
            )
            for slot, raw, filtered in zip(SLOTS, *ranks)
        )
