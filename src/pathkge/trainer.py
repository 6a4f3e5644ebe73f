"""Two-stage training: translation warm start, then projected refinement.

Stage one fits plain translation embeddings (shared entity/relation
space, projections stay identity).  Stage two refines them under the
projected score, optionally regularized by relation paths: every train
fact also pulls the composed embedding of each reliable path toward its
relation vector, with each path term weighted by its share of the pair's
total reliability.

Each fact hinge is against a corrupted head or tail, the head chosen with
a per-relation probability (0.5, or Bernoulli tph / (tph + hpt)); each
path hinge is against a corrupted relation.  Corruptions are redrawn
until they leave the train set.  Every fact hinge has the margin
``margin``, the warm start's too, and every path hinge ``margin2``; the
learning rate is fixed.  Early stopping runs when ``patience`` > 0, and
the run then keeps the parameters of its best valid mean rank.
``STAGE_FIELDS`` lists the fields each stage reads; ``train`` records
the others a run sets away from their defaults.

Both stages take one minibatch step per ``batch_size`` facts: every hinge
of the batch is scored against the parameters as the batch found them,
entity rows move by the sum of their gradients, and the norm constraints
are then restored on the rows the batch moved.  The warm start is that
step with the projections held at identity, so its energy is the squared
L2 translation residual and its products with M_r are skipped, and with
no path hinges.  Its relation rows also move by the sum of their
gradients, as per-fact SGD moves them: a warm relation row gets only its
own fact hinges, and a mean would shrink its step by its count in the
batch (on acceptance 7's protocol over seeds 1-30 the mean gap fell from
+3.63 to +2.55 points).  In the projected stages a relation row also
collects the path hinges that walk through it, dozens of stale gradients
per batch, so relation rows take the mean of theirs.  M_r takes the
batch mean of its fact-hinge gradients, once per batch, as every other
parameter moves.  The step scores the relation-sorted facts ``_CHUNK``
at a time and the path hinges ``_path_block`` at a time.  Gradient rows
reach the batch sums by ``_add_rows``: each row's gradients are summed
from 0.0 in row order, and that sum is added once.  A path block weights
each distinct (path, relation) pair's gap by its active hinges'
coefficients, summed in hinge order, and sums those rows in pair order
per path and per relation (``np.add.reduceat``) before the scatter.  A
run is byte-deterministic given its data and seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

import numpy as np

from pathkge.evaluator import valid_mean_rank
from pathkge.kgdata import KnowledgeGraph, _distinct, _firsts, relation_cardinality
from pathkge.models import (
    ModelParams,
    PathEvidence,
    _row_dots,
    path_evidence,
    path_gaps,
    project_constraints,
    relation_rows,
)
from pathkge.paths import PathTable, expand_spans

# The fields each stage reads (a projected stage _WARM only without an init model).
_COMMON = ("stage", "dim_entity", "dim_relation", "lr", "margin", "batch_size", "epochs",
           "neg_mode", "seed")
_WARM = ("warm_lr", "warm_epochs")
_PROJECTED = (*_COMMON, "patience", "checkpoint_every", *_WARM)
STAGE_FIELDS = {"transe": _COMMON, "transr": _PROJECTED, "ptransr": (*_PROJECTED, "margin2")}
# The allowed values of each choice field of TrainConfig.
CHOICES = {"stage": tuple(STAGE_FIELDS), "neg_mode": ("uniform", "bernoulli")}
_KINDS = {int: "integer", float: "number"}


class TrainError(RuntimeError):
    """Training aborted (non-finite loss, a fact with no negative, bad setup)."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs: its fields are the keys of the
    key=value config file and, with ``_`` written ``-``, the ``train`` flags."""

    stage: str = "ptransr"
    dim_entity: int = 50
    dim_relation: int = 50
    lr: float = 0.001
    margin: float = 1.0      # fact-level margin of every stage, the warm start's too
    margin2: float = 1.0     # path-level margin of stage ptransr
    batch_size: int = 4800
    epochs: int = 500
    neg_mode: str = "uniform"
    seed: int = 7
    patience: int = 0        # > 0: stop after this many epochs without a better valid rank
    checkpoint_every: int = 0
    warm_lr: float = 0.01
    warm_epochs: int = 1000

    def validate(self) -> None:
        for name, value in self.as_dict().items():
            _check_field(name, value)
        for key in ("patience", "checkpoint_every"):
            if self.stage == "transe" and getattr(self, key) > 0:
                raise ValueError(f"{key} acts on projected epochs, and stage transe runs none")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def defaults_for_stage(cls, stage: str) -> "TrainConfig":
        if stage == "transe":
            return cls(stage="transe", lr=0.01, epochs=1000)
        return cls(stage=stage)

    def ignored(self, warm_start: bool) -> list[str]:
        """The fields away from their stage defaults that a run does not read."""
        reads = set(STAGE_FIELDS[self.stage]).difference(() if warm_start else _WARM)
        default = self.defaults_for_stage(self.stage).as_dict()
        return [k for k, v in self.as_dict().items() if k not in reads and v != default[k]]

    def with_updates(self, updates: Mapping[str, object]) -> "TrainConfig":
        coerced: dict[str, object] = {}
        fields = {f: type(getattr(TrainConfig, f)) for f in self.as_dict()}
        for key, value in updates.items():
            if key not in fields:
                raise ValueError(f"unknown config key {key!r}")
            kind = fields[key]
            if isinstance(value, str) and kind is not str:
                try:
                    value = kind(value)
                except ValueError:
                    raise ValueError(f"bad {_KINDS[kind]} for {key!r}: {value!r}") from None
            coerced[key] = value
        return replace(self, **coerced)


def _check_field(name: str, value) -> None:
    """The rules of one config field that need no other field; an int serves a float."""
    kind = type(getattr(TrainConfig, name))
    if kind in _KINDS and (isinstance(value, bool) or not isinstance(value, (kind, int))):
        raise ValueError(f"bad {_KINDS[kind]} for {name!r}: {value!r}")
    if name in CHOICES and value not in CHOICES[name]:
        raise ValueError(f"{name} must be one of {', '.join(CHOICES[name])}, got {value!r}")
    if name in ("dim_entity", "dim_relation", "batch_size") and value < 1:
        raise ValueError(f"{name} must be >= 1")
    if name in ("lr", "warm_lr", "margin", "margin2") and not 0 < value < math.inf:  # NaN too
        raise ValueError(f"{name} must be positive and finite, got {value}")
    if name in ("epochs", "warm_epochs", "checkpoint_every", "patience", "seed") and value < 0:
        raise ValueError(f"{name} must be >= 0")


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a ``key = value`` config file; '#' starts a comment.  Every key
    must be a config field and every value must read as its type and pass
    the field's own checks, and no key may be given twice; an error names
    the file and the line."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}  # the line of each key
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in text.split("=", 1))
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            try:
                _check_field(key, getattr(TrainConfig().with_updates({key: value}), key))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if key in first:
                raise ValueError(f"{path}:{lineno}: {key!r} given again (first on line "
                                 f"{first[key]})")
            out[key], first[key] = value, lineno
    return out


def save_config_file(config: TrainConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in config.as_dict().items():
            fh.write(f"{key} = {value}\n")


# -- negative sampling -----------------------------------------------------


def _head_probs(g: KnowledgeGraph, neg_mode: str) -> list[float]:
    """Each relation's probability of corrupting the head, once per run:
    0.5, or under Bernoulli sampling tph / (tph + hpt), which stays 0.5 for
    a relation without train facts."""
    probs = np.full(g.n_relations, 0.5)
    if neg_mode == "bernoulli":
        facts, tph, hpt = relation_cardinality(g.train, g.n_relations)
        seen = facts > 0
        probs[seen] = tph[seen] / (tph[seen] + hpt[seen])
    return probs.tolist()


# -- the minibatch step of both stages ---------------------------------------

# Facts evaluated at once within a batch.  Each block's arrays are
# O(_CHUNK * dim); only the gradient sums, one per parameter row or matrix
# at most, outlive it, so the step's memory does not grow with the batch size.
_CHUNK = 256


def _path_block(params: ModelParams) -> int:
    """Path hinges scored at once: their distinct (path, relation) pairs, at most two a
    hinge, hold no more gap floats than a fact block's 4 entity and 4 projected rows a fact."""
    return 2 * _CHUNK * (params.dim_entity + params.dim_relation) // params.dim_relation


class EpochStats(NamedTuple):
    loss: float           # mean over the epoch's facts
    violations: int       # fact_violations + path_violations
    fact_violations: int
    path_violations: int
    rescaled: int         # projection matrices scaled down
    redraws: int          # corruptions rejected and drawn again


class _FactPaths(NamedTuple):
    """What the path hinges of every train fact keep fixed for a run."""

    table: PathTable
    evidence: PathEvidence  # of all train facts, in fact order
    offsets: np.ndarray     # where each fact's entries start, plus the end


def _fact_paths(g: KnowledgeGraph, table: PathTable) -> _FactPaths:
    train = g.train
    ev = path_evidence(table, train[:, 0], train[:, 1], train[:, 2])
    counts = np.bincount(ev.triple, minlength=len(train))
    return _FactPaths(table, ev, np.concatenate(([0], np.cumsum(counts))))


def _draw_negatives(
    g: KnowledgeGraph, triples: np.ndarray, head_probs: np.ndarray | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Corrupt one slot of every (h, r, t) row at once; returns the
    corrupted rows and how many draws were rejected.

    With ``head_probs`` None the relation is corrupted.  Otherwise one
    ``rng.random`` per row picks the head when below ``head_probs[r]``,
    else the tail.  A corrupted row that is a train fact (the original
    among them) is drawn again, rejected rows only, in rounds until every
    row leaves the train set.  Every n rounds, n the number of values of
    the slot, a row still rejected is refused loudly if every value of its
    slot makes a train fact; that check draws no random numbers.
    """
    neg = np.array(triples, dtype=np.int64)
    if head_probs is None:
        col, n = np.ones(len(neg), dtype=np.int64), g.n_relations
    else:
        col = np.where(rng.random(len(neg)) < head_probs[neg[:, 1]], 0, 2)
        n = g.n_entities
    pending = np.arange(len(neg))
    redraws = rounds = 0
    while len(pending):
        neg[pending, col[pending]] = rng.integers(n, size=len(pending))
        pending = pending[g.train_mask(neg[pending])]
        redraws += len(pending)
        rounds += 1
        for i in pending.tolist() if rounds % n == 0 else ():
            every = np.repeat(neg[i : i + 1], n, axis=0)
            every[:, col[i]] = np.arange(n)
            if g.train_mask(every).all():
                slot = ("head", "relation", "tail")[int(col[i])]
                raise TrainError(
                    f"no negative for {tuple(int(x) for x in triples[i])} (slot {slot}): "
                    "every value makes a train fact"
                )
    return neg, redraws


class _Batch(NamedTuple):
    """One minibatch of train facts and the corruptions drawn for it."""

    fact: np.ndarray   # int64 train row of each fact
    pos: np.ndarray    # (B, 3) int64 facts
    neg: np.ndarray    # (B, 3) the same facts, head or tail corrupted
    owner: np.ndarray  # batch position of each path hinge's fact
    entry: np.ndarray  # evidence index of each path hinge
    rel2: np.ndarray   # corrupted relation of each path hinge
    redraws: int


def _draw_batch(
    g: KnowledgeGraph, paths: _FactPaths | None, head_probs: np.ndarray,
    rng: np.random.Generator, fact: np.ndarray,
) -> _Batch:
    """All corruptions of a batch: one per fact, then one relation per path
    hinge, drawn only when the batch has path hinges.  A fact whose path
    reliabilities total 0 has none, and so has every fact of the warm
    start (``paths`` None)."""
    pos = g.train[fact].astype(np.int64)
    neg, redraws = _draw_negatives(g, pos, head_probs, rng)
    owner = entry = rel2 = np.zeros(0, dtype=np.int64)
    if paths is not None:
        lo = paths.offsets[fact]
        owner, entry = expand_spans(lo, np.where(paths.evidence.z[fact] > 0.0,
                                                 paths.offsets[fact + 1], lo))
    if len(entry):
        corrupted, more = _draw_negatives(g, pos[owner], None, rng)
        rel2, redraws = corrupted[:, 1], redraws + more
    return _Batch(fact, pos, neg, owner, entry, rel2, redraws)


def _add_rows(acc: np.ndarray, ids: np.ndarray, grads: np.ndarray) -> None:
    """``acc[i]`` += the rows of ``grads`` with id i, summed from 0.0 in row
    order by one ``np.bincount`` and added once.  A block with at least as
    many rows as ``acc`` sums into every row of it; a smaller one sums over
    its distinct ids only, numbered by a slot map without a sort."""
    n, k = acc.shape
    ids, rows = np.asarray(ids, dtype=np.intp), slice(None)
    if len(ids) < n:
        slot, at = np.empty(n, dtype=np.intp), np.arange(len(ids))
        slot[ids] = at                      # one of each id's positions
        rows = ids[slot[ids] == at]         # so each id once
        slot[rows] = np.arange(len(rows))
        ids, n = slot[ids], len(rows)
    flat = (ids[:, None] * k + np.arange(k)).ravel()
    acc[rows] += np.bincount(flat, grads.ravel(), n * k).reshape(n, k)


def _fact_block(params: ModelParams, pos: np.ndarray, neg: np.ndarray, margin: float,
                gM: np.ndarray | None = None):
    """The hinges ``margin + E(pos) - E(neg)``, E the projected score, of
    facts sorted by relation: (hinges, active, entity ids and gradients,
    then per relation run its relation, active count and relation
    gradient), and each run's M_r gradient added into ``gM``, row j for
    the block's j-th relation.  A hinge is active unless <= 0 (NaN stays
    active).  A run's active rows U, its facts' residuals then minus their
    corruptions', give heads 2 U M_r, tails minus that, r 2 U summed and
    M_r 2 U^T (h - t), by one product with M_r per run and term.  With
    ``gM`` None (the warm start) every M_r is taken as identity: no
    product is made and heads get 2 U."""
    k = params.dim_entity
    warm = gM is None
    first = _firsts(pos[:, 1])
    run, starts = np.cumsum(first) - 1, np.flatnonzero(first)
    rels = pos[starts, 1]
    X = params.entity_emb[np.stack((pos[:, 0], neg[:, 0], pos[:, 2], neg[:, 2]), axis=1)]
    P = X = X.astype(np.float64)                 # h, h', t, t' of each fact
    if not warm:
        Ms = params.proj[rels].astype(np.float64)
        P = np.empty((len(pos), 4, params.dim_relation))
        for M, lo, hi in zip(Ms, starts.tolist(), [*starts[1:].tolist(), len(pos)]):
            P[lo:hi] = (X[lo:hi].reshape(-1, k) @ M.T).reshape(hi - lo, 4, -1)
    rv = params.relation_emb[rels][run].astype(np.float64)
    u = P[:, 0] + rv - P[:, 2]                   # residuals of the facts
    w = P[:, 1] + rv - P[:, 3]                   # and of their corruptions
    del P, rv                                    # the block's peak memory
    hinge = margin + _row_dots(u) - _row_dots(w)
    on = ~(hinge <= 0.0)
    act = np.flatnonzero(on)
    hits = np.bincount(run[act], minlength=len(rels))
    order = np.argsort(np.concatenate((2 * run[act], 2 * run[act] + 1)), kind="stable")
    U = np.concatenate((u[act], -w[act]))[order]
    lo, live, n = 2 * (np.cumsum(hits) - hits), np.flatnonzero(hits), len(U)
    grads = np.empty((2 * n, k))                 # heads, then tails
    if warm:
        np.multiply(U, 2.0, out=grads[:n])
    else:
        D = (X[act, :2] - X[act, 2:]).transpose(1, 0, 2).reshape(-1, k)[order]
        for j, s, e in zip(live.tolist(), lo[live].tolist(), (lo + 2 * hits)[live].tolist()):
            grads[s:e] = 2.0 * (U[s:e] @ Ms[j])
            gM[j] += 2.0 * (U[s:e].T @ D[s:e])
    del X                                        # the same
    np.negative(grads[:n], out=grads[n:])
    gr = 2.0 * np.add.reduceat(U, lo[live], axis=0)  # of the runs with active hinges
    ids = np.concatenate((pos[act, 0], neg[act, 0], pos[act, 2], neg[act, 2]))
    return hinge, on, ids[np.concatenate((order, order + n))], grads, rels, hits, gr


def _run_sums(key: np.ndarray, rows: np.ndarray, counts: np.ndarray):
    """Each run of the sorted ``key``: its value and its sums of ``rows`` and ``counts``."""
    starts = np.flatnonzero(_firsts(key))
    return (key[starts], np.add.reduceat(rows, starts, axis=0),
            np.add.reduceat(counts, starts))


def _path_hinges(rel: np.ndarray, path_rels: np.ndarray, relatedness: Callable, path: np.ndarray,
                 r: np.ndarray, r2: np.ndarray, reliability: np.ndarray, flow: np.ndarray,
                 inv_z: np.ndarray, margin: float):
    """The path hinges ``inv_z * (margin + c |p - r|^2 - c' |p - r2|^2)``, c
    the reliability, c' ``relatedness(r2, path)`` * flow, p ``path_rels[path]``
    composed from ``rel`` (``relation_rows``), once per distinct (path,
    relation); ``relatedness`` is read once per distinct (path, r2).  Returns
    (hinges, active, relation ids, gradient rows, hinge terms per row).  An
    active hinge adds 2 inv_z (c q - c' q') to its path's steps, -2 inv_z c q
    to r and 2 inv_z c' q' to r2, q = p - r, q' = p - r2: so a path's steps
    and a relation get the sums of their pairs' gaps times coefficients."""
    m = len(path)
    pair_path, pair_r, gap, at = path_gaps(
        rel, path_rels, np.concatenate((path, path)), np.concatenate((r, r2)))
    neg = np.flatnonzero(np.bincount(at[m:], minlength=len(gap)))
    relat = np.zeros(len(gap))
    relat[neg] = relatedness(pair_r[neg], pair_path[neg])
    dist = _row_dots(gap)[at]
    weight = np.concatenate((reliability, -(relat[at[m:]] * flow)))
    hinge = inv_z * (margin + weight[:m] * dist[:m] + weight[m:] * dist[m:])
    on = ~(hinge <= 0.0)
    on2 = np.concatenate((on, on))
    coef = np.bincount(at[on2], (2.0 * np.concatenate((inv_z, inv_z)) * weight)[on2], len(gap))
    hits = np.bincount(at[on2], minlength=len(gap))  # terms of each pair's relation
    walks = np.bincount(at[:m][on], minlength=len(gap))  # and of its path
    gap *= coef[:, None]  # V, 0 for a pair without an active hinge
    paths, Vp, n_path = _run_sums(pair_path, gap, walks)
    order = np.argsort(pair_r, kind="stable")
    rels, Vr, n_rel = _run_sums(pair_r[order], gap[order], hits[order])
    steps = path_rels[paths]
    along, col = np.nonzero(steps >= 0)
    return (hinge, on, np.concatenate((steps[along, col], rels)),
            np.concatenate((Vp[along], -Vr)), np.concatenate((n_path[along], n_rel)))


def _step(
    params: ModelParams, paths: _FactPaths | None, cfg: TrainConfig, b: _Batch,
) -> tuple[float, int, int, int]:
    """One minibatch update from the parameters as the batch found them.

    Entity rows take the sum of their gradients; a relation row takes the
    mean of its contributions (each hinge term that reaches it), and M_r
    the mean over the batch's active fact hinges of r, summed over the
    fact blocks and applied once, before the path hinges (which never
    read M_r) add to the counts.  Then the touched rows are renormalized
    and each touched M_r is scaled once.  The warm start (stage transe)
    scores its fact hinges with identity projections, moves relation rows
    by the sum of their gradients and leaves every M_r as it is.  Returns
    (loss, fact violations, path violations, matrices rescaled).
    """
    warm = cfg.stage == "transe"
    ent_g = np.zeros(params.entity_emb.shape)
    rel_g = np.zeros(params.relation_emb.shape)
    rel_n = np.zeros(params.n_relations, dtype=np.int64)
    loss, fact_v, path_v = 0.0, 0, 0
    bounded: list[np.ndarray] = []  # active facts and corruptions, for the M_r bound

    order = np.argsort(b.pos[:, 1], kind="stable")
    batch_rels = _distinct(b.pos[:, 1])
    proj_g = None if warm else np.zeros((len(batch_rels), *params.proj.shape[1:]))
    for c in range(0, len(order), _CHUNK):
        pos, neg = b.pos[order[c : c + _CHUNK]], b.neg[order[c : c + _CHUNK]]
        # A block's relations are consecutive among the batch's.
        gM = None if warm else proj_g[int(np.searchsorted(batch_rels, pos[0, 1])):]
        hinge, on, ids, grads, rels, hits, gr = _fact_block(params, pos, neg, cfg.margin, gM)
        loss += float(hinge[on].sum())
        fact_v += int(on.sum())
        _add_rows(ent_g, ids, grads)
        rel_g[rels[hits > 0]] += gr
        rel_n[rels] += hits
        bounded += (pos[on], neg[on])
    if not warm:  # rel_n counts only fact hinges until the path hinges; an
        # M_r with none has an all-zero sum, so it moves by exactly 0.
        proj_g /= np.maximum(rel_n[batch_rels], 1)[:, None, None]
        proj_g *= cfg.lr
        params.proj[batch_rels] -= proj_g.astype(np.float32)

    size = _path_block(params)
    if len(b.entry):
        ev, table, rel = paths.evidence, paths.table, relation_rows(params)
    for c in range(0, len(b.entry), size):
        entry, owner = b.entry[c : c + size], b.owner[c : c + size]
        hinge, on, ids, grads, terms = _path_hinges(
            rel, table.path_rels, table.relatedness, ev.path[entry], b.pos[owner, 1],
            b.rel2[c : c + size], ev.reliability[entry], ev.flow[entry],
            1.0 / ev.z[b.fact[owner]], cfg.margin2,
        )
        loss += float(hinge[on].sum())
        path_v += int(on.sum())
        _add_rows(rel_g, ids, grads)
        np.add.at(rel_n, ids, terms)

    tri = np.concatenate(bounded)
    ents = _distinct(tri[:, [0, 2]].ravel())
    rels = np.flatnonzero(rel_n)
    params.entity_emb[ents] -= (cfg.lr * ent_g[ents]).astype(np.float32)
    if warm:  # summed, and identity projections bound nothing
        params.relation_emb[rels] -= (cfg.lr * rel_g[rels]).astype(np.float32)
        return loss, fact_v, path_v, project_constraints(params, ents, rels)
    params.relation_emb[rels] -= (cfg.lr * (rel_g[rels] / rel_n[rels, None])).astype(np.float32)
    return loss, fact_v, path_v, project_constraints(params, ents, rels, tri)


def _run_epoch(
    g: KnowledgeGraph,
    paths: _FactPaths | None,
    params: ModelParams,
    cfg: TrainConfig,
    rng: np.random.Generator,
    head_probs: list[float],
    epoch: int,
) -> EpochStats:
    """One pass over the shuffled train facts, one minibatch step per
    ``batch_size`` of them (``paths`` None in the warm start)."""
    n = len(g.train)
    order = rng.permutation(n)
    probs = np.asarray(head_probs)
    loss_sum = 0.0
    counts = np.zeros(4, dtype=np.int64)  # fact and path violations, rescaled, redraws
    for start in range(0, n, cfg.batch_size):
        batch = _draw_batch(g, paths, probs, rng, order[start : start + cfg.batch_size])
        loss, *batch_counts = _step(params, paths, cfg, batch)
        loss_sum += loss
        counts += (*batch_counts, batch.redraws)
        if not np.isfinite(loss_sum):
            raise TrainError(
                f"non-finite loss at epoch {epoch}, batch starting {start} "
                f"(lr={cfg.lr}, stage={cfg.stage})"
            )
    # NaNs that never fire a hinge produce no loss signal, so check the
    # parameters themselves once per epoch.
    if not all(np.isfinite(a).all() for a in (params.entity_emb, params.relation_emb, params.proj)):
        raise TrainError(
            f"non-finite parameters after epoch {epoch} (lr={cfg.lr}, stage={cfg.stage})")
    fact_v, path_v, rescaled, redraws = counts.tolist()
    return EpochStats(loss_sum / max(n, 1), fact_v + path_v, fact_v, path_v, rescaled, redraws)


# -- orchestration -----------------------------------------------------------


def _fit(
    g: KnowledgeGraph, paths: _FactPaths | None, params: ModelParams, cfg: TrainConfig,
    rng: np.random.Generator, emit: Callable[[dict], None] | None, t0: float, out: Path | None,
) -> ModelParams:
    """Train ``params`` in place for ``cfg.epochs`` epochs of ``cfg.stage``
    (``paths`` None for the warm start): one record per epoch, the early
    stop when ``cfg.patience`` > 0 and the checkpoints under ``out``.
    Returns the model to keep: with ``cfg.patience`` > 0 a copy of the
    parameters at the best valid mean rank, else ``params``."""
    head_probs = _head_probs(g, cfg.neg_mode)
    best, best_epoch, since_best, kept = np.inf, -1, 0, params
    for epoch in range(cfg.epochs):
        stats = _run_epoch(g, paths, params, cfg, rng, head_probs, epoch)
        record = {"stage": cfg.stage, "epoch": epoch, **stats._asdict(),
                  "wall_time": time.perf_counter() - t0}
        if cfg.stage == "transe":  # the warm start has no path hinge or M_r
            del record["path_violations"], record["rescaled"]
        if cfg.patience > 0:
            record["valid_mean_rank"] = metric = valid_mean_rank(params, g)
            if metric < best - 1e-12:
                best, best_epoch, since_best, kept = metric, epoch, 0, params.copy()
            else:
                since_best += 1
        if emit is not None:
            emit(record)
        if out is not None and cfg.checkpoint_every > 0 and (
            (epoch + 1) % cfg.checkpoint_every == 0
        ):
            ckpt_dir = out / "checkpoints"
            ckpt_dir.mkdir(exist_ok=True)
            params.save(ckpt_dir / f"epoch_{epoch + 1:05d}.ptrm")
        if cfg.patience > 0 and since_best >= cfg.patience:
            emit({"event": "early_stop", "epoch": epoch, "best": best,
                  "best_epoch": best_epoch})
            break
    return kept


def _check_run(g: KnowledgeGraph, table: PathTable | None, config: TrainConfig,
               params: ModelParams | None = None) -> None:
    """Refuse a run that cannot start: an invalid config, a graph without
    inverses, a table or model of another graph, a model of other
    dimensions than ``config``, or a warm start (no ``params``) of unequal
    dimensions."""
    config.validate()
    if not g.augmented:
        raise TrainError("training expects an inverse-augmented graph")
    if table is not None:
        table.check_graph(g, TrainError)
    if params is None:
        if config.dim_entity != config.dim_relation:
            raise TrainError("warm start needs dim_entity == dim_relation")
        return
    params.check_graph(g, TrainError)
    if (params.dim_entity, params.dim_relation) != (config.dim_entity, config.dim_relation):
        raise TrainError("initial model dimensions disagree with config")


def init_transe(
    g: KnowledgeGraph,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    emit: Callable[[dict], None] | None = None,
) -> ModelParams:
    """Train the warm-start translation model from a fresh random init.

    Entity and relation spaces must have equal dimension here; the
    projection tensor stays identity throughout.  All embedding rows are
    unit-normalized on return: they start so, and every batch renormalizes
    the rows it moved.
    """
    cfg = replace(config, stage="transe")
    _check_run(g, None, cfg)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    params = ModelParams.random(
        g.n_entities, g.n_relations, cfg.dim_entity, cfg.dim_relation, rng
    )
    _fit(g, None, params, cfg, rng, emit, time.perf_counter(), None)
    return params


def train_epoch_ptransr(
    g: KnowledgeGraph,
    table: PathTable,
    params: ModelParams,
    config: TrainConfig,
    rng: np.random.Generator,
) -> EpochStats:
    """One pass over the shuffled train facts under the projected score."""
    if config.stage == "transe":
        raise TrainError("train_epoch_ptransr drives the projected stages only")
    _check_run(g, table, config, params)
    return _run_epoch(
        g, _fact_paths(g, table), params, config, rng, _head_probs(g, config.neg_mode), epoch=0,
    )


def train(
    g: KnowledgeGraph,
    table: PathTable | None,
    config: TrainConfig,
    out_dir: str | Path | None = None,
    init_params: ModelParams | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Run the configured stage end to end and return (params, log records).

    For the projected stages a warm start is trained first unless
    ``init_params`` is given.  With ``out_dir`` set, the final model, the
    effective config, and a JSON-lines log are persisted there, plus
    periodic checkpoints when ``checkpoint_every`` > 0.
    """
    if init_params is not None and config.stage == "transe":
        raise TrainError("stage transe always starts from a fresh init")
    if config.stage == "transr" or table is None:
        table = PathTable.empty(g.n_entities)
    _check_run(g, table, config, init_params)
    if config.patience > 0 and len(g.valid) == 0:
        raise TrainError("early stopping needs a non-empty valid split")

    out = Path(out_dir) if out_dir is not None else None
    log_fh = None
    records: list[dict] = []
    written = 0

    def flush() -> None:
        """Write the records not yet in the log, making the run directory
        first: a run that fails before its first epoch leaves none."""
        nonlocal log_fh, written
        if log_fh is None:
            out.mkdir(parents=True, exist_ok=True)
            log_fh = open(out / "train_log.jsonl", "w", encoding="utf-8")
        for record in records[written:]:
            log_fh.write(json.dumps(record, sort_keys=True) + "\n")
        log_fh.flush()
        written = len(records)

    def emit(record: dict) -> None:
        records.append(record)
        if out is not None and (log_fh is not None or "loss" in record):
            flush()

    try:
        ignored = config.ignored(warm_start=init_params is None)
        emit({"event": "config", **config.as_dict(), "ignored": ignored})
        rng = np.random.default_rng(config.seed)
        t0 = time.perf_counter()

        if init_params is not None:
            params = init_params.copy()
        else:
            warm = replace(config, lr=config.warm_lr, epochs=config.warm_epochs,
                           patience=0, checkpoint_every=0)
            params = init_transe(g, config if config.stage == "transe" else warm, rng, emit)
        if config.stage != "transe":
            params = _fit(g, _fact_paths(g, table), params, config, rng, emit, t0, out)

        if out is not None:
            flush()
            params.save(out / "model.ptrm")
            save_config_file(config, out / "config.txt")
        return params, records
    finally:
        if log_fh is not None:
            log_fh.close()
