"""Two-stage training: translation warm start, then projected refinement.

Stage one fits plain translation embeddings (shared entity/relation
space, projections stay identity).  Stage two refines them under the
projected score, optionally regularized by relation paths: every train
fact also pulls the composed embedding of each reliable path toward its
relation vector, with each path term weighted by its share of the pair's
total reliability.

Updates are pure SGD, applied triple by triple; the batch size only
controls how often norm constraints are re-imposed.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Literal, Mapping, NamedTuple

import numpy as np

from pathkge.kgdata import KnowledgeGraph, Triple
from pathkge.models import (
    ModelParams,
    PathEvidence,
    compose_paths,
    gap_energy_and_grads,
    path_evidence,
    project_constraints,
    relation_rows,
    transe_energy_and_grads,
    transr_energy_and_grads,
)
from pathkge.paths import PathTable

Stage = Literal["transe", "transr", "ptransr"]

STAGES = ("transe", "transr", "ptransr")
NEG_MODES = ("uniform", "bernoulli")
NORMS = ("L1", "L2")
MAX_NEGATIVE_ATTEMPTS = 100


class TrainError(RuntimeError):
    """Training aborted (non-finite loss, exhausted sampling, bad setup)."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs; mirrors the key=value config file."""

    stage: str = "ptransr"
    dim_entity: int = 50
    dim_relation: int = 50
    lr: float = 0.001
    margin: float = 1.0      # stage-one margin
    margin1: float = 1.0     # fact-level margin in stage two
    margin2: float = 1.0     # path-level margin in stage two
    batch_size: int = 4800
    epochs: int = 500
    norm: str = "L2"
    neg_mode: str = "uniform"
    seed: int = 7
    workers: int = 1
    lr_decay: bool = False
    early_stop: bool = False
    patience: int = 50
    checkpoint_every: int = 0
    warm_lr: float = 0.01
    warm_margin: float = 1.0
    warm_epochs: int = 1000

    def validate(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}")
        if self.neg_mode not in NEG_MODES:
            raise ValueError(f"unknown negative-sampling mode {self.neg_mode!r}")
        for name in ("dim_entity", "dim_relation", "batch_size", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lr", "warm_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("margin", "margin1", "margin2", "warm_margin"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("epochs", "warm_epochs", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def defaults_for_stage(cls, stage: str) -> "TrainConfig":
        if stage == "transe":
            return cls(stage="transe", lr=0.01, epochs=1000)
        return cls(stage=stage)

    def with_updates(self, updates: Mapping[str, object]) -> "TrainConfig":
        coerced: dict[str, object] = {}
        fields = {f: type(getattr(self, f)) for f in self.as_dict()}
        for key, value in updates.items():
            if key not in fields:
                raise ValueError(f"unknown config key {key!r}")
            kind = fields[key]
            if isinstance(value, str) and kind is not str:
                if kind is bool:
                    low = value.strip().lower()
                    if low in ("true", "1", "yes"):
                        value = True
                    elif low in ("false", "0", "no"):
                        value = False
                    else:
                        raise ValueError(f"bad boolean for {key!r}: {value!r}")
                else:
                    value = kind(value)
            coerced[key] = value
        return replace(self, **coerced)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a ``key = value`` config file; '#' starts a comment."""
    out: dict[str, str] = {}
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
            out[key] = value
    return out


def save_config_file(config: TrainConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in config.as_dict().items():
            fh.write(f"{key} = {value}\n")


# -- negative sampling -----------------------------------------------------


class NegativeSample(NamedTuple):
    corrupted: Triple
    slot: str


def sample_negative(
    g: KnowledgeGraph,
    triple: tuple[int, int, int],
    slots: Mapping[str, float],
    rng: np.random.Generator,
) -> NegativeSample:
    """Corrupt one slot of the triple, resampling until unseen in train.

    ``slots`` maps slot names (head, tail, relation) to selection
    probabilities.  The corrupted fact must differ from the original and
    must not appear in the (augmented) train set; after
    ``MAX_NEGATIVE_ATTEMPTS`` draws the sampler gives up loudly.
    """
    h, r, t = (int(x) for x in triple)
    names = list(slots)
    probs = np.array([slots[name] for name in names], dtype=np.float64)
    if len(names) == 0 or probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-9:
        raise TrainError(f"bad slot distribution {dict(slots)!r}")
    for name in names:
        if name not in ("head", "tail", "relation"):
            raise TrainError(f"unknown corruption slot {name!r}")
    if len(names) == 1:
        slot = names[0]
    else:
        u = rng.random()
        acc = 0.0
        slot = names[-1]
        for name, p in zip(names, probs):
            acc += p
            if u < acc:
                slot = name
                break
    for _ in range(MAX_NEGATIVE_ATTEMPTS):
        if slot == "head":
            cand = (int(rng.integers(g.n_entities)), r, t)
        elif slot == "tail":
            cand = (h, r, int(rng.integers(g.n_entities)))
        else:
            cand = (h, int(rng.integers(g.n_relations)), t)
        if cand == (h, r, t):
            continue
        if not g.in_train(*cand):
            return NegativeSample(Triple(*cand), slot)
    raise TrainError(
        f"could not sample a negative for {(h, r, t)} (slot {slot}) in "
        f"{MAX_NEGATIVE_ATTEMPTS} attempts"
    )


def _bern_head_probs(g: KnowledgeGraph) -> np.ndarray:
    """Per-relation probability of corrupting the head (tph/(tph+hpt))."""
    train = g.train
    probs = np.full(g.n_relations, 0.5, dtype=np.float64)
    order = np.argsort(train[:, 1], kind="stable")
    rels = train[order, 1]
    heads = train[order, 0]
    tails = train[order, 2]
    bounds = np.searchsorted(rels, np.arange(g.n_relations + 1))
    for r in range(g.n_relations):
        lo, hi = bounds[r], bounds[r + 1]
        if lo == hi:
            continue
        n = hi - lo
        tph = n / len(np.unique(heads[lo:hi]))
        hpt = n / len(np.unique(tails[lo:hi]))
        probs[r] = tph / (tph + hpt)
    return probs


# -- SGD steps --------------------------------------------------------------


class EpochStats(NamedTuple):
    mean_loss: float
    violations: int


class _Touched:
    __slots__ = ("entities", "relations", "triples")

    def __init__(self) -> None:
        self.entities: set[int] = set()
        self.relations: set[int] = set()
        self.triples: list[tuple[int, int, int]] = []

    def merge(self, other: "_Touched") -> None:
        self.entities |= other.entities
        self.relations |= other.relations
        self.triples.extend(other.triples)


def _acc(store: dict[int, np.ndarray], key: int, grad: np.ndarray) -> None:
    if key in store:
        store[key] = store[key] + grad
    else:
        store[key] = grad


def _apply_updates(
    params: ModelParams,
    lr: float,
    ent_g: dict[int, np.ndarray],
    rel_g: dict[int, np.ndarray],
    proj_g: dict[int, np.ndarray],
) -> None:
    for i, grad in ent_g.items():
        params.entity_emb[i] -= (lr * grad).astype(np.float32)
    for i, grad in rel_g.items():
        params.relation_emb[i] -= (lr * grad).astype(np.float32)
    for i, grad in proj_g.items():
        params.proj[i] -= (lr * grad).astype(np.float32)


def _slot_distribution(bern: np.ndarray | None, r: int) -> dict[str, float]:
    if bern is None:
        return {"head": 0.5, "tail": 0.5}
    p = float(bern[r])
    return {"head": p, "tail": 1.0 - p}


class _FactPaths(NamedTuple):
    """What the path hinges of every train fact keep fixed for a run."""

    table: PathTable
    evidence: PathEvidence  # of all train facts, in fact order
    offsets: list[int]      # where each fact's entries start, plus the end


def _fact_paths(g: KnowledgeGraph, table: PathTable) -> _FactPaths:
    train = g.train
    ev = path_evidence(table, train[:, 0], train[:, 1], train[:, 2])
    counts = np.bincount(ev.triple, minlength=len(train))
    return _FactPaths(table, ev, [0] + np.cumsum(counts).tolist())


def _step_transe(
    g: KnowledgeGraph,
    paths: _FactPaths | None,
    params: ModelParams,
    cfg: TrainConfig,
    rng: np.random.Generator,
    bern: np.ndarray | None,
    lr: float,
    idx: int,
    touched: _Touched,
) -> tuple[float, int]:
    h, r, t = (int(x) for x in g.train[idx])
    neg = sample_negative(g, (h, r, t), _slot_distribution(bern, r), rng)
    h2, _, t2 = neg.corrupted
    e_pos, gh, gt, gr = transe_energy_and_grads(params, h, r, t, cfg.norm)
    e_neg, gh2, gt2, gr2 = transe_energy_and_grads(params, h2, r, t2, cfg.norm)
    loss = cfg.margin + e_pos - e_neg
    if loss <= 0:
        return 0.0, 0
    ent_g: dict[int, np.ndarray] = {}
    rel_g: dict[int, np.ndarray] = {}
    _acc(ent_g, h, gh)
    _acc(ent_g, t, gt)
    _acc(rel_g, r, gr - gr2)
    _acc(ent_g, h2, -gh2)
    _acc(ent_g, t2, -gt2)
    _apply_updates(params, lr, ent_g, rel_g, {})
    touched.entities.update(ent_g)
    touched.relations.update(rel_g)
    return float(loss), 1


def _step_ptransr(
    g: KnowledgeGraph,
    paths: _FactPaths,
    params: ModelParams,
    cfg: TrainConfig,
    rng: np.random.Generator,
    bern: np.ndarray | None,
    lr: float,
    idx: int,
    touched: _Touched,
) -> tuple[float, int]:
    h, r, t = (int(x) for x in g.train[idx])
    total = 0.0
    violations = 0
    ent_g: dict[int, np.ndarray] = {}
    rel_g: dict[int, np.ndarray] = {}
    proj_g: dict[int, np.ndarray] = {}

    neg = sample_negative(g, (h, r, t), _slot_distribution(bern, r), rng)
    h2, _, t2 = neg.corrupted
    e_pos, gh, gt, gr, gM = transr_energy_and_grads(params, h, r, t)
    e_neg, gh2, gt2, gr2, gM2 = transr_energy_and_grads(params, h2, r, t2)
    loss = cfg.margin1 + e_pos - e_neg
    if loss > 0:
        total += loss
        violations += 1
        _acc(ent_g, h, gh)
        _acc(ent_g, t, gt)
        _acc(ent_g, h2, -gh2)
        _acc(ent_g, t2, -gt2)
        _acc(rel_g, r, gr - gr2)
        _acc(proj_g, r, gM - gM2)
        touched.triples.append((h, r, t))
        touched.triples.append((h2, r, t2))

    # One hinge per stored path of the pair (the 1-hop path r itself
    # excluded), each against a corrupted relation and weighted by its
    # share of the pair's total reliability z; a fact with z == 0 has none.
    z = float(paths.evidence.z[idx])
    if z > 0.0:
        inv_z = 1.0 / z
        ev, table = paths.evidence, paths.table
        lo, hi = paths.offsets[idx], paths.offsets[idx + 1]
        pids = ev.path[lo:hi]
        negs = [
            sample_negative(g, (h, r, t), {"relation": 1.0}, rng).corrupted.r
            for _ in range(hi - lo)
        ]
        neg_reliability = table.relatedness(negs, pids) * ev.flow[lo:hi]
        rel = relation_rows(params)
        vecs = compose_paths(rel, table.path_pad[pids])
        for j, (pid, reliability, r2, rel_neg) in enumerate(zip(
            pids.tolist(), ev.reliability[lo:hi].tolist(), negs, neg_reliability.tolist()
        )):
            e_pp, gp_pos, gr_pos = gap_energy_and_grads(vecs[j] - rel[r], reliability)
            e_pn, gp_neg, gr_neg = gap_energy_and_grads(vecs[j] - rel[r2], rel_neg)
            ploss = cfg.margin2 + e_pp - e_pn
            if ploss <= 0:
                continue
            total += inv_z * ploss
            violations += 1
            for pr in table.path_rels[pid]:
                _acc(rel_g, pr, inv_z * (gp_pos - gp_neg))
            _acc(rel_g, r, inv_z * gr_pos)
            _acc(rel_g, r2, -inv_z * gr_neg)

    if ent_g or rel_g or proj_g:
        _apply_updates(params, lr, ent_g, rel_g, proj_g)
        touched.entities.update(ent_g)
        touched.relations.update(rel_g)
    return total, violations


def _run_epoch(
    g: KnowledgeGraph,
    paths: _FactPaths | None,
    params: ModelParams,
    cfg: TrainConfig,
    rng: np.random.Generator,
    bern: np.ndarray | None,
    lr: float,
    epoch: int,
) -> EpochStats:
    n = len(g.train)
    order = rng.permutation(n)
    step = _step_transe if cfg.stage == "transe" else _step_ptransr
    loss_sum = 0.0
    violations = 0
    thread_rngs = rng.spawn(cfg.workers) if cfg.workers > 1 else None
    for start in range(0, n, cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        touched = _Touched()
        if cfg.workers <= 1:
            for idx in batch.tolist():
                l, v = step(g, paths, params, cfg, rng, bern, lr, idx, touched)
                loss_sum += l
                violations += v
        else:
            # Hogwild over disjoint shards: threads share the parameter
            # arrays and race on them; callers opt into nondeterminism.
            shards = np.array_split(batch, cfg.workers)

            def run_shard(shard: np.ndarray, shard_rng: np.random.Generator):
                local = _Touched()
                ls, vs_ = 0.0, 0
                for idx in shard.tolist():
                    l, v = step(g, paths, params, cfg, shard_rng, bern, lr, idx, local)
                    ls += l
                    vs_ += v
                return ls, vs_, local

            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                futures = [
                    pool.submit(run_shard, shard, srng)
                    for shard, srng in zip(shards, thread_rngs)
                    if len(shard)
                ]
                for fut in futures:
                    ls, vs_, local = fut.result()
                    loss_sum += ls
                    violations += vs_
                    touched.merge(local)
        if not np.isfinite(loss_sum):
            raise TrainError(
                f"non-finite loss at epoch {epoch}, batch starting {start} "
                f"(lr={lr}, stage={cfg.stage})"
            )
        project_constraints(params, touched.entities, touched.relations, touched.triples)
    # NaNs that never fire a hinge produce no loss signal, so check the
    # parameters themselves once per epoch.
    if not (
        np.isfinite(params.entity_emb).all()
        and np.isfinite(params.relation_emb).all()
        and np.isfinite(params.proj).all()
    ):
        raise TrainError(
            f"non-finite parameters after epoch {epoch} (lr={lr}, stage={cfg.stage})"
        )
    return EpochStats(loss_sum / max(n, 1), violations)


# -- validation probe for early stopping ------------------------------------


def _validation_mean_rank(params: ModelParams, g: KnowledgeGraph, cfg: TrainConfig) -> float:
    """Raw pessimistic mean rank on the valid split, first-stage score only."""
    if len(g.valid) == 0:
        raise TrainError("early stopping needs a non-empty valid split")
    ent = params.entity_emb.astype(np.float64)
    ranks: list[int] = []
    for row in g.valid:
        h, r, t = (int(x) for x in row)
        if cfg.stage == "transe":
            rv = params.relation_emb[r].astype(np.float64)
            head_scores = _norms(ent + (rv - ent[t]), cfg.norm)
            tail_scores = _norms((ent[h] + rv) - ent, cfg.norm)
        else:
            M = params.proj[r].astype(np.float64)
            proj_all = ent @ M.T
            rv = params.relation_emb[r].astype(np.float64)
            head_scores = np.square(proj_all + (rv - proj_all[t])).sum(axis=1)
            tail_scores = np.square((proj_all[h] + rv) - proj_all).sum(axis=1)
        for scores, gold in ((head_scores, h), (tail_scores, t)):
            gval = scores[gold]
            ranks.append(int((scores < gval).sum() + (scores == gval).sum()))
    return float(np.mean(ranks))


def _norms(mat: np.ndarray, norm: str) -> np.ndarray:
    if norm == "L1":
        return np.abs(mat).sum(axis=1)
    return np.sqrt(np.square(mat).sum(axis=1))


# -- orchestration -----------------------------------------------------------


def init_transe(
    g: KnowledgeGraph,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    emit: Callable[[dict], None] | None = None,
) -> ModelParams:
    """Train the warm-start translation model from a fresh random init.

    Entity and relation spaces must have equal dimension here; the
    projection tensor stays identity throughout.  All embedding rows are
    unit-normalized on return.
    """
    config.validate()
    if not g.augmented:
        raise TrainError("training expects an inverse-augmented graph")
    if config.dim_entity != config.dim_relation:
        raise TrainError("warm start needs dim_entity == dim_relation")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    cfg = replace(config, stage="transe")
    params = ModelParams.random(
        g.n_entities, g.n_relations, cfg.dim_entity, cfg.dim_relation, rng
    )
    bern = _bern_head_probs(g) if cfg.neg_mode == "bernoulli" else None
    t0 = time.perf_counter()
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (1.0 - epoch / cfg.epochs) if cfg.lr_decay else cfg.lr
        stats = _run_epoch(g, None, params, cfg, rng, bern, lr, epoch)
        if emit is not None:
            emit(
                {
                    "stage": "transe",
                    "epoch": epoch,
                    "loss": stats.mean_loss,
                    "violations": stats.violations,
                    "wall_time": time.perf_counter() - t0,
                }
            )
    project_constraints(
        params, range(g.n_entities), range(g.n_relations), ()
    )
    return params


def train_epoch_ptransr(
    g: KnowledgeGraph,
    table: PathTable,
    params: ModelParams,
    config: TrainConfig,
    rng: np.random.Generator,
) -> EpochStats:
    """One pass over the shuffled train facts under the projected score."""
    config.validate()
    if config.stage == "transe":
        raise TrainError("train_epoch_ptransr drives the projected stages only")
    bern = _bern_head_probs(g) if config.neg_mode == "bernoulli" else None
    return _run_epoch(g, _fact_paths(g, table), params, config, rng, bern, config.lr, epoch=0)


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
    config.validate()
    if not g.augmented:
        raise TrainError("training expects an inverse-augmented graph")
    if config.stage == "transr" or table is None:
        table = PathTable.empty(g.n_entities)

    out = Path(out_dir) if out_dir is not None else None
    log_fh = None
    records: list[dict] = []
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        log_fh = open(out / "train_log.jsonl", "w", encoding="utf-8")

    def emit(record: dict) -> None:
        records.append(record)
        if log_fh is not None:
            log_fh.write(json.dumps(record, sort_keys=True) + "\n")
            log_fh.flush()

    try:
        emit({"event": "config", **config.as_dict()})
        rng = np.random.default_rng(config.seed)
        t0 = time.perf_counter()

        if config.stage == "transe":
            if init_params is not None:
                raise TrainError("stage transe always starts from a fresh init")
            params = init_transe(g, config, rng, emit)
        else:
            if init_params is None:
                warm = replace(
                    config,
                    stage="transe",
                    lr=config.warm_lr,
                    margin=config.warm_margin,
                    epochs=config.warm_epochs,
                )
                params = init_transe(g, warm, rng, emit)
            else:
                params = init_params.copy()
                if params.n_entities != g.n_entities or params.n_relations != g.n_relations:
                    raise TrainError(
                        "initial model shape does not match the graph "
                        f"({params.n_entities}x{params.n_relations} vs "
                        f"{g.n_entities}x{g.n_relations})"
                    )
                if (params.dim_entity, params.dim_relation) != (
                    config.dim_entity,
                    config.dim_relation,
                ):
                    raise TrainError("initial model dimensions disagree with config")
            bern = _bern_head_probs(g) if config.neg_mode == "bernoulli" else None
            paths = _fact_paths(g, table)
            best = np.inf
            since_best = 0
            for epoch in range(config.epochs):
                lr = config.lr * (1.0 - epoch / config.epochs) if config.lr_decay else config.lr
                stats = _run_epoch(g, paths, params, config, rng, bern, lr, epoch)
                record = {
                    "stage": config.stage,
                    "epoch": epoch,
                    "loss": stats.mean_loss,
                    "violations": stats.violations,
                    "wall_time": time.perf_counter() - t0,
                }
                if config.early_stop:
                    metric = _validation_mean_rank(params, g, config)
                    record["valid_mean_rank"] = metric
                    if metric < best - 1e-12:
                        best = metric
                        since_best = 0
                    else:
                        since_best += 1
                emit(record)
                if out is not None and config.checkpoint_every > 0 and (
                    (epoch + 1) % config.checkpoint_every == 0
                ):
                    ckpt_dir = out / "checkpoints"
                    ckpt_dir.mkdir(exist_ok=True)
                    params.save(ckpt_dir / f"epoch_{epoch + 1:05d}.ptrm")
                if config.early_stop and since_best >= config.patience:
                    emit({"event": "early_stop", "epoch": epoch, "best": best})
                    break

        if out is not None:
            params.save(out / "model.ptrm")
            save_config_file(config, out / "config.txt")
        return params, records
    finally:
        if log_fh is not None:
            log_fh.close()
