"""Embedding parameters and scoring for translation-based models.

Entities live in a k-dimensional space, relations in a d-dimensional one,
and every relation owns a d x k projection matrix.  Parameters are stored
float32; all reductions and returned scores are computed in float64.
Lower scores mean more plausible facts throughout.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from pathkge import artifact
from pathkge.kgdata import KnowledgeGraph, _distinct, _firsts
from pathkge.paths import PathTable, expand_spans

# The fields after the magic, in file order, then the arrays after them.
_Header = namedtuple("_Header", "version dim_entity dim_relation n_entities n_relations")
_FIELDS = (
    ("entity_emb", "<f4", lambda h: (h.n_entities, h.dim_entity)),
    ("relation_emb", "<f4", lambda h: (h.n_relations, h.dim_relation)),
    ("proj", "<f4", lambda h: (h.n_relations, h.dim_relation, h.dim_entity)),
)
_FORMAT = artifact.Format("model", b"PTRM", 1, struct.Struct("<IIIII"), _Header, _FIELDS, "train")

# Row norms are left alone when already this close to the target, which
# makes constraint projection an exact fixed point under float32.
_NORM_SLACK = 1e-7


class ModelError(ValueError):
    """Invalid model parameters or persistence format."""


@dataclass
class ModelParams:
    """Dense parameter store shared by every model variant."""

    entity_emb: np.ndarray   # (n_entities, k) float32
    relation_emb: np.ndarray  # (n_relations, d) float32
    proj: np.ndarray          # (n_relations, d, k) float32

    def __post_init__(self) -> None:
        if self.entity_emb.ndim != 2 or self.relation_emb.ndim != 2:
            raise ModelError("embedding matrices must be 2-D")
        if self.proj.ndim != 3:
            raise ModelError("projection tensor must be 3-D")
        n_rel, d, k = self.proj.shape
        if self.relation_emb.shape != (n_rel, d):
            raise ModelError("relation matrix and projection tensor disagree")
        if self.entity_emb.shape[1] != k:
            raise ModelError("entity dimension and projection tensor disagree")
        if any(a.dtype != np.float32 for a in (self.entity_emb, self.relation_emb, self.proj)):
            raise ModelError("parameters must be float32")

    @property
    def n_entities(self) -> int:
        return self.entity_emb.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relation_emb.shape[0]

    @property
    def dim_entity(self) -> int:
        return self.entity_emb.shape[1]

    @property
    def dim_relation(self) -> int:
        return self.relation_emb.shape[1]

    @classmethod
    def random(
        cls,
        n_entities: int,
        n_relations: int,
        dim_entity: int,
        dim_relation: int,
        rng: np.random.Generator,
    ) -> "ModelParams":
        """Uniform init in +-6/sqrt(dim), rows then scaled to unit norm;
        projections start as identity."""
        be = 6.0 / np.sqrt(dim_entity)
        br = 6.0 / np.sqrt(dim_relation)
        ent = rng.uniform(-be, be, size=(n_entities, dim_entity)).astype(np.float32)
        rel = rng.uniform(-br, br, size=(n_relations, dim_relation)).astype(np.float32)
        eye = np.eye(dim_relation, dim_entity, dtype=np.float32)
        proj = np.repeat(eye[None, :, :], n_relations, axis=0)
        params = cls(ent, rel, np.ascontiguousarray(proj))
        _normalize_rows(params.entity_emb, np.arange(n_entities))
        _normalize_rows(params.relation_emb, np.arange(n_relations))
        return params

    def check_graph(self, g: KnowledgeGraph, error: type[Exception]) -> None:
        """Raise ``error`` unless the model has one row per entity and relation of ``g``."""
        if (self.n_entities, self.n_relations) != (g.n_entities, g.n_relations):
            raise error(f"model shape ({self.n_entities} entities, {self.n_relations} "
                        f"relations) does not match the graph ({g.n_entities}, {g.n_relations})")

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.entity_emb.copy(), self.relation_emb.copy(), self.proj.copy()
        )

    # -- persistence ----------------------------------------------------

    def save(self, path: str | Path) -> None:
        artifact.write(path, _FORMAT, (self.dim_entity, self.dim_relation, self.n_entities,
                                       self.n_relations), self)

    @classmethod
    def load(cls, path: str | Path) -> "ModelParams":
        return cls(**artifact.read(path, _FORMAT, ModelError)[1])


# -- scoring --------------------------------------------------------------


def score_transr(params: ModelParams, h: int, r: int, t: int) -> float:
    """Squared L2 residual after projecting entities into r's space."""
    M = params.proj[r].astype(np.float64)
    u = (
        M @ params.entity_emb[h].astype(np.float64)
        + params.relation_emb[r].astype(np.float64)
        - M @ params.entity_emb[t].astype(np.float64)
    )
    return float(u @ u)


def relation_rows(params: ModelParams) -> np.ndarray:
    """Relation embeddings in float64 plus a last row of -0.0, which the -1
    padding of a path selects: adding -0.0 leaves every float unchanged."""
    out = np.empty((params.n_relations + 1, params.dim_relation))
    out[:-1] = params.relation_emb
    out[-1] = -0.0
    return out


def compose_paths(rel: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Path embeddings of the rows of relation ids (-1 padded), each the sum
    of its rows of ``rel`` (from ``relation_rows``) in path order."""
    out = rel[rows[:, 0]]
    for col in rows.T[1:]:
        out += rel[col]
    return out


def _row_dots(q: np.ndarray) -> np.ndarray:
    """``q[i] @ q[i]`` per row, by the same dot-product routine."""
    return np.matmul(q[:, None, :], q[:, :, None])[:, 0, 0]


class PathEvidence(NamedTuple):
    """The stored path entries behind a batch of (h, r, t), in batch order,
    then table order.

    A single-relation path equal to the triple's own relation is left out.
    Entries whose path never co-occurred with r stay, with reliability 0.
    """

    triple: np.ndarray       # int64 batch index of each entry
    path: np.ndarray         # int64 path id
    flow: np.ndarray         # f64 v(p | h, t)
    reliability: np.ndarray  # f64 P(r | p) * v
    z: np.ndarray            # f64 per triple, its reliabilities added in entry order


def path_evidence(table: PathTable, h, r, t) -> PathEvidence:
    """Every stored path of each (h, r, t) with its reliability P(r|p) * v."""
    h, r, t = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=np.int64)) for x in (h, r, t)))
    triple, entry = expand_spans(*table.pair_spans(h, t))
    path = table.entry_path[entry].astype(np.int64)
    rows = table.path_rels[path]
    other = (rows[:, 0] != r[triple]) | (rows[:, 1] >= 0)
    triple, entry, path = triple[other], entry[other], path[other]
    flow = table.entry_v[entry]
    reliability = table.relatedness(r[triple], path) * flow
    z = np.bincount(triple, weights=reliability, minlength=len(r))
    return PathEvidence(triple, path, flow, reliability, z)


def path_gaps(rel: np.ndarray, path_rels: np.ndarray, path, r):
    """The distinct (path id, relation r) pairs of the inputs (their path ids,
    relations and gaps p - r, p the row ``path_rels[path]`` composed from
    ``rel`` with the bits it has alone), and the pair of each input."""
    n_rel = len(rel) - 1
    key = np.asarray(path, dtype=np.int64) * n_rel + np.asarray(r, dtype=np.int64)
    pairs = _distinct(key)
    pair_path, pair_r = np.divmod(pairs, n_rel)
    gap = compose_paths(rel, path_rels[pair_path]) - rel[pair_r]
    return pair_path, pair_r, gap, np.searchsorted(pairs, key)


def path_distances(params: ModelParams, table: PathTable, path, r) -> np.ndarray:
    """|p - r|^2 of each (path id, relation r), once per distinct pair."""
    _, _, gap, at = path_gaps(relation_rows(params), table.path_rels, path, r)
    return _row_dots(gap)[at]


def path_score_terms(params: ModelParams, table: PathTable, h, r, t) -> np.ndarray:
    """Normalized path penalty of each (h, r, t): the reliability-weighted
    mean squared distance between its stored paths and r.

    A triple whose pair stores no path, or whose total reliability is 0,
    gets 0.
    """
    ev = path_evidence(table, h, r, t)
    live = ev.reliability > 0.0
    triple = ev.triple[live]
    r = np.broadcast_to(np.asarray(r, dtype=np.int64), ev.z.shape)
    dist = path_distances(params, table, ev.path[live], r[triple])
    num = np.bincount(triple, weights=ev.reliability[live] * dist, minlength=len(r))
    out = np.zeros(len(r))
    np.divide(num, ev.z, out=out, where=ev.z != 0.0)
    return out


def score_ptransr(params: ModelParams, table: PathTable, h: int, r: int, t: int) -> float:
    """Projected-translation score plus the normalized path penalty."""
    return score_transr(params, h, r, t) + float(path_score_terms(params, table, h, r, t)[0])


# -- constraints -----------------------------------------------------------


def _normalize_rows(mat: np.ndarray, ids: np.ndarray) -> None:
    if len(ids) == 0:
        return
    sub = mat[ids].astype(np.float64)
    norms = np.linalg.norm(sub, axis=1)
    if np.any(norms == 0.0):
        raise ModelError("cannot normalize a zero vector")
    off = np.abs(norms - 1.0) > _NORM_SLACK
    if off.any():
        mat[ids[off]] = (sub[off] / norms[off, None]).astype(np.float32)


def project_constraints(
    params: ModelParams,
    entity_ids: Iterable[int],
    relation_ids: Iterable[int],
    triples: Iterable = (),
) -> int:
    """Restore the norm constraints on the touched rows, in place, and
    return how many projection matrices were scaled down.

    Touched entity and relation vectors are rescaled to unit L2 norm.
    Then each relation of ``triples`` (rows of (h, r, t)) that projects one
    of those triples' entities out of the unit ball gets its whole
    matrix scaled down once, by the largest such norm, so that entity sits
    on the boundary.  Running the projection twice is a no-op.
    """
    _normalize_rows(params.entity_emb, _distinct(np.asarray(entity_ids, dtype=np.int64)))
    _normalize_rows(params.relation_emb, _distinct(np.asarray(relation_ids, dtype=np.int64)))
    tri = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    n = params.n_entities
    rels, ents = np.divmod(
        _distinct(np.concatenate((tri[:, 1] * n + tri[:, 0], tri[:, 1] * n + tri[:, 2]))), n
    )
    # One product per relation: a stacked product gives other bits.
    starts = np.flatnonzero(_firsts(rels))
    sq = np.zeros(len(ents))
    for r, lo, hi in zip(rels[starts].tolist(), starts.tolist(), [*starts[1:].tolist(), len(rels)]):
        P = params.entity_emb[ents[lo:hi]].astype(np.float64) @ params.proj[r].astype(np.float64).T
        sq[lo:hi] = np.einsum("ij,ij->i", P, P)
    f = np.sqrt(np.maximum.reduceat(sq, starts))
    big = f > 1.0 + _NORM_SLACK
    scaled = rels[starts[big]]
    params.proj[scaled] = (params.proj[scaled] / f[big, None, None]).astype(np.float32)
    return len(scaled)
