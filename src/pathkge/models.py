"""Embedding parameters and scoring for translation-based models.

Entities live in a k-dimensional space, relations in a d-dimensional one,
and every relation owns a d x k projection matrix.  Parameters are stored
float32; all reductions and returned scores are computed in float64.
Lower scores mean more plausible facts throughout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, NamedTuple

import numpy as np

from pathkge.paths import PathTable, RelPath, expand_spans

Norm = Literal["L1", "L2"]

MAGIC = b"PTRM"
FORMAT_VERSION = 1

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
        normalize: bool = True,
    ) -> "ModelParams":
        """Uniform init in +-6/sqrt(dim); projections start as identity."""
        be = 6.0 / np.sqrt(dim_entity)
        br = 6.0 / np.sqrt(dim_relation)
        ent = rng.uniform(-be, be, size=(n_entities, dim_entity)).astype(np.float32)
        rel = rng.uniform(-br, br, size=(n_relations, dim_relation)).astype(np.float32)
        eye = np.eye(dim_relation, dim_entity, dtype=np.float32)
        proj = np.repeat(eye[None, :, :], n_relations, axis=0)
        params = cls(ent, rel, np.ascontiguousarray(proj))
        if normalize:
            _normalize_rows(params.entity_emb, np.arange(n_entities))
            _normalize_rows(params.relation_emb, np.arange(n_relations))
        return params

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.entity_emb.copy(), self.relation_emb.copy(), self.proj.copy()
        )

    # -- persistence ----------------------------------------------------

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(
                struct.pack(
                    "<IIIII",
                    FORMAT_VERSION,
                    self.dim_entity,
                    self.dim_relation,
                    self.n_entities,
                    self.n_relations,
                )
            )
            fh.write(np.ascontiguousarray(self.entity_emb, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(self.relation_emb, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(self.proj, dtype="<f4").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "ModelParams":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != MAGIC:
                raise ModelError(f"{path}: not a model file (bad magic {magic!r})")
            version, k, d, n_ent, n_rel = struct.unpack("<IIIII", fh.read(20))
            if version != FORMAT_VERSION:
                raise ModelError(f"{path}: unsupported model version {version}")

            def arr(shape: tuple[int, ...]) -> np.ndarray:
                count = int(np.prod(shape))
                raw = np.frombuffer(fh.read(4 * count), dtype="<f4")
                if raw.size != count:
                    raise ModelError(f"{path}: truncated model file")
                return raw.astype(np.float32).reshape(shape)

            ent = arr((n_ent, k))
            rel = arr((n_rel, d))
            proj = arr((n_rel, d, k))
            if fh.read(1):
                raise ModelError(f"{path}: trailing bytes after model payload")
        return cls(ent, rel, proj)


# -- scoring --------------------------------------------------------------


def score_transe(params: ModelParams, h: int, r: int, t: int, norm: Norm = "L2") -> float:
    """Translation residual norm of (h, r, t) in entity space."""
    if params.dim_entity != params.dim_relation:
        raise ModelError("translation scoring needs equal entity/relation dims")
    hv = params.entity_emb[h].astype(np.float64)
    rv = params.relation_emb[r].astype(np.float64)
    tv = params.entity_emb[t].astype(np.float64)
    u = hv + rv - tv
    if norm == "L1":
        return float(np.abs(u).sum())
    if norm == "L2":
        return float(np.sqrt((u * u).sum()))
    raise ModelError(f"unknown norm {norm!r}")


def _transr_parts(params: ModelParams, h: int, r: int, t: int):
    M = params.proj[r].astype(np.float64)
    hv = params.entity_emb[h].astype(np.float64)
    rv = params.relation_emb[r].astype(np.float64)
    tv = params.entity_emb[t].astype(np.float64)
    u = M @ hv + rv - M @ tv
    return M, hv, tv, u


def score_transr(params: ModelParams, h: int, r: int, t: int) -> float:
    """Squared L2 residual after projecting entities into r's space."""
    _, _, _, u = _transr_parts(params, h, r, t)
    return float(u @ u)


def grad_score_transr(
    params: ModelParams, h: int, r: int, t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the projected squared residual w.r.t. h, t, r, M_r."""
    M, hv, tv, u = _transr_parts(params, h, r, t)
    gh = 2.0 * (M.T @ u)
    gt = -gh
    gr = 2.0 * u
    gM = 2.0 * np.outer(u, hv - tv)
    return gh, gt, gr, gM


def transr_energy_and_grads(params: ModelParams, h: int, r: int, t: int):
    """One-pass score plus gradients, shared by the training loop."""
    M, hv, tv, u = _transr_parts(params, h, r, t)
    gh = 2.0 * (M.T @ u)
    gM = 2.0 * np.outer(u, hv - tv)
    return float(u @ u), gh, -gh, 2.0 * u, gM


def transe_energy_and_grads(params: ModelParams, h: int, r: int, t: int, norm: Norm):
    """Translation residual norm and its (sub)gradients w.r.t. h, t, r."""
    hv = params.entity_emb[h].astype(np.float64)
    rv = params.relation_emb[r].astype(np.float64)
    tv = params.entity_emb[t].astype(np.float64)
    u = hv + rv - tv
    if norm == "L1":
        e = float(np.abs(u).sum())
        g = np.sign(u)
    elif norm == "L2":
        e = float(np.sqrt((u * u).sum()))
        g = u / e if e > 1e-12 else np.zeros_like(u)
    else:
        raise ModelError(f"unknown norm {norm!r}")
    return e, g, -g, g


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


def compose_path(params: ModelParams, p: RelPath) -> np.ndarray:
    """Path embedding: the sum of its relation embeddings (float64)."""
    if len(p) == 0:
        raise ModelError("path must contain at least one relation")
    return compose_paths(relation_rows(params), np.asarray([p]))[0]


def path_energy(params: ModelParams, p: RelPath, r: int, reliability: float) -> float:
    """Reliability-weighted squared distance between path and relation."""
    if reliability < 0:
        raise ModelError(f"reliability must be >= 0, got {reliability}")
    q = compose_path(params, p) - params.relation_emb[r].astype(np.float64)
    return float(reliability * (q @ q))


def gap_energy_and_grads(q: np.ndarray, reliability: float):
    """Energy ``reliability * |q|^2`` of a path-minus-relation gap q, plus
    its gradients w.r.t. the path sum and the relation vector."""
    gp = 2.0 * reliability * q
    return float(reliability * (q @ q)), gp, -gp


def path_energy_and_grads(params: ModelParams, p: RelPath, r: int, reliability: float):
    """Energy plus gradients w.r.t. the path sum and the relation vector."""
    q = compose_path(params, p) - params.relation_emb[r].astype(np.float64)
    return gap_energy_and_grads(q, reliability)


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
    rows = table.path_pad[path]
    other = (rows[:, 0] != r[triple]) | (rows[:, 1] >= 0)
    triple, entry, path = triple[other], entry[other], path[other]
    flow = table.entry_v[entry]
    reliability = table.relatedness(r[triple], path) * flow
    z = np.bincount(triple, weights=reliability, minlength=len(r))
    return PathEvidence(triple, path, flow, reliability, z)


def path_score_terms(params: ModelParams, table: PathTable, h, r, t) -> np.ndarray:
    """Normalized path penalty of each (h, r, t): the reliability-weighted
    mean squared distance between its stored paths and r.

    A triple whose pair stores no path, or whose total reliability is 0,
    gets 0.
    """
    ev = path_evidence(table, h, r, t)
    live = ev.reliability > 0.0
    triple = ev.triple[live]
    rel = relation_rows(params)
    r = np.broadcast_to(np.asarray(r, dtype=np.int64), ev.z.shape)
    q = compose_paths(rel, table.path_pad[ev.path[live]]) - rel[r[triple]]
    num = np.bincount(triple, weights=ev.reliability[live] * _row_dots(q), minlength=len(r))
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
    triples: Iterable[tuple[int, int, int]] = (),
) -> None:
    """Restore the norm constraints on the touched rows, in place.

    Touched entity and relation vectors are rescaled to unit L2 norm.
    Then, for each touched triple, if a projected entity leaves the unit
    ball, that relation's whole projection matrix is scaled down until
    the larger of the two projections sits on the boundary.  Running the
    projection twice is a no-op.
    """
    ents = np.asarray(sorted(set(int(i) for i in entity_ids)), dtype=np.int64)
    rels = np.asarray(sorted(set(int(i) for i in relation_ids)), dtype=np.int64)
    _normalize_rows(params.entity_emb, ents)
    _normalize_rows(params.relation_emb, rels)
    seen: set[tuple[int, int, int]] = set()
    for h, r, t in triples:
        key = (int(h), int(r), int(t))
        if key in seen:
            continue
        seen.add(key)
        M = params.proj[r].astype(np.float64)
        nh = np.linalg.norm(M @ params.entity_emb[h].astype(np.float64))
        nt = np.linalg.norm(M @ params.entity_emb[t].astype(np.float64))
        f = max(nh, nt)
        if f > 1.0 + _NORM_SLACK:
            params.proj[r] = (M / f).astype(np.float32)
