"""Dataset ingestion, vocabulary construction, and graph indexing.

Triple files are UTF-8 TSV, one fact per line.  All three splits share a
single vocabulary so downstream stages never meet an unknown id.  Before
any path mining or training, the train split is mirrored with synthetic
inverse relations; valid/test keep their original orientation.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Literal, NamedTuple, Sequence

import numpy as np

ColumnOrder = Literal["HRT", "HTR"]

FREQUENCY_BUCKETS: tuple[str, ...] = ("1-3", "4-15", "16-50", "51-300", ">300")
CATEGORY_LABELS: tuple[str, ...] = ("1-to-1", "1-to-N", "N-to-1", "N-to-N")
DEFAULT_CATEGORY_CUTOFF = 1.5
INVERSE_SUFFIX = "^-1"


class DatasetError(ValueError):
    """Malformed input data or an invalid graph operation."""


class Triple(NamedTuple):
    """One (head, relation, tail) fact in dense-id form."""

    h: int
    r: int
    t: int


class Vocab(NamedTuple):
    """Bijection between surface names and dense ids, shared by all splits."""

    entity_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    entity_index: dict[str, int]
    relation_index: dict[str, int]

    @classmethod
    def build(cls, entities: Iterable[str], relations: Iterable[str]) -> "Vocab":
        ents = tuple(entities)
        rels = tuple(relations)
        eidx = {name: i for i, name in enumerate(ents)}
        ridx = {name: i for i, name in enumerate(rels)}
        if len(eidx) != len(ents):
            raise DatasetError("duplicate entity name in vocabulary")
        if len(ridx) != len(rels):
            raise DatasetError("duplicate relation name in vocabulary")
        return cls(ents, rels, eidx, ridx)

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)


def _as_triple_array(triples: Sequence, n_entities: int, n_relations: int) -> np.ndarray:
    arr = np.asarray(triples, dtype=np.int32)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise DatasetError("triples must be (n, 3) shaped")
    if arr[:, [0, 2]].min() < 0 or arr[:, [0, 2]].max() >= n_entities:
        raise DatasetError("entity id out of range")
    if arr[:, 1].min() < 0 or arr[:, 1].max() >= n_relations:
        raise DatasetError("relation id out of range")
    return arr


class KnowledgeGraph:
    """Immutable triple store with adjacency and membership indexes.

    ``train`` holds the training fact list exactly as ingested (duplicates
    retained); after :func:`augment_inverse` it is the doubled list with the
    mirrored facts appended after the originals.
    """

    def __init__(
        self,
        vocab: Vocab,
        train: np.ndarray,
        valid: np.ndarray,
        test: np.ndarray,
        n_relations_orig: int,
        augmented: bool = False,
    ) -> None:
        self.vocab = vocab
        self.train = train
        self.valid = valid
        self.test = test
        self.n_relations_orig = n_relations_orig
        self.augmented = augmented
        self._pair_keys = None
        self._build_indexes()

    # -- construction -------------------------------------------------

    @classmethod
    def from_triples(
        cls,
        train: Sequence,
        valid: Sequence = (),
        test: Sequence = (),
        n_entities: int | None = None,
        n_relations: int | None = None,
        entity_names: Sequence[str] | None = None,
        relation_names: Sequence[str] | None = None,
    ) -> "KnowledgeGraph":
        """Build an un-augmented graph directly from id triples."""
        rows = [tuple(t) for split in (train, valid, test) for t in split]
        if n_entities is None:
            n_entities = 1 + max((max(h, t) for h, _, t in rows), default=-1)
        if n_relations is None:
            n_relations = 1 + max((r for _, r, _ in rows), default=-1)
        if entity_names is None:
            entity_names = [f"e{i}" for i in range(n_entities)]
        if relation_names is None:
            relation_names = [f"r{i}" for i in range(n_relations)]
        vocab = Vocab.build(entity_names, relation_names)
        return cls(
            vocab,
            _as_triple_array(train, n_entities, n_relations),
            _as_triple_array(valid, n_entities, n_relations),
            _as_triple_array(test, n_entities, n_relations),
            n_relations_orig=n_relations,
            augmented=False,
        )

    # -- indexes ------------------------------------------------------

    def _build_indexes(self) -> None:
        n_ent = self.vocab.n_entities
        n_rel = self.vocab.n_relations
        train = self.train

        # Multiset adjacency: exactly one slot per train triple.
        order = np.lexsort((train[:, 2], train[:, 1], train[:, 0]))
        edges = train[order]
        counts = np.bincount(edges[:, 0], minlength=n_ent)
        self._adj_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self._adj_rel = np.ascontiguousarray(edges[:, 1])
        self._adj_dst = np.ascontiguousarray(edges[:, 2])

        # Structural adjacency: duplicate edges collapse to one slot, and each
        # unique edge carries the resource share 1/deg_r(src) used by the
        # path-mining stage.
        if len(edges):
            first = np.ones(len(edges), dtype=bool)
            first[1:] = np.any(edges[1:] != edges[:-1], axis=1)
            uedges = edges[first]
        else:
            uedges = edges.reshape(0, 3)
        ucounts = np.bincount(uedges[:, 0], minlength=n_ent) if len(uedges) else np.zeros(n_ent, dtype=np.int64)
        self._uadj_offsets = np.concatenate(([0], np.cumsum(ucounts))).astype(np.int64)
        self._uadj_rel = np.ascontiguousarray(uedges[:, 1])
        self._uadj_dst = np.ascontiguousarray(uedges[:, 2])
        if len(uedges):
            group = np.ones(len(uedges), dtype=bool)
            group[1:] = np.any(uedges[1:, :2] != uedges[:-1, :2], axis=1)
            starts = np.flatnonzero(group)
            sizes = np.diff(np.concatenate((starts, [len(uedges)])))
            deg = np.repeat(sizes, sizes)
            self._uadj_share = 1.0 / deg.astype(np.float64)
        else:
            self._uadj_share = np.zeros(0, dtype=np.float64)

        # Train membership in the current (possibly augmented) relation space.
        train_keys = (
            train[:, 0].astype(np.int64) * n_rel + train[:, 1]
        ) * n_ent + train[:, 2]
        self._train_keys = set(train_keys.tolist())

        # Known facts over train + valid + test.  Once the graph is
        # augmented, the mirrored orientation of every split is included so
        # inverse-relation queries resolve too.
        parts = [train, self.valid, self.test]
        if self.augmented:
            for split in (self.valid, self.test):
                if len(split):
                    mirrored = np.stack(
                        [split[:, 2], split[:, 1] + self.n_relations_orig, split[:, 0]],
                        axis=1,
                    )
                    parts.append(mirrored.astype(np.int32))
        facts = np.concatenate([p for p in parts if len(p)], axis=0) if any(len(p) for p in parts) else train.reshape(0, 3)
        if len(facts):
            facts = np.unique(facts, axis=0)
            keys = facts[:, 0].astype(np.int64) * n_rel + facts[:, 1]
            order = np.lexsort((facts[:, 2], keys))
            keys = keys[order]
            tails = facts[order, 2]
            group = np.ones(len(keys), dtype=bool)
            group[1:] = keys[1:] != keys[:-1]
            starts = np.flatnonzero(group)
            self._known_keys = keys[starts]
            self._known_offsets = np.concatenate((starts, [len(keys)])).astype(np.int64)
            self._known_tails_flat = np.ascontiguousarray(tails)
        else:
            self._known_keys = np.zeros(0, dtype=np.int64)
            self._known_offsets = np.zeros(1, dtype=np.int64)
            self._known_tails_flat = np.zeros(0, dtype=np.int32)

    # -- basic properties ---------------------------------------------

    @property
    def n_entities(self) -> int:
        return self.vocab.n_entities

    @property
    def n_relations(self) -> int:
        """Relation count in the current space (doubled once augmented)."""
        return self.vocab.n_relations

    @property
    def original_train(self) -> np.ndarray:
        """The train facts as ingested, without the mirrored half."""
        if self.augmented:
            return self.train[: len(self.train) // 2]
        return self.train

    def inverse_of(self, r: int) -> int:
        """Involutive map between a relation and its synthetic inverse."""
        if not self.augmented:
            raise DatasetError("graph is not augmented; no inverse relations exist")
        if not 0 <= r < self.n_relations:
            raise DatasetError(f"relation id {r} out of range")
        if r < self.n_relations_orig:
            return r + self.n_relations_orig
        return r - self.n_relations_orig

    def counts(self) -> dict[str, int]:
        return {
            "entities": self.n_entities,
            "relations": self.n_relations_orig,
            "train": len(self.original_train),
            "train_augmented": len(self.train) if self.augmented else 0,
            "valid": len(self.valid),
            "test": len(self.test),
        }

    # -- adjacency ----------------------------------------------------

    def out_edges(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """All outgoing train edges of ``e`` (duplicates retained)."""
        lo, hi = self._adj_offsets[e], self._adj_offsets[e + 1]
        return self._adj_rel[lo:hi], self._adj_dst[lo:hi]

    def unique_out_edges(self, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Deduplicated outgoing edges of ``e`` with per-edge resource shares."""
        lo, hi = self._uadj_offsets[e], self._uadj_offsets[e + 1]
        return self._uadj_rel[lo:hi], self._uadj_dst[lo:hi], self._uadj_share[lo:hi]

    def unique_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Raw structural-adjacency arrays: (offsets, rels, dsts, shares)."""
        return self._uadj_offsets, self._uadj_rel, self._uadj_dst, self._uadj_share

    def children(self, e: int, r: int) -> np.ndarray:
        """Distinct entities reachable from ``e`` by one ``r`` edge."""
        lo, hi = self._uadj_offsets[e], self._uadj_offsets[e + 1]
        rels = self._uadj_rel[lo:hi]
        a = lo + np.searchsorted(rels, r, side="left")
        b = lo + np.searchsorted(rels, r, side="right")
        return self._uadj_dst[a:b]

    def out_degree(self, e: int, r: int) -> int:
        return len(self.children(e, r))

    # -- membership ---------------------------------------------------

    def in_train(self, h: int, r: int, t: int) -> bool:
        key = (h * self.n_relations + r) * self.n_entities + t
        return key in self._train_keys

    def known_tails(self, h: int, r: int) -> np.ndarray:
        """Sorted tails t with (h, r, t) in train, valid, or test."""
        key = np.int64(h) * self.n_relations + r
        i = np.searchsorted(self._known_keys, key)
        if i == len(self._known_keys) or self._known_keys[i] != key:
            return np.zeros(0, dtype=np.int32)
        lo, hi = self._known_offsets[i], self._known_offsets[i + 1]
        return self._known_tails_flat[lo:hi]

    def known_heads(self, r: int, t: int) -> np.ndarray:
        """Sorted heads h with (h, r, t) known; requires an augmented graph."""
        return self.known_tails(t, self.inverse_of(r))

    def is_known(self, h: int, r: int, t: int) -> bool:
        tails = self.known_tails(h, r)
        i = np.searchsorted(tails, t)
        return bool(i < len(tails) and tails[i] == t)

    # -- train-pair index (built on demand for path mining) ------------

    def train_pairs(self) -> np.ndarray:
        """Sorted unique (h, t) keys (h * n_entities + t) over train facts."""
        if self._pair_keys is None:
            # A sort and one pass: np.unique hashes first, which is slower here.
            keys = np.sort(self.train[:, 0].astype(np.int64) * self.n_entities + self.train[:, 2])
            first = np.ones(len(keys), dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            self._pair_keys = keys[first]
        return self._pair_keys


# -- file ingestion -----------------------------------------------------


def _read_rows(path: Path, column_order: ColumnOrder) -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            parts = line.split("\t")
            if len(parts) != 3:
                raise DatasetError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            if column_order == "HRT":
                rows.append((parts[0], parts[1], parts[2]))
            else:  # HTR
                rows.append((parts[0], parts[2], parts[1]))
    if not rows:
        raise DatasetError(f"{path}: empty triple file")
    return rows


def load_dataset(
    train_path: str | Path,
    valid_path: str | Path,
    test_path: str | Path,
    column_order: ColumnOrder = "HRT",
) -> KnowledgeGraph:
    """Load the three splits and build the shared vocabulary.

    Names enter the vocabulary in order of first appearance across
    train, then valid, then test, which makes ids reproducible.
    """
    if column_order not in ("HRT", "HTR"):
        raise DatasetError(f"unknown column order {column_order!r}")
    raw = {
        "train": _read_rows(Path(train_path), column_order),
        "valid": _read_rows(Path(valid_path), column_order),
        "test": _read_rows(Path(test_path), column_order),
    }
    entity_index: dict[str, int] = {}
    relation_index: dict[str, int] = {}
    for split in ("train", "valid", "test"):
        for h, r, t in raw[split]:
            for name in (h, t):
                if name not in entity_index:
                    entity_index[name] = len(entity_index)
            if r not in relation_index:
                relation_index[r] = len(relation_index)
    vocab = Vocab.build(entity_index.keys(), relation_index.keys())

    def encode(rows: list[tuple[str, str, str]]) -> np.ndarray:
        out = np.empty((len(rows), 3), dtype=np.int32)
        for i, (h, r, t) in enumerate(rows):
            out[i, 0] = entity_index[h]
            out[i, 1] = relation_index[r]
            out[i, 2] = entity_index[t]
        return out

    return KnowledgeGraph(
        vocab,
        encode(raw["train"]),
        encode(raw["valid"]),
        encode(raw["test"]),
        n_relations_orig=vocab.n_relations,
        augmented=False,
    )


def augment_inverse(g: KnowledgeGraph) -> KnowledgeGraph:
    """Mirror every train fact (h, r, t) as (t, r + |R|, h).

    The relation vocabulary doubles; inverse names get the ``^-1`` suffix.
    Valid/test stay in original orientation.  Augmenting twice is an error.
    """
    if g.augmented:
        raise DatasetError("graph is already augmented")
    n_rel = g.n_relations_orig
    inverse_names = tuple(name + INVERSE_SUFFIX for name in g.vocab.relation_names)
    vocab = Vocab.build(g.vocab.entity_names, g.vocab.relation_names + inverse_names)
    mirrored = np.stack(
        [g.train[:, 2], g.train[:, 1] + n_rel, g.train[:, 0]], axis=1
    ).astype(np.int32)
    train = np.concatenate([g.train, mirrored], axis=0)
    return KnowledgeGraph(vocab, train, g.valid, g.test, n_rel, augmented=True)


# -- relation statistics -------------------------------------------------


class RelationCategory(NamedTuple):
    """Mapping-cardinality class of one relation with its hpt/tph stats."""

    category: str
    hpt: float
    tph: float


def classify_relations(
    g: KnowledgeGraph, cutoff: float = DEFAULT_CATEGORY_CUTOFF
) -> dict[int, RelationCategory | None]:
    """Classify every original relation as 1-to-1, 1-to-N, N-to-1, or N-to-N.

    hpt is the mean number of heads per (relation, tail) pair and tph the
    mean number of tails per (relation, head) pair, both over the original
    (non-augmented) train facts.  Relations absent from train cannot be
    classified and map to ``None``.
    """
    if cutoff <= 0:
        raise DatasetError("cutoff must be positive")
    train = g.original_train
    out: dict[int, RelationCategory | None] = {}
    order = np.argsort(train[:, 1], kind="stable")
    rels = train[order, 1]
    heads = train[order, 0]
    tails = train[order, 2]
    bounds = np.searchsorted(rels, np.arange(g.n_relations_orig + 1))
    for r in range(g.n_relations_orig):
        lo, hi = bounds[r], bounds[r + 1]
        if lo == hi:
            out[r] = None
            continue
        n = hi - lo
        n_heads = len(np.unique(heads[lo:hi]))
        n_tails = len(np.unique(tails[lo:hi]))
        hpt = n / n_tails
        tph = n / n_heads
        if hpt < cutoff and tph < cutoff:
            category = "1-to-1"
        elif hpt < cutoff <= tph:
            category = "1-to-N"
        elif tph < cutoff <= hpt:
            category = "N-to-1"
        else:
            category = "N-to-N"
        out[r] = RelationCategory(category, hpt, tph)
    return out


def frequency_bucket(count: int) -> str:
    """Train-frequency bucket of a relation; ``count`` must be >= 1."""
    if count < 1:
        raise DatasetError(f"relation frequency must be >= 1, got {count}")
    if count <= 3:
        return "1-3"
    if count <= 15:
        return "4-15"
    if count <= 50:
        return "16-50"
    if count <= 300:
        return "51-300"
    return ">300"


def relation_train_counts(g: KnowledgeGraph) -> np.ndarray:
    """Occurrences of each original relation in the original train facts."""
    train = g.original_train
    return np.bincount(train[:, 1], minlength=g.n_relations_orig)


def write_vocab_dumps(g: KnowledgeGraph, out_dir: str | Path) -> None:
    """Write entity2id.tsv and relation2id.tsv (name<TAB>id per line)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "entity2id.tsv", "w", encoding="utf-8") as fh:
        for i, name in enumerate(g.vocab.entity_names):
            fh.write(f"{name}\t{i}\n")
    with open(out / "relation2id.tsv", "w", encoding="utf-8") as fh:
        for i, name in enumerate(g.vocab.relation_names):
            fh.write(f"{name}\t{i}\n")
