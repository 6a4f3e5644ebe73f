"""Dataset ingestion, vocabulary construction, and graph indexing.

Triple files are UTF-8 TSV, one fact per line.  All three splits share a
single vocabulary so downstream stages never meet an unknown id.  Before
any path mining or training, the train split is mirrored with synthetic
inverse relations; valid/test keep their original orientation.  A graph
builds each of its lookup indexes (adjacency, train facts, train pairs,
known facts) the first time a stage reads it, never on load or augment.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Literal, NamedTuple

import numpy as np

ColumnOrder = Literal["HRT", "HTR"]

FREQUENCY_BUCKETS: tuple[str, ...] = ("1-3", "4-15", "16-50", "51-300", ">300")
_BUCKET_EDGES = (3, 15, 50, 300)  # the largest train count of each bucket but the last
CATEGORY_LABELS: tuple[str, ...] = ("1-to-1", "1-to-N", "N-to-1", "N-to-N")
CATEGORY_CUTOFF = 1.5  # TransE's protocol (Bordes et al., 2013): see relation_breakdown
INVERSE_SUFFIX = "^-1"


class DatasetError(ValueError):
    """Malformed input data or an invalid graph operation."""


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


def _firsts(key: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a sorted array."""
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return first


def _distinct(key: np.ndarray) -> np.ndarray:
    """Sorted distinct values; np.unique hashes first, which is slower here."""
    key = np.sort(key)
    return key[_firsts(key)]


def _fact_keys(triples: np.ndarray, n_relations: int, n_entities: int) -> np.ndarray:
    """(h * n_relations + r) * n_entities + t of each fact: sorts like (h, r, t)."""
    heads = triples[:, 0].astype(np.int64)
    return (heads * n_relations + triples[:, 1]) * n_entities + triples[:, 2]


class KnowledgeGraph:
    """Immutable triple store with adjacency and membership indexes.

    ``train`` holds the training fact list exactly as ingested (duplicates
    retained); after :func:`augment_inverse` it is the doubled list with the
    mirrored facts appended after the originals.

    Each index is built the first time it is read, so a verb pays only for
    the ones it uses: path mining reads the adjacency and the train pairs,
    negative sampling the sorted train keys, filtered ranking the known
    facts.
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
        self.n_entities = vocab.n_entities
        self.n_relations = vocab.n_relations  # doubled once augmented
        self.train = train
        self.valid = valid
        self.test = test
        self.n_relations_orig = n_relations_orig
        self.augmented = augmented

    # -- indexes, each built on first use ------------------------------

    @cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Structural adjacency (offsets, rels, dsts, shares): duplicate edges
        collapse to one slot, sorted by (src, rel, dst), and each unique edge
        carries the resource share 1/deg_r(src) used by the path-mining stage."""
        n_rel, n_ent = self.n_relations, self.n_entities
        src_rel, dst = np.divmod(_distinct(_fact_keys(self.train, n_rel, n_ent)), n_ent)
        src, rel = np.divmod(src_rel, n_rel)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n_ent))))
        starts = np.flatnonzero(_firsts(src_rel))
        sizes = np.diff(np.append(starts, len(src_rel)))
        shares = 1.0 / np.repeat(sizes, sizes).astype(np.float64)
        return offsets.astype(np.int64), rel.astype(np.int32), dst.astype(np.int32), shares

    @cached_property
    def _sorted_train_keys(self) -> np.ndarray:
        """The sorted distinct key (h * n_relations + r) * n_entities + t of
        every train fact, in the current (possibly augmented) relation
        space: negative sampling tests whole batches against it."""
        return _distinct(_fact_keys(self.train, self.n_relations, self.n_entities))

    @cached_property
    def _known(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Known facts over train + valid + test as (h * n_relations + r keys,
        offsets, tails): each key's sorted tails are tails[offsets[i]:offsets[i + 1]].
        Once the graph is augmented, the mirrored orientation of every split
        is included so inverse-relation queries resolve too."""
        n_rel, n_ent = self.n_relations, self.n_entities
        parts = [self.train, self.valid, self.test]
        if self.augmented:
            for split in (self.valid, self.test):
                parts.append(np.stack(
                    [split[:, 2], split[:, 1] + self.n_relations_orig, split[:, 0]], axis=1
                ))
        keys, tails = np.divmod(
            _distinct(np.concatenate([_fact_keys(p, n_rel, n_ent) for p in parts])), n_ent
        )
        starts = np.flatnonzero(_firsts(keys))
        offsets = np.concatenate((starts, [len(keys)])).astype(np.int64)
        return keys[starts], offsets, tails.astype(np.int32)

    @cached_property
    def _train_pairs(self) -> np.ndarray:
        return _distinct(self.train[:, 0].astype(np.int64) * self.n_entities + self.train[:, 2])

    # -- basic properties ---------------------------------------------

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

    def unique_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Raw structural-adjacency arrays: (offsets, rels, dsts, shares)."""
        return self._adjacency

    # -- membership ---------------------------------------------------

    def train_mask(self, triples: np.ndarray) -> np.ndarray:
        """Whether each (h, r, t) row is a train fact, by one sorted search."""
        keys = self._sorted_train_keys
        if not len(keys):
            return np.zeros(len(triples), dtype=bool)
        key = _fact_keys(triples, self.n_relations, self.n_entities)
        return keys[np.minimum(np.searchsorted(keys, key), len(keys) - 1)] == key

    def known_spans(self, h, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tails, lo, hi) for arrays of h and r: the sorted tails t with
        (h[i], r[i], t) in train, valid, or test are tails[lo[i]:hi[i]]."""
        keys, offsets, tails = self._known
        key = np.asarray(h, dtype=np.int64) * self.n_relations + r
        i = np.searchsorted(keys, key)
        return tails, offsets[i], offsets[i + (i < np.searchsorted(keys, key, side="right"))]

    def known_tails(self, h: int, r: int) -> np.ndarray:
        """Sorted tails t with (h, r, t) in train, valid, or test."""
        tails, lo, hi = self.known_spans(h, r)
        return tails[lo:hi]

    def known_heads(self, r: int, t: int) -> np.ndarray:
        """Sorted heads h with (h, r, t) known; requires an augmented graph."""
        return self.known_tails(t, self.inverse_of(r))

    def train_pairs(self) -> np.ndarray:
        """Sorted unique (h, t) keys (h * n_entities + t) over train facts."""
        return self._train_pairs


# -- file ingestion -----------------------------------------------------


def _read_columns(
    path: Path, column_order: ColumnOrder
) -> tuple[list[str], list[str], list[str]]:
    """Head, relation and tail names of a triple file, one fact per line."""
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    # Lines end at \n, \r or \r\n, as when iterating a file opened with
    # newline=""; str.splitlines would also split at \v, \x85, \u2028 ...
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()  # after the last line's end
    if not lines:
        raise DatasetError(f"{path}: empty triple file")
    tabs = list(map(str.count, lines, repeat("\t")))
    if tabs.count(2) != len(lines):
        lineno = next(i for i, n in enumerate(tabs) if n != 2)
        raise DatasetError(
            f"{path}:{lineno + 1}: expected 3 tab-separated fields, got {tabs[lineno] + 1}"
        )
    fields = "\t".join(lines).split("\t")
    if column_order == "HRT":
        return fields[0::3], fields[1::3], fields[2::3]
    return fields[0::3], fields[2::3], fields[1::3]  # HTR


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
    splits = [
        _read_columns(Path(path), column_order) for path in (train_path, valid_path, test_path)
    ]

    vocab = Vocab.build(  # head before tail, fact by fact
        dict.fromkeys(chain.from_iterable(chain.from_iterable(zip(h, t)) for h, _, t in splits)),
        dict.fromkeys(chain.from_iterable(r for _, r, _ in splits)),
    )

    def encode(heads: list[str], rels: list[str], tails: list[str]) -> np.ndarray:
        out = np.empty((len(heads), 3), dtype=np.int32)
        out[:, 0] = list(map(vocab.entity_index.__getitem__, heads))
        out[:, 1] = list(map(vocab.relation_index.__getitem__, rels))
        out[:, 2] = list(map(vocab.entity_index.__getitem__, tails))
        return out

    return KnowledgeGraph(
        vocab, *(encode(*split) for split in splits), n_relations_orig=vocab.n_relations,
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


def relation_cardinality(
    triples: np.ndarray, n_relations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per relation id: its fact count, tph (facts per distinct head) and
    hpt (facts per distinct tail); tph and hpt are 0 for a relation with no
    facts."""
    facts = np.bincount(triples[:, 1], minlength=n_relations)
    rel = triples[:, 1].astype(np.int64) << 32  # entity ids are int32

    def per_distinct(ent: np.ndarray) -> np.ndarray:
        distinct = np.bincount(_distinct(rel + ent) >> 32, minlength=n_relations)
        out = np.zeros(n_relations)
        np.divide(facts, distinct, out=out, where=distinct > 0)
        return out

    return facts, per_distinct(triples[:, 0]), per_distinct(triples[:, 2])


def relation_breakdown(g: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per original relation, the index of its category in ``CATEGORY_LABELS``
    and of its train-frequency bucket in ``FREQUENCY_BUCKETS``, both -1 for
    a relation with no train fact.

    hpt is the mean number of heads per (relation, tail) pair and tph the
    mean number of tails per (relation, head) pair, both over the original
    (non-augmented) train facts; a side is "N" when its mean reaches
    ``CATEGORY_CUTOFF``.
    """
    facts, tph, hpt = relation_cardinality(g.original_train, g.n_relations_orig)
    category = 2 * (hpt >= CATEGORY_CUTOFF) + (tph >= CATEGORY_CUTOFF)
    bucket = np.searchsorted(_BUCKET_EDGES, facts)
    category[facts == 0] = bucket[facts == 0] = -1
    return category, bucket


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
