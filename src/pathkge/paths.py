"""Two-hop relation-path mining with resource-flow reliability scores.

For every ordered entity pair that appears as a train fact, this module
finds the relation sequences (length 1 or 2) connecting the pair and
scores each with the fraction of a unit resource that flows from head to
tail when every node splits its resource evenly among its children along
the next relation.  Globally aggregated flows give, for each path, how
strongly it predicts each direct relation; the product of that
relatedness and the per-pair flow is the path's reliability.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from multiprocessing import get_context
from pathlib import Path
from typing import Iterator

import numpy as np

from pathkge.kgdata import KnowledgeGraph

RelPath = tuple[int, ...]

MAGIC = b"PTBL"
FORMAT_VERSION = 1
DEFAULT_RELIABILITY_FLOOR = 0.01
DEFAULT_PAIR_CAP = 200

# Relation ids are int32, so path id * 2**32 + relation is unique per
# (path, relation) and sorts like the relat_* arrays.
_RELAT_STRIDE = np.int64(1) << 32
_SENTINEL = np.iinfo(np.int64).max


class PathError(ValueError):
    """Invalid path query or path-table configuration."""


def enumerate_paths(
    g: KnowledgeGraph, h: int, t: int, max_hops: int = 2
) -> list[tuple[RelPath, int]]:
    """All distinct relation sequences with a witness walk from h to t.

    Returns (path, witness count) pairs in lexicographic path order; the
    witness count is the number of distinct walks realizing the path
    (for two hops: distinct intermediate entities per edge combination).
    """
    if max_hops not in (1, 2):
        raise PathError("only 1- or 2-hop paths are supported")
    found: dict[RelPath, int] = {}
    rels1, dsts1, _ = g.unique_out_edges(h)
    for r1, e in zip(rels1.tolist(), dsts1.tolist()):
        if e == t:
            key = (r1,)
            found[key] = found.get(key, 0) + 1
    if max_hops == 2:
        for r1, e in zip(rels1.tolist(), dsts1.tolist()):
            rels2, dsts2, _ = g.unique_out_edges(e)
            for r2, d in zip(rels2.tolist(), dsts2.tolist()):
                if d == t:
                    key = (r1, r2)
                    found[key] = found.get(key, 0) + 1
    return sorted(found.items())


def pcra_resource(g: KnowledgeGraph, h: int, p: RelPath, t: int) -> float:
    """Resource reaching t when 1.0 starts at h and flows along path p.

    At each hop every entity holding resource splits it evenly among its
    distinct children under that hop's relation; entities with no such
    children keep nothing (their share of the resource is lost).
    """
    if len(p) == 0:
        raise PathError("path must have at least one relation")
    resource: dict[int, float] = {h: 1.0}
    for r in p:
        nxt: dict[int, float] = {}
        for e in sorted(resource):
            kids = g.children(e, r)
            if len(kids) == 0:
                continue
            share = resource[e] / len(kids)
            for c in kids.tolist():
                nxt[c] = nxt.get(c, 0.0) + share
        resource = nxt
    if t not in resource:
        raise PathError(f"no witness walk from {h} to {t} along {p}")
    return resource[t]


def expand_spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the index ranges [lo, hi): each index and the range it is in."""
    sizes = hi - lo
    owner = np.repeat(np.arange(len(sizes)), sizes)
    index = np.arange(len(owner)) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
    return owner, index


@dataclass
class PathTable:
    """Per-pair reliable paths plus the global path statistics.

    Storage is flat and sorted: pairs by (h, t) key, entries within a pair
    by path id, and the path dictionary lexicographically, so that two
    builds over the same graph serialize byte-for-byte identically.
    """

    n_entities: int
    reliability_floor: float
    cap: int
    path_rels: tuple[RelPath, ...]
    support: np.ndarray          # f64 (n_paths,) total flow admitting each path
    relat_offsets: np.ndarray    # int64 (n_paths + 1,)
    relat_rel: np.ndarray        # int32, relation ids per path, sorted
    relat_val: np.ndarray        # f64, P(relation | path)
    pair_keys: np.ndarray        # int64 sorted, key = h * n_entities + t
    pair_offsets: np.ndarray     # int64 (n_pairs + 1,)
    entry_path: np.ndarray       # int32 path id per stored entry
    entry_v: np.ndarray          # f64 flow v(p | h, t) per stored entry

    @classmethod
    def empty(cls, n_entities: int, reliability_floor: float = DEFAULT_RELIABILITY_FLOOR,
              cap: int = DEFAULT_PAIR_CAP) -> "PathTable":
        return cls(
            n_entities=n_entities,
            reliability_floor=reliability_floor,
            cap=cap,
            path_rels=(),
            support=np.zeros(0, dtype=np.float64),
            relat_offsets=np.zeros(1, dtype=np.int64),
            relat_rel=np.zeros(0, dtype=np.int32),
            relat_val=np.zeros(0, dtype=np.float64),
            pair_keys=np.zeros(0, dtype=np.int64),
            pair_offsets=np.zeros(1, dtype=np.int64),
            entry_path=np.zeros(0, dtype=np.int32),
            entry_v=np.zeros(0, dtype=np.float64),
        )

    # -- queries -------------------------------------------------------

    @property
    def n_paths(self) -> int:
        return len(self.path_rels)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_keys)

    @property
    def n_entries(self) -> int:
        return len(self.entry_path)

    def paths_for(self, h: int, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Stored (path id, flow) entries for the pair (h, t)."""
        lo, hi = self.pair_spans(h, t)
        return self.entry_path[int(lo):int(hi)], self.entry_v[int(lo):int(hi)]

    def pair_spans(self, h, t) -> tuple[np.ndarray, np.ndarray]:
        """Entry ranges [lo, hi) of the pairs (h, t), empty where not stored."""
        keys = self._pair_keys_ended
        key = np.asarray(h, dtype=np.int64) * self.n_entities + np.asarray(t, dtype=np.int64)
        i = np.searchsorted(keys, key)
        return self.pair_offsets[i], self.pair_offsets[i + (keys[i] == key)]

    def relatedness(self, r, path_id) -> np.ndarray:
        """P(direct relation r | path) per (r, path id), 0.0 where the two
        never co-occurred."""
        keys, vals = self._relat_index
        key = np.asarray(path_id, dtype=np.int64) * _RELAT_STRIDE + np.asarray(r, dtype=np.int64)
        i = np.searchsorted(keys, key)
        return np.where(keys[i] == key, vals[i], 0.0)

    # The key arrays the lookups search end in a sentinel past every real
    # key, so the found index is always in range.

    @cached_property
    def _pair_keys_ended(self) -> np.ndarray:
        return np.append(self.pair_keys, _SENTINEL)

    @cached_property
    def _relat_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened ``path id * stride + relation`` keys of relat_val, sorted
        because relations are sorted within each path; the sentinel's value
        is 0."""
        pids = np.repeat(np.arange(self.n_paths, dtype=np.int64), np.diff(self.relat_offsets))
        keys = np.append(pids * _RELAT_STRIDE + self.relat_rel, _SENTINEL)
        return keys, np.append(self.relat_val, 0.0)

    @cached_property
    def path_pad(self) -> np.ndarray:
        """Relation ids of every path, one int64 row each, -1 padded: an
        (n_paths, 2) array, in which -1 marks a 1-hop path."""
        width = max(2, max(map(len, self.path_rels), default=0))
        padded = [rels + (-1,) * (width - len(rels)) for rels in self.path_rels]
        return np.array(padded, dtype=np.int64).reshape(-1, width)

    def pair_items(self) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield (h, t, path ids, flows) per stored pair in key order."""
        for i in range(self.n_pairs):
            key = int(self.pair_keys[i])
            lo, hi = self.pair_offsets[i], self.pair_offsets[i + 1]
            yield key // self.n_entities, key % self.n_entities, \
                self.entry_path[lo:hi], self.entry_v[lo:hi]

    # -- persistence ----------------------------------------------------

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<dII", self.reliability_floor, self.cap, self.n_paths))
            fh.write(struct.pack("<QQQQ", self.n_entities, self.n_pairs,
                                 self.n_entries, len(self.relat_rel)))
            for rels in self.path_rels:
                fh.write(struct.pack("<B", len(rels)))
                fh.write(np.asarray(rels, dtype="<i4").tobytes())
            fh.write(self.support.astype("<f8").tobytes())
            fh.write(self.relat_offsets.astype("<i8").tobytes())
            fh.write(self.relat_rel.astype("<i4").tobytes())
            fh.write(self.relat_val.astype("<f8").tobytes())
            fh.write(self.pair_keys.astype("<i8").tobytes())
            fh.write(self.pair_offsets.astype("<i8").tobytes())
            fh.write(self.entry_path.astype("<i4").tobytes())
            fh.write(self.entry_v.astype("<f8").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "PathTable":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != MAGIC:
                raise PathError(f"{path}: not a path-table file (bad magic {magic!r})")
            (version,) = struct.unpack("<I", fh.read(4))
            if version != FORMAT_VERSION:
                raise PathError(f"{path}: unsupported path-table version {version}")
            floor, cap, n_paths = struct.unpack("<dII", fh.read(16))
            n_entities, n_pairs, n_entries, n_relat = struct.unpack("<QQQQ", fh.read(32))
            path_rels = []
            for _ in range(n_paths):
                raw_len = fh.read(1)
                if len(raw_len) != 1:
                    raise PathError(f"{path}: truncated path-table file")
                (ln,) = struct.unpack("<B", raw_len)
                rels = np.frombuffer(fh.read(4 * ln), dtype="<i4")
                if rels.size != ln:
                    raise PathError(f"{path}: truncated path-table file")
                path_rels.append(tuple(int(x) for x in rels))

            def arr(dtype: str, count: int) -> np.ndarray:
                raw = np.frombuffer(fh.read(np.dtype(dtype).itemsize * count), dtype=dtype)
                if raw.size != count:
                    raise PathError(f"{path}: truncated path-table file")
                return raw.astype(dtype.lstrip("<"))

            support = arr("<f8", n_paths)
            relat_offsets = arr("<i8", n_paths + 1)
            relat_rel = arr("<i4", n_relat)
            relat_val = arr("<f8", n_relat)
            pair_keys = arr("<i8", n_pairs)
            pair_offsets = arr("<i8", n_pairs + 1)
            entry_path = arr("<i4", n_entries)
            entry_v = arr("<f8", n_entries)
            if fh.read(1):
                raise PathError(f"{path}: trailing bytes after path-table payload")
        return cls(
            n_entities=int(n_entities),
            reliability_floor=floor,
            cap=int(cap),
            path_rels=tuple(path_rels),
            support=support,
            relat_offsets=relat_offsets,
            relat_rel=relat_rel,
            relat_val=relat_val,
            pair_keys=pair_keys,
            pair_offsets=pair_offsets,
            entry_path=entry_path,
            entry_v=entry_v,
        )

    def dump_tsv(self, path: str | Path) -> None:
        """Debug dump: h<TAB>t<TAB>r1[,r2]<TAB>v, sorted for diffing."""
        with open(path, "w", encoding="utf-8") as fh:
            for h, t, ids, vs in self.pair_items():
                for pid, v in zip(ids.tolist(), vs.tolist()):
                    rels = ",".join(str(r) for r in self.path_rels[pid])
                    fh.write(f"{h}\t{t}\t{rels}\t{v:.17g}\n")


# -- construction --------------------------------------------------------


def _firsts(key: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in a sorted array."""
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return first


def _distinct(key: np.ndarray) -> np.ndarray:
    """Sorted distinct values; np.unique hashes first, which is slower here."""
    key = np.sort(key)
    return key[_firsts(key)]


def _sum_runs(key: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``val`` over equal keys after a stable sort, so each sum adds in
    input order: (distinct keys, sums, the run of every input row)."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = _firsts(key)
    starts = np.flatnonzero(first)
    run = np.empty(len(key), dtype=np.int64)
    run[order] = np.cumsum(first) - 1
    sums = np.add.reduceat(val[order], starts) if len(starts) else np.zeros(0)
    return key[starts], sums, run


def _collect_head(g: KnowledgeGraph, h: int, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Capped (tail, path code, flow) entries of all train pairs headed at h,
    sorted by tail, then path.

    Path (r1,) has code r1 * (n_rel + 1) and (r1, r2) has code
    r1 * (n_rel + 1) + r2 + 1, so codes sort like the relation tuples.
    """
    n_ent = g.n_entities
    n_rel = g.n_relations
    pair_keys = g.train_pairs()
    lo = np.searchsorted(pair_keys, np.int64(h) * n_ent)
    hi = np.searchsorted(pair_keys, np.int64(h + 1) * n_ent)
    is_tail = np.zeros(n_ent, dtype=bool)
    is_tail[pair_keys[lo:hi] % n_ent] = True

    rels1, dsts1, w1 = g.unique_out_edges(h)
    rels1 = rels1.astype(np.int64)
    one = is_tail[dsts1]

    # Expand every two-hop walk at once, then sum flows per
    # (r1, r2, target) with a stable sort so summation order is fixed.
    uoff, urel, udst, ushare = g.unique_adjacency()
    walk, edge = expand_spans(uoff[dsts1], uoff[dsts1 + 1])
    t2 = udst[edge].astype(np.int64)
    two = is_tail[t2]
    walk, edge, t2 = walk[two], edge[two], t2[two]
    key, flow, _ = _sum_runs(
        (rels1[walk] * n_rel + urel[edge]) * n_ent + t2, w1[walk] * ushare[edge]
    )
    r1, r2 = np.divmod(key // n_ent, n_rel)

    t = np.concatenate((dsts1[one].astype(np.int64), key % n_ent))
    code = np.concatenate((rels1[one] * (n_rel + 1), r1 * (n_rel + 1) + r2 + 1))
    v = np.concatenate((w1[one], flow))
    # Memory guard: keep each pair's ``cap`` strongest flows; break flow
    # ties by path order so the selection is deterministic.
    order = np.lexsort((code, -v, t))
    t, code, v = t[order], code[order], v[order]
    keep = np.arange(len(t)) - np.searchsorted(t, t) < cap
    t, code, v = t[keep], code[keep], v[keep]
    order = np.lexsort((code, t))
    return t[order], code[order], v[order]


_BUILD_GRAPH: KnowledgeGraph | None = None
_BUILD_CAP = 0


def _collect_head_worker(h: int):
    return _collect_head(_BUILD_GRAPH, h, _BUILD_CAP)


def build_path_table(
    g: KnowledgeGraph,
    reliability_floor: float = DEFAULT_RELIABILITY_FLOOR,
    cap: int = DEFAULT_PAIR_CAP,
    workers: int = 1,
    stats: dict | None = None,
) -> PathTable:
    """Mine per-pair paths and reliability statistics over the train facts.

    A path's flow contributes to the statistics of every train relation
    linking its pair, except that a single-relation path never counts as
    evidence for that same relation (regularizing a relation with itself
    is vacuous).  After statistics are fixed, stored entries whose
    reliability stays below ``reliability_floor`` for every linking
    relation are dropped; a floor of 0 disables the filter.
    """
    if not g.augmented:
        raise PathError("path mining requires an inverse-augmented graph")
    if not 0.0 <= reliability_floor < 1.0:
        raise PathError(
            f"reliability_floor must be in [0, 1), got {reliability_floor}"
        )
    if cap < 1:
        raise PathError(f"pair cap must be >= 1, got {cap}")

    n_ent, n_rel = g.n_entities, g.n_relations
    heads = g.train_pairs() // n_ent
    heads = heads[_firsts(heads)]

    if workers > 1:
        global _BUILD_GRAPH, _BUILD_CAP
        _BUILD_GRAPH, _BUILD_CAP = g, cap
        try:
            ctx = get_context("fork")
            with ctx.Pool(workers) as pool:
                per_head = pool.map(_collect_head_worker, heads.tolist(), chunksize=64)
        finally:
            _BUILD_GRAPH, _BUILD_CAP = None, 0
    else:
        per_head = [_collect_head(g, h, cap) for h in heads.tolist()]

    # Mined entries in (h, t, path) order, with their pairs and path ids;
    # path ids count the distinct paths in lexicographic order.
    tails, codes, flows = (
        np.concatenate([part[i] for part in per_head] + [np.zeros(0, dtype)])
        for i, dtype in enumerate((np.int64, np.int64, np.float64))
    )
    key = np.repeat(heads, [len(part[0]) for part in per_head]) * n_ent + tails
    first = _firsts(key)
    pair_of = np.cumsum(first) - 1
    path_codes, pid = np.unique(codes, return_inverse=True)

    # Join every entry with the distinct train relations linking its pair;
    # a single-relation path is not evidence for its own relation.
    train = g.train.astype(np.int64)
    linked = _distinct((train[:, 0] * n_ent + train[:, 2]) * n_rel + train[:, 1])
    row_entry, row = expand_spans(
        np.searchsorted(linked, key * n_rel), np.searchsorted(linked, (key + 1) * n_rel)
    )
    row_rel = linked[row] % n_rel
    evidence = codes[row_entry] != row_rel * (n_rel + 1)
    row_entry, row_rel = row_entry[evidence], row_rel[evidence]

    # P(r | p) = joint flow of (p, r) / total linked flow of p.
    joint_key, joint, row_joint = _sum_runs(pid[row_entry] * n_rel + row_rel, flows[row_entry])
    joint_pid, joint_rel = np.divmod(joint_key, n_rel)
    support = np.bincount(joint_pid, weights=joint, minlength=len(path_codes))
    relat = np.zeros(len(joint))
    np.divide(joint, support[joint_pid], out=relat, where=support[joint_pid] > 0.0)

    # Reliability filter: an entry stays if some linking relation makes it
    # reliable enough.
    best = np.zeros(len(key))
    np.maximum.at(best, row_entry, relat[row_joint] * flows[row_entry])
    keep = best >= reliability_floor

    # Final path dictionary: lexicographic over paths that survived, and
    # pairs left with no entries vanish.
    used, entry_path = np.unique(pid[keep], return_inverse=True)
    kept_per_pair = np.bincount(pair_of[keep], minlength=int(first.sum()))
    nonempty = kept_per_pair > 0
    pair_keys = key[first][nonempty]
    pair_offsets = np.concatenate(([0], np.cumsum(kept_per_pair[nonempty]))).astype(np.int64)

    final_id = np.full(len(path_codes), -1, dtype=np.int64)
    final_id[used] = np.arange(len(used))
    listed = (final_id[joint_pid] >= 0) & (support[joint_pid] > 0.0)
    relat_counts = np.bincount(final_id[joint_pid[listed]], minlength=len(used))
    r1, rest = np.divmod(path_codes[used], n_rel + 1)
    path_rels = tuple(
        (a,) if b == 0 else (a, b - 1) for a, b in zip(r1.tolist(), rest.tolist())
    )

    n_entries = int(keep.sum())
    if stats is not None:
        stats.update(
            n_pairs=int(len(pair_keys)),
            n_paths=int(len(used)),
            n_entries=n_entries,
            n_entries_prefilter=int(len(keep)),
            drop_rate=(1.0 - n_entries / len(keep) if len(keep) else 0.0),
        )

    return PathTable(
        n_entities=n_ent,
        reliability_floor=reliability_floor,
        cap=cap,
        path_rels=path_rels,
        support=support[used],
        relat_offsets=np.concatenate(([0], np.cumsum(relat_counts))).astype(np.int64),
        relat_rel=joint_rel[listed].astype(np.int32),
        relat_val=relat[listed],
        pair_keys=pair_keys,
        pair_offsets=pair_offsets,
        entry_path=entry_path.astype(np.int32),
        entry_v=flows[keep],
    )
