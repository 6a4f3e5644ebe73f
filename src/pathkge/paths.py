"""Two-hop relation-path mining with resource-flow reliability scores.

For every ordered entity pair that appears as a train fact, this module
finds the relation sequences (length 1 or 2) connecting the pair and
scores each with the fraction of a unit resource that flows from head to
tail when every node splits its resource evenly among its children along
the next relation.  Globally aggregated flows give, for each path, how
strongly it predicts each direct relation; the product of that
relatedness and the per-pair flow is the path's reliability.

Mining keeps of each chunk of heads only its entries; the statistics are
running sums that ``np.bincount`` adds in input order, as one pass would.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from pathkge import artifact
from pathkge.kgdata import KnowledgeGraph, _firsts

DEFAULT_RELIABILITY_FLOOR = 0.01
DEFAULT_PAIR_CAP = 200

# The fields after the magic, in file order.
_Header = namedtuple(
    "_Header", "version floor cap n_paths n_entities n_pairs n_entries n_relat n_relations"
)
_HEADER = struct.Struct("<IdIIQQQQI")
# The header stores the pair cap as a uint32.
MAX_PAIR_CAP = 2**32 - 1

# The arrays after the header, in file order: name, little-endian dtype
# and shape, the shape's counts read from the header.
_FIELDS = (
    ("path_rels", "<i4", lambda h: (h.n_paths, 2)),
    ("relat_offsets", "<i8", lambda h: (h.n_paths + 1,)),
    ("relat_rel", "<i4", lambda h: (h.n_relat,)),
    ("relat_val", "<f8", lambda h: (h.n_relat,)),
    ("pair_keys", "<i8", lambda h: (h.n_pairs,)),
    ("pair_offsets", "<i8", lambda h: (h.n_pairs + 1,)),
    ("entry_path", "<i4", lambda h: (h.n_entries,)),
    ("entry_v", "<f8", lambda h: (h.n_entries,)),
)
_FORMAT = artifact.Format("path-table", b"PTBL", 3, _HEADER, _Header, _FIELDS, "extract-paths")

# Relation ids are int32, so path id * 2**32 + relation is unique per
# (path, relation) and sorts like the relat_* arrays.
_RELAT_STRIDE = np.int64(1) << 32
_SENTINEL = np.iinfo(np.int64).max


class PathError(ValueError):
    """Invalid path query or path-table configuration."""


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
    n_relations: int             # relation ids of the graph mined, inverses included
    reliability_floor: float
    cap: int
    path_rels: np.ndarray        # int32 (n_paths, 2) relation ids, -1 in column 1 of a 1-hop path
    relat_offsets: np.ndarray    # int64 (n_paths + 1,)
    relat_rel: np.ndarray        # int32, relation ids per path, sorted
    relat_val: np.ndarray        # f64, P(relation | path)
    pair_keys: np.ndarray        # int64 sorted, key = h * n_entities + t
    pair_offsets: np.ndarray     # int64 (n_pairs + 1,)
    entry_path: np.ndarray       # int32 path id per stored entry
    entry_v: np.ndarray          # f64 flow v(p | h, t) per stored entry

    @classmethod
    def empty(cls, n_entities: int) -> "PathTable":
        return cls(
            n_entities=n_entities,
            n_relations=0,
            reliability_floor=DEFAULT_RELIABILITY_FLOOR,
            cap=DEFAULT_PAIR_CAP,
            path_rels=np.zeros((0, 2), dtype=np.int32),
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

    def check_graph(self, g: KnowledgeGraph, error: type[Exception]) -> None:
        """Raise ``error`` unless the table's ids index ``g`` (0 relations fit any graph)."""
        if self.n_entities != g.n_entities:
            raise error(f"path table covers {self.n_entities} entities but the graph has "
                        f"{g.n_entities}")
        if self.n_relations not in (0, g.n_relations):
            raise error(f"path table uses relation ids of {self.n_relations} relations but "
                        f"the graph has {g.n_relations}")

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

    def partners(self, anchors, heads: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every entity that shares a stored pair with an anchor a: the tails
        t of the pairs (a, t), or with ``heads`` the heads h of the pairs
        (h, a).  Returns (position in ``anchors``, partner, index of the
        pair in pair_keys), grouped by anchor, partners ascending."""
        offsets, order = self._partner_index[int(heads)]
        anchors = np.asarray(anchors, dtype=np.int64)
        owner, pair = expand_spans(offsets[anchors], offsets[anchors + 1])
        if order is not None:
            pair = order[pair]
        key = self.pair_keys[pair]
        return owner, key // self.n_entities if heads else key % self.n_entities, pair

    @cached_property
    def _partner_index(self) -> tuple[tuple, ...]:
        """(offsets, order) of the tails, then of the heads: the pairs of
        entity a are ``order[offsets[a]:offsets[a + 1]]``.  The tails of a
        are the key range [a * n, (a + 1) * n) of pair_keys (order None, the
        identity); the heads follow one stable argsort of the keys by tail."""
        n = self.n_entities
        tails = self.pair_keys % n
        bounds = np.arange(n + 1, dtype=np.int64)
        by_tail = np.argsort(tails, kind="stable")
        return (
            (np.searchsorted(self.pair_keys, bounds * n), None),
            (np.searchsorted(tails[by_tail], bounds), by_tail),
        )

    # -- persistence ----------------------------------------------------

    def save(self, path: str | Path) -> None:
        artifact.write(path, _FORMAT, (self.reliability_floor, self.cap, self.n_paths, self.n_entities,
                       self.n_pairs, self.n_entries, len(self.relat_rel), self.n_relations), self)

    @classmethod
    def load(cls, path: str | Path) -> "PathTable":
        head, arrays = artifact.read(path, _FORMAT, PathError)
        for name, end in (("relat_offsets", head.n_relat), ("pair_offsets", head.n_entries)):
            offsets = arrays[name]
            if offsets[0] != 0 or offsets[-1] != end or (np.diff(offsets) < 0).any():
                raise PathError(f"{path}: {name} must rise from 0 to {end}")
        rels = arrays["path_rels"]
        for name, ids, lo, hi in (
            ("entry_path", arrays["entry_path"], 0, head.n_paths),
            ("path_rels column 0", rels[:, 0], 0, head.n_relations),
            ("path_rels column 1", rels[:, 1], -1, head.n_relations),
            ("relat_rel", arrays["relat_rel"], 0, head.n_relations),
        ):
            if ((ids < lo) | (ids >= hi)).any():
                raise PathError(f"{path}: {name} outside {lo}..{hi - 1}")
        # With the ids in range, these codes sort like the (r1, r2) rows.
        codes = rels[:, 0].astype(np.int64) * (head.n_relations + 1) + rels[:, 1]
        if (np.diff(codes) <= 0).any():
            raise PathError(f"{path}: path_rels not strictly increasing")
        keys = arrays["pair_keys"]
        if (np.diff(keys) <= 0).any():
            raise PathError(f"{path}: pair_keys not strictly increasing")
        if head.n_pairs and not 0 <= int(keys[0]) <= int(keys[-1]) < head.n_entities**2:
            raise PathError(f"{path}: pair_keys outside the {head.n_entities} entities' pairs")
        # A relatedness is a joint flow over a support that adds the same
        # rows and more, so it is at most 1.  A flow adds one product of two
        # shares 1/deg per middle entity, and its rounding can carry it past
        # 1 (nine shares of 1/9 sum to 1 + 2**-52): at most
        # (1 + u)^3 (1 + gamma_{n-1}) for n entities, below 1 + (n + 4) u.
        for name, top in (("entry_v", 1.0 + (head.n_entities + 4) * 2.0**-53),
                          ("relat_val", 1.0)):
            values = arrays[name]
            if not ((values > 0.0) & (values <= top)).all():
                raise PathError(f"{path}: {name} outside (0, {top!r}]")
        return cls(n_entities=head.n_entities, n_relations=head.n_relations,
                   reliability_floor=head.floor, cap=head.cap, **arrays)

    def dump_tsv(self, path: str | Path) -> None:
        """Debug dump: h<TAB>t<TAB>r1[,r2]<TAB>v, sorted for diffing."""
        heads, tails = (np.repeat(x, np.diff(self.pair_offsets))
                        for x in np.divmod(self.pair_keys, self.n_entities))
        rels = self.path_rels[self.entry_path]
        with open(path, "w", encoding="utf-8") as fh:
            for h, t, (r1, r2), v in zip(heads.tolist(), tails.tolist(), rels.tolist(),
                                         self.entry_v.tolist()):
                path_text = f"{r1}" if r2 < 0 else f"{r1},{r2}"
                fh.write(f"{h}\t{t}\t{path_text}\t{v:.17g}\n")


# -- construction --------------------------------------------------------


# Train pairs are mined in chunks of whole heads of about this many bytes,
# each pair counting its neighbour bit-set row and 8 bytes for each walk
# end it can have.
_MINE_BYTES = 1 << 20


def _sum_runs(key: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``val`` over equal keys, each sum adding one by one in input
    order: (distinct keys, sums, the run of every input row).

    ``np.bincount`` adds sequentially, whatever order the keys sort in;
    ``np.add.reduceat`` would add a run of eight or more values pairwise
    and round differently.
    """
    keys, run = np.unique(key, return_inverse=True)
    return keys, np.bincount(run, weights=val, minlength=len(keys)), run


def _bit_rows(n_ent: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, Callable]:
    """The pairs (src, dst) as rows of bits, and the index of (h, t) among
    their sorted distinct keys: bit t % 64 of little-endian word t // 64 of
    row h is set for (h, t), so its index is the set bits before that one.
    """
    words = np.zeros((n_ent, -(-n_ent // 64)), dtype="<u8")
    np.bitwise_or.at(words, (src, dst >> 6), np.uint64(1) << (dst & 63).astype(np.uint64))
    ones = np.bitwise_count(words)
    before = np.cumsum(ones, dtype=np.int64).reshape(ones.shape) - ones

    def pair_index(h: np.ndarray, t: np.ndarray) -> np.ndarray:
        below = (np.uint64(1) << (t & 63).astype(np.uint64)) - np.uint64(1)
        return before[h, t >> 6] + np.bitwise_count(words[h, t >> 6] & below)

    return words, pair_index


def _collect(g: KnowledgeGraph, cap: int, counts: dict) -> tuple[int, list, tuple]:
    """(n_code, parts, sums): parts of capped entries (pair * n_code + path
    code keys ascending, flows, row entries, row key ids), pair i being
    ``g.train_pairs()[i]``; sums of evidence flows per key code * n_rel +
    relation (keys, ids, sums) and per code.  ``counts`` gets n_walks, n_pairs_capped.

    Path (r1,) has code r1 * (n_rel + 1) and (r1, r2) has code
    r1 * (n_rel + 1) + r2 + 1, so codes sort like the relation tuples.

    A walk h -r1-> m -r2-> t counts when (h, t) is a train pair.  Every
    edge is a train fact, so (h, m) is a train pair too, and the ends t of
    its walks are the entities in both out-neighbour sets of h and of m:
    one AND of two bit sets per train pair finds only the walks kept.
    """
    n_ent, n_rel = g.n_entities, g.n_relations
    n_code = n_rel * (n_rel + 1)
    if n_ent * n_ent * n_code > np.iinfo(np.int64).max:
        raise PathError(f"{n_ent} entities and {n_rel} relations overflow the path keys")
    pairs = g.train_pairs()
    uoff, urel, udst, ushare = g.unique_adjacency()
    deg = np.diff(uoff)
    src = np.repeat(np.arange(n_ent, dtype=np.int64), deg)
    words, pair_index = _bit_rows(n_ent, src, udst)
    edge_pair = pair_index(src, udst)
    by_pair = np.argsort(edge_pair, kind="stable")
    pair_off = np.append(0, np.cumsum(np.bincount(edge_pair, minlength=len(pairs))))
    one_key = edge_pair * n_code + urel * np.int64(n_rel + 1)
    rels = urel[by_pair].astype(np.int64)

    # Each chunk holds whole heads, so no flow sum spans two chunks.
    heads, mids = np.divmod(pairs, n_ent)
    cost = 8 * words.shape[1] + 8 * np.minimum(deg[heads], deg[mids])
    starts = np.flatnonzero(_firsts(heads))
    starts = starts[_firsts((np.cumsum(cost) - cost)[starts] // _MINE_BYTES)]
    parts, waiting, n_waiting = [], [], 0
    (keys, ids), (joint, support) = np.zeros((2, 0), dtype=np.int64), np.zeros((2, 0))
    counts.update(n_walks=0, n_pairs_capped=0)

    def chunk(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Pairs [a, b)'s capped entries: keys ascending, flows."""
        # The set bits of N(h) & N(m), pair by pair, entities ascending: the
        # nonzero words, then their nonzero bytes, then those bytes' bits.
        inter = words[heads[a:b]]
        inter &= words[mids[a:b]]
        word = np.flatnonzero(inter)
        nonzero = inter.ravel()[word].view(np.uint8)
        at = np.flatnonzero(nonzero)
        bit = np.flatnonzero(np.unpackbits(nonzero[at], bitorder="little"))
        at = at[bit >> 3]
        i, t = np.divmod((word[at >> 3] * 8 + (at & 7)) * 8 + (bit & 7), 64 * words.shape[1])
        i += a
        # One walk per relation of (h, m) and relation of (m, t), in the
        # order (h, m, t, r1, r2): each (h, r1, r2, t) adds its flows in
        # ascending m.  A 1-hop entry's code is a run of its own.
        j = pair_index(mids[i], t)
        walk, e1 = expand_spans(pair_off[i], pair_off[i + 1])
        step, e2 = expand_spans(pair_off[j[walk]], pair_off[j[walk] + 1])
        walk, e1, e2 = walk[step], by_pair[e1[step]], by_pair[e2]
        counts["n_walks"] += len(walk)
        own = slice(uoff[heads[a]], uoff[heads[b - 1] + 1])
        key, v, _ = _sum_runs(
            np.concatenate((
                one_key[own],
                pair_index(heads[i], t)[walk] * n_code
                + urel[e1] * np.int64(n_rel + 1) + urel[e2] + 1,
            )),
            np.concatenate((ushare[own], ushare[e1] * ushare[e2])),
        )

        # Memory guard: keep each pair's ``cap`` strongest flows; break flow
        # ties by path order so the selection is deterministic.
        pair = key // n_code
        first = np.flatnonzero(_firsts(pair))
        size = np.diff(np.append(first, len(pair)))
        over = size > cap
        if over.any():
            counts["n_pairs_capped"] += int(over.sum())
            cut = np.flatnonzero(np.repeat(over, size))
            cut = cut[np.lexsort((key[cut], -v[cut], pair[cut]))]
            rank = np.arange(len(cut)) - np.searchsorted(pair[cut], pair[cut])
            keep = np.ones(len(key), dtype=bool)
            keep[cut[rank >= cap]] = False
            key, v = key[keep], v[keep]
        return key, v

    def merge(key: np.ndarray, v: np.ndarray) -> None:
        """Add the evidence rows of entries (keys ascending, flows) to the sums, a key
        keeping the id of its first merge and a code's support adding its old sum,
        then its new rows; like chunk's, its arrays go on return."""
        nonlocal keys, ids, joint, support
        pair, code = np.divmod(key, n_code)
        row_entry, row = expand_spans(pair_off[pair], pair_off[pair + 1])
        row_code = code[row_entry]
        row_key = row_code * n_rel + rels[row]
        evidence = row_code != rels[row] * (n_rel + 1)
        row_key, row_entry, n = row_key[evidence], row_entry[evidence], len(keys)
        flow, old_codes = v[row_entry], np.flatnonzero(_firsts(keys // n_rel))
        keys, joint, at = _sum_runs(np.append(keys, row_key), np.append(joint, flow))
        code_id = np.cumsum(_firsts(keys // n_rel)) - 1
        support = np.bincount(np.append(code_id[at[old_codes]], code_id[at[n:]]),
                              weights=np.append(support, flow))
        old, ids = ids, np.full(len(keys), -1)
        ids[at[:n]] = old
        ids[ids < 0] = np.arange(n, len(keys))
        parts.append((key, v, row_entry.astype(np.int32), ids[at[n:]].astype(np.int32)))

    # A merge sorts about twice its new rows: entries wait to outnumber the keys.
    for a, b in zip(starts.tolist(), np.append(starts[1:], len(pairs)).tolist()):
        waiting.append(chunk(a, b))
        n_waiting += len(waiting[-1][0])
        if n_waiting > len(keys) or b == len(pairs):
            key, v = (np.concatenate(x) for x in zip(*waiting))
            waiting, n_waiting = [], 0
            merge(key, v)
    return n_code, parts, (keys, ids, joint, support)


def build_path_table(
    g: KnowledgeGraph,
    reliability_floor: float = DEFAULT_RELIABILITY_FLOOR,
    cap: int = DEFAULT_PAIR_CAP,
    stats: dict | None = None,
) -> PathTable:
    """Mine per-pair paths and reliability statistics over the train facts.

    A path's flow contributes to the statistics of every train relation
    linking its pair, except that a single-relation path never counts as
    evidence for that same relation (regularizing a relation with itself
    is vacuous).  After statistics are fixed, stored entries whose
    reliability stays below ``reliability_floor`` for every linking
    relation are dropped; a floor of 0 disables the filter.

    Of each mined chunk only its entries and their evidence rows' key ids
    stay; the running sums go before each batch's rows in ``np.bincount``,
    which adds in input order, so every float is that of one pass.
    """
    if not g.augmented:
        raise PathError("path mining requires an inverse-augmented graph")
    if not 0.0 <= reliability_floor < 1.0:
        raise PathError(
            f"reliability_floor must be in [0, 1), got {reliability_floor}"
        )
    if not 1 <= cap <= MAX_PAIR_CAP:
        raise PathError(f"pair cap must be in [1, {MAX_PAIR_CAP}], got {cap}")

    n_rel = g.n_relations
    stats = {} if stats is None else stats
    n_code, parts, (keys, ids, joint, support) = _collect(g, cap, stats)

    # P(r | p) = joint flow of (p, r) / total linked flow of p.  The support
    # adds the rows themselves, pair by pair and relation by relation, not
    # the per-relation joints: summing in another order rounds differently,
    # and a reliability that is exactly the floor would then fall on
    # either side of it.
    joint_code, joint_rel = np.divmod(keys, n_rel)
    code_first = _firsts(joint_code)
    code_at = np.cumsum(code_first) - 1
    relat = joint / support[code_at]
    by_id = np.empty(len(ids))
    by_id[ids] = relat

    # Reliability filter, part by part: an entry stays if some linking
    # relation makes it reliable enough.  Only kept entries are concatenated.
    n_mined = sum(len(part[0]) for part in parts)
    for k, (key, v, row_entry, row_id) in enumerate(parts):
        best = np.zeros(len(key))
        np.maximum.at(best, row_entry, by_id[row_id] * v[row_entry])
        keep = best >= reliability_floor
        parts[k] = key[keep], v[keep]
    key, flows = (np.concatenate(x) for x in zip((np.zeros(0, np.int64), np.zeros(0)), *parts))
    pair, codes = np.divmod(key, n_code)

    # Final path dictionary: lexicographic over paths that survived, and
    # pairs left with no entries vanish.  A kept path with no evidence has
    # no relatedness.
    path_codes, entry_path = np.unique(codes, return_inverse=True)
    first = _firsts(pair)
    pair_keys = g.train_pairs()[pair[first]]
    slot = np.searchsorted(path_codes, joint_code[code_first])[code_at]
    listed = np.append(path_codes, -1)[slot] == joint_code

    stats.update(
        n_pairs=len(pair_keys),
        n_paths=len(path_codes),
        n_entries=len(pair),
        n_entries_prefilter=n_mined,
        drop_rate=(1.0 - len(pair) / n_mined if n_mined else 0.0),
    )

    return PathTable(
        n_entities=g.n_entities,
        n_relations=n_rel,
        reliability_floor=reliability_floor,
        cap=cap,
        path_rels=(np.column_stack(np.divmod(path_codes, n_rel + 1)) - (0, 1)).astype(np.int32),
        relat_offsets=np.searchsorted(slot[listed], np.arange(len(path_codes) + 1)),
        relat_rel=joint_rel[listed].astype(np.int32),
        relat_val=relat[listed],
        pair_keys=pair_keys,
        pair_offsets=np.append(np.flatnonzero(first), len(pair)),
        entry_path=entry_path.astype(np.int32),
        entry_v=flows,
    )
