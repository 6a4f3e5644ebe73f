"""Independent reference implementations the tests compare against.

Everything here is written as plainly as possible (recursive walks,
dict accumulation, exhaustive candidate loops) so that agreement with
the vectorized package code is meaningful.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from pathkge.models import ModelParams, score_ptransr
from pathkge.paths import PathTable


def relatedness(table: PathTable, r: int, pid: int) -> float:
    """P(r | path) by a scan of the path's stored relations."""
    for i in range(table.relat_offsets[pid], table.relat_offsets[pid + 1]):
        if table.relat_rel[i] == r:
            return float(table.relat_val[i])
    return 0.0


def path_evidence(table: PathTable, h: int, r: int, t: int):
    """The (path id, flow, reliability) entries a path hinge of (h, r, t)
    uses, in table order, and their total reliability z.  The 1-hop path
    equal to r is skipped; entries with zero relatedness stay."""
    keys = table.pair_keys.tolist()
    key = h * table.n_entities + t
    if key not in keys:
        return [], 0.0
    i = keys.index(key)
    span = range(table.pair_offsets[i], table.pair_offsets[i + 1])
    entries = []
    z = 0.0
    for pid, v in zip(table.entry_path[span].tolist(), table.entry_v[span].tolist()):
        if table.path_rels[pid] == (r,):
            continue
        reliability = relatedness(table, r, pid) * v
        entries.append((pid, v, reliability))
        z += reliability
    return entries, z


def path_score_term(params: ModelParams, table: PathTable, h: int, r: int, t: int) -> float:
    """Normalized path penalty of (h, r, t): mean reliability-weighted
    squared path-relation distance over the pair's stored paths.

    The single-relation path equal to r itself is skipped, and a zero
    total reliability contributes nothing.
    """
    num = 0.0
    z = 0.0
    rv = params.relation_emb[r].astype(np.float64)
    for pid, _, reliability in path_evidence(table, h, r, t)[0]:
        if reliability == 0.0:
            continue
        vec = sum(params.relation_emb[x].astype(np.float64) for x in table.path_rels[pid])
        q = vec - rv
        num += reliability * float(q @ q)
        z += reliability
    if z == 0.0:
        return 0.0
    return num / z


def distinct_children(edges: set, node: int, rel: int) -> list[int]:
    return sorted({t for h, r, t in edges if h == node and r == rel})


def walk_probability(triples, h: int, path, t: int) -> float:
    """Sum over matching walks of the product of per-hop even splits."""
    edges = {tuple(tr) for tr in triples}

    def rec(node: int, i: int) -> float:
        if i == len(path):
            return 1.0 if node == t else 0.0
        kids = distinct_children(edges, node, path[i])
        if not kids:
            return 0.0
        share = 1.0 / len(kids)
        return sum(share * rec(kid, i + 1) for kid in kids)

    return rec(h, 0)


def all_witnessed_paths(triples, h: int, t: int, n_relations: int, max_hops: int = 2):
    """Every relation sequence (length 1..max_hops) with a walk h -> t."""
    found = {}
    for length in range(1, max_hops + 1):
        for path in product(range(n_relations), repeat=length):
            v = walk_probability(triples, h, path, t)
            if v > 0.0:
                found[path] = v
    return found


def path_table_oracle(triples, n_relations: int, floor: float, cap: int):
    """Dict-based mirror of the path-table contract on a small graph.

    Returns (entries, relatedness) where entries maps (h, t) to the kept
    {path: v} dict and relatedness maps path to {relation: P(r|path)}.
    Statistics are taken after the per-pair cap and before the floor
    filter; a single-relation path never counts for that same relation.
    """
    distinct = sorted({tuple(tr) for tr in triples})
    pairs = sorted({(h, t) for h, _, t in distinct})
    rels_of = {}
    for h, r, t in distinct:
        rels_of.setdefault((h, t), []).append(r)

    mined: dict[tuple[int, int], dict] = {}
    for h, t in pairs:
        found = all_witnessed_paths(triples, h, t, n_relations)
        if len(found) > cap:
            ranked = sorted(found.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
            found = dict(ranked)
        if found:
            mined[(h, t)] = found

    support: dict[tuple, float] = {}
    joint: dict[tuple, dict] = {}
    for (h, t), found in mined.items():
        for r in rels_of[(h, t)]:
            for path, v in found.items():
                if path == (r,):
                    continue
                support[path] = support.get(path, 0.0) + v
                joint.setdefault(path, {})
                joint[path][r] = joint[path].get(r, 0.0) + v
    relatedness = {
        path: {r: val / support[path] for r, val in by_rel.items()}
        for path, by_rel in joint.items()
        if support[path] > 0.0
    }

    entries: dict[tuple[int, int], dict] = {}
    for (h, t), found in mined.items():
        kept = {}
        for path, v in found.items():
            if floor == 0.0:
                kept[path] = v
                continue
            best = 0.0
            for r in rels_of[(h, t)]:
                if path == (r,):
                    continue
                best = max(best, relatedness.get(path, {}).get(r, 0.0) * v)
            if best >= floor:
                kept[path] = v
        if kept:
            entries[(h, t)] = kept
    return entries, relatedness


def full_rank_oracle(
    params: ModelParams,
    table: PathTable,
    g,
    h: int,
    r: int,
    t: int,
    slot: str,
) -> tuple[int, int]:
    """Single-stage pessimistic (raw, filtered) ranks over all entities."""
    r_inv = g.inverse_of(r)
    n = g.n_entities
    scores = np.empty(n, dtype=np.float64)
    for e in range(n):
        if slot == "head":
            scores[e] = score_ptransr(params, table, e, r, t) + score_ptransr(
                params, table, t, r_inv, e
            )
        else:
            scores[e] = score_ptransr(params, table, h, r, e) + score_ptransr(
                params, table, e, r_inv, h
            )
    gold = h if slot == "head" else t
    gval = scores[gold]
    raw = int((scores < gval).sum() + (scores == gval).sum())
    known = g.known_heads(r, t) if slot == "head" else g.known_tails(h, r)
    drop = set(int(e) for e in known) - {gold}
    kept = np.array([e for e in range(n) if e not in drop])
    sub = scores[kept]
    filtered = int((sub < gval).sum() + (sub == gval).sum())
    return raw, filtered
