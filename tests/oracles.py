"""Independent reference implementations the tests compare against.

Everything here is written as plainly as possible (recursive walks,
dict accumulation, exhaustive candidate loops) so that agreement with
the vectorized package code is meaningful.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from pathkge.kgdata import KnowledgeGraph, _firsts
from pathkge.models import ModelParams, path_score_terms, score_ptransr, score_transr
from pathkge.paths import PathTable, expand_spans


def transr_energy_and_grads(params: ModelParams, h: int, r: int, t: int):
    """``score_transr`` of (h, r, t) plus its gradients w.r.t. h, t, r and
    M_r: (energy, gh, gt, gr, gM)."""
    M = params.proj[r].astype(np.float64)
    hv = params.entity_emb[h].astype(np.float64)
    rv = params.relation_emb[r].astype(np.float64)
    tv = params.entity_emb[t].astype(np.float64)
    u = M @ hv + rv - M @ tv
    gh = 2.0 * (M.T @ u)
    return float(u @ u), gh, -gh, 2.0 * u, 2.0 * np.outer(u, hv - tv)


def gap_energy_and_grads(q: np.ndarray, reliability: float):
    """Energy ``reliability * |q|^2`` of a path-minus-relation gap q, plus
    its gradients w.r.t. the path sum and the relation vector."""
    gp = 2.0 * reliability * q
    return float(reliability * (q @ q)), gp, -gp


def batch_step(params: ModelParams, table: PathTable, facts, negs, rel2s, margin: float,
               margin2: float, lr: float, warm: bool = False):
    """One projected minibatch step, hinge by hinge, with the corruptions
    given: one (h', r, t') per fact in ``negs`` and one relation per path
    hinge in ``rel2s``, in fact order, then table order (a fact whose
    reliabilities total 0 has no path hinge).

    Every hinge is scored against the parameters as given.  Entity rows
    move by the sum of their gradients, relation rows by the mean of their
    contributions, each M_r by the mean over r's active fact hinges.  Then
    the moved rows are put back on the unit sphere, and each M_r that
    projects an entity of its active facts or corruptions out of the unit
    ball is divided by the largest such norm.  With ``warm``, the warm
    start's step: relation rows move by the sum of their gradients and no
    M_r moves or is rescaled.  Updates the parameters in place and returns
    (loss, fact violations, path violations, rescaled).
    """
    start = params.copy()
    ent_g: dict = {}
    rel_g: dict = {}
    proj_g: dict = {}
    bounded: dict = {}

    def add(store: dict, key: int, grad: np.ndarray) -> None:
        total, n = store.get(key, (0.0, 0))
        store[key] = (total + grad, n + 1)

    loss, fact_v, path_v = 0.0, 0, 0
    rel2s = iter(rel2s)
    rv = start.relation_emb.astype(np.float64)
    for (h, r, t), (h2, _, t2) in zip(facts, negs):
        e_pos, gh, gt, gr, gM = transr_energy_and_grads(start, h, r, t)
        e_neg, gh2, gt2, gr2, gM2 = transr_energy_and_grads(start, h2, r, t2)
        hinge = margin + e_pos - e_neg
        if hinge > 0:
            loss += hinge
            fact_v += 1
            for e, grad in ((h, gh), (t, gt), (h2, -gh2), (t2, -gt2)):
                add(ent_g, e, grad)
            add(rel_g, r, gr - gr2)
            add(proj_g, r, gM - gM2)
            bounded.setdefault(r, set()).update((h, t, h2, t2))
        entries, z = path_evidence(table, h, r, t)
        if z == 0.0:
            continue
        for pid, v, reliability in entries:
            r2 = next(rel2s)
            vec = sum(rv[x] for x in path_tuple(table.path_rels[pid]))
            e_pp, gp_pos, gr_pos = gap_energy_and_grads(vec - rv[r], reliability)
            e_pn, gp_neg, gr_neg = gap_energy_and_grads(
                vec - rv[r2], relatedness(table, r2, pid) * v
            )
            hinge = margin2 + e_pp - e_pn
            if hinge <= 0:
                continue
            loss += hinge / z
            path_v += 1
            for x in path_tuple(table.path_rels[pid]):
                add(rel_g, x, (gp_pos - gp_neg) / z)
            add(rel_g, r, gr_pos / z)
            add(rel_g, r2, -gr_neg / z)
    assert next(rel2s, None) is None, "more relation corruptions than path hinges"

    for e, (grad, _) in ent_g.items():
        params.entity_emb[e] -= (lr * grad).astype(np.float32)
    for x, (grad, n) in rel_g.items():
        params.relation_emb[x] -= (lr * (grad if warm else grad / n)).astype(np.float32)
    if warm:
        proj_g, bounded = {}, {}
    for x, (grad, n) in proj_g.items():
        params.proj[x] -= (lr * (grad / n)).astype(np.float32)
    for mat, rows in ((params.entity_emb, ent_g), (params.relation_emb, rel_g)):
        for i in rows:
            vec = mat[i].astype(np.float64)
            norm = np.sqrt(vec @ vec)
            if abs(norm - 1.0) > 1e-7:
                mat[i] = (vec / norm).astype(np.float32)
    rescaled = 0
    for r, ents in bounded.items():
        M = params.proj[r].astype(np.float64)
        f = max(np.sqrt(np.sum((M @ params.entity_emb[e].astype(np.float64)) ** 2))
                for e in ents)
        if f > 1.0 + 1e-7:
            params.proj[r] = (M / f).astype(np.float32)
            rescaled += 1
    return loss, fact_v, path_v, rescaled


def add_rows(acc: np.ndarray, ids, grads) -> None:
    """``acc[i]`` += the rows of ``grads`` with id i: each id's rows summed
    from 0.0 in row order, one float at a time, and the sum added once."""
    sums: dict[int, list[float]] = {}
    for i, row in zip(np.asarray(ids).tolist(), np.asarray(grads).tolist()):
        total = sums.setdefault(i, [0.0] * len(row))
        for j, x in enumerate(row):
            total[j] += x
    for i, total in sums.items():
        acc[i] += total


def sample_negative(g, triple, slots: dict[str, float], rng):
    """The trainer's negative sampling, one call at a time.

    ``slots`` maps slot names (head, tail, relation) to probabilities.  A
    slot is picked by one uniform draw, made only when there is a choice;
    that slot is then redrawn until the fact differs from the original and
    is not a train fact.  After every n rejected draws, n the number of
    values of the slot, it gives up if every value makes a train fact.
    Returns the corrupted (h, r, t) and how many draws were rejected."""
    h, r, t = (int(x) for x in triple)
    names = list(slots)
    slot = names[-1]
    if len(names) > 1:
        u = rng.random()
        total = 0.0
        for name in names:
            total += slots[name]
            if u < total:
                slot = name
                break
    train = {tuple(x) for x in g.train.tolist()}

    def corrupt(value: int) -> tuple[int, int, int]:
        return {"head": (value, r, t), "tail": (h, r, value), "relation": (h, value, t)}[slot]

    n = g.n_relations if slot == "relation" else g.n_entities
    redraws = 0
    while True:
        cand = corrupt(int(rng.integers(n)))
        if cand != (h, r, t) and cand not in train:
            return cand, redraws
        redraws += 1
        if redraws % n == 0 and all(corrupt(v) in train for v in range(n)):
            raise ValueError(f"no negative for {(h, r, t)} (slot {slot})")


def read_rows(path, column_order: str = "HRT") -> list[tuple[str, str, str]]:
    """A triple file line by line, as a file opened with newline="" yields
    lines: (head, relation, tail) per line, or ``ValueError`` with the
    loader's message for a line without three tab-separated fields or for
    an empty file."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\r\n").split("\t")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            h, a, b = parts
            rows.append((h, a, b) if column_order == "HRT" else (h, b, a))
    if not rows:
        raise ValueError(f"{path}: empty triple file")
    return rows


def path_tuple(row) -> tuple[int, ...]:
    """A path's relation ids, from its row of ``PathTable.path_rels``, as a
    tuple without the -1 padding."""
    return tuple(r for r in np.asarray(row).tolist() if r >= 0)


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
        if path_tuple(table.path_rels[pid]) == (r,):
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
        rels = path_tuple(table.path_rels[pid])
        vec = sum(params.relation_emb[x].astype(np.float64) for x in rels)
        q = vec - rv
        num += reliability * float(q @ q)
        z += reliability
    if z == 0.0:
        return 0.0
    return num / z


def known_index(g) -> dict[tuple[int, int], set[int]]:
    """The tails of every (h, r) over train, valid and test, by sets; an
    augmented graph also knows the mirror of every valid and test fact."""
    facts = [tuple(x) for split in (g.train, g.valid, g.test) for x in split.tolist()]
    if g.augmented:
        facts += [(t, r + g.n_relations_orig, h)
                  for split in (g.valid, g.test) for h, r, t in split.tolist()]
    out: dict[tuple[int, int], set[int]] = {}
    for h, r, t in facts:
        out.setdefault((h, r), set()).add(t)
    return out


def relation_cardinality(triples, n_relations: int):
    """Per relation: fact count, facts per distinct head (tph) and facts per
    distinct tail (hpt), by sets; 0.0 for a relation without facts."""
    facts, tph, hpt = [], [], []
    for r in range(n_relations):
        rows = [(h, t) for h, rr, t in triples if rr == r]
        n = len(rows)
        facts.append(n)
        tph.append(n / len({h for h, _ in rows}) if n else 0.0)
        hpt.append(n / len({t for _, t in rows}) if n else 0.0)
    return facts, tph, hpt


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


def _sum_runs(key: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``val`` over equal keys, each sum adding one by one in input
    order: (distinct keys, sums, the run of every input row).

    ``np.bincount`` adds sequentially; ``np.add.reduceat`` would add a run
    of eight or more values pairwise and round differently.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = _firsts(key)
    starts = np.flatnonzero(first)
    run = np.empty(len(key), dtype=np.int64)
    run[order] = np.cumsum(first) - 1
    sums = np.bincount(run, weights=val, minlength=len(starts))
    return key[starts], sums, run


def collect_head(g: KnowledgeGraph, h: int, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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

    uoff, urel, udst, ushare = g.unique_adjacency()
    own = slice(uoff[h], uoff[h + 1])
    # Every edge of h is a train fact, so its end is a train-pair tail of h.
    rels1, dsts1, w1 = urel[own].astype(np.int64), udst[own], ushare[own]

    # Expand every two-hop walk at once, then sum flows per
    # (r1, r2, target) with a stable sort so summation order is fixed.
    walk, edge = expand_spans(uoff[dsts1], uoff[dsts1 + 1])
    t2 = udst[edge].astype(np.int64)
    two = is_tail[t2]
    walk, edge, t2 = walk[two], edge[two], t2[two]
    key, flow, _ = _sum_runs(
        (rels1[walk] * n_rel + urel[edge]) * n_ent + t2, w1[walk] * ushare[edge]
    )
    r1, r2 = np.divmod(key // n_ent, n_rel)

    t = np.concatenate((dsts1.astype(np.int64), key % n_ent))
    code = np.concatenate((rels1 * (n_rel + 1), r1 * (n_rel + 1) + r2 + 1))
    v = np.concatenate((w1, flow))
    # Memory guard: keep each pair's ``cap`` strongest flows; break flow
    # ties by path order so the selection is deterministic.
    order = np.lexsort((code, -v, t))
    t, code, v = t[order], code[order], v[order]
    keep = np.arange(len(t)) - np.searchsorted(t, t) < cap
    t, code, v = t[keep], code[keep], v[keep]
    order = np.lexsort((code, t))
    return t[order], code[order], v[order]


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


def windowed_rank_oracle(
    params: ModelParams,
    table: PathTable,
    g,
    h: int,
    r: int,
    t: int,
    slot: str,
    rerank_k: int,
    tie_policy: str = "pessimistic",
) -> tuple[int, int, bool]:
    """Two-stage (raw, filtered) ranks of the gold, candidate by candidate,
    and whether the gold reached the rerank window.

    Stage 1 scores every candidate by the projected score of its triple;
    a stable sort of those scores puts the first ``rerank_k`` candidates
    in the window, where each is rescored in both directions as
    (stage 1 + inverse projected score) + (forward + inverse path term).
    Window candidates rank above all others; the rest keep stage 1.
    """
    r_inv = g.inverse_of(r)
    n = g.n_entities
    fwd = [(e, r, t) if slot == "head" else (h, r, e) for e in range(n)]
    inv = [(t, r_inv, e) if slot == "head" else (e, r_inv, h) for e in range(n)]
    s1 = [score_transr(params, *fwd[e]) for e in range(n)]
    window = sorted(range(n), key=lambda e: s1[e])[:rerank_k]  # sorted() is stable
    s2 = {
        e: (s1[e] + score_transr(params, *inv[e]))
        + (path_score_term(params, table, *fwd[e]) + path_score_term(params, table, *inv[e]))
        for e in window
    }
    gold = h if slot == "head" else t
    known = g.known_heads(r, t) if slot == "head" else g.known_tails(h, r)
    drop = set(int(e) for e in known) - {gold}

    def rank(cands: list[int]) -> int:
        if gold in s2:
            above, scores, gval = 0, [s2[e] for e in cands if e in s2], s2[gold]
        else:
            above = sum(e in s2 for e in cands)
            scores, gval = [s1[e] for e in cands if e not in s2], s1[gold]
        less = sum(x < gval for x in scores)
        ties = sum(x == gval for x in scores)
        return above + (less + ties if tie_policy == "pessimistic" else less + (ties + 2) // 2)

    return rank(list(range(n))), rank([e for e in range(n) if e not in drop]), gold in s2


def full_score_row(params: ModelParams, table: PathTable, g, r: int, slot: str,
                   anchor: int) -> np.ndarray:
    """Every entity's full score as a candidate for ``slot`` of relation r
    with ``anchor`` in the other slot, by the dense route: both
    directions' reference rows whole, and the path terms of every
    candidate triple, added up as the rerank does, (forward + inverse) +
    ((0.0 + forward term) + inverse term)."""
    ent = params.entity_emb.astype(np.float64)
    r_inv = g.inverse_of(r)
    P, Pi = (ent @ params.proj[x].astype(np.float64).T for x in (r, r_inv))
    rv, riv = (params.relation_emb[x].astype(np.float64) for x in (r, r_inv))
    e = np.arange(g.n_entities)
    a = np.full(len(e), anchor)
    if slot == "head":  # (e, r, a) and (a, r^-1, e)
        fwd = np.square(P + (rv - P[anchor])).sum(axis=1)
        inv = np.square((Pi[anchor] + riv) - Pi).sum(axis=1)
        t_fwd = path_score_terms(params, table, e, np.full(len(e), r), a)
        t_inv = path_score_terms(params, table, a, np.full(len(e), r_inv), e)
    else:  # (a, r, e) and (e, r^-1, a)
        fwd = np.square((P[anchor] + rv) - P).sum(axis=1)
        inv = np.square(Pi + (riv - Pi[anchor])).sum(axis=1)
        t_fwd = path_score_terms(params, table, a, np.full(len(e), r), e)
        t_inv = path_score_terms(params, table, e, np.full(len(e), r_inv), a)
    return (fwd + inv) + ((0.0 + t_fwd) + t_inv)


def whole_window_ranks(params: ModelParams, table: PathTable, g, h: int, r: int, t: int,
                       slot: str, tie_policy: str = "pessimistic") -> tuple[int, int, bool]:
    """The (raw, filtered) ranks of the gold of one slot of (h, r, t) when
    the window holds every entity, from its query's dense row of full
    scores, and whether it was in the window (always)."""
    anchor, gold = (t, h) if slot == "head" else (h, t)
    scores = full_score_row(params, table, g, r, slot, anchor)
    known = g.known_heads(r, t) if slot == "head" else g.known_tails(h, r)
    drop = set(int(e) for e in known) - {gold}
    kept = scores[[e for e in range(g.n_entities) if e not in drop]]

    def rank(row: np.ndarray) -> int:
        less, ties = int((row < scores[gold]).sum()), int((row == scores[gold]).sum())
        return less + ties if tie_policy == "pessimistic" else less + (ties + 2) // 2

    return rank(scores), rank(kept), True


def validation_mean_rank(params: ModelParams, g) -> float:
    """Early stopping's probe fact by fact: the raw pessimistic stage-1
    rank of both slots of every valid fact, averaged."""
    ent = params.entity_emb.astype(np.float64)
    ranks = []
    for h, r, t in g.valid.tolist():
        proj = ent @ params.proj[r].astype(np.float64).T
        rv = params.relation_emb[r].astype(np.float64)
        for scores, gold in (
            (np.square(proj + (rv - proj[t])).sum(axis=1), h),
            (np.square((proj[h] + rv) - proj).sum(axis=1), t),
        ):
            ranks.append(int((scores <= scores[gold]).sum()))
    return float(np.mean(ranks))
