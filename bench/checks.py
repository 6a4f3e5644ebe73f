"""Output checks, run outside the timed sections.

Artifacts are read only through ``PathTable.load`` and ``ModelParams.load``,
never through the file formats, so a format change cannot break a check.
Each function returns the problems it found as one-line strings.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def table_problems(g, table) -> list[str]:
    out = []
    if table.n_entities != g.n_entities:
        out.append(f"table covers {table.n_entities} entities, graph {g.n_entities}")
    missing = np.setdiff1d(table.pair_keys, g.train_pairs())
    if len(missing):
        out.append(f"{len(missing)} pair keys are not train pairs")
    v = table.entry_v
    if len(v) and not ((v > 0) & (v <= 1)).all():
        out.append("a flow lies outside (0, 1]")
    sizes = np.diff(table.pair_offsets)
    if len(sizes) and sizes.max() > table.cap:
        out.append(f"a pair holds {sizes.max()} entries, cap {table.cap}")
    for pid in range(table.n_paths):
        lo, hi = table.relat_offsets[pid], table.relat_offsets[pid + 1]
        total = float(table.relat_val[lo:hi].sum())
        if abs(total - 1.0) > 1e-9:
            out.append(f"P(r|p) of path {pid} sums to {total}")
            break
    return out


def model_problems(g, params) -> list[str]:
    out = []
    if (params.n_entities, params.n_relations) != (g.n_entities, g.n_relations):
        out.append("model shape does not match the graph")
    for name in ("entity_emb", "relation_emb", "proj"):
        if not np.isfinite(getattr(params, name)).all():
            out.append(f"non-finite {name}")
    off = np.abs(np.linalg.norm(params.entity_emb.astype(np.float64), axis=1) - 1.0)
    if off.max() > 1e-4:
        out.append(f"an entity row norm is off by {off.max():.2e}")
    return out


def report_problems(g, split: str, report: dict, rows: list[dict]) -> list[str]:
    out = []
    want = 2 * len(getattr(g, split))
    if report["n_instances"] != want or len(rows) != want:
        out.append(f"{report['n_instances']} instances and {len(rows)} rows, want {want}")
    mr, hits = report["overall"]["mean_rank"], report["overall"]["hits_at_10"]
    if mr["filter"] > mr["raw"] or hits["filter"] < hits["raw"]:
        out.append("filtered metrics are worse than raw")
    for row in rows:
        raw, filt = int(row["raw_rank"]), int(row["filtered_rank"])
        if not 1 <= filt <= raw <= g.n_entities:
            out.append(f"ranks raw {raw}, filtered {filt} outside [1, {g.n_entities}]")
            break
    return out


def brute_filtered_rank(pk, params, table, g, h: int, r: int, t: int, slot: str,
                        k: int) -> int:
    """Filtered pessimistic rank from the public per-triple scorers.

    Stage 1 orders every candidate by ``score_transr``; the top ``k`` are
    re-scored in both directions by ``score_ptransr`` (``score_transr``
    when there is no table); candidates below the window keep their
    stage-1 order.
    """
    r_inv = g.inverse_of(r)

    def score(a: int, rel: int, b: int) -> float:
        if table is None:
            return pk.score_transr(params, a, rel, b)
        return pk.score_ptransr(params, table, a, rel, b)

    cands = range(g.n_entities)
    if slot == "head":
        gold = h
        s1 = np.array([pk.score_transr(params, e, r, t) for e in cands])
        full = lambda e: score(e, r, t) + score(t, r_inv, e)  # noqa: E731
        known = set(g.known_heads(r, t).tolist())
    else:
        gold = t
        s1 = np.array([pk.score_transr(params, h, r, e) for e in cands])
        full = lambda e: score(h, r, e) + score(e, r_inv, h)  # noqa: E731
        known = set(g.known_tails(h, r).tolist())
    known.discard(gold)
    order = np.argsort(s1, kind="stable").tolist()
    top, rest = order[:k], order[k:]
    if gold in top:
        gold_score = full(gold)
        return sum(full(e) <= gold_score for e in top if e not in known)
    kept_top = sum(e not in known for e in top)
    return kept_top + sum(s1[e] <= s1[gold] for e in rest if e not in known)


def check_outputs(pk, g, steps, records, sample: int) -> None:
    """Check what each step wrote; a problem fails that step's operation."""
    tables = {}
    for step, rec in zip(steps, records):
        try:
            if step.verb == "extract-paths":
                table = pk.PathTable.load(step.flags["out"])
                tables[str(step.flags["out"])] = table
                rec["errors"] += table_problems(g, table)
            elif step.verb == "train":
                params = pk.ModelParams.load(Path(step.flags["out"]) / "model.ptrm")
                rec["errors"] += model_problems(g, params)
            elif step.verb == "evaluate":
                table = tables.get(str(step.flags.get("table")))
                rec["errors"] += evaluate_problems(pk, g, step, table, sample)
        except Exception as exc:  # an unreadable artifact is a failed check
            rec["errors"].append(f"check raised {type(exc).__name__}: {exc}")


def evaluate_problems(pk, g, step, table, sample: int) -> list[str]:
    out_dir = Path(step.flags["out"])
    split = step.flags.get("split", "test")
    k = int(step.flags.get("rerank-k", 500))
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    with open(out_dir / "ranks.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = report_problems(g, split, report, rows)
    params = pk.ModelParams.load(step.flags["model"])
    picks = np.linspace(0, len(rows) - 1, num=min(sample, len(rows))).astype(int)
    for i in sorted(set(picks.tolist())):
        row = rows[i]
        h, r, t = int(row["head"]), int(row["relation"]), int(row["tail"])
        want = brute_filtered_rank(pk, params, table, g, h, r, t, row["slot"], k)
        if want != int(row["filtered_rank"]):
            out.append(
                f"row {i} ({row['slot']} of {h},{r},{t}): filtered rank "
                f"{row['filtered_rank']}, brute force {want}"
            )
    return out
