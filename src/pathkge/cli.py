"""Command-line pipeline for the embedding engine.

Verbs: prepare (ingest + vocab dumps), extract-paths (mine the path
table), train (staged SGD), evaluate (entity-prediction report),
synth-kg (desk-scale dataset generator), inspect (qualitative probes).

Every verb validates its inputs before touching the filesystem, exits
nonzero with a one-line message on error, and is byte-deterministic
given identical inputs and seed.  Every verb runs in one process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Iterable

import numpy as np

from pathkge.evaluator import (
    DEFAULT_RERANK_K,
    evaluate,
    write_ranks_csv,
    write_report_json,
    write_report_text,
)
from pathkge.kgdata import (
    CATEGORY_LABELS,
    FREQUENCY_BUCKETS,
    DatasetError,
    KnowledgeGraph,
    augment_inverse,
    load_dataset,
    relation_breakdown,
    write_vocab_dumps,
)
from pathkge.models import ModelError, ModelParams, path_distances
from pathkge.paths import (
    DEFAULT_PAIR_CAP,
    DEFAULT_RELIABILITY_FLOOR,
    PathError,
    PathTable,
    build_path_table,
)
from pathkge.trainer import (
    CHOICES,
    TrainConfig,
    TrainError,
    load_config_file,
    train,
)

DATA_DIR_ENV = "PATHKGE_DATA_DIR"
SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")


class SynthError(ValueError):
    """Infeasible or malformed synthetic-KG request."""


# -- synthetic dataset generator ---------------------------------------------


@dataclass(frozen=True)
class SyntheticKGSpec:
    """Recipe for a small KG whose target relation is path-predictable.

    Facts of every non-target relation are sampled uniformly; each
    composition rule (a, b -> c) then materializes (x, c, z) wherever a
    chain x -a-> y -b-> z exists.  A fraction of the composed facts is
    held out for valid/test, so a model that exploits 2-hop paths has a
    real advantage on them.  Noise facts are uniform random triples.
    """

    n_entities: int = 50
    n_relations: int = 3
    composition_rules: tuple[tuple[int, int, int], ...] = ((0, 1, 2),)
    base_facts_per_relation: int = 120
    noise_rate: float = 0.1
    holdout: float = 0.2
    seed: int = 7

    def validate(self) -> None:
        if self.n_entities < 3:
            raise SynthError("need at least 3 entities to form 2-hop chains")
        if self.n_entities > 2**31 - 1:
            raise SynthError(f"at most {2**31 - 1} entities: ids are stored as int32")
        if self.n_relations < 1:
            raise SynthError("need at least 1 relation")
        if not 0.0 <= self.noise_rate < 1.0:
            raise SynthError(f"noise_rate must be in [0, 1), got {self.noise_rate}")
        if not 0.0 < self.holdout < 1.0:
            raise SynthError(f"holdout must be in (0, 1), got {self.holdout}")
        if self.base_facts_per_relation < 1:
            raise SynthError("base_facts_per_relation must be >= 1")
        max_pairs = self.n_entities * (self.n_entities - 1)
        if self.base_facts_per_relation > max_pairs:
            raise SynthError(
                f"{self.base_facts_per_relation} base facts exceed the "
                f"{max_pairs} distinct ordered entity pairs"
            )
        targets = set()
        for rule in self.composition_rules:
            if len(rule) != 3:
                raise SynthError(f"rule {rule!r} must be (r1, r2, r3)")
            for rid in rule:
                if not 0 <= rid < self.n_relations:
                    raise SynthError(
                        f"rule {rule!r} references relation {rid}, but only "
                        f"{self.n_relations} relations exist"
                    )
            targets.add(rule[2])
        for a, b, _ in self.composition_rules:
            if a in targets or b in targets:
                raise SynthError(
                    "a composed relation cannot feed another rule; chains of "
                    "rules would lose their train witnesses to the holdout"
                )
        if len(targets) == len(set(range(self.n_relations))):
            raise SynthError(
                "every relation is a composition target; no base facts possible"
            )

    def as_dict(self) -> dict:
        return {
            "n_entities": self.n_entities,
            "n_relations": self.n_relations,
            "composition_rules": [list(r) for r in self.composition_rules],
            "base_facts_per_relation": self.base_facts_per_relation,
            "noise_rate": self.noise_rate,
            "holdout": self.holdout,
            "seed": self.seed,
        }


def _sample_pairs(rng: np.random.Generator, n: int, count: int) -> list[tuple[int, int]]:
    """Distinct ordered (h, t) pairs with h != t, in sorted order."""
    codes = rng.choice(n * (n - 1), size=count, replace=False)
    out = []
    for code in np.sort(codes).tolist():
        h, rem = divmod(code, n - 1)
        t = rem + (rem >= h)  # skip the diagonal
        out.append((h, t))
    return out


def _compose(
    pairs_a: Iterable[tuple[int, int]], pairs_b: Iterable[tuple[int, int]], c: int
) -> set[tuple[int, int, int]]:
    """The facts (x, c, z), x != z, of every chain x -a-> y -b-> z."""
    succ: dict[int, list[int]] = {}
    for y, z in pairs_b:
        succ.setdefault(y, []).append(z)
    return {(x, c, z) for x, y in pairs_a for z in succ.get(y, ()) if x != z}


def generate_synthetic_kg(spec: SyntheticKGSpec, out_dir: str | Path) -> dict:
    """Write train/valid/test TSVs plus a spec.json echo; return the summary."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.n_entities
    targets = {c for _, _, c in spec.composition_rules}
    base_rels = [r for r in range(spec.n_relations) if r not in targets]

    base: set[tuple[int, int, int]] = set()
    pairs_of: dict[int, set[tuple[int, int]]] = {}
    for r in base_rels:
        pairs = _sample_pairs(rng, n, spec.base_facts_per_relation)
        pairs_of[r] = set(pairs)
        base.update((h, r, t) for h, t in pairs)

    composed: set[tuple[int, int, int]] = set()
    for a, b, c in spec.composition_rules:
        produced = _compose(pairs_of[a], pairs_of[b], c)
        if not produced:
            raise SynthError(
                f"rule ({a},{b}->{c}) produced no composed facts; the spec is "
                f"infeasible at this density"
            )
        composed |= produced

    composed_list = sorted(composed)
    n_eval = int(round(spec.holdout * len(composed_list)))
    if n_eval < 2:
        raise SynthError(
            "holdout selects fewer than 2 composed facts; raise the density "
            "or the holdout fraction"
        )
    perm = rng.permutation(len(composed_list))
    eval_facts = [composed_list[i] for i in perm[:n_eval].tolist()]
    train_comp = sorted(composed_list[i] for i in perm[n_eval:].tolist())
    n_valid = max(1, n_eval // 3)
    valid_facts = sorted(eval_facts[:n_valid])
    test_facts = sorted(eval_facts[n_valid:])

    clean_train = sorted(base) + train_comp
    clean_train.sort()
    n_clean = len(clean_train)
    n_noise = int(round(spec.noise_rate / (1.0 - spec.noise_rate) * n_clean))
    taken = base | composed
    noise: set[tuple[int, int, int]] = set()
    attempts = 0
    while len(noise) < n_noise:
        attempts += 1
        if attempts > 100 * max(n_noise, 1):
            raise SynthError("noise sampling failed to find enough free triples")
        h = int(rng.integers(n))
        t = int(rng.integers(n))
        r = int(rng.integers(spec.n_relations))
        cand = (h, r, t)
        if h == t or cand in taken or cand in noise:
            continue
        noise.add(cand)
    train_facts = sorted(clean_train + sorted(noise))

    # Every held-out composed fact must keep a 2-hop witness in train.
    train_pairs: dict[int, list[tuple[int, int]]] = {}
    for h, r, t in train_facts:
        train_pairs.setdefault(r, []).append((h, t))
    witnessed: set[tuple[int, int, int]] = set()
    for a, b, c in spec.composition_rules:
        witnessed |= _compose(train_pairs.get(a, ()), train_pairs.get(b, ()), c)
    for fact in valid_facts + test_facts:
        if fact not in witnessed:
            x, c, z = fact
            raise SynthError(
                f"held-out fact ({x},{c},{z}) lost its 2-hop train witness"
            )

    width = len(str(n - 1))
    ename = [f"e{i:0{width}d}" for i in range(n)]
    rname = [f"r{j}" for j in range(spec.n_relations)]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, rows in (
        ("train.txt", train_facts),
        ("valid.txt", valid_facts),
        ("test.txt", test_facts),
    ):
        with open(out / fname, "w", encoding="utf-8") as fh:
            for h, r, t in rows:
                fh.write(f"{ename[h]}\t{rname[r]}\t{ename[t]}\n")

    summary = {
        "spec": spec.as_dict(),
        "counts": {
            "base_facts": len(base),
            "composed_facts": len(composed_list),
            "train": len(train_facts),
            "valid": len(valid_facts),
            "test": len(test_facts),
            "noise": len(noise),
        },
        "column_order": "head\trelation\ttail",
    }
    with open(out / "spec.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary


# -- shared plumbing ---------------------------------------------------------


def _data_dir(args: argparse.Namespace) -> Path:
    raw = args.data or os.environ.get(DATA_DIR_ENV)
    if not raw:
        raise DatasetError(
            f"no dataset directory given (pass --data or set {DATA_DIR_ENV})"
        )
    d = Path(raw)
    missing = [f for f in SPLIT_FILES if not (d / f).is_file()]
    if missing:
        raise DatasetError(f"dataset dir {d} is missing {', '.join(missing)}")
    return d


def _load_graph(args: argparse.Namespace) -> KnowledgeGraph:
    d = _data_dir(args)
    order = getattr(args, "order", "hrt").upper()
    g = load_dataset(
        d / "train.txt", d / "valid.txt", d / "test.txt", column_order=order
    )
    return augment_inverse(g)


def _run_dir(args: argparse.Namespace, verb: str, seed: int) -> Path:
    if args.out:
        return Path(args.out)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{verb}-{stamp}-seed{seed}"


def _load_table(path: str, g: KnowledgeGraph) -> PathTable:
    if not Path(path).is_file():
        raise PathError(f"path table not found: {path}")
    table = PathTable.load(path)
    table.check_graph(g, PathError)
    return table


def _load_model(path: str, what: str = "model file") -> ModelParams:
    if not Path(path).is_file():
        raise ModelError(f"{what} not found: {path}")
    return ModelParams.load(path)


# -- verbs -------------------------------------------------------------------


def cmd_prepare(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    out = _run_dir(args, "prepare", 0)
    out.mkdir(parents=True, exist_ok=True)
    write_vocab_dumps(g, out)

    def histogram(index: np.ndarray, labels: tuple[str, ...]) -> dict[str, int]:
        return dict(zip(labels, np.bincount(index[index >= 0], minlength=len(labels)).tolist()))

    categories, buckets = relation_breakdown(g)
    counts = g.counts()
    stats = {
        **counts,
        "relations_with_inverses": g.n_relations,
        "relation_categories": histogram(categories, CATEGORY_LABELS),
        "relation_frequency_buckets": histogram(buckets, FREQUENCY_BUCKETS),
    }
    with open(out / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, sort_keys=True, indent=2)
        fh.write("\n")

    print(f"entities:       {counts['entities']}")
    print(f"relations:      {counts['relations']} ({g.n_relations} with inverses)")
    print(f"train triples:  {counts['train']} ({counts['train_augmented']} augmented)")
    print(f"valid triples:  {counts['valid']}")
    print(f"test triples:   {counts['test']}")
    print(f"wrote vocab dumps and stats.json under {out}")
    return 0


def cmd_extract_paths(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    out_file = Path(args.out) if args.out else None
    if out_file is None:
        d = _run_dir(args, "paths", 0)
        d.mkdir(parents=True, exist_ok=True)
        out_file = d / "paths.ptbl"
    stats: dict = {}
    table = build_path_table(g, reliability_floor=args.floor, cap=args.cap, stats=stats)
    out_file.parent.mkdir(parents=True, exist_ok=True)
    table.save(out_file)
    if args.dump_tsv:
        table.dump_tsv(args.dump_tsv)
    print(f"pairs:     {stats['n_pairs']}")
    print(f"paths:     {stats['n_paths']}")
    print(f"walks:     {stats['n_walks']}")
    print(f"entries:   {stats['n_entries']} (of {stats['n_entries_prefilter']} mined)")
    print(f"drop rate: {stats['drop_rate']:.4f} at floor {table.reliability_floor}")
    print(f"capped:    {stats['n_pairs_capped']} pairs at cap {table.cap}")
    print(f"wrote {out_file}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    file_updates = load_config_file(args.config) if args.config else {}
    flag_updates = {
        key: getattr(args, key)
        for key in TrainConfig().as_dict()
        if getattr(args, key) is not None
    }
    updates = {**file_updates, **flag_updates}  # flags win over the file
    cfg = TrainConfig.defaults_for_stage(updates.get("stage", "ptransr")).with_updates(updates)
    cfg.validate()

    g = _load_graph(args)
    table = None
    if cfg.stage == "ptransr":
        if not args.table:
            raise TrainError(
                "stage ptransr needs a path table (pass --table <file.ptbl>, "
                "produced by extract-paths)"
            )
        table = _load_table(args.table, g)
    init = _load_model(args.init, "warm-start model") if args.init else None

    out = _run_dir(args, "train", cfg.seed)
    params, records = train(g, table, cfg, out_dir=out, init_params=init)
    run = f"stage {cfg.stage}" + (" with --init" if args.init else "")
    for key in records[0]["ignored"] + ["--table"] * (cfg.stage != "ptransr" and bool(args.table)):
        print(f"note: {run} ignores {key}", file=sys.stderr)
    losses = [rec for rec in records if "loss" in rec]
    if losses:
        last = losses[-1]
        print(
            f"stage {cfg.stage}: {len(losses)} epochs, "
            f"final loss {last['loss']:.6f}, violations {last['violations']}"
        )
    print(f"wrote model.ptrm, config.txt, train_log.jsonl under {out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    params = _load_model(args.model)
    table = _load_table(args.table, g) if args.table else PathTable.empty(g.n_entities)

    report = evaluate(params, table, g, split=args.split, rerank_k=args.rerank_k,
                      tie_policy=args.tie_policy)
    out = _run_dir(args, "evaluate", 0)
    out.mkdir(parents=True, exist_ok=True)
    config_echo = {
        "model": str(args.model), "table": str(args.table) if args.table else None,
        "split": args.split, "rerank_k": args.rerank_k, "tie_policy": args.tie_policy,
    }
    write_report_text(report, out / "report.txt")
    write_report_json(report, out / "report.json", config=config_echo)
    write_ranks_csv(report, out / "ranks.csv")
    print((out / "report.txt").read_text(encoding="utf-8"), end="")
    print(f"wrote report.txt, report.json, ranks.csv under {out}")
    return 0


def cmd_synth_kg(args: argparse.Namespace) -> int:
    rules = []
    for raw in args.rule or ["0,1,2"]:
        parts = raw.split(",")
        if len(parts) != 3:
            raise SynthError(f"--rule expects 'r1,r2,r3', got {raw!r}")
        try:
            rules.append(tuple(int(p) for p in parts))
        except ValueError:
            raise SynthError(f"--rule expects integer relation ids, got {raw!r}")
    spec = SyntheticKGSpec(
        n_entities=args.entities,
        n_relations=args.relations,
        composition_rules=tuple(rules),
        base_facts_per_relation=args.base_facts,
        noise_rate=args.noise,
        holdout=args.holdout,
        seed=args.seed,
    )
    out = _run_dir(args, "synth", spec.seed)
    summary = generate_synthetic_kg(spec, out)
    counts = summary["counts"]
    print(
        f"train {counts['train']} (noise {counts['noise']}), "
        f"valid {counts['valid']}, test {counts['test']} "
        f"({counts['composed_facts']} composed facts total)"
    )
    print(f"wrote dataset under {out}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise DatasetError("--top must be >= 1")
    if args.entity is None and args.pair is None and args.relation is None:
        raise DatasetError("nothing to inspect (pass --entity, --pair, or --relation)")
    g = _load_graph(args)
    params = _load_model(args.model)
    params.check_graph(g, ModelError)
    ent_id, rel_id = g.vocab.entity_index, g.vocab.relation_index

    # Every argument is checked before anything is printed.
    names = [] if args.entity is None else [args.entity]
    if args.pair is not None:
        pair = args.pair.split(",")
        if len(pair) != 2:
            raise DatasetError(f"--pair expects 'head,tail', got {args.pair!r}")
        names += pair
    for name in names:
        if name not in ent_id:
            raise DatasetError(f"unknown entity {name!r}")
    if args.relation is not None and args.relation not in rel_id:
        raise DatasetError(f"unknown relation {args.relation!r}")
    if not args.table and (args.pair is not None or args.relation is not None):
        raise PathError(f"--{'relation' if args.pair is None else 'pair'} needs --table")
    table = _load_table(args.table, g) if args.table else None
    r = None if args.relation is None else rel_id[args.relation]

    if args.entity is not None:
        e = ent_id[args.entity]
        emb = params.entity_emb.astype(np.float64)
        dist = np.sqrt(np.square(emb - emb[e]).sum(axis=1))
        order = np.argsort(dist, kind="stable")
        print(f"nearest neighbors of {args.entity}:")
        shown = 0
        for idx in order.tolist():
            if idx == e:
                continue
            print(f"  {g.vocab.entity_names[idx]}  {dist[idx]:.6f}")
            shown += 1
            if shown >= args.top:
                break

    def _path_names(pid: int) -> str:
        rels = table.path_rels[pid].tolist()
        return ",".join(g.vocab.relation_names[rid] for rid in rels if rid >= 0)

    if args.pair is not None:
        h, t = ent_id[pair[0]], ent_id[pair[1]]
        ids, flows = table.paths_for(h, t)
        print(f"stored paths for ({pair[0]}, {pair[1]}): {len(ids)}")
        if r is not None:
            related = table.relatedness(r, ids).tolist()
            gaps = np.sqrt(path_distances(params, table, ids, r)).tolist()
        for j, (pid, v) in enumerate(zip(ids.tolist(), flows.tolist())):
            line = f"  {_path_names(pid)}  v={v:.6f}"
            if r is not None:
                line += f"  P(r|p)={related[j]:.6f}  R={related[j] * v:.6f}  |p-r|={gaps[j]:.6f}"
            print(line)
    elif r is not None:
        # Path ids number the paths lexicographically, so they break ties as
        # the relation sequences would.
        related = table.relatedness(r, np.arange(table.n_paths))
        pids = np.flatnonzero(related > 0.0)
        print(f"paths related to {args.relation}: {len(pids)}")
        top = pids[np.lexsort((pids, -related[pids]))][: args.top]
        gaps = np.sqrt(path_distances(params, table, top, r))
        for pid, relatedness, gap in zip(top.tolist(), related[top].tolist(), gaps.tolist()):
            print(f"  {_path_names(pid)}  P(r|p)={relatedness:.6f}  |p-r|={gap:.6f}")
    return 0


# -- argument parsing --------------------------------------------------------


def _add_data_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--data",
        help=f"dataset dir with train/valid/test.txt (default ${DATA_DIR_ENV})",
    )
    sub.add_argument(
        "--order",
        choices=("hrt", "htr"),
        default="hrt",
        help="column order of the TSV files (default hrt)",
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process."""
    parser = argparse.ArgumentParser(
        prog="pathkge",
        description="knowledge-graph embeddings with path regularization",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("prepare", help="validate a dataset and dump vocab + stats")
    _add_data_args(p)
    p.add_argument("--out", help="output dir (default runs/<stamp>)")
    p.set_defaults(func=cmd_prepare)

    p = subs.add_parser("extract-paths", help="mine the 2-hop path table")
    _add_data_args(p)
    p.add_argument("--floor", type=float, default=DEFAULT_RELIABILITY_FLOOR,
                   help="reliability floor in [0,1) (default %(default)s)")
    p.add_argument("--cap", type=int, default=DEFAULT_PAIR_CAP,
                   help="max stored paths per pair (default %(default)s)")
    p.add_argument("--out", help="output .ptbl file (default under runs/)")
    p.add_argument("--dump-tsv", help="also write a human-readable TSV dump")
    p.set_defaults(func=cmd_extract_paths)

    p = subs.add_parser("train", help="train one stage of the pipeline")
    _add_data_args(p)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--table", help="path table (.ptbl), required for ptransr")
    p.add_argument("--init", help="warm-start model file (.ptrm)")
    # One flag per config key, its value coerced and checked by TrainConfig.
    for key in TrainConfig().as_dict():
        choices = "{" + ",".join(CHOICES[key]) + "}" if key in CHOICES else None
        p.add_argument("--" + key.replace("_", "-"), metavar=choices)
    p.add_argument("--out", help="run dir (default runs/train-<stamp>-seed<seed>)")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="entity-prediction metrics for a model")
    _add_data_args(p)
    p.add_argument("--model", required=True, help="model file (.ptrm)")
    p.add_argument("--table", help="path table (.ptbl); omit for a path-free model")
    p.add_argument("--split", choices=("valid", "test"), default="test")
    p.add_argument("--rerank-k", dest="rerank_k", type=int, default=DEFAULT_RERANK_K)
    p.add_argument("--tie-policy", dest="tie_policy",
                   choices=("pessimistic", "mean"), default="pessimistic")
    p.add_argument("--out", help="run dir (default runs/evaluate-<stamp>)")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("synth-kg", help="generate a composition-rule dataset")
    p.add_argument("--entities", type=int, default=50)
    p.add_argument("--relations", type=int, default=3)
    p.add_argument("--rule", action="append",
                   help="composition rule 'r1,r2,r3' (repeatable; default 0,1,2)")
    p.add_argument("--base-facts", dest="base_facts", type=int, default=120,
                   help="facts per non-composed relation (default %(default)s)")
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--holdout", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="dataset dir (default runs/synth-<stamp>-seed<seed>)")
    p.set_defaults(func=cmd_synth_kg)

    p = subs.add_parser("inspect", help="qualitative probes of a trained model")
    _add_data_args(p)
    p.add_argument("--model", required=True, help="model file (.ptrm)")
    p.add_argument("--table", help="path table (.ptbl) for path probes")
    p.add_argument("--entity", help="entity name: print nearest neighbors")
    p.add_argument("--pair", help="'head,tail': print stored paths for the pair")
    p.add_argument("--relation", help="relation name: path-vs-relation distances")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TrainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
