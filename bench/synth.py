"""The benchmark's own composition-rule dataset generator.

It draws from the random stream in the same order as
``pathkge.cli.generate_synthetic_kg`` and writes the same bytes for the
benchmark specs (``test_bench.py`` checks this), so the inputs stay fixed
while the program's generator changes.  The only difference is the
held-out witness check, done here as one join over the train facts
instead of a loop over every entity per held-out fact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLITS = ("train.txt", "valid.txt", "test.txt")


@dataclass(frozen=True)
class Spec:
    """Same fields and defaults as ``pathkge.cli.SyntheticKGSpec``."""

    n_entities: int = 50
    n_relations: int = 3
    composition_rules: tuple[tuple[int, int, int], ...] = ((0, 1, 2),)
    base_facts_per_relation: int = 120
    noise_rate: float = 0.1
    holdout: float = 0.2
    seed: int = 7

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
    codes = np.sort(rng.choice(n * (n - 1), size=count, replace=False))
    h, rem = np.divmod(codes, n - 1)
    t = rem + (rem >= h)
    return list(zip(h.tolist(), t.tolist()))


def _compose(pairs_a, pairs_b, c: int) -> set[tuple[int, int, int]]:
    succ: dict[int, list[int]] = {}
    for y, z in pairs_b:
        succ.setdefault(y, []).append(z)
    return {(x, c, z) for x, y in pairs_a for z in succ.get(y, ()) if x != z}


def generate(spec: Spec, out_dir: Path) -> dict:
    """Write train/valid/test TSVs and spec.json; return the summary."""
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
            raise ValueError(f"rule ({a},{b}->{c}) produced no composed facts")
        composed |= produced

    composed_list = sorted(composed)
    n_eval = int(round(spec.holdout * len(composed_list)))
    if n_eval < 2:
        raise ValueError("holdout selects fewer than 2 composed facts")
    perm = rng.permutation(len(composed_list))
    eval_facts = [composed_list[i] for i in perm[:n_eval].tolist()]
    train_comp = sorted(composed_list[i] for i in perm[n_eval:].tolist())
    n_valid = max(1, n_eval // 3)
    valid_facts = sorted(eval_facts[:n_valid])
    test_facts = sorted(eval_facts[n_valid:])

    clean_train = sorted(sorted(base) + train_comp)
    n_noise = int(round(spec.noise_rate / (1.0 - spec.noise_rate) * len(clean_train)))
    taken = base | composed
    noise: set[tuple[int, int, int]] = set()
    attempts = 0
    while len(noise) < n_noise:
        attempts += 1
        if attempts > 100 * max(n_noise, 1):
            raise ValueError("noise sampling failed to find enough free triples")
        h = int(rng.integers(n))
        t = int(rng.integers(n))
        r = int(rng.integers(spec.n_relations))
        cand = (h, r, t)
        if h == t or cand in taken or cand in noise:
            continue
        noise.add(cand)
    train_facts = sorted(clean_train + sorted(noise))

    # Every held-out composed fact must keep a 2-hop witness in train.
    train_pairs: dict[int, set[tuple[int, int]]] = {}
    for h, r, t in train_facts:
        train_pairs.setdefault(r, set()).add((h, t))
    witnessed: set[tuple[int, int, int]] = set()
    for a, b, c in spec.composition_rules:
        witnessed |= _compose(train_pairs.get(a, ()), train_pairs.get(b, ()), c)
    lost = [f for f in valid_facts + test_facts if f not in witnessed]
    if lost:
        raise ValueError(f"held-out fact {lost[0]} lost its 2-hop train witness")

    width = len(str(n - 1))
    ename = [f"e{i:0{width}d}" for i in range(n)]
    rname = [f"r{j}" for j in range(spec.n_relations)]
    out_dir.mkdir(parents=True, exist_ok=True)
    for fname, rows in zip(SPLITS, (train_facts, valid_facts, test_facts)):
        with open(out_dir / fname, "w", encoding="utf-8") as fh:
            fh.writelines(f"{ename[h]}\t{rname[r]}\t{ename[t]}\n" for h, r, t in rows)

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
    with open(out_dir / "spec.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary


def split_digests(data_dir: Path) -> dict[str, str]:
    """SHA-256 of each split file, keyed by file name."""
    return {
        name: hashlib.sha256((data_dir / name).read_bytes()).hexdigest()
        for name in SPLITS
    }
