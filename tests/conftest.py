"""Shared fixtures: small hand-checkable graphs and random generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from oracles import path_tuple
from pathkge.kgdata import KnowledgeGraph, Vocab, augment_inverse
from pathkge.paths import build_path_table

# 0 -r0-> 1 -r1-> 2 -r2-> 3
CHAIN = [(0, 0, 1), (1, 1, 2), (2, 2, 3)]

# 0 -r0-> {1, 2}; {1, 2} -r1-> 3 (two witnesses for the (r0, r1) path 0->3)
DIAMOND = [(0, 0, 1), (0, 0, 2), (1, 1, 3), (2, 1, 3)]

# 0 -r0-> 1 -r1-> 2 and the shortcut 0 -r2-> 2
TRI = [(0, 0, 1), (1, 1, 2), (0, 2, 2)]


def make_graph(
    train,
    valid=(),
    test=(),
    n_entities=None,
    n_relations=None,
    augment=True,
) -> KnowledgeGraph:
    """An id-named graph of the given (h, r, t) splits; the counts default
    to one past the largest id used."""
    splits = [np.asarray(s, dtype=np.int32).reshape(-1, 3) for s in (train, valid, test)]
    every = np.concatenate(splits)
    if n_entities is None:
        n_entities = int(every[:, [0, 2]].max(initial=-1)) + 1
    if n_relations is None:
        n_relations = int(every[:, 1].max(initial=-1)) + 1
    vocab = Vocab.build([f"e{i}" for i in range(n_entities)],
                        [f"r{i}" for i in range(n_relations)])
    g = KnowledgeGraph(vocab, *splits, n_relations_orig=n_relations)
    return augment_inverse(g) if augment else g


def mined_flows(g: KnowledgeGraph) -> dict[tuple[int, int], dict[tuple[int, ...], float]]:
    """Every entry that path mining stores with the floor and the cap off,
    as {(h, t): {relation path: flow}}."""
    table = build_path_table(g, reliability_floor=0.0, cap=10**6)
    heads, tails = (np.repeat(x, np.diff(table.pair_offsets))
                    for x in np.divmod(table.pair_keys, g.n_entities))
    out: dict[tuple[int, int], dict[tuple[int, ...], float]] = {}
    for h, t, row, v in zip(heads.tolist(), tails.tolist(),
                            table.path_rels[table.entry_path], table.entry_v.tolist()):
        out.setdefault((h, t), {})[path_tuple(row)] = v
    return out


def random_triples(
    rng: np.random.Generator,
    max_entities: int = 8,
    max_relations: int = 4,
    max_edges: int = 16,
) -> tuple[list[tuple[int, int, int]], int, int]:
    n_ent = int(rng.integers(2, max_entities + 1))
    n_rel = int(rng.integers(1, max_relations + 1))
    n_edges = int(rng.integers(1, max_edges + 1))
    triples = [
        (
            int(rng.integers(n_ent)),
            int(rng.integers(n_rel)),
            int(rng.integers(n_ent)),
        )
        for _ in range(n_edges)
    ]
    return triples, n_ent, n_rel


def corrupt(data: st.DataObject, blob: bytes) -> bytes:
    """``blob`` maybe truncated, then with one to four bytes flipped."""
    out = bytearray(blob)
    if data.draw(st.booleans()):
        del out[data.draw(st.integers(0, len(out) - 1)):]
    for _ in range(data.draw(st.integers(1, 4))):
        if out:
            out[data.draw(st.integers(0, len(out) - 1))] ^= data.draw(st.integers(1, 255))
    return bytes(out)


@pytest.fixture
def chain_graph() -> KnowledgeGraph:
    return make_graph(CHAIN)


@pytest.fixture
def diamond_graph() -> KnowledgeGraph:
    return make_graph(DIAMOND)


@pytest.fixture
def tri_graph() -> KnowledgeGraph:
    return make_graph(TRI)


# Collected by the acceptance tests; echoed after the run so the
# per-criterion lines are visible even with output capture on.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter) -> None:
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
