"""Ranking protocol: tie handling, two-stage reranking, split aggregation."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from conftest import make_graph, random_triples
from oracles import full_rank_oracle
from pathkge.evaluator import (
    EvalError,
    evaluate,
    rank_entities,
    tie_rank,
    write_ranks_csv,
    write_report_json,
    write_report_text,
)
from pathkge.models import ModelParams
from pathkge.paths import PathTable, build_path_table


class TestTieRank:
    def test_all_tied(self):
        scores = np.ones(3)
        assert tie_rank(scores, 0, "pessimistic") == 3
        assert tie_rank(scores, 0, "mean") == 2

    def test_unique_scores(self):
        scores = np.array([3.0, 1.0, 2.0])
        assert tie_rank(scores, 0) == 3
        assert tie_rank(scores, 1) == 1
        assert tie_rank(scores, 2) == 2
        assert tie_rank(scores, 2, "mean") == 2

    def test_partial_tie_group(self):
        scores = np.array([1.0, 1.0, 1.0, 2.0])
        assert tie_rank(scores, 0, "pessimistic") == 3
        assert tie_rank(scores, 0, "mean") == 2
        assert tie_rank(scores, 3, "pessimistic") == 4
        assert tie_rank(scores, 3, "mean") == 4

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=40)
        scores[7] = scores[21]  # force one tie
        for policy in ("pessimistic", "mean"):
            base = tie_rank(scores, 7, policy)
            assert tie_rank(scores + 17.5, 7, policy) == base
            assert tie_rank(scores * 3.0, 7, policy) == base

    @pytest.mark.parametrize(
        "scores,gold",
        [
            (np.array([]), 0),
            (np.ones((2, 2)), 0),
            (np.array([1.0, np.nan]), 0),
            (np.array([1.0, np.inf]), 0),
            (np.array([1.0]), 1),
            (np.array([1.0]), -1),
        ],
    )
    def test_rejects_bad_input(self, scores, gold):
        with pytest.raises(EvalError):
            tie_rank(scores, gold)

    def test_rejects_unknown_policy(self):
        with pytest.raises(EvalError, match="policy"):
            tie_rank(np.array([1.0, 2.0]), 0, "optimistic")


def line_model(n_entities: int) -> ModelParams:
    """Entities on a line, zero relation vectors, identity projections.

    Both ranking stages then order candidates by distance to the anchor,
    so window semantics can be checked by hand.
    """
    ent = np.zeros((n_entities, 2), dtype=np.float32)
    ent[:, 0] = np.arange(n_entities)
    rel = np.zeros((2, 2), dtype=np.float32)
    proj = np.tile(np.eye(2, dtype=np.float32), (2, 1, 1))
    return ModelParams(ent, rel, proj)


class TestRankEntities:
    def test_gold_inside_window(self):
        g = make_graph([(3, 0, 0)], n_entities=6, n_relations=1)
        params = line_model(6)
        res = rank_entities(
            params, PathTable.empty(6), g, (1, 0, 0), "head", rerank_k=2
        )
        assert res.raw_rank == 2
        assert res.filtered_rank == 2

    def test_gold_outside_window_keeps_stage1_order(self):
        g = make_graph([(3, 0, 0)], n_entities=6, n_relations=1)
        params = line_model(6)
        res = rank_entities(
            params, PathTable.empty(6), g, (3, 0, 0), "head", rerank_k=2
        )
        # stage 1 window holds entities 0 and 1; among the rest the gold
        # (distance 3) is beaten only by entity 2.
        assert res.raw_rank == 4
        full = rank_entities(
            params, PathTable.empty(6), g, (3, 0, 0), "head", rerank_k=6
        )
        assert full.raw_rank == 4

    def test_filter_drops_known_competitors(self):
        # Entities 1 and 2 beat the gold head 3 but form known facts.
        train = [(3, 0, 0), (1, 0, 0)]
        valid = [(2, 0, 0)]
        g = make_graph(train, valid=valid, n_entities=6, n_relations=1)
        params = line_model(6)
        res = rank_entities(
            params, PathTable.empty(6), g, (3, 0, 0), "head", rerank_k=6
        )
        assert res.raw_rank == 4
        assert res.filtered_rank == 2  # only entity 0 still beats it

    def test_raw_protocol_skips_filtering(self):
        g = make_graph([(3, 0, 0)], n_entities=6, n_relations=1)
        params = line_model(6)
        res = rank_entities(
            params, PathTable.empty(6), g, (3, 0, 0), "head",
            protocol="raw", rerank_k=6,
        )
        assert res.filtered_rank is None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(
            rng, max_entities=8, max_relations=3, max_edges=14
        )
        test = [
            (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
            for _ in range(3)
        ]
        g = make_graph(triples, test=test, n_entities=n_ent, n_relations=n_rel)
        table = build_path_table(g, reliability_floor=0.0)
        params = ModelParams.random(g.n_entities, g.n_relations, 4, 3, rng)
        for h, r, t in test:
            for slot in ("head", "tail"):
                res = rank_entities(
                    params, table, g, (h, r, t), slot, rerank_k=g.n_entities
                )
                raw, filt = full_rank_oracle(params, table, g, h, r, t, slot)
                assert res.raw_rank == raw
                assert res.filtered_rank == filt
                assert res.filtered_rank <= res.raw_rank

    def test_argument_validation(self):
        g = make_graph([(0, 0, 1)], n_entities=3, n_relations=1)
        params = line_model(3)
        empty = PathTable.empty(3)
        with pytest.raises(EvalError, match="rerank_k"):
            rank_entities(params, empty, g, (0, 0, 1), "head", rerank_k=0)
        with pytest.raises(EvalError, match="slot"):
            rank_entities(params, empty, g, (0, 0, 1), "middle")
        with pytest.raises(EvalError, match="protocol"):
            rank_entities(params, empty, g, (0, 0, 1), "head", protocol="strict")
        bad = ModelParams.random(4, 2, 3, 3, np.random.default_rng(0))
        with pytest.raises(EvalError, match="match"):
            rank_entities(bad, empty, g, (0, 0, 1), "head")
        plain = make_graph([(0, 0, 1)], n_entities=3, n_relations=1, augment=False)
        with pytest.raises(EvalError, match="augmented"):
            rank_entities(params, empty, plain, (0, 0, 1), "head")


def perfect_model() -> tuple[ModelParams, "object"]:
    """A 4-entity model where the single test fact is scored perfectly."""
    ent = np.array([[1, 0], [0, 1], [3, 4], [-2, 5]], dtype=np.float32)
    rel = np.array([[-1, 1], [1, -1]], dtype=np.float32)
    proj = np.tile(np.eye(2, dtype=np.float32), (2, 1, 1))
    params = ModelParams(ent, rel, proj)
    g = make_graph([(0, 0, 1)], test=[(0, 0, 1)], n_entities=4, n_relations=1)
    return params, g


class TestEvaluate:
    def test_perfect_model_scores_rank_one(self):
        params, g = perfect_model()
        report = evaluate(params, PathTable.empty(4), g, split="test", rerank_k=4)
        assert report.n_triples == 1
        assert report.n_instances == 2
        assert report.mean_rank_raw == 1.0
        assert report.hits10_raw == 100.0
        assert report.mean_rank_filter == 1.0
        assert report.hits10_filter == 100.0
        assert report.unclassified_instances == 0
        cell = report.per_category["head"]["1-to-1"]
        assert cell == {"hits10_filter": 100.0, "count": 1}
        freq = report.per_frequency["1-3"]
        assert freq == {"mean_rank_raw": 1.0, "count": 2, "relations": 1}

    def test_category_populations_sum(self):
        rng = np.random.default_rng(9)
        triples, n_ent, n_rel = random_triples(rng, max_entities=7, max_relations=3)
        test = [
            (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
            for _ in range(5)
        ]
        g = make_graph(triples, test=test, n_entities=n_ent, n_relations=n_rel)
        params = ModelParams.random(g.n_entities, g.n_relations, 4, 4, rng)
        report = evaluate(params, PathTable.empty(n_ent), g, split="test", rerank_k=3)
        classified = sum(
            cell["count"]
            for slot in report.per_category.values()
            for cell in slot.values()
        )
        assert classified + report.unclassified_instances == report.n_instances
        freq_total = sum(c["count"] for c in report.per_frequency.values())
        assert freq_total + report.unclassified_instances == report.n_instances

    def test_unclassified_counts_test_only_relations(self):
        # relation 1 never occurs in train, so its instances are uncategorized
        g = make_graph(
            [(0, 0, 1)], test=[(0, 1, 2), (1, 0, 2)], n_entities=4, n_relations=2
        )
        params = ModelParams.random(4, 4, 3, 3, np.random.default_rng(2))
        report = evaluate(params, PathTable.empty(4), g, split="test", rerank_k=4)
        assert report.unclassified_instances == 2

    def test_raw_protocol_omits_filtered_metrics(self):
        params, g = perfect_model()
        report = evaluate(
            params, PathTable.empty(4), g, split="test", rerank_k=4, protocol="raw"
        )
        assert report.mean_rank_filter is None
        assert report.hits10_filter is None
        assert all(res.filtered_rank is None for res in report.instances)
        assert report.per_category["head"]["1-to-1"]["count"] == 0

    def test_valid_split_and_tie_policy_echo(self):
        params, g0 = perfect_model()
        g = make_graph([(0, 0, 1)], valid=[(0, 0, 1)], n_entities=4, n_relations=1)
        report = evaluate(
            params, PathTable.empty(4), g, split="valid", rerank_k=4,
            tie_policy="mean",
        )
        assert report.split == "valid"
        assert report.tie_policy == "mean"
        assert report.mean_rank_raw == 1.0

    def test_instances_sorted_by_index_then_slot(self):
        rng = np.random.default_rng(3)
        triples, n_ent, n_rel = random_triples(rng)
        test = [
            (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
            for _ in range(4)
        ]
        g = make_graph(triples, test=test, n_entities=n_ent, n_relations=n_rel)
        params = ModelParams.random(g.n_entities, g.n_relations, 3, 3, rng)
        report = evaluate(params, PathTable.empty(n_ent), g, split="test", rerank_k=2)
        keys = [(res.index, res.slot) for res in report.instances]
        assert keys == sorted(keys)
        assert keys == [(i, s) for i in range(4) for s in ("head", "tail")]

    def test_workers_match_serial(self):
        rng = np.random.default_rng(4)
        triples, n_ent, n_rel = random_triples(rng, max_relations=4)
        test = [
            (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
            for _ in range(6)
        ]
        g = make_graph(triples, test=test, n_entities=n_ent, n_relations=n_rel)
        table = build_path_table(g, reliability_floor=0.0)
        params = ModelParams.random(g.n_entities, g.n_relations, 4, 4, rng)
        serial = evaluate(params, table, g, split="test", rerank_k=n_ent)
        parallel = evaluate(params, table, g, split="test", rerank_k=n_ent, workers=2)
        assert serial.instances == parallel.instances
        assert serial.to_dict() == parallel.to_dict()

    def test_window_recall(self):
        rng = np.random.default_rng(4)
        triples, n_ent, n_rel = random_triples(rng, max_relations=4)
        test = [
            (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
            for _ in range(6)
        ]
        g = make_graph(triples, test=test, n_entities=n_ent, n_relations=n_rel)
        table = build_path_table(g, reliability_floor=0.0)
        params = ModelParams.random(g.n_entities, g.n_relations, 4, 4, rng)
        full = evaluate(params, table, g, split="test", rerank_k=n_ent)
        assert full.window_recall == 1.0
        assert all(res.in_window for res in full.instances)
        # A window of one holds stage 1's best candidate; the gold reaches
        # raw rank 1 exactly when it is that candidate.
        top1 = evaluate(params, table, g, split="test", rerank_k=1)
        hits = [res.raw_rank == 1 for res in top1.instances]
        assert [res.in_window for res in top1.instances] == hits
        assert top1.window_recall == pytest.approx(np.mean(hits))
        assert 0.0 < top1.window_recall < 1.0

    def test_split_validation(self):
        params, g = perfect_model()
        with pytest.raises(EvalError, match="split"):
            evaluate(params, PathTable.empty(4), g, split="train")
        empty = make_graph([(0, 0, 1)], n_entities=4, n_relations=1)
        with pytest.raises(EvalError, match="empty"):
            evaluate(params, PathTable.empty(4), empty, split="test")


class TestReportWriters:
    @pytest.fixture
    def report(self):
        params, g = perfect_model()
        return evaluate(params, PathTable.empty(4), g, split="test", rerank_k=4)

    def test_text_report(self, report, tmp_path):
        out = tmp_path / "report.txt"
        write_report_text(report, out)
        text = out.read_text()
        assert "entity prediction on test" in text
        assert "overall" in text
        assert "1-to-1" in text
        assert "mean rank (raw) by relation train frequency" in text
        assert "window recall: 1.0000 (gold entity among the top 4 of stage 1)" in text

    def test_json_report(self, report, tmp_path):
        out = tmp_path / "report.json"
        write_report_json(report, out, config={"lr": 0.001, "seed": 7})
        payload = json.loads(out.read_text())
        assert payload["overall"]["mean_rank"]["raw"] == 1.0
        assert payload["overall"]["hits_at_10"]["filter"] == 100.0
        assert payload["overall"]["window_recall"] == 1.0
        assert payload["config"]["seed"] == 7
        assert "instances" not in payload

    def test_ranks_csv(self, report, tmp_path):
        out = tmp_path / "ranks.csv"
        write_ranks_csv(report, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "index", "slot", "head", "relation", "tail", "raw_rank", "filtered_rank"
        ]
        assert len(rows) == 1 + report.n_instances
        assert rows[1] == ["0", "head", "0", "0", "1", "1", "1"]
