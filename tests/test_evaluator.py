"""Ranking protocol: tie handling, two-stage reranking, split aggregation."""

from __future__ import annotations

import csv
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph, random_triples
from oracles import full_rank_oracle, windowed_rank_oracle
from pathkge import evaluator
from pathkge.evaluator import (
    SLOTS,
    EvalError,
    _exact,
    _queries,
    _RelationContext,
    _rerank,
    _sq_norms,
    _tie_break,
    evaluate,
    valid_mean_rank,
    write_ranks_csv,
    write_report_json,
    write_report_text,
)
from pathkge.kgdata import KnowledgeGraph
from pathkge.models import ModelParams
from pathkge.paths import PathTable, build_path_table


def tie_rank(scores, gold_index: int, policy: str = "pessimistic") -> int:
    """The rank of one gold among hand-written scores, by the counts the
    verbs pass to ``_tie_break``."""
    scores = np.asarray(scores, dtype=np.float64)
    gold = scores[gold_index]
    return int(_tie_break((scores < gold).sum(), (scores == gold).sum(), policy))


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
            pytest.param(np.array([1.0, np.nan]), 0, id="scores2-0"),
            pytest.param(np.array([1.0, np.inf]), 0, id="scores3-0"),
        ],
    )
    def test_rejects_bad_input(self, monkeypatch, scores, gold):
        # An anchor at the origin and candidates at sqrt(score): the
        # reference row holds exactly these scores.  Evaluation refuses the
        # model whole even though the gold's own score is finite.
        query, proj = np.zeros((1, 1)), np.sqrt(scores)[:, None]
        assert _exact(query, proj, np.zeros(1, dtype=int), np.array([[gold]])).tolist() == [
            [scores[gold]]
        ]
        ent = np.zeros((1 + len(scores), 2), dtype=np.float32)
        ent[1:, 0] = np.sqrt(scores)
        params = ModelParams(
            ent, np.zeros((2, 2), dtype=np.float32), np.tile(np.eye(2, dtype=np.float32), (2, 1, 1))
        )
        g = make_graph([(0, 0, 1 + gold)], test=[(0, 0, 1 + gold)], n_entities=len(ent), n_relations=1)
        monkeypatch.setattr(_RelationContext, "stage1", None)
        with pytest.raises(EvalError, match="finite"):
            evaluate(params, PathTable.empty(len(ent)), g, split="test")

    def test_all_tied_through_evaluate(self):
        # The anchor 0 and both other entities sit at distance 1 from the
        # query point in both directions: a three-way tie, gold included.
        ent = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]], dtype=np.float32)
        rel = np.array([[0.0, 1.0], [0.0, -1.0]], dtype=np.float32)
        params = ModelParams(ent, rel, np.tile(np.eye(2, dtype=np.float32), (2, 1, 1)))
        g = make_graph([(0, 0, 1)], test=[(0, 0, 1)], n_entities=3, n_relations=1)
        for policy, want in (("pessimistic", 3), ("mean", 2)):
            res = rank_one(params, g, "tail", rerank_k=3, tie_policy=policy)
            assert res.raw_rank == res.filtered_rank == want

    def test_rejects_unknown_policy(self):
        g = make_graph([(0, 0, 1)], test=[(0, 0, 1)], n_entities=3, n_relations=1)
        with pytest.raises(EvalError, match="policy"):
            evaluate(line_model(3), PathTable.empty(3), g, tie_policy="optimistic")


def rank_one(params: ModelParams, g, slot: str, table: PathTable | None = None, **kw):
    """The ranks of one slot of the graph's single test fact."""
    table = PathTable.empty(g.n_entities) if table is None else table
    report = evaluate(params, table, g, split="test", **kw)
    (res,) = (res for res in report.instances if res.slot == slot)
    return res


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
        g = make_graph([(3, 0, 0)], test=[(1, 0, 0)], n_entities=6, n_relations=1)
        res = rank_one(line_model(6), g, "head", rerank_k=2)
        assert res.raw_rank == 2
        assert res.filtered_rank == 2

    def test_gold_outside_window_keeps_stage1_order(self):
        g = make_graph([(3, 0, 0)], test=[(3, 0, 0)], n_entities=6, n_relations=1)
        res = rank_one(line_model(6), g, "head", rerank_k=2)
        # stage 1 window holds entities 0 and 1; among the rest the gold
        # (distance 3) is beaten only by entity 2.
        assert res.raw_rank == 4
        assert rank_one(line_model(6), g, "head", rerank_k=6).raw_rank == 4

    def test_filter_drops_known_competitors(self):
        # Entities 1 and 2 beat the gold head 3 but form known facts.
        train = [(3, 0, 0), (1, 0, 0)]
        valid = [(2, 0, 0)]
        g = make_graph(train, valid=valid, test=[(3, 0, 0)], n_entities=6, n_relations=1)
        res = rank_one(line_model(6), g, "head", rerank_k=6)
        assert res.raw_rank == 4
        assert res.filtered_rank == 2  # only entity 0 still beats it

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
        report = evaluate(params, table, g, split="test", rerank_k=g.n_entities)
        assert report.n_instances == 6
        for res in report.instances:
            raw, filt = full_rank_oracle(params, table, g, res.h, res.r, res.t, res.slot)
            assert res.raw_rank == raw
            assert res.filtered_rank == filt
            assert res.filtered_rank <= res.raw_rank

    def test_argument_validation(self):
        g = make_graph([(0, 0, 1)], test=[(0, 0, 1)], n_entities=3, n_relations=1)
        params = line_model(3)
        empty = PathTable.empty(3)
        with pytest.raises(EvalError, match="rerank_k"):
            evaluate(params, empty, g, rerank_k=0)
        bad = ModelParams.random(4, 2, 3, 3, np.random.default_rng(0))
        with pytest.raises(EvalError, match="match"):
            evaluate(bad, empty, g)
        # The early-stop probe ranks through the same queries.
        probed = make_graph([(0, 0, 1)], valid=[(0, 0, 1)], n_entities=3, n_relations=1)
        with pytest.raises(EvalError, match=r"model shape \(4 entities, 2 relations\) "
                                            r"does not match the graph \(3, 2\)"):
            valid_mean_rank(bad, probed)
        plain = make_graph([(0, 0, 1)], test=[(0, 0, 1)], n_entities=3, n_relations=1,
                           augment=False)
        with pytest.raises(EvalError, match="augmented"):
            evaluate(params, empty, plain)

    @pytest.mark.parametrize("triple", [(0, 0, -1), (0, 0, 3), (-1, 0, 1), (0, 2, 1), (0, -1, 1)])
    def test_rejects_ids_outside_the_graph(self, triple):
        # A negative id would otherwise index from the end and rank the
        # wrong entity without a word.  The graph's constructor takes id
        # arrays as given.
        g = make_graph([(0, 0, 1)], n_entities=3, n_relations=1)
        bad = KnowledgeGraph(
            g.vocab, g.train, g.valid, np.array([triple], dtype=np.int32),
            g.n_relations_orig, augmented=True,
        )
        with pytest.raises(EvalError, match="outside the graph"):
            evaluate(line_model(3), PathTable.empty(3), bad)


def grid_model(rng: np.random.Generator, n_entities: int, n_relations: int) -> ModelParams:
    """Parameters in {-1, 0, 1} * 2**-10: every score is computed exactly
    in any order, and equal scores are common."""

    def grid(*shape: int) -> np.ndarray:
        return (rng.integers(-1, 2, size=shape) * 2.0 ** -10).astype(np.float32)

    return ModelParams(grid(n_entities, 2), grid(n_relations, 2), grid(n_relations, 2, 2))


def reference_stage1(ctx: _RelationContext, anchor: int, slot: str) -> np.ndarray:
    """Every entity's stage-1 score by the reference expression, one query
    at a time."""
    proj = ctx.proj_fwd
    if slot == "head":
        return np.square(proj + (ctx.rv - proj[anchor])).sum(axis=1)
    return np.square((proj[anchor] + ctx.rv) - proj).sum(axis=1)


def near_tie_model(
    rng: np.random.Generator, n_entities: int, n_relations: int, big: float
) -> ModelParams:
    """Stage-1 scores that the reference expression and the oracle compute
    exactly (few significant bits) while the GEMM form rounds: every entity
    sits at ``big`` in its first coordinate, so ||c||^2 and ||p_e||^2 are
    large and cancel.  The first two coordinates take three values each, so
    many entities share them; the projection adds 2**-20 of the third to
    the first, which ties them again or sets them apart by far less than
    the GEMM form's rounding error."""
    ent = (rng.integers(-1, 2, size=(n_entities, 3)) * 2.0 ** -7).astype(np.float32)
    ent[:, 2] = rng.integers(-3, 4, size=n_entities) * 2.0 ** -7
    ent[:, 0] += np.float32(big)
    rel = (rng.integers(-1, 2, size=(n_relations, 2)) * 2.0 ** -7).astype(np.float32)
    proj = np.zeros((n_relations, 2, 3), dtype=np.float32)
    proj[:, 0, 0] = proj[:, 1, 1] = 1.0
    proj[:, 0, 2] = 2.0 ** -20
    return ModelParams(ent, rel, proj)


class TestWindowedRanking:
    """Windows smaller than the entity count, with ties at their edge."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**9),
        st.sampled_from(["1", "n//2", "n-1", "n", "n+3"]),
        st.sampled_from(["pessimistic", "mean"]),
        st.booleans(),
    )
    def test_matches_two_stage_oracle(self, seed, k_rule, tie_policy, with_table):
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(
            rng, max_entities=9, max_relations=3, max_edges=16
        )
        test = [
            (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
            for _ in range(6)
        ]
        g = make_graph(triples, test=test, n_entities=n_ent, n_relations=n_rel)
        table = (
            build_path_table(g, reliability_floor=0.0) if with_table else PathTable.empty(n_ent)
        )
        params = grid_model(rng, g.n_entities, g.n_relations)
        k = max(1, {"1": 1, "n//2": n_ent // 2, "n-1": n_ent - 1, "n": n_ent,
                    "n+3": n_ent + 3}[k_rule])
        report = evaluate(params, table, g, split="test", rerank_k=k, tie_policy=tie_policy)
        for res in report.instances:
            raw, filt, in_window = windowed_rank_oracle(
                params, table, g, res.h, res.r, res.t, res.slot, k, tie_policy
            )
            assert (res.raw_rank, res.filtered_rank, res.in_window) == (raw, filt, in_window)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10**9),
        st.sampled_from(["1", "n//2", "n"]),
        st.sampled_from(["pessimistic", "mean"]),
        st.booleans(),
    )
    def test_repeated_queries(self, seed, k_rule, tie_policy, with_table):
        # Two anchors, exact duplicate facts and duplicated entity rows, so
        # most queries have several golds, some of them tied with each other.
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(
            rng, max_entities=9, max_relations=2, max_edges=16
        )
        anchors = rng.choice(n_ent, size=min(2, n_ent), replace=False)
        test = []
        for _ in range(8):
            a, r, e = int(rng.choice(anchors)), int(rng.integers(n_rel)), int(rng.integers(n_ent))
            test.append((a, r, e) if rng.random() < 0.5 else (e, r, a))
        test += [test[i] for i in rng.integers(len(test), size=3)]
        g = make_graph(triples, test=test, n_entities=n_ent, n_relations=n_rel)
        table = (
            build_path_table(g, reliability_floor=0.0) if with_table else PathTable.empty(n_ent)
        )
        params = grid_model(rng, g.n_entities, g.n_relations)
        params.entity_emb[rng.integers(n_ent, size=n_ent)] = params.entity_emb[0]
        k = max(1, {"1": 1, "n//2": n_ent // 2, "n": n_ent}[k_rule])
        report = evaluate(params, table, g, split="test", rerank_k=k, tie_policy=tie_policy)
        queries = {(res.r, res.slot, res.t if res.slot == "head" else res.h)
                   for res in report.instances}
        assert len(queries) < report.n_instances
        for res in report.instances:
            raw, filt, in_window = windowed_rank_oracle(
                params, table, g, res.h, res.r, res.t, res.slot, k, tie_policy
            )
            assert (res.raw_rank, res.filtered_rank, res.in_window) == (raw, filt, in_window)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10**9),
        st.sampled_from([1.0, 2.0**8, 2.0**16]),
        st.sampled_from(["1", "n//2", "n-1", "n"]),
        st.sampled_from(["pessimistic", "mean"]),
    )
    def test_certified_stage1_at_near_ties(self, seed, big, k_rule, tie_policy):
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(
            rng, max_entities=12, max_relations=2, max_edges=16
        )
        test = [
            (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
            for _ in range(8)
        ]
        g = make_graph(triples, test=test, n_entities=n_ent, n_relations=n_rel)
        params = near_tie_model(rng, g.n_entities, g.n_relations, big)
        k = max(1, {"1": 1, "n//2": n_ent // 2, "n-1": n_ent - 1, "n": n_ent}[k_rule])
        table = PathTable.empty(n_ent)
        report = evaluate(params, table, g, split="test", rerank_k=k, tie_policy=tie_policy)
        for res in report.instances:
            raw, filt, in_window = windowed_rank_oracle(
                params, table, g, res.h, res.r, res.t, res.slot, k, tie_policy
            )
            assert (res.raw_rank, res.filtered_rank, res.in_window) == (raw, filt, in_window)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from([1.0, 2.0**8, 2.0**16]), st.integers(2, 40))
    def test_certified_rows_decide_like_the_reference(self, seed, big, n):
        # Every decision stage 1 feeds the ranking: the window of each k and,
        # for each gold, which entities score below it and which tie.
        rng = np.random.default_rng(seed)
        g = make_graph([(0, 0, 1)], n_entities=n, n_relations=1)
        params = near_tie_model(rng, n, g.n_relations, big)
        ctx = _RelationContext(params, g, 0, params.entity_emb.astype(np.float64))
        anchors = np.arange(n)
        q = np.repeat(anchors, rng.integers(1, 4, size=n))
        golds = rng.integers(n, size=len(q))
        for slot in ("head", "tail"):
            refs = [reference_stage1(ctx, anchor, slot) for anchor in anchors]
            for k in {None, 1, n // 2, n - 1, n}:
                st = ctx.stage1(slot, anchors, k)
                if k == n:  # no GEMM: the reference rows themselves
                    assert st.win is None
                    assert st.val.tobytes() == np.array(refs).tobytes()
                    continue
                for window, val, ref in zip(st.win, st.val, refs, strict=True):
                    assert window.tolist() == np.argsort(ref, kind="stable")[:k or 0].tolist()
                    # The rerank adds to these scores: the reference bits.
                    assert val.tobytes() == ref[window].tobytes()
                less, ties, inside, gval = st.counts(st.val, q, golds)
                for i, (query, gold) in enumerate(zip(q, golds)):
                    # Window entities rank above the rest, by stage 1 on each side.
                    ref, e_in = refs[query], np.isin(anchors, st.win[query])
                    same = e_in == e_in[gold]
                    above = (e_in & ~e_in[gold]) | (same & (ref < ref[gold]))
                    tied = same & (ref == ref[gold])
                    assert inside[i] == e_in[gold]
                    assert (less[i], ties[i]) == (above.sum(), tied.sum())
                    if k is not None:
                        got = st.versus(st.val, np.full(n, query), anchors, np.full(n, gold),
                                        np.full(n, inside[i]), np.full(n, gval[i]))
                        assert np.array_equal(got[0], above) and np.array_equal(got[1], tied)

    def test_full_window_skips_the_gemm(self, monkeypatch):
        rng = np.random.default_rng(6)
        triples, n_ent, n_rel = random_triples(rng, max_entities=8, max_relations=2)
        test = [(0, 0, 1), (1, 0, 0), (2, 0, 1)]
        g = make_graph(triples, test=test, n_entities=n_ent + 3, n_relations=n_rel)
        params = ModelParams.random(g.n_entities, g.n_relations, 3, 3, rng)
        gemm = evaluator._gemm_scores
        calls = []

        def spy(*args):
            calls.append(len(args[0]))
            return gemm(*args)

        monkeypatch.setattr(evaluator, "_gemm_scores", spy)
        empty = PathTable.empty(g.n_entities)
        for k in (g.n_entities, g.n_entities + 5):
            evaluate(params, empty, g, split="test", rerank_k=k)
        assert calls == []
        evaluate(params, empty, g, split="test", rerank_k=g.n_entities - 1)
        assert calls

    def test_stage1_runs_once_per_distinct_query(self, monkeypatch):
        rng = np.random.default_rng(5)
        triples, n_ent, n_rel = random_triples(rng, max_entities=8, max_relations=2)
        test = [(0, 0, 1), (0, 0, 2), (0, 0, 2), (3, 0, 2), (1, 0, 0), (1, 0, 0)]
        g = make_graph(triples, test=test, n_entities=n_ent + 4, n_relations=n_rel)
        params = ModelParams.random(g.n_entities, g.n_relations, 3, 3, rng)
        calls = []
        stage1 = _RelationContext.stage1

        def spy(ctx, slot, anchors, k):
            calls.extend((ctx.r, slot, anchor) for anchor in anchors.tolist())
            return stage1(ctx, slot, anchors, k)

        monkeypatch.setattr(_RelationContext, "stage1", spy)
        report = evaluate(params, PathTable.empty(g.n_entities), g, split="test", rerank_k=3)
        assert report.n_instances == 12
        assert sorted(calls) == [
            (0, "head", 0), (0, "head", 1), (0, "head", 2),
            (0, "tail", 0), (0, "tail", 1), (0, "tail", 3),
        ]

    @pytest.mark.parametrize("rows_per_block", [0, 1, 2.5, 3, None])
    def test_query_blocks_cover_every_distinct_query_once(self, monkeypatch, rows_per_block):
        rng = np.random.default_rng(8)
        triples, n_ent, n_rel = random_triples(rng, max_entities=9, max_relations=3)
        test = [(int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
                for _ in range(30)]
        g = make_graph(triples, test=test, n_entities=n_ent, n_relations=n_rel)
        params = ModelParams.random(g.n_entities, g.n_relations, 3, 3, rng)
        if rows_per_block is not None:  # else the default
            monkeypatch.setattr(evaluator, "_BLOCK_BYTES", int(8 * n_ent * rows_per_block))
        limit = max(1, evaluator._BLOCK_BYTES // (8 * n_ent))
        queries, instances, blocks = [], [], 0
        for ctx, slot, anchors, q, golds, rows in _queries(params, g, g.test):
            assert 1 <= len(anchors) <= limit
            assert np.unique(q).tolist() == list(range(len(anchors)))  # each has a fact
            blocks += 1
            anchor_col, gold_col = (2, 0) if slot == "head" else (0, 2)
            queries += [(ctx.r, slot, anchor) for anchor in anchors.tolist()]
            instances += [(row, slot) for row in rows.tolist()]
            assert (g.test[rows, 1] == ctx.r).all()
            assert (g.test[rows, anchor_col] == anchors[q]).all()
            assert golds.tolist() == g.test[rows, gold_col].tolist()
        assert len(queries) == len(set(queries))
        assert sorted(instances) == [(i, slot) for i in range(len(test)) for slot in SLOTS]
        # Each relation and slot is cut into as few blocks as the limit allows.
        per_slot = Counter((r, slot) for r, slot, _ in queries)
        assert max(per_slot.values()) > 3
        assert blocks == sum(-(-count // limit) for count in per_slot.values())

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 40), st.integers(1, 300),
           st.sampled_from([1, 3, None]))
    def test_sq_norms_of_a_row_subset_are_the_same_bits(self, seed, n, d, chunk):
        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        rows = rng.integers(n, size=rng.integers(1, n + 1))
        assert _sq_norms(mat[rows]).tobytes() == _sq_norms(mat.copy())[rows].tobytes()
        # Whole reference rows in chunks of 1, 3 or all query rows, window
        # rows of m entities and single (query, entity) pairs: the bits of
        # the reference row of each query alone.
        c = rng.normal(size=(4, d)) * 10.0 ** rng.integers(-3, 4, size=(4, 1))
        ref = np.array([_sq_norms(query - mat) for query in c])
        q = rng.integers(4, size=5)
        for ents in (None, rng.integers(n, size=(5, int(rng.integers(1, n + 1)))),
                     rng.integers(n, size=(5, 1))):
            m = n if ents is None else ents.shape[1]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluator, "_TERM_BYTES", 8 * m * d * (chunk or len(q)))
                got = _exact(c, mat, q, ents)
            want = ref[q] if ents is None else ref[q[:, None], ents]
            assert got.tobytes() == want.tobytes()
        # Both slots score ||c - p_e||^2 in the reference's bits.
        g = make_graph([(0, 0, 1)], n_entities=n + 1, n_relations=1)
        params = ModelParams.random(n + 1, 2, d, d, rng)
        ctx = _RelationContext(params, g, 0, params.entity_emb.astype(np.float64))
        for slot in ("head", "tail"):
            st = ctx.stage1(slot, np.array([n]), n + 1)
            assert st.val[0].tobytes() == reference_stage1(ctx, n, slot).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40), st.integers(1, 45))
    def test_window_is_stable_argsort_prefix(self, scores, k):
        # Candidates at sqrt(score) on a line and the query point at the
        # origin: the reference row orders them as the scores do.  The
        # anchor, one entity more, sits far out as the worst candidate.
        n = len(scores)
        ent = np.zeros((n + 1, 2), dtype=np.float32)
        ent[:n, 0] = np.sqrt(scores)
        ent[n, 0] = 64.0
        rel = np.array([[-64.0, 0.0], [0.0, 0.0]], dtype=np.float32)
        params = ModelParams(ent, rel, np.tile(np.eye(2, dtype=np.float32), (2, 1, 1)))
        g = make_graph([(0, 0, 1)], n_entities=n + 1, n_relations=1)
        ctx = _RelationContext(params, g, 0, params.entity_emb.astype(np.float64))
        st = ctx.stage1("tail", np.array([n]), k)
        expected = np.argsort(np.array(scores + [64.0**2]), kind="stable")[:k]
        if st.win is None:  # every entity
            assert k >= n + 1
        else:
            assert st.win[0].tolist() == expected.tolist()

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10**9),
        st.sampled_from(["1", "n-1", "n", "n+3"]),
        st.sampled_from(["pessimistic", "mean"]),
        st.booleans(),
        st.sampled_from([1, 2, None]),
    )
    def test_block_kernel_matches_two_stage_oracle(
        self, seed, k_rule, tie_policy, with_table, per_block
    ):
        # Blocks of one query, two or all of them; a few anchors, so that
        # queries have several golds; integer embeddings, so that scores tie
        # at the k-th value and with golds.
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(
            rng, max_entities=9, max_relations=2, max_edges=16
        )
        anchors = rng.choice(n_ent, size=min(3, n_ent), replace=False)
        test = []
        for _ in range(10):
            a, r, e = int(rng.choice(anchors)), int(rng.integers(n_rel)), int(rng.integers(n_ent))
            test.append((a, r, e) if rng.random() < 0.5 else (e, r, a))
        g = make_graph(triples, test=test, n_entities=n_ent, n_relations=n_rel)
        table = (
            build_path_table(g, reliability_floor=0.0) if with_table else PathTable.empty(n_ent)
        )
        shapes = ((n_ent, 2), (g.n_relations, 2), (g.n_relations, 2, 2))
        params = ModelParams(*(rng.integers(-2, 3, size=s).astype(np.float32) for s in shapes))
        k = max(1, {"1": 1, "n-1": n_ent - 1, "n": n_ent, "n+3": n_ent + 3}[k_rule])
        with pytest.MonkeyPatch.context() as mp:
            if per_block is not None:
                mp.setattr(evaluator, "_BLOCK_BYTES", 8 * n_ent * per_block)
            report = evaluate(params, table, g, split="test", rerank_k=k, tie_policy=tie_policy)
        for res in report.instances:
            raw, filt, in_window = windowed_rank_oracle(
                params, table, g, res.h, res.r, res.t, res.slot, k, tie_policy
            )
            assert (res.raw_rank, res.filtered_rank, res.in_window) == (raw, filt, in_window)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from([1.0, 2.0**8, 2.0**16]),
           st.sampled_from([1, 2, None]))
    def test_probe_counts_like_the_reference_rows(self, seed, big, per_block):
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(
            rng, max_entities=12, max_relations=2, max_edges=16
        )
        valid = [(int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
                 for _ in range(8)]
        valid += valid[:3]  # queries with several golds
        g = make_graph(triples, valid=valid, n_entities=n_ent, n_relations=n_rel)
        params = near_tie_model(rng, g.n_entities, g.n_relations, big)
        ent = params.entity_emb.astype(np.float64)
        ranks = []
        for h, r, t in g.valid.tolist():
            ctx = _RelationContext(params, g, r, ent)
            for slot, anchor, gold in (("head", t, h), ("tail", h, t)):
                row = reference_stage1(ctx, anchor, slot)
                ranks.append(int((row <= row[gold]).sum()))  # pessimistic
        with pytest.MonkeyPatch.context() as mp:
            if per_block is not None:
                mp.setattr(evaluator, "_BLOCK_BYTES", 8 * n_ent * per_block)
            assert valid_mean_rank(params, g) == float(np.mean(ranks))


def path_graph(seed: int):
    """A random graph with valid and test facts, its path table and a
    random model."""
    rng = np.random.default_rng(seed)
    triples, n_ent, n_rel = random_triples(rng, max_entities=10, max_relations=3, max_edges=24)

    def facts(count: int) -> list[tuple[int, int, int]]:
        return [(int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
                for _ in range(count)]

    g = make_graph(triples, valid=facts(6), test=facts(8), n_entities=n_ent, n_relations=n_rel)
    table = build_path_table(g, reliability_floor=0.0, cap=int(rng.integers(1, 8)))
    params = ModelParams.random(n_ent, g.n_relations, 3, int(rng.integers(1, 6)), rng)
    return g, table, params


class TestRerankPathTerms:
    """The rerank's path terms: one batch per block of queries, over the
    anchors' stored pairs only."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from(["1", "n//2", "n-1", "n", "n+3"]))
    def test_chunks_and_blocks_change_no_bit(self, seed, k_rule):
        # One stored entry per chunk and one query per block against the
        # defaults: every window, its scores and every report the same.
        # (Outside the window, stage 1 keeps GEMM values, whose bits may
        # depend on the block; the ranks they decide may not.)
        g, table, params = path_graph(seed)
        n = g.n_entities
        k = max(1, {"1": 1, "n//2": n // 2, "n-1": n - 1, "n": n, "n+3": n + 3}[k_rule])

        def run():
            scores = {}
            for ctx, slot, anchors, *_ in _queries(params, g, g.test):
                st = ctx.stage1(slot, anchors, k)
                val = _rerank(params, table, ctx, slot, anchors, st)
                wins = np.broadcast_to(np.arange(n), val.shape) if st.win is None else st.win
                for anchor, window, row in zip(anchors.tolist(), wins, val, strict=True):
                    scores[ctx.r, slot, anchor] = (window.tobytes(), row.tobytes())
            reports = [evaluate(params, table, g, split=split, rerank_k=k)
                       for split in ("valid", "test")]
            return scores, [(rep.to_dict(), rep.instances) for rep in reports]

        default = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluator, "_TERM_BYTES", 1)
            mp.setattr(evaluator, "_BLOCK_BYTES", 8 * n)
            assert run() == default

    @pytest.mark.parametrize("seed", range(6))
    def test_only_stored_pairs_are_scored_in_bounded_chunks(self, monkeypatch, seed):
        g, table, params = path_graph(seed)
        budget = 3
        monkeypatch.setattr(evaluator, "_TERM_BYTES", budget * 8 * params.dim_relation)
        calls = []
        terms = evaluator.path_score_terms

        def spy(params, table, h, r, t):
            calls.append(table.pair_spans(h, t))
            return terms(params, table, h, r, t)

        monkeypatch.setattr(evaluator, "path_score_terms", spy)
        evaluate(params, table, g, split="test", rerank_k=g.n_entities)
        assert calls
        for lo, hi in calls:
            sizes = hi - lo
            assert (sizes > 0).all()  # a pair with no entries is never scored
            assert sizes[:-1].sum() < budget  # a chunk ends once it reaches the budget


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

    # The NaN cases keep their earlier ids.
    @pytest.mark.parametrize(
        "fact,bad_row,rerank_k,value",
        [
            # Entity 5 is inside every window at rerank_k 6.  At 2 it is
            # outside both while both golds are inside theirs.
            pytest.param((1, 0, 0), ("entity_emb", 5), 6, np.nan, id="fact0-nan_row0-6"),
            pytest.param((1, 0, 0), ("entity_emb", 5), 2, np.nan, id="fact1-nan_row1-2"),
            pytest.param((1, 0, 0), ("entity_emb", 5), 6, np.inf, id="inf-6"),
            pytest.param((1, 0, 0), ("entity_emb", 5), 2, np.inf, id="inf-2"),
            # The inverse relation enters only the window's full scores, and
            # both golds of (4, 0, 0) are outside their windows.
            pytest.param((4, 0, 0), ("relation_emb", 1), 2, np.nan, id="fact2-nan_row2-2"),
        ],
    )
    def test_non_finite_model_is_refused(self, monkeypatch, fact, bad_row, rerank_k, value):
        # Refused before any query is ranked, even where the gold's own
        # scores would be finite.
        g = make_graph([(3, 0, 0)], test=[fact], n_entities=6, n_relations=1)
        params = line_model(6)
        getattr(params, bad_row[0])[bad_row[1]] = value
        monkeypatch.setattr(_RelationContext, "stage1", None)
        with pytest.raises(EvalError, match="finite"):
            evaluate(params, PathTable.empty(6), g, split="test", rerank_k=rerank_k)

    @pytest.mark.parametrize("bad,match", [
        ({"tie_policy": "optimistic"}, "tie policy"),
        ({"category_cutoff": 0.0}, "category_cutoff"),
        ({"category_cutoff": float("nan")}, "category_cutoff"),
        ({"table": PathTable.empty(5)}, "path table covers 5 entities"),
        # Mined with a second relation, the table's ids 2 and 3 would select
        # models.relation_rows' padding row of this 1-relation graph, or run
        # past it.
        ({"table": build_path_table(make_graph([(0, 0, 1), (1, 1, 2)], n_entities=4))},
         "relation ids of 4 relations but the graph has 2"),
    ])
    def test_bad_arguments_are_refused_before_ranking(self, monkeypatch, bad, match):
        params, g = perfect_model()
        calls = []
        stage1 = _RelationContext.stage1

        def spy(ctx, *args):
            calls.append(ctx.r)
            return stage1(ctx, *args)

        monkeypatch.setattr(_RelationContext, "stage1", spy)
        args = {"table": PathTable.empty(4), "split": "test", "rerank_k": 4, **bad}
        with pytest.raises(EvalError, match=match):
            evaluate(params, g=g, **args)
        assert calls == []
        evaluate(params, PathTable.empty(4), g, split="test", rerank_k=4)
        assert calls  # the spy sees a good run

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
