"""Training configuration, negative sampling, and the staged SGD loop."""

from __future__ import annotations

import json
import re
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import DIAMOND, TRI, make_graph, random_triples
from oracles import path_evidence as oracle_evidence
from oracles import relation_cardinality as cardinality_oracle
from oracles import add_rows, batch_step, path_tuple, sample_negative, validation_mean_rank
from pathkge import trainer
from pathkge.cli import SyntheticKGSpec, generate_synthetic_kg
from pathkge.evaluator import _RelationContext, valid_mean_rank
from pathkge.kgdata import KnowledgeGraph, augment_inverse, load_dataset
from pathkge.models import ModelError, ModelParams
from pathkge.paths import PathTable, build_path_table
from pathkge.trainer import (
    EpochStats,
    TrainConfig,
    TrainError,
    _add_rows,
    _draw_batch,
    _draw_negatives,
    _fact_paths,
    _head_probs,
    _run_epoch,
    _step,
    init_transe,
    load_config_file,
    save_config_file,
    train,
    train_epoch_ptransr,
)


@pytest.fixture
def small_graph() -> KnowledgeGraph:
    rng = np.random.default_rng(11)
    train = [
        (int(rng.integers(8)), int(rng.integers(2)), int(rng.integers(8)))
        for _ in range(24)
    ]
    valid = [(0, 0, 1), (2, 1, 3)]
    test = [(4, 0, 5)]
    return make_graph(train, valid=valid, test=test, n_entities=8, n_relations=2)


def tiny_cfg(**kw) -> TrainConfig:
    base = dict(
        stage="ptransr",
        dim_entity=6,
        dim_relation=6,
        lr=0.05,
        epochs=3,
        warm_epochs=2,
        warm_lr=0.05,
        batch_size=4800,
        seed=13,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"stage": "blah"},
            {"warm_epochs": -1},
            {"neg_mode": "fancy"},
            {"dim_entity": 0},
            {"batch_size": 0},
            {"lr": 0.0},
            {"margin": 0.0},
            {"epochs": -1},
            {"patience": -1},  # 0 turns early stopping off
            {"seed": -1},
            # A value of another type than the field's default.
            {"epochs": 1.5},
            {"batch_size": 2.5},
            {"seed": 1.5},
            {"dim_entity": True},
            {"lr": "0.1"},
        ],
    )
    def test_validate_rejects(self, bad):
        (key,) = bad
        with pytest.raises(ValueError, match=key):
            TrainConfig(**bad).validate()

    def test_every_field_is_read_by_some_stage(self):
        assert tuple(trainer.STAGE_FIELDS) == trainer.CHOICES["stage"]
        assert set().union(*trainer.STAGE_FIELDS.values()) == set(TrainConfig().as_dict())

    @pytest.mark.parametrize("stage, warm_start, ignored", [
        ("transe", True, ["margin2", "warm_lr", "warm_epochs"]),
        ("transr", True, ["margin2"]),
        ("transr", False, ["margin2", "warm_lr", "warm_epochs"]),
        ("ptransr", True, []),
        ("ptransr", False, ["warm_lr", "warm_epochs"]),
    ])
    def test_ignored_fields(self, stage, warm_start, ignored):
        # Every field away from its stage's default; the int fields take an
        # int, the float ones an int too.
        cfg = TrainConfig.defaults_for_stage(stage).with_updates(dict(
            dim_entity=4, dim_relation=4, lr=1, margin=2, margin2=3, batch_size=5, epochs=6,
            neg_mode="bernoulli", seed=8, warm_lr=2, warm_epochs=9,
        ))
        cfg.validate()
        assert cfg.ignored(warm_start) == ignored
        assert TrainConfig.defaults_for_stage(stage).ignored(warm_start) == []

    def test_defaults_for_stage(self):
        warm = TrainConfig.defaults_for_stage("transe")
        assert (warm.stage, warm.lr, warm.epochs) == ("transe", 0.01, 1000)
        main = TrainConfig.defaults_for_stage("ptransr")
        assert (main.stage, main.lr, main.epochs) == ("ptransr", 0.001, 500)

    def test_with_updates_coercion(self):
        cfg = TrainConfig(lr=1).with_updates(
            {"lr": "0.5", "epochs": "7", "patience": "3", "neg_mode": "bernoulli"}
        )
        assert cfg.lr == 0.5 and cfg.epochs == 7
        assert cfg.patience == 3 and cfg.neg_mode == "bernoulli"
        with pytest.raises(ValueError, match="unknown config key"):
            TrainConfig().with_updates({"nope": "1"})
        with pytest.raises(ValueError, match="bad integer for 'patience'"):
            TrainConfig().with_updates({"patience": "true"})

    def test_config_file_roundtrip(self, tmp_path):
        cfg = tiny_cfg(margin=0.5, neg_mode="bernoulli", patience=3)
        f = tmp_path / "c.txt"
        save_config_file(cfg, f)
        again = TrainConfig().with_updates(load_config_file(f))
        assert again == cfg

    def test_config_file_comments_and_errors(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("# a comment\n\nlr = 0.25  # trailing\n")
        assert load_config_file(f) == {"lr": "0.25"}
        f.write_text("lr 0.25\n")
        with pytest.raises(ValueError, match=":1"):
            load_config_file(f)


def batch_draws(g: KnowledgeGraph, rng, head_probs, facts=None):
    """The corruptions of ``facts`` (default: every train fact) drawn as
    one batch: (corrupted rows, redraws)."""
    facts = g.train if facts is None else facts
    return _draw_negatives(g, np.asarray(facts, dtype=np.int64), np.asarray(head_probs), rng)


class TestNegativeSampling:
    def test_slot_respected(self, small_graph):
        # u < 1.0 always picks the head, u < 0.0 never does.
        g = small_graph
        rng = np.random.default_rng(0)
        h, r, t = (int(x) for x in g.train[0])
        for prob in (1.0, 0.0):
            neg, _ = batch_draws(g, rng, [prob] * g.n_relations, [(h, r, t)] * 20)
            for h2, r2, t2 in neg.tolist():
                assert r2 == r
                assert (t2 == t and h2 != h) if prob else (h2 == h and t2 != t)
            assert not g.train_mask(neg).any()

    def test_relation_corruption(self, tri_graph):
        # Only path hinges corrupt the relation, a batch at a time.
        pos = np.array([(0, 0, 1)] * 20)
        neg, _ = _draw_negatives(tri_graph, pos, None, np.random.default_rng(1))
        assert (neg[:, 1] != 0).all()
        assert (neg[:, [0, 2]] == (0, 1)).all()

    def test_saturated_graph_exhausts(self):
        train = [(h, 0, t) for h in range(2) for t in range(2)]
        g = make_graph(train, n_entities=2, n_relations=1, augment=False)
        slot = "head" if np.random.default_rng(3).random() < 0.5 else "tail"
        refused = f"no negative for (0, 0, 1) (slot {slot}): every value makes a train fact"
        with pytest.raises(TrainError, match=re.escape(refused)):
            batch_draws(g, np.random.default_rng(3), [0.5], [(0, 0, 1)])

    def test_deterministic_given_rng(self, small_graph):
        probs = [0.5] * small_graph.n_relations
        a = batch_draws(small_graph, np.random.default_rng(42), probs)
        b = batch_draws(small_graph, np.random.default_rng(42), probs)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    @pytest.mark.parametrize("neg_mode", ["uniform", "bernoulli"])
    def test_trainer_draws_match_sample_negative(self, small_graph, neg_mode):
        # The trainer keeps one head probability per relation.  A batch of
        # one fact makes the reference sampler's calls, so its draws must be
        # the reference's, one by one, and leave the generator where those
        # calls leave it; TestWarmDraws covers the order within a batch.
        g = small_graph
        bern = _head_probs(g, "bernoulli")
        if neg_mode == "bernoulli":
            assert any(p != 0.5 for p in bern)
        head_probs = _head_probs(g, neg_mode)
        ours, ref = np.random.default_rng(5), np.random.default_rng(5)
        got = want = 0
        for h, r, t in g.train.tolist() * 3:
            p = 0.5 if neg_mode == "uniform" else bern[r]
            (h2, _, t2), more = sample_negative(g, (h, r, t), {"head": p, "tail": 1.0 - p}, ref)
            neg, redraws = batch_draws(g, ours, head_probs, [(h, r, t)])
            assert neg.tolist() == [[h2, r, t2]]
            got, want = got + redraws, want + more
        assert got == want > 0
        assert ours.bit_generator.state == ref.bit_generator.state
        assert ours.random() == ref.random()

    def test_training_on_a_saturated_graph_exhausts(self, tmp_path):
        # Refused in the first warm-start batch, so no run directory is made.
        g = make_graph([(h, 0, t) for h in range(2) for t in range(2)], n_entities=2,
                       n_relations=1)
        with pytest.raises(TrainError, match="every value makes a train fact"):
            train(g, None, tiny_cfg(stage="transr", warm_epochs=1), out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_a_dense_graph_trains_at_every_seed(self, seed):
        # Entity 0 is linked by relation 0 to the 49 others, so a tail
        # corruption of (0, 0, t) leaves the train set only as (0, 0, 0):
        # it takes 50 draws on average, and more than 100 one time in eight.
        facts = [(0, 0, t) for t in range(1, 50)] + [(e, 1, e + 1) for e in range(1, 49)]
        g = make_graph(facts, n_entities=50, n_relations=2)
        cfg = TrainConfig.defaults_for_stage("transe").with_updates(
            {"epochs": 5, "batch_size": 10, "neg_mode": "bernoulli", "seed": seed})
        _, records = train(g, None, cfg)
        assert sum("loss" in rec for rec in records) == 5

    def test_bernoulli_head_probability(self):
        g = make_graph([(0, 0, 1), (0, 0, 2)], n_entities=3, n_relations=1,
                       augment=False)
        probs = _head_probs(g, "bernoulli")
        # tph = 2, hpt = 1 -> corrupt the head 2/3 of the time.
        assert probs[0] == pytest.approx(2.0 / 3.0)
        assert _head_probs(g, "uniform") == [0.5]

    def test_bernoulli_probs_match_set_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            triples, n_ent, n_rel = random_triples(rng)
            g = make_graph(triples, n_entities=n_ent, n_relations=n_rel + 1)
            facts, tph, hpt = cardinality_oracle(g.train.tolist(), g.n_relations)
            assert _head_probs(g, "bernoulli") == [
                a / (a + b) if n else 0.5 for n, a, b in zip(facts, tph, hpt)
            ]


class _Held:
    """A stand-in graph for the sampler: ``n`` entities, ``n_rel``
    relations, and as train facts the rows whose key ``rule`` picks.
    Records every row it is asked about."""

    def __init__(self, n: int, n_rel: int, rule):
        self.n_entities, self.n_relations, self.rule, self.asked = n, n_rel, rule, []

    def train_mask(self, rows: np.ndarray) -> np.ndarray:
        rows = rows.tolist()
        self.asked += rows
        n, n_rel = self.n_entities, self.n_relations
        return np.array([self.rule((h * n_rel + r) * n + t) for h, r, t in rows], dtype=bool)


def numpy_draws(rng, held: _Held, facts, head_probs):
    """The batch sampler's stream through numpy's scalar calls: one
    ``random()`` per fact for the slot, then rounds of one ``integers(n)``
    per fact whose corruption is still held, until none is.  After every n
    rounds each held fact, in order, asks for all n values of its slot and
    is refused if all are held."""
    n = held.n_entities
    heads = [rng.random() < head_probs[r] for _, r, _ in facts]
    rows = [list(fact) for fact in facts]
    pending, redraws, rounds = list(range(len(rows))), 0, 0
    while pending:
        for i in pending:
            rows[i][0 if heads[i] else 2] = int(rng.integers(n))
        mask = held.train_mask(np.array([rows[i] for i in pending]).reshape(-1, 3))
        pending = [i for i, held_row in zip(pending, mask.tolist()) if held_row]
        redraws += len(pending)
        rounds += 1
        for i in pending if rounds % n == 0 else ():
            col = 0 if heads[i] else 2
            every = [rows[i][:col] + [v] + rows[i][col + 1:] for v in range(n)]
            if held.train_mask(np.array(every)).all():
                raise TrainError(f"no negative for {tuple(facts[i])} (slot "
                                 f"{('head', 'tail')[col // 2]}): every value makes a train fact")
    return rows, redraws


class TestWarmDraws:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 50, 2_500, 2**31 + 1]),
        st.sampled_from(["fresh", "buffered", "spent"]), st.integers(0, 2), st.data(),
    )
    def test_decoded_draws_are_numpys(self, seed, n, start, reject, data):
        # A batch's draws are numpy's scalar calls in batch order, whatever
        # the generator's 32-bit buffer holds when the batch starts: "spent"
        # leaves it empty but its last high half kept.  n = 2**31 + 1
        # rejects about half of all 32-bit halves, so Lemire's retry runs.
        rng = np.random.default_rng(seed)
        for _ in range(("fresh", "buffered", "spent").index(start)):
            rng.integers(7)
        ref = np.random.default_rng()
        ref.bit_generator.state = rng.bit_generator.state
        n_rel = data.draw(st.integers(1, 3))
        ent = st.integers(0, min(n, 6) - 1)
        facts = data.draw(st.lists(st.tuples(ent, st.integers(0, n_rel - 1), ent),
                                   min_size=1, max_size=40))
        probs = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]),
                                   min_size=n_rel, max_size=n_rel))
        # Held by a multiplicative hash, not by key % 3: a head's keys step by
        # n_rel * n, a multiple of 3 at n = 2**31 + 1, so every head of a
        # held fact would be held, and the sampler checks a slot's n values
        # only every n rounds.  Small n still saturate some slots.
        rule = lambda key: key * 2654435761 % 2**32 % 3 < reject  # noqa: E731
        ours_held, ref_held = _Held(n, n_rel, rule), _Held(n, n_rel, rule)
        try:
            want = numpy_draws(ref, ref_held, facts, probs)
        except TrainError as exc:  # every candidate of some fact is held
            with pytest.raises(TrainError, match=re.escape(str(exc))):
                _draw_negatives(ours_held, np.array(facts), np.array(probs), rng)
            assert ours_held.asked == ref_held.asked
            return
        neg, redraws = _draw_negatives(ours_held, np.array(facts), np.array(probs), rng)
        assert ours_held.asked == ref_held.asked
        assert (neg.tolist(), redraws) == want
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_one_entity_graph_exhausts(self):
        # numpy's integers(1) takes no bits and gives 0: every corruption is
        # the fact itself, so the first fact is refused after one round.
        g = make_graph([(0, 0, 0)], n_entities=1, n_relations=1)
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        assert rng.integers(1) == 0 and rng.bit_generator.state == state
        slot = "head" if rng.random() < 0.5 else "tail"
        refused = f"no negative for (0, 0, 0) (slot {slot}): every value makes a train fact"
        with pytest.raises(TrainError, match=re.escape(refused)):
            batch_draws(g, np.random.default_rng(2), [0.5, 0.5])


class TestBatchSampler:
    def test_draws_leave_the_train_set(self, small_graph):
        g = small_graph
        pos = np.repeat(g.train.astype(np.int64), 40, axis=0)
        probs = np.asarray(_head_probs(g, "bernoulli"))
        for head_probs, slots in ((probs, [0, 2]), (None, [1])):
            neg, redraws = _draw_negatives(g, pos, head_probs, np.random.default_rng(3))
            assert not g.train_mask(neg).any()
            changed = neg != pos
            assert (changed.sum(axis=1) == 1).all()
            assert set(np.flatnonzero(changed.any(axis=0)).tolist()) == set(slots)
            assert redraws > 0  # a dense graph: some first draws are train facts

    def test_head_share_follows_head_probs(self):
        g = make_graph([(0, 0, 1), (0, 0, 2), (0, 0, 3), (4, 1, 5)], n_entities=12,
                       n_relations=2)
        probs = np.asarray(_head_probs(g, "bernoulli"))
        assert len(set(probs.tolist())) > 1
        pos = np.repeat(g.train.astype(np.int64), 500, axis=0)
        neg, _ = _draw_negatives(g, pos, probs, np.random.default_rng(9))
        head = neg[:, 0] != pos[:, 0]
        # The batch's first draws pick the slots, one uniform per fact.
        u = np.random.default_rng(9).random(len(pos))
        assert np.array_equal(head, u < probs[pos[:, 1]])
        for r in range(g.n_relations):
            share = head[pos[:, 1] == r].mean()
            n = (pos[:, 1] == r).sum()
            assert abs(share - probs[r]) < 4 * np.sqrt(probs[r] * (1 - probs[r]) / n)

    def test_saturated_graph_exhausts(self):
        train = [(h, 0, t) for h in range(2) for t in range(2)]
        g = make_graph(train, n_entities=2, n_relations=1, augment=False)
        with pytest.raises(TrainError, match="every value makes a train fact"):
            _draw_negatives(g, g.train.astype(np.int64), np.array([0.5]),
                            np.random.default_rng(3))

    def test_empty_table_draws_nothing_extra(self, small_graph):
        g = small_graph
        probs = np.asarray(_head_probs(g, "uniform"))
        fact = np.random.default_rng(0).permutation(len(g.train))
        ours, ref = np.random.default_rng(4), np.random.default_rng(4)
        batch = _draw_batch(g, _fact_paths(g, PathTable.empty(g.n_entities)), probs, ours, fact)
        neg, redraws = _draw_negatives(g, g.train[fact].astype(np.int64), probs, ref)
        assert np.array_equal(batch.neg, neg) and batch.redraws == redraws
        assert len(batch.entry) == len(batch.rel2) == 0
        assert ours.random() == ref.random()
        # With paths, each path hinge gets a corrupted relation of its own.
        table = build_path_table(g, reliability_floor=0.0)
        batch = _draw_batch(g, _fact_paths(g, table), probs, np.random.default_rng(4), fact)
        assert np.array_equal(batch.neg, neg)
        assert len(batch.rel2) == len(batch.entry) > 0
        assert (batch.rel2 != batch.pos[batch.owner, 1]).all()


def many_runs_graph() -> KnowledgeGraph:
    """30 relations after augmentation with 3-11 facts each: a third of the
    facts holds one to four of most relations."""
    rng = np.random.default_rng(23)
    train = {(int(rng.integers(20)), int(rng.integers(15)), int(rng.integers(20)))
             for _ in range(95)}
    return make_graph(sorted(train), n_entities=20, n_relations=15)


class TestBatchStep:
    # The small graph's cases keep their ids; a pair chunk other than the
    # default adds "-path1" or "-path3".  On the "runs" graph a block holds
    # dozens of relation runs, a chunk of 3 cuts them mid-relation, and a
    # batch holds many distinct (path, relation) pairs.
    @pytest.mark.parametrize("graph,stage,chunk,block", [
        pytest.param(graph, stage, chunk, block,
                     id=f"{'' if graph == 'small' else graph + '-'}{stage}-{chunk}"
                        f"{'' if block is None else f'-path{block}'}")
        for graph in ("small", "runs") for stage in ("transr", "ptransr")
        for chunk in (trainer._CHUNK, 3, 1)
        for block in ((None,) if stage == "transr" else (None, 1, 3))
    ])
    def test_step_matches_reference(self, small_graph, graph, stage, chunk, block, monkeypatch):
        # The default chunk holds the whole batch.  A chunk of 3 splits
        # relation groups, and one of 1 makes a block of each fact, often
        # with no active hinge; a pair chunk of 1 or 3 splits the pairs of
        # a path or a relation, so the gradient sums and their per-path and
        # per-relation reductions are carried across chunks.
        monkeypatch.setattr(trainer, "_CHUNK", chunk)
        if block is not None:
            monkeypatch.setattr(trainer, "_pair_chunk", lambda params: block)
        g = small_graph if graph == "small" else many_runs_graph()
        table = (build_path_table(g, reliability_floor=0.0) if stage == "ptransr"
                 else PathTable.empty(g.n_entities))
        paths = _fact_paths(g, table)
        rng = np.random.default_rng(17)
        params = ModelParams.random(g.n_entities, g.n_relations, 5, 4, rng)
        params.proj *= np.float32(1.6)  # so that the M_r bound bites
        ref = params.copy()
        cfg = tiny_cfg(stage=stage, margin=2.0, margin2=1.0, lr=0.05)
        probs = np.asarray(_head_probs(g, "bernoulli"))
        totals = np.zeros(3, dtype=np.int64)
        for fact in np.array_split(rng.permutation(len(g.train)), 3):
            batch = _draw_batch(g, paths, probs, rng, fact)
            if graph == "runs":
                assert len(np.unique(batch.pos[:, 1])) >= 20
            got = _step(params, paths, cfg, batch)
            want = batch_step(ref, table, batch.pos.tolist(), batch.neg.tolist(),
                              batch.rel2.tolist(), cfg.margin, cfg.margin2, cfg.lr)
            assert got[1:] == want[1:]
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            for ours, theirs in ((params.entity_emb, ref.entity_emb),
                                 (params.relation_emb, ref.relation_emb),
                                 (params.proj, ref.proj)):
                np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-9)
            totals += got[1:]
        assert 0 < totals[0] < len(g.train) and totals[2] > 0
        assert (totals[1] > 0) == (stage == "ptransr")

    @pytest.mark.parametrize("size", [None, 5])
    def test_relatedness_is_read_once_per_distinct_path_relation(self, size, monkeypatch):
        # A batch reads P(r2 | p) once, with exactly its distinct (path,
        # corrupted relation) pairs, ascending, and searches nothing per
        # hinge: one call for the batch's path hinges, none for the facts,
        # whether its pairs fit one chunk (the default) or take many.
        g = many_runs_graph()
        table = build_path_table(g, reliability_floor=0.0)
        paths = _fact_paths(g, table)
        rng = np.random.default_rng(3)
        params = ModelParams.random(g.n_entities, g.n_relations, 5, 4, rng)
        batch = _draw_batch(g, paths, np.asarray(_head_probs(g, "uniform")), rng,
                            rng.permutation(len(g.train)))
        pids = paths.evidence.path[batch.entry].tolist()
        pairs = set(zip(pids, batch.pos[batch.owner, 1].tolist()))
        want = sorted(set(zip(pids, batch.rel2.tolist())))
        if size is None:
            assert len(pairs | set(want)) <= trainer._pair_chunk(params)
        else:
            assert len(pairs | set(want)) > 3 * size
            monkeypatch.setattr(trainer, "_pair_chunk", lambda params: size)
        calls = []
        relatedness = PathTable.relatedness

        def spy(self, r, path):
            calls.append(list(zip(path.tolist(), r.tolist())))
            return relatedness(self, r, path)

        monkeypatch.setattr(PathTable, "relatedness", spy)
        _step(params, paths, tiny_cfg(dim_entity=5, dim_relation=4), batch)
        assert calls == [want] and len(want) < len(pids)  # pairs recur, each read once

    @pytest.mark.parametrize("form", ["every row", "distinct ids"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_scatter_matches_per_row_oracle_bit_for_bit(self, form, data):
        # _add_rows sums into every row of acc when the block has at least
        # as many rows, else over the block's distinct ids only.  Ids come
        # from a pool of at most four, so runs of three or more rows of one
        # id, which tell its float order from np.add.reduceat's, are
        # common.  Blocks miss ids, may be empty (the distinct-ids form),
        # may be one column wide, and hold int32 or int64 ids.
        n = data.draw(st.integers(1, 20), label="rows of acc")
        k = data.draw(st.integers(1, 4), label="width")
        m = data.draw(st.integers(n, 3 * n) if form == "every row" else st.integers(0, n - 1),
                      label="block rows")
        dtype = data.draw(st.sampled_from([np.int32, np.int64]), label="id dtype")
        pool = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4), label="ids")
        ids = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m)),
                       dtype=dtype)
        floats = st.floats(-1e3, 1e3, allow_nan=False)
        grads = np.array(data.draw(st.lists(floats, min_size=m * k, max_size=m * k)),
                         dtype=np.float64).reshape(m, k)
        # + 0.0 maps a drawn -0.0 to +0.0: the trainer's sums start at +0.0
        # and never hold -0.0, and the every-row form adds 0.0 to a row
        # the block misses.
        acc = np.array(data.draw(st.lists(floats, min_size=n * k, max_size=n * k)),
                       dtype=np.float64).reshape(n, k) + 0.0
        want = acc.copy()
        add_rows(want, ids, grads)
        _add_rows(acc, ids, grads)
        assert acc.tobytes() == want.tobytes()

    def test_epoch_memory_is_bounded_by_chunks(self):
        # A batch larger than the train set: the step's float arrays must
        # stay those of a chunk, not of the batch.
        rng = np.random.default_rng(5)
        n_ent, dim = 400, 64
        facts = np.stack([rng.integers(n_ent, size=4000), rng.integers(4, size=4000),
                          rng.integers(n_ent, size=4000)], axis=1)
        g = make_graph(facts.tolist(), n_entities=n_ent, n_relations=4)
        paths = _fact_paths(g, build_path_table(g, reliability_floor=0.0))
        params = ModelParams.random(g.n_entities, g.n_relations, dim, dim, rng)
        cfg = tiny_cfg(dim_entity=dim, dim_relation=dim, batch_size=10 * len(g.train))
        probs = _head_probs(g, "uniform")
        g.train_mask(g.train[:1])  # build the index before measuring
        # The bound of the former blocks of 256 facts, which gathered four
        # entity rows per fact (h, t, h', t'); blocks of 512 facts, two
        # differences a fact, must meet it too.
        chunk_bytes = 256 * 4 * dim * 8
        tracemalloc.start()
        try:
            _run_epoch(g, paths, params, cfg, rng, probs, epoch=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * chunk_bytes, (peak, chunk_bytes)

    def test_fact_block_memory_is_bounded_by_two_rows_a_fact(self):
        # One projected block of _CHUNK facts, every hinge active, over 17
        # relations of dim 50.  Its float rows are those of each fact's two
        # differences, in multiples of _CHUNK * 2 * dim * 8 bytes: the
        # differences, their projections, the active rows and the returned
        # gradients peak near 5.1.  Gathering and projecting h, h', t and
        # t' peaked near 8.9.
        rng = np.random.default_rng(5)
        n_ent, n_rel, dim, n = 1000, 17, 50, trainer._CHUNK
        params = ModelParams.random(n_ent, n_rel, dim, dim, rng)
        pos = np.stack([rng.integers(n_ent, size=n), np.sort(rng.integers(n_rel, size=n)),
                        rng.integers(n_ent, size=n)], axis=1)
        neg = pos.copy()
        neg[:, 2] = rng.integers(n_ent, size=n)
        proj_g = np.zeros((n_rel, dim, dim))
        tracemalloc.start()
        try:
            on = trainer._fact_block(params, pos, neg, 1e6, proj_g)[1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert on.all()
        row_bytes = n * 2 * dim * 8
        assert peak < 7 * row_bytes, (peak, row_bytes)

    def test_epoch_memory_is_bounded_by_path_blocks(self):
        # 48 relations after augmentation and no reliability floor: a batch
        # of every train fact holds ~9,500 path hinges with ~17,000 distinct
        # (path, relation) pairs, nine chunks of them.  The step's dim-wide
        # pair arrays must stay those of a chunk, whose pair bytes are
        # chunk * dim * 8.  Measured in multiples of them: the fact blocks
        # and the batch's per-hinge arrays peak near 5, the default chunks
        # near 6.4, and gap rows of every pair at once near 22.
        rng = np.random.default_rng(5)
        n_ent, n_rel, dim, n = 60, 24, 64, 600
        facts = np.stack([rng.integers(n_ent, size=n), rng.integers(n_rel, size=n),
                          rng.integers(n_ent, size=n)], axis=1)
        g = make_graph(facts.tolist(), n_entities=n_ent, n_relations=n_rel)
        paths = _fact_paths(g, build_path_table(g, reliability_floor=0.0))
        params = ModelParams.random(g.n_entities, g.n_relations, dim, dim, rng)
        cfg = tiny_cfg(dim_entity=dim, dim_relation=dim, batch_size=len(g.train))
        probs = _head_probs(g, "uniform")
        g.train_mask(g.train[:1])  # build the index before measuring
        size = trainer._pair_chunk(params)
        first = _draw_batch(g, paths, np.asarray(probs), np.random.default_rng(0),
                            np.arange(len(g.train)))
        pids = paths.evidence.path[first.entry]
        keys = np.concatenate((pids * n_rel * 2 + first.pos[first.owner, 1],
                               pids * n_rel * 2 + first.rel2))
        assert len(np.unique(keys)) > 8 * size
        pair_bytes = size * dim * 8
        tracemalloc.start()
        try:
            _run_epoch(g, paths, params, cfg, rng, probs, epoch=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * pair_bytes, (peak, pair_bytes)

    def test_epoch_memory_is_bounded_with_repeated_pairs(self):
        # 3 relations (6 after augmentation), 42 paths and no reliability
        # floor: a batch of every train fact holds ~25,000 path hinges over
        # only ~250 distinct (path, relation) pairs, one chunk.  The batch's
        # per-hinge arrays are float or int scalars a hinge and must stay
        # under the bound of the dim-wide test above: they peak near 6.5
        # chunks' pair bytes, where one dim-wide row a hinge would add ~12.
        rng = np.random.default_rng(5)
        n_ent, n_rel, dim, n = 100, 3, 64, 1500
        facts = np.stack([rng.integers(n_ent, size=n), rng.integers(n_rel, size=n),
                          rng.integers(n_ent, size=n)], axis=1)
        g = make_graph(facts.tolist(), n_entities=n_ent, n_relations=n_rel)
        paths = _fact_paths(g, build_path_table(g, reliability_floor=0.0))
        params = ModelParams.random(g.n_entities, g.n_relations, dim, dim, rng)
        cfg = tiny_cfg(dim_entity=dim, dim_relation=dim, batch_size=len(g.train))
        probs = _head_probs(g, "uniform")
        g.train_mask(g.train[:1])  # build the index before measuring
        size = trainer._pair_chunk(params)
        first = _draw_batch(g, paths, np.asarray(probs), np.random.default_rng(0),
                            np.arange(len(g.train)))
        pids = paths.evidence.path[first.entry]
        keys = np.concatenate((pids * n_rel * 2 + first.pos[first.owner, 1],
                               pids * n_rel * 2 + first.rel2))
        pair_bytes = size * dim * 8
        assert len(np.unique(pids)) <= 42 and len(np.unique(keys)) < 300
        assert len(first.entry) * dim * 8 > 8 * pair_bytes
        tracemalloc.start()
        try:
            _run_epoch(g, paths, params, cfg, rng, probs, epoch=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * pair_bytes, (peak, pair_bytes)

    def test_a_batch_whose_pairs_fit_one_chunk_is_one_chunk(self, tmp_path, monkeypatch):
        # fit-T's shape: the default synthetic graph of seed 7, its table at
        # the default floor, dim 20 and a batch of 100 facts, whose ~500 path
        # hinges hold fewer distinct pairs than a chunk.  The default chunk
        # and an unbounded one must leave the same bytes and counts.
        generate_synthetic_kg(SyntheticKGSpec(seed=7), tmp_path)
        splits = (tmp_path / f"{name}.txt" for name in ("train", "valid", "test"))
        g = augment_inverse(load_dataset(*splits))
        paths = _fact_paths(g, build_path_table(g))
        rng = np.random.default_rng(7)
        params = ModelParams.random(g.n_entities, g.n_relations, 20, 20, rng)
        cfg = tiny_cfg(dim_entity=20, dim_relation=20, batch_size=100, lr=0.01, margin2=0.5)
        batch = _draw_batch(g, paths, np.asarray(_head_probs(g, "uniform")), rng,
                            rng.permutation(len(g.train))[:100])
        pids = paths.evidence.path[batch.entry]
        keys = np.concatenate((pids * g.n_relations + batch.pos[batch.owner, 1],
                               pids * g.n_relations + batch.rel2))
        assert 2 * len(batch.fact) < len(batch.entry)
        assert len(np.unique(keys)) <= trainer._pair_chunk(params)
        unbounded = params.copy()
        got = _step(params, paths, cfg, batch)
        monkeypatch.setattr(trainer, "_pair_chunk", lambda params: 10**9)
        want = _step(unbounded, paths, cfg, batch)
        assert got == want
        for ours, theirs in ((params.entity_emb, unbounded.entity_emb),
                             (params.relation_emb, unbounded.relation_emb),
                             (params.proj, unbounded.proj)):
            assert np.array_equal(ours, theirs)


class TestWarmStart:
    @pytest.mark.parametrize("graph,chunk", [
        (graph, chunk) for graph in ("small", "runs") for chunk in (trainer._CHUNK, 3, 1)
    ])
    def test_warm_step_matches_reference(self, small_graph, graph, chunk, monkeypatch):
        # The per-fact reference with identity projections and summed
        # relation rows; a chunk of 3 splits relation runs across blocks,
        # and one of 1 makes a block of each fact, often with no active hinge.
        monkeypatch.setattr(trainer, "_CHUNK", chunk)
        g = small_graph if graph == "small" else many_runs_graph()
        empty = PathTable.empty(g.n_entities)
        rng = np.random.default_rng(19)
        params = ModelParams.random(g.n_entities, g.n_relations, 5, 5, rng)
        eye = params.proj.tobytes()
        ref = params.copy()
        cfg = tiny_cfg(stage="transe", margin=2.0, lr=0.05)
        probs = np.asarray(_head_probs(g, "bernoulli"))
        fact_v = 0
        for fact in np.array_split(rng.permutation(len(g.train)), 3):
            batch = _draw_batch(g, None, probs, rng, fact)
            assert len(batch.entry) == len(batch.rel2) == 0
            got = _step(params, None, cfg, batch)
            want = batch_step(ref, empty, batch.pos.tolist(), batch.neg.tolist(), [],
                              cfg.margin, cfg.margin2, cfg.lr, warm=True)
            assert got[1:] == want[1:]
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            for ours, theirs in ((params.entity_emb, ref.entity_emb),
                                 (params.relation_emb, ref.relation_emb)):
                np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-9)
            assert params.proj.tobytes() == ref.proj.tobytes() == eye
            fact_v += got[1]
        assert 0 < fact_v < len(g.train)

    def test_projections_stay_identity(self, small_graph):
        # Large steps in small batches: M_r is never read, moved or scaled.
        cfg = tiny_cfg(stage="transe", epochs=5, lr=0.5, batch_size=5, neg_mode="bernoulli")
        params = init_transe(small_graph, cfg)
        eye = np.eye(6, dtype=np.float32)
        assert params.proj.tobytes() == np.repeat(eye[None], small_graph.n_relations, 0).tobytes()

    def test_other_bit_generators_run(self, small_graph):
        # The sampler makes only numpy's own calls, on any bit generator.
        cfg = tiny_cfg(stage="transe", epochs=3)
        records = []
        mt = [init_transe(small_graph, cfg, np.random.Generator(np.random.MT19937(0)),
                          records.append) for _ in range(2)]
        pcg = init_transe(small_graph, cfg, np.random.default_rng(0))
        assert mt[0].entity_emb.tobytes() == mt[1].entity_emb.tobytes()
        assert mt[0].entity_emb.tobytes() != pcg.entity_emb.tobytes()
        assert all(r["violations"] > 0 for r in records)

    def test_no_epoch_builds_no_index(self, small_graph, monkeypatch):
        # `train --stage transe --epochs 0` draws nothing, so it must build
        # neither the sorted train keys nor any path evidence.
        monkeypatch.setattr(trainer, "_fact_paths", None)  # a call would fail
        indexes = {name for name, attr in vars(KnowledgeGraph).items()
                   if isinstance(attr, cached_property)}
        for neg_mode in ("uniform", "bernoulli"):
            cfg = tiny_cfg(stage="transe", epochs=0, neg_mode=neg_mode)
            init_transe(small_graph, cfg)
            train(small_graph, None, cfg)
            assert not indexes & set(vars(small_graph))

    def test_loss_decreases_and_constraints_hold(self, small_graph):
        records = []
        cfg = tiny_cfg(stage="transe", epochs=30, lr=0.05)
        params = init_transe(small_graph, cfg, emit=records.append)
        losses = [r["loss"] for r in records]
        assert losses[-1] < losses[0]
        # Every batch renormalizes the rows it moved, and the init rows are
        # unit-norm: every row is unit-norm on return.
        for emb in (params.entity_emb, params.relation_emb):
            norms = np.linalg.norm(emb.astype(np.float64), axis=1)
            np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-6)
        for r in range(small_graph.n_relations):
            assert np.array_equal(
                params.proj[r], np.eye(6, dtype=np.float32)
            )

    def test_requires_square_dims(self, small_graph):
        with pytest.raises(TrainError):
            init_transe(small_graph, tiny_cfg(stage="transe", dim_relation=4))

    def test_requires_augmented(self):
        g = make_graph(TRI, augment=False)
        with pytest.raises(TrainError):
            init_transe(g, tiny_cfg(stage="transe"))


class TestTrain:
    def test_transr_equals_ptransr_with_empty_table(self, small_graph):
        pa, _ = train(small_graph, None, tiny_cfg(stage="transr"))
        pb, _ = train(
            small_graph,
            PathTable.empty(small_graph.n_entities),
            tiny_cfg(stage="ptransr"),
        )
        assert np.array_equal(pa.entity_emb, pb.entity_emb)
        assert np.array_equal(pa.relation_emb, pb.relation_emb)
        assert np.array_equal(pa.proj, pb.proj)

    def test_rerun_is_bitwise_identical(self, small_graph):
        table = build_path_table(small_graph, reliability_floor=0.0)
        pa, _ = train(small_graph, table, tiny_cfg())
        pb, _ = train(small_graph, table, tiny_cfg())
        assert np.array_equal(pa.entity_emb, pb.entity_emb)
        assert np.array_equal(pa.relation_emb, pb.relation_emb)
        assert np.array_equal(pa.proj, pb.proj)

    def test_artifacts_and_log(self, small_graph, tmp_path):
        table = build_path_table(small_graph, reliability_floor=0.0)
        out = tmp_path / "run"
        params, records = train(small_graph, table, tiny_cfg(), out_dir=out)
        assert (out / "model.ptrm").is_file()
        assert (out / "config.txt").is_file()
        lines = (out / "train_log.jsonl").read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["event"] == "config"
        assert parsed[0]["stage"] == "ptransr"
        epoch_recs = [p for p in parsed if "epoch" in p and "loss" in p]
        assert [p["stage"] for p in epoch_recs] == ["transe"] * 2 + ["ptransr"] * 3
        for rec in epoch_recs:
            assert np.isfinite(rec["loss"])
            assert rec["violations"] >= 0
            assert rec["wall_time"] >= 0
        loaded = ModelParams.load(out / "model.ptrm")
        assert np.array_equal(loaded.entity_emb, params.entity_emb)

    def test_epoch_records_count_hinges(self, small_graph, tmp_path):
        table = build_path_table(small_graph, reliability_floor=0.0)
        out = tmp_path / "run"
        _, records = train(small_graph, table, tiny_cfg(epochs=4), out_dir=out)
        counters = ("fact_violations", "path_violations", "rescaled", "redraws")
        projected = [r for r in records if r.get("stage") == "ptransr" and "loss" in r]
        assert len(projected) == 4
        for rec in projected:
            assert rec["violations"] == rec["fact_violations"] + rec["path_violations"]
            assert all(isinstance(rec[c], int) and rec[c] >= 0 for c in counters)
        assert all(sum(r[c] for r in projected) > 0 for c in counters)
        # A warm-start epoch has fact hinges only, and no projection matrix.
        warm = [r for r in records if r.get("stage") == "transe"]
        assert len(warm) == 2
        for rec in warm:
            assert rec["fact_violations"] == rec["violations"]
            assert isinstance(rec["redraws"], int) and rec["redraws"] >= 0
            assert "path_violations" not in rec and "rescaled" not in rec
        assert sum(r["redraws"] for r in warm) > 0
        config = (out / "config.txt").read_text()
        assert not any(c in config for c in counters)
        # The counters are the epoch's sums of what each batch step returns.
        cfg = tiny_cfg(batch_size=7)
        paths = _fact_paths(small_graph, table)
        probs = _head_probs(small_graph, "uniform")
        p = ModelParams.random(small_graph.n_entities, small_graph.n_relations, 6, 6,
                               np.random.default_rng(1))
        stats = _run_epoch(small_graph, paths, p.copy(), cfg, np.random.default_rng(2),
                           probs, epoch=0)
        rng = np.random.default_rng(2)
        order = rng.permutation(len(small_graph.train))
        sums = np.zeros(4, dtype=np.int64)
        for start in range(0, len(order), 7):
            batch = _draw_batch(small_graph, paths, np.asarray(probs), rng, order[start:start + 7])
            _, fact_v, path_v, rescaled = _step(p, paths, cfg, batch)
            sums += (fact_v, path_v, rescaled, batch.redraws)
        assert (stats.fact_violations, stats.path_violations, stats.rescaled,
                stats.redraws) == tuple(sums.tolist())

    def test_warm_start_reused(self, small_graph):
        warm = init_transe(small_graph, tiny_cfg(stage="transe", epochs=2))
        params, records = train(
            small_graph, None, tiny_cfg(stage="transr"), init_params=warm
        )
        stages = {r["stage"] for r in records if "loss" in r}
        assert stages == {"transr"}
        assert not np.array_equal(params.entity_emb, warm.entity_emb)
        # tiny_cfg's warm_lr and warm_epochs act on no epoch here.
        assert records[0]["event"] == "config"
        assert records[0]["ignored"] == ["warm_lr", "warm_epochs"]

    def test_init_shape_validation(self, small_graph):
        rng = np.random.default_rng(0)
        wrong = ModelParams.random(3, 2, 6, 6, rng)
        with pytest.raises(TrainError, match="shape"):
            train(small_graph, None, tiny_cfg(stage="transr"), init_params=wrong)
        wrong_dim = ModelParams.random(
            small_graph.n_entities, small_graph.n_relations, 4, 4, rng
        )
        with pytest.raises(TrainError, match="dimensions"):
            train(small_graph, None, tiny_cfg(stage="transr"), init_params=wrong_dim)

    def test_table_of_another_graph_is_refused_before_the_warm_start(
        self, small_graph, monkeypatch
    ):
        # The 8-entity graph would train silently on the keys of 10 entities.
        other = make_graph(DIAMOND + [(0, 1, 3), (3, 0, 9)], n_entities=10, n_relations=2)
        table = build_path_table(other, reliability_floor=0.0)
        assert table.n_entries and table.n_entities == 10
        monkeypatch.setattr(trainer, "init_transe", None)  # a call would fail otherwise
        with pytest.raises(TrainError, match="covers 10 entities but the graph has 8"):
            train(small_graph, table, tiny_cfg())

    def test_table_of_more_relations_is_refused_before_the_warm_start(
        self, small_graph, monkeypatch
    ):
        # Mined with a third relation, the table's ids 4 and 5 would select
        # models.relation_rows' padding row of this 2-relation graph, or
        # run past it.  An empty table names no relation and trains.
        train(small_graph, PathTable.empty(8), tiny_cfg(epochs=1, warm_epochs=1))
        other = make_graph(small_graph.original_train.tolist() + [(0, 2, 1)],
                           n_entities=8, n_relations=3)
        table = build_path_table(other, reliability_floor=0.0)
        assert table.n_relations == 6 and table.path_rels.max() == 5
        monkeypatch.setattr(trainer, "init_transe", None)  # a call would fail otherwise
        with pytest.raises(TrainError, match="ids of 6 relations but the graph has 4"):
            train(small_graph, table, tiny_cfg())

    def test_transe_stage_rejects_init(self, small_graph):
        rng = np.random.default_rng(0)
        p = ModelParams.random(small_graph.n_entities, small_graph.n_relations, 6, 6, rng)
        with pytest.raises(TrainError, match="fresh"):
            train(small_graph, None, tiny_cfg(stage="transe"), init_params=p)

    def test_nan_params_abort(self, small_graph):
        rng = np.random.default_rng(0)
        p = ModelParams.random(small_graph.n_entities, small_graph.n_relations, 6, 6, rng)
        p.entity_emb[0, 0] = np.nan
        with pytest.raises(TrainError, match="non-finite"):
            train(small_graph, None, tiny_cfg(stage="transr", epochs=2), init_params=p)

    def test_checkpoints(self, small_graph, tmp_path):
        out = tmp_path / "run"
        train(
            small_graph, None,
            tiny_cfg(stage="transr", epochs=4, checkpoint_every=2),
            out_dir=out,
        )
        assert (out / "checkpoints" / "epoch_00002.ptrm").is_file()
        assert (out / "checkpoints" / "epoch_00004.ptrm").is_file()

    def test_early_stop_on_flat_metric(self, small_graph):
        # A learning rate below float32 resolution freezes the model, so
        # the validation rank never improves and patience trips at once.
        cfg = tiny_cfg(
            stage="transr", epochs=10, lr=1e-12, warm_epochs=0, patience=1,
        )
        _, records = train(small_graph, None, cfg)
        stops = [r for r in records if r.get("event") == "early_stop"]
        assert len(stops) == 1
        assert stops[0]["epoch"] == 1
        epoch_recs = [r for r in records if "loss" in r]
        assert len(epoch_recs) == 2
        assert "valid_mean_rank" in epoch_recs[0]

    @pytest.mark.parametrize("stage", ["transr", "ptransr"])
    def test_early_stop_keeps_the_best_model(self, stage, tmp_path):
        # On this graph and seed the valid mean rank falls for some epochs
        # and then stops falling.  The probe draws no random numbers, so
        # the model of the best epoch e is that of an (e + 1)-epoch run,
        # and so is a run that keeps the best but never stops early.
        rng = np.random.default_rng(3)
        facts = sorted({(int(rng.integers(30)), int(rng.integers(3)), int(rng.integers(30)))
                        for _ in range(150)})
        rng.shuffle(facts)
        g = make_graph(facts[:120], valid=facts[120:135], n_entities=30, n_relations=3)
        table = build_path_table(g)

        def run(name: str, **kw) -> tuple[bytes, list[dict]]:
            cfg = tiny_cfg(stage=stage, dim_entity=8, dim_relation=8, batch_size=64, seed=4,
                           **kw)
            params, records = train(g, table, cfg, out_dir=tmp_path / name)
            saved = (tmp_path / name / "model.ptrm").read_bytes()
            params.save(tmp_path / f"{name}.ptrm")
            assert (tmp_path / f"{name}.ptrm").read_bytes() == saved
            return saved, records

        stopped, records = run("stopped", epochs=40, patience=3, checkpoint_every=1)
        (stop,) = [r for r in records if r.get("event") == "early_stop"]
        ranks = [r["valid_mean_rank"] for r in records if "loss" in r and r["stage"] == stage]
        e = stop["best_epoch"]
        assert e >= 2 and ranks[e] < min(ranks[:e]) and stop["best"] == ranks[e] == min(ranks)
        assert stop["epoch"] == e + 3 == len(ranks) - 1
        ckpt = tmp_path / "stopped" / "checkpoints"
        assert (ckpt / f"epoch_{e + 1:05d}.ptrm").read_bytes() == stopped
        assert (ckpt / f"epoch_{e + 4:05d}.ptrm").read_bytes() != stopped
        assert run("best", epochs=e + 1)[0] == stopped
        unstopped, records = run("unstopped", epochs=e + 3, patience=3)
        assert unstopped == stopped
        assert not [r for r in records if r.get("event") == "early_stop"]

    def test_validation_probe_matches_per_fact_oracle(self):
        rng = np.random.default_rng(21)
        triples, n_ent, n_rel = random_triples(rng, max_entities=9, max_relations=3,
                                               max_edges=20)
        valid = [
            (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
            for _ in range(8)
        ]
        g = make_graph(triples, valid=valid, n_entities=n_ent, n_relations=n_rel)
        params = ModelParams.random(g.n_entities, g.n_relations, 5, 4, rng)
        assert valid_mean_rank(params, g) == validation_mean_rank(params, g)
        params.entity_emb[1:] = params.entity_emb[0]  # every score tied
        assert valid_mean_rank(params, g) == validation_mean_rank(params, g) == n_ent

    def test_validation_probe_runs_stage1_once_per_distinct_query(self, monkeypatch):
        valid = [(0, 0, 1), (0, 0, 2), (0, 0, 2), (3, 0, 2), (1, 1, 0), (1, 1, 0)]
        g = make_graph(TRI, valid=valid, n_entities=4, n_relations=3)
        params = ModelParams.random(g.n_entities, g.n_relations, 3, 3, np.random.default_rng(2))
        calls = []
        stage1 = _RelationContext.stage1

        def spy(ctx, slot, anchors, k):
            calls.extend((ctx.r, slot, anchor) for anchor in anchors.tolist())
            return stage1(ctx, slot, anchors, k)

        monkeypatch.setattr(_RelationContext, "stage1", spy)
        assert valid_mean_rank(params, g) == validation_mean_rank(params, g)
        assert sorted(calls) == [
            (0, "head", 1), (0, "head", 2), (0, "tail", 0), (0, "tail", 3),
            (1, "head", 0), (1, "tail", 1),
        ]

    def test_early_stop_needs_valid(self):
        g = make_graph(TRI)
        cfg = tiny_cfg(stage="transr", patience=5)
        with pytest.raises(TrainError, match="valid"):
            train(g, None, cfg)

    def test_epoch_driver_rejects_first_stage(self, small_graph):
        rng = np.random.default_rng(0)
        p = ModelParams.random(small_graph.n_entities, small_graph.n_relations, 6, 6, rng)
        with pytest.raises(TrainError):
            train_epoch_ptransr(
                small_graph, PathTable.empty(8), p, tiny_cfg(stage="transe"), rng
            )

    def test_epoch_driver_refuses_inputs_of_another_graph(self, small_graph):
        # As train() does: each would otherwise train silently.
        rng = np.random.default_rng(0)
        other = make_graph(DIAMOND + [(0, 1, 3), (3, 0, 9)], n_entities=10, n_relations=2)
        table = build_path_table(other, reliability_floor=0.0)
        p = ModelParams.random(small_graph.n_entities, small_graph.n_relations, 6, 6, rng)
        with pytest.raises(TrainError, match="covers 10 entities but the graph has 8"):
            train_epoch_ptransr(small_graph, table, p, tiny_cfg(), rng)
        empty = PathTable.empty(small_graph.n_entities)
        for wrong, match in ((ModelParams.random(10, 4, 6, 6, rng), "shape"),
                             (ModelParams.random(8, 4, 4, 4, rng), "dimensions")):
            with pytest.raises(TrainError, match=match):
                train_epoch_ptransr(small_graph, empty, wrong, tiny_cfg(), rng)

    def test_epoch_driver_refuses_a_graph_without_inverses(self):
        # With train()'s message; the driver used to run a whole epoch on it.
        rng = np.random.default_rng(0)
        plain = make_graph(DIAMOND, augment=False)
        p = ModelParams.random(plain.n_entities, plain.n_relations, 6, 6, rng)
        empty = PathTable.empty(plain.n_entities)
        for run in (lambda: train(plain, empty, tiny_cfg(), init_params=p),
                    lambda: train_epoch_ptransr(plain, empty, p, tiny_cfg(), rng)):
            with pytest.raises(TrainError) as info:
                run()
            assert str(info.value) == "training expects an inverse-augmented graph"

    def test_epoch_driver_runs(self, small_graph):
        rng = np.random.default_rng(0)
        p = ModelParams.random(small_graph.n_entities, small_graph.n_relations, 6, 6, rng)
        table = build_path_table(small_graph, reliability_floor=0.0)
        stats = train_epoch_ptransr(small_graph, table, p, tiny_cfg(), rng)
        assert np.isfinite(stats.loss)
        assert stats.violations > 0

    def test_fact_paths_match_oracle(self):
        # The per-fact path-hinge pieces fixed for a run: entries (the 1-hop
        # path r itself skipped, zero-relatedness entries kept), each
        # entry's reliability, and z.  The table comes from TRI, so the
        # extra fact (0, r0, 2) meets stored paths unrelated to r0 (z == 0).
        table = build_path_table(make_graph(TRI), reliability_floor=0.0)
        g = make_graph(TRI + [(0, 0, 2)])
        paths = _fact_paths(g, table)
        ev = paths.evidence
        assert paths.offsets[-1] == len(ev.path)
        skipped_self = kept_zero = False
        for i, (h, r, t) in enumerate(g.train.tolist()):
            lo, hi = paths.offsets[i], paths.offsets[i + 1]
            entries, z = oracle_evidence(table, h, r, t)
            assert list(zip(
                ev.path[lo:hi].tolist(), ev.flow[lo:hi].tolist(), ev.reliability[lo:hi].tolist()
            )) == entries
            assert ev.z[i] == z
            stored = [path_tuple(table.path_rels[pid])
                      for pid in table.paths_for(h, t)[0].tolist()]
            skipped_self |= (r,) in stored
            kept_zero |= any(rel == 0.0 for _, _, rel in entries)
        assert skipped_self and kept_zero
        assert not _fact_paths(g, PathTable.empty(g.n_entities)).evidence.z.any()

    def test_bernoulli_mode_runs(self, small_graph):
        params, records = train(small_graph, None, tiny_cfg(stage="transr", neg_mode="bernoulli"))
        assert np.isfinite(records[-1]["loss"])
