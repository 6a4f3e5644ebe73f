"""Training configuration, negative sampling, and the staged SGD loop."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import TRI, make_graph
from oracles import path_evidence as oracle_evidence
from pathkge.kgdata import KnowledgeGraph
from pathkge.models import ModelParams
from pathkge.paths import PathTable, build_path_table
from pathkge.trainer import (
    NegativeSample,
    TrainConfig,
    TrainError,
    _bern_head_probs,
    _fact_paths,
    init_transe,
    load_config_file,
    sample_negative,
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
            {"norm": "L3"},
            {"neg_mode": "fancy"},
            {"dim_entity": 0},
            {"batch_size": 0},
            {"workers": 0},
            {"lr": 0.0},
            {"margin1": 0.0},
            {"epochs": -1},
            {"patience": 0},
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()

    def test_defaults_for_stage(self):
        warm = TrainConfig.defaults_for_stage("transe")
        assert (warm.stage, warm.lr, warm.epochs) == ("transe", 0.01, 1000)
        main = TrainConfig.defaults_for_stage("ptransr")
        assert (main.stage, main.lr, main.epochs) == ("ptransr", 0.001, 500)

    def test_with_updates_coercion(self):
        cfg = TrainConfig().with_updates(
            {"lr": "0.5", "epochs": "7", "lr_decay": "true", "norm": "L1"}
        )
        assert cfg.lr == 0.5 and cfg.epochs == 7
        assert cfg.lr_decay is True and cfg.norm == "L1"
        with pytest.raises(ValueError, match="unknown config key"):
            TrainConfig().with_updates({"nope": "1"})
        with pytest.raises(ValueError, match="boolean"):
            TrainConfig().with_updates({"lr_decay": "probably"})

    def test_config_file_roundtrip(self, tmp_path):
        cfg = tiny_cfg(norm="L1", neg_mode="bernoulli", lr_decay=True)
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


class TestNegativeSampling:
    def test_slot_respected(self, small_graph):
        rng = np.random.default_rng(0)
        h, r, t = (int(x) for x in small_graph.train[0])
        for _ in range(20):
            neg = sample_negative(small_graph, (h, r, t), {"head": 1.0}, rng)
            assert neg.slot == "head"
            assert neg.corrupted.r == r and neg.corrupted.t == t
            assert neg.corrupted.h != h
            assert not small_graph.in_train(*neg.corrupted)

    def test_relation_corruption(self, tri_graph):
        rng = np.random.default_rng(1)
        for _ in range(20):
            neg = sample_negative(tri_graph, (0, 0, 1), {"relation": 1.0}, rng)
            assert neg.slot == "relation"
            assert neg.corrupted.r != 0
            assert (neg.corrupted.h, neg.corrupted.t) == (0, 1)

    def test_distribution_must_sum_to_one(self, tri_graph):
        rng = np.random.default_rng(2)
        with pytest.raises(TrainError):
            sample_negative(tri_graph, (0, 0, 1), {"head": 0.4}, rng)
        with pytest.raises(TrainError):
            sample_negative(tri_graph, (0, 0, 1), {"elbow": 1.0}, rng)

    def test_saturated_graph_exhausts(self):
        train = [(h, 0, t) for h in range(2) for t in range(2)]
        g = make_graph(train, n_entities=2, n_relations=1, augment=False)
        rng = np.random.default_rng(3)
        with pytest.raises(TrainError, match="attempts"):
            sample_negative(g, (0, 0, 1), {"head": 0.5, "tail": 0.5}, rng)

    def test_deterministic_given_rng(self, small_graph):
        h, r, t = (int(x) for x in small_graph.train[0])
        a = sample_negative(
            small_graph, (h, r, t), {"head": 0.5, "tail": 0.5},
            np.random.default_rng(42),
        )
        b = sample_negative(
            small_graph, (h, r, t), {"head": 0.5, "tail": 0.5},
            np.random.default_rng(42),
        )
        assert a == b

    def test_bernoulli_head_probability(self):
        g = make_graph([(0, 0, 1), (0, 0, 2)], n_entities=3, n_relations=1,
                       augment=False)
        probs = _bern_head_probs(g)
        # tph = 2, hpt = 1 -> corrupt the head 2/3 of the time.
        assert probs[0] == pytest.approx(2.0 / 3.0)


class TestWarmStart:
    def test_loss_decreases_and_constraints_hold(self, small_graph):
        records = []
        cfg = tiny_cfg(stage="transe", epochs=30, lr=0.05)
        params = init_transe(small_graph, cfg, emit=records.append)
        losses = [r["loss"] for r in records]
        assert losses[-1] < losses[0]
        norms = np.linalg.norm(params.entity_emb.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)
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

    def test_warm_start_reused(self, small_graph):
        warm = init_transe(small_graph, tiny_cfg(stage="transe", epochs=2))
        params, records = train(
            small_graph, None, tiny_cfg(stage="transr"), init_params=warm
        )
        stages = {r["stage"] for r in records if "loss" in r}
        assert stages == {"transr"}
        assert not np.array_equal(params.entity_emb, warm.entity_emb)

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
            stage="transr", epochs=10, lr=1e-12, warm_epochs=0,
            early_stop=True, patience=1,
        )
        _, records = train(small_graph, None, cfg)
        stops = [r for r in records if r.get("event") == "early_stop"]
        assert len(stops) == 1
        assert stops[0]["epoch"] == 1
        epoch_recs = [r for r in records if "loss" in r]
        assert len(epoch_recs) == 2
        assert "valid_mean_rank" in epoch_recs[0]

    def test_early_stop_needs_valid(self):
        g = make_graph(TRI)
        cfg = tiny_cfg(stage="transr", early_stop=True)
        with pytest.raises(TrainError, match="valid"):
            train(g, None, cfg)

    def test_epoch_driver_rejects_first_stage(self, small_graph):
        rng = np.random.default_rng(0)
        p = ModelParams.random(small_graph.n_entities, small_graph.n_relations, 6, 6, rng)
        with pytest.raises(TrainError):
            train_epoch_ptransr(
                small_graph, PathTable.empty(8), p, tiny_cfg(stage="transe"), rng
            )

    def test_epoch_driver_runs(self, small_graph):
        rng = np.random.default_rng(0)
        p = ModelParams.random(small_graph.n_entities, small_graph.n_relations, 6, 6, rng)
        table = build_path_table(small_graph, reliability_floor=0.0)
        stats = train_epoch_ptransr(small_graph, table, p, tiny_cfg(), rng)
        assert np.isfinite(stats.mean_loss)
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
            stored = [table.path_rels[pid] for pid in table.paths_for(h, t)[0].tolist()]
            skipped_self |= (r,) in stored
            kept_zero |= any(rel == 0.0 for _, _, rel in entries)
        assert skipped_self and kept_zero
        assert not _fact_paths(g, PathTable.empty(g.n_entities)).evidence.z.any()

    def test_hogwild_smoke(self, small_graph):
        table = build_path_table(small_graph, reliability_floor=0.0)
        params, records = train(small_graph, table, tiny_cfg(workers=2, batch_size=8))
        assert np.isfinite(records[-1]["loss"])
        norms = np.linalg.norm(params.entity_emb.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_bernoulli_mode_runs(self, small_graph):
        params, records = train(small_graph, None, tiny_cfg(stage="transr", neg_mode="bernoulli"))
        assert np.isfinite(records[-1]["loss"])
