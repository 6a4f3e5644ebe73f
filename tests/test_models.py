"""Scoring functions, gradients, norm constraints, and model persistence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph, random_triples
from oracles import path_evidence as oracle_evidence
from oracles import path_score_term
from pathkge.models import (
    ModelError,
    ModelParams,
    compose_path,
    grad_score_transr,
    path_energy,
    path_energy_and_grads,
    path_evidence,
    path_score_terms,
    project_constraints,
    score_ptransr,
    score_transe,
    score_transr,
    transe_energy_and_grads,
    transr_energy_and_grads,
)
from pathkge.paths import PathTable, build_path_table

GRID = 2.0 ** -10  # grid step that keeps values and perturbations exact in f32


def grid_params(rng, n_ent, n_rel, k, d) -> ModelParams:
    """Parameters whose entries are exact in float32 arithmetic."""
    ent = (rng.integers(-512, 512, (n_ent, k)) * GRID).astype(np.float32)
    rel = (rng.integers(-512, 512, (n_rel, d)) * GRID).astype(np.float32)
    proj = (rng.integers(-512, 512, (n_rel, d, k)) * GRID).astype(np.float32)
    return ModelParams(ent, rel, proj)


def central_diff(f, arr, index, delta=GRID) -> float:
    orig = arr[index]
    arr[index] = orig + delta
    up = f()
    arr[index] = orig - delta
    down = f()
    arr[index] = orig
    return (up - down) / (2.0 * delta)


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, tol=1e-4):
    denom = np.maximum(np.abs(numeric), 1.0)
    assert np.all(np.abs(analytic - numeric) / denom < tol)


class TestParams:
    def test_random_init(self):
        rng = np.random.default_rng(0)
        p = ModelParams.random(5, 4, 3, 2, rng)
        assert p.entity_emb.shape == (5, 3)
        assert p.relation_emb.shape == (4, 2)
        assert p.proj.shape == (4, 2, 3)
        assert p.entity_emb.dtype == np.float32
        np.testing.assert_allclose(
            np.linalg.norm(p.entity_emb, axis=1), 1.0, atol=1e-6
        )
        np.testing.assert_allclose(
            np.linalg.norm(p.relation_emb, axis=1), 1.0, atol=1e-6
        )
        for r in range(4):
            assert np.array_equal(p.proj[r], np.eye(2, 3, dtype=np.float32))

    def test_shape_validation(self):
        ent = np.zeros((3, 2), dtype=np.float32)
        rel = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ModelError):
            ModelParams(ent, rel, np.zeros((2, 2, 3), dtype=np.float32))
        with pytest.raises(ModelError):
            ModelParams(ent, rel, np.zeros((3, 2, 2), dtype=np.float32))

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        p = ModelParams.random(4, 6, 3, 2, rng)
        f = tmp_path / "m.ptrm"
        p.save(f)
        q = ModelParams.load(f)
        assert np.array_equal(p.entity_emb, q.entity_emb)
        assert np.array_equal(p.relation_emb, q.relation_emb)
        assert np.array_equal(p.proj, q.proj)
        q.save(tmp_path / "m2.ptrm")
        assert f.read_bytes() == (tmp_path / "m2.ptrm").read_bytes()

    def test_load_rejects_garbage(self, tmp_path):
        f = tmp_path / "bad.ptrm"
        f.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(ModelError, match="magic"):
            ModelParams.load(f)

    def test_load_rejects_truncation_and_trailing(self, tmp_path):
        rng = np.random.default_rng(2)
        p = ModelParams.random(3, 2, 2, 2, rng)
        f = tmp_path / "m.ptrm"
        p.save(f)
        blob = f.read_bytes()
        f.write_bytes(blob[:-4])
        with pytest.raises(ModelError, match="truncated"):
            ModelParams.load(f)
        f.write_bytes(blob + b"\x00")
        with pytest.raises(ModelError, match="trailing"):
            ModelParams.load(f)


def hand_params() -> ModelParams:
    ent = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.float32)
    rel = np.array([[3.0, 4.0]], dtype=np.float32)
    proj = np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=np.float32)
    return ModelParams(ent, rel, proj)


class TestScores:
    def test_transe_hand_values(self):
        p = hand_params()
        # u = h + r - t = (2, 5)
        assert score_transe(p, 0, 0, 1, norm="L1") == pytest.approx(7.0)
        assert score_transe(p, 0, 0, 1, norm="L2") == pytest.approx(np.sqrt(29.0))

    def test_transe_requires_equal_dims(self):
        rng = np.random.default_rng(0)
        p = ModelParams.random(3, 2, 3, 2, rng)
        with pytest.raises(ModelError):
            score_transe(p, 0, 0, 1)

    def test_transr_hand_value(self):
        p = hand_params()
        # Mh = (3, 2), Mt = (3, 1), u = (3, 5) -> 9 + 25
        assert score_transr(p, 0, 0, 1) == pytest.approx(34.0)

    def test_transr_hand_gradients(self):
        p = hand_params()
        gh, gt, gr, gM = grad_score_transr(p, 0, 0, 1)
        np.testing.assert_allclose(gh, [6.0, 16.0])
        np.testing.assert_allclose(gt, [-6.0, -16.0])
        np.testing.assert_allclose(gr, [6.0, 10.0])
        np.testing.assert_allclose(gM, [[-6.0, 6.0], [-10.0, 10.0]])

    def test_energy_and_grads_consistent(self):
        rng = np.random.default_rng(3)
        p = grid_params(rng, 4, 3, 3, 2)
        e, gh, gt, gr, gM = transr_energy_and_grads(p, 0, 1, 2)
        assert e == pytest.approx(score_transr(p, 0, 1, 2))
        gh2, gt2, gr2, gM2 = grad_score_transr(p, 0, 1, 2)
        np.testing.assert_array_equal(gh, gh2)
        np.testing.assert_array_equal(gM, gM2)

    def test_transr_grads_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = grid_params(rng, 3, 2, 4, 3)
            h, r, t = 0, 1, 2
            _, gh, gt, gr, gM = transr_energy_and_grads(p, h, r, t)
            f = lambda: score_transr(p, h, r, t)
            for j in range(4):
                assert_grad_close(gh[j], central_diff(f, p.entity_emb, (h, j)))
                assert_grad_close(gt[j], central_diff(f, p.entity_emb, (t, j)))
            for j in range(3):
                assert_grad_close(gr[j], central_diff(f, p.relation_emb, (r, j)))
            for a in range(3):
                for b in range(4):
                    assert_grad_close(gM[a, b], central_diff(f, p.proj, (r, a, b)))

    def test_transe_grads_match_finite_differences(self):
        rng = np.random.default_rng(5)
        p = grid_params(rng, 3, 2, 4, 4)
        h, r, t = 0, 1, 2
        for norm in ("L1", "L2"):
            e, gh, gt, gr = transe_energy_and_grads(p, h, r, t, norm)
            assert e == pytest.approx(score_transe(p, h, r, t, norm))
            f = lambda: score_transe(p, h, r, t, norm)
            for j in range(4):
                assert_grad_close(gh[j], central_diff(f, p.entity_emb, (h, j)))
                assert_grad_close(gr[j], central_diff(f, p.relation_emb, (r, j)))


class TestPathEnergy:
    def test_compose(self):
        p = hand_params()
        np.testing.assert_allclose(compose_path(p, (0, 0)), [6.0, 8.0])
        with pytest.raises(ModelError):
            compose_path(p, ())

    def test_energy_hand_value(self):
        ent = np.zeros((1, 2), dtype=np.float32)
        rel = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], dtype=np.float32)
        proj = np.repeat(np.eye(2, dtype=np.float32)[None], 3, axis=0)
        p = ModelParams(ent, rel, proj)
        # p - r = (1,0) + (0,2) - (1,1) = (0,1); E = 0.5 * 1
        assert path_energy(p, (0, 1), 2, 0.5) == pytest.approx(0.5)
        with pytest.raises(ModelError):
            path_energy(p, (0,), 1, -0.1)

    def test_energy_grads_match_finite_differences(self):
        rng = np.random.default_rng(6)
        p = grid_params(rng, 2, 4, 3, 3)
        path, r, rel = (0, 2), 1, 0.7
        e, gp, gr = path_energy_and_grads(p, path, r, rel)
        assert e == pytest.approx(path_energy(p, path, r, rel))
        f = lambda: path_energy(p, path, r, rel)
        for j in range(3):
            # The same gradient flows to every relation on the path.
            assert_grad_close(gp[j], central_diff(f, p.relation_emb, (0, j)))
            assert_grad_close(gp[j], central_diff(f, p.relation_emb, (2, j)))
            assert_grad_close(gr[j], central_diff(f, p.relation_emb, (r, j)))


@pytest.fixture
def tri_setup(tri_graph):
    rng = np.random.default_rng(7)
    params = ModelParams.random(
        tri_graph.n_entities, tri_graph.n_relations, 4, 4, rng
    )
    table = build_path_table(tri_graph, reliability_floor=0.0, cap=10)
    return tri_graph, params, table


def kernel_term(params, table, h, r, t) -> float:
    """The batched kernel on a batch of one."""
    return float(path_score_terms(params, table, h, r, t)[0])


class TestPathScoreTerm:
    def test_matches_hand_aggregation(self, tri_setup):
        g, params, table = tri_setup
        # Pair (0, 2) scored for its direct relation 2: the bare (2,)
        # path is skipped, leaving the (0, 1) path with reliability 1.
        q = compose_path(params, (0, 1)) - params.relation_emb[2].astype(np.float64)
        assert kernel_term(params, table, 0, 2, 2) == pytest.approx(float(q @ q))
        assert path_score_term(params, table, 0, 2, 2) == pytest.approx(float(q @ q))

    def test_zero_total_reliability(self, tri_setup):
        g, params, table = tri_setup
        # Relation 0 never links pair (0, 2), so every stored path has
        # zero relatedness to it and the term vanishes.
        assert kernel_term(params, table, 0, 0, 2) == 0.0
        assert path_score_term(params, table, 0, 0, 2) == 0.0

    def test_empty_table_is_plain_transr(self, tri_setup):
        g, params, _ = tri_setup
        empty = PathTable.empty(g.n_entities)
        for h, r, t in ((0, 2, 2), (1, 1, 2), (2, 4, 1)):
            assert kernel_term(params, empty, h, r, t) == 0.0
            assert score_ptransr(params, empty, h, r, t) == score_transr(params, h, r, t)

    def test_ptransr_is_sum(self, tri_setup):
        g, params, table = tri_setup
        s = score_ptransr(params, table, 0, 2, 2)
        assert s == pytest.approx(
            score_transr(params, 0, 2, 2) + path_score_term(params, table, 0, 2, 2)
        )
        assert s == score_transr(params, 0, 2, 2) + kernel_term(params, table, 0, 2, 2)


def assert_kernel_matches_oracle(params, table, batch: np.ndarray) -> None:
    """Evidence equal to the per-triple oracle's, term within 1e-12 relative."""
    h, r, t = batch.T
    ev = path_evidence(table, h, r, t)
    got = path_score_terms(params, table, h, r, t)
    assert len(ev.z) == len(got) == len(batch)
    lo = np.searchsorted(ev.triple, np.arange(len(batch)))
    hi = np.searchsorted(ev.triple, np.arange(len(batch)), side="right")
    for i, (a, b, c) in enumerate(batch.tolist()):
        entries, z = oracle_evidence(table, a, b, c)
        mine = slice(lo[i], hi[i])
        assert list(zip(
            ev.path[mine].tolist(), ev.flow[mine].tolist(), ev.reliability[mine].tolist()
        )) == entries
        assert ev.z[i] == z
        assert got[i] == pytest.approx(path_score_term(params, table, a, b, c), rel=1e-12, abs=0)


class TestPathKernel:
    def test_covers_each_case_on_tri_graph(self, tri_setup):
        g, params, table = tri_setup
        batch = np.array([
            (0, 2, 2),  # the bare (2,) path is this relation's own: skipped
            (0, 0, 2),  # stored paths, all unrelated to r0: kept, z == 0
            (1, 1, 1),  # pair not in the table
            (0, 2, 2),  # repeated key
        ])
        ev = path_evidence(table, *batch.T)
        own = table.path_rels.index((2,))
        assert own not in ev.path[ev.triple == 0].tolist()
        assert own in ev.path[ev.triple == 1].tolist()
        assert ev.z[1] == 0.0 and (ev.reliability[ev.triple == 1] == 0.0).all()
        assert not (ev.triple == 2).any()
        assert ev.z[0] > 0.0 and ev.z[3] == ev.z[0]
        assert_kernel_matches_oracle(params, table, batch)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from([0.0, 0.05, 0.3]))
    def test_batch_matches_per_triple_oracle(self, seed, floor):
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(rng)
        g = make_graph(triples, n_entities=n_ent, n_relations=n_rel)
        table = build_path_table(g, reliability_floor=floor, cap=int(rng.integers(1, 8)))
        params = ModelParams.random(n_ent, g.n_relations, 3, 4, rng)
        # Every (h, r, t) over the graph: stored and absent pairs, 1-hop
        # self paths, zero relatedness, z == 0; then a shuffled copy, so
        # keys repeat within the batch.
        grid = np.stack(np.meshgrid(
            np.arange(n_ent), np.arange(g.n_relations), np.arange(n_ent), indexing="ij"
        ), axis=-1).reshape(-1, 3)
        assert_kernel_matches_oracle(params, table, np.concatenate((grid, rng.permutation(grid))))


class TestConstraints:
    def test_rows_come_back_to_unit(self):
        rng = np.random.default_rng(8)
        p = ModelParams.random(5, 3, 4, 4, rng)
        p.entity_emb[2] *= 3.0
        p.relation_emb[1] *= 0.1
        project_constraints(p, [2], [1])
        assert np.linalg.norm(p.entity_emb[2]) == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.norm(p.relation_emb[1]) == pytest.approx(1.0, abs=1e-6)

    def test_projection_matrix_rescaled(self):
        rng = np.random.default_rng(9)
        p = ModelParams.random(4, 2, 3, 3, rng)
        p.proj[0] = 3.0 * np.eye(3, dtype=np.float32)
        project_constraints(p, [], [], [(0, 0, 1)])
        M = p.proj[0].astype(np.float64)
        nh = np.linalg.norm(M @ p.entity_emb[0].astype(np.float64))
        nt = np.linalg.norm(M @ p.entity_emb[1].astype(np.float64))
        assert max(nh, nt) <= 1.0 + 1e-6
        assert max(nh, nt) == pytest.approx(1.0, abs=1e-6)

    def test_zero_vector_is_an_error(self):
        rng = np.random.default_rng(10)
        p = ModelParams.random(3, 2, 2, 2, rng)
        p.entity_emb[0] = 0.0
        with pytest.raises(ModelError):
            project_constraints(p, [0], [])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        p = ModelParams.random(6, 4, 3, 3, rng)
        p.entity_emb[rng.integers(6)] *= np.float32(1.7)
        p.proj[rng.integers(4)] *= np.float32(2.5)
        triples = [
            (int(rng.integers(6)), int(rng.integers(4)), int(rng.integers(6)))
            for _ in range(3)
        ]
        project_constraints(p, range(6), range(4), triples)
        snap = (p.entity_emb.copy(), p.relation_emb.copy(), p.proj.copy())
        project_constraints(p, range(6), range(4), triples)
        assert np.array_equal(p.entity_emb, snap[0])
        assert np.array_equal(p.relation_emb, snap[1])
        assert np.array_equal(p.proj, snap[2])
