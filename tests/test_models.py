"""Scoring functions, gradients, norm constraints, and model persistence."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import corrupt, make_graph, random_triples
from oracles import path_evidence as oracle_evidence
from oracles import (
    gap_energy_and_grads,
    path_score_term,
    path_tuple,
    transr_energy_and_grads,
)
from pathkge.models import (
    ModelError,
    ModelParams,
    _row_norms,
    compose_paths,
    path_distances,
    path_evidence,
    path_score_terms,
    project_constraints,
    relation_rows,
    score_ptransr,
    score_transr,
    span_path_terms,
)
from pathkge.paths import PathTable, build_path_table
from pathkge.trainer import _add_rows, _fact_block

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

    @pytest.mark.parametrize("field", ["entity_emb", "relation_emb", "proj"])
    def test_only_float32_arrays_are_accepted(self, field):
        # The evaluator's finiteness argument rests on float32 parameters.
        p = ModelParams.random(3, 2, 2, 2, np.random.default_rng(3))
        arrays = {name: getattr(p, name) for name in ("entity_emb", "relation_emb", "proj")}
        arrays[field] = arrays[field].astype(np.float64)
        with pytest.raises(ModelError, match="float32"):
            ModelParams(**arrays)

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

    def test_another_version_is_refused(self, tmp_path):
        f = tmp_path / "m.ptrm"
        ModelParams.random(3, 2, 2, 2, np.random.default_rng(3)).save(f)
        blob = bytearray(f.read_bytes())
        struct.pack_into("<I", blob, 4, 2)
        f.write_bytes(bytes(blob))
        with pytest.raises(ModelError, match=r"unsupported model version 2 "
                                             r"\(this build reads 1; re-run train\)") as err:
            ModelParams.load(f)
        assert str(err.value).startswith(f"{f}: ")

    # Offsets into the file of the header's shape (after the 4-byte magic):
    # dim_entity, dim_relation, n_entities, n_relations, each a uint32.
    @pytest.mark.parametrize("offset,value", [(16, 2**31), (8, 2**32 - 1), (20, 2**31)])
    def test_a_shape_past_the_end_of_the_file_is_refused(self, tmp_path, offset, value):
        # Refused by the size of the file, before anything that large is
        # allocated: no MemoryError.
        f = tmp_path / "big.ptrm"
        ModelParams.random(3, 2, 2, 2, np.random.default_rng(3)).save(f)
        blob = bytearray(f.read_bytes())
        struct.pack_into("<I", blob, offset, value)
        f.write_bytes(bytes(blob))
        with pytest.raises(ModelError, match="truncated") as err:
            ModelParams.load(f)
        assert str(err.value).startswith(f"{f}: ")

    @pytest.mark.parametrize("field", ["entity_emb", "relation_emb", "proj"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_is_refused(self, tmp_path, field, value):
        p = ModelParams.random(3, 2, 2, 2, np.random.default_rng(3))
        getattr(p, field).flat[-1] = value
        f = tmp_path / "m.ptrm"
        p.save(f)
        with pytest.raises(ModelError, match=f"non-finite {field}") as err:
            ModelParams.load(f)
        assert str(err.value).startswith(f"{f}: ")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_a_corrupted_file_loads_or_raises_model_error(self, tmp_path_factory, data):
        f = tmp_path_factory.mktemp("corrupt") / "m.ptrm"
        ModelParams.random(3, 4, 2, 3, np.random.default_rng(3)).save(f)
        f.write_bytes(corrupt(data, f.read_bytes()))
        try:
            ModelParams.load(f)
        except ModelError:
            pass


def hand_params() -> ModelParams:
    ent = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.float32)
    rel = np.array([[3.0, 4.0]], dtype=np.float32)
    proj = np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=np.float32)
    return ModelParams(ent, rel, proj)


class TestScores:
    def test_transe_hand_values(self):
        # The warm start's energy: the projected one with M_r = I, which is
        # the squared translation residual.
        p = hand_params()
        p.proj[:] = np.eye(2, dtype=np.float32)
        # u = h + r - t = (2, 5)
        assert score_transr(p, 0, 0, 1) == 29.0
        e, gh, gt, gr, _ = transr_energy_and_grads(p, 0, 0, 1)
        assert e == 29.0
        np.testing.assert_array_equal(gh, [4.0, 10.0])
        np.testing.assert_array_equal(gr, gh)
        np.testing.assert_array_equal(gt, -gh)

    def test_transr_hand_value(self):
        p = hand_params()
        # Mh = (3, 2), Mt = (3, 1), u = (3, 5) -> 9 + 25
        assert score_transr(p, 0, 0, 1) == pytest.approx(34.0)

    def test_transr_hand_gradients(self):
        p = hand_params()
        e, gh, gt, gr, gM = transr_energy_and_grads(p, 0, 0, 1)
        assert e == 34.0
        np.testing.assert_allclose(gh, [6.0, 16.0])
        np.testing.assert_allclose(gt, [-6.0, -16.0])
        np.testing.assert_allclose(gr, [6.0, 10.0])
        np.testing.assert_allclose(gM, [[-6.0, 6.0], [-10.0, 10.0]])

    def test_energy_and_grads_consistent(self):
        rng = np.random.default_rng(3)
        p = grid_params(rng, 4, 3, 3, 2)
        e, gh, gt, gr, gM = transr_energy_and_grads(p, 0, 1, 2)
        # The reference step's hinge energy is the score the evaluator ranks by.
        assert e == score_transr(p, 0, 1, 2)
        np.testing.assert_array_equal(gt, -gh)

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
        # The warm start's block makes no product with M_r.  With identity
        # projections it must give the projected block's values, and its
        # summed gradients those of the squared translation residuals.
        rng = np.random.default_rng(5)
        pos = np.array([(2, 0, 0), (0, 1, 2), (1, 1, 2)])  # sorted by relation
        neg = np.array([(1, 0, 0), (0, 1, 3), (3, 1, 2)])
        for _ in range(5):
            p = grid_params(rng, 4, 2, 4, 4)
            p.proj[:] = np.eye(4, dtype=np.float32)
            warm = _fact_block(p, pos, neg, margin=1e6)
            projected = _fact_block(p, pos, neg, 1e6, np.zeros((2, 4, 4)))
            for ours, theirs in zip(warm, projected, strict=True):
                np.testing.assert_array_equal(ours, theirs)
            _, on, ids, grads, rels, _, gr = warm
            assert on.all()
            ent = np.zeros((4, 4))
            _add_rows(ent, ids, grads)
            f = lambda: sum(score_transr(p, *a) - score_transr(p, *b) for a, b in zip(pos, neg))
            for j in range(4):
                for e in range(4):
                    assert_grad_close(ent[e, j], central_diff(f, p.entity_emb, (e, j)))
                for k, r in enumerate(rels):
                    assert_grad_close(gr[k, j], central_diff(f, p.relation_emb, (r, j)))


def path_gap(params: ModelParams, path: tuple[int, ...], r: int) -> np.ndarray:
    """Composed path minus relation r, as the trainer and the rerank build it."""
    rel = relation_rows(params)
    rows = np.array([path + (-1,) * (2 - len(path))])
    return compose_paths(rel, rows)[0] - rel[r]


class TestPathEnergy:
    def test_compose(self):
        p = hand_params()
        rel = relation_rows(p)
        np.testing.assert_array_equal(compose_paths(rel, np.array([[0, 0]])), [[6.0, 8.0]])
        # The -1 padding of a 1-hop path adds -0.0: the relation itself, bit for bit.
        one_hop = compose_paths(rel, np.array([[0, -1]]))
        assert one_hop.tobytes() == p.relation_emb.astype(np.float64).tobytes()

    def test_energy_hand_value(self):
        ent = np.zeros((1, 2), dtype=np.float32)
        rel = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], dtype=np.float32)
        proj = np.repeat(np.eye(2, dtype=np.float32)[None], 3, axis=0)
        p = ModelParams(ent, rel, proj)
        # p - r = (1,0) + (0,2) - (1,1) = (0,1); E = 0.5 * 1
        assert gap_energy_and_grads(path_gap(p, (0, 1), 2), 0.5)[0] == 0.5

    def test_energy_grads_match_finite_differences(self):
        rng = np.random.default_rng(6)
        p = grid_params(rng, 2, 4, 3, 3)
        path, r, rel = (0, 2), 1, 0.7
        _, gp, gr = gap_energy_and_grads(path_gap(p, path, r), rel)
        f = lambda: gap_energy_and_grads(path_gap(p, path, r), rel)[0]
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
        q = path_gap(params, (0, 1), 2)
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
    assert span_path_terms(params, table, *table.pair_spans(h, t), r).tolist() == got.tolist()
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
        own = [path_tuple(row) for row in table.path_rels].index((2,))
        assert own not in ev.path[ev.triple == 0].tolist()
        assert own in ev.path[ev.triple == 1].tolist()
        assert ev.z[1] == 0.0 and (ev.reliability[ev.triple == 1] == 0.0).all()
        assert not (ev.triple == 2).any()
        assert ev.z[0] > 0.0 and ev.z[3] == ev.z[0]
        assert_kernel_matches_oracle(params, table, batch)
        # Bit for bit: the span kernel fed pair_spans, the wrapper and the oracle.
        lo, hi = table.pair_spans(batch[:, 0], batch[:, 2])
        want = [path_score_term(params, table, *triple) for triple in batch.tolist()]
        assert span_path_terms(params, table, lo, hi, batch[:, 1]).tolist() == want
        assert path_score_terms(params, table, *batch.T).tolist() == want

    def test_relatedness_is_read_once_per_distinct_path_relation(self, tri_setup, monkeypatch):
        # path_evidence (the trainer's) and the span kernel (the rerank's)
        # share one evidence step: one needle per distinct (path, relation).
        g, params, table = tri_setup
        h, t = np.divmod(table.pair_keys, table.n_entities)
        r = np.arange(g.n_relations)[:, None]
        batch = np.stack(np.broadcast_arrays(h, r, t), axis=-1).reshape(-1, 3)
        batch = np.concatenate((batch, batch[::-1]))
        calls = []
        relatedness = PathTable.relatedness

        def spy(self, r, path):
            calls.append(list(zip(path.tolist(), r.tolist())))
            return relatedness(self, r, path)

        monkeypatch.setattr(PathTable, "relatedness", spy)
        ev = path_evidence(table, *batch.T)
        span_path_terms(params, table, *table.pair_spans(batch[:, 0], batch[:, 2]), batch[:, 1])
        want = sorted(set(zip(ev.path.tolist(), batch[ev.triple, 1].tolist())))
        assert len(want) < len(ev.path)  # pairs recur, each read once
        assert calls == [want, want]

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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_shared_path_relation_pairs_match_the_oracle_bit_for_bit(self, seed):
        # The rerank's batches: many triples per relation, so most (path,
        # relation) pairs recur, each distance computed once.
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(rng, max_edges=24)
        g = make_graph(triples, n_entities=n_ent, n_relations=n_rel)
        table = build_path_table(g, reliability_floor=0.0, cap=int(rng.integers(1, 8)))
        params = ModelParams.random(n_ent, g.n_relations, 3, int(rng.integers(1, 40)), rng)
        # Every stored pair with every relation: each stored 1-hop path is
        # some triple's self path, and zero relatedness and z == 0 come
        # wherever the graph has them; then a shuffled copy and repeated
        # draws, so keys recur in and out of order.
        h, t = np.divmod(table.pair_keys, n_ent)
        r = np.arange(g.n_relations)[:, None]
        batch = np.stack(np.broadcast_arrays(h, r, t), axis=-1).reshape(-1, 3)
        batch = np.concatenate((batch, rng.permutation(batch),
                                batch[rng.integers(len(batch), size=len(batch))]))
        got = path_score_terms(params, table, *batch.T)
        want = [path_score_term(params, table, *triple) for triple in batch.tolist()]
        assert got.tolist() == want
        # The span kernel, fed the same entry ranges, gives the same bits.
        lo, hi = table.pair_spans(batch[:, 0], batch[:, 2])
        assert span_path_terms(params, table, lo, hi, batch[:, 1]).tolist() == want
        ev = path_evidence(table, *batch.T)
        self_paths = (table.path_rels[table.entry_path, 1] < 0).any()
        assert (len(ev.path) < (hi - lo).sum()) == self_paths  # and left out
        # Each distance has the bits of a row of its own.
        rels = batch[ev.triple, 1]
        gaps = [path_gap(params, path_tuple(table.path_rels[p]), x)
                for p, x in zip(ev.path, rels)]
        assert path_distances(params, table, ev.path, rels).tolist() == [q @ q for q in gaps]


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
        p.proj[0, 0] *= np.float32(2.0)  # entities project to different norms
        before = p.proj.copy()
        triples = np.array([(0, 0, 1), (2, 0, 3), (0, 1, 1)])
        assert project_constraints(p, [], [], triples) == 1
        # One division by the largest norm over r0's triples puts the
        # farthest entity on the boundary; r1 projects inside the ball.
        ent = p.entity_emb.astype(np.float64)
        f = np.linalg.norm(ent @ before[0].astype(np.float64).T, axis=1).max()
        assert np.array_equal(p.proj[0], (before[0].astype(np.float64) / f).astype(np.float32))
        assert np.array_equal(p.proj[1], before[1])
        norms = np.linalg.norm(ent @ p.proj[0].astype(np.float64).T, axis=1)
        assert norms.max() == pytest.approx(1.0, abs=1e-6)

    def test_zero_vector_is_an_error(self):
        rng = np.random.default_rng(10)
        p = ModelParams.random(3, 2, 2, 2, rng)
        p.entity_emb[0] = 0.0
        with pytest.raises(ModelError):
            project_constraints(p, [0], [])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_row_norms_are_linalg_norms_bit_for_bit(self, data):
        # Widths past 8 and 128 reach numpy's unrolled and pairwise sums.
        n, k = data.draw(st.integers(0, 6), label="rows"), data.draw(st.integers(1, 300), label="k")
        floats = st.floats(-1e150, 1e150, allow_nan=False)
        rows = np.array(data.draw(st.lists(floats, min_size=n * k, max_size=n * k)),
                        dtype=np.float64).reshape(n, k)
        assert _row_norms(rows).tobytes() == np.linalg.norm(rows, axis=1).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_are_scaled_by_linalg_norms(self, data):
        # Rows are left alone or divided according to np.linalg.norm's
        # float64 norms.  Some rows start on the sphere as float32 rounding
        # leaves them, inside or just outside the slack.  A zero row among
        # them is refused and leaves every row as it was.
        n, k = data.draw(st.integers(1, 8), label="rows"), data.draw(st.integers(1, 24), label="k")
        floats = st.floats(-1e3, 1e3, allow_nan=False, width=32)
        rows = np.array(data.draw(st.lists(floats, min_size=n * k, max_size=n * k)),
                        dtype=np.float32).reshape(n, k)
        assume((np.abs(rows).max(axis=1) > 1e-30).all())
        unit = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        wide = rows[unit].astype(np.float64)
        rows[unit] = (wide / np.linalg.norm(wide, axis=1, keepdims=True)).astype(np.float32)
        sub = rows.astype(np.float64)
        norms = np.linalg.norm(sub, axis=1)
        off = np.abs(norms - 1.0) > 1e-7
        want = rows.copy()
        want[off] = (sub[off] / norms[off, None]).astype(np.float32)
        proj = np.zeros((1, 1, k), dtype=np.float32)
        p = ModelParams(rows.copy(), np.ones((1, 1), dtype=np.float32), proj)
        project_constraints(p, range(n), [])
        assert p.entity_emb.tobytes() == want.tobytes()
        rows[data.draw(st.integers(0, n - 1), label="zero row")] = 0.0
        p = ModelParams(rows.copy(), np.ones((1, 1), dtype=np.float32), proj)
        with pytest.raises(ModelError, match="zero vector"):
            project_constraints(p, range(n), [])
        assert p.entity_emb.tobytes() == rows.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        p = ModelParams.random(6, 4, 3, 3, rng)
        p.entity_emb[rng.integers(6)] *= np.float32(1.7)
        p.proj[rng.integers(4)] *= np.float32(2.5)
        triples = np.stack([rng.integers(6, size=5), rng.integers(4, size=5),
                            rng.integers(6, size=5)], axis=1)
        project_constraints(p, range(6), range(4), triples)
        snap = (p.entity_emb.copy(), p.relation_emb.copy(), p.proj.copy())
        assert project_constraints(p, range(6), range(4), triples) == 0
        assert np.array_equal(p.entity_emb, snap[0])
        assert np.array_equal(p.relation_emb, snap[1])
        assert np.array_equal(p.proj, snap[2])
