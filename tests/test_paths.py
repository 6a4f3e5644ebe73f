"""Path enumeration, resource flow, and the mined path table."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TRI, make_graph, random_triples
from oracles import all_witnessed_paths, path_table_oracle, walk_probability
from pathkge.paths import (
    PathError,
    PathTable,
    build_path_table,
    enumerate_paths,
    pcra_resource,
)


class TestEnumerate:
    def test_chain(self, chain_graph):
        paths = dict(enumerate_paths(chain_graph, 0, 2))
        assert paths == {(0, 1): 1}

    def test_diamond_counts_witnesses(self, diamond_graph):
        paths = dict(enumerate_paths(diamond_graph, 0, 3))
        assert paths == {(0, 1): 2}

    def test_single_hop_and_inverse(self, tri_graph):
        paths = dict(enumerate_paths(tri_graph, 0, 2))
        assert paths == {(2,): 1, (0, 1): 1}
        assert dict(enumerate_paths(tri_graph, 2, 0)) == {(5,): 1, (4, 3): 1}

    def test_max_hops_validation(self, tri_graph):
        with pytest.raises(PathError):
            enumerate_paths(tri_graph, 0, 2, max_hops=3)
        assert dict(enumerate_paths(tri_graph, 0, 2, max_hops=1)) == {(2,): 1}


class TestResourceFlow:
    def test_chain_carries_everything(self, chain_graph):
        assert pcra_resource(chain_graph, 0, (0, 1), 2) == 1.0

    def test_diamond_merges_flow(self, diamond_graph):
        assert pcra_resource(diamond_graph, 0, (0, 1), 3) == pytest.approx(1.0)

    def test_leaked_flow(self):
        # 2 has no r1 edge, so half the resource dies there.
        g = make_graph([(0, 0, 1), (0, 0, 2), (1, 1, 3)], augment=False)
        assert pcra_resource(g, 0, (0, 1), 3) == pytest.approx(0.5)

    def test_no_witness_is_an_error(self, chain_graph):
        with pytest.raises(PathError):
            pcra_resource(chain_graph, 0, (1,), 3)
        with pytest.raises(PathError):
            pcra_resource(chain_graph, 0, (), 2)

    def test_duplicate_edges_do_not_skew_split(self):
        g = make_graph(
            [(0, 0, 1), (0, 0, 1), (0, 0, 2), (1, 1, 3)], augment=False
        )
        assert pcra_resource(g, 0, (0, 1), 3) == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_walk_oracle(self, seed):
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(rng, max_entities=6)
        g = make_graph(triples, n_entities=n_ent, n_relations=n_rel, augment=False)
        for h in range(n_ent):
            for t in range(n_ent):
                mined = dict(enumerate_paths(g, h, t))
                oracle = all_witnessed_paths(triples, h, t, n_rel)
                assert set(mined) == set(oracle)
                for path in mined:
                    assert pcra_resource(g, h, path, t) == pytest.approx(
                        oracle[path], abs=1e-12
                    )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_conservation_with_full_out_degree(self, seed):
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(rng, max_entities=6)
        path = tuple(
            int(rng.integers(n_rel)) for _ in range(int(rng.integers(1, 3)))
        )
        # Guarantee every entity forwards resource at every hop.
        present = {(h, r) for h, r, _ in triples}
        for e in range(n_ent):
            for r in set(path):
                if (e, r) not in present:
                    triples.append((e, r, int(rng.integers(n_ent))))
        g = make_graph(triples, n_entities=n_ent, n_relations=n_rel, augment=False)
        h = int(rng.integers(n_ent))
        total = 0.0
        for t in range(n_ent):
            try:
                total += pcra_resource(g, h, path, t)
            except PathError:
                pass
        assert total == pytest.approx(1.0, abs=1e-12)


def table_as_dicts(table: PathTable):
    """Reshape a PathTable into the oracle's dict form."""
    entries = {}
    for h, t, ids, vs in table.pair_items():
        entries[(h, t)] = {
            table.path_rels[pid]: v for pid, v in zip(ids.tolist(), vs.tolist())
        }
    relatedness = {}
    for pid, rels in enumerate(table.path_rels):
        lo, hi = table.relat_offsets[pid], table.relat_offsets[pid + 1]
        if hi > lo:
            relatedness[rels] = {
                int(r): float(v)
                for r, v in zip(table.relat_rel[lo:hi], table.relat_val[lo:hi])
            }
    return entries, relatedness


def assert_matches_oracle(g, triples, floor, cap):
    table = build_path_table(g, reliability_floor=floor, cap=cap)
    got_entries, got_rel = table_as_dicts(table)
    want_entries, want_rel = path_table_oracle(
        g.train.tolist(), g.n_relations, floor, cap
    )
    assert set(got_entries) == set(want_entries)
    for pair, want in want_entries.items():
        got = got_entries[pair]
        assert set(got) == set(want)
        for path, v in want.items():
            assert got[path] == pytest.approx(v, abs=1e-12)
    # Relatedness must agree for every path the table retained.
    for path, by_rel in got_rel.items():
        want = want_rel.get(path, {})
        assert set(by_rel) == set(want)
        for r, val in by_rel.items():
            assert val == pytest.approx(want[r], abs=1e-12)
    return table


class TestBuildTable:
    def test_tri_literal_values(self, tri_graph):
        table = build_path_table(tri_graph, reliability_floor=0.01, cap=10)
        # Six pairs, each keeping exactly its 2-hop path; the bare
        # single-relation entries have no other linking relation to make
        # them reliable, so the floor removes them.
        assert table.n_pairs == 6
        assert table.n_entries == 6
        entries, relatedness = table_as_dicts(table)
        assert entries[(0, 2)] == {(0, 1): pytest.approx(1.0)}
        assert entries[(2, 0)] == {(4, 3): pytest.approx(1.0)}
        assert relatedness[(0, 1)] == {2: pytest.approx(1.0)}

    def test_tri_floor_zero_keeps_singletons(self, tri_graph):
        table = build_path_table(tri_graph, reliability_floor=0.0, cap=10)
        assert table.n_entries == 12
        entries, _ = table_as_dicts(table)
        assert entries[(0, 2)] == {
            (2,): pytest.approx(1.0),
            (0, 1): pytest.approx(1.0),
        }

    def test_matches_oracle_on_fixtures(self, tri_graph, diamond_graph, chain_graph):
        for g in (tri_graph, diamond_graph, chain_graph):
            for floor in (0.0, 0.01, 0.4):
                assert_matches_oracle(g, g.train.tolist(), floor, 10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from([0.0, 0.05, 0.3]))
    def test_matches_oracle_on_random_graphs(self, seed, floor):
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(rng, max_entities=5, max_edges=10)
        g = make_graph(triples, n_entities=n_ent, n_relations=n_rel)
        assert_matches_oracle(g, g.train.tolist(), floor, 200)

    def test_cap_keeps_highest_flow_paths(self):
        # Pair (0, 5) has one direct edge and three 2-hop routes.
        triples = [(0, 0, 5)]
        for i, (r1, r2) in enumerate([(1, 2), (3, 4), (5, 6)]):
            triples.append((0, r1, i + 1))
            triples.append((i + 1, r2, 5))
        g = make_graph(triples, n_entities=6, n_relations=7)
        assert_matches_oracle(g, g.train.tolist(), 0.0, 2)
        table = build_path_table(g, reliability_floor=0.0, cap=2)
        ids, _ = table.paths_for(0, 5)
        assert len(ids) == 2

    def test_validation(self, tri_graph):
        with pytest.raises(PathError):
            build_path_table(tri_graph, reliability_floor=1.0)
        with pytest.raises(PathError):
            build_path_table(tri_graph, reliability_floor=-0.1)
        with pytest.raises(PathError):
            build_path_table(tri_graph, cap=0)
        with pytest.raises(PathError):
            build_path_table(make_graph(TRI, augment=False))

    def test_floor_near_one_keeps_perfect_paths(self, tri_graph):
        table = build_path_table(tri_graph, reliability_floor=0.999999)
        assert table.n_entries == 6

    def test_workers_agree_with_serial(self, diamond_graph):
        a = build_path_table(diamond_graph, reliability_floor=0.0, cap=10, workers=1)
        b = build_path_table(diamond_graph, reliability_floor=0.0, cap=10, workers=2)
        assert a.path_rels == b.path_rels
        assert np.array_equal(a.pair_keys, b.pair_keys)
        assert np.array_equal(a.entry_path, b.entry_path)
        assert np.array_equal(a.entry_v, b.entry_v)
        assert np.array_equal(a.relat_val, b.relat_val)

    def test_build_stats(self, tri_graph):
        stats: dict = {}
        build_path_table(tri_graph, reliability_floor=0.01, cap=10, stats=stats)
        assert stats["n_pairs"] == 6
        assert stats["n_entries"] == 6
        assert stats["n_entries_prefilter"] == 12
        assert stats["drop_rate"] == pytest.approx(0.5)


class TestPersistence:
    def test_roundtrip(self, tri_graph, tmp_path):
        table = build_path_table(tri_graph, reliability_floor=0.01, cap=10)
        f = tmp_path / "t.ptbl"
        table.save(f)
        again = PathTable.load(f)
        assert again.n_entities == table.n_entities
        assert again.reliability_floor == table.reliability_floor
        assert again.cap == table.cap
        assert again.path_rels == table.path_rels
        for name in (
            "support", "relat_offsets", "relat_rel", "relat_val",
            "pair_keys", "pair_offsets", "entry_path", "entry_v",
        ):
            assert np.array_equal(getattr(again, name), getattr(table, name))
        again.save(tmp_path / "t2.ptbl")
        assert (tmp_path / "t.ptbl").read_bytes() == (tmp_path / "t2.ptbl").read_bytes()

    def test_empty_roundtrip(self, tmp_path):
        table = PathTable.empty(42)
        f = tmp_path / "e.ptbl"
        table.save(f)
        again = PathTable.load(f)
        assert again.n_entities == 42
        assert again.n_paths == 0 and again.n_pairs == 0
        ids, vs = again.paths_for(3, 7)
        assert len(ids) == 0 and len(vs) == 0

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "bad.ptbl"
        f.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(PathError, match="magic"):
            PathTable.load(f)

    def test_bad_version(self, tmp_path, tri_graph):
        f = tmp_path / "v.ptbl"
        build_path_table(tri_graph).save(f)
        blob = bytearray(f.read_bytes())
        blob[4] = 99
        f.write_bytes(bytes(blob))
        with pytest.raises(PathError, match="version"):
            PathTable.load(f)

    def test_truncated(self, tmp_path, tri_graph):
        f = tmp_path / "t.ptbl"
        build_path_table(tri_graph).save(f)
        blob = f.read_bytes()
        f.write_bytes(blob[: len(blob) - 8])
        with pytest.raises(PathError, match="truncated"):
            PathTable.load(f)

    def test_trailing_bytes(self, tmp_path, tri_graph):
        f = tmp_path / "t.ptbl"
        build_path_table(tri_graph).save(f)
        with open(f, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(PathError, match="trailing"):
            PathTable.load(f)

    def test_dump_tsv(self, tri_graph, tmp_path):
        table = build_path_table(tri_graph, reliability_floor=0.01, cap=10)
        f = tmp_path / "dump.tsv"
        table.dump_tsv(f)
        lines = f.read_text().splitlines()
        assert len(lines) == table.n_entries
        first = lines[0].split("\t")
        assert len(first) == 4
        assert first[0] == "0" and first[1] == "1"
        assert first[2] == "2,4"  # 0 -r2-> 2 -r1^-1-> 1
        assert float(first[3]) == pytest.approx(1.0)

    def test_determinism_across_builds(self, tri_graph, tmp_path):
        build_path_table(tri_graph).save(tmp_path / "a.ptbl")
        build_path_table(tri_graph).save(tmp_path / "b.ptbl")
        assert (tmp_path / "a.ptbl").read_bytes() == (tmp_path / "b.ptbl").read_bytes()


class TestQueries:
    def test_paths_for_missing_pair(self, tri_graph):
        table = build_path_table(tri_graph)
        ids, vs = table.paths_for(1, 1)
        assert len(ids) == 0 and len(vs) == 0

    def test_relatedness_unseen_relation(self, tri_graph):
        table = build_path_table(tri_graph, reliability_floor=0.0)
        pid = table.path_rels.index((0, 1))
        assert table.relatedness(2, pid) == pytest.approx(1.0)
        assert table.relatedness(1, pid) == 0.0
        # The lookup is vectorized over (relation, path id) arrays.
        got = table.relatedness([2, 1, 2], [pid, pid, pid])
        assert got.tolist() == [pytest.approx(1.0), 0.0, pytest.approx(1.0)]

    def test_support_is_total_linked_flow(self, tri_graph):
        table = build_path_table(tri_graph, reliability_floor=0.0)
        pid = table.path_rels.index((0, 1))
        assert table.support[pid] == pytest.approx(1.0)
        # Bare single-relation paths are never evidence for themselves.
        pid_single = table.path_rels.index((2,))
        assert table.support[pid_single] == 0.0
