"""Path mining: resource flows and the mined path table."""

from __future__ import annotations

import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHAIN, DIAMOND, TRI, corrupt, make_graph, mined_flows, random_triples
from oracles import all_witnessed_paths, collect_head, path_table_oracle, path_tuple
from pathkge import paths
from pathkge.paths import PathError, PathTable, build_path_table


class TestEnumerate:
    def test_single_hop_and_inverse(self, tri_graph):
        mined = mined_flows(tri_graph)
        assert set(mined[(0, 2)]) == {(2,), (0, 1)}
        assert set(mined[(2, 0)]) == {(5,), (4, 3)}


def linked_flows(triples, h: int, t: int) -> dict[tuple[int, ...], float]:
    """The mined flows of (h, t) once one fact of a fresh relation links the
    pair: the link adds no edge under an existing relation, so every other
    path keeps its flow."""
    n_rel = 1 + max(r for _, r, _ in triples)
    g = make_graph([*triples, (h, n_rel, t)], n_relations=n_rel + 1)
    flows = mined_flows(g)[(h, t)]
    assert flows.pop((n_rel,)) == 1.0
    return flows


class TestResourceFlow:
    def test_chain_carries_everything(self):
        assert linked_flows(CHAIN, 0, 2) == {(0, 1): 1.0}

    def test_diamond_merges_flow(self):
        # Two witness walks, one entry.
        assert linked_flows(DIAMOND, 0, 3) == {(0, 1): pytest.approx(1.0)}

    def test_leaked_flow(self):
        # 2 has no r1 edge, so half the resource dies there.
        flows = linked_flows([(0, 0, 1), (0, 0, 2), (1, 1, 3)], 0, 3)
        assert flows == {(0, 1): pytest.approx(0.5)}

    def test_duplicate_edges_do_not_skew_split(self):
        flows = linked_flows([(0, 0, 1), (0, 0, 1), (0, 0, 2), (1, 1, 3)], 0, 3)
        assert flows == {(0, 1): pytest.approx(0.5)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_walk_oracle(self, seed):
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(rng, max_entities=6)
        g = make_graph(triples, n_entities=n_ent, n_relations=n_rel)
        edges = g.train.tolist()
        mined = mined_flows(g)
        assert set(mined) == {(h, t) for h, _, t in edges}
        for (h, t), flows in mined.items():
            oracle = all_witnessed_paths(edges, h, t, g.n_relations)
            assert set(flows) == set(oracle)
            for path, v in oracle.items():
                assert flows[path] == pytest.approx(v, abs=1e-12)

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
        # A fresh relation links h to every entity, so every end of the
        # path is a mined pair; it adds no edge under a path relation.
        h = int(rng.integers(n_ent))
        triples += [(h, n_rel, t) for t in range(n_ent)]
        g = make_graph(triples, n_entities=n_ent, n_relations=n_rel + 1)
        mined = mined_flows(g)
        total = sum(mined[(h, t)].get(path, 0.0) for t in range(n_ent))
        assert total == pytest.approx(1.0, abs=1e-12)


def table_as_dicts(table: PathTable):
    """Reshape a PathTable into the oracle's dict form."""
    entries = {}
    for key in table.pair_keys.tolist():
        h, t = divmod(key, table.n_entities)
        ids, vs = table.paths_for(h, t)
        entries[(h, t)] = {
            path_tuple(table.path_rels[pid]): v for pid, v in zip(ids.tolist(), vs.tolist())
        }
    relatedness = {}
    for pid, row in enumerate(table.path_rels):
        lo, hi = table.relat_offsets[pid], table.relat_offsets[pid + 1]
        if hi > lo:
            relatedness[path_tuple(row)] = {
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


FLOORS = (0.0, paths.DEFAULT_RELIABILITY_FLOOR, 0.5)


def table_bytes(table: PathTable, tmp) -> bytes:
    table.save(tmp / "t.ptbl")
    return (tmp / "t.ptbl").read_bytes()


def assert_chunks_change_no_byte(g, floor: float, cap: int, tmp) -> None:
    """One head per chunk, a few heads and one chunk for all heads build
    the default chunks' bytes."""
    want = table_bytes(build_path_table(g, floor, cap), tmp)
    for budget in (1, 64, 2**40):
        with mock.patch.object(paths, "_MINE_BYTES", budget):
            assert table_bytes(build_path_table(g, floor, cap), tmp) == want


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

    @pytest.mark.parametrize("floor", FLOORS)
    @pytest.mark.parametrize("cap", [1, 2, 200])
    def test_chunks_change_no_byte_on_fixtures(self, tri_graph, diamond_graph, chain_graph,
                                               tmp_path, floor, cap):
        for g in (tri_graph, diamond_graph, chain_graph):
            assert_chunks_change_no_byte(g, floor, cap, tmp_path)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from(FLOORS), st.sampled_from([1, 2, 200]))
    def test_chunks_change_no_byte_on_random_graphs(self, tmp_path_factory, seed, floor, cap):
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(rng, max_entities=12, max_edges=40)
        g = make_graph(triples, n_entities=n_ent, n_relations=n_rel)
        assert_chunks_change_no_byte(g, floor, cap, tmp_path_factory.mktemp("chunks"))

    def test_mining_peak_memory_is_bounded(self):
        # 3,000 facts (6,000 with inverses) on 200 entities mine ~31,000
        # entries.  16 KB chunks split the graph into many, as the default
        # budget splits mine-M's.  Of a chunk only its entries (16 bytes) and
        # their evidence rows' ids (8 bytes a row) stay, so numpy's traced
        # peak is ~1.3 MB; joining and summing all entries at once peaks at
        # ~3.1 MB, and the 2 MB bound lies between.  tracemalloc counts each
        # allocation's bytes, so the figures do not vary from run to run.
        rng = np.random.default_rng(0)
        triples = rng.integers(0, [200, 4, 200], size=(3000, 3)).tolist()
        g = make_graph(triples, n_entities=200, n_relations=4)
        g.train_pairs(), g.unique_adjacency()  # the graph's indexes, not mining's
        stats: dict = {}
        tracemalloc.start()
        try:
            with mock.patch.object(paths, "_MINE_BYTES", 2**14):
                build_path_table(g, stats=stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats["n_entries_prefilter"] > 30_000
        assert peak < 2 * 2**20, peak

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
        # At cap 2 only (0, 5) and its mirror (5, 0) hold more: one fact and
        # three 2-hop routes each.  Every other pair, (0, i), (i, 5) and
        # their mirrors for i = 1..3, holds its fact and one route through
        # 5 or 0, so cap 1 cuts all 14 pairs.
        for cap, capped in ((1, 14), (2, 2), (3, 2), (4, 0)):
            stats: dict = {}
            build_path_table(g, reliability_floor=0.0, cap=cap, stats=stats)
            assert (stats["n_pairs"], stats["n_pairs_capped"]) == (14, capped)

    def test_validation(self, tri_graph):
        with pytest.raises(PathError):
            build_path_table(tri_graph, reliability_floor=1.0)
        with pytest.raises(PathError):
            build_path_table(tri_graph, reliability_floor=-0.1)
        with pytest.raises(PathError):
            build_path_table(tri_graph, cap=0)
        with pytest.raises(PathError):
            build_path_table(make_graph(TRI, augment=False))
        # (h * n + t) * n_rel * (n_rel + 1) must fit an int64 key.
        huge = make_graph([(0, 0, 1)], n_entities=100_000, n_relations=15_200)
        with pytest.raises(PathError, match="overflow"):
            build_path_table(huge)

    def test_floor_near_one_keeps_perfect_paths(self, tri_graph):
        table = build_path_table(tri_graph, reliability_floor=0.999999)
        assert table.n_entries == 6

    def test_build_stats(self, tri_graph):
        stats: dict = {}
        build_path_table(tri_graph, reliability_floor=0.01, cap=10, stats=stats)
        assert stats["n_pairs"] == 6
        assert stats["n_entries"] == 6
        assert stats["n_entries_prefilter"] == 12
        assert stats["drop_rate"] == pytest.approx(0.5)
        assert stats["n_pairs_capped"] == 0
        # One walk h -> m -> t per pair: 0-1-2, 0-2-1, 1-2-0, 1-0-2, 2-1-0, 2-0-1.
        assert stats["n_walks"] == 6


def per_head_entries(g, cap: int):
    """The reference miner's (pair key, path code, flow) entries, head
    after head, and how many pairs its uncapped run holds above ``cap``."""
    n_ent = g.n_entities
    heads = np.unique(g.train_pairs() // n_ent)
    parts = [collect_head(g, h, cap) for h in heads.tolist()]
    tails, codes, flows = (np.concatenate([part[i] for part in parts]) for i in range(3))
    key = np.repeat(heads, [len(part[0]) for part in parts]) * n_ent + tails
    uncapped = np.concatenate([
        np.unique(collect_head(g, h, 2**31)[0] + h * n_ent, return_counts=True)[1]
        for h in heads.tolist()
    ])
    return key, codes, flows, int((uncapped > cap).sum())


def assert_collect_matches_heads(g, cap: int) -> None:
    want_key, want_codes, want_flows, want_capped = per_head_entries(g, cap)
    # The default chunks, one head per chunk, and a few heads per chunk.
    for budget in (paths._MINE_BYTES, 1, 64):
        counts: dict = {}
        with mock.patch.object(paths, "_MINE_BYTES", budget):
            n_code, parts, _ = paths._collect(g, cap, counts)
        key = np.concatenate([part[0] for part in parts] + [np.zeros(0, np.int64)])
        pair, codes = np.divmod(key, n_code)
        flows = np.concatenate([part[1] for part in parts] + [np.zeros(0)])
        assert np.array_equal(g.train_pairs()[pair], want_key)
        assert np.array_equal(codes, want_codes)
        assert np.array_equal(flows.view(np.int64), want_flows.view(np.int64))
        assert counts["n_pairs_capped"] == want_capped


class TestSumRuns:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 62), st.integers(0, 300))
    def test_matches_unique_and_sequential_sums(self, seed, top, n):
        # Keys below 2**top, with repeats; each sum must add in input order.
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, 2**top, 1 + n // 3, endpoint=True)
        key = pool[rng.integers(0, len(pool), n)]
        val = rng.standard_normal(n)
        keys, sums, run = paths._sum_runs(key, val)
        want_keys, want_run = np.unique(key, return_inverse=True)
        assert np.array_equal(keys, want_keys) and np.array_equal(run, want_run)
        want = np.zeros(len(want_keys))
        for r, x in zip(want_run.tolist(), val.tolist()):
            want[r] += x
        assert np.array_equal(sums.view(np.int64), want.view(np.int64))


class TestCollect:
    """The bit-set miner against the per-head walk expansion, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 6))
    def test_matches_per_head_expansion(self, seed, cap):
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(rng, max_entities=7, max_edges=24)
        h, r, t = triples[0]
        # A duplicate fact, a self-loop and a second relation on one pair.
        triples += [(h, r, t), (t, r, t), (h, (r + 1) % n_rel, t)]
        g = make_graph(triples, n_entities=n_ent, n_relations=n_rel)
        assert_collect_matches_heads(g, cap)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.one_of(st.sampled_from([64, 65, 127, 128]),
                                            st.integers(1, 200)))
    def test_pair_index_is_the_rank_of_the_pair_key(self, seed, n_ent):
        rng = np.random.default_rng(seed)
        triples = [tuple(x) for x in rng.integers(0, [n_ent, 2, n_ent], (2 * n_ent, 3)).tolist()]
        # Walks h -> m -> t ending at bits 0 and 63 of a word and in the
        # row's last word.
        for t in {0, 63, 64, 127, n_ent - 1, 64 * ((n_ent - 1) // 64)} & set(range(n_ent)):
            h, m = rng.integers(0, n_ent, 2).tolist()
            triples += [(h, 0, m), (m, 1, t), (h, 0, t)]
        g = make_graph(triples, n_entities=n_ent, n_relations=2)
        keys = g.train_pairs()
        uoff, _, udst, _ = g.unique_adjacency()
        src = np.repeat(np.arange(n_ent), np.diff(uoff))
        words, pair_index = paths._bit_rows(n_ent, src, udst)

        bits = np.unpackbits(words.view(np.uint8), bitorder="little").reshape(n_ent, -1)
        dense = np.zeros_like(bits)
        dense[src, udst] = 1
        assert np.array_equal(bits, dense)
        heads, tails = np.divmod(keys, n_ent)
        assert np.array_equal(pair_index(heads, tails), np.arange(len(keys)))
        assert np.array_equal(pair_index(src, udst), np.searchsorted(keys, src * n_ent + udst))
        tails_of: dict = {}
        for h, t in zip(heads.tolist(), tails.tolist()):
            tails_of.setdefault(h, set()).add(t)
        walks = np.array([
            (h, m, t) for h, m in zip(heads.tolist(), tails.tolist())
            for t in tails_of[h] & tails_of.get(m, set())
        ], dtype=np.int64).reshape(-1, 3)
        assert len(walks)
        for a in (0, 1):  # the walk ends (h, t) and (m, t)
            want = np.searchsorted(keys, walks[:, a] * n_ent + walks[:, 2])
            assert np.array_equal(pair_index(walks[:, a], walks[:, 2]), want)

    @pytest.mark.parametrize("triples", [
        [(0, 0, 1)],                             # one fact
        [(0, 0, 1), (1, 1, 2), (3, 0, 4)],       # no two-hop walk ends at a pair
        [(0, 0, 0), (1, 1, 1), (1, 0, 1)],       # self-loops only
    ])
    @pytest.mark.parametrize("cap", [1, 2, 200])
    def test_small_graphs(self, triples, cap):
        assert_collect_matches_heads(make_graph(triples), cap)


def header_field(name: str) -> tuple[int, str]:
    """Offset into a .ptbl file (after the 4-byte magic) and struct format
    of the header field ``name``."""
    codes = paths._HEADER.format.lstrip("<")
    i = paths._Header._fields.index(name)
    return 4 + struct.calcsize("<" + codes[:i]), "<" + codes[i]


class TestPersistence:
    def test_roundtrip(self, tri_graph, tmp_path):
        table = build_path_table(tri_graph, reliability_floor=0.01, cap=10)
        f = tmp_path / "t.ptbl"
        table.save(f)
        again = PathTable.load(f)
        assert again.n_entities == table.n_entities
        assert again.reliability_floor == table.reliability_floor
        assert again.cap == table.cap
        assert again.n_relations == table.n_relations == tri_graph.n_relations
        assert again.path_rels.dtype == np.int32 and again.path_rels.shape == (table.n_paths, 2)
        for name in (
            "path_rels", "relat_offsets", "relat_rel", "relat_val",
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

    @pytest.mark.parametrize("field,index,value,message", [
        ("entry_v", 0, np.nan, "non-finite entry_v"),
        ("relat_val", -1, np.inf, "non-finite relat_val"),
        ("entry_v", 1, -np.inf, "non-finite entry_v"),
        ("relat_offsets", 0, 1, "relat_offsets must rise"),
        ("relat_offsets", 1, 10**9, "relat_offsets must rise"),
        ("pair_offsets", 1, 10**9, "pair_offsets must rise"),
        ("pair_offsets", -1, 1, "pair_offsets must rise"),
        ("entry_path", 0, -1, "entry_path outside"),
        ("entry_path", -1, 10**6, "entry_path outside"),
        ("pair_keys", 1, 0, "pair_keys not strictly increasing"),
        ("pair_keys", 0, -1, "pair_keys outside"),
        ("pair_keys", -1, 9, "pair_keys outside"),  # 3 entities: keys 0..8
        # 6 relations with inverses: ids 0..5, and 6 would select the
        # padding row of models.relation_rows.
        ("path_rels", (0, 0), -1, "path_rels column 0 outside 0..5"),  # the empty path
        ("path_rels", (-1, 0), 6, "path_rels column 0 outside 0..5"),
        ("path_rels", (0, 1), -2, "path_rels column 1 outside -1..5"),
        ("path_rels", (-1, 1), 6, "path_rels column 1 outside -1..5"),
        ("relat_rel", 0, -1, "relat_rel outside 0..5"),
        ("relat_rel", -1, 10**6, "relat_rel outside 0..5"),
        ("path_rels", 0, [5, 5], "path_rels not strictly increasing"),
        ("path_rels", 1, [0, -1], "path_rels not strictly increasing"),  # path 0 again
        # Mining writes flows and relatedness in (0, 1], a flow with at
        # most (n + 4) units of roundoff past 1 (3 entities here).
        ("entry_v", 0, -1.0, r"entry_v outside \(0, 1.0000000000000009\]"),
        ("entry_v", 0, 0.0, "entry_v outside"),
        ("entry_v", -1, 1e300, "entry_v outside"),
        ("entry_v", 1, 1.0 + 2.0**-49, "entry_v outside"),
        ("relat_val", 0, -5.0, r"relat_val outside \(0, 1.0\]"),
        ("relat_val", -1, 0.0, "relat_val outside"),
        ("relat_val", 0, 1.0 + 2.0**-52, "relat_val outside"),
    ])
    def test_structure_is_checked_on_load(self, tri_graph, tmp_path, field, index, value,
                                          message):
        table = build_path_table(tri_graph, reliability_floor=0.0)
        assert table.n_pairs >= 2 and table.n_paths >= 2
        getattr(table, field)[index] = value
        f = tmp_path / "bad.ptbl"
        table.save(f)
        with pytest.raises(PathError, match=message) as err:
            PathTable.load(f)
        assert str(err.value).startswith(f"{f}: ")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 24), st.sampled_from([0.0, 0.01]))
    def test_every_mined_table_loads(self, tmp_path_factory, seed, fan, floor):
        # A random graph plus a fan of ``fan`` middles from one head to one
        # tail, linked by a relation of its own: nine or more shares of
        # 1/fan can sum past 1.
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(rng, max_entities=10, max_edges=30)
        hub, end = n_ent, n_ent + fan + 1
        triples += [(hub, 0, hub + 1 + m) for m in range(fan)]
        triples += [(hub + 1 + m, 0, end) for m in range(fan)] + [(hub, n_rel, end)]
        g = make_graph(triples, n_relations=n_rel + 1)
        table = build_path_table(g, reliability_floor=floor)
        f = tmp_path_factory.mktemp("mined") / "t.ptbl"
        table.save(f)
        loaded = PathTable.load(f)
        assert loaded.entry_v.tobytes() == table.entry_v.tobytes()
        assert loaded.relat_val.tobytes() == table.relat_val.tobytes()

    def test_a_flow_rounded_past_one_loads(self, tmp_path):
        triples = [(0, 0, m) for m in range(1, 10)] + [(m, 1, 10) for m in range(1, 10)]
        table = build_path_table(make_graph([*triples, (0, 2, 10)]), reliability_floor=0.0)
        assert table.entry_v.max() == 1.0 + 2.0**-52
        table.save(tmp_path / "t.ptbl")
        assert PathTable.load(tmp_path / "t.ptbl").entry_v.max() == 1.0 + 2.0**-52

    @pytest.mark.parametrize("offset,fmt,count", [
        (*header_field("n_paths"), 2**31),
        (*header_field("n_pairs"), 2**62),
        (*header_field("n_entries"), 2**40),
        (*header_field("n_relat"), 2**63),
    ])
    def test_a_count_past_the_end_of_the_file_is_refused(self, tri_graph, tmp_path, offset,
                                                          fmt, count):
        # Refused by the size of the file, before anything that large is
        # allocated: no MemoryError, OverflowError or numpy message.
        f = tmp_path / "big.ptbl"
        build_path_table(tri_graph).save(f)
        blob = bytearray(f.read_bytes())
        struct.pack_into(fmt, blob, offset, count)
        f.write_bytes(bytes(blob))
        with pytest.raises(PathError, match="truncated") as err:
            PathTable.load(f)
        assert str(err.value).startswith(f"{f}: ")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_a_corrupted_file_loads_or_raises_path_error(self, tmp_path_factory, data):
        table = build_path_table(make_graph(TRI + DIAMOND), reliability_floor=0.0)
        f = tmp_path_factory.mktemp("corrupt") / "t.ptbl"
        table.save(f)
        f.write_bytes(corrupt(data, f.read_bytes()))
        try:
            PathTable.load(f)
        except PathError:
            pass

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
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_partners_are_a_scan_of_the_pair_keys(self, seed):
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(rng, max_entities=10, max_edges=24)
        table = build_path_table(make_graph(triples, n_entities=n_ent, n_relations=n_rel),
                                 reliability_floor=0.0)
        pairs = [divmod(key, n_ent) for key in table.pair_keys.tolist()]
        anchors = rng.integers(n_ent, size=rng.integers(0, 2 * n_ent))
        for heads in (False, True):
            owner, partner, pair = table.partners(anchors, heads)
            want = [
                (i, e)
                for i, a in enumerate(anchors.tolist())
                for e in sorted(h if heads else t for h, t in pairs if (t if heads else h) == a)
            ]
            assert list(zip(owner.tolist(), partner.tolist())) == want
            # Each partner's pair index points at its own stored key.
            a, e = anchors[owner], partner
            assert (table.pair_keys[pair] == (e * n_ent + a if heads else a * n_ent + e)).all()

    def test_paths_for_missing_pair(self, tri_graph):
        table = build_path_table(tri_graph)
        ids, vs = table.paths_for(1, 1)
        assert len(ids) == 0 and len(vs) == 0

    def test_relatedness_unseen_relation(self, tri_graph):
        table = build_path_table(tri_graph, reliability_floor=0.0)
        pid = [path_tuple(row) for row in table.path_rels].index((0, 1))
        assert table.relatedness(2, pid) == pytest.approx(1.0)
        assert table.relatedness(1, pid) == 0.0
        # The lookup is vectorized over (relation, path id) arrays.
        got = table.relatedness([2, 1, 2], [pid, pid, pid])
        assert got.tolist() == [pytest.approx(1.0), 0.0, pytest.approx(1.0)]

    def test_a_bare_relation_is_no_evidence_for_itself(self, tri_graph):
        # The pair of the single-relation path (2,) is linked by relation 2
        # only, so that path has no relatedness rows.
        table = build_path_table(tri_graph, reliability_floor=0.0)
        pid = [path_tuple(row) for row in table.path_rels].index((2,))
        assert table.relat_offsets[pid] == table.relat_offsets[pid + 1]
