"""Dataset ingestion, vocabulary, augmentation, and graph indexes."""

from __future__ import annotations

from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TRI, make_graph, random_triples
from oracles import known_index, read_rows
from oracles import relation_cardinality as cardinality_oracle
from pathkge.kgdata import (
    CATEGORY_LABELS,
    CATEGORY_CUTOFF,
    FREQUENCY_BUCKETS,
    DatasetError,
    KnowledgeGraph,
    Vocab,
    augment_inverse,
    _read_columns,
    load_dataset,
    relation_breakdown,
    relation_cardinality,
    write_vocab_dumps,
)


def write_split(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")


@pytest.fixture
def dataset_dir(tmp_path):
    write_split(tmp_path / "train.txt", [("a", "r1", "b"), ("c", "r2", "a")])
    write_split(tmp_path / "valid.txt", [("a", "r1", "c")])
    write_split(tmp_path / "test.txt", [("b", "r2", "c")])
    return tmp_path


# Names for the reader's property test, with the separators that
# str.splitlines would take for line ends.
NAMES = st.text(alphabet=["a", "b", "\x85", "\u2028", "\x0b", "\x1c", " ", "é"], max_size=3)


class TestIngestion:
    def test_first_appearance_vocab(self, dataset_dir):
        g = load_dataset(
            dataset_dir / "train.txt",
            dataset_dir / "valid.txt",
            dataset_dir / "test.txt",
        )
        assert g.vocab.entity_names == ("a", "b", "c")
        assert g.vocab.relation_names == ("r1", "r2")
        assert g.train.tolist() == [[0, 0, 1], [2, 1, 0]]
        assert g.valid.tolist() == [[0, 0, 2]]
        assert g.test.tolist() == [[1, 1, 2]]

    def test_htr_column_order(self, tmp_path):
        write_split(tmp_path / "train.txt", [("a", "b", "r1")])
        write_split(tmp_path / "valid.txt", [("a", "c", "r1")])
        write_split(tmp_path / "test.txt", [("b", "c", "r1")])
        g = load_dataset(
            tmp_path / "train.txt",
            tmp_path / "valid.txt",
            tmp_path / "test.txt",
            column_order="HTR",
        )
        assert g.vocab.entity_names == ("a", "b", "c")
        assert g.train.tolist() == [[0, 0, 1]]

    def test_duplicate_rows_are_retained(self, tmp_path):
        write_split(tmp_path / "train.txt", [("a", "r", "b"), ("a", "r", "b")])
        write_split(tmp_path / "valid.txt", [("a", "r", "b")])
        write_split(tmp_path / "test.txt", [("a", "r", "b")])
        g = load_dataset(
            tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt"
        )
        assert len(g.train) == 2

    def test_indexes_built_on_first_use(self, dataset_dir):
        indexes = {name for name, attr in vars(KnowledgeGraph).items()
                   if isinstance(attr, cached_property)}
        assert indexes == {"_adjacency", "_sorted_train_keys", "_known", "_train_pairs"}

        def built(g):
            return indexes & set(vars(g))

        # Each query answers from one index, and only that one gets built.
        for query, index in (
            (lambda g: g.known_tails(0, 0).tolist() == [1, 2], "_known"),
            (lambda g: g.known_heads(0, 2).tolist() == [0], "_known"),
            # The sampler reads the train keys: (2, 1, 0) is a train fact,
            # (0, 0, 2) is not.
            (lambda g: g.train_mask(np.array([(2, 1, 0), (0, 0, 2), (2, 1, 0)])).tolist()
             == [True, False, True], "_sorted_train_keys"),
            (lambda g: out_edges(g, 2)[:2] == ([1], [0]), "_adjacency"),
            (lambda g: g.train_pairs().tolist() == [1, 2, 3, 6], "_train_pairs"),
        ):
            plain = load_dataset(
                dataset_dir / "train.txt", dataset_dir / "valid.txt", dataset_dir / "test.txt"
            )
            g = augment_inverse(plain)
            assert built(plain) == built(g) == set()
            assert query(g)
            assert built(g) == {index}
            first = vars(g)[index]
            assert query(g)  # a second query rebuilds nothing
            assert vars(g)[index] is first and built(g) == {index}
            assert built(plain) == set()

    def test_malformed_line_reports_line_number(self, tmp_path):
        write_split(tmp_path / "train.txt", [("a", "r", "b")])
        with open(tmp_path / "train.txt", "a", encoding="utf-8") as fh:
            fh.write("only\ttwo\n")
        write_split(tmp_path / "valid.txt", [("a", "r", "b")])
        write_split(tmp_path / "test.txt", [("a", "r", "b")])
        with pytest.raises(DatasetError, match=r"train\.txt:2"):
            load_dataset(
                tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt"
            )

    def test_empty_file_is_an_error(self, tmp_path):
        (tmp_path / "train.txt").write_text("")
        write_split(tmp_path / "valid.txt", [("a", "r", "b")])
        write_split(tmp_path / "test.txt", [("a", "r", "b")])
        with pytest.raises(DatasetError):
            load_dataset(
                tmp_path / "train.txt", tmp_path / "valid.txt", tmp_path / "test.txt"
            )

    def test_only_cr_and_lf_end_a_line(self, tmp_path):
        # \x85, \u2028 and the other separators of str.splitlines stay in names.
        odd = "x\x85y\u2028z\u2029\x0b\x0c\x1c\x1d\x1e"
        (tmp_path / "train.txt").write_text(f"a\tr\t{odd}\r\nb\tr\ta\rc\tr\tb\n{odd}\tr\tc",
                                            encoding="utf-8", newline="")
        write_split(tmp_path / "valid.txt", [("a", "r", "b")])
        (tmp_path / "test.txt").write_bytes(b"a\tr\tc\r\n\r\nb\tr\ta\r\n")
        paths = [tmp_path / f"{split}.txt" for split in ("train", "valid", "test")]
        with pytest.raises(DatasetError, match=r"test\.txt:2: expected 3 tab-separated fields, got 1"):
            load_dataset(*paths)
        (tmp_path / "test.txt").write_bytes(b"a\tr\tc\r\nb\tr\ta\r\n")
        g = load_dataset(*paths)
        assert g.vocab.entity_names == ("a", odd, "b", "c")
        assert g.train.tolist() == [[0, 0, 1], [2, 0, 0], [3, 0, 2], [1, 0, 3]]
        assert g.test.tolist() == [[0, 0, 3], [2, 0, 0]]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(NAMES, min_size=3, max_size=3) | st.lists(NAMES, min_size=1, max_size=4),
                st.sampled_from(["\n", "\r", "\r\n", ""]),
            ),
            max_size=8,
        ),
        st.sampled_from(["HRT", "HTR"]),
    )
    def test_reader_matches_line_by_line_reference(self, tmp_path_factory, lines, order):
        path = tmp_path_factory.mktemp("tsv") / "split.txt"
        text = "".join("\t".join(fields) + end for fields, end in lines)
        path.write_text(text, encoding="utf-8", newline="")
        try:
            expected = [list(col) for col in zip(*read_rows(path, order))]
        except ValueError as exc:
            with pytest.raises(DatasetError) as info:
                _read_columns(path, order)
            assert str(info.value) == str(exc)
        else:
            assert [list(col) for col in _read_columns(path, order)] == expected

    def test_vocab_rejects_duplicates(self):
        with pytest.raises(DatasetError):
            Vocab.build(["a", "a"], ["r"])

    def test_vocab_dumps(self, dataset_dir, tmp_path):
        g = load_dataset(
            dataset_dir / "train.txt",
            dataset_dir / "valid.txt",
            dataset_dir / "test.txt",
        )
        out = tmp_path / "dumps"
        write_vocab_dumps(g, out)
        lines = (out / "entity2id.tsv").read_text().splitlines()
        assert lines == ["a\t0", "b\t1", "c\t2"]


class TestAugmentation:
    def test_mirrored_facts_and_names(self, tri_graph):
        g = tri_graph
        n = len(TRI)
        assert g.augmented
        assert len(g.train) == 2 * n
        for i, (h, r, t) in enumerate(TRI):
            assert g.train[n + i].tolist() == [t, r + 3, h]
        assert g.vocab.relation_names[3:] == ("r0^-1", "r1^-1", "r2^-1")
        assert np.array_equal(g.original_train, np.array(TRI, dtype=np.int32))

    def test_inverse_is_involutive(self, tri_graph):
        for r in range(tri_graph.n_relations):
            assert tri_graph.inverse_of(tri_graph.inverse_of(r)) == r

    def test_inverse_requires_augmented(self):
        g = make_graph(TRI, augment=False)
        with pytest.raises(DatasetError):
            g.inverse_of(0)

    def test_double_augment_is_an_error(self, tri_graph):
        with pytest.raises(DatasetError):
            augment_inverse(tri_graph)

    def test_counts(self, tri_graph):
        assert tri_graph.counts() == {
            "entities": 3,
            "relations": 3,
            "train": 3,
            "train_augmented": 6,
            "valid": 0,
            "test": 0,
        }


def out_edges(g, e: int) -> tuple[list[int], list[int], list[float]]:
    """The (relations, targets, shares) slice of e in the structural adjacency."""
    offsets, rels, dsts, shares = g.unique_adjacency()
    lo, hi = offsets[e], offsets[e + 1]
    return rels[lo:hi].tolist(), dsts[lo:hi].tolist(), shares[lo:hi].tolist()


def children(g, e: int, r: int) -> list[int]:
    rels, dsts, _ = out_edges(g, e)
    return [d for rel, d in zip(rels, dsts) if rel == r]


class TestAdjacency:
    def test_multiset_vs_structural(self):
        g = make_graph([(0, 0, 1), (0, 0, 1), (0, 0, 2)], augment=False)
        _, udsts, shares = out_edges(g, 0)
        assert udsts == [1, 2]
        assert shares == [0.5, 0.5]

    def test_children_and_degree(self, diamond_graph):
        g = diamond_graph
        assert children(g, 0, 0) == [1, 2]
        assert children(g, 0, 1) == []
        # inverse edges: entity 3 reaches 1 and 2 by r1^-1 (relation 3)
        assert children(g, 3, 3) == [1, 2]
        # Sorted by (source, relation, target), one offset per entity.
        offsets, rels, dsts, _ = g.unique_adjacency()
        assert offsets.tolist() == [0, 2, 4, 6, 8]
        keys = (np.repeat(np.arange(4), np.diff(offsets)) * 4 + rels) * 4 + dsts
        assert np.all(np.diff(keys) > 0)

    def test_shares_split_per_relation_group(self):
        g = make_graph([(0, 0, 1), (0, 0, 2), (0, 1, 2)], augment=False)
        rels, dsts, shares = out_edges(g, 0)
        by = {(r, d): s for r, d, s in zip(rels, dsts, shares)}
        assert by[(0, 1)] == 0.5 and by[(0, 2)] == 0.5
        assert by[(1, 2)] == 1.0


class TestMembership:
    def test_in_train_is_train_only(self):
        g = make_graph(TRI, valid=[(1, 0, 0)], test=[(2, 0, 0)])
        # Train facts, the mirrored half among them, but no valid or test fact.
        facts = np.array([(0, 0, 1), (1, 3, 0), (1, 0, 0), (2, 0, 0)])
        assert g.train_mask(facts).tolist() == [True, True, False, False]

    def test_known_covers_all_splits_and_orientations(self):
        g = make_graph(TRI, valid=[(1, 2, 0)], test=[(2, 1, 0)])
        assert 0 in g.known_tails(1, 2).tolist()
        assert 1 in g.known_tails(0, g.inverse_of(2)).tolist()  # mirrored valid fact
        assert 0 in g.known_tails(2, 1).tolist()
        assert 0 not in g.known_tails(2, 2).tolist()

    def test_known_tails_sorted_and_complete(self):
        g = make_graph(
            [(0, 0, 2), (0, 0, 1)], valid=[(0, 0, 3)], test=[(0, 0, 4)],
            n_entities=5, n_relations=1,
        )
        assert g.known_tails(0, 0).tolist() == [1, 2, 3, 4]
        assert g.known_tails(3, 0).tolist() == []

    def test_known_heads_matches_brute_force(self):
        rng = np.random.default_rng(0)
        triples = [
            (int(rng.integers(5)), int(rng.integers(2)), int(rng.integers(5)))
            for _ in range(15)
        ]
        g = make_graph(triples[:9], valid=triples[9:12], test=triples[12:],
                       n_entities=5, n_relations=2)
        every = {tuple(x) for x in triples}
        for r in range(2):
            for t in range(5):
                expect = sorted({h for h, rr, tt in every if rr == r and tt == t})
                assert g.known_heads(r, t).tolist() == expect

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.booleans())
    def test_known_index_matches_set_oracle(self, seed, augment):
        # Valid and test repeat train facts and each other, and train holds
        # duplicates, so the index must collapse repeats across splits.
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(rng, max_entities=6, max_relations=3)
        pool = triples + [triples[i] for i in rng.integers(len(triples), size=4).tolist()]
        valid = [pool[i] for i in rng.integers(len(pool), size=3).tolist()] + triples[:1]
        test = [pool[i] for i in rng.integers(len(pool), size=3).tolist()] + valid[:1]
        g = make_graph(pool, valid=valid, test=test, n_entities=n_ent,
                       n_relations=n_rel, augment=augment)
        expect = known_index(g)
        keys = sorted(h * g.n_relations + r for h, r in expect)
        known_keys, offsets, tails_flat = g._known
        assert known_keys.tolist() == keys
        assert known_keys.dtype == np.int64 and offsets.dtype == np.int64
        assert tails_flat.dtype == np.int32
        assert offsets.tolist() == [0] + np.cumsum(
            [len(expect[divmod(k, g.n_relations)]) for k in keys]
        ).tolist()
        for h in range(n_ent):
            for r in range(g.n_relations):
                assert g.known_tails(h, r).tolist() == sorted(expect.get((h, r), ()))

    def test_train_pairs(self, tri_graph):
        # Augmented TRI links 0-1, 1-2, 0-2 both ways; keys are h * 3 + t.
        assert tri_graph.train_pairs().tolist() == [1, 2, 3, 5, 6, 7]


class TestRelationStats:
    def graph(self):
        train = (
            [(0, 0, 1), (2, 0, 3)]
            + [(0, 1, t) for t in (1, 2, 3, 4)]
            + [(h, 2, 0) for h in (1, 2, 3, 4)]
            + [(0, 3, 1), (0, 3, 2), (1, 3, 1), (1, 3, 2)]
        )
        return make_graph(train, valid=[(0, 4, 1)], n_entities=5, n_relations=5)

    def test_categories_hand_checked(self):
        g = self.graph()
        category, _ = relation_breakdown(g)
        labels = [CATEGORY_LABELS[c] if c >= 0 else None for c in category.tolist()]
        assert labels == ["1-to-1", "1-to-N", "N-to-1", "N-to-N", None]  # 4 absent from train
        _, tph, hpt = relation_cardinality(g.original_train, g.n_relations_orig)
        assert tph[1] == pytest.approx(4.0)
        assert hpt[1] == pytest.approx(1.0)
        assert hpt[2] == pytest.approx(4.0)

    def test_category_uses_train_only(self):
        # Relation 4 occurs in valid only: it gets an entry, but no category.
        category, bucket = relation_breakdown(self.graph())
        assert len(category) == len(bucket) == 5
        assert category[4] == -1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_cardinality_matches_set_oracle(self, seed):
        # Exact equality: the Bernoulli sampler's draws depend on every bit.
        rng = np.random.default_rng(seed)
        triples, n_ent, n_rel = random_triples(rng, max_entities=6, max_relations=4)
        triples += triples[: int(rng.integers(len(triples) + 1))]
        g = make_graph(triples, n_entities=n_ent, n_relations=n_rel + 1)
        for train, n in ((g.train, g.n_relations), (g.original_train, g.n_relations_orig)):
            got = relation_cardinality(train, n)
            assert [a.tolist() for a in got] == list(
                cardinality_oracle(train.tolist(), n)
            )
        facts, tph, hpt = (
            np.array(a) for a in cardinality_oracle(g.original_train.tolist(), n_rel + 1)
        )
        want = 2 * (hpt >= CATEGORY_CUTOFF) + (tph >= CATEGORY_CUTOFF)
        want[facts == 0] = -1
        assert relation_breakdown(g)[0].tolist() == want.tolist()

    def test_relation_train_counts(self):
        # Train counts 2, 4, 4, 4 and 0; relation 4 occurs in valid only.
        category, bucket = relation_breakdown(self.graph())
        assert bucket.tolist() == [0, 1, 1, 1, -1]
        assert category.tolist() == [0, 1, 2, 3, -1]  # as test_categories_hand_checked

    @pytest.mark.parametrize(
        "count,bucket",
        [
            (1, "1-3"), (3, "1-3"), (4, "4-15"), (15, "4-15"),
            (16, "16-50"), (50, "16-50"), (51, "51-300"), (300, "51-300"),
            (301, ">300"), (10_000, ">300"),
        ],
    )
    def test_frequency_buckets(self, count, bucket):
        # Relation 0 has ``count`` train facts (duplicates count), relation 1 none.
        g = make_graph([(0, 0, 1)] * count, n_entities=2, n_relations=2)
        _, buckets = relation_breakdown(g)
        assert FREQUENCY_BUCKETS[buckets[0]] == bucket

    def test_frequency_bucket_rejects_zero(self):
        # A relation without train facts has no bucket and no category.
        category, bucket = relation_breakdown(self.graph())
        assert category[4] == bucket[4] == -1
