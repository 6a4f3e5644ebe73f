"""Dataset ingestion, vocabulary, augmentation, and graph indexes."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import TRI, make_graph
from pathkge.kgdata import (
    DatasetError,
    KnowledgeGraph,
    Vocab,
    augment_inverse,
    classify_relations,
    frequency_bucket,
    load_dataset,
    relation_train_counts,
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

    def test_vocab_rejects_duplicates(self):
        with pytest.raises(DatasetError):
            Vocab.build(["a", "a"], ["r"])

    def test_from_triples_range_checks(self):
        with pytest.raises(DatasetError):
            KnowledgeGraph.from_triples([(0, 0, 5)], n_entities=2, n_relations=1)
        with pytest.raises(DatasetError):
            KnowledgeGraph.from_triples([(0, 3, 1)], n_entities=2, n_relations=1)

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


class TestAdjacency:
    def test_multiset_vs_structural(self):
        g = make_graph([(0, 0, 1), (0, 0, 1), (0, 0, 2)], augment=False)
        rels, dsts = g.out_edges(0)
        assert len(rels) == 3
        urels, udsts, shares = g.unique_out_edges(0)
        assert udsts.tolist() == [1, 2]
        assert shares.tolist() == [0.5, 0.5]

    def test_children_and_degree(self, diamond_graph):
        g = diamond_graph
        assert sorted(g.children(0, 0).tolist()) == [1, 2]
        assert g.out_degree(0, 0) == 2
        assert g.out_degree(0, 1) == 0
        # inverse edges: entity 3 reaches 1 and 2 by r1^-1 (relation 3)
        assert sorted(g.children(3, 3).tolist()) == [1, 2]

    def test_shares_split_per_relation_group(self):
        g = make_graph([(0, 0, 1), (0, 0, 2), (0, 1, 2)], augment=False)
        rels, dsts, shares = g.unique_out_edges(0)
        by = {(r, d): s for r, d, s in zip(rels.tolist(), dsts.tolist(), shares.tolist())}
        assert by[(0, 1)] == 0.5 and by[(0, 2)] == 0.5
        assert by[(1, 2)] == 1.0


class TestMembership:
    def test_in_train_is_train_only(self):
        g = make_graph(TRI, valid=[(1, 0, 0)], test=[(2, 0, 0)])
        assert g.in_train(0, 0, 1)
        assert g.in_train(1, 3, 0)  # mirrored half
        assert not g.in_train(1, 0, 0)  # valid fact
        assert not g.in_train(2, 0, 0)  # test fact

    def test_known_covers_all_splits_and_orientations(self):
        g = make_graph(TRI, valid=[(1, 2, 0)], test=[(2, 1, 0)])
        assert g.is_known(1, 2, 0)
        assert g.is_known(0, g.inverse_of(2), 1)  # mirrored valid fact
        assert g.is_known(2, 1, 0)
        assert not g.is_known(2, 2, 0)

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
        cats = classify_relations(self.graph())
        assert cats[0].category == "1-to-1"
        assert cats[1].category == "1-to-N"
        assert cats[2].category == "N-to-1"
        assert cats[3].category == "N-to-N"
        assert cats[4] is None  # absent from train
        assert cats[1].tph == pytest.approx(4.0)
        assert cats[1].hpt == pytest.approx(1.0)
        assert cats[2].hpt == pytest.approx(4.0)

    def test_category_uses_train_only(self):
        cats = classify_relations(self.graph())
        assert set(cats) == {0, 1, 2, 3, 4}

    def test_relation_train_counts(self):
        counts = relation_train_counts(self.graph())
        assert counts.tolist() == [2, 4, 4, 4, 0]

    @pytest.mark.parametrize(
        "count,bucket",
        [
            (1, "1-3"), (3, "1-3"), (4, "4-15"), (15, "4-15"),
            (16, "16-50"), (50, "16-50"), (51, "51-300"), (300, "51-300"),
            (301, ">300"), (10_000, ">300"),
        ],
    )
    def test_frequency_buckets(self, count, bucket):
        assert frequency_bucket(count) == bucket

    def test_frequency_bucket_rejects_zero(self):
        with pytest.raises(DatasetError):
            frequency_bucket(0)
