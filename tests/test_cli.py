"""Command-line verbs, the synthetic dataset generator, and their plumbing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pathkge import cli
from pathkge.cli import SynthError, SyntheticKGSpec, generate_synthetic_kg
from pathkge.paths import PathTable


def small_spec(**kw) -> SyntheticKGSpec:
    base = dict(
        n_entities=20,
        n_relations=3,
        composition_rules=((0, 1, 2),),
        base_facts_per_relation=40,
        noise_rate=0.1,
        holdout=0.2,
        seed=5,
    )
    base.update(kw)
    return SyntheticKGSpec(**base)


def read_triples(path: Path) -> set[tuple[int, int, int]]:
    out = set()
    for line in path.read_text().splitlines():
        h, r, t = line.split("\t")
        out.add((int(h[1:]), int(r[1:]), int(t[1:])))
    return out


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw,needle",
        [
            ({"n_entities": 2}, "entities"),
            ({"n_relations": 0}, "relation"),
            ({"noise_rate": 1.0}, "noise_rate"),
            ({"noise_rate": -0.1}, "noise_rate"),
            ({"holdout": 0.0}, "holdout"),
            ({"holdout": 1.0}, "holdout"),
            ({"base_facts_per_relation": 0}, ">= 1"),
            ({"n_entities": 3, "base_facts_per_relation": 7}, "exceed"),
            ({"composition_rules": ((0, 1),)}, "must be"),
            ({"composition_rules": ((0, 1, 5),)}, "references"),
            ({"composition_rules": ((0, 1, 2), (2, 0, 1))}, "feed"),
        ],
    )
    def test_rejects(self, kw, needle):
        with pytest.raises(SynthError, match=needle):
            small_spec(**kw).validate()

    def test_default_spec_is_valid(self):
        SyntheticKGSpec().validate()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    summary = generate_synthetic_kg(small_spec(), out)
    return out, summary


class TestGenerate:
    def test_counts_consistent(self, dataset):
        out, summary = dataset
        counts = summary["counts"]
        train = read_triples(out / "train.txt")
        valid = read_triples(out / "valid.txt")
        test = read_triples(out / "test.txt")
        assert len(train) == counts["train"]
        assert len(valid) == counts["valid"]
        assert len(test) == counts["test"]
        assert not (train & valid) and not (train & test) and not (valid & test)
        n_eval = counts["valid"] + counts["test"]
        assert counts["valid"] == max(1, n_eval // 3)

    def test_noise_budget_exact(self, dataset):
        _, summary = dataset
        counts = summary["counts"]
        n_clean = counts["train"] - counts["noise"]
        rate = summary["spec"]["noise_rate"]
        assert counts["noise"] == round(rate / (1.0 - rate) * n_clean)

    def test_holdouts_keep_train_witnesses(self, dataset):
        out, _ = dataset
        train = read_triples(out / "train.txt")
        pairs = {r: {(h, t) for h, rr, t in train if rr == r} for r in range(3)}
        held = read_triples(out / "valid.txt") | read_triples(out / "test.txt")
        assert held
        for x, c, z in held:
            assert c == 2
            assert any(
                (x, y) in pairs[0] and (y, z) in pairs[1] for y in range(20)
            )

    def test_spec_json_echo(self, dataset):
        out, summary = dataset
        echo = json.loads((out / "spec.json").read_text())
        assert echo == summary

    def test_byte_determinism(self, tmp_path, dataset):
        first, _ = dataset
        again = tmp_path / "again"
        generate_synthetic_kg(small_spec(), again)
        for name in ("train.txt", "valid.txt", "test.txt", "spec.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate_synthetic_kg(small_spec(seed=1), a)
        generate_synthetic_kg(small_spec(seed=2), b)
        assert (a / "train.txt").read_bytes() != (b / "train.txt").read_bytes()

    def test_zero_noise(self, tmp_path):
        summary = generate_synthetic_kg(
            small_spec(noise_rate=0.0), tmp_path / "clean"
        )
        assert summary["counts"]["noise"] == 0

    def test_infeasible_density_raises(self, tmp_path):
        with pytest.raises(SynthError):
            generate_synthetic_kg(
                small_spec(base_facts_per_relation=1), tmp_path / "x"
            )

    def test_tiny_holdout_raises(self, tmp_path):
        with pytest.raises(SynthError, match="fewer than 2"):
            generate_synthetic_kg(small_spec(holdout=0.001), tmp_path / "x")


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: dataset, path table, and trained models."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert cli.main(
        [
            "synth-kg", "--entities", "20", "--relations", "3",
            "--base-facts", "40", "--noise", "0.1", "--holdout", "0.2",
            "--seed", "5", "--out", str(data),
        ]
    ) == 0
    table = root / "paths.ptbl"
    assert cli.main(
        [
            "extract-paths", "--data", str(data), "--floor", "0.01",
            "--out", str(table),
        ]
    ) == 0
    run_e = root / "run-transe"
    assert cli.main(
        [
            "train", "--data", str(data), "--stage", "transe",
            "--dim-entity", "8", "--dim-relation", "8", "--epochs", "3",
            "--out", str(run_e),
        ]
    ) == 0
    run_p = root / "run-ptransr"
    assert cli.main(
        [
            "train", "--data", str(data), "--stage", "ptransr",
            "--table", str(table), "--init", str(run_e / "model.ptrm"),
            "--dim-entity", "8", "--dim-relation", "8", "--epochs", "2",
            "--out", str(run_p),
        ]
    ) == 0
    return {
        "data": data,
        "table": table,
        "transe": run_e / "model.ptrm",
        "model": run_p / "model.ptrm",
        "root": root,
    }


class TestVerbs:
    def test_prepare_stats(self, ws, tmp_path, capsys):
        out = tmp_path / "prep"
        rc = cli.main(["prepare", "--data", str(ws["data"]), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "entities:       20" in stdout
        stats = json.loads((out / "stats.json").read_text())
        assert stats["entities"] == 20
        assert stats["relations"] == 3
        assert stats["relations_with_inverses"] == 6
        assert stats["train_augmented"] == 2 * stats["train"]
        assert (out / "entity2id.tsv").is_file()
        assert (out / "relation2id.tsv").is_file()

    def test_extract_paths_dump_and_determinism(self, ws, tmp_path, capsys):
        out = tmp_path / "again.ptbl"
        dump = tmp_path / "paths.tsv"
        rc = cli.main(
            [
                "extract-paths", "--data", str(ws["data"]), "--floor", "0.01",
                "--out", str(out), "--dump-tsv", str(dump),
            ]
        )
        assert rc == 0
        assert "pairs:" in capsys.readouterr().out
        assert out.read_bytes() == ws["table"].read_bytes()
        assert dump.read_text().count("\n") == PathTable.load(out).n_entries

    def test_train_writes_artifacts(self, ws):
        run = ws["model"].parent
        assert (run / "config.txt").is_file()
        assert (run / "train_log.jsonl").is_file()
        first = json.loads((run / "train_log.jsonl").read_text().splitlines()[0])
        assert first["event"] == "config"
        assert first["stage"] == "ptransr"

    def test_train_ptransr_requires_table(self, ws, capsys):
        rc = cli.main(
            ["train", "--data", str(ws["data"]), "--stage", "ptransr"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "path table" in err

    def test_train_config_file_and_flag_precedence(self, ws, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("stage = transr\nepochs = 2\nlr = 0.9\nwarm_epochs = 1\n")
        run = tmp_path / "run"
        rc = cli.main(
            [
                "train", "--data", str(ws["data"]), "--config", str(cfg),
                "--lr", "0.05", "--dim-entity", "6", "--dim-relation", "6",
                "--out", str(run),
            ]
        )
        assert rc == 0
        saved = dict(
            line.split(" = ")
            for line in (run / "config.txt").read_text().splitlines()
        )
        assert saved["stage"] == "transr"
        assert saved["lr"] == "0.05"  # flag beats config file
        assert saved["epochs"] == "2"  # config file beats stage default

    def test_evaluate_reports(self, ws, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = cli.main(
            [
                "evaluate", "--data", str(ws["data"]), "--model", str(ws["model"]),
                "--table", str(ws["table"]), "--rerank-k", "20",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "entity prediction on test" in capsys.readouterr().out
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["rerank_k"] == 20
        assert payload["overall"]["mean_rank"]["raw"] >= 1.0
        ranks = (out / "ranks.csv").read_text().splitlines()
        assert len(ranks) == 1 + payload["n_instances"]
        assert (out / "report.txt").is_file()

    def test_evaluate_raw_protocol(self, ws, tmp_path):
        out = tmp_path / "eval-raw"
        rc = cli.main(
            [
                "evaluate", "--data", str(ws["data"]), "--model", str(ws["model"]),
                "--protocol", "raw", "--rerank-k", "20", "--out", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["overall"]["mean_rank"]["filter"] is None

    def test_inspect_entity(self, ws, capsys):
        rc = cli.main(
            [
                "inspect", "--data", str(ws["data"]), "--model", str(ws["model"]),
                "--entity", "e00", "--top", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "nearest neighbors of e00:" in out
        assert len(out.strip().splitlines()) == 4

    def test_inspect_pair_and_relation(self, ws, capsys):
        rc = cli.main(
            [
                "inspect", "--data", str(ws["data"]), "--model", str(ws["model"]),
                "--table", str(ws["table"]), "--pair", "e00,e01",
                "--relation", "r2",
            ]
        )
        assert rc == 0
        assert "stored paths for (e00, e01):" in capsys.readouterr().out
        rc = cli.main(
            [
                "inspect", "--data", str(ws["data"]), "--model", str(ws["model"]),
                "--table", str(ws["table"]), "--relation", "r2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "paths related to r2:" in out
        assert "P(r|p)=" in out

    def test_inspect_requires_a_probe(self, ws, capsys):
        rc = cli.main(
            ["inspect", "--data", str(ws["data"]), "--model", str(ws["model"])]
        )
        assert rc == 1
        assert "nothing to inspect" in capsys.readouterr().err

    def test_inspect_unknown_entity(self, ws, capsys):
        rc = cli.main(
            [
                "inspect", "--data", str(ws["data"]), "--model", str(ws["model"]),
                "--entity", "bogus",
            ]
        )
        assert rc == 1
        assert "unknown entity" in capsys.readouterr().err


class TestPlumbing:
    def test_env_var_supplies_data_dir(self, ws, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(ws["data"]))
        rc = cli.main(["prepare", "--out", str(tmp_path / "prep")])
        assert rc == 0
        assert "entities:" in capsys.readouterr().out

    def test_missing_data_dir_reports_error(self, monkeypatch, capsys):
        monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
        rc = cli.main(["prepare"])
        assert rc == 1
        assert "no dataset directory" in capsys.readouterr().err

    def test_incomplete_data_dir(self, tmp_path, capsys):
        (tmp_path / "train.txt").write_text("a\tr\tb\n")
        rc = cli.main(["prepare", "--data", str(tmp_path)])
        assert rc == 1
        assert "missing" in capsys.readouterr().err

    def test_column_order_flag(self, tmp_path, capsys):
        data = tmp_path / "htr"
        data.mkdir()
        (data / "train.txt").write_text("a\tb\tr0\nb\ta\tr0\n")
        (data / "valid.txt").write_text("a\tb\tr0\n")
        (data / "test.txt").write_text("b\ta\tr0\n")
        rc = cli.main(
            [
                "prepare", "--data", str(data), "--order", "htr",
                "--out", str(tmp_path / "prep"),
            ]
        )
        assert rc == 0
        stats = json.loads((tmp_path / "prep" / "stats.json").read_text())
        assert stats["entities"] == 2
        assert stats["relations"] == 1

    def test_model_table_shape_mismatch(self, ws, tmp_path, capsys):
        other = tmp_path / "other"
        generate_synthetic_kg(small_spec(n_entities=12, seed=9), other)
        rc = cli.main(
            [
                "evaluate", "--data", str(other), "--model", str(ws["model"]),
                "--rerank-k", "5",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_table_from_another_dataset_is_refused(self, ws, tmp_path, capsys):
        # Same 20 entities, but 6 relations (12 with inverses) against the
        # workspace's 3 (6): the table's relation ids run past the dataset.
        other = tmp_path / "six"
        table = tmp_path / "six.ptbl"
        assert cli.main([
            "synth-kg", "--entities", "20", "--relations", "6", "--base-facts", "40",
            "--seed", "5", "--out", str(other),
        ]) == 0
        assert cli.main(["extract-paths", "--data", str(other), "--out", str(table)]) == 0
        capsys.readouterr()
        for argv in (
            ["evaluate", "--model", str(ws["model"]), "--rerank-k", "5"],
            ["train", "--stage", "ptransr", "--init", str(ws["transe"]),
             "--dim-entity", "8", "--dim-relation", "8", "--epochs", "1"],
        ):
            rc = cli.main(argv + [
                "--data", str(ws["data"]), "--table", str(table),
                "--out", str(tmp_path / argv[0]),
            ])
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith("error: path table uses relation ids")
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_bad_rule_string(self, tmp_path, capsys):
        rc = cli.main(
            ["synth-kg", "--rule", "0-1-2", "--out", str(tmp_path / "x")]
        )
        assert rc == 1
        assert "--rule" in capsys.readouterr().err
