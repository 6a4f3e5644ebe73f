"""Command-line verbs, the synthetic dataset generator, and their plumbing."""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from pathkge import cli
from pathkge.cli import SynthError, SyntheticKGSpec, generate_synthetic_kg
from pathkge.evaluator import EvalError, valid_mean_rank
from pathkge.kgdata import KnowledgeGraph, augment_inverse, load_dataset
from pathkge.models import ModelParams
from pathkge.paths import PathTable
from pathkge.trainer import TrainConfig, load_config_file


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
            ({"n_entities": 2**31}, "at most 2147483647 entities"),  # ids are int32
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

    def test_extract_paths_prints_the_pairs_the_cap_cut(self, ws, tmp_path, capsys):
        def capped_line(cap: int) -> str:
            capsys.readouterr()
            assert cli.main([
                "extract-paths", "--data", str(ws["data"]), "--floor", "0",
                "--cap", str(cap), "--out", str(tmp_path / f"cap{cap}.ptbl"),
            ]) == 0
            (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("capped:")]
            return line

        assert capped_line(10**6) == f"capped:    0 pairs at cap {10**6}"
        # With no floor and no cap every mined entry is stored, so cap 1
        # cuts every pair that stores two or more.
        sizes = np.diff(PathTable.load(tmp_path / f"cap{10**6}.ptbl").pair_offsets)
        assert (sizes > 1).any()
        assert capped_line(1) == f"capped:    {(sizes > 1).sum()} pairs at cap 1"

    def test_extract_paths_prints_the_walks_it_found(self, ws, tmp_path, capsys):
        capsys.readouterr()
        assert cli.main([
            "extract-paths", "--data", str(ws["data"]), "--out", str(tmp_path / "t.ptbl"),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        # Every walk h -r1-> m -r2-> t over the distinct augmented train
        # facts whose ends (h, t) are a train pair.
        train = read_triples(ws["data"] / "train.txt")
        facts = train | {(t, -1 - r, h) for h, r, t in train}
        pairs = {(h, t) for h, _, t in facts}
        steps: dict = {}
        for h, r, t in facts:
            steps.setdefault(h, []).append(t)
        walks = sum((h, t) in pairs for h, _, m in facts for t in steps.get(m, ()))
        assert walks > 0
        at = next(i for i, line in enumerate(lines) if line.startswith("walks:"))
        assert lines[at] == f"walks:     {walks}"
        assert lines[at + 1].startswith("entries:")

    def test_extract_paths_fills_the_mining_counts_the_benchmark_reads(self, ws, tmp_path):
        # The traced benchmark times the first train_pairs() call and reads
        # these counts from the stats dict that extract-paths passes in.
        build = mock.patch.object(cli, "build_path_table", wraps=cli.build_path_table)
        pairs = mock.patch.object(
            KnowledgeGraph, "train_pairs", autospec=True, side_effect=KnowledgeGraph.train_pairs
        )
        with build as built, pairs as train_pairs:
            assert cli.main([
                "extract-paths", "--data", str(ws["data"]), "--out", str(tmp_path / "t.ptbl"),
            ]) == 0
        assert train_pairs.called
        (call,) = built.call_args_list
        stats = call.kwargs["stats"]
        for key in ("n_entries_prefilter", "n_entries", "n_pairs", "n_paths"):
            assert isinstance(stats[key], int) and stats[key] > 0

    def test_extract_paths_refuses_a_cap_the_header_cannot_hold(self, ws, tmp_path, capsys):
        out = tmp_path / "big.ptbl"
        capsys.readouterr()
        rc = cli.main([
            "extract-paths", "--data", str(ws["data"]), "--cap", str(2**32),
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err
        assert not out.exists()

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

    def test_train_config_with_a_workers_line_is_refused(self, ws, tmp_path, capsys):
        # Every config.txt written before training became serial-only
        # carries this line; such a file must be edited, not half-read.
        cfg = tmp_path / "config.txt"
        cfg.write_text("stage = transr\nepochs = 1\nworkers = 1\n")
        capsys.readouterr()
        rc = cli.main([
            "train", "--data", str(ws["data"]), "--config", str(cfg),
            "--out", str(tmp_path / "run"),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "'workers'" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_train_config_with_a_norm_line_is_refused(self, ws, tmp_path, capsys):
        # Every config.txt written while the warm start had a choice of
        # energy carries this line; the energy is now always squared L2.
        cfg = tmp_path / "config.txt"
        cfg.write_text("stage = transe\nepochs = 1\nnorm = L2\n")
        capsys.readouterr()
        rc = cli.main([
            "train", "--data", str(ws["data"]), "--config", str(cfg),
            "--out", str(tmp_path / "run"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: unknown config key 'norm'\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flags, key", [
        (["--checkpoint-every", "2"], "checkpoint_every"),
        (["--patience", "2"], "patience"),
    ])
    def test_train_transe_refuses_projected_epoch_options(self, ws, tmp_path, capsys, flags, key):
        # Both act on projected epochs; stage transe runs none, so a run
        # that accepted them would record options it never applied.
        capsys.readouterr()
        run = tmp_path / "run"
        rc = cli.main([
            "train", "--data", str(ws["data"]), "--stage", "transe", "--epochs", "4",
            "--dim-entity", "4", "--dim-relation", "4", *flags, "--out", str(run),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {key} ") and "transe" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not run.exists()
        cfg = tmp_path / "warm.cfg"
        cfg.write_text(f"stage = transe\n{key} = 2\n")
        assert cli.main(["train", "--data", str(ws["data"]), "--config", str(cfg)]) == 1
        # A projected stage keeps them; its warm start runs without them.
        assert cli.main([
            "train", "--data", str(ws["data"]), "--stage", "transr", "--epochs", "2",
            "--warm-epochs", "1", "--dim-entity", "4", "--dim-relation", "4", *flags,
            "--out", str(run),
        ]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["--stage", "transe", "--init", "TRANSE"], "stage transe always starts from a fresh init"),
        (["--stage", "transr", "--dim-entity", "5", "--dim-relation", "6"],
         "warm start needs dim_entity == dim_relation"),
        (["--stage", "transr", "--init", "TRANSE"],  # an 8-dim model, 50-dim config
         "initial model dimensions disagree with config"),
    ])
    def test_train_refuses_a_bad_setup_before_writing(self, ws, tmp_path, capsys, argv, message):
        run = tmp_path / "run"
        capsys.readouterr()
        rc = cli.main([
            "train", "--data", str(ws["data"]), "--out", str(run),
            *(str(ws["transe"]) if arg == "TRANSE" else arg for arg in argv),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not run.exists()

    def test_train_notes_the_options_its_stage_ignores(self, ws, tmp_path, capsys):
        # The fit-T benchmark passes --margin2 to stage transr, which has no
        # path hinges; an --init model replaces the warm start.
        dims = ["--dim-entity", "8", "--dim-relation", "8", "--epochs", "1"]
        capsys.readouterr()
        assert cli.main([
            "train", "--data", str(ws["data"]), "--stage", "transr", *dims, "--warm-epochs",
            "1", "--margin2", "0.5", "--table", str(ws["table"]), "--out", str(tmp_path / "a"),
        ]) == 0
        assert capsys.readouterr().err == (
            "note: stage transr ignores margin2\nnote: stage transr ignores --table\n")
        assert cli.main([
            "train", "--data", str(ws["data"]), "--stage", "ptransr", *dims, "--warm-lr", "0.5",
            "--init", str(ws["transe"]), "--table", str(ws["table"]),
            "--out", str(tmp_path / "b"),
        ]) == 0
        assert capsys.readouterr().err == "note: stage ptransr with --init ignores warm_lr\n"
        config = json.loads((tmp_path / "b" / "train_log.jsonl").read_text().splitlines()[0])
        assert config["event"] == "config" and config["ignored"] == ["warm_lr"]

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
        # Raw and filtered ranks are always reported; nothing names a protocol.
        assert "protocol" not in payload and "protocol" not in payload["config"]
        assert payload["overall"]["mean_rank"]["filter"] <= payload["overall"]["mean_rank"]["raw"]
        assert payload["overall"]["mean_rank"]["raw"] >= 1.0
        ranks = (out / "ranks.csv").read_text().splitlines()
        assert len(ranks) == 1 + payload["n_instances"]
        assert (out / "report.txt").is_file()

    def test_evaluate_refuses_workers(self, ws, tmp_path, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            cli.main([
                "evaluate", "--data", str(ws["data"]), "--model", str(ws["model"]),
                "--workers", "2", "--out", str(tmp_path / "eval"),
            ])
        err = capsys.readouterr().err
        assert exit_info.value.code != 0
        assert "--workers" in err and "Traceback" not in err
        assert not (tmp_path / "eval").exists()

    # Magic plus the fixed-size header fields: 4 + 20 bytes for a model,
    # 4 + 52 for a path table.
    @pytest.mark.parametrize("artifact,header", [("model", 24), ("table", 56)])
    def test_evaluate_refuses_a_truncated_header(self, ws, tmp_path, capsys, artifact, header):
        blob = ws[artifact].read_bytes()
        cut = tmp_path / ws[artifact].name
        files = {"model": ws["model"], "table": ws["table"], artifact: cut}
        for size in range(header):
            cut.write_bytes(blob[:size])
            capsys.readouterr()
            rc = cli.main([
                "evaluate", "--data", str(ws["data"]), "--model", str(files["model"]),
                "--table", str(files["table"]), "--out", str(tmp_path / "eval"),
            ])
            err = capsys.readouterr().err
            assert rc == 1, size
            assert err.startswith("error: ") and err.count("\n") == 1, size
        assert not (tmp_path / "eval").exists()

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

    @pytest.mark.parametrize("probe", [["--entity", "e00"], ["--relation", "r2"]])
    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_inspect_refuses_top_below_one(self, ws, capsys, probe, top):
        capsys.readouterr()
        rc = cli.main([
            "inspect", "--data", str(ws["data"]), "--model", str(ws["model"]),
            "--table", str(ws["table"]), *probe, "--top", top,
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: --top must be >= 1\n"
        assert captured.out == ""

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


    @pytest.mark.parametrize("argv,message", [
        (["--table", "TABLE", "--pair", "e00,e01", "--relation", "nope"],
         "unknown relation 'nope'"),
        (["--entity", "e00", "--pair", "e00,zz"], "unknown entity 'zz'"),
        (["--entity", "e00", "--pair", "e00,e01"], "--pair needs --table"),
        (["--entity", "e00", "--relation", "r2"], "--relation needs --table"),
        (["--entity", "e00", "--table", "TABLE", "--pair", "e00"], "--pair expects"),
    ])
    def test_inspect_checks_every_argument_before_printing(self, ws, capsys, argv, message):
        capsys.readouterr()
        rc = cli.main([
            "inspect", "--data", str(ws["data"]), "--model", str(ws["model"]),
            *(str(ws["table"]) if arg == "TABLE" else arg for arg in argv),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1


# Two non-default values of every TrainConfig field: one set by --config,
# one by a flag.
FILE_VALUES = dict(
    stage="transr", dim_entity=5, dim_relation=5, lr=0.5, margin=2.0,
    margin2=4.0, batch_size=9, epochs=3, neg_mode="bernoulli", seed=3,
    patience=4, checkpoint_every=2, warm_lr=0.25, warm_epochs=2,
)
FLAG_VALUES = dict(
    stage="ptransr", dim_entity=4, dim_relation=4, lr=0.125, margin=2.5,
    margin2=0.5, batch_size=11, epochs=2, neg_mode="bernoulli", seed=8,
    patience=3, checkpoint_every=1, warm_lr=0.75, warm_epochs=1,
)


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def flags(values: dict) -> list[str]:
    out = []
    for key, value in values.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


def saved_config(run: Path) -> TrainConfig:
    return TrainConfig().with_updates(load_config_file(run / "config.txt"))


class TestTrainFlags:
    def test_one_flag_per_config_key(self):
        args = cli.build_parser().parse_args(["train"])
        verb_args = {"verb", "func", "data", "order", "config", "table", "init", "out"}
        assert set(vars(args)) - verb_args == set(TrainConfig().as_dict())
        assert set(FILE_VALUES) == set(FLAG_VALUES) == set(TrainConfig().as_dict())

    def test_every_key_by_file_and_by_flag_and_the_flag_wins(self, ws, tmp_path):
        data = ["train", "--data", str(ws["data"])]
        cfg = tmp_path / "file.cfg"
        cfg.write_text(config_text(FILE_VALUES))
        assert cli.main([*data, "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert saved_config(tmp_path / "a") == TrainConfig(**FILE_VALUES)
        assert cli.main([
            *data, "--config", str(cfg), "--table", str(ws["table"]), *flags(FLAG_VALUES),
            "--out", str(tmp_path / "b"),
        ]) == 0
        assert saved_config(tmp_path / "b") == TrainConfig(**FLAG_VALUES)
        # A run's config.txt, read back, writes the same config.txt.
        assert cli.main([
            *data, "--config", str(tmp_path / "b" / "config.txt"), "--table", str(ws["table"]),
            "--out", str(tmp_path / "c"),
        ]) == 0
        assert (tmp_path / "c" / "config.txt").read_bytes() == (
            tmp_path / "b" / "config.txt"
        ).read_bytes()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key, value", [
        ("stage", "blah"), ("stage", "TransE"), ("neg_mode", "fancy"),  # unknown choice
        ("epochs", "abc"), ("batch_size", "1.5"),                  # not an integer
        ("lr", "abc"), ("margin", "1e"),                           # not a number
        ("seed", "-1"),                                            # out of range
    ])
    def test_a_bad_value_ends_in_one_error_line(self, ws, tmp_path, capsys, source, key, value):
        run = tmp_path / "run"
        argv = ["train", "--data", str(ws["data"]), "--out", str(run)]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), value]
        else:
            (tmp_path / "bad.cfg").write_text(f"{key} = {value}\n")
            argv += ["--config", str(tmp_path / "bad.cfg")]
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err
        # A value that reads as its type is refused by its range, which
        # names the field but not the text.
        assert ("seed must be >= 0" if key == "seed" else repr(value)) in err
        assert not run.exists()

    @pytest.mark.parametrize("line, message", [
        ("epochs = abc", "bad integer for 'epochs': 'abc'"),
        ("epoch = 3", "unknown config key 'epoch'"),
        # Values that read as their type but fail the field's own checks.
        ("stage = blah", "stage must be one of transe, transr, ptransr, got 'blah'"),
        ("lr = nan", "lr must be positive and finite, got nan"),
        ("dim_entity = 0", "dim_entity must be >= 1"),
        ("warm_epochs = -1", "warm_epochs must be >= 0"),
        ("stage = transr", "'stage' given again (first on line 2)"),
    ])
    def test_a_config_file_error_names_the_file_and_line(
        self, ws, tmp_path, monkeypatch, capsys, line, message
    ):
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text(f"# warm start only\nstage = transe\n{line}\n")
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(ws["data"]), "--config", "run.cfg", "--out", "run"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: run.cfg:3: {message}\n"
        assert not Path("run").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["lr", "warm_lr", "margin", "margin2"])
    def test_non_finite_hyperparameters_are_refused(self, ws, tmp_path, capsys, key, value):
        # Refused before any epoch runs, not after the warm start.
        run = tmp_path / "run"
        capsys.readouterr()
        rc = cli.main([
            "train", "--data", str(ws["data"]), "--stage", "transr", "--warm-epochs", "100",
            "--" + key.replace("_", "-"), value, "--out", str(run),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {key} ") and value in err and err.count("\n") == 1
        assert not run.exists()


class TestPlumbing:
    def test_the_parser_is_built_once(self, ws, tmp_path):
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert cli.main(["prepare", "--data", str(ws["data"]), "--out", str(tmp_path)]) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_python_dash_m_runs_the_cli(self, ws, tmp_path):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-m", "pathkge", "evaluate", "--data", str(ws["data"]),
             "--model", str(tmp_path / "nope.ptrm")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: model file not found")
        assert done.stderr.count("\n") == 1 and done.stdout == ""

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

    @pytest.mark.parametrize("argv, what", [
        (["train", "--stage", "ptransr", "--table", "MISSING"], "path table"),
        (["train", "--stage", "transr", "--init", "MISSING"], "warm-start model"),
        (["evaluate", "--model", "MISSING"], "model file"),
        (["evaluate", "--model", "MODEL", "--table", "MISSING"], "path table"),
        (["inspect", "--model", "MISSING", "--entity", "e00"], "model file"),
        (["inspect", "--model", "MODEL", "--table", "MISSING", "--entity", "e00"], "path table"),
    ], ids=["train-table", "train-init", "evaluate-model", "evaluate-table", "inspect-model",
            "inspect-table"])
    def test_a_missing_artifact_ends_in_one_error_line(self, ws, tmp_path, monkeypatch, capsys,
                                                       argv, what):
        # Every verb loads its model and table through one loader each.
        monkeypatch.chdir(tmp_path)  # a run directory would default to ./runs
        missing = tmp_path / "missing.bin"
        swap = {"MISSING": str(missing), "MODEL": str(ws["model"])}
        capsys.readouterr()
        rc = cli.main([*(swap.get(arg, arg) for arg in argv), "--data", str(ws["data"])])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {what} not found: {missing}\n"
        assert captured.out == ""
        assert not any(tmp_path.iterdir())

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

    def test_a_model_of_another_graph_is_refused_with_one_message(self, ws, tmp_path, capsys):
        # train --init, evaluate, inspect and the early-stop probe share one check.
        data = ws["data"]
        g = augment_inverse(load_dataset(*(data / name for name in cli.SPLIT_FILES)))
        n, m = g.n_entities, g.n_relations
        other = tmp_path / "other.ptrm"
        ModelParams.random(n + 1, m, 8, 8, np.random.default_rng(0)).save(other)
        message = (f"model shape ({n + 1} entities, {m} relations) does not match the graph "
                   f"({n}, {m})")
        capsys.readouterr()
        for argv in (
            ["train", "--stage", "ptransr", "--table", str(ws["table"]), "--init", str(other),
             "--dim-entity", "8", "--dim-relation", "8", "--out", str(tmp_path / "run")],
            ["evaluate", "--model", str(other), "--out", str(tmp_path / "eval")],
            ["inspect", "--model", str(other), "--entity", "e00"],
        ):
            assert cli.main([*argv, "--data", str(data)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists() and not (tmp_path / "eval").exists()
        with pytest.raises(EvalError) as info:
            valid_mean_rank(ModelParams.load(other), g)
        assert str(info.value) == message

    def test_too_many_entities_end_in_one_error_line(self, tmp_path, capsys):
        # 10**11 entities used to overflow the pair sampler's int64 codes.
        out = tmp_path / "kg"
        capsys.readouterr()
        assert cli.main(["synth-kg", "--entities", str(10**11), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: at most 2147483647 entities: ids are stored as int32\n")
        assert not out.exists()

    def test_running_out_of_memory_ends_in_one_error_line(self, ws, monkeypatch, capsys):
        # As numpy raises it for an array too large to allocate, and bare.
        for exc in (MemoryError("Unable to allocate 7.28 EiB for an array with shape "
                                "(100000000000, 100000000000) and data type float64"),
                    MemoryError()):
            def load(args, exc=exc):
                raise exc
            monkeypatch.setattr(cli, "_load_graph", load)
            capsys.readouterr()
            assert cli.main(["prepare", "--data", str(ws["data"])]) == 1
            assert capsys.readouterr().err == f"error: {str(exc) or 'out of memory'}\n"

    def test_a_train_out_of_memory_leaves_no_run_directory(self, ws, tmp_path, monkeypatch,
                                                           capsys):
        # The model is allocated after the config is logged; the log and its
        # directory wait for the first epoch.
        def random(*args):
            raise MemoryError("Unable to allocate 36.4 TiB for an array")
        monkeypatch.setattr(ModelParams, "random", random)
        out = tmp_path / "run"
        capsys.readouterr()
        assert cli.main(["train", "--data", str(ws["data"]), "--stage", "transe",
                         "--epochs", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 36.4 TiB for an array\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("field,value", [("entry_v", -1.0), ("entry_v", 1e300),
                                             ("relat_val", -5.0)])
    def test_a_table_value_mining_never_writes_is_refused(self, ws, tmp_path, capsys, field,
                                                          value):
        table = PathTable.load(ws["table"])
        getattr(table, field)[:] = value
        bad = tmp_path / "bad.ptbl"
        table.save(bad)
        top = "1.0" if field == "relat_val" else "1.0000000000000027"  # 20 entities
        capsys.readouterr()
        for argv in (
            ["evaluate", "--model", str(ws["model"]), "--rerank-k", "5",
             "--out", str(tmp_path / "eval")],
            ["train", "--stage", "ptransr", "--init", str(ws["transe"]), "--dim-entity", "8",
             "--dim-relation", "8", "--epochs", "1", "--out", str(tmp_path / "run")],
            ["inspect", "--model", str(ws["model"]), "--entity", "e00"],
        ):
            assert cli.main([*argv, "--data", str(ws["data"]), "--table", str(bad)]) == 1
            assert capsys.readouterr().err == f"error: {bad}: {field} outside (0, {top}]\n"
        assert not (tmp_path / "eval").exists() and not (tmp_path / "run").exists()

    def refuses_old_table(self, ws, tmp_path, capsys, version: int, blob: bytes) -> None:
        old = tmp_path / f"v{version}.ptbl"
        old.write_bytes(blob)
        rc = cli.main([
            "evaluate", "--data", str(ws["data"]), "--model", str(ws["model"]),
            "--table", str(old), "--out", str(tmp_path / "eval"),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {old}: unsupported path-table version {version} "
                              "(this build reads 3; re-run extract-paths)")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_a_version_1_table_is_refused(self, ws, tmp_path, capsys):
        # An empty table as version 1 wrote it: the header without
        # n_relations, then no paths and the two one-element offset arrays.
        self.refuses_old_table(ws, tmp_path, capsys, 1, b"PTBL" + struct.pack(
            "<IdIIQQQQ", 1, 0.01, 200, 0, 20, 0, 0, 0) + bytes(16))

    def test_a_version_2_table_is_refused(self, ws, tmp_path, capsys):
        # An empty table as version 2 wrote it: its per-path support array is
        # empty, so the file differs from version 3's in the version only.
        self.refuses_old_table(ws, tmp_path, capsys, 2, b"PTBL" + struct.pack(
            "<IdIIQQQQI", 2, 0.01, 200, 0, 20, 0, 0, 0, 0) + bytes(16))

    def test_non_finite_model_is_refused(self, ws, tmp_path, capsys):
        params = ModelParams.load(ws["model"])
        params.entity_emb[3] = np.nan
        model = tmp_path / "nan.ptrm"
        params.save(model)
        capsys.readouterr()
        rc = cli.main([
            "evaluate", "--data", str(ws["data"]), "--model", str(model),
            "--rerank-k", "5", "--out", str(tmp_path / "eval"),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "finite" in err
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
