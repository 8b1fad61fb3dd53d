import csv
import hashlib
import json
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sspq.cli
from sspq.cli import DEFAULTS, _Dataset, load_config, main
from sspq.embeddings import export_embeddings, import_embeddings, write_labels
from sspq.encoder import load_checkpoint, save_checkpoint
from sspq.errors import BadConfigError, FormatError
from sspq.quantizer import ProductCodebook, codebook_load, codebook_save, encode_matrix
from sspq.trainer import TrainConfig


def tiny_config(tmp_path: Path) -> Path:
    cfg = {
        "out_dir": str(tmp_path / "run"),
        "seed": 0,
        "num_classes": 6,
        "per_class": 5,
        "d_in": 8,
        "cluster_std": 0.1,
        "anchor_count": 128,
        "train_per_class": 5,
        "emb_dim": 16,
        "m": 4,
        "k": 16,
        "hidden": [16],
        "epochs": 3,
        "batch_size": 8,
        "pq_m_list": [2, 4],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run_pipeline(config: Path) -> int:
    for cmd in (["gen"], ["train-codebook"], ["train-query"], ["eval", "--pq"]):
        code = main([*cmd, "--config", str(config)])
        if code != 0:
            return code
    return 0


class TestConfigLoading:
    def test_defaults_plus_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"m": 4}))
        cfg = load_config(path, {"seed": 3, "k": None})
        assert cfg["m"] == 4
        assert cfg["seed"] == 3
        assert cfg["k"] == DEFAULTS["k"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(BadConfigError):
            load_config(path, {})

    def test_int_accepted_for_float(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"lr": 1, "tau_g": 0}))
        cfg = load_config(path, {})
        assert (cfg["lr"], cfg["tau_g"]) == (1, 0)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("activation", "gelu"),
            ("loss", "bogus"),
            ("sim", "cos"),
            ("batch_size", "8"),
            ("m", "8"),
            ("epochs", True),
            ("lr", None),
            ("hidden", 64),
            ("pq_m_list", [2, "8"]),
            ("seed", -100),
            ("weight_decay", -5),
            ("kmeans_tol", -1),
            ("pq_m_list", []),
            ("pq_m_list", [2, 0]),
            ("normalize_anchors", True),
            ("lr", float("nan")),
            ("tau_g", float("inf")),
            # Settings that were removed, even at their old fixed values.
            ("kmeans_tol", 1e-4),
            ("kmeans_iters", 50),
            ("activation", "tanh"),
        ],
    )
    def test_bad_value_fails_with_error_json(self, tmp_path, capsys, key, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path / "run"), key: value}))
        assert main(["train-query", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "BadConfigError"

    def test_int_no_float_can_hold_fails_the_first_stage(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"out_dir": str(tmp_path / "run"), "tau_g": 10**400}))
        assert main(["gen", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "BadConfigError"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "text", ["5", "null", "true", '[["lr", 1]]', '["lr"]', '"abc"'],
        ids=["int", "null", "bool", "pairs", "list", "string"],
    )
    def test_non_object_top_level_fails_with_error_json(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["gen", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "BadConfigError"
        assert list(tmp_path.iterdir()) == [path]


class TestGen:
    def test_manifest_lists_four_splits(self, tmp_path):
        config = tiny_config(tmp_path)
        assert main(["gen", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "run" / "dataset" / "manifest.json").read_text())
        assert sorted(manifest["splits"]) == ["anchor", "gallery", "query", "train"]
        for entry in manifest["splits"].values():
            base = tmp_path / "run" / "dataset"
            assert (base / entry["raw"]).exists()
            assert (base / entry["emb"]).exists()
            assert (base / entry["labels"]).exists()

    def test_rerun_byte_identical(self, tmp_path):
        config = tiny_config(tmp_path)
        main(["gen", "--config", str(config)])
        base = tmp_path / "run" / "dataset"
        snapshot = {p.name: p.read_bytes() for p in base.iterdir()}
        main(["gen", "--config", str(config)])
        for p in base.iterdir():
            assert p.read_bytes() == snapshot[p.name]

    def test_invalid_per_class_fails_with_error_json(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        code = main(["gen", "--config", str(config), "--per-class", "1"])
        assert code != 0
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "BadConfigError"

    @pytest.mark.parametrize("per_class", ["1000000000000", "1000000000000000000"])
    def test_split_too_large_for_emb1_fails_before_writing(self, tmp_path, capsys, per_class):
        config = tiny_config(tmp_path)
        assert main(["gen", "--config", str(config), "--per-class", per_class]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "BadConfigError"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(("key", "value"), [
        ("k", 2**32), ("k", 2**62), ("k", 2**400), ("hidden", [2**32]), ("hidden", [2**62]), ("hidden", [16, 10**400]),
    ], ids=["k-2**32", "k-2**62", "k-2**400", "hidden-2**32", "hidden-2**62", "hidden-16-10**400"])
    def test_width_no_array_can_hold_fails_before_writing(self, tmp_path, capsys, key, value):
        # Above EMB_MAX_SIZE, so gen fails, not train-codebook's or train-query's allocation.
        config = tiny_config(tmp_path)
        config.write_text(json.dumps(json.loads(config.read_text()) | {key: value}))
        assert main(["gen", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "BadConfigError"
        assert not (tmp_path / "run").exists()

    def test_overflowing_cluster_std_fails_before_writing(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        args = ["gen", "--config", str(config), "--cluster-std", "1e308", "--anchor-count", "64"]
        assert main(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "BadConfigError"
        assert not (tmp_path / "run" / "dataset").exists()

    def test_out_of_memory_fails_with_error_json(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(**_):
            raise MemoryError("cannot allocate the splits")

        monkeypatch.setattr(sspq.cli, "gen_mixture", out_of_memory)
        assert main(["gen", "--config", str(tiny_config(tmp_path))]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "MemoryError", "message": "cannot allocate the splits"}
        assert not (tmp_path / "run").exists()


class TestTrainCodebook:
    def test_summary_objective_matches_recomputation(self, tmp_path):
        config = tiny_config(tmp_path)
        main(["gen", "--config", str(config)])
        assert main(["train-codebook", "--config", str(config)]) == 0
        run = tmp_path / "run"
        summary = json.loads((run / "codebook_summary.json").read_text())
        cb = codebook_load(run / "codebook.pqc")
        anchors = import_embeddings(run / "dataset" / "anchor_emb.emb")
        codes = encode_matrix(cb, anchors)
        ds = cb.dim // cb.m
        cents = cb.stacked()
        for j in range(cb.m):
            diff = anchors[:, j * ds : (j + 1) * ds] - cents[j, codes[:, j]]
            recomputed = float((diff * diff).sum())
            assert abs(recomputed - summary["per_subspace_objective"][j]) < 1e-6

    def test_flat_mode_warns(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        main(["gen", "--config", str(config)])
        assert main(["train-codebook", "--config", str(config), "--m", "1"]) == 0
        assert "flat" in capsys.readouterr().err

    def test_default_k_is_256(self):
        assert DEFAULTS["k"] == 256

    @pytest.mark.parametrize(
        "command, flags, error, artifact",
        [
            pytest.param("train-codebook", ["--k", "100"], "NonPowerOfTwoKError", "codebook.pqc",
                         id="train-codebook-codebook.pqc"),
            pytest.param("pq-bench", ["--k", "100"], "NonPowerOfTwoKError", "pq_bench.json",
                         id="pq-bench-pq_bench.json"),
            pytest.param("train-codebook", ["--seed", "-100"], "BadConfigError", "codebook.pqc",
                         id="train-codebook-seed--100"),
            pytest.param("pq-bench", ["--m-list", "2", "4", "3"], "IndivisibleDimensionError",
                         "pq_bench.json", id="pq-bench-m-list-2-4-3"),
        ],
    )
    def test_non_power_of_two_k_fails_before_writing(
        self, tmp_path, capsys, monkeypatch, command, flags, error, artifact
    ):
        config = tiny_config(tmp_path)
        main(["gen", "--config", str(config)])
        capsys.readouterr()
        trained = []
        train = sspq.cli.train_product_codebook
        monkeypatch.setattr(
            sspq.cli, "train_product_codebook", lambda *a, **kw: trained.append(1) or train(*a, **kw)
        )
        assert main([command, "--config", str(config), *flags]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == error
        assert not (tmp_path / "run" / artifact).exists()
        if command == "pq-bench":
            # The sweep checks every M before it trains any codebook.
            assert len(trained) == 0

    def test_non_finite_anchors_fail_with_error_json(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        main(["gen", "--config", str(config)])
        anchors = tmp_path / "run" / "dataset" / "anchor_emb.emb"
        blob = bytearray(anchors.read_bytes())
        blob[13:17] = struct.pack("<f", float("nan"))
        anchors.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["train-codebook", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "FormatError"
        assert not (tmp_path / "run" / "codebook.pqc").exists()


class TestManifest:
    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],  # truncated JSON
            lambda text: text.replace('"splits"', '"parts"'),
            lambda text: text.replace('"anchor"', '"anchors"'),
            lambda text: text.replace('"emb": "anchor_emb.emb"', '"emb": 7'),
            lambda text: text.replace('"labels": "query_labels.csv"', '"label": "query_labels.csv"'),
            lambda text: "[]",
        ],
        ids=["truncated", "no-splits", "no-anchor", "emb-not-a-name", "no-labels", "list"],
    )
    def test_bad_manifest_raises(self, tmp_path, damage):
        config = tiny_config(tmp_path)
        main(["gen", "--config", str(config)])
        path = tmp_path / "run" / "dataset" / "manifest.json"
        text = path.read_text()
        assert damage(text) != text
        path.write_text(damage(text))
        with pytest.raises(FormatError):
            _Dataset(load_config(config, {}))

    @pytest.mark.parametrize("damage", ["truncated", "no-splits"])
    def test_broken_manifest_fails_with_error_json(self, tmp_path, capsys, damage):
        config = tiny_config(tmp_path)
        main(["gen", "--config", str(config)])
        path = tmp_path / "run" / "dataset" / "manifest.json"
        text = path.read_text()
        path.write_text(text[:-10] if damage == "truncated" else text.replace('"splits"', '"x"'))
        capsys.readouterr()
        assert main(["train-codebook", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "FormatError"
        assert not (tmp_path / "run" / "codebook.pqc").exists()


class TestTrainQueryAndEval:
    def test_train_config_defaults_are_the_run_the_cli_makes(self, tmp_path, monkeypatch):
        # Tests build TrainConfig from its defaults, the acceptance fixtures
        # among them, as the CLI's run: cmd_train_query passes lr as
        # learning_rate, loss as loss_kind, sim as similarity_kind, and every
        # other field but the seed under its own name.
        config = tiny_config(tmp_path)
        tiny = json.loads(config.read_text())
        config.write_text(json.dumps({k: v for k, v in tiny.items() if k not in ("epochs", "batch_size")}))
        for cmd in ("gen", "train-codebook"):
            assert main([cmd, "--config", str(config)]) == 0

        class Passed(Exception):
            pass

        def capture(enc, gallery, raw, codebook, cfg):
            raise Passed(cfg)

        monkeypatch.setattr(sspq.cli, "train_query_model", capture)
        with pytest.raises(Passed) as passed:
            main(["train-query", "--config", str(config)])
        (cfg,) = passed.value.args
        assert replace(cfg, seed=TrainConfig().seed) == TrainConfig()

    def test_full_pipeline_outputs(self, tmp_path):
        config = tiny_config(tmp_path)
        assert run_pipeline(config) == 0
        run = tmp_path / "run"
        report = json.loads((run / "train_report.json").read_text())
        assert len(report["epoch_mean_loss"]) == report["config"]["epochs"] == 3
        assert report["config"]["tau_g"] == 0.1
        assert report["config"]["tau_q"] == 1.0
        for mode in ("symmetric_gallery", "symmetric_query", "asymmetric", "asymmetric_pq"):
            assert (run / f"eval_{mode}.json").exists()
        summary = (run / "eval_summary.csv").read_text().strip().splitlines()
        assert summary[0] == "mode,map,n_queries,codebook_id"
        assert len(summary) == 5
        memory = json.loads((run / "memory.json").read_text())
        assert memory["code_bytes"] == memory["n"] * memory["m"] * 4 / 8  # log2(16) = 4

    def test_eval_report_format(self, tmp_path):
        config = tiny_config(tmp_path)
        assert run_pipeline(config) == 0
        run = tmp_path / "run"
        blob = (run / "checkpoint.sspq").read_bytes()
        (header_len,) = struct.unpack("<I", blob[4:8])
        encoder_id = hashlib.sha256(blob[8 + header_len :]).hexdigest()[:12]
        codebook_id = hashlib.sha256((run / "codebook.pqc").read_bytes()).hexdigest()[:12]
        expected_ids = {
            "symmetric_gallery": ("oracle", ""),
            "symmetric_query": (encoder_id, ""),
            "asymmetric": (encoder_id, ""),
            "asymmetric_pq": (encoder_id, codebook_id),
        }
        rows = list(csv.reader((run / "eval_summary.csv").read_text().splitlines()))
        assert rows[0] == ["mode", "map", "n_queries", "codebook_id"]
        assert [row[0] for row in rows[1:]] == list(expected_ids)
        for mode, map_text, n_queries, row_codebook_id in rows[1:]:
            report = json.loads((run / f"eval_{mode}.json").read_text())
            assert sorted(report) == sorted(
                ["mode", "map", "n_queries", "per_query_ap", "encoder_id", "codebook_id"]
            )
            assert report["mode"] == mode
            assert (report["encoder_id"], report["codebook_id"]) == expected_ids[mode]
            assert report["n_queries"] == len(report["per_query_ap"]) == int(n_queries) == 6
            assert report["map"] == pytest.approx(np.mean(report["per_query_ap"]), abs=1e-15)
            assert map_text == f"{report['map']:.6f}"
            assert row_codebook_id == report["codebook_id"]

    def test_eval_rejects_relu_checkpoint(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        for cmd in ("gen", "train-codebook", "train-query"):
            assert main([cmd, "--config", str(config)]) == 0
        path = tmp_path / "run" / "checkpoint.sspq"
        blob = path.read_bytes()
        assert blob.count(b'"activation": "tanh"') == 1
        path.write_bytes(blob.replace(b'"activation": "tanh"', b'"activation": "relu"'))
        capsys.readouterr()
        assert main(["eval", "--pq", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "FormatError"
        assert not list((tmp_path / "run").glob("eval_*.json"))

    def test_hard_assignment_flag(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        main(["gen", "--config", str(config)])
        main(["train-codebook", "--config", str(config)])
        assert main(["train-query", "--config", str(config), "--tau-g", "0"]) == 0
        assert "hard" in capsys.readouterr().err
        report = json.loads((tmp_path / "run" / "train_report.json").read_text())
        assert report["config"]["tau_g"] == 0.0

    def test_pipeline_idempotent(self, tmp_path):
        config = tiny_config(tmp_path)
        assert run_pipeline(config) == 0
        run = tmp_path / "run"
        artifacts = [p for p in run.rglob("*") if p.is_file()]
        snapshot = {p: p.read_bytes() for p in artifacts}
        assert run_pipeline(config) == 0
        for p, blob in snapshot.items():
            assert p.read_bytes() == blob, f"{p} changed across identical reruns"

    @pytest.mark.parametrize("flag", ["--lr", "--epochs", "--batch-size", "--tau-q"])
    def test_bad_training_flag_fails_with_error_json(self, tmp_path, capsys, flag):
        config = tiny_config(tmp_path)
        main(["gen", "--config", str(config)])
        main(["train-codebook", "--config", str(config)])
        capsys.readouterr()
        assert main(["train-query", "--config", str(config), flag, "0"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "BadConfigError"

    @pytest.mark.parametrize("tau_q", ["1e-300", "1e-310"])
    def test_tiny_tau_q_fails_with_error_json(self, tmp_path, capsys, tau_q):
        # The query distribution underflows to 0 where the gallery's is
        # positive; at 1e-310 its logits also overflow, which must not warn.
        config = tiny_config(tmp_path)
        main(["gen", "--config", str(config)])
        main(["train-codebook", "--config", str(config)])
        capsys.readouterr()
        assert main(["train-query", "--config", str(config), "--tau-q", tau_q]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ZeroTargetProbabilityError"
        assert not (tmp_path / "run" / "checkpoint.sspq").exists()

    @pytest.mark.parametrize("loss", ["ssp", "reg"])
    def test_diverging_training_fails_with_error_json(self, tmp_path, capsys, loss):
        # The parameters overflow; training stops at the first epoch whose
        # mean loss is not finite, without a NumPy warning.
        config = tiny_config(tmp_path)
        main(["gen", "--config", str(config)])
        main(["train-codebook", "--config", str(config)])
        capsys.readouterr()
        assert main(["train-query", "--config", str(config), "--lr", "1e308", "--loss", loss]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "NonFiniteInputError"
        assert not (tmp_path / "run" / "checkpoint.sspq").exists()

    def test_pq_bench(self, tmp_path):
        config = tiny_config(tmp_path)
        run_pipeline(config)
        assert main(["pq-bench", "--config", str(config)]) == 0
        rows = json.loads((tmp_path / "run" / "pq_bench.json").read_text())
        assert [r["m"] for r in rows] == [None, 2, 4]
        csv_lines = (tmp_path / "run" / "pq_bench.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "m,k,map,code_bytes,mib"
        assert len(csv_lines) == 4

    @staticmethod
    def count_training(monkeypatch) -> list[int]:
        trained = []
        train = sspq.cli.train_product_codebook
        monkeypatch.setattr(sspq.cli, "train_product_codebook",
                            lambda *a, **kw: trained.append(kw["m"]) or train(*a, **kw))
        return trained

    def test_pq_bench_reuses_the_pipeline_codebook(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path)
        assert run_pipeline(config) == 0
        trained = self.count_training(monkeypatch)
        assert main(["pq-bench", "--config", str(config)]) == 0
        run = tmp_path / "run"
        rows = {r["m"]: r for r in json.loads((run / "pq_bench.json").read_text())}
        pq_eval = json.loads((run / "eval_asymmetric_pq.json").read_text())
        assert rows[4]["map"] == pq_eval["map"]  # the config's m is 4
        assert trained == [2]

    @pytest.mark.parametrize(
        "damage, flags",
        [
            ("absent", []),
            ("other-m", []),
            ("other-k", ["--k", "8"]),
            ("other-d", []),
        ],
    )
    def test_pq_bench_trains_every_m_without_a_matching_codebook(
        self, tmp_path, monkeypatch, damage, flags
    ):
        config = tiny_config(tmp_path)
        assert run_pipeline(config) == 0
        run = tmp_path / "run"
        reference = json.loads((run / "eval_asymmetric_pq.json").read_text())["map"]
        if damage == "absent":
            (run / "codebook.pqc").unlink()
        elif damage == "other-m":
            assert main(["train-codebook", "--config", str(config), "--m", "2"]) == 0
        elif damage == "other-d":
            codebook_save(ProductCodebook(np.ones((4, 16, 3))), run / "codebook.pqc")
        trained = self.count_training(monkeypatch)
        assert main(["pq-bench", "--config", str(config), *flags]) == 0
        assert trained == [2, 4]
        rows = {r["m"]: r for r in json.loads((run / "pq_bench.json").read_text())}
        if damage != "other-k":
            # Training M=4 afresh gives the codebook train-codebook wrote.
            assert rows[4]["map"] == reference

    def test_pq_bench_with_truncated_codebook_fails_with_error_json(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        assert run_pipeline(config) == 0
        path = tmp_path / "run" / "codebook.pqc"
        path.write_bytes(path.read_bytes()[:-3])
        capsys.readouterr()
        assert main(["pq-bench", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "FormatError"
        assert not (tmp_path / "run" / "pq_bench.json").exists()

    def test_pq_bench_without_checkpoint_fails_with_error_json(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        main(["gen", "--config", str(config)])
        capsys.readouterr()
        assert main(["pq-bench", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "FileNotFoundError"
        assert not (tmp_path / "run" / "pq_bench.json").exists()

    def test_zero_final_layer_evaluates(self, tmp_path):
        # Every query embedding is then a degenerate (zero) row.
        config = tiny_config(tmp_path)
        for cmd in ("gen", "train-codebook", "train-query"):
            assert main([cmd, "--config", str(config)]) == 0
        run = tmp_path / "run"
        model, extra = load_checkpoint(run / "checkpoint.sspq")
        model.params[-2][:] = 0.0  # the output layer's weight and bias
        model.params[-1][:] = 0.0
        save_checkpoint(model, run / "checkpoint.sspq", extra=extra)
        assert main(["eval", "--pq", "--config", str(config)]) == 0
        assert main(["pq-bench", "--config", str(config)]) == 0
        for name in ("eval_asymmetric.json", "eval_asymmetric_pq.json", "pq_bench.json"):
            assert (run / name).exists()

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    def test_empty_query_split_fails_with_error_json(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        for cmd in ("gen", "train-codebook", "train-query"):
            assert main([cmd, "--config", str(config)]) == 0
        dataset = tmp_path / "run" / "dataset"
        manifest = json.loads((dataset / "manifest.json").read_text())
        query = manifest["splits"]["query"]
        for kind in ("raw", "emb"):
            dim = import_embeddings(dataset / query[kind]).shape[1]
            export_embeddings(np.zeros((0, dim)), dataset / query[kind])
        write_labels(np.zeros(0, dtype=np.int64), dataset / query["labels"])
        query["rows"] = 0
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["eval", "--pq", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "EmptyInputError"
        assert not list((tmp_path / "run").glob("eval_*.json"))

    def test_run_leaves_only_artifacts(self, tmp_path):
        # Atomic writes go through sibling temporary files; none may remain.
        config = tiny_config(tmp_path)
        assert run_pipeline(config) == 0
        assert main(["pq-bench", "--config", str(config)]) == 0
        run = tmp_path / "run"
        found = sorted(p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file())
        dataset = [
            f"dataset/{split}_{kind}"
            for split in ("anchor", "gallery", "query", "train")
            for kind in ("emb.emb", "labels.csv", "raw.emb")
        ]
        assert found == sorted([
            "checkpoint.sspq", "codebook.pqc", "codebook_summary.json", *dataset,
            "dataset/manifest.json", "eval_asymmetric.json", "eval_asymmetric_pq.json",
            "eval_summary.csv", "eval_symmetric_gallery.json", "eval_symmetric_query.json",
            "memory.json", "pq_bench.csv", "pq_bench.json", "train_report.json",
        ])
