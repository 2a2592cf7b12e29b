"""Command-line behavior: configuration, outputs, and determinism."""

import csv
import json

import numpy as np
import pytest

from conformal_hdc.cli import CSV_COLUMNS, build_config, main, parse_config_file

from test_datasets import write_idx_pair


def run_cli(args):
    return main(args)


class TestConfigFile:
    def test_parse_key_values_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment setup\n"
            "dataset = synthetic\n"
            "alpha = 0.2   # looser level\n"
            "reps = 3\n"
            "\n"
        )
        options = parse_config_file(cfg)
        assert options == {"dataset": "synthetic", "alpha": "0.2", "reps": "3"}

    def test_malformed_line_reports_position(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dataset synthetic\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_file(cfg)


class TestBuildConfig:
    @pytest.mark.parametrize("value, want", [("5", (5, 5, 5)), ("4, 5,6", (4, 5, 6))])
    def test_n_per_class_one_or_three_counts(self, value, want):
        assert build_config({"n_per_class": value}).n_per_class == want

    @pytest.mark.parametrize("value", ["4,5", "1,2,3,4"])
    def test_n_per_class_other_counts_rejected(self, value):
        with pytest.raises(ValueError, match="n_per_class"):
            build_config({"n_per_class": value})


class TestMain:
    def test_deterministic_output_bytes(self, tmp_path):
        args = ["--dataset", "synthetic", "--alpha", "0.1", "--reps", "4", "--seed", "7"]
        assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("results.csv", "results.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_csv_header_fixed(self, tmp_path):
        assert run_cli(["--dataset", "synthetic", "--reps", "2", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "results.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        methods = [r[0] for r in rows[1:]]
        assert methods[0] == "hdc" and "discount" in methods

    def test_json_mirrors_and_carries_provenance(self, tmp_path):
        assert run_cli(["--dataset", "synthetic", "--reps", "2", "--seed", "3",
                        "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["config"]["seed"] == 3
        assert payload["config_hash"]
        assert {r["method"] for r in payload["results"]} >= {"hdc", "discount"}
        for row in payload["results"]:
            assert row["config_hash"] == payload["config_hash"]
            assert row["seed"] == "3"

    def test_summary_table_printed(self, tmp_path, capsys):
        run_cli(["--dataset", "synthetic", "--reps", "2", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "Cov." in out and "Size" in out and "AUC" in out
        assert "discount" in out

    def test_invalid_alpha_names_field_and_range(self, tmp_path, capsys):
        code = run_cli(["--dataset", "synthetic", "--alpha", "1.5", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "alpha" in err and "(0, 1)" in err

    def test_unknown_flag_exits_nonzero(self, capsys):
        assert run_cli(["--bogus"]) == 2

    def test_unknown_score_kind_rejected(self, tmp_path, capsys):
        code = run_cli(["--dataset", "synthetic", "--score", "entropy", "--out", str(tmp_path)])
        assert code == 1
        assert "score kinds" in capsys.readouterr().err

    def test_mnist_requires_paths(self, tmp_path, capsys):
        code = run_cli(["--dataset", "mnist", "--out", str(tmp_path)])
        assert code == 1
        assert "mnist_images" in capsys.readouterr().err

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dataset = synthetic\nreps = 2\nseed = 5\nn_ood = 20\n")
        out = tmp_path / "out"
        assert run_cli(["--config", str(cfg), "--reps", "3", "--out", str(out)]) == 0
        payload = json.loads((out / "results.json").read_text())
        assert payload["config"]["repetitions"] == 3  # flag wins
        assert payload["config"]["seed"] == 5

    def test_checksum_verification(self, tmp_path, capsys):
        images = np.zeros((20, 3, 3), dtype=np.uint8)
        labels = list(range(10)) * 2
        img, lbl = write_idx_pair(tmp_path, images, labels)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dataset = mnist\nmnist_images = {img}\nmnist_labels = {lbl}\n"
            f"mnist_images_sha256 = {'0' * 64}\n"
        )
        code = run_cli(["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "checksum mismatch" in capsys.readouterr().err


class TestMnistPipelinePlumbing:
    def test_tiny_idx_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        # 10-class toy images: class digit d lights a distinct patch, digits
        # 6-9 serve as the held-out pool
        n_per = 12
        images = np.zeros((10 * n_per, 5, 5), dtype=np.uint8)
        labels = []
        for digit in range(10):
            for i in range(n_per):
                img = np.zeros((5, 5), dtype=np.uint8)
                img[digit // 2, :] = 255
                if digit % 2:
                    img[:, 4] = 255
                noise = rng.integers(0, 25, size=(5, 5))
                images[digit * n_per + i] = np.clip(img + noise, 0, 255)
                labels.append(digit)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dataset = mnist\nmnist_images = {img}\nmnist_labels = {lbl}\n"
            "d = 256\nreps = 2\nalpha = 0.2\nseed = 1\n"
            "fractions = 0.5, 0.3, 0.2\n"
        )
        out = tmp_path / "out"
        assert run_cli(["--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "results.json").read_text())
        assert payload["config"]["ood_holdout"] == ["6", "7", "8", "9"]
        hdc = [r for r in payload["results"] if r["method"] == "hdc"][0]
        assert float(hdc["accuracy"]) > 0.5
