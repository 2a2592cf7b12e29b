"""Command-line behavior: configuration, outputs, and determinism."""

import csv
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from conformal_hdc import evaluation
from conformal_hdc.cli import CSV_COLUMNS, build_config, config_hash, main, parse_config_file
from conformal_hdc.datasets import DatasetBundle
from conformal_hdc.encoders import IdentityEncoder

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

    @pytest.mark.parametrize(
        "key", ["alhpa", "repetition", "languages_dir_sha256", "score", "lam", "repetitions", "score_kinds"]
    )
    def test_unknown_key_rejected(self, key):
        # a misspelled key used to run silently at the field's default
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            build_config({key: "0.05"})

    def test_aliases_set_their_fields(self):
        # an aliased field is set by its alias only; its own name is an unknown key
        config = build_config({"lambda": "0.25", "reps": "7", "scores": "ratio, discount"})
        assert (config.lam, config.repetitions, config.score_kinds) == (0.25, 7, ("ratio", "discount"))

    def test_every_field_parsed_by_its_type(self):
        config = build_config({
            "dataset": "spike_surrogate", "alpha": "0.2", "d": "64", "seed": "3",
            "fractions": "0.5, 0.3, 0.2", "ood_holdout": "run, walk", "temperature": "2",
            "conditional": "yes", "levels": "5", "beta": "0.4", "sigma3": "3.5",
            "n_per_class": "9", "n_ood": "11", "spike_classes": "3", "spike_neurons": "12",
            "spike_bins": "6", "spike_per_class": "20", "spike_ood": "10", "spike_rate_scale": "1.5",
        })
        assert config.fractions == (0.5, 0.3, 0.2) and config.ood_holdout == ("run", "walk")
        assert config.conditional is True and config.n_per_class == (9, 9, 9)
        assert (config.d, config.levels, config.spike_bins) == (64, 5, 6)
        assert (config.beta, config.sigma3, config.spike_rate_scale) == (0.4, 3.5, 1.5)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("reps", "x", "reps must be an integer"),
            ("lambda", "q", "lambda must be a number"),
            ("conditional", "maybe", "conditional must be true/false"),
            ("fractions", "0.5, 0.5", "fractions must be three comma-separated numbers"),
        ],
    )
    def test_messages_name_the_key_as_written(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            build_config({key: value})

    def test_path_keys_and_output_directory_pass(self):
        options = {"out": "o", "languages_dir": "l", "isolet_path": "i", "isolet_path_sha256": "0" * 64,
                   "mnist_images": "a", "mnist_labels": "b", "mnist_images_sha256": "0", "mnist_labels_sha256": "0"}
        assert build_config(options) == build_config({})


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

    def test_json_extras_carry_the_minscore_auc(self, tmp_path):
        assert run_cli(["--dataset", "synthetic", "--reps", "3", "--seed", "7", "--out", str(tmp_path)]) == 0
        extras = json.loads((tmp_path / "results.json").read_text())["extras"]
        result = evaluation.run_experiment(build_config({"dataset": "synthetic", "reps": "3", "seed": "7"}))
        assert sorted(extras) == sorted(m.method for m in result.methods)
        for m in result.methods:
            np.testing.assert_equal(extras[m.method]["minscore_auc"], m.minscore_auc)
        # the hdc baseline has no score to take a minimum of; every conformal method has one
        assert np.isnan(extras["hdc"]["minscore_auc"])
        assert all(0.0 < e["minscore_auc"] <= 1.0 for method, e in extras.items() if method != "hdc")

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

    def test_misspelled_key_fails_the_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dataset = synthetic\nalhpa = 0.05\n")
        assert run_cli(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "unknown config key 'alhpa'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


def write_languages(directory, seed=0, lines=40, width=60):
    """Six ``<language>.txt`` files of random lines, each language with its own letter frequencies."""
    rng = np.random.default_rng(seed)
    alphabet = np.array(list("abcdefghijklmnopqrstuvwxyz "))
    directory.mkdir()
    for i, name in enumerate(["English", "Estonian", "Finnish", "German", "Hungarian", "Spanish"]):
        weights = rng.random(27) ** 3 + 0.02
        weights[26] = 0.15 + 0.02 * i
        text = ["".join(rng.choice(alphabet, size=width, p=weights / weights.sum())) for _ in range(lines)]
        (directory / f"{name}.txt").write_text("\n".join(text) + "\n")
    return directory


class TestLanguagesPipeline:
    def test_generated_corpus_end_to_end_and_deterministic(self, tmp_path):
        corpus = write_languages(tmp_path / "corpus")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = languages\nlanguages_dir = {corpus}\nd = 512\nreps = 2\nseed = 5\n")
        for out in ("a", "b"):
            assert run_cli(["--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        payload = json.loads((tmp_path / "a" / "results.json").read_text())
        assert payload["config"]["ood_holdout"] == ["Finnish", "Estonian", "Hungarian"]
        assert payload["label_names"] == ["English", "German", "Spanish"]
        for name in ("results.csv", "results.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _ingest_npz(path):
    data = np.load(path)
    return DatasetBundle(data["features"], data["labels"], ["a", "b", "c"], {"file": str(path)})


class TestRecipeFromTable:
    @pytest.fixture
    def toy(self, monkeypatch, tmp_path):
        """An ingested recipe added as one table entry, and its data file."""
        recipe = evaluation.Recipe(
            (0.5, 0.3, 0.2), ("c",), "centroid", "inverse_euclidean",
            encoder=lambda config, x, train_idx, seed: IdentityEncoder(p=x.shape[1]),
            ingest=_ingest_npz, path_keys=("toy_file",), checked_keys=("toy_file",),
        )
        monkeypatch.setitem(evaluation.RECIPES, "toy", recipe)
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(3), 30)
        path = tmp_path / "toy.npz"
        np.savez(path, features=rng.normal(size=(90, 3)) + 4.0 * np.eye(3)[labels], labels=labels)
        return path

    def test_dataset_choice_path_key_and_digest_come_from_the_table(self, toy, tmp_path):
        digest = hashlib.sha256(toy.read_bytes()).hexdigest()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"toy_file = {toy}\ntoy_file_sha256 = {digest}\nreps = 2\n")
        assert run_cli(["--config", str(cfg), "--dataset", "toy", "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "results.json").read_text())
        assert payload["config"]["ood_holdout"] == ["c"] and payload["label_names"] == ["a", "b"]
        assert payload["provenance"] == {"file": str(toy)}

    def test_missing_path_and_wrong_digest_fail(self, toy, tmp_path, capsys):
        assert run_cli(["--dataset", "toy", "--out", str(tmp_path / "out")]) == 1
        assert "requires the config key 'toy_file'" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = toy\ntoy_file = {toy}\ntoy_file_sha256 = {'0' * 64}\n")
        assert run_cli(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "checksum mismatch" in capsys.readouterr().err


class _Reads:
    """A configuration that records the names read through it."""

    def __init__(self, config):
        self._config, self.names = config, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self._config, name)


def _small_run(dataset):
    """A one-repetition configuration of ``dataset`` at toy size, and its bundle."""
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(6), 12)
    if dataset == "mnist":
        bundle = DatasetBundle(rng.integers(0, 2, size=(100, 9), dtype=np.uint8), np.arange(100) % 10,
                               [str(c) for c in range(10)])
        return dict(d=64), bundle
    if dataset == "isolet":
        bundle = DatasetBundle(rng.normal(size=(72, 5)) + labels[:, None], labels, list("ABCDEF"))
        return dict(d=64, ood_holdout=("F",)), bundle
    if dataset == "languages":
        names = ["English", "Estonian", "Finnish", "German", "Hungarian", "Spanish"]
        texts = np.array([f"{names[y].lower()} sample {i}" for i, y in enumerate(labels)], dtype=object)
        return dict(d=64), DatasetBundle(texts, labels, names)
    if dataset == "synthetic":
        return dict(n_per_class=(10, 10, 10), n_ood=5), None
    return dict(d=64, spike_per_class=20, spike_ood=5), None


def _changed(value):
    """Another valid value of a configuration field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 1.5
    if isinstance(value[0], int):
        return tuple(v + 1 for v in value)
    return value[:1]  # score kinds


@pytest.mark.parametrize("dataset", list(evaluation.RECIPES))
def test_every_field_a_recipe_reads_changes_its_config_hash(dataset):
    # each results row must carry what replays it, so two runs that differ
    # in any field the recipe reads must differ in their hash
    overrides, bundle = _small_run(dataset)
    # test folds large enough to hold every label, for the conditional run
    config = evaluation.ExperimentConfig(dataset=dataset, repetitions=1, fractions=(0.4, 0.3, 0.3), **overrides)
    reads = _Reads(config)
    result = evaluation.run_experiment(reads, bundle)
    read = reads.names & {f.name for f in dataclasses.fields(config)}
    assert read <= set(result.config), read - set(result.config)
    for name in sorted(read - {"dataset"}):
        changed = dataclasses.replace(config, **{name: _changed(getattr(config, name))})
        assert config_hash(evaluation.run_experiment(changed, bundle)) != config_hash(result), name
