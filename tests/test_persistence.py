"""Model and calibrator round-trips must reload bit-identically."""

import json

import numpy as np
import pytest

from conformal_hdc.classifier import train_prototypes
from conformal_hdc.conformal import ConditionalCalibrator, MarginalCalibrator
from conformal_hdc.encoders import (
    BinaryImageEncoder,
    IdentityEncoder,
    QuantizedFeatureEncoder,
    TemporalFpeEncoder,
    TrigramTextEncoder,
)
from conformal_hdc.persistence import load_calibrator, load_model, save_calibrator, save_model


def roundtrip(model, path):
    save_model(model, path)
    return load_model(path)


class TestModelRoundTrip:
    def test_identity_centroid(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 3))
        y = np.array([0, 1, 2] * 4)
        model = train_prototypes(X, y, IdentityEncoder(p=3), "centroid", "inverse_euclidean")
        loaded = roundtrip(model, tmp_path / "m.npz")
        Q = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(model.similarity_profiles(Q), loaded.similarity_profiles(Q))

    def test_binary_image_binarized(self, tmp_path):
        rng = np.random.default_rng(1)
        X = (rng.uniform(size=(10, 16)) > 0.5).astype(np.uint8)
        y = rng.integers(0, 2, size=10)
        model = train_prototypes(
            X, y, BinaryImageEncoder(p=16, d=128, seed=7), "binarized", "cosine_normalized"
        )
        loaded = roundtrip(model, tmp_path / "m.npz")
        np.testing.assert_array_equal(model.prototypes, loaded.prototypes)
        np.testing.assert_array_equal(model.similarity_profiles(X), loaded.similarity_profiles(X))

    def test_quantized_with_fitted_grid(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(15, 6))
        y = rng.integers(0, 3, size=15)
        y[:3] = [0, 1, 2]
        enc = QuantizedFeatureEncoder(p=6, d=64, levels=5, seed=8).fit(X)
        model = train_prototypes(X, y, enc, "binarized", "cosine_normalized")
        loaded = roundtrip(model, tmp_path / "m.npz")
        np.testing.assert_array_equal(loaded.encoder.grid.mins, enc.grid.mins)
        np.testing.assert_array_equal(model.similarity_profiles(X), loaded.similarity_profiles(X))

    @pytest.mark.parametrize("key, bad", [("grid_mins", np.nan), ("grid_mins", -np.inf), ("grid_maxs", np.nan)])
    def test_non_finite_grid_rejected(self, tmp_path, key, bad):
        X = np.random.default_rng(4).uniform(size=(6, 3))
        enc = QuantizedFeatureEncoder(p=3, d=32, levels=5, seed=1).fit(X)
        save_model(train_prototypes(X, [0, 1] * 3, enc, "binarized", "cosine_normalized"), tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as data:
            arrays = dict(data)
        arrays[key] = arrays[key].copy()
        arrays[key][1] = bad
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ValueError, match="NaN or infinite"):
            load_model(tmp_path / "bad.npz")

    def test_trigram_l2_normalized(self, tmp_path):
        texts = ["the quick brown fox", "jumps over", "lazy dogs sleep here"]
        model = train_prototypes(
            texts, [0, 1, 1], TrigramTextEncoder(d=64, seed=9), "l2_normalized_real", "cosine_normalized"
        )
        loaded = roundtrip(model, tmp_path / "m.npz")
        np.testing.assert_array_equal(
            model.similarity_profiles(texts), loaded.similarity_profiles(texts)
        )

    def test_temporal_raw_complex(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.poisson(0.5, size=(8, 4, 6)).astype(float)
        y = rng.integers(0, 2, size=8)
        y[:2] = [0, 1]
        enc = TemporalFpeEncoder(p=4, d=64, t_max=6, beta=0.3, seed=10)
        model = train_prototypes(X, y, enc, "raw_complex", "complex_cosine")
        loaded = roundtrip(model, tmp_path / "m.npz")
        np.testing.assert_array_equal(model.prototypes, loaded.prototypes)
        np.testing.assert_array_equal(model.similarity_profiles(X), loaded.similarity_profiles(X))

    def test_string_labels_survive(self, tmp_path):
        X = np.array([[0.0], [1.0]])
        model = train_prototypes(X, ["cat", "dog"], IdentityEncoder(p=1), "centroid", "inverse_euclidean")
        loaded = roundtrip(model, tmp_path / "m.npz")
        assert list(loaded.labels) == ["cat", "dog"]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, meta=np.array("{}"), prototypes=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("cut", ["columns", "rows"])
    def test_prototype_shape_checked_on_load(self, tmp_path, cut):
        X = np.random.default_rng(3).normal(size=(6, 3))
        model = train_prototypes(X, [0, 1, 2] * 2, IdentityEncoder(p=3), "centroid", "inverse_euclidean")
        path = tmp_path / "m.npz"
        save_model(model, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["prototypes"] = arrays["prototypes"][:, :2] if cut == "columns" else arrays["prototypes"][:2]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="prototypes must be"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["complex_cosine", "dot"])
    def test_similarity_kind_checked_on_load(self, tmp_path, kind):
        X = np.random.default_rng(4).normal(size=(6, 3))
        model = train_prototypes(X, [0, 1, 2] * 2, IdentityEncoder(p=3), "centroid", "inverse_euclidean")
        path = tmp_path / "m.npz"
        save_model(model, path)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(str(arrays["meta"]))
        meta["similarity_kind"] = kind
        arrays["meta"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="similarity kind"):
            load_model(path)


class TestCalibratorRoundTrip:
    def test_marginal(self, tmp_path):
        calib = MarginalCalibrator(q_hat=-0.123456789, alpha=0.05, n_cal=400)
        save_calibrator(calib, tmp_path / "c.json", metadata={"score_kind": "discount"})
        loaded = load_calibrator(tmp_path / "c.json")
        assert loaded == calib

    def test_conditional_with_infinite_thresholds(self, tmp_path):
        calib = ConditionalCalibrator(
            q_hat_per_label=np.array([-0.5, np.inf, -0.25]),
            alpha=0.1,
            counts=np.array([10, 0, 7]),
        )
        save_calibrator(calib, tmp_path / "c.json")
        loaded = load_calibrator(tmp_path / "c.json")
        np.testing.assert_array_equal(loaded.q_hat_per_label, calib.q_hat_per_label)
        np.testing.assert_array_equal(loaded.counts, calib.counts)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_calibrator(path)
