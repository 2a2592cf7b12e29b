"""Model and calibrator round-trips must reload bit-identically."""

import hashlib
import json

import numpy as np
import pytest

from conformal_hdc.classifier import TrainedModel, train_prototypes
from conformal_hdc.conformal import Calibrator, calibrate_conditional, calibrate_marginal
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
        _renamed_kind(model, tmp_path / "m.npz", kind)
        with pytest.raises(ValueError, match="similarity kind"):
            load_model(tmp_path / "m.npz")


def _renamed_kind(model, path, kind):
    """Save ``model`` to ``path`` as a file naming the similarity ``kind``."""
    save_model(model, path)
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"]))
    meta["similarity_kind"] = kind
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def _fixed_models():
    """One small model per encoder type, with int and SeedSequence seeds, and the inputs it encodes."""
    rng = np.random.default_rng(21)
    feats = rng.normal(size=(6, 5))
    pixels = (rng.uniform(size=(6, 12)) > 0.5).astype(np.uint8)
    texts = ["abc def", "the cat", "zebra yak", "hello there", "a b c", "xyz"]
    trials = rng.poisson(0.7, size=(6, 3, 4)).astype(float)
    y = [0, 1, 2, 0, 1, 2]
    # a fresh SeedSequence per encoder: the file does not record how many
    # children a SeedSequence had spawned before the encoder drew its own
    def ss():
        return np.random.SeedSequence(31).spawn(2)[1]

    encoders = {
        "identity": (IdentityEncoder(p=5), feats, "centroid", "inverse_euclidean"),
        "binary_image": (BinaryImageEncoder(p=12, d=40, seed=7), pixels, "binarized", "cosine_normalized"),
        "quantized_features": (
            QuantizedFeatureEncoder(p=5, d=40, levels=4, seed=ss()).fit(feats), feats, "binarized", "cosine_normalized"
        ),
        "trigram_text": (TrigramTextEncoder(d=40, seed=9), texts, "l2_normalized_real", "cosine_normalized"),
        "temporal_fpe": (
            TemporalFpeEncoder(p=3, d=40, t_max=4, beta=0.5, seed=ss()), trials, "raw_complex", "complex_cosine"
        ),
    }
    return {name: (train_prototypes(X, y, enc, style, kind), X) for name, (enc, X, style, kind) in encoders.items()}


#: the ``meta`` record save_model wrote for each of _fixed_models() before the
#: encoders' saved forms moved into one table; the bytes must not change
_HEAD = '{"format": "conformal-hdc-model/1", "similarity_kind": '
_SEEDSEQ = '"seed": {"kind": "seedseq", "entropy": 31, "spawn_key": [1]}'
MODEL_META = {
    "identity": _HEAD + '"inverse_euclidean", "style": "centroid", "labels": [0, 1, 2], '
    '"encoder": {"type": "identity", "p": 5}}',
    "binary_image": _HEAD + '"cosine_normalized", "style": "binarized", "labels": [0, 1, 2], '
    '"encoder": {"type": "binary_image", "p": 12, "d": 40, "seed": {"kind": "int", "value": 7}}}',
    "quantized_features": _HEAD + '"cosine_normalized", "style": "binarized", "labels": [0, 1, 2], '
    '"encoder": {"type": "quantized_features", "p": 5, "d": 40, "levels": 4, ' + _SEEDSEQ + "}}",
    "trigram_text": _HEAD + '"cosine_normalized", "style": "l2_normalized_real", "labels": [0, 1, 2], '
    '"encoder": {"type": "trigram_text", "d": 40, "seed": {"kind": "int", "value": 9}}}',
    "temporal_fpe": _HEAD + '"complex_cosine", "style": "raw_complex", "labels": [0, 1, 2], '
    '"encoder": {"type": "temporal_fpe", "p": 3, "d": 40, "t_max": 4, "beta": 0.5, ' + _SEEDSEQ + "}}",
}
#: SHA-256 of the int8 codes that the reloaded encoders give their fixed
#: inputs, taken on the same tree; integer codes do not depend on the BLAS
RELOADED_CODES_SHA256 = {
    "binary_image": "647f6eb56cdbdb8fca66633170020b965664791877d0654e1f9cabdce76f3d53",
    "quantized_features": "f0dc0da18e37234717dcfb60f4f670243dcd149fe1bb061be8fedaa61993bb84",
    "trigram_text": "57440a9242161381b10c1331b2c9ade9d88dee4add672197bcf58886a1db0a7b",
}


class TestModelFileFormat:
    @pytest.mark.parametrize("name", list(MODEL_META))
    def test_saved_meta_unchanged_and_reloaded_codes_equal(self, tmp_path, name):
        model, X = _fixed_models()[name]
        save_model(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as data:
            assert str(data["meta"]) == MODEL_META[name]
            grid = ["grid_maxs", "grid_mins"] if name == "quantized_features" else []
            assert sorted(data.files) == grid + ["meta", "prototypes"]
        codes = load_model(tmp_path / "m.npz").encoder.encode_batch(X)
        np.testing.assert_array_equal(codes, model.encoder.encode_batch(X))
        if name in RELOADED_CODES_SHA256:
            assert codes.dtype == np.int8
            assert hashlib.sha256(codes.tobytes()).hexdigest() == RELOADED_CODES_SHA256[name]


def _edited_encoder_record(path, edit):
    """Rewrite the encoder record of the model file at ``path`` with ``edit(record)``."""
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"]))
    edit(meta["encoder"])
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


class TestEncoderRecordChecked:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.update(type="wavelet"), "unknown encoder type 'wavelet'"),
            (lambda r: r.pop("type"), "unknown encoder type None"),
            (lambda r: r.pop("levels"), "takes the arguments"),
            (lambda r: r.pop("seed"), "takes the arguments"),
            (lambda r: r.update(beta=0.3), "takes the arguments"),
        ],
        ids=["unknown-type", "no-type", "missing-levels", "missing-seed", "extra-argument"],
    )
    def test_bad_record_raises_value_error(self, tmp_path, edit, message):
        model, _ = _fixed_models()["quantized_features"]
        save_model(model, tmp_path / "m.npz")
        _edited_encoder_record(tmp_path / "m.npz", edit)
        with pytest.raises(ValueError, match=message):
            load_model(tmp_path / "m.npz")

    def test_unfitted_grid_of_earlier_files_loads(self, tmp_path):
        # earlier files saved an unfitted quantized encoder with null grid bounds
        enc = QuantizedFeatureEncoder(p=2, d=16, levels=3, seed=1)
        model = TrainedModel(enc, np.ones((2, 16), dtype=np.int8), "cosine_normalized", "binarized", np.arange(2))
        save_model(model, tmp_path / "m.npz")
        _edited_encoder_record(tmp_path / "m.npz", lambda r: r.update(grid_mins=None, grid_maxs=None))
        loaded = load_model(tmp_path / "m.npz").encoder
        assert loaded.grid is None and (loaded.p, loaded.d, loaded.levels) == (2, 16, 3)

    def test_encoder_outside_the_table_not_saved(self, tmp_path):
        class Scaled(IdentityEncoder):
            def encode_batch(self, X):
                return 2.0 * super().encode_batch(X)

        model = train_prototypes(np.eye(3), [0, 1, 2], Scaled(p=3), "centroid", "inverse_euclidean")
        with pytest.raises(ValueError, match="encoder of class Scaled"):
            save_model(model, tmp_path / "m.npz")
        assert not (tmp_path / "m.npz").exists()


class TestDeletedHammingKind:
    def test_bipolar_model_loads_as_cosine(self, tmp_path):
        # 1 - (mismatches)/d equals (cos + 1)/2 on bipolar codes, so a file
        # that names the deleted kind profiles as cosine_normalized
        rng = np.random.default_rng(5)
        X = (rng.uniform(size=(12, 16)) > 0.5).astype(np.uint8)
        model = train_prototypes(X, [0, 1, 2] * 4, BinaryImageEncoder(p=16, d=128, seed=3), "binarized",
                                 "cosine_normalized")
        _renamed_kind(model, tmp_path / "m.npz", "hamming_similarity")
        loaded = load_model(tmp_path / "m.npz")
        assert loaded.similarity_kind == "cosine_normalized"
        Q = (rng.uniform(size=(5, 16)) > 0.5).astype(np.uint8)
        codes = model.encoder.encode_batch(Q).astype(np.float64)
        protos = model.prototypes.astype(np.float64)
        hamming = 1.0 - (codes[:, None, :] != protos[None, :, :]).sum(axis=2) / 128
        np.testing.assert_allclose(loaded.similarity_profiles(Q), hamming, rtol=0, atol=2e-16)

    def test_real_prototypes_rejected_by_name(self, tmp_path):
        X = np.random.default_rng(6).normal(size=(6, 3))
        model = train_prototypes(X, [0, 1, 2] * 2, IdentityEncoder(p=3), "centroid", "inverse_euclidean")
        _renamed_kind(model, tmp_path / "m.npz", "hamming_similarity")
        with pytest.raises(ValueError, match="'hamming_similarity'"):
            load_model(tmp_path / "m.npz")


#: what save_calibrator wrote for the calibrators of _calibrators() before the
#: two calibrator types were merged; the bytes must not change
MARGINAL_FILE = (
    '{\n  "alpha": 0.2,\n  "format": "conformal-hdc-calibrator/1",\n  "metadata": {\n    "score": "discount"\n'
    '  },\n  "n_cal": 9,\n  "q_hat": 0.3333333333333333,\n  "type": "marginal"\n}'
)
CONDITIONAL_FILE = (
    '{\n  "alpha": 0.2,\n  "counts": [\n    6,\n    3,\n    0\n  ],\n  "format": "conformal-hdc-calibrator/1",\n'
    '  "q_hat_per_label": [\n    0.7,\n    Infinity,\n    Infinity\n  ],\n  "type": "conditional"\n}'
)


def _calibrators():
    scores = [0.3, -0.1, 0.25, 0.7, -0.45, 0.05, 1 / 3, 0.2, 0.15]
    labels = [0, 1, 0, 0, 1, 0, 0, 1, 0]
    return calibrate_marginal(scores, 0.2), calibrate_conditional(scores, labels, 0.2, 3)


class TestCalibratorFileFormat:
    def test_saved_bytes_unchanged(self, tmp_path):
        marginal, conditional = _calibrators()
        save_calibrator(marginal, tmp_path / "m.json", {"score": "discount"})
        save_calibrator(conditional, tmp_path / "c.json")
        assert (tmp_path / "m.json").read_text() == MARGINAL_FILE
        assert (tmp_path / "c.json").read_text() == CONDITIONAL_FILE

    def test_earlier_files_load_with_equal_thresholds(self, tmp_path):
        for text, calibrator in zip((MARGINAL_FILE, CONDITIONAL_FILE), _calibrators()):
            (tmp_path / "c.json").write_text(text)
            loaded = load_calibrator(tmp_path / "c.json")
            assert loaded.per_label == calibrator.per_label and loaded.alpha == calibrator.alpha
            assert loaded.q_hat.tobytes() == calibrator.q_hat.tobytes()
            assert loaded.counts.tobytes() == calibrator.counts.tobytes()
            np.testing.assert_array_equal(loaded.thresholds(3), calibrator.thresholds(3))

    @pytest.mark.parametrize("per_label", [False, True])
    def test_calibrator_with_leading_axes_not_saved(self, tmp_path, per_label):
        scores = np.random.default_rng(2).uniform(size=(2, 20))
        labels = np.arange(20) % 2 + np.zeros((2, 1), dtype=np.int64)
        stacked = calibrate_conditional(scores, labels, 0.1, 2) if per_label else calibrate_marginal(scores, 0.1)
        with pytest.raises(ValueError, match="one calibration"):
            save_calibrator(stacked, tmp_path / "c.json")
        assert not (tmp_path / "c.json").exists()


class TestCalibratorRoundTrip:
    def test_marginal(self, tmp_path):
        calib = Calibrator(q_hat=-0.123456789, alpha=0.05, counts=400)
        save_calibrator(calib, tmp_path / "c.json", metadata={"score_kind": "discount"})
        loaded = load_calibrator(tmp_path / "c.json")
        assert (loaded.alpha, loaded.per_label) == (calib.alpha, calib.per_label)
        assert loaded.q_hat.tobytes() == calib.q_hat.tobytes() and loaded.counts.tobytes() == calib.counts.tobytes()

    def test_conditional_with_infinite_thresholds(self, tmp_path):
        calib = Calibrator(
            q_hat=np.array([-0.5, np.inf, -0.25]), alpha=0.1, counts=np.array([10, 0, 7]), per_label=True
        )
        save_calibrator(calib, tmp_path / "c.json")
        loaded = load_calibrator(tmp_path / "c.json")
        np.testing.assert_array_equal(loaded.q_hat, calib.q_hat)
        np.testing.assert_array_equal(loaded.counts, calib.counts)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_calibrator(path)
