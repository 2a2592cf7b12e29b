"""Prototype training and argmax-similarity prediction."""

import tracemalloc

import numpy as np
import pytest

from conformal_hdc import classifier
from conformal_hdc.classifier import (
    TrainedModel,
    check_class_labels,
    class_sums,
    prototypes_from_encoded,
    train_prototypes,
)
from conformal_hdc.encoders import BinaryImageEncoder, IdentityEncoder, TemporalFpeEncoder, TrigramTextEncoder
from conformal_hdc.hypervectors import similarity_matrix
from conformal_hdc.synthetic import SyntheticConfig, class_centers


def identity_model(feats, labels, kind="inverse_euclidean", style="centroid"):
    enc = IdentityEncoder(p=np.asarray(feats).shape[1])
    return train_prototypes(feats, labels, enc, style, kind)


def random_texts(rng, n, length=128):
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz "))
    return ["".join(row) for row in rng.choice(letters, size=(n, length))]


class TestTraining:
    def test_singleton_class_binarized_prototype_is_encoding(self):
        enc = BinaryImageEncoder(p=8, d=64, seed=0)
        X = (np.random.default_rng(0).uniform(size=(3, 8)) > 0.5).astype(np.uint8)
        model = train_prototypes(X, [0, 1, 2], enc, "binarized", "cosine_normalized")
        encoded = enc.encode_batch(X)
        np.testing.assert_array_equal(model.prototypes, encoded)

    def test_duplicating_samples_keeps_binarized_prototypes(self):
        enc = BinaryImageEncoder(p=8, d=64, seed=1)
        rng = np.random.default_rng(1)
        X = (rng.uniform(size=(10, 8)) > 0.5).astype(np.uint8)
        y = rng.integers(0, 2, size=10)
        once = train_prototypes(X, y, enc, "binarized", "cosine_normalized")
        thrice = train_prototypes(
            np.concatenate([X, X, X]), np.concatenate([y, y, y]), enc, "binarized", "cosine_normalized"
        )
        np.testing.assert_array_equal(once.prototypes, thrice.prototypes)

    def test_centroid_prototype_is_class_mean(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0], [5.0, 5.0]])
        labels = np.array([0, 0, 0, 1])
        model = identity_model(feats, labels)
        np.testing.assert_allclose(model.prototypes[0], [1.0, 1.0])
        np.testing.assert_allclose(model.prototypes[1], [5.0, 5.0])

    def test_l2_normalized_prototypes_are_unit_vectors(self):
        enc = TrigramTextEncoder(d=64, seed=2)
        texts = ["hello there", "more text here", "one more line"]
        model = train_prototypes(texts, [0, 1, 1], enc, "l2_normalized_real", "cosine_normalized")
        norms = np.linalg.norm(model.prototypes, axis=1)
        np.testing.assert_allclose(norms, 1.0)

    def test_bare_string_is_not_a_batch(self):
        enc = TrigramTextEncoder(d=64, seed=2)
        texts = ["hello there", "more text"]
        model = train_prototypes(texts, [0, 1], enc, "l2_normalized_real", "cosine_normalized")
        with pytest.raises(TypeError):
            model.similarity_profiles("abcabc")  # used to give 6 rows, one per character
        np.testing.assert_array_equal(
            model.similarity_profile("abcabc"), model.similarity_profiles(["abcabc"])[0]
        )

    def test_every_class_needs_a_sample(self):
        with pytest.raises(ValueError):
            prototypes_from_encoded(np.ones((2, 4)), np.array([0, 2]), 3, "centroid")

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_outside_class_range_rejected(self, bad):
        with pytest.raises(ValueError, match="range"):
            prototypes_from_encoded(np.ones((4, 4)), np.array([0, 1, 2, bad]), 3, "centroid")

    @pytest.mark.parametrize("bad", [[0.0, 1.0, 2.0, 1.0], [0.7, 1.2, 2.0, 0.0], [True, False, True, False]])
    def test_non_integer_labels_rejected(self, bad):
        with pytest.raises(ValueError, match="integers"):
            prototypes_from_encoded(np.ones((4, 4)), np.array(bad), 3, "centroid")

    def test_label_check(self):
        np.testing.assert_array_equal(check_class_labels(np.array([[2], [0]], dtype=np.uint8), 3), [2, 0])
        assert check_class_labels([], 3).dtype == np.int64
        with pytest.raises(ValueError, match="range"):
            check_class_labels([0, -1])
        check_class_labels([0, 7])  # no class count: only the lower bound

    def test_bipolar_sums_exact_in_float32(self):
        rng = np.random.default_rng(5)
        labels = np.arange(3000) % 4
        codes = rng.choice(np.array([-1, 1], dtype=np.int8), size=(3000, 50))
        sums, counts = class_sums(codes, labels, 4)
        assert sums.dtype == np.float64
        np.testing.assert_array_equal(counts, [750] * 4)
        want = np.zeros((4, 50), dtype=np.int64)
        np.add.at(want, labels, codes.astype(np.int64))
        np.testing.assert_array_equal(sums, want)

    @pytest.mark.parametrize("style", ["binarized", "l2_normalized_real", "raw_complex", "centroid"])
    def test_chunked_sums_finalize_like_all_rows(self, style):
        rng = np.random.default_rng(6)
        labels = np.concatenate([np.arange(3), rng.integers(0, 3, size=57)])
        if style == "raw_complex":
            codes = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(60, 16)))
        else:
            codes = rng.choice(np.array([-1, 1], dtype=np.int8), size=(60, 16))
        want = prototypes_from_encoded(codes, labels, 3, style)
        sums, counts = 0, 0
        for lo in range(0, 60, 7):
            s, c = class_sums(codes[lo : lo + 7], labels[lo : lo + 7], 3)
            sums += s
            counts += c
        got = prototypes_from_encoded(sums, None, 3, style, counts=counts)
        if style == "raw_complex":  # complex sums in another order
            np.testing.assert_allclose(got, want, rtol=0, atol=60 * np.finfo(float).eps)
            assert not np.shares_memory(got, sums)  # adding to the sums leaves the prototypes
        else:  # integer sums: exact
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_sums_path_checks_its_arguments(self):
        sums, counts = class_sums(np.ones((4, 5)), np.array([0, 1, 1, 0]), 2)
        with pytest.raises(ValueError, match="no labels"):
            prototypes_from_encoded(sums, np.array([0, 1]), 2, "centroid", counts=counts)
        with pytest.raises(ValueError, match="2 rows"):  # one count short
            prototypes_from_encoded(sums, None, 2, "centroid", counts=counts[:1])
        with pytest.raises(ValueError, match="3 rows"):
            prototypes_from_encoded(sums, None, 3, "centroid", counts=counts)
        with pytest.raises(ValueError, match="every class"):
            prototypes_from_encoded(sums, None, 2, "centroid", counts=np.array([4, 0]))

    def test_sums_match_row_by_row_accumulation(self):
        rng = np.random.default_rng(4)
        labels = np.concatenate([np.arange(5), rng.integers(0, 5, size=45)])
        bipolar = rng.choice(np.array([-1, 1], dtype=np.int8), size=(50, 33))
        phases = rng.uniform(0.0, 2 * np.pi, size=(50, 33))
        for encoded, style in ((bipolar, "centroid"), (np.exp(1j * phases), "raw_complex")):
            want = np.zeros((5, 33), dtype=np.result_type(encoded.dtype, np.float64))
            counts = np.zeros(5)
            for row, y in zip(encoded, labels):
                want[y] += row
                counts[y] += 1
            if style == "centroid":
                want = want / counts[:, None]
            got = prototypes_from_encoded(encoded, labels, 5, style)
            if style == "centroid":  # integer sums: exact
                np.testing.assert_array_equal(got, want)
            else:  # complex sums in another order: within rounding
                np.testing.assert_allclose(got, want, rtol=0, atol=50 * 50 * np.finfo(float).eps)

    def test_incompatible_style_rejected(self):
        enc = IdentityEncoder(p=2)
        with pytest.raises(ValueError):
            train_prototypes(np.zeros((2, 2)), [0, 1], enc, "raw_complex", "complex_cosine")

    def test_labels_reindexed_with_mapping(self):
        feats = np.array([[0.0], [10.0], [20.0]])
        model = identity_model(feats, ["red", "green", "blue"])
        assert list(model.labels) == ["blue", "green", "red"]
        assert model.predict(np.array([9.8])) == "green"


class TestPrediction:
    def test_lone_training_sample_has_unit_self_similarity(self):
        enc = BinaryImageEncoder(p=8, d=128, seed=3)
        X = (np.random.default_rng(3).uniform(size=(2, 8)) > 0.5).astype(np.uint8)
        model = train_prototypes(X, [0, 1], enc, "binarized", "cosine_normalized")
        profile = model.similarity_profile(X[0])
        assert profile[0] == 1.0

    def test_equidistant_point_has_equal_entries(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0]])
        model = identity_model(feats, [0, 1])
        profile = model.similarity_profile(np.array([1.0, 5.0]))
        assert profile[0] == pytest.approx(profile[1])

    def test_triangle_center_prefers_own_class(self):
        cfg = SyntheticConfig()
        centers = class_centers(cfg)
        model = identity_model(centers, [0, 1, 2])
        profile = model.similarity_profile(centers[0])
        assert profile[0] > profile[1]
        assert profile[1] == pytest.approx(profile[2])
        assert model.predict(centers[0]) == 0

    def test_tie_breaks_to_smallest_label(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        model = identity_model(feats, [0, 1, 2])
        # equidistant from prototypes 0 and 1, farther from 2
        assert model.predict(np.array([1.0, 0.0])) == 0
        # [1, 1] is exactly sqrt(2) from all three prototypes
        assert model.predict(np.array([1.0, 1.0])) == 0

    def test_prediction_matches_argmax_of_profile(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(30, 3))
        labels = rng.integers(0, 4, size=30)
        if len(np.unique(labels)) < 4:
            labels[:4] = [0, 1, 2, 3]
        model = identity_model(feats, labels)
        for x in rng.normal(size=(20, 3)):
            assert model.predict(x) == model.labels[np.argmax(model.similarity_profile(x))]

    def test_two_class_boundary_is_perpendicular_bisector(self):
        feats = np.array([[-1.0, 0.0], [1.0, 0.0]])
        model = identity_model(feats, [0, 1])
        xs, ys = np.meshgrid(np.linspace(-3, 3, 31), np.linspace(-3, 3, 31))
        grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
        preds = model.predict_indices(grid)
        bisector_side = grid[:, 0] > 0
        on_boundary = grid[:, 0] == 0
        np.testing.assert_array_equal(preds[~on_boundary], bisector_side[~on_boundary].astype(int))
        # exact ties on the bisector go to the smaller label
        assert np.all(preds[on_boundary] == 0)


class TestModelSurface:
    def test_profiles_shape(self):
        feats = np.random.default_rng(5).normal(size=(12, 2))
        labels = np.array([0, 1, 2] * 4)
        model = identity_model(feats, labels)
        assert model.similarity_profiles(feats).shape == (12, 3)
        assert model.n_classes == 3

    @pytest.mark.parametrize(
        "shape", [(3,), (3, 2, 1), (3, 4), (2, 2), (4, 2)], ids=["1d", "3d", "width", "short", "long"]
    )
    def test_prototype_shape_checked(self, shape):
        model = identity_model(np.eye(3, 2), [0, 1, 2])
        with pytest.raises(ValueError, match="prototypes must be"):
            TrainedModel(model.encoder, np.zeros(shape), model.similarity_kind, model.style, model.labels)

    def test_unknown_similarity_kind_rejected(self):
        model = identity_model(np.eye(3, 2), [0, 1, 2])
        with pytest.raises(ValueError, match="unknown similarity kind"):
            TrainedModel(model.encoder, model.prototypes, "dot", model.style, model.labels)

    def test_complex_codes_need_complex_cosine(self):
        # real kinds used to drop the imaginary parts with only a ComplexWarning
        X = np.random.default_rng(7).poisson(2.0, size=(6, 3, 2)).astype(np.float64)
        enc = TemporalFpeEncoder(p=3, d=32, t_max=2, seed=1)
        for kind in ("cosine_normalized", "inverse_euclidean", "hamming_similarity"):
            with pytest.raises(ValueError, match="does not fit complex codes"):
                train_prototypes(X, [0, 1, 2] * 2, enc, "raw_complex", kind)
            # rejected before encoding: rows the encoder would refuse are never read
            with pytest.raises(ValueError, match="does not fit complex codes"):
                train_prototypes(X[:, :2], [0, 1, 2] * 2, enc, "raw_complex", kind)
        assert train_prototypes(X, [0, 1, 2] * 2, enc, "raw_complex", "complex_cosine").n_classes == 3

    @pytest.mark.parametrize("style", ["centroid", "l2_normalized_real"])
    def test_real_codes_reject_complex_cosine(self, style):
        with pytest.raises(ValueError, match="does not fit real codes"):
            identity_model(np.eye(3, 2), [0, 1, 2], kind="complex_cosine", style=style)

    def test_single_sample_shape_guard(self):
        feats = np.random.default_rng(6).normal(size=(6, 2))
        model = identity_model(feats, [0, 1, 2, 0, 1, 2])
        with pytest.raises(ValueError):
            model.similarity_profile(feats)  # batch passed where sample expected


class TestStreaming:
    """train_prototypes and similarity_profiles encode a chunk of rows at a time."""

    @pytest.fixture
    def chunks_of_7(self, monkeypatch):
        monkeypatch.setattr(classifier, "_CHUNK_BYTES", 16 * 64 * 7)  # 7 rows at d = 64

    @pytest.mark.parametrize("style", ["binarized", "l2_normalized_real", "centroid"])
    def test_bipolar_prototypes_equal_one_shot(self, chunks_of_7, style):
        enc = BinaryImageEncoder(p=12, d=64, seed=8)
        rng = np.random.default_rng(8)
        X = (rng.uniform(size=(40, 12)) > 0.5).astype(np.uint8)
        y = np.concatenate([np.arange(3), rng.integers(0, 3, size=37)])
        model = train_prototypes(X, y, enc, style, "cosine_normalized")
        want = prototypes_from_encoded(enc.encode_batch(X), y, 3, style)  # 40 rows, 6 chunks above
        assert model.prototypes.dtype == want.dtype and model.prototypes.tobytes() == want.tobytes()

    def test_profiles_equal_one_shot(self, chunks_of_7):
        enc = TrigramTextEncoder(d=64, seed=9)
        rng = np.random.default_rng(9)
        texts = random_texts(rng, 30, length=20)
        model = train_prototypes(texts, np.arange(30) % 3, enc, "binarized", "cosine_normalized")
        want = similarity_matrix(enc.encode_batch(texts), model.prototypes, "cosine_normalized")
        # bipolar codes and prototypes: integer dots, exact in any chunking
        assert model.similarity_profiles(texts).tobytes() == want.tobytes()
        assert model.similarity_profiles(np.array(texts, dtype=object)).tobytes() == want.tobytes()

    def test_single_sample_of_numbers_is_a_batch_of_one(self, chunks_of_7):
        model = identity_model(np.eye(3, 20), [0, 1, 2])
        row = np.arange(20.0)
        np.testing.assert_array_equal(model.similarity_profiles(row), model.similarity_profiles(row[None]))
        np.testing.assert_array_equal(model.similarity_profiles(list(row)), model.similarity_profiles(row[None]))
        assert model.similarity_profiles(np.zeros((0, 20))).shape == (0, 3)

    @pytest.mark.parametrize("n_features, n_labels", [(7, 8), (14, 15), (15, 14), (0, 3)])
    def test_feature_label_count_mismatch_rejected(self, chunks_of_7, n_features, n_labels):
        enc = BinaryImageEncoder(p=4, d=64, seed=1)
        X = np.ones((n_features, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="feature/label counts differ"):
            train_prototypes(X, np.arange(n_labels) % 2, enc, "binarized", "cosine_normalized")

    def test_bare_string_and_empty_batch_rejected(self, chunks_of_7):
        enc = TrigramTextEncoder(d=64, seed=2)
        with pytest.raises(TypeError):
            train_prototypes("ab", [0, 1], enc, "binarized", "cosine_normalized")
        model = train_prototypes(["hello there", "more text"], [0, 1], enc, "binarized", "cosine_normalized")
        with pytest.raises(ValueError, match="empty batch"):
            model.similarity_profiles([])

    def test_peak_memory_does_not_grow_with_n(self):
        # A chunk at d = 2048 is 256 rows. Encoding every row at once, as the
        # library once did, holds a float64 copy of all codes for the
        # profiles: (1200 - 300) * 2048 * 8 bytes = 14 MiB more at 4n.
        rng = np.random.default_rng(10)
        texts = random_texts(rng, 1200)
        labels = np.arange(1200) % 4
        peaks = []
        for n in (300, 1200):
            enc = TrigramTextEncoder(d=2048, seed=11)
            tracemalloc.start()
            try:
                model = train_prototypes(texts[:n], labels[:n], enc, "l2_normalized_real", "cosine_normalized")
                model.similarity_profiles(texts[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2 * 2**20, peaks
