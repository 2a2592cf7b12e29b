"""Prototype training and argmax-similarity prediction."""

import numpy as np
import pytest

from conformal_hdc.classifier import TrainedModel, prototypes_from_encoded, train_prototypes
from conformal_hdc.encoders import BinaryImageEncoder, IdentityEncoder, TrigramTextEncoder
from conformal_hdc.synthetic import SyntheticConfig, class_centers


def identity_model(feats, labels, kind="inverse_euclidean", style="centroid"):
    enc = IdentityEncoder(p=np.asarray(feats).shape[1])
    return train_prototypes(feats, labels, enc, style, kind)


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

    def test_single_sample_shape_guard(self):
        feats = np.random.default_rng(6).normal(size=(6, 2))
        model = identity_model(feats, [0, 1, 2, 0, 1, 2])
        with pytest.raises(ValueError):
            model.similarity_profile(feats)  # batch passed where sample expected
