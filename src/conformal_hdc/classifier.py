"""Prototype construction and argmax-similarity classification.

A trained model holds one prototype per class, built by summing the
encodings of that class's training samples and finalizing per style:

* ``binarized``: sign of the sum (bipolar prototypes);
* ``l2_normalized_real``: the real sum divided by its L2 norm;
* ``raw_complex``: the unnormalized complex accumulation;
* ``centroid``: the sum divided by the class count (feature-space mean,
  used with the identity encoder so inverse Euclidean similarity measures
  distance to cluster centers).

Prediction picks the most similar prototype; ties break toward the
smallest class index. Models are immutable after training and safe to
query concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hypervectors import similarity_matrix

__all__ = [
    "PROTOTYPE_STYLES",
    "TrainedModel",
    "prototypes_from_encoded",
    "train_prototypes",
]

PROTOTYPE_STYLES = ("binarized", "l2_normalized_real", "raw_complex", "centroid")

_STYLE_REPRESENTATIONS = {
    "binarized": ("bipolar",),
    "l2_normalized_real": ("bipolar", "real"),
    "centroid": ("bipolar", "real"),
    "raw_complex": ("complex",),
}


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Encoder plus per-class prototypes and a similarity kind."""

    encoder: object
    prototypes: np.ndarray  # (K, d), dtype determined by the style
    similarity_kind: str
    style: str
    labels: np.ndarray  # original label value for each dense class index

    def __post_init__(self) -> None:
        shape = self.prototypes.shape
        if len(shape) != 2 or shape[1] != self.encoder.d or shape[0] != len(self.labels):
            raise ValueError(
                f"prototypes must be ({len(self.labels)}, {self.encoder.d}) for "
                f"{len(self.labels)} labels and d={self.encoder.d}, got shape {shape}"
            )
        self.prototypes.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n_classes(self) -> int:
        return self.prototypes.shape[0]

    def similarity_profiles(self, X) -> np.ndarray:
        """(n, K) similarities of encoded queries against all prototypes."""
        encoded = self.encoder.encode_batch(X)
        return similarity_matrix(encoded, self.prototypes, self.similarity_kind)

    def similarity_profile(self, x) -> np.ndarray:
        """Length-K similarity profile for a single input."""
        return self.similarity_profiles(self._as_batch(x))[0]

    def predict_index(self, x) -> int:
        """Dense class index of the most similar prototype."""
        return int(np.argmax(self.similarity_profile(x)))

    def predict(self, x):
        """Original label of the most similar prototype (ties -> smallest index)."""
        return self.labels[self.predict_index(x)]

    def predict_indices(self, X) -> np.ndarray:
        return np.argmax(self.similarity_profiles(X), axis=1)

    def _as_batch(self, x):
        if isinstance(x, str):
            return [x]
        arr = np.asarray(x)
        sample_ndim = getattr(self.encoder, "sample_ndim", 1)
        if arr.ndim != sample_ndim:
            raise ValueError(
                f"expected a single {sample_ndim}-d sample, got shape {arr.shape}"
            )
        return arr[None, ...]


def prototypes_from_encoded(
    encoded: np.ndarray, dense_labels: np.ndarray, n_classes: int, style: str
) -> np.ndarray:
    """Per-class prototypes from already-encoded samples.

    ``dense_labels`` index into ``range(n_classes)``; every class must be
    present. The return dtype follows the style (int8 bipolar, float64
    real, complex128).
    """
    if style not in PROTOTYPE_STYLES:
        raise ValueError(f"unknown prototype style {style!r}; expected one of {PROTOTYPE_STYLES}")
    encoded = np.asarray(encoded)
    dense = np.asarray(dense_labels, dtype=np.int64)
    if encoded.shape[0] != dense.shape[0]:
        raise ValueError("feature/label counts differ")
    if encoded.shape[0] == 0:
        raise ValueError("training data is empty")
    if dense.min() < 0 or dense.max() >= n_classes:
        raise ValueError(f"dense labels must lie in range({n_classes})")

    sums_dtype = np.complex128 if np.iscomplexobj(encoded) else np.float64
    one_hot = np.arange(n_classes)[:, None] == dense
    sums = one_hot.astype(sums_dtype) @ encoded.astype(sums_dtype, copy=False)
    counts = one_hot.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("every class needs at least one training sample")

    if style == "binarized":
        return np.where(sums.real >= 0, 1, -1).astype(np.int8)
    if style == "l2_normalized_real":
        norms = np.linalg.norm(sums.real, axis=1, keepdims=True)
        return sums.real / np.where(norms > 0.0, norms, 1.0)
    if style == "centroid":
        return sums.real / counts[:, None]
    return sums  # raw_complex


def train_prototypes(
    features,
    labels: Sequence,
    encoder,
    style: str,
    similarity_kind: str,
) -> TrainedModel:
    """Build per-class prototypes from encoded training samples.

    Labels may take arbitrary values; they are re-indexed to a dense range
    internally, with the sorted original values kept for reporting. Every
    class must contribute at least one sample.
    """
    representation = getattr(encoder, "representation", None)
    if style not in PROTOTYPE_STYLES:
        raise ValueError(f"unknown prototype style {style!r}; expected one of {PROTOTYPE_STYLES}")
    if representation not in _STYLE_REPRESENTATIONS[style]:
        raise ValueError(
            f"style {style!r} does not accept {representation!r} encoder outputs"
        )

    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("training data is empty")
    classes, dense = np.unique(labels, return_inverse=True)
    encoded = encoder.encode_batch(features)
    prototypes = prototypes_from_encoded(encoded, dense, classes.shape[0], style)

    return TrainedModel(
        encoder=encoder,
        prototypes=prototypes,
        similarity_kind=similarity_kind,
        style=style,
        labels=classes,
    )
