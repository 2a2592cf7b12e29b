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

from .hypervectors import SIMILARITY_KINDS, similarity_matrix

__all__ = [
    "PROTOTYPE_STYLES",
    "TrainedModel",
    "check_class_labels",
    "class_sums",
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

_REAL_KINDS = tuple(k for k in SIMILARITY_KINDS if k != "complex_cosine")

#: Similarity kinds that each encoder representation's codes take.
_REPRESENTATION_KINDS = {"bipolar": _REAL_KINDS, "real": _REAL_KINDS, "complex": ("complex_cosine",)}


def _check_similarity_kind(kind: str, representation: str) -> None:
    if kind not in SIMILARITY_KINDS:
        raise ValueError(f"unknown similarity kind {kind!r}; expected one of {SIMILARITY_KINDS}")
    if kind not in _REPRESENTATION_KINDS[representation]:
        raise ValueError(
            f"similarity kind {kind!r} does not fit {representation} codes: "
            "complex codes take 'complex_cosine', and only they do"
        )


#: Bytes of codes in one chunk of rows, at 16 per element (a complex128 code,
#: or an int8 one with its float temporaries).
_CHUNK_BYTES = 8 * 2**20


def _chunk_rows(d: int) -> int:
    """Rows encoded at once by the library and the experiment harness.

    It follows from d alone, so their memory does not grow with the number
    of rows.
    """
    return max(1, _CHUNK_BYTES // (16 * d))


def _as_rows(X):
    """A batch as something to slice by rows, with ``len`` its row count.

    Lists and tuples (of texts, or of samples) are kept. Anything else is
    read as an array; a single sample of numbers becomes a batch of one, as
    ``encode_batch`` reads it. A bare string is not a batch.
    """
    if isinstance(X, str):
        raise TypeError("a batch is a sequence of samples, not one string")
    if isinstance(X, (list, tuple)) and (not X or isinstance(X[0], str) or np.ndim(X[0]) > 0):
        return X
    X = np.asarray(X)
    return X if X.ndim >= 2 or X.dtype.kind in "OSU" else X.reshape(1, -1)


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Encoder plus per-class prototypes and a similarity kind."""

    encoder: object
    prototypes: np.ndarray  # (K, d), dtype determined by the style
    similarity_kind: str
    style: str
    labels: np.ndarray  # original label value for each dense class index

    def __post_init__(self) -> None:
        _check_similarity_kind(self.similarity_kind, self.encoder.representation)
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
        """(n, K) similarities of encoded queries against all prototypes.

        Rows are encoded and profiled ``_chunk_rows(d)`` at a time, so no
        more than one chunk's codes are held at once.
        """
        X = _as_rows(X)
        rows = _chunk_rows(self.encoder.d)
        out = np.empty((len(X), self.n_classes))
        for lo in range(0, max(len(X), 1), rows):  # an empty batch still goes to encode_batch
            codes = self.encoder.encode_batch(X[lo : lo + rows])
            out[lo : lo + rows] = similarity_matrix(codes, self.prototypes, self.similarity_kind)
        return out

    def similarity_profile(self, x) -> np.ndarray:
        """Length-K similarity profile for a single input."""
        return self.similarity_profiles(self._as_batch(x))[0]

    def predict(self, x):
        """Original label of the most similar prototype (ties -> smallest index)."""
        return self.labels[self.predict_indices(self._as_batch(x))[0]]

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


def check_class_labels(labels, n_classes: int | None = None) -> np.ndarray:
    """Labels as 1-d int64 class indices, checked before they index anything.

    Non-integer dtypes raise, as a float label would be truncated to a class;
    so do values below 0, which numpy reads from the end, and values at or
    past ``n_classes`` when it is given.
    """
    arr = np.asarray(labels)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"class labels must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False).reshape(-1)
    if arr.size and (arr.min() < 0 or (n_classes is not None and arr.max() >= n_classes)):
        raise ValueError(f"class labels must lie in range({'K' if n_classes is None else n_classes})")
    return arr


def class_sums(encoded: np.ndarray, dense_labels, n_classes: int):
    """(n_classes, d) sums of each class's encoded rows, and (n_classes,) row counts.

    Sums are complex128 for complex codes and float64 otherwise; sums of
    chunks add up to those of all rows, exactly for bipolar codes.
    """
    encoded = np.asarray(encoded)
    dense = check_class_labels(dense_labels, n_classes)
    if encoded.shape[0] != dense.shape[0]:
        raise ValueError("feature/label counts differ")
    one_hot = np.arange(n_classes)[:, None] == dense
    counts = one_hot.sum(axis=1)
    if encoded.dtype == np.int8 and counts.max(initial=0) < 2**24:
        # every partial sum of +-1 codes is an integer below 2**24, exact in float32
        return (one_hot.astype(np.float32) @ encoded.astype(np.float32)).astype(np.float64), counts
    dtype = np.complex128 if np.iscomplexobj(encoded) else np.float64
    return one_hot.astype(dtype) @ encoded.astype(dtype, copy=False), counts


def prototypes_from_encoded(
    encoded: np.ndarray, dense_labels, n_classes: int, style: str, *, counts=None
) -> np.ndarray:
    """Per-class prototypes from encoded samples, or from their class sums.

    ``dense_labels`` index into ``range(n_classes)``; every class must be
    present. To finalize sums added up chunk by chunk with
    :func:`class_sums`, pass them as ``encoded``, None as ``dense_labels``
    and their ``counts``. The return dtype follows the style (int8
    bipolar, float64 real, complex128).
    """
    if style not in PROTOTYPE_STYLES:
        raise ValueError(f"unknown prototype style {style!r}; expected one of {PROTOTYPE_STYLES}")
    if counts is None:
        sums, counts = class_sums(encoded, dense_labels, n_classes)
    elif dense_labels is not None or len(encoded) != n_classes or np.shape(counts) != (n_classes,):
        raise ValueError(f"class sums take no labels, and {n_classes} rows and counts")
    else:
        sums = np.array(encoded)  # a copy: raw_complex returns it, and the caller may add to the sums
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
    class must contribute at least one sample. Rows are encoded and added
    to the class sums ``_chunk_rows(d)`` at a time.
    """
    representation = getattr(encoder, "representation", None)
    if style not in PROTOTYPE_STYLES:
        raise ValueError(f"unknown prototype style {style!r}; expected one of {PROTOTYPE_STYLES}")
    if representation not in _STYLE_REPRESENTATIONS[style]:
        raise ValueError(
            f"style {style!r} does not accept {representation!r} encoder outputs"
        )
    _check_similarity_kind(similarity_kind, representation)

    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("training data is empty")
    classes, dense = np.unique(labels, return_inverse=True)
    features = _as_rows(features)
    # checked up front: chunks would pair rows with labels only up to the shorter
    if len(features) != dense.shape[0]:
        raise ValueError("feature/label counts differ")
    rows = _chunk_rows(encoder.d)
    sums, counts = 0, 0  # the first += makes them arrays of class_sums's dtypes
    for lo in range(0, len(features), rows):
        codes = encoder.encode_batch(features[lo : lo + rows])
        s, c = class_sums(codes, dense[lo : lo + rows], classes.shape[0])
        sums += s
        counts += c
    prototypes = prototypes_from_encoded(sums, None, classes.shape[0], style, counts=counts)

    return TrainedModel(
        encoder=encoder,
        prototypes=prototypes,
        similarity_kind=similarity_kind,
        style=style,
        labels=classes,
    )
