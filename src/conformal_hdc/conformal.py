"""Nonconformity scores, calibration quantiles, and prediction sets.

Scores take a length-K similarity profile ``delta`` (all entries finite
and >= 0) and a candidate label ``y``; smaller values mean the input
conforms better:

* ``similarity``: ``-delta_y``;
* ``ratio``: ``-delta_y / sum(delta)``, and 0 (its supremum) when
  ``sum(delta)`` is 0;
* ``discount``: ``-(delta_y / sum(delta)) * delta_y``, likewise 0 on an
  all-zero profile;
* ``penalized``: ``-delta_y + lam * sum_{k != y} delta_k``;
* ``inverse_quantile``: softmax the profile, accumulate probabilities from
  the largest down through the candidate's rank, subtract ``u`` times the
  candidate's probability, and negate.

Calibration selects the ceil((1 - alpha) * (1 + n))-th smallest score on a
holdout set, either globally (marginal coverage) or within each label
stratum (label-conditional coverage). When the index exceeds the stratum
size the threshold is +inf and every label is included, which preserves
the coverage guarantee in tiny-calibration regimes.

Prediction sets keep the labels whose score is at or below the governing
threshold; the point-valued variant trims multi-label sets to the argmin
score and optionally resolves empty sets to the overall argmin.
``predict_sets`` does this for a batch; the single-input functions are
batch-of-one calls into the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .classifier import check_class_labels

__all__ = [
    "SCORE_KINDS",
    "ConditionalCalibrator",
    "MarginalCalibrator",
    "PredictionSet",
    "calibrate_conditional",
    "calibrate_marginal",
    "calibration_scores",
    "ood_score",
    "ood_scores",
    "point_labels_from_sets",
    "predict_point",
    "predict_set_conditional",
    "predict_set_marginal",
    "predict_sets",
    "quantile_index",
    "score_matrix",
    "sets_from_scores",
    "softmax",
]

SCORE_KINDS = ("similarity", "ratio", "discount", "penalized", "inverse_quantile")


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _check_profiles(profiles: np.ndarray) -> np.ndarray:
    profiles = np.atleast_2d(np.asarray(profiles, dtype=np.float64))
    if not np.isfinite(profiles).all():
        raise ValueError("similarity profiles contain NaN or infinite values")
    if (profiles < 0.0).any():
        raise ValueError("similarity profiles must be nonnegative")
    return profiles


def score_matrix(
    profiles: np.ndarray,
    kind: str,
    *,
    lam: float = 0.5,
    temperature: float = 1.0,
    u: np.ndarray | None = None,
) -> np.ndarray:
    """Nonconformity of every label for every profile row.

    ``profiles`` is (n, K); the result is (n, K). The randomized
    ``inverse_quantile`` kind needs one uniform draw per row in ``u``.
    """
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}; expected one of {SCORE_KINDS}")
    profiles = _check_profiles(profiles)
    if kind == "similarity":
        return -profiles
    if kind in ("ratio", "discount"):
        # An all-zero profile conforms to no class: its shares are 0, the
        # supremum of both scores, so it gets the empty set.
        totals = profiles.sum(axis=1, keepdims=True)
        shares = profiles / np.where(totals > 0.0, totals, 1.0)
        return -shares if kind == "ratio" else -shares * profiles
    if kind == "penalized":
        if lam < 0.0:
            raise ValueError(f"penalized score needs lam >= 0, got {lam}")
        totals = profiles.sum(axis=1, keepdims=True)
        return -profiles + lam * (totals - profiles)
    return _inverse_quantile_matrix(profiles, u, temperature)


def _inverse_quantile_matrix(
    profiles: np.ndarray, u: np.ndarray | None, temperature: float
) -> np.ndarray:
    if temperature <= 0.0:
        raise ValueError(f"softmax temperature must be > 0, got {temperature}")
    if u is None:
        raise ValueError("inverse_quantile scoring needs one uniform draw per sample")
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    if u.shape[0] != profiles.shape[0]:
        raise ValueError("need exactly one uniform draw per profile row")
    if ((u < 0.0) | (u > 1.0)).any():
        raise ValueError("uniform draws must lie in [0, 1]")

    pi = softmax(profiles / temperature, axis=1)
    # Stable argsort on -pi orders each row by descending probability with
    # ties broken toward the smaller label index.
    order = np.argsort(-pi, axis=1, kind="stable")
    cumulative = np.cumsum(np.take_along_axis(pi, order, axis=1), axis=1)
    # each label's mass through its rank: the cumulative sums put back in label order
    scores = np.empty_like(pi)
    np.put_along_axis(scores, order, cumulative, axis=1)
    scores -= u[:, None] * pi
    return np.negative(scores, out=scores)


def calibration_scores(
    profiles: np.ndarray,
    labels: np.ndarray,
    kind: str,
    *,
    lam: float = 0.5,
    temperature: float = 1.0,
    u: np.ndarray | None = None,
) -> np.ndarray:
    """Score of each sample's true label, one value per calibration point."""
    matrix = score_matrix(profiles, kind, lam=lam, temperature=temperature, u=u)
    labels = check_class_labels(labels, matrix.shape[1])
    if labels.shape[0] != matrix.shape[0]:
        raise ValueError("profiles and labels must have equal length")
    return matrix[np.arange(matrix.shape[0]), labels]


def quantile_index(n: int, alpha: float) -> int:
    """1-based order statistic ceil((1 - alpha) * (1 + n)).

    The product is snapped to the nearest integer when it sits within
    floating-point noise of one, so decimal alphas like 0.1 select the
    index exact rational arithmetic would. It never snaps to 0: the
    product is positive, so the index is at least 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    target = (1.0 - alpha) * (n + 1)
    nearest = round(target)
    if nearest >= 1 and abs(target - nearest) <= 1e-9 * (n + 1):
        return int(nearest)
    return int(math.ceil(target))


@dataclass(frozen=True)
class MarginalCalibrator:
    """Single empirical-quantile threshold shared by all labels."""

    q_hat: float
    alpha: float
    n_cal: int

    def thresholds(self, n_classes: int) -> np.ndarray:
        return np.full(n_classes, self.q_hat)


@dataclass(frozen=True)
class ConditionalCalibrator:
    """One empirical-quantile threshold per label stratum."""

    q_hat_per_label: np.ndarray
    alpha: float
    counts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "q_hat_per_label", np.asarray(self.q_hat_per_label, dtype=np.float64)
        )
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))

    def thresholds(self, n_classes: int) -> np.ndarray:
        if n_classes != self.q_hat_per_label.shape[0]:
            raise ValueError("calibrator was built for a different class count")
        return self.q_hat_per_label


def _select_kth_smallest(scores: np.ndarray, k: int) -> float:
    if k > scores.shape[0]:
        return float("inf")
    return float(np.partition(scores, k - 1)[k - 1])


def _finite_scores(cal_scores) -> np.ndarray:
    # a NaN would sort past every score and shift the order statistic
    scores = np.asarray(cal_scores, dtype=np.float64).reshape(-1)
    if not np.isfinite(scores).all():
        raise ValueError("calibration scores contain NaN or infinite values")
    return scores


def calibrate_marginal(cal_scores, alpha: float) -> MarginalCalibrator:
    """Threshold at the ceil((1-alpha)(1+n))-th smallest calibration score.

    Duplicate scores count with multiplicity; when the index exceeds ``n``
    the threshold is +inf (every label will be included).
    """
    scores = _finite_scores(cal_scores)
    if scores.shape[0] == 0:
        raise ValueError("calibration set must be nonempty")
    k = quantile_index(scores.shape[0], alpha)
    return MarginalCalibrator(q_hat=_select_kth_smallest(scores, k), alpha=alpha, n_cal=scores.shape[0])


def calibrate_conditional(cal_scores, cal_labels, alpha: float, n_classes: int) -> ConditionalCalibrator:
    """Marginal calibration applied within each label stratum.

    Labels absent from the calibration set get a +inf threshold.
    """
    scores = _finite_scores(cal_scores)
    labels = check_class_labels(cal_labels, n_classes)
    if scores.shape[0] != labels.shape[0]:
        raise ValueError("scores and labels must have equal length")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    thresholds = np.full(n_classes, np.inf)
    counts = np.zeros(n_classes, dtype=np.int64)
    for y in range(n_classes):
        stratum = scores[labels == y]
        counts[y] = stratum.shape[0]
        if stratum.shape[0] > 0:
            thresholds[y] = _select_kth_smallest(stratum, quantile_index(stratum.shape[0], alpha))
    return ConditionalCalibrator(q_hat_per_label=thresholds, alpha=alpha, counts=counts)


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """A (possibly empty) subset of dense class indices with its scores."""

    labels: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))

    def __len__(self) -> int:
        return self.labels.shape[0]

    def __contains__(self, label) -> bool:
        return bool(np.isin(label, self.labels))


def sets_from_scores(scores: np.ndarray, thresholds) -> np.ndarray:
    """Boolean inclusion: label k enters row i iff scores[..., i, k] <= thresholds[..., k].

    ``scores`` is (..., n, K) and ``thresholds`` a scalar or (..., K), so
    one call serves a batch of score matrices, each with its thresholds.
    """
    scores = np.atleast_2d(scores)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.ndim == 0:
        return scores <= thresholds
    if thresholds.shape[-1] != scores.shape[-1]:
        raise ValueError(
            f"thresholds need one entry per class ({scores.shape[-1]}) on their last axis, "
            f"got shape {thresholds.shape}"
        )
    return scores <= thresholds[..., None, :]


def point_labels_from_sets(
    include: np.ndarray, scores: np.ndarray, allow_empty: bool
) -> np.ndarray:
    """Trim each row's set to the argmin-score member; -1 marks abstention.

    ``include`` and ``scores`` are (..., n, K) of one shape; the result is
    (..., n). Rows with an empty set either stay empty (-1) or fall back to
    the overall argmin score when ``allow_empty`` is false. Ties break
    toward the smallest label index.
    """
    include = np.atleast_2d(include)
    scores = np.atleast_2d(scores)
    if include.shape != scores.shape:
        raise ValueError(f"include {include.shape} and scores {scores.shape} differ in shape")
    masked = np.where(include, scores, np.inf)
    picks = np.argmin(masked, axis=-1)
    empty = ~include.any(axis=-1)
    if allow_empty:
        picks = np.where(empty, -1, picks)
    else:
        fallback = np.argmin(scores, axis=-1)
        picks = np.where(empty, fallback, picks)
    return picks


def predict_sets(
    model,
    calibrator,
    X,
    kind: str,
    *,
    lam: float = 0.5,
    temperature: float = 1.0,
    u: np.ndarray | None = None,
):
    """Prediction sets of a batch: the (n, K) inclusion matrix and (n, K) scores.

    Label k enters row i's set iff its score is at or below
    ``calibrator.thresholds(K)[k]``, so one call serves the marginal and
    the label-conditional calibrator. The randomized ``inverse_quantile``
    kind needs one uniform draw per row in ``u``.
    """
    profiles = model.similarity_profiles(X)
    scores = score_matrix(profiles, kind, lam=lam, temperature=temperature, u=u)
    return sets_from_scores(scores, calibrator.thresholds(scores.shape[1])), scores


def _draw(u: float | None):
    """One input's uniform draw as the array of one that the batch code takes."""
    return None if u is None else np.array([u], dtype=np.float64)


def _predict_one(model, calibrator, x, kind: str, lam: float, temperature: float, u):
    """:func:`predict_sets` on ``x`` as a batch of one: its (1, K) inclusion and scores."""
    X = model._as_batch(x)
    return predict_sets(model, calibrator, X, kind, lam=lam, temperature=temperature, u=_draw(u))


def predict_set_marginal(
    model,
    calibrator: MarginalCalibrator,
    x,
    kind: str,
    *,
    lam: float = 0.5,
    temperature: float = 1.0,
    u: float | None = None,
) -> PredictionSet:
    """Labels of one input whose nonconformity is at or below the marginal threshold."""
    include, scores = _predict_one(model, calibrator, x, kind, lam, temperature, u)
    return PredictionSet(labels=np.flatnonzero(include[0]), scores=scores[0])


def predict_set_conditional(
    model,
    calibrator: ConditionalCalibrator,
    x,
    kind: str,
    *,
    lam: float = 0.5,
    temperature: float = 1.0,
    u: float | None = None,
) -> PredictionSet:
    """Labels of one input whose nonconformity is at or below their per-label threshold."""
    include, scores = _predict_one(model, calibrator, x, kind, lam, temperature, u)
    return PredictionSet(labels=np.flatnonzero(include[0]), scores=scores[0])


def predict_point(
    model,
    calibrator,
    x,
    kind: str,
    allow_empty: bool,
    *,
    lam: float = 0.5,
    temperature: float = 1.0,
    u: float | None = None,
) -> PredictionSet:
    """Trimmed prediction for one input: a singleton, or the empty set when allowed.

    The set goes through :func:`point_labels_from_sets`: a multi-label set
    keeps only the member with the smallest score; an empty set stays empty
    when ``allow_empty`` is set and otherwise falls back to the overall
    argmin score.
    """
    include, scores = _predict_one(model, calibrator, x, kind, lam, temperature, u)
    pick = point_labels_from_sets(include, scores, allow_empty)[0]
    return PredictionSet(labels=[] if pick < 0 else [pick], scores=scores[0])


def ood_scores(score_mat: np.ndarray) -> np.ndarray:
    """Per-row anomaly statistic: the minimum score over all labels.

    Larger values mean no class conforms; abstention triggers exactly when
    this minimum exceeds every governing threshold. ``score_mat`` is
    (..., n, K); the result is (..., n).
    """
    return np.atleast_2d(score_mat).min(axis=-1)


def ood_score(
    model,
    x,
    kind: str,
    *,
    lam: float = 0.5,
    temperature: float = 1.0,
    u: float | None = None,
) -> float:
    """Anomaly statistic for one input: min over labels of its score."""
    profile = model.similarity_profile(x)
    return float(ood_scores(score_matrix(profile, kind, lam=lam, temperature=temperature, u=_draw(u)))[0])
