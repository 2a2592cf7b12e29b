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

Calibration selects the ceil((1 - alpha) * (1 + n))-th smallest of a
stratum's n scores on a holdout set: the whole set is one stratum for
marginal coverage, and each label's share is one for label-conditional
coverage. When the index exceeds the stratum size the threshold is +inf
and every label is included, which preserves the coverage guarantee in
tiny-calibration regimes.

Prediction sets keep the labels whose score is at or below the governing
threshold; the point-valued variant trims multi-label sets to the argmin
score and optionally resolves empty sets to the overall argmin.
``predict_sets`` does this for a batch; the single-input functions are
batch-of-one calls into the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .classifier import check_class_labels

__all__ = [
    "SCORE_KINDS",
    "Calibrator",
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
    return _softmax_in_place(np.array(z, dtype=np.float64), axis)


def _softmax_in_place(e: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of the float64 array ``e`` along ``axis``, written over ``e``."""
    e -= e.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


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

    pi = _softmax_in_place(profiles / temperature, axis=1)
    # Stable argsort on -pi orders each row by descending probability with
    # ties broken toward the smaller label index.
    order = np.argsort(-pi, axis=1, kind="stable")
    # In rank order, each label's mass through its rank less u times its
    # own, then put back in label order. Each step writes over a buffer
    # that is done with, so at most three arrays of the profiles' shape
    # are live; the arithmetic is that of the label-order formula.
    ranked = np.take_along_axis(pi, order, axis=1)
    scores = np.cumsum(ranked, axis=1, out=pi)
    ranked *= u[:, None]
    scores -= ranked
    np.put_along_axis(ranked, order, scores, axis=1)
    return np.negative(ranked, out=ranked)


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


def quantile_index(n, alpha: float):
    """1-based order statistic ceil((1 - alpha) * (1 + n)), for an int or an array of counts.

    The product is snapped to the nearest integer when it sits within
    floating-point noise of one, so decimal alphas like 0.1 select the
    index exact rational arithmetic would. It never snaps to 0: the
    product is positive, so the index is at least 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n = np.asarray(n, dtype=np.int64)
    target = (1.0 - alpha) * (n + 1)
    nearest = np.round(target)
    snap = (nearest >= 1) & (np.abs(target - nearest) <= 1e-9 * (n + 1))
    k = np.where(snap, nearest, np.ceil(target)).astype(np.int64)
    return int(k) if k.ndim == 0 else k


@dataclass(frozen=True, eq=False)
class Calibrator:
    """Empirical-quantile thresholds ``q_hat``: (...) shared by all labels, or (..., K) ``per_label``.

    Leading axes index separate calibrations, so one shared threshold is
    0-d. ``counts`` holds the calibration scores behind each threshold.
    Calibrators compare and hash by identity: their fields are arrays.
    """

    q_hat: np.ndarray
    alpha: float
    counts: np.ndarray
    per_label: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "q_hat", np.asarray(self.q_hat, dtype=np.float64))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))

    def thresholds(self, n_classes: int) -> np.ndarray:
        """(..., K) thresholds: the shared one repeated for every label, or the per-label ones."""
        if not self.per_label:
            return np.full(self.q_hat.shape + (n_classes,), self.q_hat[..., None])
        if n_classes != self.q_hat.shape[-1]:
            raise ValueError("calibrator was built for a different class count")
        return self.q_hat


def _finite_scores(cal_scores) -> np.ndarray:
    # a NaN would sort past every score and shift the order statistic
    scores = np.atleast_1d(np.asarray(cal_scores, dtype=np.float64))
    if not np.isfinite(scores).all():
        raise ValueError("calibration scores contain NaN or infinite values")
    return scores


def _calibrate(scores: np.ndarray, counts: np.ndarray, alpha: float, per_label: bool) -> Calibrator:
    """Threshold each row of ``scores`` (..., n) at its quantile_index(count, alpha)-th smallest.

    A row holds its stratum's ``counts`` (...) scores and +inf elsewhere.
    One more +inf past its end makes an index past the count give +inf.
    """
    k = np.asarray(quantile_index(counts, alpha))
    padded = np.concatenate([scores, np.full(scores.shape[:-1] + (1,), np.inf)], axis=-1)
    ordered = np.sort(padded, axis=-1)
    q_hat = np.take_along_axis(ordered, k[..., None] - 1, axis=-1)[..., 0]
    return Calibrator(q_hat=q_hat, alpha=alpha, counts=counts, per_label=per_label)


def calibrate_marginal(cal_scores, alpha: float) -> Calibrator:
    """Threshold at the ceil((1-alpha)(1+n))-th smallest of n calibration scores.

    ``cal_scores`` is (n,), or (..., n) for one calibration per row.
    Duplicate scores count with multiplicity; when the index exceeds ``n``
    the threshold is +inf (every label will be included).
    """
    scores = _finite_scores(cal_scores)
    if scores.shape[-1] == 0:
        raise ValueError("calibration set must be nonempty")
    return _calibrate(scores, np.full(scores.shape[:-1], scores.shape[-1]), alpha, per_label=False)


def calibrate_conditional(cal_scores, cal_labels, alpha: float, n_classes: int) -> Calibrator:
    """Marginal calibration applied within each label stratum.

    Scores and labels are (n,), or (..., n) for one calibration per row;
    the thresholds are (..., K). Labels absent from the calibration set get
    a +inf threshold.
    """
    scores = _finite_scores(cal_scores)
    labels = np.asarray(cal_labels)
    labels = check_class_labels(labels, n_classes).reshape(labels.shape)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    # (..., K, n): each label's row keeps its stratum's scores and masks the rest
    member = labels[..., None, :] == np.arange(n_classes)[:, None]
    strata = np.where(member, scores[..., None, :], np.inf)
    return _calibrate(strata, member.sum(axis=-1), alpha, per_label=True)


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


def _score_one(model, x, kind: str, lam: float, temperature: float, u) -> np.ndarray:
    """(1, K) scores of one input, profiled and scored as a batch of one."""
    profiles = model.similarity_profiles(model._as_batch(x))
    u = None if u is None else np.array([u], dtype=np.float64)
    return score_matrix(profiles, kind, lam=lam, temperature=temperature, u=u)


def _predict_one(model, calibrator, x, kind: str, lam: float, temperature: float, u):
    """One input's (1, K) inclusion and scores, as :func:`predict_sets` gives a batch's."""
    scores = _score_one(model, x, kind, lam, temperature, u)
    return sets_from_scores(scores, calibrator.thresholds(scores.shape[1])), scores


def predict_set_marginal(
    model,
    calibrator: Calibrator,
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
    calibrator: Calibrator,
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
    return float(ood_scores(_score_one(model, x, kind, lam, temperature, u))[0])
