"""Experiment harness: splitting, metrics, and repeated evaluations.

A repetition draws (or re-splits) data, trains the conformal model on the
train fold only, calibrates on the calibration fold, and evaluates on the
test fold plus an out-of-distribution pool. The standard classifier
baseline trains on train + calibration combined, since it needs no
holdout. Repetition seeds derive from (master seed, repetition index), so
results are independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import datasets as _datasets
from .classifier import _chunk_rows, check_class_labels, class_sums, prototypes_from_encoded
from .conformal import (
    SCORE_KINDS,
    calibrate_conditional,
    calibrate_marginal,
    ood_scores,
    point_labels_from_sets,
    score_matrix,
    sets_from_scores,
)
from .encoders import (
    BinaryImageEncoder,
    IdentityEncoder,
    QuantizedFeatureEncoder,
    TemporalFpeEncoder,
    TrigramTextEncoder,
)
from .hypervectors import similarity_matrix
from .synthetic import SyntheticConfig, generate_synthetic

__all__ = [
    "DEFAULT_FRACTIONS",
    "DEFAULT_OOD_HOLDOUT",
    "ExperimentConfig",
    "ExperimentResult",
    "MethodMetrics",
    "SplitSpec",
    "average_set_size",
    "empirical_coverage",
    "ood_auc",
    "point_accuracy",
    "run_experiment",
    "split_data",
]

# train / calibration / test fractions used by each benchmark
DEFAULT_FRACTIONS = {
    "synthetic": (0.40, 0.50, 0.10),
    "mnist": (0.80, 0.15, 0.05),
    "languages": (0.75, 0.225, 0.025),
    "isolet": (0.57, 0.38, 0.05),
    "spike_surrogate": (0.50, 0.40, 0.10),
}

DEFAULT_OOD_HOLDOUT = {
    "synthetic": (),
    "mnist": ("6", "7", "8", "9"),
    "isolet": ("W", "X", "Y", "Z"),
    "languages": ("Finnish", "Estonian", "Hungarian"),
    "spike_surrogate": ("run",),
}

DATASETS = tuple(DEFAULT_FRACTIONS)

METHOD_HDC = "hdc"


@dataclass(frozen=True)
class SplitSpec:
    """Fractions for train/calibration/test plus the shuffling seed."""

    fractions: Tuple[float, float, float]
    seed: object = 0

    def __post_init__(self) -> None:
        fr = tuple(float(f) for f in self.fractions)
        if len(fr) != 3 or any(f <= 0.0 for f in fr):
            raise ValueError(f"fractions must be three positive numbers, got {self.fractions}")
        if abs(sum(fr) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {self.fractions}")
        object.__setattr__(self, "fractions", fr)


def split_data(n_samples: int, spec: SplitSpec):
    """Random disjoint partition into (train, cal, test) index arrays.

    Non-train folds get floor(fraction * n) samples, bumped to at least one
    each; rounding remainders go to train. Any empty fold is an error.
    """
    if n_samples < 3:
        raise ValueError(f"need at least 3 samples to split, got {n_samples}")
    _, f_cal, f_test = spec.fractions
    n_cal = max(1, int(np.floor(f_cal * n_samples)))
    n_test = max(1, int(np.floor(f_test * n_samples)))
    n_train = n_samples - n_cal - n_test
    if n_train < 1:
        raise ValueError(
            f"fractions {spec.fractions} leave no training samples for n={n_samples}"
        )
    perm = np.random.default_rng(spec.seed).permutation(n_samples)
    return (
        perm[:n_train],
        perm[n_train : n_train + n_cal],
        perm[n_train + n_cal :],
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _leading(values: np.ndarray):
    """A float for a 0-d result, the array for a result with leading axes."""
    return float(values) if values.ndim == 0 else values


def _inclusion(include) -> np.ndarray:
    include = np.asarray(include)
    if include.dtype != bool or include.ndim < 2:
        raise ValueError(
            f"expected an (..., n, K) boolean inclusion matrix, got {include.dtype} {include.shape}"
        )
    if include.shape[-2] == 0:
        raise ValueError("need at least one prediction set")
    return include


def empirical_coverage(include, labels):
    """Fraction of samples whose true label is in their prediction set.

    ``include`` is an (..., n, K) boolean inclusion matrix, as
    ``sets_from_scores`` gives, and ``labels`` the n true labels in
    range(K); the result is a float, or one value per leading index.
    """
    include = _inclusion(include)
    labels = check_class_labels(labels, include.shape[-1])
    if include.shape[-2] != labels.shape[0]:
        raise ValueError("sets and labels must have equal length")
    return _leading(include[..., np.arange(labels.shape[0]), labels].mean(axis=-1))


def average_set_size(include):
    """Mean cardinality of the prediction sets of an (..., n, K) inclusion matrix."""
    return _leading(_inclusion(include).sum(axis=-1).mean(axis=-1))


def point_accuracy(picks, labels, count_empty_as_error: bool = True):
    """Fraction correct among point predictions.

    ``picks`` are (..., n) class indices as ``point_labels_from_sets``
    gives, with -1 for an abstention. Abstentions count as errors when the
    flag is set (the default on inlier test data) and are skipped otherwise.
    """
    picks = np.asarray(picks)
    if picks.size and not np.issubdtype(picks.dtype, np.integer):
        raise ValueError(f"point predictions must be integer labels, got dtype {picks.dtype}")
    if picks.size and picks.min() < -1:
        raise ValueError("point predictions must be class indices, or -1 for an abstention")
    labels = check_class_labels(labels)
    if picks.ndim < 1 or picks.shape[-1] != labels.shape[0]:
        raise ValueError("predictions and labels must have equal length")
    graded = np.ones(picks.shape, dtype=bool) if count_empty_as_error else picks >= 0
    considered = graded.sum(axis=-1)
    if (considered == 0).any():
        raise ValueError("no predictions left to grade")
    return _leading((picks == labels).sum(axis=-1) / considered)


def ood_auc(inlier_scores, ood_scores_):
    """Exact pairwise P(ood > inlier) + 0.5 * P(tie) via midranks.

    Ranks along the last axis: inlier scores (..., n_in) and OOD scores
    (..., n_ood) with the same leading axes give one AUC per leading index
    (a float for 1-D inputs). Ranking takes one sort along that axis, and
    tied values share their midrank. The OOD rank sum is half an integer
    sum, so the Mann-Whitney count is exact.
    """
    inl = np.atleast_1d(np.asarray(inlier_scores, dtype=np.float64))
    ood = np.atleast_1d(np.asarray(ood_scores_, dtype=np.float64))
    if inl.shape[:-1] != ood.shape[:-1]:
        raise ValueError(f"inlier {inl.shape} and OOD {ood.shape} scores differ in their leading axes")
    n_in, n_ood = inl.shape[-1], ood.shape[-1]
    if n_in == 0 or n_ood == 0:
        raise ValueError("both score lists must be nonempty")
    if not (np.isfinite(inl).all() and np.isfinite(ood).all()):
        raise ValueError("OOD AUC scores contain NaN or infinite values")
    combined = np.concatenate([inl, ood], axis=-1)
    order = np.argsort(combined, axis=-1)
    ranked = np.take_along_axis(combined, order, axis=-1)
    is_ood = order >= n_in
    # A run of ties at 0-based sorted positions first..last shares the
    # midrank (first + last) / 2 + 1; sum first and last over the OOD values.
    starts = np.ones(ranked.shape, dtype=bool)
    starts[..., 1:] = ranked[..., 1:] != ranked[..., :-1]
    pos = np.arange(n_in + n_ood)
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    last = np.where(np.roll(starts, -1, axis=-1), pos, n_in + n_ood)
    last = np.minimum.accumulate(last[..., ::-1], axis=-1)[..., ::-1]
    rank_sum = (first.sum(axis=-1, where=is_ood) + last.sum(axis=-1, where=is_ood)) / 2.0 + n_ood
    auc = (rank_sum - n_ood * (n_ood + 1) / 2.0) / (n_in * n_ood)
    return _leading(auc)


# ---------------------------------------------------------------------------
# Experiment configuration and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = "synthetic"
    alpha: float = 0.1
    d: int = 10_000
    score_kinds: Tuple[str, ...] = SCORE_KINDS
    repetitions: int = 100
    seed: int = 0
    fractions: Tuple[float, float, float] | None = None
    ood_holdout: Tuple[str, ...] | None = None
    lam: float = 0.5
    temperature: float = 1.0
    conditional: bool = False
    levels: int = 21
    beta: float = 0.3
    # synthetic generator
    sigma3: float = 4.0
    n_per_class: Tuple[int, int, int] = (334, 333, 333)
    n_ood: int = 500
    # spike-rate surrogate generator
    spike_classes: int = 4
    spike_neurons: int = 30
    spike_bins: int = 8
    spike_per_class: int = 150
    spike_ood: int = 150
    spike_rate_scale: float = 1.2

    def validate(self) -> None:
        if self.dataset not in DATASETS:
            raise ValueError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        unknown = [k for k in self.score_kinds if k not in SCORE_KINDS]
        if unknown:
            raise ValueError(f"unknown score kinds {unknown}; expected a subset of {SCORE_KINDS}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.fractions is not None:
            SplitSpec(self.fractions)  # reuse its validation
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        for name in ("spike_classes", "spike_neurons", "spike_bins", "spike_per_class", "spike_ood"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (np.isfinite(self.spike_rate_scale) and self.spike_rate_scale > 0.0):
            raise ValueError(f"spike_rate_scale must be finite and > 0, got {self.spike_rate_scale}")

    def resolved_fractions(self) -> Tuple[float, float, float]:
        return self.fractions if self.fractions is not None else DEFAULT_FRACTIONS[self.dataset]

    def resolved_holdout(self) -> Tuple[str, ...]:
        if self.ood_holdout is not None:
            return tuple(str(v) for v in self.ood_holdout)
        return DEFAULT_OOD_HOLDOUT[self.dataset]


@dataclass
class MethodMetrics:
    """Aggregated per-method metrics (means with standard errors)."""

    method: str
    coverage: float
    coverage_se: float
    size: float
    size_se: float
    accuracy: float
    accuracy_se: float
    auc: float
    auc_se: float
    minscore_auc: float = float("nan")
    empty_rate: float = float("nan")
    ood_empty_rate: float = float("nan")
    label_coverage: np.ndarray | None = None
    label_coverage_se: np.ndarray | None = None
    label_upper_slack: np.ndarray | None = None


@dataclass
class ExperimentResult:
    dataset: str
    alpha: float
    repetitions: int
    seed: int
    label_names: List[str]
    methods: List[MethodMetrics]
    config: Dict[str, object]


# ---------------------------------------------------------------------------
# Per-dataset recipes
# ---------------------------------------------------------------------------


def _holdout_partition(bundle, holdout_names: Tuple[str, ...]):
    names = [str(n) for n in bundle.label_names]
    held = {n for n in holdout_names}
    unknown = held - set(names)
    if unknown:
        raise ValueError(f"ood_holdout labels {sorted(unknown)} not present in {names}")
    held_ids = {i for i, n in enumerate(names) if n in held}
    labels = np.asarray(bundle.labels)
    ood_mask = np.isin(labels, sorted(held_ids))
    kept_ids = [i for i in range(len(names)) if i not in held_ids]
    remap = {old: new for new, old in enumerate(kept_ids)}
    features = np.asarray(bundle.features)
    in_features = features[~ood_mask]
    in_labels = np.array([remap[int(y)] for y in labels[~ood_mask]], dtype=np.int64)
    ood_features = features[ood_mask]
    kept_names = [names[i] for i in kept_ids]
    return in_features, in_labels, ood_features, kept_names


def _rep_seed_parts(master_seed: int, rep: int):
    root = np.random.SeedSequence(entropy=(int(master_seed), int(rep)))
    return root.spawn(4)  # data, split, encoder, randomization


def _build_encoder(config: ExperimentConfig, features, train_idx, enc_seed):
    ds = config.dataset
    if ds == "synthetic":
        return IdentityEncoder(p=np.asarray(features).shape[1])
    if ds == "mnist":
        return BinaryImageEncoder(p=np.asarray(features).shape[1], d=config.d, seed=enc_seed)
    if ds == "isolet":
        enc = QuantizedFeatureEncoder(
            p=np.asarray(features).shape[1], d=config.d, levels=config.levels, seed=enc_seed
        )
        enc.fit(np.asarray(features)[train_idx])
        return enc
    if ds == "languages":
        return TrigramTextEncoder(d=config.d, seed=enc_seed)
    if ds == "spike_surrogate":
        arr = np.asarray(features)
        return TemporalFpeEncoder(
            p=arr.shape[1], d=config.d, t_max=arr.shape[2], beta=config.beta, seed=enc_seed
        )
    raise ValueError(f"no encoder recipe for dataset {ds!r}")


_RECIPE_STYLE = {
    "synthetic": ("centroid", "inverse_euclidean"),
    "mnist": ("binarized", "cosine_normalized"),
    "isolet": ("binarized", "cosine_normalized"),
    "languages": ("l2_normalized_real", "cosine_normalized"),
    "spike_surrogate": ("raw_complex", "complex_cosine"),
}


def _rep_data(config: ExperimentConfig, fixed, data_seed):
    """Features, dense labels, OOD pool, and label names for one repetition."""
    if config.dataset == "synthetic":
        cfg = SyntheticConfig(
            sigma=(1.0, 2.0, config.sigma3),
            n_per_class=config.n_per_class,
            n_ood=config.n_ood,
            seed=data_seed,
        )
        feats, labels, ood = generate_synthetic(cfg)
        return feats, labels, ood, ["1", "2", "3"]
    if config.dataset == "spike_surrogate":
        bundle = _datasets.generate_spike_surrogate(
            _datasets.SpikeSurrogateConfig(
                n_classes=config.spike_classes,
                n_neurons=config.spike_neurons,
                n_bins=config.spike_bins,
                n_per_class=config.spike_per_class,
                n_ood=config.spike_ood,
                rate_scale=config.spike_rate_scale,
                seed=data_seed,
            )
        )
        return _holdout_partition(bundle, config.resolved_holdout())
    return fixed


def _aggregate(values: List[float]) -> Tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(arr)
    if arr.size == 0 or not finite.any():
        return float("nan"), 0.0
    kept = arr[finite]
    se = float(kept.std(ddof=1) / np.sqrt(kept.size)) if kept.size > 1 else 0.0
    return float(kept.mean()), se


def run_experiment(config: ExperimentConfig, bundle=None) -> ExperimentResult:
    """Repeat split/train/calibrate/evaluate and aggregate the metrics.

    Real datasets require an ingested ``bundle``; the synthetic and
    spike-surrogate benchmarks draw fresh data each repetition. Each
    repetition's metrics feed mean and standard-error aggregates per
    method (the baseline plus one row per requested score kind).
    """
    config.validate()
    fractions = config.resolved_fractions()

    fixed = None
    if config.dataset in ("mnist", "isolet", "languages"):
        if bundle is None:
            raise ValueError(f"dataset {config.dataset!r} requires an ingested data bundle")
        fixed = _holdout_partition(bundle, config.resolved_holdout())

    methods = [METHOD_HDC] + list(config.score_kinds)
    per_rep: Dict[str, List[dict]] = {m: [] for m in methods}
    label_names: List[str] = []

    for rep in range(config.repetitions):
        data_ss, split_ss, enc_ss, u_ss = _rep_seed_parts(config.seed, rep)
        feats, labels, ood_feats, label_names = _rep_data(config, fixed, data_ss)
        rep_metrics = _evaluate_repetition(
            config, fractions, feats, labels, ood_feats, split_ss, enc_ss, u_ss
        )
        for m in methods:
            per_rep[m].append(rep_metrics[m])

    rows = []
    for m in methods:
        reps = per_rep[m]
        fields = {}
        for key in ("coverage", "size", "accuracy", "auc"):
            fields[key], fields[key + "_se"] = _aggregate([r[key] for r in reps])
        for key in ("minscore_auc", "empty_rate", "ood_empty_rate"):
            fields[key] = _aggregate([r[key] for r in reps])[0]
        if config.conditional and reps and reps[0]["label_coverage"] is not None:
            stacked = np.vstack([r["label_coverage"] for r in reps])
            counts = np.isfinite(stacked).sum(axis=0)
            # as in _aggregate: a label with fewer than two finite values has SE 0
            spread = counts > 1
            label_se = np.zeros(stacked.shape[1])
            if spread.any():
                label_se[spread] = np.nanstd(stacked[:, spread], ddof=1, axis=0) / np.sqrt(counts[spread])
            fields.update(
                label_coverage=np.nanmean(stacked, axis=0),
                label_coverage_se=label_se,
                label_upper_slack=np.vstack([r["label_upper_slack"] for r in reps]).mean(axis=0),
            )
        rows.append(MethodMetrics(method=m, **fields))

    echo = {
        "dataset": config.dataset,
        "alpha": config.alpha,
        "d": config.d,
        "score_kinds": list(config.score_kinds),
        "repetitions": config.repetitions,
        "seed": config.seed,
        "fractions": list(fractions),
        "ood_holdout": list(config.resolved_holdout()),
        "lam": config.lam,
        "temperature": config.temperature,
        "conditional": config.conditional,
    }
    if config.dataset == "synthetic":
        echo.update(
            sigma3=config.sigma3, n_per_class=list(config.n_per_class), n_ood=config.n_ood
        )

    return ExperimentResult(
        dataset=config.dataset,
        alpha=config.alpha,
        repetitions=config.repetitions,
        seed=config.seed,
        label_names=list(label_names),
        methods=rows,
        config=echo,
    )


def _evaluate_repetition(
    config: ExperimentConfig, fractions, feats, labels, ood_feats, split_ss, enc_ss, u_ss
) -> Dict[str, dict]:
    """Metrics per method from one pass over the rows in fold order, ``_chunk_rows(d)`` at a time.

    Only the K x d class sums and the (n, K) profiles outlive a chunk.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    train_idx, cal_idx, test_idx = split_data(labels.shape[0], SplitSpec(fractions, seed=split_ss))
    encoder = _build_encoder(config, feats, train_idx, enc_ss)
    style, sim_kind = _RECIPE_STYLE[config.dataset]
    rows = _chunk_rows(encoder.d)
    sums, counts = 0, 0  # the first += makes them arrays of class_sums's dtypes
    prof = {"cal": [], "test": [], "full_test": [], "ood": []}
    folds = (("train", feats, train_idx), ("cal", feats, cal_idx), ("test", feats, test_idx))
    for fold, source, idx in folds + (("ood", ood_feats, np.arange(len(ood_feats))),):
        # the train sums give the train prototypes; train + calibration, the baseline's
        if fold == "cal":
            protos_train = prototypes_from_encoded(sums, None, n_classes, style, counts=counts)
        elif fold == "test":
            protos_full = prototypes_from_encoded(sums, None, n_classes, style, counts=counts)
        for start in range(0, len(idx), rows):
            part = idx[start : start + rows]
            codes = encoder.encode_batch(source[part])
            if fold != "train":
                prof[fold].append(similarity_matrix(codes, protos_train, sim_kind))
            if fold == "test":
                prof["full_test"].append(similarity_matrix(codes, protos_full, sim_kind))
            if fold in ("train", "cal"):
                s, c = class_sums(codes, labels[part], n_classes)
                sums += s
                counts += c
            del codes  # before the next chunk is encoded
    prof = {k: np.concatenate(v) if v else None for k, v in prof.items()}
    return _evaluate_profiles(config, n_classes, prof, labels[cal_idx], labels[test_idx], u_ss)


def _evaluate_profiles(config: ExperimentConfig, n_classes: int, prof, y_cal, y_test, u_ss) -> Dict[str, dict]:
    """Metrics per method from similarity profiles, every score kind in one pass.

    ``prof`` holds the calibration, test and OOD rows' profiles against the
    train prototypes ("cal", "test", "ood"; "ood" may be None), and the test
    rows' against the baseline's ("full_test"). Each kind scores the stacked
    calibration, test and OOD rows in one ``score_matrix`` call and gets
    its own calibrator; the (kinds, n, K) scores and (kinds, K) thresholds
    then go through sets, point labels, coverage, size, accuracy, empty
    rates and both AUCs in one call each over the kinds axis.
    """
    prof_cal, prof_test, prof_full_test, prof_ood = (prof[k] for k in ("cal", "test", "full_test", "ood"))
    if prof_ood is None:
        prof_ood = np.empty((0, n_classes))
    n_cal, n_test, n_ood = (p.shape[0] for p in (prof_cal, prof_test, prof_ood))

    out: Dict[str, dict] = {}

    # Baseline: top-1 prediction from prototypes built on train + calibration.
    baseline_acc = point_accuracy(np.argmax(prof_full_test, axis=1), y_test)
    out[METHOD_HDC] = {
        "coverage": baseline_acc,
        "size": 1.0,
        "accuracy": baseline_acc,
        "auc": float("nan"),
        "minscore_auc": float("nan"),
        "empty_rate": 0.0,
        "ood_empty_rate": float("nan"),
        "label_coverage": None,
        "label_upper_slack": None,
    }
    kinds = config.score_kinds
    if not kinds:
        return out

    rows = np.concatenate([prof_cal, prof_test, prof_ood])
    # one draw per row, the same numbers as drawing u_cal, u_test, u_ood in turn
    u = np.random.default_rng(u_ss).uniform(size=rows.shape[0])
    kw = dict(lam=config.lam, temperature=config.temperature, u=u)
    scores = np.stack([score_matrix(rows, kind, **kw) for kind in kinds])
    cal_scores = scores[:, np.arange(n_cal), y_cal]
    if config.conditional:
        calibrators = [calibrate_conditional(c, y_cal, config.alpha, n_classes) for c in cal_scores]
    else:
        calibrators = [calibrate_marginal(c, config.alpha) for c in cal_scores]
    thresholds = np.stack([c.thresholds(n_classes) for c in calibrators])

    test_scores = scores[:, n_cal : n_cal + n_test]
    include = sets_from_scores(test_scores, thresholds)
    test_abstain = ~include.any(axis=-1)
    picks = point_labels_from_sets(include, test_scores, allow_empty=False)
    metrics = {
        "coverage": empirical_coverage(include, y_test),
        "size": average_set_size(include),
        "accuracy": point_accuracy(picks, y_test),
        "empty_rate": test_abstain.mean(axis=1),
    }
    nan = np.full(len(kinds), np.nan)
    metrics.update(auc=nan, minscore_auc=nan, ood_empty_rate=nan)
    if n_ood > 0:
        ood_mat = scores[:, n_cal + n_test :]
        ood_abstain = ~sets_from_scores(ood_mat, thresholds).any(axis=-1)
        # The reported AUC ranks inputs by whether the method abstains on
        # them at this alpha; the raw min-score statistic is kept alongside
        # for diagnostics.
        metrics.update(
            auc=ood_auc(test_abstain.astype(np.float64), ood_abstain.astype(np.float64)),
            minscore_auc=ood_auc(ood_scores(test_scores), ood_scores(ood_mat)),
            ood_empty_rate=ood_abstain.mean(axis=1),
        )

    label_coverage = label_upper_slack = [None] * len(kinds)
    if config.conditional:
        # hits per label as exact integer counts, then each label's share
        per_label = np.bincount(y_test, minlength=n_classes)
        hits = include[:, np.arange(n_test), y_test]
        label_hits = hits.astype(np.float64) @ (y_test[:, None] == np.arange(n_classes))
        label_coverage = np.where(per_label > 0, label_hits / np.maximum(per_label, 1), np.nan)
        label_upper_slack = [1.0 / (1.0 + c.counts.astype(np.float64)) for c in calibrators]

    for i, kind in enumerate(kinds):
        out[kind] = {key: float(values[i]) for key, values in metrics.items()}
        out[kind].update(label_coverage=label_coverage[i], label_upper_slack=label_upper_slack[i])
    return out
