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
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from . import datasets as _datasets
from .classifier import _chunk_rows, check_class_labels, class_sums, prototypes_from_encoded
from .conformal import (
    SCORE_KINDS,
    _fold_classes,
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
    "RECIPES",
    "ExperimentConfig",
    "ExperimentResult",
    "MethodMetrics",
    "Recipe",
    "SplitSpec",
    "average_set_size",
    "empirical_coverage",
    "ood_auc",
    "point_accuracy",
    "run_experiment",
    "split_data",
]

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


def _graded_labels(labels, shape, mismatch: str, n_classes: int | None = None) -> np.ndarray:
    """Class labels (..., n), checked, as a view broadcast to ``shape`` (..., n)."""
    arr = np.asarray(labels)
    checked = check_class_labels(arr, n_classes).reshape(arr.shape)
    if checked.ndim < 1 or checked.shape[-1] != shape[-1]:
        raise ValueError(mismatch)
    try:
        return np.broadcast_to(checked, shape)
    except ValueError:
        raise ValueError(f"{mismatch}: labels {arr.shape} do not fit {shape}") from None


def empirical_coverage(include, labels):
    """Fraction of samples whose true label is in their prediction set.

    ``include`` is an (..., n, K) boolean inclusion matrix, as
    ``sets_from_scores`` gives, and ``labels`` the true labels in range(K),
    (n,) or with leading axes that broadcast against the sets' (one row of
    labels per repetition, say); the result is a float, or one value per
    leading index.
    """
    include = _inclusion(include)
    mismatch = "sets and labels must have equal length"
    labels = _graded_labels(labels, include.shape[:-1], mismatch, include.shape[-1])
    return _leading(np.take_along_axis(include, labels[..., None], axis=-1)[..., 0].mean(axis=-1))


def average_set_size(include):
    """Mean cardinality of the prediction sets of an (..., n, K) inclusion matrix.

    From 64 rows per class column on, the sizes are counted one class
    column at a time (``conformal._fold_classes``), to the same integers.
    """
    return _leading(_fold_classes(np.add, _inclusion(include), np.int64).mean(axis=-1))


def point_accuracy(picks, labels, count_empty_as_error: bool = True):
    """Fraction correct among point predictions.

    ``picks`` are (..., n) class indices as ``point_labels_from_sets``
    gives, with -1 for an abstention, and ``labels`` the true labels, (n,)
    or with leading axes that broadcast against the picks'. Abstentions
    count as errors when the flag is set (the default on inlier test data)
    and are skipped otherwise.
    """
    picks = np.asarray(picks)
    if picks.size and not np.issubdtype(picks.dtype, np.integer):
        raise ValueError(f"point predictions must be integer labels, got dtype {picks.dtype}")
    if picks.size and picks.min() < -1:
        raise ValueError("point predictions must be class indices, or -1 for an abstention")
    mismatch = "predictions and labels must have equal length"
    if picks.ndim < 1:
        raise ValueError(mismatch)
    labels = _graded_labels(labels, picks.shape, mismatch)
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
    del combined, order  # each rank array is freed once used: at most three live
    # A run of ties at 0-based sorted positions first..last shares the
    # midrank (first + last) / 2 + 1; sum first and last over the OOD values.
    starts = np.ones(ranked.shape, dtype=bool)
    np.not_equal(ranked[..., 1:], ranked[..., :-1], out=starts[..., 1:])
    del ranked
    pos = np.arange(n_in + n_ood)
    first = np.where(starts, pos, 0)
    np.maximum.accumulate(first, axis=-1, out=first)
    last = np.where(np.roll(starts, -1, axis=-1), pos, n_in + n_ood)
    np.minimum.accumulate(last[..., ::-1], axis=-1, out=last[..., ::-1])
    rank_sum = (first.sum(axis=-1, where=is_ood) + last.sum(axis=-1, where=is_ood)) / 2.0 + n_ood
    auc = (rank_sum - n_ood * (n_ood + 1) / 2.0) / (n_in * n_ood)
    return _leading(auc)


def _abstention_auc(test_abstain: np.ndarray, ood_abstain: np.ndarray) -> np.ndarray:
    """``ood_auc`` of 0/1 abstention flags, (..., n_in) inlier and (..., n_ood) OOD, from counts.

    With a_in and a_ood abstentions, an OOD abstention outranks each inlier
    that was answered, and equal flags tie, so the Mann-Whitney count is
    U = a_ood (n_in - a_in) + (a_ood a_in + (n_ood - a_ood)(n_in - a_in)) / 2.
    That is the exact half-integer ``ood_auc``'s midranks give, divided by
    the same n_in n_ood, so the AUCs agree bit for bit.
    """
    n_in, n_ood = test_abstain.shape[-1], ood_abstain.shape[-1]
    a_in, a_ood = test_abstain.sum(axis=-1), ood_abstain.sum(axis=-1)
    answered = n_in - a_in
    twice_u = 2 * a_ood * answered + a_ood * a_in + (n_ood - a_ood) * answered
    return twice_u / 2.0 / (n_in * n_ood)


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
        if self.dataset not in RECIPES:
            raise ValueError(f"dataset must be one of {tuple(RECIPES)}, got {self.dataset!r}")
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
        return self.fractions if self.fractions is not None else RECIPES[self.dataset].fractions

    def resolved_holdout(self) -> Tuple[str, ...]:
        if self.ood_holdout is not None:
            return tuple(str(v) for v in self.ood_holdout)
        return RECIPES[self.dataset].ood_holdout


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


@dataclass(frozen=True)
class Recipe:
    """One dataset recipe: its split, OOD holdout, model and data source.

    ``encoder(config, features, train_idx, seed)`` builds a repetition's
    encoder. The data come from ``generate(config, seed)``, which draws one
    repetition's features, dense labels, OOD features and label names, or
    else from the bundle ``ingest(*paths)`` reads from the files that the
    config keys ``path_keys`` name; those in ``checked_keys`` take a
    ``<key>_sha256`` digest. ``echo`` names the config fields the recipe
    reads beyond ``_SHARED_ECHO``, for ``results.json`` to record.
    """

    fractions: Tuple[float, float, float]
    ood_holdout: Tuple[str, ...]
    style: str
    similarity: str
    encoder: Callable
    generate: Callable | None = None
    ingest: Callable | None = None
    path_keys: Tuple[str, ...] = ()
    checked_keys: Tuple[str, ...] = ()
    echo: Tuple[str, ...] = ()


def _holdout_partition(bundle, holdout_names: Tuple[str, ...]):
    names = [str(n) for n in bundle.label_names]
    unknown = set(holdout_names) - set(names)
    if unknown:
        raise ValueError(f"ood_holdout labels {sorted(unknown)} not present in {names}")
    kept_ids = [i for i, n in enumerate(names) if n not in holdout_names]
    labels = check_class_labels(bundle.labels, len(names))
    ood_mask = ~np.isin(labels, kept_ids)
    features = np.asarray(bundle.features)
    # a kept label's new id is its rank among the kept ids
    in_labels = np.searchsorted(kept_ids, labels[~ood_mask]).astype(np.int64)
    return features[~ood_mask], in_labels, features[ood_mask], [names[i] for i in kept_ids]


def _rep_seed_parts(master_seed: int, rep: int):
    root = np.random.SeedSequence(entropy=(int(master_seed), int(rep)))
    return root.spawn(4)  # data, split, encoder, randomization


def _synthetic_data(config: ExperimentConfig, seed):
    sigma = (1.0, 2.0, config.sigma3)
    cfg = SyntheticConfig(sigma=sigma, n_per_class=config.n_per_class, n_ood=config.n_ood, seed=seed)
    return (*generate_synthetic(cfg), ["1", "2", "3"])


def _spike_data(config: ExperimentConfig, seed):
    bundle = _datasets.generate_spike_surrogate(
        _datasets.SpikeSurrogateConfig(
            n_classes=config.spike_classes, n_neurons=config.spike_neurons, n_bins=config.spike_bins,
            n_per_class=config.spike_per_class, n_ood=config.spike_ood,
            rate_scale=config.spike_rate_scale, seed=seed,
        )
    )
    return _holdout_partition(bundle, config.resolved_holdout())


def _quantized_encoder(config: ExperimentConfig, features, train_idx, seed):
    enc = QuantizedFeatureEncoder(p=features.shape[1], d=config.d, levels=config.levels, seed=seed)
    enc.fit(features[train_idx])  # the grid sees the train rows only
    return enc


#: the config fields that results.json records for every recipe, besides
#: the resolved fractions and OOD holdout
_SHARED_ECHO = (
    "dataset", "alpha", "d", "score_kinds", "repetitions", "seed", "lam", "temperature", "conditional"
)

# Data functions are called through their modules, so a wrapper set on a
# module's function (as bench/tracer.py sets) sees the recipes' calls too.
RECIPES: Dict[str, Recipe] = {
    "synthetic": Recipe(
        (0.40, 0.50, 0.10), (), "centroid", "inverse_euclidean",
        encoder=lambda config, x, train_idx, seed: IdentityEncoder(p=x.shape[1]),
        generate=_synthetic_data,
        echo=("sigma3", "n_per_class", "n_ood"),
    ),
    "mnist": Recipe(
        (0.80, 0.15, 0.05), ("6", "7", "8", "9"), "binarized", "cosine_normalized",
        encoder=lambda config, x, train_idx, seed: BinaryImageEncoder(p=x.shape[1], d=config.d, seed=seed),
        ingest=lambda images, labels: _datasets.ingest_mnist(images, labels),
        path_keys=("mnist_images", "mnist_labels"), checked_keys=("mnist_images", "mnist_labels"),
    ),
    "languages": Recipe(
        (0.75, 0.225, 0.025), ("Finnish", "Estonian", "Hungarian"), "l2_normalized_real", "cosine_normalized",
        encoder=lambda config, x, train_idx, seed: TrigramTextEncoder(d=config.d, seed=seed),
        ingest=lambda directory: _datasets.ingest_languages(directory),
        path_keys=("languages_dir",),
    ),
    "isolet": Recipe(
        (0.57, 0.38, 0.05), ("W", "X", "Y", "Z"), "binarized", "cosine_normalized",
        encoder=_quantized_encoder,
        ingest=lambda table: _datasets.ingest_isolet(table),
        path_keys=("isolet_path",), checked_keys=("isolet_path",),
        echo=("levels",),
    ),
    "spike_surrogate": Recipe(
        (0.50, 0.40, 0.10), ("run",), "raw_complex", "complex_cosine",
        encoder=lambda config, x, train_idx, seed: TemporalFpeEncoder(
            p=x.shape[1], d=config.d, t_max=x.shape[2], beta=config.beta, seed=seed
        ),
        generate=_spike_data,
        echo=("beta", "spike_classes", "spike_neurons", "spike_bins", "spike_per_class", "spike_ood",
              "spike_rate_scale"),
    ),
}


#: the metrics graded for every method, each aggregated to a mean (and SE)
_METRICS = ("coverage", "size", "accuracy", "auc", "minscore_auc", "empty_rate", "ood_empty_rate")


def _aggregate(values: np.ndarray) -> Tuple[float, float]:
    kept = values[np.isfinite(values)]
    if kept.size == 0:
        return float("nan"), 0.0
    se = float(kept.std(ddof=1) / np.sqrt(kept.size)) if kept.size > 1 else 0.0
    return float(kept.mean()), se


#: Bytes of float64 scores, over all score kinds, that one grading pass
#: stacks: a group holds as many consecutive repetitions as fit, and at
#: least one (6 synthetic repetitions of 1,100 scored rows, 132 kB each).
_GROUP_BYTES = 896 * 2**10


class _Profiles(NamedTuple):
    """One repetition's similarity profiles, the labels they grade and its draw seed.

    ``rows`` holds the calibration, test and OOD rows' (n, K) profiles
    against the train prototypes, in that order; ``full_test`` the test
    rows' against the baseline's.
    """

    rows: np.ndarray
    full_test: np.ndarray
    y_cal: np.ndarray
    y_test: np.ndarray
    u_ss: np.random.SeedSequence


def _group_size(rep: _Profiles, n_kinds: int) -> int:
    """Repetitions of ``rep``'s shape whose scores fit in ``_GROUP_BYTES``, at least one."""
    return max(1, _GROUP_BYTES // (8 * rep.rows.size * max(1, n_kinds)))


def run_experiment(config: ExperimentConfig, bundle=None) -> ExperimentResult:
    """Repeat split/train/calibrate/evaluate and aggregate the metrics.

    A recipe without a generator (``RECIPES``) requires an ingested
    ``bundle``; the others draw fresh data each repetition. Each
    repetition's rows are encoded and profiled on their own; consecutive
    repetitions' profiles are then graded together, in groups whose
    stacked scores fit in a fixed budget (``_GROUP_BYTES``, 896 KiB over
    all score kinds: 6 synthetic repetitions, one at paper scale). Grading
    holds at most those scores, the group's profiles and one scorer's
    temporaries, so its memory does not grow with the number of
    repetitions: a synthetic run's tracemalloc peak is about 1.6 MB. A
    synthetic repetition takes about 1.2 ms on one core of a 2-core host,
    and about 1.5 times that graded alone. Each repetition keeps its own
    draws and thresholds, so its metrics do not depend on its group. They
    feed mean and standard-error aggregates per method (the baseline plus
    one row per requested score kind).
    """
    config.validate()
    fractions = config.resolved_fractions()
    recipe = RECIPES[config.dataset]

    fixed = None
    if recipe.generate is None:
        if bundle is None:
            raise ValueError(f"dataset {config.dataset!r} requires an ingested data bundle")
        fixed = _holdout_partition(bundle, config.resolved_holdout())

    methods = [METHOD_HDC] + list(config.score_kinds)
    graded: List[Dict[str, np.ndarray]] = []
    label_names: List[str] = []
    group: List[_Profiles] = []

    def grade() -> None:
        graded.append(_evaluate_group(config, group))
        group.clear()

    for rep in range(config.repetitions):
        data_ss, split_ss, enc_ss, u_ss = _rep_seed_parts(config.seed, rep)
        feats, labels, ood_feats, label_names = recipe.generate(config, data_ss) if fixed is None else fixed
        profiles = _evaluate_repetition(
            config, fractions, feats, labels, ood_feats, split_ss, enc_ss, u_ss
        )
        group.append(profiles)
        if len(group) == _group_size(profiles, len(config.score_kinds)):
            grade()
    if group:
        grade()

    # each metric as (methods, repetitions), the repetitions in run order
    metrics = {key: np.concatenate([g[key] for g in graded], axis=1) for key in graded[0]}
    rows = []
    for i, m in enumerate(methods):
        fields = {}
        for key in ("coverage", "size", "accuracy", "auc"):
            fields[key], fields[key + "_se"] = _aggregate(metrics[key][i])
        for key in ("minscore_auc", "empty_rate", "ood_empty_rate"):
            fields[key] = _aggregate(metrics[key][i])[0]
        if config.conditional and m != METHOD_HDC:
            stacked = metrics["label_coverage"][i]
            finite = np.isfinite(stacked)
            counts = finite.sum(axis=0)
            # as in _aggregate: a label with fewer than two finite values has SE 0,
            # and one with none (absent from every test fold) has a NaN mean
            spread = counts > 1
            label_se = np.zeros(stacked.shape[1])
            if spread.any():
                label_se[spread] = np.nanstd(stacked[:, spread], ddof=1, axis=0) / np.sqrt(counts[spread])
            label_mean = np.full(stacked.shape[1], np.nan)
            np.divide(np.where(finite, stacked, 0.0).sum(axis=0), counts, out=label_mean, where=counts > 0)
            fields.update(
                label_coverage=label_mean,
                label_coverage_se=label_se,
                label_upper_slack=metrics["label_upper_slack"][i].mean(axis=0),
            )
        rows.append(MethodMetrics(method=m, **fields))

    echo = {"fractions": list(fractions), "ood_holdout": list(config.resolved_holdout())}
    for name in _SHARED_ECHO + recipe.echo:
        value = getattr(config, name)
        echo[name] = list(value) if isinstance(value, tuple) else value

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
) -> _Profiles:
    """Profiles of one repetition from one pass over the rows in fold order, ``_chunk_rows(d)`` at a time.

    Only the K x d class sums and the (n, K) profiles outlive a chunk.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    train_idx, cal_idx, test_idx = split_data(labels.shape[0], SplitSpec(fractions, seed=split_ss))
    recipe = RECIPES[config.dataset]
    encoder = recipe.encoder(config, feats, train_idx, enc_ss)
    style, sim_kind = recipe.style, recipe.similarity
    rows = _chunk_rows(encoder.d)
    sums, counts = 0, 0  # the first += makes them arrays of class_sums's dtypes
    prof, full_test = [], []
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
                prof.append(similarity_matrix(codes, protos_train, sim_kind))
            if fold == "test":
                full_test.append(similarity_matrix(codes, protos_full, sim_kind))
            if fold in ("train", "cal"):
                s, c = class_sums(codes, labels[part], n_classes)
                sums += s
                counts += c
            del codes  # before the next chunk is encoded
    return _Profiles(np.concatenate(prof), np.concatenate(full_test), labels[cal_idx], labels[test_idx], u_ss)


def _evaluate_group(config: ExperimentConfig, group: List[_Profiles]) -> Dict[str, np.ndarray]:
    """Each metric as a (methods, G) array for the G repetitions of ``group``, graded in one pass.

    The repetitions of a run share their fold sizes and class count K, so
    their profiles, labels and uniform draws stack on a leading axis. Each
    score kind scores the G repetitions' rows in one ``score_matrix`` call
    and calibrates them in one ``calibrate_*`` call. The (kinds, G, n, K)
    scores and (kinds, G, K) thresholds then go through sets, point
    labels, coverage, size, accuracy, empty rates and both AUCs in one
    call each. Every step works row by row, so each repetition's metrics
    equal those of grading it alone, bit for bit. Row 0 is the baseline's;
    per-label metrics are (methods, G, K).
    """
    G = len(group)
    n, n_classes = group[0].rows.shape
    n_cal, n_test = group[0].y_cal.shape[0], group[0].y_test.shape[0]
    n_ood = n - n_cal - n_test
    # the group's labels, checked once before they index any scores
    y_cal = check_class_labels(np.stack([r.y_cal for r in group]), n_classes).reshape(G, n_cal)
    y_test = check_class_labels(np.stack([r.y_test for r in group]), n_classes).reshape(G, n_test)
    # the baseline's top-1 prediction from prototypes built on train + calibration
    baseline = np.argmax(np.stack([r.full_test for r in group]), axis=-1)
    baseline_acc = point_accuracy(baseline, y_test)

    kinds = config.score_kinds
    n_methods = 1 + len(kinds)
    metrics = {key: np.full((n_methods, G), np.nan) for key in _METRICS}
    metrics["coverage"][0] = metrics["accuracy"][0] = baseline_acc
    metrics["size"][0], metrics["empty_rate"][0] = 1.0, 0.0
    for key in ("label_coverage", "label_upper_slack") if config.conditional else ():
        metrics[key] = np.full((n_methods, G, n_classes), np.nan)
    if not kinds:
        return metrics

    rows = np.stack([r.rows for r in group]).reshape(G * n, n_classes)
    # one draw per row, the same numbers as drawing u_cal, u_test, u_ood in turn
    u = np.concatenate([np.random.default_rng(r.u_ss).uniform(size=n) for r in group])
    kw = dict(lam=config.lam, temperature=config.temperature, u=u)
    kept = np.empty((len(kinds), G, n - n_cal, n_classes))
    thresholds = np.empty((len(kinds), G, n_classes))
    for i, kind in enumerate(kinds):
        scores = score_matrix(rows, kind, **kw).reshape(G, n, n_classes)
        cal_scores = np.take_along_axis(scores[:, :n_cal], y_cal[..., None], axis=-1)[..., 0]
        if config.conditional:
            calibrator = calibrate_conditional(cal_scores, y_cal, config.alpha, n_classes)
            metrics["label_upper_slack"][1 + i] = 1.0 / (1.0 + calibrator.counts.astype(np.float64))
        else:
            calibrator = calibrate_marginal(cal_scores, config.alpha)
        thresholds[i] = calibrator.thresholds(n_classes)
        kept[i] = scores[:, n_cal:]
        del scores  # before the next kind is scored
    del rows, u

    test_scores = kept[:, :, :n_test]
    include = sets_from_scores(test_scores, thresholds)
    test_abstain = ~_fold_classes(np.logical_or, include)
    picks = point_labels_from_sets(include, test_scores, allow_empty=False)
    metrics["coverage"][1:] = empirical_coverage(include, y_test)
    metrics["size"][1:] = average_set_size(include)
    metrics["empty_rate"][1:] = test_abstain.mean(axis=-1)
    metrics["accuracy"][1:] = point_accuracy(picks, y_test)
    if n_ood > 0:
        ood_mat = kept[:, :, n_test:]
        ood_abstain = ~_fold_classes(np.logical_or, sets_from_scores(ood_mat, thresholds))
        minscores = ood_scores(test_scores), ood_scores(ood_mat)
        del test_scores, ood_mat, kept  # before the min-score AUC's rank arrays
        # The reported AUC ranks inputs by whether the method abstains on
        # them at this alpha; the raw min-score statistic is kept alongside
        # for diagnostics.
        metrics["auc"][1:] = _abstention_auc(test_abstain, ood_abstain)
        metrics["minscore_auc"][1:] = ood_auc(*minscores)
        metrics["ood_empty_rate"][1:] = ood_abstain.mean(axis=-1)

    if config.conditional:
        # hits per label as exact integer counts, then each label's share
        is_label = y_test[..., None] == np.arange(n_classes)
        per_label = is_label.sum(axis=-2)
        hits = np.take_along_axis(include, y_test[None, ..., None], axis=-1)
        label_hits = (hits & is_label).sum(axis=-2)
        metrics["label_coverage"][1:] = np.where(per_label > 0, label_hits / np.maximum(per_label, 1), np.nan)
    return metrics
