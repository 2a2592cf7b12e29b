"""Splitting, metrics, and the repeated-experiment harness."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_hdc import evaluation
from conformal_hdc.conformal import PredictionSet
from conformal_hdc.datasets import DatasetBundle
from conformal_hdc.evaluation import (
    ExperimentConfig,
    SplitSpec,
    average_set_size,
    empirical_coverage,
    ood_auc,
    point_accuracy,
    run_experiment,
    split_data,
)
from conformal_hdc.synthetic import SyntheticConfig, generate_synthetic


def make_set(labels, k=3):
    return PredictionSet(labels=np.asarray(labels, dtype=np.int64), scores=np.zeros(k))


class TestSplit:
    def test_hand_rounding(self):
        tr, ca, te = split_data(10, SplitSpec((0.4, 0.5, 0.1), seed=0))
        assert (len(tr), len(ca), len(te)) == (4, 5, 1)

    def test_minimum_viability(self):
        eps = 1e-6
        tr, ca, te = split_data(3, SplitSpec((1 - 2 * eps, eps, eps), seed=0))
        assert (len(tr), len(ca), len(te)) == (1, 1, 1)

    def test_deterministic(self):
        a = split_data(100, SplitSpec((0.4, 0.5, 0.1), seed=9))
        b = split_data(100, SplitSpec((0.4, 0.5, 0.1), seed=9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_disjoint_and_exhaustive(self):
        tr, ca, te = split_data(57, SplitSpec((0.5, 0.3, 0.2), seed=1))
        combined = np.sort(np.concatenate([tr, ca, te]))
        np.testing.assert_array_equal(combined, np.arange(57))

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec((0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            SplitSpec((0.5, 0.5, 0.0))

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            split_data(2, SplitSpec((0.4, 0.5, 0.1), seed=0))


class TestMetrics:
    def test_coverage_full_sets(self):
        sets = [make_set([0, 1, 2]) for _ in range(4)]
        assert empirical_coverage(sets, [0, 1, 2, 0]) == 1.0

    def test_coverage_empty_sets(self):
        sets = [make_set([]) for _ in range(3)]
        assert empirical_coverage(sets, [0, 1, 2]) == 0.0

    def test_coverage_hand_count(self):
        sets = [make_set([0]), make_set([1]), make_set([0])]
        assert empirical_coverage(sets, [0, 0, 0]) == pytest.approx(2 / 3)

    def test_coverage_length_mismatch(self):
        with pytest.raises(ValueError):
            empirical_coverage([make_set([0])], [0, 1])

    def test_size_examples(self):
        assert average_set_size([make_set([0]), make_set([1])]) == 1.0
        assert average_set_size([make_set([]), make_set([0]), make_set([0, 1, 2])]) == pytest.approx(4 / 3)
        assert average_set_size([make_set([]), make_set([])]) == 0.0
        with pytest.raises(ValueError):
            average_set_size([])

    def test_point_accuracy_flag_behavior(self):
        preds = [make_set([0]), make_set([]), make_set([1])]
        labels = [0, 1, 1]
        assert point_accuracy(preds, labels, count_empty_as_error=True) == pytest.approx(2 / 3)
        assert point_accuracy(preds, labels, count_empty_as_error=False) == 1.0

    def test_point_accuracy_rejects_multilabel(self):
        with pytest.raises(ValueError):
            point_accuracy([make_set([0, 1])], [0])

    def test_auc_examples(self):
        assert ood_auc([0.1, 0.2], [0.3, 0.4]) == 1.0
        assert ood_auc([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) == 0.5
        assert ood_auc([0.1, 0.3], [0.2, 0.4]) == 0.75

    def test_auc_empty_rejected(self):
        with pytest.raises(ValueError):
            ood_auc([], [0.1])

    # coarse grid keeps exp strictly increasing in float precision
    grid = st.integers(-5000, 5000).map(lambda i: i / 1000.0)

    @given(
        st.lists(grid, min_size=1, max_size=20),
        st.lists(grid, min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_auc_invariant_under_increasing_transform(self, inl, ood):
        base = ood_auc(inl, ood)
        transformed = ood_auc(np.exp(inl), np.exp(ood))
        assert base == pytest.approx(transformed, abs=1e-12)


class TestRunExperiment:
    def test_deterministic_results(self):
        cfg = ExperimentConfig(dataset="synthetic", repetitions=5, seed=3, n_ood=50)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ma, mb in zip(a.methods, b.methods):
            assert ma == mb or (
                ma.method == mb.method
                and ma.coverage == mb.coverage
                and ma.size == mb.size
                and ma.accuracy == mb.accuracy
            )

    def test_method_rows_present(self):
        cfg = ExperimentConfig(dataset="synthetic", repetitions=2, n_ood=10)
        res = run_experiment(cfg)
        assert [m.method for m in res.methods] == [
            "hdc",
            "similarity",
            "ratio",
            "discount",
            "penalized",
            "inverse_quantile",
        ]
        for m in res.methods:
            assert 0.0 <= m.coverage <= 1.0
            assert 0.0 <= m.size <= 3.0

    def test_coverage_near_nominal(self):
        cfg = ExperimentConfig(
            dataset="synthetic", alpha=0.1, repetitions=60, seed=1,
            score_kinds=("discount",), n_ood=0,
        )
        res = run_experiment(cfg)
        discount = res.methods[1]
        band = 3 * max(discount.coverage_se, 1e-3)
        assert 0.9 - band <= discount.coverage <= 0.902 + band

    def test_conditional_mode_reports_label_coverage(self):
        cfg = ExperimentConfig(
            dataset="synthetic", alpha=0.1, repetitions=5, conditional=True,
            score_kinds=("discount",), n_ood=0,
        )
        res = run_experiment(cfg)
        discount = res.methods[1]
        assert discount.label_coverage.shape == (3,)
        assert discount.label_upper_slack.shape == (3,)
        assert np.all(discount.label_upper_slack > 0)

    def test_size_nonincreasing_in_alpha(self):
        sizes = []
        for alpha in (0.2, 0.1, 0.05):
            cfg = ExperimentConfig(
                dataset="synthetic", alpha=alpha, repetitions=10, seed=2,
                score_kinds=("discount",), n_ood=0,
            )
            res = run_experiment(cfg)
            sizes.append(res.methods[1].size)
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_spike_surrogate_pipeline_runs(self):
        cfg = ExperimentConfig(
            dataset="spike_surrogate", alpha=0.2, d=512, repetitions=2, seed=4,
            spike_per_class=40, spike_ood=20, score_kinds=("discount",),
        )
        res = run_experiment(cfg)
        assert res.methods[0].accuracy > 0.5  # classes are separable by design
        assert res.label_names == [f"odor_{c}" for c in range(4)]

    def test_spike_surrogate_small_d_completes(self):
        # at d=64, 4 of these seeds draw trials whose complex-cosine profile is
        # all zero; such a trial abstains instead of ending the run
        for seed in range(5):
            cfg = ExperimentConfig(dataset="spike_surrogate", d=64, repetitions=1, seed=seed)
            res = run_experiment(cfg)
            assert all(0.0 <= m.coverage <= 1.0 for m in res.methods)

    def test_real_dataset_requires_bundle(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(dataset="mnist", repetitions=1))

    def test_config_validation_messages(self):
        with pytest.raises(ValueError, match="alpha"):
            run_experiment(ExperimentConfig(dataset="synthetic", alpha=2.0))
        with pytest.raises(ValueError, match="dataset"):
            ExperimentConfig(dataset="imagenet").validate()
        with pytest.raises(ValueError, match="score kinds"):
            ExperimentConfig(score_kinds=("bogus",)).validate()

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("levels", 1),
            ("beta", 0.0),
            ("beta", -0.3),
            ("beta", float("nan")),
            ("beta", float("inf")),
            ("spike_classes", 0),
            ("spike_neurons", 0),
            ("spike_bins", 0),
            ("spike_per_class", 0),
            ("spike_ood", 0),
            ("spike_rate_scale", 0.0),
            ("spike_rate_scale", float("nan")),
            ("spike_rate_scale", float("inf")),
        ],
    )
    def test_every_knob_validated(self, knob, value):
        cfg = ExperimentConfig(dataset="spike_surrogate", repetitions=1, **{knob: value})
        with pytest.raises(ValueError, match=knob):
            cfg.validate()
        with pytest.raises(ValueError, match=knob):
            run_experiment(cfg)  # before the first repetition


class TestCoverageAcrossAlphas:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2])
    def test_marginal_band_holds_for_every_kind(self, alpha):
        cfg = ExperimentConfig(
            dataset="synthetic", alpha=alpha, repetitions=500, seed=13,
            n_per_class=(334, 333, 333), n_ood=0,
        )
        res = run_experiment(cfg)
        for m in res.methods:
            if m.method == "hdc":
                continue
            lo = (1 - alpha) - 3 * m.coverage_se
            hi = (1 - alpha) + 1.0 / 501.0 + 3 * m.coverage_se
            assert lo <= m.coverage <= hi, (alpha, m.method, m.coverage, lo, hi)


def _fancy_index_repetition(config, fractions, feats, labels, ood_feats, split_ss, enc_ss, u_ss):
    """One repetition with the rows encoded in input order and each fold copied out by fancy indexing."""
    labels = np.asarray(labels, dtype=np.int64)
    train, cal, test = split_data(labels.shape[0], SplitSpec(fractions, seed=split_ss))
    encoder = evaluation._build_encoder(config, feats, train, enc_ss)
    encoded = encoder.encode_batch(feats)
    encoded_ood = encoder.encode_batch(ood_feats) if len(ood_feats) else None
    folds = [(encoded[idx], labels[idx]) for idx in (train, np.concatenate([train, cal]), cal, test)]
    return evaluation._evaluate_folds(config, int(labels.max()) + 1, *folds, encoded_ood, u_ss)


def _letters_bundle(seed=0, n_classes=6, per_class=25, p=12):
    """An isolet-shaped bundle: real features, letters as label names."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), per_class)
    features = rng.normal(size=(n_classes, p))[labels] + rng.normal(0.0, 0.8, size=(labels.size, p))
    return DatasetBundle(features, labels, [chr(ord("A") + c) for c in range(n_classes)])


class TestRepetitionFolds:
    @pytest.mark.parametrize(
        "config, bundle",
        [
            (ExperimentConfig(dataset="synthetic", repetitions=4, seed=7, n_ood=40), None),
            (ExperimentConfig(dataset="synthetic", repetitions=3, seed=8, n_ood=0, conditional=True), None),
            (
                ExperimentConfig(dataset="isolet", d=256, repetitions=3, seed=9, ood_holdout=("F",)),
                _letters_bundle(),
            ),
            (ExperimentConfig(dataset="spike_surrogate", d=64, repetitions=2, seed=10), None),
        ],
    )
    def test_fold_views_match_fancy_index_copies(self, monkeypatch, config, bundle):
        # putting the codes in fold order and slicing the folds out as views
        # gives, bit for bit, the metrics of copying each fold out by fancy
        # indexing; the synthetic recipe's identity codes are its features,
        # which are copied, so only the isolet-style and spike cases put their
        # codes in fold order in place
        sliced = run_experiment(config, bundle)
        monkeypatch.setattr(evaluation, "_evaluate_repetition", _fancy_index_repetition)
        copied = run_experiment(config, bundle)
        assert sliced.label_names == copied.label_names
        for a, b in zip(sliced.methods, copied.methods, strict=True):
            for field in dataclasses.fields(a):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if x is None or isinstance(x, str):
                    assert x == y, field.name
                else:
                    assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field.name

    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_permute_rows_in_place(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
        for order in (np.arange(n), np.roll(np.arange(n), 1), rng.permutation(n)):
            b = a.copy()
            evaluation._permute_rows(b, order)
            np.testing.assert_array_equal(b, a[order])

    def test_identity_codes_do_not_alias_the_features(self):
        # the identity encoder passes its float64 input through; putting the
        # codes in fold order in place would shuffle the caller's features
        feats, labels, ood = generate_synthetic(SyntheticConfig(n_per_class=(20, 20, 20), n_ood=5, seed=1))
        kept = feats.copy()
        parts = np.random.SeedSequence(3).spawn(3)
        evaluation._evaluate_repetition(
            ExperimentConfig(dataset="synthetic"), (0.4, 0.5, 0.1), feats, labels, ood, *parts
        )
        np.testing.assert_array_equal(feats, kept)

    def test_spike_repetition_peak_memory_is_the_codes(self):
        # A repetition keeps two n x d arrays, the complex128 codes of the
        # inliers and of the OOD pool; beyond them it holds the FPE kernel's
        # blocks (about 4.6 MiB at d = 2048) and the trials (a few MiB). Copying
        # the train + calibration folds out of the codes by fancy indexing
        # added (n_train + n_cal) * d * 16 bytes (16.9 MiB here) and failed this.
        cfg = ExperimentConfig(dataset="spike_surrogate", d=2048, repetitions=1, seed=5)
        codes = (cfg.spike_classes * cfg.spike_per_class + cfg.spike_ood) * cfg.d * 16
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - codes <= 10 * 2**20
