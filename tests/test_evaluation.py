"""Splitting, metrics, and the repeated-experiment harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_hdc.conformal import PredictionSet
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
