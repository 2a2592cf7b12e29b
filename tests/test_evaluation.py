"""Splitting, metrics, and the repeated-experiment harness."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_hdc import classifier, evaluation
from conformal_hdc.classifier import prototypes_from_encoded
from conformal_hdc.conformal import (
    calibrate_conditional,
    calibrate_marginal,
    calibration_scores,
    ood_scores,
    point_labels_from_sets,
    score_matrix,
    sets_from_scores,
)
from conformal_hdc.datasets import DatasetBundle
from conformal_hdc.encoders import IdentityEncoder
from conformal_hdc.evaluation import (
    ExperimentConfig,
    Recipe,
    SplitSpec,
    _abstention_auc,
    average_set_size,
    empirical_coverage,
    ood_auc,
    point_accuracy,
    run_experiment,
    split_data,
)
from conformal_hdc.hypervectors import EPS, SIMILARITY_KINDS, similarity_matrix
from conformal_hdc.synthetic import SyntheticConfig, generate_synthetic


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


def make_sets(*members, k=3):
    """An (n, k) inclusion matrix whose row i holds the labels ``members[i]``."""
    include = np.zeros((len(members), k), dtype=bool)
    for row, labels in zip(include, members):
        row[list(labels)] = True
    return include


class TestMetrics:
    def test_coverage_full_sets(self):
        assert empirical_coverage(np.ones((4, 3), dtype=bool), [0, 1, 2, 0]) == 1.0

    def test_coverage_empty_sets(self):
        assert empirical_coverage(np.zeros((3, 3), dtype=bool), [0, 1, 2]) == 0.0

    def test_coverage_hand_count(self):
        assert empirical_coverage(make_sets([0], [1], [0]), [0, 0, 0]) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("sets", [np.zeros((0, 3), dtype=bool), np.zeros((2, 0, 3), dtype=bool)],
                             ids=["matrix", "leading_axes"])
    def test_coverage_of_no_sets_rejected(self, sets):
        with pytest.raises(ValueError, match="at least one prediction set"):
            empirical_coverage(sets, [])

    def test_coverage_length_mismatch(self):
        with pytest.raises(ValueError):
            empirical_coverage(make_sets([0]), [0, 1])

    @pytest.mark.parametrize("labels", [[0.5, 2.9], [-1, 0], [0, 3], [0, 7]])
    def test_coverage_rejects_labels_that_are_not_class_indices(self, labels):
        with pytest.raises(ValueError):
            empirical_coverage(np.ones((2, 3), dtype=bool), labels)
        # with leading axes K is still the last axis
        with pytest.raises(ValueError):
            empirical_coverage(np.ones((4, 2, 3), dtype=bool), labels)

    @pytest.mark.parametrize("labels", [[0.0, 1.0], [-1, 0]])
    def test_point_accuracy_rejects_labels_that_are_not_class_indices(self, labels):
        with pytest.raises(ValueError):
            point_accuracy([0, 1], labels)

    def test_label_below_class_count_is_graded(self):
        # K = 5 from the matrix, though no set holds label 4
        assert empirical_coverage(make_sets([0], [1], k=5), [0, 4]) == 0.5
        assert point_accuracy([0, 1], [0, 4]) == 0.5

    @pytest.mark.parametrize("sets", [np.ones((2, 3)), np.ones(3, dtype=bool)], ids=["float", "one_row"])
    def test_metrics_take_boolean_inclusion_matrices(self, sets):
        with pytest.raises(ValueError, match="boolean inclusion matrix"):
            empirical_coverage(sets, [0, 1])
        with pytest.raises(ValueError, match="boolean inclusion matrix"):
            average_set_size(sets)

    def test_size_examples(self):
        assert average_set_size(make_sets([0], [1])) == 1.0
        assert average_set_size(make_sets([], [0], [0, 1, 2])) == pytest.approx(4 / 3)
        assert average_set_size(make_sets([], [])) == 0.0
        with pytest.raises(ValueError):
            average_set_size(np.zeros((0, 3), dtype=bool))

    def test_point_accuracy_flag_behavior(self):
        picks = [0, -1, 1]  # -1: an abstention
        labels = [0, 1, 1]
        assert point_accuracy(picks, labels, count_empty_as_error=True) == pytest.approx(2 / 3)
        assert point_accuracy(picks, labels, count_empty_as_error=False) == 1.0
        with pytest.raises(ValueError, match="no predictions left"):
            point_accuracy([-1, -1], [0, 1], count_empty_as_error=False)

    @pytest.mark.parametrize("picks", [make_sets([0, 1]), [0.0], [-2]], ids=["inclusion", "float", "below_-1"])
    def test_point_accuracy_rejects_picks_that_are_not_labels(self, picks):
        with pytest.raises(ValueError):
            point_accuracy(picks, [0])

    def test_leading_axes_equal_one_call_per_index(self):
        rng = np.random.default_rng(12)
        include = rng.uniform(size=(4, 30, 5)) < 0.4
        labels = rng.integers(0, 5, size=30)
        picks = rng.integers(-1, 5, size=(4, 30))
        got = (
            empirical_coverage(include, labels),
            average_set_size(include),
            point_accuracy(picks, labels),
            point_accuracy(picks, labels, count_empty_as_error=False),
        )
        for g in got:
            assert g.shape == (4,)
        for i in range(4):
            assert got[0][i] == empirical_coverage(include[i], labels)
            assert got[1][i] == average_set_size(include[i])
            assert got[2][i] == point_accuracy(picks[i], labels)
            assert got[3][i] == point_accuracy(picks[i], labels, count_empty_as_error=False)

    def test_labels_with_leading_axes_equal_one_call_per_row(self):
        # one row of labels per repetition, broadcast against the kinds axis
        rng = np.random.default_rng(13)
        include = rng.uniform(size=(3, 4, 30, 5)) < 0.4
        labels = rng.integers(0, 5, size=(4, 30))
        picks = rng.integers(-1, 5, size=(3, 4, 30))
        coverage, accuracy = empirical_coverage(include, labels), point_accuracy(picks, labels)
        assert coverage.shape == accuracy.shape == (3, 4)
        for i, g in np.ndindex(3, 4):
            assert coverage[i, g] == empirical_coverage(include[i, g], labels[g])
            assert accuracy[i, g] == point_accuracy(picks[i, g], labels[g])
        with pytest.raises(ValueError, match="equal length"):
            empirical_coverage(include, labels[:3])
        with pytest.raises(ValueError, match="equal length"):
            point_accuracy(picks[0], np.stack([labels] * 2))
        with pytest.raises(ValueError):
            empirical_coverage(include, labels - 1)  # a -1 label

    def test_auc_examples(self):
        assert ood_auc([0.1, 0.2], [0.3, 0.4]) == 1.0
        assert ood_auc([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) == 0.5
        assert ood_auc([0.1, 0.3], [0.2, 0.4]) == 0.75

    def test_auc_empty_rejected(self):
        with pytest.raises(ValueError):
            ood_auc([], [0.1])

    @pytest.mark.parametrize(
        "inl, ood",
        [([0.1, np.nan], [0.2, 0.3]), ([0.1, 0.15], [0.2, np.nan]), ([0.1, np.inf], [0.2]), ([0.1], [-np.inf])],
    )
    def test_auc_non_finite_rejected(self, inl, ood):
        with pytest.raises(ValueError, match="NaN or infinite"):
            ood_auc(inl, ood)

    def test_auc_leading_axes_must_match(self):
        with pytest.raises(ValueError, match="leading axes"):
            ood_auc(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_auc_ranks_each_row_of_a_batch(self):
        rng = np.random.default_rng(4)
        # few distinct values: many ties within and across the two groups
        inl = rng.integers(0, 5, size=(2, 3, 30)) / 4.0
        ood = rng.integers(0, 6, size=(2, 3, 45)) / 4.0
        got = ood_auc(inl, ood)
        assert got.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert got[idx] == ood_auc(inl[idx], ood[idx]) == _reference_ood_auc(inl[idx], ood[idx])

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=25),
        st.lists(st.integers(-3, 3), min_size=1, max_size=25),
    )
    @settings(max_examples=80, deadline=None)
    def test_auc_bit_identical_to_unique_midranks(self, inl, ood):
        inl, ood = np.asarray(inl) / 3.0, np.asarray(ood) / 3.0
        assert ood_auc(inl, ood) == _reference_ood_auc(inl, ood)

    @given(
        st.integers(1, 3), st.integers(1, 4), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1)
    )
    @settings(max_examples=100, deadline=None)
    def test_counted_abstention_auc_bit_identical(self, kinds, groups, n_in, n_ood, seed):
        rng = np.random.default_rng(seed)
        # each (kind, repetition) row abstains on none, some or all of its inputs
        rates = rng.choice([0.0, 0.3, 1.0], size=(2, kinds, groups, 1))
        test_abstain = rng.random((kinds, groups, n_in)) < rates[0]
        ood_abstain = rng.random((kinds, groups, n_ood)) < rates[1]
        got = _abstention_auc(test_abstain, ood_abstain)
        want = ood_auc(test_abstain.astype(np.float64), ood_abstain.astype(np.float64))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

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

    def test_one_repetition_conditional_has_zero_label_se(self):
        # tier-1 turns a RuntimeWarning into an error: the one-value SE must not warn
        cfg = ExperimentConfig(dataset="synthetic", repetitions=1, seed=1, conditional=True)
        for m in run_experiment(cfg).methods[1:]:
            assert m.coverage_se == 0.0
            np.testing.assert_array_equal(m.label_coverage_se, np.zeros(3))
            assert np.all(np.isfinite(m.label_coverage))

    def test_label_absent_from_every_test_fold_has_nan_coverage(self):
        # 15 inliers leave one test point, so two labels never reach a test
        # fold; their mean coverage is NaN without a "Mean of empty slice"
        # RuntimeWarning, which tier-1 turns into an error
        cfg = ExperimentConfig(
            dataset="synthetic", repetitions=1, seed=7, conditional=True, n_per_class=(5, 5, 5), n_ood=5
        )
        for m in run_experiment(cfg).methods[1:]:
            assert np.isnan(m.label_coverage).sum() == 2, m.label_coverage
            tested = np.isfinite(m.label_coverage)
            assert m.label_coverage[tested][0] in (0.0, 1.0)
            np.testing.assert_array_equal(m.label_coverage_se, np.zeros(3))

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


def _blobs(config, seed):
    """Two Gaussian classes in four dimensions and a third blob as the OOD pool."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(2), 30)
    feats = rng.normal(size=(60, 4)) + 3.0 * labels[:, None]
    return feats, labels, rng.normal(-3.0, 1.0, size=(config.n_ood, 4)), ["a", "b"]


class TestRecipeTable:
    def test_a_toy_recipe_is_one_table_entry(self, monkeypatch):
        toy = Recipe(
            (0.5, 0.3, 0.2), (), "centroid", "inverse_euclidean",
            encoder=lambda config, x, train_idx, seed: IdentityEncoder(p=x.shape[1]),
            generate=_blobs, echo=("n_ood",),
        )
        monkeypatch.setitem(evaluation.RECIPES, "toy", toy)
        config = ExperimentConfig(dataset="toy", repetitions=3, seed=2, n_ood=10)
        result = run_experiment(config)
        assert config.resolved_fractions() == (0.5, 0.3, 0.2) and config.resolved_holdout() == ()
        assert result.label_names == ["a", "b"]
        assert result.config["fractions"] == [0.5, 0.3, 0.2] and result.config["n_ood"] == 10
        assert result.methods[0].accuracy > 0.9
        assert all(np.isfinite(m.auc) for m in result.methods[1:])

    def test_every_recipe_has_a_known_style_kind_and_one_data_source(self):
        for name, recipe in evaluation.RECIPES.items():
            assert recipe.style in classifier.PROTOTYPE_STYLES, name
            assert recipe.similarity in SIMILARITY_KINDS, name
            assert (recipe.generate is None) != (recipe.ingest is None), name
            assert set(recipe.checked_keys) <= set(recipe.path_keys), name
            SplitSpec(recipe.fractions)

    def test_holdout_partition_relabels_kept_classes_densely(self):
        names = list("ABCDE")
        labels = np.array([4, 0, 1, 3, 2, 4, 1, 0, 3])
        bundle = DatasetBundle(np.arange(9.0)[:, None], labels, names)
        feats, dense, ood, kept = evaluation._holdout_partition(bundle, ("B", "D"))
        assert kept == ["A", "C", "E"]
        remap = {0: 0, 2: 1, 4: 2}
        inliers = labels[~np.isin(labels, [1, 3])]
        assert dense.dtype == np.int64
        np.testing.assert_array_equal(dense, [remap[y] for y in inliers])
        np.testing.assert_array_equal(feats[:, 0], np.flatnonzero(~np.isin(labels, [1, 3])))
        np.testing.assert_array_equal(ood[:, 0], np.flatnonzero(np.isin(labels, [1, 3])))

    def test_holdout_partition_rejects_a_label_without_a_name(self):
        bundle = DatasetBundle(np.zeros((3, 1)), [0, 1, 3], ["A", "B", "C"])
        with pytest.raises(ValueError, match="range"):
            evaluation._holdout_partition(bundle, ("B",))


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


def _reference_ood_auc(inlier_scores, ood_scores_) -> float:
    """P(ood > inlier) + 0.5 * P(tie) from the midranks of ``np.unique`` (one pair of 1-D lists)."""
    inl = np.asarray(inlier_scores, dtype=np.float64).ravel()
    ood = np.asarray(ood_scores_, dtype=np.float64).ravel()
    _, inverse, counts = np.unique(np.concatenate([inl, ood]), return_inverse=True, return_counts=True)
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    u = midranks[inverse][inl.size :].sum() - ood.size * (ood.size + 1) / 2.0
    return float(u / (inl.size * ood.size))


def _per_kind_profiles(config, rep):
    """One repetition's metrics scored, calibrated and graded one score kind at a time."""
    rows, prof_full_test, y_cal, y_test, u_ss = rep
    prof_cal, prof_test, prof_ood = np.split(rows, np.cumsum([y_cal.shape[0], y_test.shape[0]]))
    n_classes = rows.shape[1]
    u_rng = np.random.default_rng(u_ss)
    u_cal = u_rng.uniform(size=prof_cal.shape[0])
    u_test = u_rng.uniform(size=prof_test.shape[0])
    u_ood = u_rng.uniform(size=prof_ood.shape[0])
    baseline_acc = float((np.argmax(prof_full_test, axis=1) == y_test).mean())
    out = {
        evaluation.METHOD_HDC: {
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
    }
    for kind in config.score_kinds:
        kw = dict(lam=config.lam, temperature=config.temperature)
        cal_scores = calibration_scores(prof_cal, y_cal, kind, u=u_cal, **kw)
        if config.conditional:
            calibrator = calibrate_conditional(cal_scores, y_cal, config.alpha, n_classes)
        else:
            calibrator = calibrate_marginal(cal_scores, config.alpha)
        thresholds = calibrator.thresholds(n_classes)
        test_scores = score_matrix(prof_test, kind, u=u_test, **kw)
        include = sets_from_scores(test_scores, thresholds)
        sizes = include.sum(axis=1)
        coverage = float(include[np.arange(y_test.shape[0]), y_test].mean())
        picks = point_labels_from_sets(include, test_scores, allow_empty=False)
        accuracy = float((picks == y_test).mean())
        auc = minscore_auc = ood_empty_rate = float("nan")
        if prof_ood.shape[0] > 0:
            ood_mat = score_matrix(prof_ood, kind, u=u_ood, **kw)
            ood_abstain = ~sets_from_scores(ood_mat, thresholds).any(axis=1)
            test_abstain = sizes == 0
            auc = _reference_ood_auc(test_abstain.astype(np.float64), ood_abstain.astype(np.float64))
            minscore_auc = _reference_ood_auc(ood_scores(test_scores), ood_scores(ood_mat))
            ood_empty_rate = float(ood_abstain.mean())
        label_coverage = label_upper_slack = None
        if config.conditional:
            label_coverage = np.full(n_classes, np.nan)
            for y in range(n_classes):
                mask = y_test == y
                if mask.any():
                    label_coverage[y] = float(include[mask, y].mean())
            label_upper_slack = 1.0 / (1.0 + calibrator.counts.astype(np.float64))
        out[kind] = {
            "coverage": coverage,
            "size": float(sizes.mean()),
            "accuracy": accuracy,
            "auc": auc,
            "minscore_auc": minscore_auc,
            "empty_rate": float((sizes == 0).mean()),
            "ood_empty_rate": ood_empty_rate,
            "label_coverage": label_coverage,
            "label_upper_slack": label_upper_slack,
        }
    return out


def _assert_same_methods(got, want):
    """Every ``MethodMetrics`` field equal byte for byte (NaN included)."""
    assert [m.method for m in got] == [m.method for m in want]
    for a, b in zip(got, want):
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if x is None or isinstance(x, str):
                assert x == y, (a.method, field.name)
            else:
                assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), (a.method, field.name, x, y)


def _fancy_index_repetition(config, fractions, feats, labels, ood_feats, split_ss, enc_ss, u_ss):
    """One repetition with every row encoded at once and each fold copied out by fancy indexing."""
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    train, cal, test = split_data(labels.shape[0], SplitSpec(fractions, seed=split_ss))
    recipe = evaluation.RECIPES[config.dataset]
    encoder = recipe.encoder(config, feats, train, enc_ss)
    style, kind = recipe.style, recipe.similarity
    encoded = encoder.encode_batch(feats)
    full = np.concatenate([train, cal])
    protos_train = prototypes_from_encoded(encoded[train], labels[train], n_classes, style)
    protos_full = prototypes_from_encoded(encoded[full], labels[full], n_classes, style)
    rows = [similarity_matrix(encoded[cal], protos_train, kind), similarity_matrix(encoded[test], protos_train, kind)]
    if len(ood_feats):
        rows.append(similarity_matrix(encoder.encode_batch(ood_feats), protos_train, kind))
    full_test = similarity_matrix(encoded[test], protos_full, kind)
    return evaluation._Profiles(np.concatenate(rows), full_test, labels[cal], labels[test], u_ss)


def _letters_bundle(seed=0, n_classes=6, per_class=25, p=12):
    """An isolet-shaped bundle: real features, letters as label names."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), per_class)
    features = rng.normal(size=(n_classes, p))[labels] + rng.normal(0.0, 0.8, size=(labels.size, p))
    return DatasetBundle(features, labels, [chr(ord("A") + c) for c in range(n_classes)])


def _profiles_seen(monkeypatch, run):
    """The profile arrays ``run()`` hands to the metrics, one tuple per repetition."""
    seen = []
    grade = evaluation._evaluate_group

    def record(config, group):
        seen.extend((r.rows, r.full_test) for r in group)
        return grade(config, group)

    monkeypatch.setattr(evaluation, "_evaluate_group", record)
    result = run()
    monkeypatch.setattr(evaluation, "_evaluate_group", grade)
    return result, seen


class TestStreamedRepetition:
    @pytest.mark.parametrize("chunk_bytes", [None, 16 * 64 * 7], ids=["default", "several_chunks"])
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
    def test_matches_encoding_every_row_at_once(self, monkeypatch, config, bundle, chunk_bytes):
        # The small budget makes chunks of 7 spike rows, 224 synthetic rows
        # (d = 2) and 1 isolet row (d = 256), so every fold spans several.
        if chunk_bytes is not None:
            monkeypatch.setattr(classifier, "_CHUNK_BYTES", chunk_bytes)
        streamed, got = _profiles_seen(monkeypatch, lambda: run_experiment(config, bundle))
        monkeypatch.setattr(evaluation, "_evaluate_repetition", _fancy_index_repetition)
        copied, want = _profiles_seen(monkeypatch, lambda: run_experiment(config, bundle))
        assert len(got) == len(want) == config.repetitions
        for g, w in zip(got, want):
            for a, b in zip(g, w, strict=True):
                if config.dataset == "isolet":
                    # bipolar codes: integer sums and dots, exact in any order
                    assert a.tobytes() == b.tobytes()
                elif config.dataset == "synthetic":
                    # centroids summed in another order: the squared distances
                    # behind the inverse-distance profiles agree within 2**-40
                    # (seen: within 2**-42 at chunks of one row)
                    np.testing.assert_allclose((1 / a - EPS) ** 2, (1 / b - EPS) ** 2, rtol=0, atol=2.0**-40)
                else:
                    # complex sums and dots in another order and in other
                    # product shapes: within 2**-40 (seen: 72 eps, about 2**-46)
                    np.testing.assert_allclose(a, b, rtol=0, atol=2.0**-40)
        if config.dataset == "isolet":
            assert streamed.label_names == copied.label_names
            for a, b in zip(streamed.methods, copied.methods, strict=True):
                for field in dataclasses.fields(a):
                    x, y = getattr(a, field.name), getattr(b, field.name)
                    if x is None or isinstance(x, str):
                        assert x == y, field.name
                    else:
                        assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field.name

    def test_identity_codes_do_not_alias_the_features(self):
        # the identity encoder passes its float64 input through; the
        # repetition must leave the caller's features as they were
        feats, labels, ood = generate_synthetic(SyntheticConfig(n_per_class=(20, 20, 20), n_ood=5, seed=1))
        kept = feats.copy()
        parts = np.random.SeedSequence(3).spawn(3)
        evaluation._evaluate_repetition(
            ExperimentConfig(dataset="synthetic"), (0.4, 0.5, 0.1), feats, labels, ood, *parts
        )
        np.testing.assert_array_equal(feats, kept)

    def test_spike_repetition_peak_memory_does_not_grow_with_n(self):
        # One repetition holds a chunk of codes (256 rows at d = 2048) besides
        # the K x d sums and the (n, K) profiles. Holding every row's
        # complex128 codes, as the harness once did, puts the peak at 4n about
        # (2400 - 600) * 2048 * 16 bytes = 56 MiB above the peak at n.
        peaks = []
        for per_class in (150, 600):
            cfg = ExperimentConfig(dataset="spike_surrogate", d=2048, repetitions=1, seed=5, spike_per_class=per_class)
            data_ss, split_ss, enc_ss, u_ss = evaluation._rep_seed_parts(cfg.seed, 0)
            feats, labels, ood, _ = evaluation.RECIPES[cfg.dataset].generate(cfg, data_ss)
            tracemalloc.start()
            try:
                evaluation._evaluate_repetition(
                    cfg, cfg.resolved_fractions(), feats, labels, ood, split_ss, enc_ss, u_ss
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2 * 2**20, peaks


_BATCHED_CASES = pytest.mark.parametrize(
    "config, bundle",
    [
        (ExperimentConfig(dataset="synthetic", repetitions=6, seed=7, n_ood=60), None),
        (ExperimentConfig(dataset="synthetic", repetitions=6, seed=7, n_ood=60, conditional=True), None),
        (ExperimentConfig(dataset="synthetic", repetitions=4, seed=8, n_ood=0, conditional=True), None),
        (ExperimentConfig(dataset="synthetic", repetitions=3, seed=9, score_kinds=()), None),
        (ExperimentConfig(dataset="synthetic", repetitions=3, seed=9, score_kinds=("inverse_quantile",)), None),
        (
            ExperimentConfig(dataset="isolet", d=256, repetitions=4, seed=9, ood_holdout=("F",), conditional=True),
            _letters_bundle(),
        ),
        (ExperimentConfig(dataset="isolet", d=256, repetitions=4, seed=9, ood_holdout=("F",)), _letters_bundle()),
        (ExperimentConfig(dataset="spike_surrogate", d=64, repetitions=4, seed=10), None),
        (ExperimentConfig(dataset="spike_surrogate", d=64, repetitions=4, seed=10, conditional=True), None),
    ],
    ids=[
        "synthetic-marginal", "synthetic-conditional", "no-ood", "no-kinds", "one-kind",
        "isolet-conditional", "isolet-marginal", "spike-d64-marginal", "spike-d64-conditional",
    ],
)


def _stacked(config, graded):
    """Per-repetition metric dicts as ``_evaluate_group`` returns a group's: one (methods, G) array each."""
    methods = [evaluation.METHOD_HDC, *config.score_kinds]
    out = {key: np.array([[rep[m][key] for rep in graded] for m in methods]) for key in evaluation._METRICS}
    if config.conditional and config.score_kinds:
        n_classes = graded[0][config.score_kinds[0]]["label_coverage"].shape[0]
        for key in ("label_coverage", "label_upper_slack"):
            none = np.full(n_classes, np.nan)
            out[key] = np.array([[none if rep[m][key] is None else rep[m][key] for rep in graded] for m in methods])
    return out


def _grade_one_at_a_time(monkeypatch):
    """Grade every repetition alone, one score kind at a time, with the reference."""
    monkeypatch.setattr(
        evaluation, "_evaluate_group",
        lambda config, reps: _stacked(config, [_per_kind_profiles(config, r) for r in reps]),
    )


class TestBatchedMetrics:
    @_BATCHED_CASES
    def test_matches_scoring_one_kind_at_a_time(self, monkeypatch, config, bundle):
        grouped = run_experiment(config, bundle)
        _grade_one_at_a_time(monkeypatch)
        _assert_same_methods(grouped.methods, run_experiment(config, bundle).methods)

    @_BATCHED_CASES
    @pytest.mark.parametrize("group", [1, 3, "all"], ids=["groups_of_1", "groups_of_3", "one_group"])
    def test_forced_groups_match_grading_one_repetition_at_a_time(self, monkeypatch, config, bundle, group):
        # the budget holds `group` repetitions' float64 scores over all kinds
        size = config.repetitions if group == "all" else group
        monkeypatch.setattr(evaluation, "_GROUP_BYTES", size * _scores_bytes(config, bundle))
        sizes = []
        grade = evaluation._evaluate_group

        def record(config, reps):
            sizes.append(len(reps))
            return grade(config, reps)

        monkeypatch.setattr(evaluation, "_evaluate_group", record)
        grouped = run_experiment(config, bundle)
        full, rest = divmod(config.repetitions, size)
        assert sizes == [size] * full + [rest] * (rest > 0)
        _grade_one_at_a_time(monkeypatch)
        _assert_same_methods(grouped.methods, run_experiment(config, bundle).methods)

    def test_grading_peak_memory_does_not_grow_with_repetitions(self):
        # One pass over all 64 repetitions would stack 64 * 132 kB = 8 MiB of
        # scores. In groups of 6 under the 896 KiB budget both runs hold one
        # full group at their peak, and the 64-repetition run adds only its
        # 56 more repetitions' metrics, 7 floats per method each; the slack
        # is 512 KiB.
        peaks = []
        for reps in (8, 64):
            tracemalloc.start()
            try:
                run_experiment(ExperimentConfig(dataset="synthetic", repetitions=reps, seed=6))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < evaluation._GROUP_BYTES + 2**19, peaks


def _scores_bytes(config, bundle):
    """Bytes of one repetition's float64 scores over all kinds: the grading budget's unit."""
    data_ss, split_ss, enc_ss, u_ss = evaluation._rep_seed_parts(config.seed, 0)
    if bundle is None:
        feats, labels, ood, _ = evaluation.RECIPES[config.dataset].generate(config, data_ss)
    else:
        feats, labels, ood, _ = evaluation._holdout_partition(bundle, config.resolved_holdout())
    rep = evaluation._evaluate_repetition(
        config, config.resolved_fractions(), feats, labels, ood, split_ss, enc_ss, u_ss
    )
    return 8 * rep.rows.size * max(1, len(config.score_kinds))
