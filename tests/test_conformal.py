"""Nonconformity scores, calibration quantiles, and prediction sets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_hdc.classifier import train_prototypes
from conformal_hdc.conformal import (
    SCORE_KINDS,
    Calibrator,
    _argmin_classes,
    _fold_classes,
    calibrate_conditional,
    calibrate_marginal,
    calibration_scores,
    ood_scores,
    point_labels_from_sets,
    predict_point,
    predict_set_conditional,
    predict_set_marginal,
    predict_sets,
    quantile_index,
    score_matrix,
    sets_from_scores,
    softmax,
)
from conformal_hdc.encoders import IdentityEncoder

PROFILE = np.array([0.8, 0.1, 0.1])

def score(profile, y, kind, **kw):
    """Score of label ``y`` for one profile: row 0 of ``score_matrix`` on a batch of one."""
    return score_matrix(np.asarray(profile, dtype=np.float64)[None, :], kind, **kw)[0, y]


profiles_01 = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=8
).filter(lambda p: sum(p) > 1e-9)


class TestScores:
    def test_hand_values(self):
        assert score(PROFILE, 0, "similarity") == pytest.approx(-0.8)
        assert score(PROFILE, 0, "ratio") == pytest.approx(-0.8)
        assert score(PROFILE, 0, "discount") == pytest.approx(-0.64)
        assert score(PROFILE, 0, "penalized", lam=0.5) == pytest.approx(-0.7)

    def test_uniform_profile_discount(self):
        assert score([0.5, 0.5], 0, "discount") == pytest.approx(-0.25)

    @given(profiles_01, st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_penalized_lambda_zero_is_similarity(self, profile, y):
        y = y % len(profile)
        a = score(profile, y, "penalized", lam=0.0)
        b = score(profile, y, "similarity")
        assert a == pytest.approx(b, abs=1e-12)

    @given(profiles_01, st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_discount_is_ratio_times_delta(self, profile, y):
        y = y % len(profile)
        ratio = score(profile, y, "ratio")
        discount = score(profile, y, "discount")
        assert discount == pytest.approx(ratio * profile[y], abs=1e-12)
        # entries in [0, 1] keep |discount| <= |ratio|, so discount >= ratio
        assert discount >= ratio - 1e-12

    def test_all_zero_profile_scores_zero_for_ratio_kinds(self):
        # 0 is the supremum of both scores, so the row abstains under any
        # threshold below it, and rows with a nonzero sum keep their scores
        calib = Calibrator(q_hat=-0.05, alpha=0.1, counts=10)
        for kind in ("ratio", "discount"):
            scores = score_matrix(np.array([[0.0, 0.0, 0.0], PROFILE]), kind)
            assert scores[0].tolist() == [0.0, 0.0, 0.0]
            np.testing.assert_array_equal(scores[1], score_matrix(PROFILE, kind)[0])
            assert score([0.0, 0.0], 0, kind) == 0.0
            ps = predict_set_marginal(_ProfileModel([0.0, 0.0, 0.0]), calib, None, kind)
            assert len(ps) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_profile_rejected(self, bad):
        profiles = np.array([[0.5, 0.2], [bad, 0.1]])
        for kind in SCORE_KINDS:
            with pytest.raises(ValueError, match="NaN or infinite"):
                score_matrix(profiles, kind, u=np.full(2, 0.5))
        # the calibration path: a NaN score would shift the order statistic
        with pytest.raises(ValueError, match="NaN or infinite"):
            calibration_scores(profiles, [0, 1], "similarity")

    def test_negative_profile_rejected(self):
        with pytest.raises(ValueError):
            score([0.5, -0.1], 0, "similarity")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            score([0.5, 0.5], 0, "entropy")


class TestInverseQuantileScore:
    # a nonnegative profile whose softmax is exactly [0.6, 0.3, 0.1]
    PI_PROFILE = np.log(np.array([0.6, 0.3, 0.1])) - np.log(0.1)

    def test_top_class_u_one_scores_zero(self):
        assert score(self.PI_PROFILE, 0, "inverse_quantile", u=[1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_top_class_u_zero(self):
        assert score(self.PI_PROFILE, 0, "inverse_quantile", u=[0.0]) == pytest.approx(-0.6)

    def test_middle_class_cumulative(self):
        # mass through rank 2 is 0.9; u removes a fraction of 0.3
        assert score(self.PI_PROFILE, 1, "inverse_quantile", u=[0.0]) == pytest.approx(-0.9)
        assert score(self.PI_PROFILE, 1, "inverse_quantile", u=[1.0]) == pytest.approx(-0.6)

    def test_uniform_profile_rank_tie_break(self):
        k = 4
        profile = np.full(k, 0.25)
        for y in range(k):
            pre = -score(profile, y, "inverse_quantile", u=[0.0])
            assert pre == pytest.approx((y + 1) / k)
            assert 1.0 / k - 1e-12 <= pre <= 1.0 + 1e-12

    def test_u_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            score([0.5, 0.5], 0, "inverse_quantile", u=[1.5])

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            score([0.5, 0.5], 0, "inverse_quantile", u=[0.5], temperature=0.0)

    def test_softmax_rows_sum_to_one(self):
        z = np.random.default_rng(0).normal(size=(5, 4))
        np.testing.assert_allclose(softmax(z, axis=1).sum(axis=1), 1.0)


class TestQuantileIndex:
    def test_hand_indices(self):
        assert quantile_index(4, 0.25) == 4
        assert quantile_index(9, 0.1) == 9
        assert quantile_index(3, 0.1) == 4
        assert quantile_index(500, 0.1) == 451

    @given(st.integers(1, 5000), st.integers(1, 99))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_rational_arithmetic(self, n, alpha_pct):
        alpha = alpha_pct / 100.0
        want = math.ceil(Fraction(100 - alpha_pct, 100) * (n + 1))
        assert quantile_index(n, alpha) == want


    @pytest.mark.parametrize("alpha", [0.1, 0.05, 0.2, 0.3, 1 - 1e-11, 1e-9])
    def test_array_of_counts_matches_each_count(self, alpha):
        n = np.arange(0, 3000)
        got = quantile_index(n, alpha)
        assert got.dtype == np.int64 and got.shape == n.shape
        assert got.tolist() == [quantile_index(int(c), alpha) for c in n]
        assert type(quantile_index(7, alpha)) is int

    def test_alpha_near_one_never_snaps_below_the_first_order_statistic(self):
        # (1 - alpha)(n + 1) within 1e-9 (n + 1) of 0 used to snap to index
        # 0, which makes the largest score the threshold
        assert quantile_index(4, 1 - 1e-11) == 1
        assert quantile_index(4, 1 - 1e-6) == 1


class TestCalibration:
    def test_marginal_alpha_near_one_takes_the_smallest_score(self):
        scores = [-3.0, -1.0, 5.0, 2.0, 0.0]
        assert calibrate_marginal(scores, 1 - 1e-11).q_hat == -3.0
        assert calibrate_marginal(scores, 1 - 1e-6).q_hat == -3.0

    def test_conditional_alpha_near_one_takes_each_stratum_smallest_score(self):
        scores = [-3.0, -1.0, 5.0, 2.0, 0.0, 4.0]
        labels = [0, 1, 0, 1, 0, 1]
        for alpha in (1 - 1e-11, 1 - 1e-6):
            cal = calibrate_conditional(scores, labels, alpha, 2)
            assert cal.thresholds(2).tolist() == [-3.0, -1.0]

    @pytest.mark.parametrize(
        "labels", [[-1, 0], [0, 3], [0.7, 1.2], np.array([0.0, 1.0])], ids=["negative", "past_k", "float", "whole_floats"]
    )
    def test_scores_reject_labels_that_are_not_class_indices(self, labels):
        profiles = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        with pytest.raises(ValueError):
            calibration_scores(profiles, labels, "similarity")

    def test_scores_reject_a_label_count_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            calibration_scores(np.array([[0.2, 0.8], [0.6, 0.4]]), [1], "similarity")

    @pytest.mark.parametrize("labels", [[-1, 0, 1], [0, 1, 2], [0.7, 1.2, 0.0]])
    def test_conditional_rejects_labels_that_are_not_class_indices(self, labels):
        with pytest.raises(ValueError):
            calibrate_conditional(np.array([0.1, 0.2, 0.3]), labels, 0.1, 2)

    def test_hand_examples(self):
        assert calibrate_marginal([0.1, 0.2, 0.3, 0.4], 0.25).q_hat == pytest.approx(0.4)
        scores9 = [0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6]
        assert calibrate_marginal(scores9, 0.1).q_hat == pytest.approx(0.9)
        assert calibrate_marginal([0.1, 0.2, 0.3], 0.1).q_hat == np.inf

    def test_duplicates_count_with_multiplicity(self):
        # sorted multiset: [1, 1, 1, 2]; index ceil(0.75 * 5) = 4 -> 2
        assert calibrate_marginal([1.0, 1.0, 1.0, 2.0], 0.25).q_hat == pytest.approx(2.0)
        # index 3 of the same multiset -> 1
        assert calibrate_marginal([1.0, 1.0, 1.0, 2.0], 0.4).q_hat == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_marginal([], 0.1)
        with pytest.raises(ValueError, match="nonempty"):
            calibrate_marginal(np.zeros((3, 0)), 0.1)

    def test_single_marginal_threshold_is_zero_dimensional(self):
        calib = calibrate_marginal([0.4, 0.1, 0.3, 0.2], 0.25)
        assert calib.q_hat.shape == calib.counts.shape == () and not calib.per_label
        assert calib.q_hat == 0.4 and calib.counts == 4
        assert calib.thresholds(3).tolist() == [0.4, 0.4, 0.4]

    def test_two_dimensional_scores_are_calibrated_row_by_row(self):
        # rows are separate calibration sets, not one flattened set
        scores = np.array([[0.1, 0.2, 0.3, 0.4], [1.0, 3.0, 2.0, 4.0]])
        calib = calibrate_marginal(scores, 0.4)
        assert calib.q_hat.tolist() == [0.3, 3.0] and calib.counts.tolist() == [4, 4]
        assert calib.thresholds(2).tolist() == [[0.3, 0.3], [3.0, 3.0]]

    def test_calibrators_compare_and_hash_by_identity(self):
        # a generated == on the array fields raised for per-label thresholds,
        # and the generated __hash__ raised for every calibrator
        per_label = calibrate_conditional([0.1, 0.2, 0.3], [0, 1, 0], 0.1, 2)
        same = calibrate_conditional([0.1, 0.2, 0.3], [0, 1, 0], 0.1, 2)
        marginal = calibrate_marginal([0.1, 0.2, 0.3], 0.1)
        assert per_label == per_label and per_label != same and marginal != per_label
        assert len({per_label, same, marginal, per_label}) == 3
        assert hash(marginal) == hash(marginal)

    def test_conditional_with_leading_axes(self):
        scores = np.array([[0.1, 0.2, 0.3, 0.4], [1.0, 3.0, 2.0, 4.0]])
        labels = np.array([[0, 0, 1, 1], [1, 1, 1, 0]])
        calib = calibrate_conditional(scores, labels, 0.5, 3)
        assert calib.per_label and calib.q_hat.shape == calib.counts.shape == (2, 3)
        assert calib.counts.tolist() == [[2, 2, 0], [1, 3, 0]]
        # index ceil(0.5 * 2) = 1 of one score, ceil(0.5 * 3) = 2 of two and
        # ceil(0.5 * 4) = 2 of three; an absent label gets +inf
        assert calib.q_hat.tolist() == [[0.2, 0.4, np.inf], [4.0, 2.0, np.inf]]
        assert calib.thresholds(3) is calib.q_hat
        with pytest.raises(ValueError, match="class count"):
            calib.thresholds(4)

    def test_conditional_labels_must_match_the_scores_shape(self):
        with pytest.raises(ValueError, match="equal length"):
            calibrate_conditional(np.zeros((2, 4)), [0, 1, 0, 1], 0.1, 2)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            calibrate_marginal([0.1], 1.0)

    def test_conditional_single_label_matches_marginal(self):
        scores = [0.4, 0.1, 0.3, 0.2]
        cond = calibrate_conditional(scores, [0, 0, 0, 0], 0.25, n_classes=1)
        marg = calibrate_marginal(scores, 0.25)
        assert cond.q_hat[0] == pytest.approx(marg.q_hat)

    def test_conditional_small_strata_are_infinite(self):
        cond = calibrate_conditional(
            [0.1, 0.2, 0.5, 0.6], [0, 0, 1, 1], alpha=0.3, n_classes=2
        )
        assert np.all(np.isinf(cond.q_hat))

    def test_conditional_nine_per_stratum_takes_maximum(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=18)
        labels = np.array([0] * 9 + [1] * 9)
        cond = calibrate_conditional(scores, labels, alpha=0.1, n_classes=2)
        assert cond.q_hat[0] == pytest.approx(scores[:9].max())
        assert cond.q_hat[1] == pytest.approx(scores[9:].max())

    def test_absent_label_gets_infinite_threshold(self):
        cond = calibrate_conditional([0.1] * 9, [0] * 9, alpha=0.5, n_classes=3)
        assert np.isinf(cond.q_hat[1])
        assert np.isinf(cond.q_hat[2])
        assert cond.counts.tolist() == [9, 0, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN sorts last: scores -0.9, -0.8, NaN, -0.7, ..., -0.1 at alpha=0.2
        # once gave q_hat=-0.1 instead of the finite scores' -0.2
        scores = [-0.9, -0.8, bad, -0.7, -0.6, -0.5, -0.4, -0.3, -0.2, -0.1]
        with pytest.raises(ValueError, match="NaN or infinite"):
            calibrate_marginal(scores, 0.2)
        with pytest.raises(ValueError, match="NaN or infinite"):
            calibrate_conditional(scores, [0, 1] * 5, 0.2, n_classes=2)

    @pytest.mark.parametrize("labels", [[0, 1, 5, 1], [0, 1, -1, 1], [0, 1, 5, -1]])
    def test_conditional_labels_outside_classes_rejected(self, labels):
        # labels [0, 1, 5, -1] with n_classes=2 once dropped two of four scores
        with pytest.raises(ValueError, match="range\\(2\\)"):
            calibrate_conditional([0.1, 0.2, 0.3, 0.4], labels, 0.5, n_classes=2)

    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=60),
        st.integers(1, 99),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_full_sort_reference(self, raw, alpha_pct):
        # duplicates are frequent by construction
        scores = np.asarray(raw, dtype=float) / 10.0
        alpha = alpha_pct / 100.0
        got = calibrate_marginal(scores, alpha).q_hat
        k = math.ceil(Fraction(100 - alpha_pct, 100) * (len(scores) + 1))
        want = float("inf") if k > len(scores) else sorted(scores)[k - 1]
        assert got == want


class _ProfileModel:
    """Stub model giving every input the same fixed similarity profile."""

    def __init__(self, profile):
        self.profile = np.asarray(profile, dtype=float)
        self.labels = np.arange(self.profile.shape[0])

    def _as_batch(self, x):
        return [x]

    def similarity_profiles(self, X):
        return np.tile(self.profile, (len(X), 1))

    def similarity_profile(self, x):
        return self.similarity_profiles(self._as_batch(x))[0]


class TestPredictionSets:
    def test_infinite_threshold_gives_full_label_set(self):
        model = _ProfileModel(PROFILE)
        calib = Calibrator(q_hat=np.inf, alpha=0.1, counts=2)
        assert predict_set_marginal(model, calib, None, "discount").labels.tolist() == [0, 1, 2]

    def test_discount_hand_threshold_selects_top(self):
        model = _ProfileModel(PROFILE)
        calib = Calibrator(q_hat=-0.05, alpha=0.1, counts=10)
        assert predict_set_marginal(model, calib, None, "discount").labels.tolist() == [0]

    def test_looser_threshold_selects_all(self):
        model = _ProfileModel(PROFILE)
        calib = Calibrator(q_hat=-0.005, alpha=0.1, counts=10)
        assert predict_set_marginal(model, calib, None, "discount").labels.tolist() == [0, 1, 2]

    def test_conditional_per_label_thresholds(self):
        model = _ProfileModel(PROFILE)
        calib = Calibrator(
            q_hat=np.array([-0.05, -0.005, -1.0]), alpha=0.1, counts=np.array([3, 3, 3]), per_label=True
        )
        assert predict_set_conditional(model, calib, None, "discount").labels.tolist() == [0, 1]

    def test_equal_conditional_thresholds_reduce_to_marginal(self):
        model = _ProfileModel(PROFILE)
        cond = Calibrator(
            q_hat=np.array([-0.05, -0.05, -0.05]), alpha=0.1, counts=np.array([3, 3, 3]), per_label=True
        )
        marg = Calibrator(q_hat=-0.05, alpha=0.1, counts=9)
        a = predict_set_conditional(model, cond, None, "discount").labels
        b = predict_set_marginal(model, marg, None, "discount").labels
        np.testing.assert_array_equal(a, b)

    def test_set_invariant_members_below_threshold(self):
        model = _ProfileModel(PROFILE)
        calib = Calibrator(q_hat=-0.05, alpha=0.1, counts=10)
        ps = predict_set_marginal(model, calib, None, "discount")
        assert np.all(ps.scores[ps.labels] <= calib.q_hat)

    def test_nan_query_raises_instead_of_abstaining(self):
        # the identity encoder passes NaN through, so the profile check is what
        # keeps an all-NaN profile from getting the empty set (an abstention)
        X = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        model = train_prototypes(X, [0, 1, 2], IdentityEncoder(2), "centroid", "inverse_euclidean")
        calib = Calibrator(q_hat=-0.1, alpha=0.1, counts=10)
        with pytest.raises(ValueError, match="NaN or infinite"):
            predict_set_marginal(model, calib, np.array([np.nan, 0.0]), "similarity")

    def test_nan_query_raises_for_cosine_model(self):
        # l2-normalized prototypes with cosine similarity: the NaN query used to
        # get the profile [0.5, 0.5] and the empty set, a silent abstention
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        enc = IdentityEncoder(2)
        model = train_prototypes(X, [0, 1], enc, "l2_normalized_real", "cosine_normalized")
        calib = Calibrator(q_hat=-0.9, alpha=0.1, counts=10)
        with pytest.raises(ValueError, match="NaN or infinite"):
            predict_set_marginal(model, calib, np.array([np.nan, 0.0]), "discount")

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(2)
        cal = rng.normal(size=200)
        profiles = rng.uniform(0.01, 1.0, size=(50, 4))
        scores = score_matrix(profiles, "discount")
        prev = None
        for alpha in (0.2, 0.1, 0.05, 0.01):
            q = calibrate_marginal(cal, alpha).q_hat
            include = sets_from_scores(scores, q)
            if prev is not None:
                assert np.all(include | ~prev == include)  # prev subset of include
            prev = include


class TestPredictSets:
    """The batch entry point, and the single-input functions as its batch-of-one calls."""

    @pytest.fixture
    def fitted(self):
        rng = np.random.default_rng(21)
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        y = rng.integers(0, 3, size=240)
        X = centers[y] + rng.normal(0.0, 1.2, size=(240, 2))
        model = train_prototypes(X[:120], y[:120], IdentityEncoder(2), "centroid", "inverse_euclidean")
        u = rng.uniform(size=240)
        queries = np.concatenate([X[200:], [[40.0, 40.0], [2.0, 2.0]]])
        return model, X[120:200], y[120:200], u, queries

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    def test_rows_equal_single_input_calls(self, fitted, kind):
        model, X_cal, y_cal, u, queries = fitted
        cal = calibration_scores(model.similarity_profiles(X_cal), y_cal, kind, u=u[:80])
        calibrators = (calibrate_marginal(cal, 0.2), calibrate_conditional(cal, y_cal, 0.2, 3))
        u_q = u[80 : 80 + len(queries)]
        for calib, single in zip(calibrators, (predict_set_marginal, predict_set_conditional)):
            include, scores = predict_sets(model, calib, queries, kind, u=u_q)
            assert include.shape == scores.shape == (len(queries), 3)
            np.testing.assert_array_equal(include, sets_from_scores(scores, calib.thresholds(3)))
            picks = point_labels_from_sets(include, scores, allow_empty=True)
            for i, x in enumerate(queries):
                ps = single(model, calib, x, kind, u=u_q[i])
                assert ps.labels.tolist() == np.flatnonzero(include[i]).tolist()
                point = predict_point(model, calib, x, kind, allow_empty=True, u=u_q[i])
                assert point.labels.tolist() == ([] if picks[i] < 0 else [picks[i]])

    def test_randomized_kind_needs_draws(self, fitted):
        model, _, _, _, queries = fitted
        calib = Calibrator(q_hat=-0.5, alpha=0.1, counts=10)
        with pytest.raises(ValueError, match="uniform draw"):
            predict_sets(model, calib, queries, "inverse_quantile")
        with pytest.raises(ValueError, match="one uniform draw per profile row"):
            predict_sets(model, calib, queries, "inverse_quantile", u=np.full(3, 0.5))
        with pytest.raises(ValueError, match="uniform draw"):
            predict_set_marginal(model, calib, queries[0], "inverse_quantile")

    def test_conditional_calibrator_checks_the_class_count(self, fitted):
        model, _, _, _, queries = fitted
        calib = Calibrator(q_hat=np.zeros(4), alpha=0.1, counts=np.ones(4), per_label=True)
        with pytest.raises(ValueError, match="class count"):
            predict_sets(model, calib, queries, "similarity")


    def test_calibrator_of_several_calibrations_refused(self, fitted):
        # three calibrations in one calibrator give three thresholds per label,
        # so no one set is defined
        model, X_cal, y_cal, _, queries = fitted
        cal = calibration_scores(model.similarity_profiles(X_cal), y_cal, "similarity")
        scores, labels = np.stack([cal, cal[::-1], cal]), np.stack([y_cal, y_cal[::-1], y_cal])
        for calib in (calibrate_marginal(scores, 0.2), calibrate_conditional(scores, labels, 0.2, 3)):
            assert calib.thresholds(3).shape == (3, 3)
            with pytest.raises(ValueError, match="not one calibration's"):
                predict_sets(model, calib, queries, "similarity")
            for single in (predict_set_marginal, predict_set_conditional):
                with pytest.raises(ValueError, match="not one calibration's"):
                    single(model, calib, queries[0], "similarity")
            with pytest.raises(ValueError, match="not one calibration's"):
                predict_point(model, calib, queries[0], "similarity", allow_empty=True)

class TestPointPrediction:
    def test_multi_member_set_keeps_argmin(self):
        model = _ProfileModel(np.array([0.8, 0.3, 0.5]))
        calib = Calibrator(q_hat=-0.1, alpha=0.1, counts=10)
        ps = predict_point(model, calib, None, "similarity", allow_empty=False)
        assert ps.labels.tolist() == [0]

    def test_empty_set_allowed_stays_empty(self):
        model = _ProfileModel(PROFILE)
        calib = Calibrator(q_hat=-2.0, alpha=0.1, counts=10)
        ps = predict_point(model, calib, None, "similarity", allow_empty=True)
        assert len(ps) == 0

    def test_empty_set_disallowed_falls_back_to_argmin(self):
        model = _ProfileModel(PROFILE)
        calib = Calibrator(q_hat=-2.0, alpha=0.1, counts=10)
        ps = predict_point(model, calib, None, "discount", allow_empty=False)
        assert ps.labels.tolist() == [0]

    def test_argmin_tie_breaks_to_smallest_label(self):
        include = np.array([[True, True, True]])
        scores = np.array([[-0.4, -0.4, -0.1]])
        assert point_labels_from_sets(include, scores, allow_empty=False)[0] == 0

    def test_singleton_set_unchanged(self):
        model = _ProfileModel(PROFILE)
        calib = Calibrator(q_hat=-0.5, alpha=0.1, counts=10)
        ps = predict_point(model, calib, None, "similarity", allow_empty=True)
        assert ps.labels.tolist() == [0]


class TestLeadingAxes:
    """A batch of score matrices, one per kind, equals the per-kind calls."""

    @pytest.fixture
    def batch(self):
        rng = np.random.default_rng(11)
        profiles = rng.uniform(0.0, 1.0, size=(40, 4))
        profiles[3] = 0.0  # the ratio kinds score an all-zero row 0
        u = rng.uniform(size=40)
        scores = np.stack([score_matrix(profiles, k, u=u) for k in SCORE_KINDS])
        labels = rng.integers(0, 4, size=40)
        thresholds = np.stack(
            [calibrate_conditional(s[np.arange(40), labels], labels, 0.3, 4).thresholds(4) for s in scores]
        )
        thresholds[1, 2] = np.inf
        return scores, thresholds

    def test_sets_from_scores(self, batch):
        scores, thresholds = batch
        got = sets_from_scores(scores, thresholds)
        assert got.shape == scores.shape
        for s, t, g in zip(scores, thresholds, got):
            np.testing.assert_array_equal(g, sets_from_scores(s, t))
        np.testing.assert_array_equal(sets_from_scores(scores, -0.3), scores <= -0.3)

    @pytest.mark.parametrize("allow_empty", [True, False])
    def test_point_labels_from_sets(self, batch, allow_empty):
        scores, thresholds = batch
        include = sets_from_scores(scores, thresholds)
        got = point_labels_from_sets(include, scores, allow_empty)
        assert got.shape == scores.shape[:2]
        for i, s, g in zip(include, scores, got):
            np.testing.assert_array_equal(g, point_labels_from_sets(i, s, allow_empty))

    def test_ood_scores(self, batch):
        scores, _ = batch
        got = ood_scores(scores)
        assert got.shape == scores.shape[:2]
        for s, g in zip(scores, got):
            np.testing.assert_array_equal(g, ood_scores(s))


class TestClassAxisHelpers:
    """The column-by-column folds over the class axis equal numpy's reductions."""

    # ties, both signs of zero and the +inf that masks a label out of a set
    VALUES = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, np.inf])

    @given(
        st.lists(st.integers(1, 3), max_size=2),
        st.integers(1, 150),
        st.sampled_from([1, 2, 3, 7, 8, 26]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_folds_equal_numpy(self, leading, n, n_classes, seed):
        # leading x n rows per class column fall on both sides of the 64-row rule
        rng = np.random.default_rng(seed)
        shape = (*leading, n, n_classes)
        a = rng.choice(self.VALUES, size=shape)
        include = rng.random(shape) < rng.choice([0.0, 0.2, 1.0])
        for got, want in [
            (_fold_classes(np.minimum, a), a.min(axis=-1)),
            (_fold_classes(np.maximum, a), a.max(axis=-1)),
            (_fold_classes(np.logical_or, include), include.any(axis=-1)),
            (_fold_classes(np.add, include, np.int64), include.sum(axis=-1)),
            (_argmin_classes(a), np.argmin(a, axis=-1)),
            (_argmin_classes(np.where(include, a, np.inf)), np.argmin(np.where(include, a, np.inf), axis=-1)),
        ]:
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [63, 64])
    def test_argmin_takes_a_rows_first_nan(self, n):
        a = np.zeros((n, 4))
        a[:, 1], a[:, 3] = np.nan, -1.0
        a[0, 1], a[1, 2] = 0.0, np.nan
        np.testing.assert_array_equal(_argmin_classes(a), np.argmin(a, axis=-1))

    @pytest.mark.parametrize("n", [1, 200])
    def test_empty_class_axis(self, n):
        a = np.zeros((n, 0))
        for ufunc in (np.minimum, np.maximum):
            with pytest.raises(ValueError):
                _fold_classes(ufunc, a)
        with pytest.raises(ValueError):
            _argmin_classes(a)
        np.testing.assert_array_equal(_fold_classes(np.logical_or, a.astype(bool)), np.zeros(n, dtype=bool))
        np.testing.assert_array_equal(_fold_classes(np.add, a.astype(bool), np.int64), np.zeros(n, dtype=np.int64))


class TestShapeErrors:
    @pytest.mark.parametrize("thresholds", [[-0.5], [-0.5, -0.4], np.zeros((3, 1))])
    def test_thresholds_need_one_entry_per_class(self, thresholds):
        with pytest.raises(ValueError, match="one entry per class"):
            sets_from_scores(np.zeros((4, 3)), thresholds)

    def test_point_labels_need_include_and_scores_of_one_shape(self):
        with pytest.raises(ValueError, match="differ in shape"):
            point_labels_from_sets(np.ones((4, 3), dtype=bool), np.zeros((4, 2)), allow_empty=True)
        with pytest.raises(ValueError, match="differ in shape"):
            point_labels_from_sets(np.ones((2, 4, 3), dtype=bool), np.zeros((4, 3)), allow_empty=True)


class TestOodScore:
    def test_hand_value(self):
        mat = score_matrix(PROFILE[None, :], "discount")
        assert ood_scores(mat)[0] == pytest.approx(-0.64)

    def test_vanishing_profile_approaches_zero(self):
        tiny = np.full((1, 3), 1e-9)
        assert ood_scores(score_matrix(tiny, "discount"))[0] == pytest.approx(0.0, abs=1e-9)

    @given(profiles_01)
    @settings(max_examples=60, deadline=None)
    def test_min_property(self, profile):
        mat = score_matrix(np.asarray(profile)[None, :], "similarity")
        assert ood_scores(mat)[0] <= mat[0].min() + 1e-15


class TestCoverageMachinery:
    def test_iid_coverage_within_band(self):
        # Exchangeable draws: empirical coverage concentrates in
        # [1 - alpha, 1 - alpha + 1/(n_cal + 1)].
        rng = np.random.default_rng(3)
        alpha, n_cal, n_test = 0.1, 200, 100
        for kind in ("similarity", "ratio", "discount", "penalized", "inverse_quantile"):
            covs = []
            for _ in range(200):
                profiles = rng.uniform(0.05, 1.0, size=(n_cal + n_test, 4))
                labels = rng.integers(0, 4, size=n_cal + n_test)
                u = rng.uniform(size=n_cal + n_test)
                cal = calibration_scores(profiles[:n_cal], labels[:n_cal], kind, u=u[:n_cal])
                q = calibrate_marginal(cal, alpha).q_hat
                test = score_matrix(profiles[n_cal:], kind, u=u[n_cal:])
                inc = sets_from_scores(test, q)
                covs.append(inc[np.arange(n_test), labels[n_cal:]].mean())
            mean = float(np.mean(covs))
            se = float(np.std(covs, ddof=1) / np.sqrt(len(covs)))
            assert 0.9 - 3 * se <= mean <= 0.9 + 1.0 / (n_cal + 1) + 3 * se, (kind, mean)
