"""Calibration against the exact law of the covered count.

With exchangeable, continuous scores, the number of a split's n_test test
points whose true-label score lies at or below the k-th smallest of n_cal
calibration scores, k = ceil((1 - alpha)(n_cal + 1)), is
BetaBinomial(n_test, k, n_cal + 1 - k); independent repetitions add up.
``bench/reference.covered_count_pmf`` gives that law, computed apart from
the program. Each case draws exchangeable profiles, calibrates every score
kind, builds sets with ``sets_from_scores`` and fails when a pooled
covered count falls in a lower tail below ``LOWER_TAIL``.

Marginal calibration (``calibrate_marginal``) is checked on the count over
all test points. Label-conditional calibration (``calibrate_conditional``)
is the marginal rule within each label's stratum: given the labels, the
scores of one label are exchangeable, so each label's count in a split
follows the law at that split's stratum sizes (n_y calibration and m_y
test points of the label), and each label's count over the repetitions
follows those laws convolved.

For a correct program, P(lower tail <= c) <= c for any c, so each check
fails for at most a 1e-6 share of seeds; the 20 marginal checks (4 cases x
5 kinds) and 60 per-label checks (12 labels over 4 cases x 5 kinds) fail
together for at most 8e-5 of them. The seeds are fixed, so the verdict is
the same on every run. A threshold at index k - 1 under-covers by
1 / (n + 1) per test point and fails every marginal case. Taking k without
the +1 in n + 1 does the same where it changes k: at n_cal = 10,
alpha = 0.1 (k = 9 instead of 10) and at n_cal = 50, alpha = 0.2 (40
instead of 41). Label strata are small and their sizes vary, so both
mutants fail the per-label checks too.
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from conformal_hdc.conformal import (
    SCORE_KINDS,
    calibrate_conditional,
    calibrate_marginal,
    score_matrix,
    sets_from_scores,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
LOWER_TAIL = 1e-6


@pytest.fixture(scope="module")
def reference():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("reference")
    finally:
        sys.path.remove(str(BENCH))


def _covered(kind: str, n_cal: int, n_test: int, K: int, alpha: float, reps: int, seed: int) -> int:
    """Test points covered over ``reps`` exchangeable splits, as the program calibrates them."""
    rng = np.random.default_rng(seed)
    n = n_cal + n_test
    covered = 0
    for _ in range(reps):
        labels = rng.integers(0, K, size=n)
        # iid rows: a shared random part plus a bump on each row's own label
        profiles = rng.random((n, K)) + 0.5 * np.eye(K)[labels]
        scores = score_matrix(profiles, kind, lam=0.5, temperature=0.5, u=rng.random(n))
        true_scores = scores[np.arange(n), labels]
        calibrator = calibrate_marginal(true_scores[:n_cal], alpha)
        include = sets_from_scores(scores[n_cal:], calibrator.thresholds(K))
        covered += int(include[np.arange(n_test), labels[n_cal:]].sum())
    return covered


@pytest.mark.parametrize("kind", SCORE_KINDS)
@pytest.mark.parametrize(
    "n_cal, n_test, K, alpha, reps, seed",
    [
        (10, 20, 3, 0.1, 200, 11),
        (19, 10, 2, 0.05, 200, 12),
        (50, 100, 5, 0.2, 500, 13),
        (7, 30, 4, 0.25, 200, 14),
    ],
)
def test_covered_count_not_in_the_lower_tail(reference, kind, n_cal, n_test, K, alpha, reps, seed):
    covered = _covered(kind, n_cal, n_test, K, alpha, reps, seed)
    pmf = reference.covered_count_pmf(alpha, n_cal, n_test, reps)
    lower_tail = float(pmf[: covered + 1].sum())
    expected = float(np.arange(pmf.size) @ pmf)
    assert lower_tail >= LOWER_TAIL, (
        f"{kind}: {covered} of {reps * n_test} covered, {expected:.1f} expected, lower tail {lower_tail:.3g}"
    )


def _draw(n: int, K: int, reps: int, seed: int, kind: str):
    """``reps`` splits of n exchangeable rows: labels (reps, n) and scores (reps, n, K)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, K, size=(reps, n))
    profiles = rng.random((reps, n, K)) + 0.5 * np.eye(K)[labels]
    u = rng.random(reps * n)
    scores = score_matrix(profiles.reshape(-1, K), kind, lam=0.5, temperature=0.5, u=u)
    return labels, scores.reshape(reps, n, K)


@pytest.mark.parametrize("kind", SCORE_KINDS)
@pytest.mark.parametrize(
    "n_cal, n_test, K, alpha, reps, seed",
    [
        (30, 30, 3, 0.1, 200, 21),
        (24, 40, 2, 0.2, 400, 22),
        (20, 40, 4, 0.25, 300, 23),
        (45, 15, 3, 0.05, 200, 24),
    ],
)
def test_label_covered_counts_not_in_the_lower_tail(reference, kind, n_cal, n_test, K, alpha, reps, seed):
    # every split calibrated in one stacked call, as the harness calibrates a group
    labels, scores = _draw(n_cal + n_test, K, reps, seed, kind)
    true_scores = np.take_along_axis(scores, labels[..., None], axis=-1)[..., 0]
    calibrator = calibrate_conditional(true_scores[:, :n_cal], labels[:, :n_cal], alpha, K)
    include = sets_from_scores(scores[:, n_cal:], calibrator.thresholds(K))
    hit = np.take_along_axis(include, labels[:, n_cal:, None], axis=-1)[..., 0]
    is_label = labels[..., None] == np.arange(K)
    n_y, m_y = is_label[:, :n_cal].sum(axis=1), is_label[:, n_cal:].sum(axis=1)  # (reps, K)
    np.testing.assert_array_equal(calibrator.counts, n_y)
    for y in range(K):
        covered = int(hit[labels[:, n_cal:] == y].sum())
        # splits with equal stratum sizes share a law; the distinct laws convolve
        pmf = np.ones(1)
        sizes, repeats = np.unique(np.stack([n_y[:, y], m_y[:, y]], axis=1), axis=0, return_counts=True)
        for (n, m), r in zip(sizes, repeats):
            pmf = np.convolve(pmf, reference.covered_count_pmf(alpha, int(n), int(m), int(r)))
        lower_tail = float(pmf[: covered + 1].sum())
        expected = float(np.arange(pmf.size) @ pmf)
        assert lower_tail >= LOWER_TAIL, (
            f"{kind}, label {y}: {covered} of {m_y[:, y].sum()} covered, {expected:.1f} expected, "
            f"lower tail {lower_tail:.3g}"
        )


@pytest.mark.parametrize("kind", SCORE_KINDS)
def test_stacked_calibration_equals_row_by_row(kind):
    # one call over (reps, n_cal) scores gives each split's calibration, bit for bit
    labels, scores = _draw(40, 4, 25, 31, kind)
    true_scores = np.take_along_axis(scores, labels[..., None], axis=-1)[..., 0]
    for alpha in (0.1, 0.25, 0.6):
        marginal = calibrate_marginal(true_scores, alpha)
        conditional = calibrate_conditional(true_scores, labels, alpha, 4)
        for r in range(labels.shape[0]):
            one = calibrate_marginal(true_scores[r], alpha)
            assert marginal.q_hat[r].tobytes() == one.q_hat.tobytes()
            assert marginal.counts[r] == one.counts
            one = calibrate_conditional(true_scores[r], labels[r], alpha, 4)
            assert conditional.q_hat[r].tobytes() == one.q_hat.tobytes()
            assert conditional.counts[r].tobytes() == one.counts.tobytes()
