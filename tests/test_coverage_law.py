"""Marginal calibration against the exact law of the covered count.

With exchangeable, continuous scores, the number of a split's n_test test
points whose true-label score lies at or below the k-th smallest of n_cal
calibration scores, k = ceil((1 - alpha)(n_cal + 1)), is
BetaBinomial(n_test, k, n_cal + 1 - k); independent repetitions add up.
``bench/reference.covered_count_pmf`` gives that law, computed apart from
the program. Each case draws exchangeable profiles, calibrates every score
kind with ``calibrate_marginal``, builds sets with ``sets_from_scores`` and
fails when the pooled covered count falls in a lower tail below
``LOWER_TAIL``.

For a correct program, P(lower tail <= c) <= c for any c, so each check
fails for at most a 1e-6 share of seeds; the 20 checks below (4 cases x 5
kinds) fail together for at most 2e-5 of them. The seeds are fixed, so the
verdict is the same on every run. A threshold at index k - 1 under-covers
by 1 / (n_cal + 1) per test point and fails every case. Taking k without
the +1 in n_cal + 1 does the same where it changes k: at n_cal = 10,
alpha = 0.1 (k = 9 instead of 10) and at n_cal = 50, alpha = 0.2 (40
instead of 41).
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from conformal_hdc.conformal import SCORE_KINDS, calibrate_marginal, score_matrix, sets_from_scores

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
