"""Checks of the program's outputs against the reference computations.

Every check records a name and whether it held; a failed check carries a
message. Nothing here compares against a stored copy of earlier output:
each expected value is recomputed from the formulas in ``reference.py``
or derived from the conformal guarantee.
"""

from __future__ import annotations

import math

import numpy as np

import reference
from conformal_hdc import (
    calibrate_conditional,
    calibrate_marginal,
    calibration_scores,
    score_matrix,
)
from conformal_hdc.conformal import sets_from_scores

ALPHA = 0.1
SCORE_KINDS = ("similarity", "ratio", "discount", "penalized", "inverse_quantile")
#: probability of a normal draw more than 3 SE below (or above) its mean
P_3SE = 0.5 * math.erfc(3.0 / math.sqrt(2.0))


class Checks:
    """Collects check outcomes for one run."""

    def __init__(self) -> None:
        self.passed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, name: str, detail: str = "") -> bool:
        if ok:
            self.passed += 1
        else:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def equal(self, actual, expected, name: str) -> bool:
        actual, expected = np.asarray(actual), np.asarray(expected)
        ok = actual.shape == expected.shape and np.array_equal(actual, expected)
        detail = ""
        if not ok and actual.shape == expected.shape:
            detail = f"{int(np.sum(actual != expected))} of {actual.size} entries differ"
        elif not ok:
            detail = f"shape {actual.shape} != {expected.shape}"
        return self.expect(ok, name, detail)

    def within(self, actual, expected, bound, name: str) -> bool:
        """|actual - expected| <= bound element-wise (bounds are rounding bounds)."""
        actual, expected = np.asarray(actual), np.asarray(expected)
        if actual.shape != expected.shape:
            return self.expect(False, name, f"shape {actual.shape} != {expected.shape}")
        excess = np.abs(actual - expected) - bound
        ok = bool(np.all(excess <= 0))
        return self.expect(ok, name, "" if ok else f"error exceeds its bound by up to {np.max(excess):.3e}")

    def coverage_band(self, mean: float, se: float, name: str, target: float, upper=False) -> bool:
        """Coverage at least ``target - 3 SE`` (at most ``target + 3 SE`` if ``upper``)."""
        ok = mean <= target + 3.0 * se if upper else mean >= target - 3.0 * se
        bound = "at most {:.4f} + 3 SE" if upper else "at least {:.4f} - 3 SE"
        return self.expect(ok, f"{name} {bound.format(target)}", f"coverage {mean:.4f}, SE {se:.4f}")

    def covered_count(self, covered: int, pmf, name: str) -> bool:
        """Test points covered, against their exact law under the guarantee.

        ``pmf`` is that law (:func:`reference.covered_count_pmf`). The check
        fails when the observed count lies in its lower tail of probability
        below ``P_3SE``, the tail beyond 3 SE of a normal.
        """
        pmf = np.asarray(pmf)
        tail = float(pmf[: covered + 1].sum())
        expected = float(pmf @ np.arange(pmf.size))
        return self.expect(
            tail >= P_3SE, f"{name} above its 3 SE lower band",
            f"{covered} covered, {expected:.1f} expected, lower tail {tail:.2e} < {P_3SE:.2e}",
        )


def check_pipeline(
    checks: Checks,
    model,
    ref_encode,
    ref_similarity,
    data: dict,
    *,
    exact_encoder: bool,
    seed: int,
    kinds=SCORE_KINDS,
) -> None:
    """Check every stage of one trained model on a sample of inputs.

    ``data`` holds train/cal/test inputs and dense labels. Each stage is
    compared on the program's own input to that stage, so a rounding
    difference in one stage cannot cascade into the next.
    ``ref_encode(X)`` returns (encodings, rounding bound).
    """
    encoder = model.encoder
    n_classes = model.n_classes
    style = model.style

    encoded = encoder.encode_batch(data["X_test"])
    ref, bound = ref_encode(data["X_test"])
    if exact_encoder:
        checks.equal(encoded, ref, "encoder matches reference bit for bit")
    else:
        checks.within(encoded, ref, bound, "encoder matches reference within rounding bound")

    encoded_train = encoder.encode_batch(data["X_train"])
    ref_protos = reference.prototypes(encoded_train, data["y_train"], n_classes, style)
    if style == "binarized":
        checks.equal(model.prototypes, ref_protos, "prototypes match reference")
    else:
        # sums of n rows, then (l2 style) a norm over d entries and a division
        n, d = encoded_train.shape
        if style == "l2_normalized_real":
            bound = 4 * (d + 8) * reference.EPS * np.abs(ref_protos).max()
        else:
            bound = (n + 8) * reference.EPS * n * np.abs(encoded_train).max()
        checks.within(model.prototypes, ref_protos, bound, "prototypes match reference within rounding bound")

    profiles_test = model.similarity_profiles(data["X_test"])
    ref_sim, bound = ref_similarity(encoded, model.prototypes)
    checks.within(profiles_test, ref_sim, bound, "similarities match reference")

    profiles_cal = model.similarity_profiles(data["X_cal"])
    y_cal = np.asarray(data["y_cal"])
    rng = np.random.default_rng(seed)
    u_cal = rng.uniform(size=len(y_cal))
    u_test = rng.uniform(size=profiles_test.shape[0])
    for kind in kinds:
        cal_scores = calibration_scores(profiles_cal, y_cal, kind, u=u_cal)
        ref_all = reference.scores(profiles_cal, kind, u=u_cal)
        rows = np.arange(len(y_cal))
        checks.within(
            cal_scores, ref_all[rows, y_cal], reference.score_bound(profiles_cal, ref_all)[rows, y_cal],
            f"{kind}: calibration scores match reference",
        )
        test_scores = score_matrix(profiles_test, kind, u=u_test)
        ref_test = reference.scores(profiles_test, kind, u=u_test)
        checks.within(
            test_scores, ref_test, reference.score_bound(profiles_test, ref_test),
            f"{kind}: test scores match reference",
        )
        marginal = calibrate_marginal(cal_scores, ALPHA)
        checks.equal(
            marginal.q_hat, reference.marginal_threshold(cal_scores, ALPHA),
            f"{kind}: marginal threshold is the exact order statistic",
        )
        conditional = calibrate_conditional(cal_scores, y_cal, ALPHA, n_classes)
        checks.equal(
            conditional.thresholds(n_classes),
            reference.conditional_thresholds(cal_scores, y_cal, ALPHA, n_classes),
            f"{kind}: per-label thresholds are the exact order statistics",
        )
        for label, calibrator in (("marginal", marginal), ("conditional", conditional)):
            thresholds = calibrator.thresholds(n_classes)
            include = sets_from_scores(test_scores, thresholds)
            ref_sets = reference.prediction_sets(test_scores, thresholds)
            checks.equal(
                [list(np.flatnonzero(row)) for row in include] == ref_sets, True,
                f"{kind}: {label} prediction sets match reference",
            )


def split_sizes(n: int, fractions) -> tuple[int, int]:
    """Calibration and test fold sizes of the harness's documented split."""
    _, f_cal, f_test = fractions
    return max(1, int(math.floor(f_cal * n))), max(1, int(math.floor(f_test * n)))
