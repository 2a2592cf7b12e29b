"""Acceptance suite: one test per exit criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The desk-scale image benchmark needs the real IDX files (see
README); it skips with instructions when they are absent. The wall-clock
scaling check runs outside CI: set CONFORMAL_HDC_TIMING=1 to include it.
"""

import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conformal_hdc.classifier import train_prototypes
from conformal_hdc.conformal import (
    calibrate_marginal,
    calibration_scores,
    predict_point,
    score_matrix,
    sets_from_scores,
)
from conformal_hdc.datasets import SpikeSurrogateConfig, generate_spike_surrogate, ingest_mnist
from conformal_hdc.encoders import BinaryImageEncoder, FpeProjection, IdentityEncoder
from conformal_hdc.evaluation import ExperimentConfig, run_experiment
from conformal_hdc.hypervectors import similarity, similarity_matrix
from conformal_hdc.synthetic import SyntheticConfig, generate_synthetic

SCORE_KINDS = ("similarity", "ratio", "discount", "penalized", "inverse_quantile")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_marginal_coverage_band():
    """Mean coverage of every score kind stays in [0.900-3se, 0.902+3se].

    Setup: three-cluster data with sigma3=4.0, 1000 in-distribution points
    per repetition split 40/50/10 (so the calibration fold holds exactly
    500 points), alpha=0.1, 1000 repetitions.
    """
    cfg = ExperimentConfig(
        dataset="synthetic", alpha=0.1, repetitions=1000, seed=42,
        sigma3=4.0, n_per_class=(334, 333, 333), n_ood=0,
    )
    res = run_experiment(cfg)
    all_ok = True
    for m in res.methods:
        if m.method == "hdc":
            continue
        lo = 0.900 - 3 * m.coverage_se
        hi = 0.902 + 3 * m.coverage_se
        ok = lo <= m.coverage <= hi
        all_ok &= ok
        report(
            "criterion 1",
            ok,
            f"{m.method}: coverage {m.coverage:.4f} in [{lo:.4f}, {hi:.4f}]",
        )
        assert ok, f"{m.method}: {m.coverage:.4f} outside [{lo:.4f}, {hi:.4f}]"
    assert all_ok


def test_criterion_2_label_conditional_coverage_band():
    """Per-label coverage stays within the per-stratum analogue of the band."""
    cfg = ExperimentConfig(
        dataset="synthetic", alpha=0.1, repetitions=1000, seed=42,
        sigma3=4.0, n_per_class=(334, 333, 333), n_ood=0, conditional=True,
    )
    res = run_experiment(cfg)
    for m in res.methods:
        if m.method == "hdc":
            continue
        for y in range(3):
            cov = m.label_coverage[y]
            se = m.label_coverage_se[y]
            slack = m.label_upper_slack[y]
            lo = 0.9 - 3 * se
            hi = 0.9 + slack + 3 * se
            ok = lo <= cov <= hi
            report(
                "criterion 2",
                ok,
                f"{m.method} label {y + 1}: coverage {cov:.4f} in [{lo:.4f}, {hi:.4f}]",
            )
            assert ok, f"{m.method} label {y}: {cov:.4f} outside [{lo:.4f}, {hi:.4f}]"


def test_criterion_3_quantile_matches_full_sort_reference():
    """Threshold selection equals a naive sorted-list reference, exactly.

    1000 random multisets with heavy duplication; the reference computes
    the order-statistic index with exact rational arithmetic.
    """
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(1, 80))
        scores = rng.integers(0, 25, size=n).astype(np.float64) / 10.0
        alpha_pct = int(rng.integers(1, 100))
        alpha = alpha_pct / 100.0
        got = calibrate_marginal(scores, alpha).q_hat
        k = math.ceil(Fraction(100 - alpha_pct, 100) * (n + 1))
        want = float("inf") if k > n else sorted(scores)[k - 1]
        assert got == want, f"trial {trial}: n={n} alpha={alpha} got {got} want {want}"
    report("criterion 3", True, "1000 random multisets match the sorted reference exactly")


def test_criterion_4_synthetic_study_orderings():
    """Set-size and abstention-AUC orderings across the dispersion sweep.

    At each sigma3 in {3, 4, 5} (alpha=0.1, 100 repetitions): ratio sets
    are no larger than discount sets, which are no larger than similarity
    sets; discount separates OOD from inliers better than ratio; the
    penalized score's AUC sits near chance; and trimmed point predictions
    lose at most 0.01 accuracy against the combined-folds baseline.
    """
    for sigma3 in (3.0, 4.0, 5.0):
        cfg = ExperimentConfig(
            dataset="synthetic", alpha=0.1, repetitions=100, seed=0, sigma3=sigma3,
        )
        res = run_experiment(cfg)
        row = {m.method: m for m in res.methods}

        ok_a = row["ratio"].size <= row["discount"].size <= row["similarity"].size
        report(
            "criterion 4a",
            ok_a,
            f"sigma3={sigma3}: sizes {row['ratio'].size:.3f} <= "
            f"{row['discount'].size:.3f} <= {row['similarity'].size:.3f}",
        )
        assert ok_a

        ok_b = row["discount"].auc > row["ratio"].auc
        report(
            "criterion 4b",
            ok_b,
            f"sigma3={sigma3}: AUC discount {row['discount'].auc:.3f} > "
            f"ratio {row['ratio'].auc:.3f}",
        )
        assert ok_b

        ok_c = 0.4 <= row["penalized"].auc <= 0.6
        report(
            "criterion 4c",
            ok_c,
            f"sigma3={sigma3}: AUC penalized {row['penalized'].auc:.3f} in [0.4, 0.6]",
        )
        assert ok_c

        ok_d = row["discount"].accuracy >= row["hdc"].accuracy - 0.01
        report(
            "criterion 4d",
            ok_d,
            f"sigma3={sigma3}: point accuracy {row['discount'].accuracy:.3f} >= "
            f"baseline {row['hdc'].accuracy:.3f} - 0.01",
        )
        assert ok_d


def _find_mnist_files():
    root = Path(os.environ.get("CONFORMAL_HDC_MNIST_DIR", "data/mnist"))
    pairs = []
    for img_stem, lbl_stem in (
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    ):
        for suffix in ("", ".gz"):
            img = root / (img_stem + suffix)
            lbl = root / (lbl_stem + suffix)
            if img.exists() and lbl.exists():
                pairs.append((img, lbl))
                break
    return pairs


@pytest.mark.skipif(
    not _find_mnist_files(),
    reason=(
        "image-benchmark IDX files not found; place train/t10k IDX files under "
        "data/mnist or point CONFORMAL_HDC_MNIST_DIR at them (see README)"
    ),
)
def test_criterion_5_image_benchmark_desk_scale():
    """Desk-scale digit benchmark: d=2000, alpha=0.05, holdout {6,7,8,9}.

    Ten repetitions of the 80/15/5 protocol: every conformal method covers
    within [0.94, 0.97]; set sizes order ratio < discount < similarity;
    AUC(discount) >= 0.75 and AUC(inverse quantile) <= 0.6.
    """
    import dataclasses

    pairs = _find_mnist_files()
    bundles = [ingest_mnist(img, lbl) for img, lbl in pairs]
    features = np.concatenate([b.features for b in bundles])
    labels = np.concatenate([b.labels for b in bundles])
    bundle = dataclasses.replace(bundles[0], features=features, labels=labels)

    cfg = ExperimentConfig(dataset="mnist", alpha=0.05, d=2000, repetitions=10, seed=1)
    res = run_experiment(cfg, bundle)
    row = {m.method: m for m in res.methods}

    for kind in SCORE_KINDS:
        ok = 0.94 <= row[kind].coverage <= 0.97
        report("criterion 5", ok, f"{kind}: coverage {row[kind].coverage:.3f} in [0.94, 0.97]")
        assert ok
    ok_sizes = row["ratio"].size < row["discount"].size < row["similarity"].size
    report(
        "criterion 5",
        ok_sizes,
        f"sizes {row['ratio'].size:.3f} < {row['discount'].size:.3f} < {row['similarity'].size:.3f}",
    )
    assert ok_sizes
    ok_auc = row["discount"].auc >= 0.75
    report("criterion 5", ok_auc, f"AUC discount {row['discount'].auc:.3f} >= 0.75")
    assert ok_auc
    ok_iq = row["inverse_quantile"].auc <= 0.6
    report("criterion 5", ok_iq, f"AUC inverse quantile {row['inverse_quantile'].auc:.3f} <= 0.6")
    assert ok_iq


def test_criterion_6_fpe_kernel_fidelity():
    """Complex cosine of encodings tracks the RBF kernel within 0.02.

    d=10000, beta=0.3, 50 random pairs: |cc - (exp(-beta^2 r^2 / 2)+1)/2|
    stays below 0.02 for every pair.
    """
    rng = np.random.default_rng(2024)
    proj = FpeProjection(p=10, d=10_000, beta=0.3, seed=99)
    worst = 0.0
    for _ in range(50):
        x, xp = rng.normal(size=10), rng.normal(size=10)
        r2 = float(np.sum((x - xp) ** 2))
        expected = (np.exp(-(0.3**2) * r2 / 2.0) + 1.0) / 2.0
        got = similarity(np.exp(1j * proj.phases(x)), np.exp(1j * proj.phases(xp)), "complex_cosine")
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) < 0.02
    report("criterion 6", True, f"worst kernel deviation {worst:.4f} < 0.02 over 50 pairs")


def test_criterion_7_abstention_on_ood():
    """Empty-set rate on OOD exceeds the inlier empty-set rate by >= 0.5.

    Discount score at alpha=0.1 on the synthetic benchmark with its
    standard OOD cluster offset.
    """
    cfg = ExperimentConfig(
        dataset="synthetic", alpha=0.1, repetitions=100, seed=7, sigma3=4.0,
        score_kinds=("discount",),
    )
    res = run_experiment(cfg)
    m = [r for r in res.methods if r.method == "discount"][0]
    diff = m.ood_empty_rate - m.empty_rate
    ok = diff >= 0.5
    report(
        "criterion 7",
        ok,
        f"empty-set rate OOD {m.ood_empty_rate:.3f} vs inliers {m.empty_rate:.3f} "
        f"(diff {diff:.3f} >= 0.5)",
    )
    assert ok


def test_criterion_8_point_prediction_equals_classifier():
    """With the similarity score and no abstention, trimmed prediction
    reproduces plain argmax classification exactly on 10000 inputs."""
    feats, labels, _ = generate_synthetic(SyntheticConfig(seed=8))
    perm = np.random.default_rng(1).permutation(len(labels))
    feats, labels = feats[perm], labels[perm]
    model = train_prototypes(
        feats[:400], labels[:400], IdentityEncoder(p=2), "centroid", "inverse_euclidean"
    )
    prof_cal = model.similarity_profiles(feats[400:900])
    cal = calibration_scores(prof_cal, labels[400:900], "similarity")
    calib = calibrate_marginal(cal, 0.1)

    X = np.random.default_rng(0).uniform(-15, 15, size=(10_000, 2))
    mismatches = 0
    for x in X:
        ps = predict_point(model, calib, x, "similarity", allow_empty=False)
        if model.labels[ps.labels[0]] != model.predict(x):
            mismatches += 1
    report("criterion 8", mismatches == 0, f"{mismatches} mismatches over 10000 inputs")
    assert mismatches == 0


def _inference_seconds(m, d, k=10, p=784, trials=5):
    rng = np.random.default_rng(0)
    enc = BinaryImageEncoder(p=p, d=d, seed=1)
    X = (rng.uniform(size=(m, p)) > 0.8).astype(np.uint8)
    protos = rng.integers(0, 2, size=(k, d), dtype=np.int8) * 2 - 1
    times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        q = enc.encode_batch(X)
        prof = similarity_matrix(q, protos, "cosine_normalized")
        scores = score_matrix(prof, "discount")
        sets_from_scores(scores, -0.1)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


@pytest.mark.skipif(
    not os.environ.get("CONFORMAL_HDC_TIMING"),
    reason=(
        "timing runs outside CI: set CONFORMAL_HDC_TIMING=1 or run "
        "demos/complexity_timing.py (measured ratios documented in README)"
    ),
)
def test_criterion_9_inference_scales_linearly():
    """Doubling the test count or the dimension roughly doubles wall time.

    Inference cost is linear in both, so each doubling ratio must land in
    [1.6, 2.4].
    """
    base = _inference_seconds(4000, 4000)
    ratio_m = _inference_seconds(8000, 4000) / base
    ratio_d = _inference_seconds(4000, 8000) / base
    ok = 1.6 <= ratio_m <= 2.4 and 1.6 <= ratio_d <= 2.4
    report(
        "criterion 9",
        ok,
        f"doubling m: x{ratio_m:.2f}; doubling d: x{ratio_d:.2f} (band [1.6, 2.4])",
    )
    assert ok


def test_spike_surrogate_pipeline_property():
    """Well-separated firing-rate classes decode above 0.9 accuracy.

    Substitute check for the proprietary-recording experiment: a two-class
    Poisson surrogate with disjoint active neurons, encoded with the
    temporal phasor pipeline at d=10000.
    """
    p, t = 30, 8
    profiles = np.full((2, p, t), 0.05)
    profiles[0, :15, :] = 1.5
    profiles[1, 15:, :] = 1.5
    cfg = SpikeSurrogateConfig(
        n_classes=2, n_neurons=p, n_bins=t, n_per_class=120, n_ood=40,
        rate_profiles=profiles, seed=5,
    )
    bundle = generate_spike_surrogate(cfg)
    inliers = bundle.labels < 2
    feats, labels = bundle.features[inliers], bundle.labels[inliers]

    from conformal_hdc.encoders import TemporalFpeEncoder

    enc = TemporalFpeEncoder(p=p, d=10_000, t_max=t, beta=0.3, seed=17)
    model = train_prototypes(feats[:200], labels[:200], enc, "raw_complex", "complex_cosine")
    acc = float((model.predict_indices(feats[200:]) == labels[200:]).mean())
    report("spike surrogate", acc > 0.9, f"held-out decoding accuracy {acc:.3f} > 0.9")
    assert acc > 0.9
