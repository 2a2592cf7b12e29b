"""Reference computations written from the method's formulas.

Each function recomputes one stage of the pipeline from the encoders'
public attributes (codebooks, grids, projections) without calling the
library, so the benchmark can check the program's outputs against an
independent implementation. They favour plain formulas over speed and run
only on small samples.

Tolerances for floating-point stages are error bounds of the arithmetic,
not fitted values: a dot product of length ``n`` in float64 is exact to
within ``n * eps * sum|a_i * b_i|`` whatever the summation order.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EPS = float(np.finfo(np.float64).eps)
#: regularizer and cap of the inverse Euclidean similarity (method constants)
INVERSE_EUCLIDEAN_EPS = 1e-12
TEXT_VOCABULARY = "abcdefghijklmnopqrstuvwxyz "


def rotate(v: np.ndarray, k: int) -> np.ndarray:
    """rho^k: cyclic right-rotation of the last axis, out[i] = v[i - k]."""
    d = v.shape[-1]
    idx = (np.arange(d) - k) % d
    return v[..., idx]


def sign_tie_plus(acc: np.ndarray) -> np.ndarray:
    """Element-wise sign with 0 -> +1, as int8."""
    return np.where(acc >= 0, 1, -1).astype(np.int8)


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------


def quantize(X, mins, maxs, levels: int) -> np.ndarray:
    """q_j = floor((x_j - min_j) / (max_j - min_j) * L), clipped to [0, L-1].

    Constant features (max == min) map to level 0.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.zeros(X.shape, dtype=np.int64)
    for j in range(X.shape[1]):
        span = maxs[j] - mins[j]
        if span > 0.0:
            q = np.floor((X[:, j] - mins[j]) / span * levels)
            out[:, j] = np.clip(q, 0, levels - 1)
    return out


def quantized_encoding(X, mins, maxs, levels, id_vectors, level_vectors) -> np.ndarray:
    """sign(sum_j ID_j * L_{q_j}) per row, summed in exact integers."""
    q = quantize(X, mins, maxs, levels)
    ids = np.asarray(id_vectors, dtype=np.int64)
    lv = np.asarray(level_vectors, dtype=np.int64)
    out = np.empty((q.shape[0], ids.shape[1]), dtype=np.int8)
    for r in range(q.shape[0]):
        out[r] = sign_tie_plus((ids * lv[q[r]]).sum(axis=0))
    return out


def trigram_encoding(text: str, symbol_vectors) -> np.ndarray:
    """sign(sum_t S_t * rho(S_{t+1}) * rho^2(S_{t+2})) over in-vocabulary symbols."""
    sv = np.asarray(symbol_vectors, dtype=np.int64)
    idx = [TEXT_VOCABULARY.index(c) for c in text if c in TEXT_VOCABULARY]
    acc = np.zeros(sv.shape[1], dtype=np.int64)
    for t in range(len(idx) - 2):
        acc += sv[idx[t]] * rotate(sv[idx[t + 1]], 1) * rotate(sv[idx[t + 2]], 2)
    return sign_tie_plus(acc)


def fpe_encoding(X, W, beta: float, base_phases) -> tuple[np.ndarray, np.ndarray]:
    """sum_j exp(i (beta W x_j + rho^j P)) for each (p, t) trajectory.

    Returns the encodings and an element-wise bound on their rounding
    error: each phase is a length-p dot product plus two additions, and
    exp of a phase off by e moves the phasor by at most e.
    """
    X = np.asarray(X, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    P = np.asarray(base_phases, dtype=np.float64)
    n, p, t = X.shape
    absW = np.abs(W)
    out = np.zeros((n, W.shape[0]), dtype=np.complex128)
    bound = np.zeros((n, W.shape[0]))
    for j in range(1, t + 1):
        x = X[:, :, j - 1]
        phase = beta * (x @ W.T) + rotate(P, j)[None, :]
        out += np.exp(1j * phase)
        magnitude = beta * (np.abs(x) @ absW.T) + 4.0 * math.pi
        bound += (p + 8) * EPS * magnitude
    return out, bound


# ---------------------------------------------------------------------------
# Prototypes and similarities
# ---------------------------------------------------------------------------


def prototypes(encoded, labels, n_classes: int, style: str) -> np.ndarray:
    """Per-class sums finalized per style (sign, L2 norm, mean, or raw)."""
    encoded = np.asarray(encoded)
    dtype = np.complex128 if np.iscomplexobj(encoded) else np.float64
    sums = np.zeros((n_classes, encoded.shape[1]), dtype=dtype)
    counts = np.zeros(n_classes)
    for row, y in zip(encoded, labels):
        sums[y] += row
        counts[y] += 1
    if style == "binarized":
        return sign_tie_plus(sums.real)
    if style == "l2_normalized_real":
        norms = np.sqrt((sums.real**2).sum(axis=1, keepdims=True))
        return sums.real / np.where(norms > 0.0, norms, 1.0)
    if style == "centroid":
        return sums.real / counts[:, None]
    return sums


def cosine_normalized(Q, P) -> tuple[np.ndarray, np.ndarray]:
    """(cos(q, p) + 1) / 2 and its rounding bound; zero vectors score 0.5."""
    Q = np.asarray(Q, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    sim = np.full((Q.shape[0], P.shape[0]), 0.5)
    for i, q in enumerate(Q):
        for k, p in enumerate(P):
            norm = math.sqrt(float(q @ q) * float(p @ p))
            if norm > 0.0:
                sim[i, k] = (min(max(float(q @ p) / norm, -1.0), 1.0) + 1.0) / 2.0
    # The dot and both norms are each off by at most (d + 4) eps relative to
    # ||q|| ||p|| (Cauchy-Schwarz), so cos is off by at most 2 (d + 8) eps.
    return sim, np.full(sim.shape, 2 * (Q.shape[1] + 8) * EPS)


def complex_cosine(Q, P) -> tuple[np.ndarray, np.ndarray]:
    """max((Re<q, conj p> / d + 1) / 2, 0) and its rounding bound."""
    Q = np.asarray(Q, dtype=np.complex128)
    P = np.asarray(P, dtype=np.complex128)
    d = Q.shape[1]
    re = np.array([[float(np.sum(q * np.conj(p)).real) for p in P] for q in Q]) / d
    sim = np.maximum((re + 1.0) / 2.0, 0.0)
    bound = (2 * d + 8) * EPS * (np.abs(Q) @ np.abs(P).T) / d
    return sim, bound


def inverse_euclidean(Q, P) -> tuple[np.ndarray, np.ndarray]:
    """min(1 / (||q - p|| + eps), 1 / eps) and its rounding bound.

    The bound covers a program that expands ||q - p||^2 into
    ||q||^2 - 2 q.p + ||p||^2, whose cancellation error grows with the
    norms relative to the distance.
    """
    Q = np.asarray(Q, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    diff = Q[:, None, :] - P[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    sim = np.minimum(1.0 / (dist + INVERSE_EUCLIDEAN_EPS), 1.0 / INVERSE_EUCLIDEAN_EPS)
    scale = (Q * Q).sum(axis=1)[:, None] + (P * P).sum(axis=1)[None, :]
    d2 = np.maximum(dist * dist, np.finfo(np.float64).tiny)
    rel = 8 * (Q.shape[1] + 4) * EPS * (scale / d2 + 1.0)
    return sim, sim * rel


# ---------------------------------------------------------------------------
# Scores, calibration, prediction sets
# ---------------------------------------------------------------------------


def scores(profiles, kind: str, *, lam=0.5, temperature=1.0, u=None) -> np.ndarray:
    """Nonconformity of every label, one formula per score kind."""
    delta = np.asarray(profiles, dtype=np.float64)
    total = delta.sum(axis=1, keepdims=True)
    if kind == "similarity":
        return -delta
    if kind == "ratio":
        return -delta / total
    if kind == "discount":
        return -(delta / total) * delta
    if kind == "penalized":
        return -delta + lam * (total - delta)
    if kind != "inverse_quantile":
        raise ValueError(f"unknown score kind {kind!r}")
    out = np.empty_like(delta)
    for i, row in enumerate(delta):
        z = np.exp(row / temperature - (row / temperature).max())
        pi = z / z.sum()
        # rank by descending probability, ties toward the smaller label
        order = sorted(range(len(pi)), key=lambda k: (-pi[k], k))
        mass = 0.0
        for k in order:
            mass += pi[k]
            out[i, k] = -(mass - u[i] * pi[k])
    return out


def score_bound(profiles, result) -> np.ndarray:
    """Rounding bound for the score formulas above (sums of K terms)."""
    delta = np.asarray(profiles, dtype=np.float64)
    k = delta.shape[1]
    scale = np.abs(result) + delta.sum(axis=1, keepdims=True) + 1.0
    return 16 * (k + 4) * EPS * scale


def order_statistic_index(n: int, alpha: float) -> int:
    """ceil((1 - alpha)(n + 1)) in exact rational arithmetic.

    ``alpha`` is read as the decimal it prints as (0.1 means 1/10), the
    value a user wrote in the configuration.
    """
    a = Fraction(repr(float(alpha)))
    return math.ceil((1 - a) * (n + 1))


def kth_smallest(values, k: int) -> float:
    """k-th smallest value (1-based), +inf when k exceeds the count."""
    ordered = sorted(float(v) for v in values)
    return ordered[k - 1] if k <= len(ordered) else math.inf


def marginal_threshold(cal_scores, alpha: float) -> float:
    return kth_smallest(cal_scores, order_statistic_index(len(cal_scores), alpha))


def conditional_thresholds(cal_scores, cal_labels, alpha: float, n_classes: int) -> np.ndarray:
    cal_scores = np.asarray(cal_scores)
    cal_labels = np.asarray(cal_labels)
    out = np.full(n_classes, math.inf)
    for y in range(n_classes):
        stratum = cal_scores[cal_labels == y]
        if stratum.size:
            out[y] = kth_smallest(stratum, order_statistic_index(stratum.size, alpha))
    return out


def prediction_sets(score_mat, thresholds) -> list[list[int]]:
    """{k : s_k <= q_k} for each row."""
    return [
        [k for k, s in enumerate(row) if s <= thresholds[k]]
        for row in np.asarray(score_mat, dtype=np.float64)
    ]


def coverage_se(alpha: float, n_cal: int, n_test: int, reps: int) -> float:
    """Standard error of the mean split-conformal coverage over ``reps``.

    Given its calibration set, a repetition's expected coverage is
    Beta(k, n + 1 - k) distributed with k = ceil((1 - alpha)(n + 1)) for
    exchangeable continuous scores; its n_test test points add binomial
    noise around that value. Returns 0 when the threshold is +inf.
    """
    k = order_statistic_index(n_cal, alpha)
    if k > n_cal:
        return 0.0
    a, b = k, n_cal + 1 - k
    mean = a / (a + b)
    var_cal = a * b / ((a + b) ** 2 * (a + b + 1))
    var_rep = var_cal + (mean * (1.0 - mean) - var_cal) / n_test
    return math.sqrt(var_rep / reps)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def covered_count_pmf(alpha: float, n_cal: int, n_test: int, reps: int) -> np.ndarray:
    """Distribution of the test points covered over ``reps`` repetitions.

    With exchangeable continuous scores the n_test test points of one
    split fall below the k-th smallest of n_cal calibration scores,
    k = ceil((1 - alpha)(n + 1)), in a BetaBinomial(n_test, k, n + 1 - k)
    number: every interleaving of their ranks is equally likely. Ties only
    add coverage. Repetitions are independent, so the total over ``reps``
    is that law convolved ``reps`` times. Entry j is P(total = j).
    """
    k = order_statistic_index(n_cal, alpha)
    total = reps * n_test
    if k > n_cal:  # the threshold is +inf: every test point is covered
        out = np.zeros(total + 1)
        out[total] = 1.0
        return out
    a, b = k, n_cal + 1 - k
    one = np.array([
        math.exp(
            math.lgamma(n_test + 1) - math.lgamma(j + 1) - math.lgamma(n_test - j + 1)
            + _log_beta(j + a, n_test - j + b) - _log_beta(a, b)
        )
        for j in range(n_test + 1)
    ])
    size = 1 << (total + 1 - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(one, size) ** reps, size)[: total + 1]
    out = np.clip(out, 0.0, None)
    return out / out.sum()

