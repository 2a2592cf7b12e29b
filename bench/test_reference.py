"""Hand-checkable cases for the reference computations.

Run from the repository root with ``python3 -m pytest bench/test_reference.py``.
"""

import math

import numpy as np
import pytest

import reference as ref


def test_rotate_is_a_cyclic_right_shift():
    assert ref.rotate(np.array([1, 2, 3, 4]), 1).tolist() == [4, 1, 2, 3]
    assert ref.rotate(np.array([1, 2, 3, 4]), 2).tolist() == [3, 4, 1, 2]
    assert ref.rotate(np.array([[1, 2, 3]]), 3).tolist() == [[1, 2, 3]]


def test_quantize_bins_clips_and_zeroes_constant_features():
    mins, maxs = np.array([0.0, 5.0]), np.array([1.0, 5.0])
    X = np.array([[0.0, 5.0], [0.24, 1.0], [0.25, 9.0], [0.99, 5.0], [1.0, 5.0], [-0.5, 5.0]])
    assert ref.quantize(X, mins, maxs, 4)[:, 0].tolist() == [0, 0, 1, 3, 3, 0]
    assert ref.quantize(X, mins, maxs, 4)[:, 1].tolist() == [0] * 6


def test_quantized_encoding_binds_identity_and_level_then_signs():
    ids = np.array([[1, 1, -1], [1, -1, 1]])
    levels = np.array([[1, 1, 1], [-1, 1, 1]])
    mins, maxs = np.zeros(2), np.ones(2)
    # q = [0, 1]: [1, 1, -1] + [-1, -1, 1] = [0, 0, 0], ties map to +1
    # q = [1, 1]: [-1, 1, -1] + [-1, -1, 1] = [-2, 0, 0]
    out = ref.quantized_encoding(np.array([[0.2, 0.7], [0.7, 0.7]]), mins, maxs, 2, ids, levels)
    assert out.tolist() == [[1, 1, 1], [-1, 1, 1]]
    assert out.dtype == np.int8


def test_trigram_encoding_binds_rotated_symbols():
    symbols = np.ones((27, 4), dtype=np.int8)
    symbols[1] = [1, -1, 1, 1]  # b, rotated once: [1, 1, -1, 1]
    symbols[2] = [1, 1, 1, -1]  # c, rotated twice: [1, -1, 1, 1]
    assert ref.trigram_encoding("abc", symbols).tolist() == [1, -1, -1, 1]
    # symbols outside the vocabulary are dropped before trigrams form
    assert ref.trigram_encoding("a?bc", symbols).tolist() == [1, -1, -1, 1]
    # fewer than three symbols: empty bundle, all +1
    assert ref.trigram_encoding("ab", symbols).tolist() == [1, 1, 1, 1]


def test_fpe_encoding_sums_phasors_bound_to_rotated_positions():
    W = np.array([[1.0], [2.0]])
    P = np.array([0.0, math.pi / 2])
    X = np.array([[[1.0, 2.0]]])  # one trajectory, one neuron, two bins
    out, bound = ref.fpe_encoding(X, W, 0.5, P)
    # bin 1: phases 0.5*[1, 2] + rho(P) = [0.5 + pi/2, 1]
    # bin 2: phases 0.5*[2, 4] + rho^2(P) = [1, 2 + pi/2]
    expected = [
        np.exp(1j * (0.5 + math.pi / 2)) + np.exp(1j * 1.0),
        np.exp(1j * 1.0) + np.exp(1j * (2.0 + math.pi / 2)),
    ]
    assert np.allclose(out[0], expected, rtol=0, atol=1e-15)
    assert np.all(bound > 0) and np.all(bound < 1e-12)


def test_prototypes_per_style():
    enc = np.array([[1.0, -1.0], [-1.0, -1.0], [3.0, 4.0]])
    labels = [0, 0, 1]
    assert ref.prototypes(enc, labels, 2, "binarized").tolist() == [[1, -1], [1, 1]]
    assert ref.prototypes(enc, labels, 2, "centroid").tolist() == [[0.0, -1.0], [3.0, 4.0]]
    assert ref.prototypes(enc, labels, 2, "l2_normalized_real").tolist() == [[0.0, -1.0], [0.6, 0.8]]
    raw = ref.prototypes(enc.astype(complex), labels, 2, "raw_complex")
    assert raw.tolist() == [[0j, -2 + 0j], [3 + 0j, 4 + 0j]]


def test_cosine_normalized_maps_cosine_onto_unit_interval():
    Q = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    P = np.array([[0.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
    sim, bound = ref.cosine_normalized(Q, P)
    assert sim[0].tolist() == [0.5, pytest.approx(0.5 + 0.5 / math.sqrt(2)), pytest.approx(0.5 - 0.5 / math.sqrt(2))]
    assert sim[1].tolist() == [pytest.approx(0.5 + 0.5 / math.sqrt(2)), 1.0, 0.0]
    assert sim[2].tolist() == [0.5, 0.5, 0.5]  # zero vector: treated as orthogonal
    assert np.all(bound < 1e-13)


def test_complex_cosine_takes_the_real_part_over_d():
    Q = np.array([[1, 1], [1j, 1]], dtype=complex)
    P = np.array([[1, 1], [-1, -1]], dtype=complex)
    sim, _ = ref.complex_cosine(Q, P)
    assert sim[0].tolist() == [1.0, 0.0]
    assert sim[1].tolist() == [0.75, 0.25]  # Re(i + 1) / 2 = 0.5


def test_inverse_euclidean_is_capped_at_one_over_eps():
    sim, bound = ref.inverse_euclidean(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert sim[0, 0] == 1.0 / (5.0 + 1e-12)
    assert sim[0, 1] == 1e12
    assert bound[0, 0] < 1e-13


def test_scores_follow_their_formulas():
    delta = np.array([[0.2, 0.6, 0.2]])
    assert ref.scores(delta, "similarity").tolist() == [[-0.2, -0.6, -0.2]]
    assert np.allclose(ref.scores(delta, "ratio"), [[-0.2, -0.6, -0.2]])
    assert np.allclose(ref.scores(delta, "discount"), [[-0.04, -0.36, -0.04]])
    # -delta_y + 0.5 * (sum - delta_y)
    assert np.allclose(ref.scores(delta, "penalized", lam=0.5), [[0.2, -0.4, 0.2]])


def test_inverse_quantile_accumulates_in_rank_order_ties_to_smaller_label():
    delta = np.array([[0.0, 0.0], [0.0, 0.0]])  # softmax [0.5, 0.5]; label 0 ranks first
    out = ref.scores(delta, "inverse_quantile", u=np.array([0.0, 1.0]))
    assert out.tolist() == [[-0.5, -1.0], [0.0, -0.5]]


@pytest.mark.parametrize(
    "n, alpha, k",
    [(9, 0.1, 9), (19, 0.05, 19), (99, 0.1, 90), (9, 0.3, 7), (4, 0.1, 5), (10, 0.1, 10)],
)
def test_order_statistic_index_is_exact(n, alpha, k):
    assert ref.order_statistic_index(n, alpha) == k


def test_thresholds_select_the_order_statistic_with_multiplicity():
    assert ref.kth_smallest([3, 1, 2, 2], 3) == 2
    assert ref.kth_smallest([3, 1, 2, 2], 5) == math.inf
    scores = list(range(10, 0, -1))  # n = 10: k = ceil(0.9 * 11) = 10, the largest
    assert ref.marginal_threshold(scores, 0.1) == 10
    # label 0 has 9 scores (k = 9, its largest); label 1 has 2 (k = 3 > 2: +inf); label 2 none
    cal = list(range(9)) + [5, 6]
    labels = [0] * 9 + [1, 1]
    assert ref.conditional_thresholds(cal, labels, 0.1, 3).tolist() == [8, math.inf, math.inf]


def test_prediction_sets_include_scores_at_the_threshold():
    sets = ref.prediction_sets([[0.1, 0.5], [0.6, 0.7]], [0.5, 0.6])
    assert sets == [[0, 1], []]


def test_coverage_se():
    # one test point: the per-repetition variance is mean * (1 - mean) = 0.09
    assert ref.coverage_se(0.1, 9, 1, 1) == pytest.approx(0.3)
    assert ref.coverage_se(0.1, 9, 1, 4) == pytest.approx(0.15)
    # k = 5 > n = 4: the threshold is +inf and coverage is 1 without variance
    assert ref.coverage_se(0.1, 4, 10, 1) == 0.0


def test_covered_count_pmf_is_the_exchangeable_rank_law():
    # n_cal = 3, alpha = 0.5: k = 2, so one test point is covered with
    # probability 2/4; two test points of one split: BetaBinomial(2, 2, 2)
    # = (0.3, 0.4, 0.3), which counting the 10 rank interleavings confirms
    assert ref.covered_count_pmf(0.5, 3, 1, 1) == pytest.approx([0.5, 0.5])
    assert ref.covered_count_pmf(0.5, 3, 2, 1) == pytest.approx([0.3, 0.4, 0.3])
    # two independent repetitions of one test point each
    assert ref.covered_count_pmf(0.5, 3, 1, 2) == pytest.approx([0.25, 0.5, 0.25])
    # k > n: the threshold is +inf and everything is covered
    assert list(ref.covered_count_pmf(0.1, 4, 3, 2)) == [0, 0, 0, 0, 0, 0, 1]
    pmf = ref.covered_count_pmf(0.1, 250, 33, 40)
    assert pmf.sum() == pytest.approx(1.0)
    assert pmf @ np.arange(pmf.size) == pytest.approx(40 * 33 * 226 / 251)

