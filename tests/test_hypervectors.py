"""Hypervector algebra: hand-derived values and algebraic laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_hdc.hypervectors import (
    EPS,
    INVERSE_EUCLIDEAN_CAP,
    BipolarHypervector,
    ComplexHypervector,
    RealAccumulator,
    bind,
    bundle,
    permute,
    random_bipolar,
    random_phase,
    sign_binarize,
    similarity,
    similarity_matrix,
)

TWO_PI = 2.0 * np.pi


def bipolar(*values):
    return BipolarHypervector(np.array(values))


small_dims = st.integers(min_value=1, max_value=32)


def random_pair(d, seed):
    rng = np.random.default_rng(seed)
    a = BipolarHypervector(rng.integers(0, 2, d) * 2 - 1)
    b = BipolarHypervector(rng.integers(0, 2, d) * 2 - 1)
    return a, b


class TestRandomGeneration:
    def test_bipolar_deterministic(self):
        a = random_bipolar(4, seed=123)
        b = random_bipolar(4, seed=123)
        np.testing.assert_array_equal(a.elements, b.elements)

    def test_bipolar_domain(self):
        h = random_bipolar(1, seed=0)
        assert h.elements[0] in (-1, 1)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            random_bipolar(0, seed=0)
        with pytest.raises(ValueError):
            random_phase(0, seed=0)

    def test_phase_deterministic_and_in_range(self):
        a = random_phase(4, seed=9)
        b = random_phase(4, seed=9)
        np.testing.assert_array_equal(a.phases, b.phases)
        assert np.all((a.phases >= 0) & (a.phases < TWO_PI))

    def test_bipolar_quasi_orthogonality(self):
        # Independent draws at d=10000 concentrate around similarity 0.5.
        for pair in range(100):
            a = random_bipolar(10_000, seed=2 * pair)
            b = random_bipolar(10_000, seed=2 * pair + 1)
            assert abs(similarity(a, b, "cosine_normalized") - 0.5) < 0.03

    def test_phase_quasi_orthogonality(self):
        for pair in range(100):
            a = random_phase(10_000, seed=2 * pair)
            b = random_phase(10_000, seed=2 * pair + 1)
            assert abs(similarity(a, b, "complex_cosine") - 0.5) < 0.03


class TestBundleAndSign:
    def test_hand_sum(self):
        acc = bundle([bipolar(1, 1, -1), bipolar(1, -1, -1), bipolar(1, 1, 1)])
        np.testing.assert_array_equal(acc.elements, [3, 1, -1])

    def test_singleton(self):
        acc = bundle([bipolar(1, -1)])
        np.testing.assert_array_equal(acc.elements, [1.0, -1.0])

    def test_order_independent(self):
        hs = [random_bipolar(16, seed=s) for s in range(5)]
        out = bundle(hs).elements
        np.testing.assert_array_equal(out, bundle(hs[::-1]).elements)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bundle([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            bundle([bipolar(1, 1), bipolar(1, 1, 1)])

    def test_sign_hand_values(self):
        out = sign_binarize(RealAccumulator([3.0, 1.0, -1.0]))
        np.testing.assert_array_equal(out.elements, [1, 1, -1])

    def test_sign_zero_tie_break(self):
        out = sign_binarize(RealAccumulator([0.0, 0.0]))
        np.testing.assert_array_equal(out.elements, [1, 1])

    def test_sign_idempotent(self):
        acc = RealAccumulator([2.5, -0.5, 0.0, -3.0])
        once = sign_binarize(acc)
        twice = sign_binarize(RealAccumulator(once.elements.astype(float)))
        np.testing.assert_array_equal(once.elements, twice.elements)


class TestBind:
    def test_bipolar_hand_product(self):
        out = bind(bipolar(1, -1), bipolar(1, 1))
        np.testing.assert_array_equal(out.elements, [1, -1])

    def test_self_inverse(self):
        h = random_bipolar(64, seed=5)
        np.testing.assert_array_equal(bind(h, h).elements, np.ones(64))

    def test_complex_phase_addition(self):
        out = bind(
            ComplexHypervector([np.pi / 2, np.pi]),
            ComplexHypervector([np.pi / 2, np.pi / 2]),
        )
        np.testing.assert_allclose(out.phases, [np.pi, 3 * np.pi / 2])

    def test_mixed_representations_rejected(self):
        with pytest.raises(TypeError):
            bind(random_bipolar(4, 0), random_phase(4, 0))

    @given(st.integers(0, 2**32 - 1), small_dims)
    @settings(max_examples=40, deadline=None)
    def test_commutative_associative_bipolar(self, seed, d):
        rng = np.random.default_rng(seed)
        a, b, c = (BipolarHypervector(rng.integers(0, 2, d) * 2 - 1) for _ in range(3))
        np.testing.assert_array_equal(bind(a, b).elements, bind(b, a).elements)
        np.testing.assert_array_equal(
            bind(bind(a, b), c).elements, bind(a, bind(b, c)).elements
        )

    @given(st.integers(0, 2**32 - 1), small_dims)
    @settings(max_examples=40, deadline=None)
    def test_commutative_associative_complex(self, seed, d):
        a = random_phase(d, seed=seed)
        b = random_phase(d, seed=seed + 1)
        c = random_phase(d, seed=seed + 2)
        np.testing.assert_allclose(bind(a, b).phases, bind(b, a).phases, atol=1e-12)
        lhs = bind(bind(a, b), c).phases
        rhs = bind(a, bind(b, c)).phases
        # compare as angles: wrap-around means 0 and 2*pi are the same point
        gap = np.abs(lhs - rhs)
        np.testing.assert_allclose(np.minimum(gap, TWO_PI - gap), 0.0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), small_dims, st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_permute_distributes_over_bind(self, seed, d, k):
        a = random_bipolar(d, seed=seed)
        b = random_bipolar(d, seed=seed + 1)
        lhs = permute(bind(a, b), k)
        rhs = bind(permute(a, k), permute(b, k))
        np.testing.assert_array_equal(lhs.elements, rhs.elements)

    @given(st.integers(0, 2**32 - 1), small_dims, st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_permute_distributes_complex(self, seed, d, k):
        a = random_phase(d, seed=seed)
        b = random_phase(d, seed=seed + 1)
        lhs = permute(bind(a, b), k)
        rhs = bind(permute(a, k), permute(b, k))
        np.testing.assert_allclose(lhs.phases, rhs.phases, atol=1e-12)


class TestPermute:
    def test_right_rotation(self):
        out = permute(bipolar(1, -1, 1, 1), 1)
        # [a, b, c, d] -> [d, a, b, c]
        np.testing.assert_array_equal(out.elements, [1, 1, -1, 1])

    def test_identity_shifts(self):
        h = random_bipolar(8, seed=3)
        np.testing.assert_array_equal(permute(h, 0).elements, h.elements)
        np.testing.assert_array_equal(permute(h, 8).elements, h.elements)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            permute(random_bipolar(4, 0), -1)


class TestSimilarity:
    def test_cosine_identity_exact(self):
        h = random_bipolar(100, seed=4)
        assert similarity(h, h, "cosine_normalized") == 1.0

    def test_cosine_orthogonal(self):
        assert similarity(bipolar(1, 1, -1, -1), bipolar(1, -1, 1, -1), "cosine_normalized") == 0.5

    def test_inverse_euclidean_hand_norm(self):
        got = similarity(RealAccumulator([0.0, 0.0]), RealAccumulator([3.0, 4.0]), "inverse_euclidean")
        assert got == pytest.approx(0.2, abs=1e-10)

    def test_inverse_euclidean_hand_norm_off_origin(self):
        # the squared distance is expanded: 1e6 from the origin it still
        # holds to 1e-9 (near 1e8 it is 2% off)
        got = similarity(RealAccumulator([1e6, 0.0]), RealAccumulator([1e6 + 3.0, 4.0]), "inverse_euclidean")
        assert got == pytest.approx(0.2, rel=1e-9)

    def test_inverse_euclidean_cap(self):
        h = RealAccumulator([1.0, 2.0])
        assert similarity(h, h, "inverse_euclidean") == INVERSE_EUCLIDEAN_CAP

    def test_complex_cosine_hand(self):
        a = ComplexHypervector([0.0, 0.0])
        b = ComplexHypervector([0.0, np.pi])
        assert similarity(a, b, "complex_cosine") == pytest.approx(0.5)

    def test_complex_identity_maximal(self):
        h = random_phase(128, seed=11)
        assert similarity(h, h, "complex_cosine") == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            similarity(random_bipolar(4, 0), random_bipolar(5, 0), "cosine_normalized")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(TypeError):
            similarity(random_phase(4, 0), random_phase(4, 0), "cosine_normalized")
        with pytest.raises(TypeError):
            similarity(random_bipolar(4, 0), random_bipolar(4, 0), "complex_cosine")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            similarity(random_bipolar(4, 0), random_bipolar(4, 0), "dot")

    @given(st.integers(0, 2**32 - 1), small_dims)
    @settings(max_examples=40, deadline=None)
    def test_symmetry_all_kinds(self, seed, d):
        a, b = random_pair(d, seed)
        for kind in ("cosine_normalized", "inverse_euclidean"):
            assert similarity(a, b, kind) == pytest.approx(similarity(b, a, kind))
        ca = random_phase(d, seed)
        cb = random_phase(d, seed + 1)
        assert similarity(ca, cb, "complex_cosine") == pytest.approx(
            similarity(cb, ca, "complex_cosine")
        )

    @given(st.integers(0, 2**32 - 1), small_dims)
    @settings(max_examples=40, deadline=None)
    def test_outputs_nonnegative_and_bounded(self, seed, d):
        a, b = random_pair(d, seed)
        assert 0.0 <= similarity(a, b, "cosine_normalized") <= 1.0
        assert similarity(a, b, "inverse_euclidean") > 0.0
        ca = random_phase(d, seed)
        cb = random_phase(d, seed + 1)
        assert 0.0 <= similarity(ca, cb, "complex_cosine") <= 1.0

    def test_accumulator_complex_cosine_floored_at_zero(self):
        # Anti-aligned unnormalized accumulators would go negative without
        # the floor; scores downstream need nonnegative evidence.
        a = np.full(4, 3.0 + 0j)
        b = np.full(4, -3.0 + 0j)
        assert similarity(a, b, "complex_cosine") == 0.0

    def test_plain_arrays_equal_hypervector_values(self):
        a, b = random_bipolar(64, seed=13), random_bipolar(64, seed=14)
        for kind in ("cosine_normalized", "inverse_euclidean"):
            assert similarity(a.elements, b.elements, kind) == similarity(a, b, kind)
        ca, cb = random_phase(64, seed=13), random_phase(64, seed=14)
        assert similarity(ca.as_complex(), cb, "complex_cosine") == similarity(ca, cb, "complex_cosine")

    def test_batch_rejected(self):
        with pytest.raises(ValueError, match="single hypervectors"):
            similarity(np.ones((2, 4)), np.ones(4), "cosine_normalized")


class TestSimilarityMatrix:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_scalar_similarity(self, seed):
        # reference: each kind's formula on one pair of rows
        rng = np.random.default_rng(seed)
        Q = rng.integers(0, 2, size=(3, 12), dtype=np.int8) * 2 - 1
        P = rng.integers(0, 2, size=(2, 12), dtype=np.int8) * 2 - 1
        formulas = {
            "cosine_normalized": lambda q, p: (np.clip(q @ p / np.sqrt((q @ q) * (p @ p)), -1, 1) + 1) / 2,
            "inverse_euclidean": lambda q, p: min(1 / (np.linalg.norm(q - p) + EPS), INVERSE_EUCLIDEAN_CAP),
        }
        for kind, formula in formulas.items():
            mat = similarity_matrix(Q, P, kind)
            for i in range(3):
                for j in range(2):
                    want = formula(Q[i].astype(np.float64), P[j].astype(np.float64))
                    assert mat[i, j] == pytest.approx(want, rel=1e-12)

    def test_matches_scalar_complex(self):
        # reference: (Re[q^T conj(p)]/d + 1)/2 floored at 0, on one pair of rows
        rng = np.random.default_rng(7)
        Q = np.exp(1j * rng.uniform(0, TWO_PI, size=(3, 9)))
        P = np.exp(1j * rng.uniform(0, TWO_PI, size=(2, 9)))
        mat = similarity_matrix(Q, P, "complex_cosine")
        for i in range(3):
            for j in range(2):
                want = max((np.real(Q[i] @ np.conj(P[j])) / 9 + 1) / 2, 0)
                assert mat[i, j] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kind", ["cosine_normalized", "inverse_euclidean"])
    def test_given_prototype_norms_change_nothing(self, kind):
        rng = np.random.default_rng(9)
        Q, P = rng.normal(size=(4, 7)), rng.normal(size=(3, 7))
        norms = np.einsum("ij,ij->i", P, P)
        want = similarity_matrix(Q, P, kind)
        assert similarity_matrix(Q, P, kind, prototype_sq_norms=norms).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            similarity_matrix(Q, P, kind, prototype_sq_norms=norms[:2])
        Q[2, 3] = np.nan  # the query's own sums of squares are still checked
        with pytest.raises(ValueError, match="NaN or infinite"):
            similarity_matrix(Q, P, kind, prototype_sq_norms=norms)
        Q[2, 3] = 0.0
        norms[1] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            similarity_matrix(Q, P, kind, prototype_sq_norms=norms)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["cosine_normalized", "inverse_euclidean", "complex_cosine"])
    @pytest.mark.parametrize("side", ["queries", "prototypes"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # complex inf
    def test_non_finite_input_rejected(self, kind, bad, side):
        rng = np.random.default_rng(8)
        arrays = {"queries": rng.normal(size=(3, 6)), "prototypes": rng.normal(size=(2, 6))}
        if kind == "complex_cosine":
            arrays = {k: np.exp(1j * v) for k, v in arrays.items()}
        arrays[side][1, 4] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            similarity_matrix(arrays["queries"], arrays["prototypes"], kind)

    @pytest.mark.parametrize("kind", ["cosine_normalized", "inverse_euclidean"])
    @pytest.mark.parametrize("side", ["queries", "prototypes"])
    def test_complex_input_rejected_by_real_kinds(self, kind, side):
        arrays = {"queries": np.ones((3, 6)), "prototypes": np.ones((2, 6))}
        arrays[side] = arrays[side] * (1.0 + 0.5j)
        with pytest.raises(TypeError, match="real codes"):
            similarity_matrix(arrays["queries"], arrays["prototypes"], kind)

    @pytest.mark.parametrize("side", ["queries", "prototypes", "both"])
    def test_real_input_rejected_by_complex_cosine(self, side):
        arrays = {"queries": np.ones((3, 6), dtype=complex), "prototypes": np.ones((2, 6), dtype=complex)}
        for key in arrays if side == "both" else [side]:
            arrays[key] = arrays[key].real.astype(np.int8)
        with pytest.raises(TypeError, match="complex codes only"):
            similarity_matrix(arrays["queries"], arrays["prototypes"], "complex_cosine")


class TestTypeInvariants:
    def test_bipolar_elements_validated(self):
        with pytest.raises(ValueError):
            BipolarHypervector(np.array([1, 0, -1]))

    def test_phases_wrap(self):
        h = ComplexHypervector([TWO_PI + 0.5, -0.5])
        assert np.all((h.phases >= 0) & (h.phases < TWO_PI))

    def test_values_immutable(self):
        h = random_bipolar(4, seed=0)
        with pytest.raises(ValueError):
            h.elements[0] = -1
