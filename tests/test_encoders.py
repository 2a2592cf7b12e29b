"""Encoders: fixed-point examples, Monte-Carlo sanity, and determinism."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conformal_hdc.encoders import (
    _PHASOR_STEPS,
    TEXT_VOCABULARY,
    BinaryImageEncoder,
    FpeProjection,
    ItemMemory,
    LevelMemory,
    QuantizationGrid,
    QuantizedFeatureEncoder,
    TemporalFpeEncoder,
    IdentityEncoder,
    TrigramTextEncoder,
    _add_unit_phasors,
    _split_steps,
    preprocess_text,
)
from conformal_hdc.hypervectors import (
    INVERSE_EUCLIDEAN_CAP,
    BipolarHypervector,
    bind,
    similarity,
)


class TestItemMemory:
    def test_deterministic(self):
        a = ItemMemory(5, 64, seed=3)
        b = ItemMemory(5, 64, seed=3)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_entries_bipolar(self):
        im = ItemMemory(4, 32, seed=0)
        assert set(np.unique(im.vectors)) <= {-1, 1}


class TestLevelMemory:
    def test_adjacent_flip_count_exact(self):
        lm = LevelMemory(d=1000, levels=21, seed=1)
        assert lm.flip_step == 1000 // 40
        for v in range(20):
            flips = np.count_nonzero(lm.vectors[v] != lm.vectors[v + 1])
            assert flips == lm.flip_step

    def test_distance_proportional_to_level_gap(self):
        lm = LevelMemory(d=1000, levels=11, seed=2)
        for u in range(11):
            for v in range(11):
                d_h = np.count_nonzero(lm.vectors[u] != lm.vectors[v])
                assert d_h == lm.flip_step * abs(u - v)

    def test_monotone_in_gap(self):
        lm = LevelMemory(d=512, levels=8, seed=3)
        for u in range(8):
            prev = -1
            for w in range(u, 8):
                d_h = np.count_nonzero(lm.vectors[u] != lm.vectors[w])
                assert d_h >= prev
                prev = d_h

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            LevelMemory(d=100, levels=1, seed=0)


class TestQuantizationGrid:
    def test_boundaries(self):
        grid = QuantizationGrid.fit(np.array([[0.0, -1.0], [10.0, 1.0]]), levels=21)
        lows = grid.quantize(np.array([0.0, -1.0]))[0]
        np.testing.assert_array_equal(lows, [0, 0])
        highs = grid.quantize(np.array([10.0, 1.0]))[0]
        np.testing.assert_array_equal(highs, [20, 20])

    def test_out_of_range_clipped(self):
        grid = QuantizationGrid.fit(np.array([[0.0], [1.0]]), levels=4)
        assert grid.quantize(np.array([-5.0]))[0][0] == 0
        assert grid.quantize(np.array([5.0]))[0][0] == 3

    def test_constant_feature_maps_to_zero(self):
        grid = QuantizationGrid.fit(np.array([[2.0], [2.0]]), levels=5)
        assert grid.quantize(np.array([2.0]))[0][0] == 0

    @pytest.mark.parametrize("levels, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_levels_match_the_float_formula_in_the_smallest_dtype(self, levels, dtype):
        rng = np.random.default_rng(levels)
        train = rng.normal(size=(40, 7))
        train[:, 3] = 1.5  # a constant feature
        grid = QuantizationGrid.fit(train, levels=levels)
        X = rng.normal(size=(300, 7)) * 1.5
        span = grid.maxs - grid.mins
        want = np.floor((X - grid.mins) / np.where(span > 0.0, span, 1.0) * levels)
        want[:, span == 0.0] = 0
        got = grid.quantize(X)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, np.clip(want, 0, levels - 1))

    def test_values_past_int64_reach_the_top_level(self):
        # clipped before the cast: a level past int64 no longer wraps to level 0
        grid = QuantizationGrid.fit(np.array([[0.0], [1.0]]), levels=21)
        np.testing.assert_array_equal(grid.quantize(np.array([[1e30], [-1e30]])), [[20], [0]])

    def test_min_le_max_enforced(self):
        with pytest.raises(ValueError):
            QuantizationGrid(mins=np.array([1.0]), maxs=np.array([0.0]), levels=3)


class TestBinaryImageEncoding:
    def test_single_active_pixel_returns_position_vector(self):
        enc = BinaryImageEncoder(p=10, d=64, seed=4)
        pixels = np.zeros((1, 10))
        pixels[0, 3] = 1
        np.testing.assert_array_equal(enc.encode_batch(pixels)[0], enc.im.vectors[3])

    def test_all_zero_image_is_all_plus_one(self):
        enc = BinaryImageEncoder(p=10, d=32, seed=4)
        np.testing.assert_array_equal(enc.encode_batch(np.zeros((1, 10)))[0], np.ones(32))

    def test_length_mismatch_rejected(self):
        enc = BinaryImageEncoder(p=10, d=32, seed=4)
        with pytest.raises(ValueError):
            enc.encode_batch(np.zeros((1, 9)))

    def test_nonbinary_rejected(self):
        enc = BinaryImageEncoder(p=4, d=32, seed=4)
        with pytest.raises(ValueError):
            enc.encode_batch(np.array([[0.0, 0.5, 1.0, 0.0]]))

    def test_one_pixel_of_200_barely_changes_encoding(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            enc = BinaryImageEncoder(p=400, d=10_000, seed=100 + trial)
            base = np.zeros(400)
            active = rng.choice(400, size=200, replace=False)
            base[active] = 1
            other = base.copy()
            swap_out, swap_in = active[0], [j for j in range(400) if base[j] == 0][0]
            other[swap_out] = 0
            other[swap_in] = 1
            sim = similarity(*enc.encode_batch(np.stack([base, other])), "cosine_normalized")
            assert sim > 0.95

    def test_batch_matches_sign_of_position_sum(self):
        # an even pixel count ties at 0 on some positions, and the blank image everywhere
        enc = BinaryImageEncoder(p=12, d=64, seed=5)
        X = (np.random.default_rng(1).uniform(size=(6, 12)) > 0.5).astype(np.uint8)
        X[5] = 0
        batch = enc.encode_batch(X)
        assert batch.dtype == np.int8
        want = np.where(X.astype(np.int64) @ enc.im.vectors >= 0, 1, -1)
        np.testing.assert_array_equal(batch, want)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], enc.encode_batch(X[i : i + 1])[0])


class TestQuantizedEncoding:
    def test_single_feature_is_bound_pair(self):
        enc = QuantizedFeatureEncoder(p=1, d=64, levels=4, seed=6).fit(np.array([[0.0], [1.0]]))
        out = enc.encode_batch(np.array([[0.9]]))[0]
        level = enc.grid.quantize(np.array([0.9]))[0][0]
        want = bind(BipolarHypervector(enc.im.vectors[0]), BipolarHypervector(enc.lm.vectors[level]))
        np.testing.assert_array_equal(out, want.elements)

    def test_training_minimum_hits_level_zero(self):
        X = np.random.default_rng(2).uniform(size=(50, 8))
        grid = QuantizationGrid.fit(X, levels=21)
        levels = grid.quantize(X.min(axis=0))[0]
        np.testing.assert_array_equal(levels, np.zeros(8))

    def test_one_level_move_keeps_encoding_close(self):
        rng = np.random.default_rng(3)
        for trial in range(3):
            enc = QuantizedFeatureEncoder(p=100, d=10_000, levels=21, seed=trial)
            X = rng.uniform(size=(40, 100))
            enc.fit(X)
            x = X[0]
            moved = x.copy()
            # shift one feature by exactly one quantization level
            span = (enc.grid.maxs[0] - enc.grid.mins[0]) / enc.levels
            moved[0] = min(moved[0] + span, enc.grid.maxs[0])
            sim = similarity(*enc.encode_batch(np.stack([x, moved])), "cosine_normalized")
            assert sim > 0.99

    def test_unfitted_grid_rejected(self):
        enc = QuantizedFeatureEncoder(p=4, d=32, levels=5, seed=0)
        with pytest.raises(RuntimeError):
            enc.encode_batch(np.zeros((1, 4)))

    def test_grid_of_another_feature_count_rejected(self):
        # the check the deleted single-row encoder made, now on the batch path
        enc = QuantizedFeatureEncoder(p=4, d=32, levels=5, seed=0).fit(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="different feature count"):
            enc.encode_batch(np.zeros((2, 4)))

    # the former fixed case, then levels=2, odd d, d < 2*(levels-1) (LevelMemory
    # flips nothing) and p = d = 1
    @example(p=6, d=64, levels=5, seed=8)
    @example(p=3, d=17, levels=2, seed=1)
    @example(p=5, d=63, levels=21, seed=2)
    @example(p=4, d=5, levels=8, seed=3)
    @example(p=1, d=1, levels=2, seed=4)
    @given(
        p=st.integers(1, 12),
        d=st.integers(1, 90),
        levels=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_single(self, p, d, levels, seed):
        rng = np.random.default_rng(seed)
        train = rng.uniform(-2.0, 3.0, size=(8, p))
        train[:, 0] = 1.5  # a constant feature
        enc = QuantizedFeatureEncoder(p=p, d=d, levels=levels, seed=seed).fit(train)
        span = enc.grid.maxs - enc.grid.mins
        edges = enc.grid.mins + np.arange(levels + 1)[:, None] * span / levels
        X = np.concatenate([
            train,
            edges,  # exactly on every bin edge, both grid ends included
            [enc.grid.mins - 1.0, enc.grid.maxs + 1.0],  # outside the grid
            rng.uniform(-4.0, 5.0, size=(6, p)),
        ])
        batch = enc.encode_batch(X)
        assert batch.dtype == np.int8 and batch.flags.c_contiguous
        np.testing.assert_array_equal(batch, _quantized_sign_reference(enc, X))
        for i in range(X.shape[0]):
            np.testing.assert_array_equal(batch[i], enc.encode_batch(X[i : i + 1])[0])

    def test_batch_exact_for_any_level_table(self):
        # flip sets of different steps overlap here, unlike LevelMemory's
        enc = QuantizedFeatureEncoder(p=9, d=40, levels=6, seed=5)
        rng = np.random.default_rng(5)
        enc.lm.vectors = rng.choice(np.array([-1, 1], dtype=np.int8), size=(6, 40))
        X = rng.normal(size=(30, 9))
        enc.fit(X)
        np.testing.assert_array_equal(enc.encode_batch(X), _quantized_sign_reference(enc, X))

    def test_batch_peak_memory(self):
        # Beyond its input the batch holds the (d, n) float32 accumulator, the
        # n x d int8 codes and per-level n x p temporaries: the bound below.
        # Chained float64 quantizer temporaries, an int64 level table and a
        # transposed copy of the signs put it 3.3 MiB higher (12.5 MiB) here.
        n, p, d = 660, 617, 2000
        X = np.random.default_rng(7).uniform(-1.0, 1.0, size=(n, p))
        enc = QuantizedFeatureEncoder(p=p, d=d, levels=21, seed=1).fit(X[:377])
        tracemalloc.start()
        try:
            enc.encode_batch(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n * d + 8 * n * p + 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.random.default_rng(6).uniform(size=(5, 4))
        enc = QuantizedFeatureEncoder(p=4, d=32, levels=5, seed=9).fit(X)
        row = X[0].copy()
        row[2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            enc.encode_batch(row[None])
        with pytest.raises(ValueError, match="NaN or infinite"):
            enc.encode_batch(np.stack([X[1], row]))
        with pytest.raises(ValueError, match="NaN or infinite"):
            QuantizedFeatureEncoder(p=4, d=32, levels=5, seed=9).fit(np.vstack([X, row]))


def _fpe_reference(enc, X):
    """Per-bin sum of exp(i (beta x W^T + rho^j P)) and its float64 rounding bound.

    Each bin's phase is a length-p dot product plus two additions; the bound
    adds (p + 8) eps (beta |x| |W|^T + 4 pi) per bin, as the benchmark does.
    """
    W, beta, P = enc.proj.W, enc.proj.beta, enc.bank.base.phases
    n, p, t = X.shape
    want = np.zeros((n, enc.d), dtype=np.complex128)
    bound = np.zeros((n, enc.d))
    for j in range(1, t + 1):
        x = X[:, :, j - 1]
        want += np.exp(1j * (beta * (x @ W.T) + np.roll(P, j)))
        bound += (p + 8) * np.finfo(np.float64).eps * (beta * (np.abs(x) @ np.abs(W).T) + 4.0 * np.pi)
    return want, bound


def _quantized_sign_reference(enc, X):
    """sign(sum_j ID_j * L_{q_j}) per row, summed directly in int64, tie -> +1."""
    q = enc.grid.quantize(X)
    ids = enc.im.vectors.astype(np.int64)
    lvls = enc.lm.vectors.astype(np.int64)
    total = (ids[None, :, :] * lvls[q]).sum(axis=1)
    return np.where(total >= 0, 1, -1).astype(np.int8)


def _trigram_sign_reference(text, vectors):
    """sign(sum_t S_t * rho(S_{t+1}) * rho^2(S_{t+2})) summed directly in int64, tie -> +1."""
    sv = vectors.astype(np.int64)
    idx = [TEXT_VOCABULARY.index(c) for c in text if c in TEXT_VOCABULARY]
    total = np.zeros(sv.shape[1], dtype=np.int64)
    for a, b, c in zip(idx, idx[1:], idx[2:]):
        total += sv[a] * np.roll(sv[b], 1) * np.roll(sv[c], 2)
    return np.where(total >= 0, 1, -1).astype(np.int8)


class TestTrigramEncoding:
    def test_three_characters_is_single_trigram(self):
        enc = TrigramTextEncoder(d=64, seed=9)
        im = enc.im
        sa = BipolarHypervector(im.vectors[0])
        sb = BipolarHypervector(im.vectors[1])
        sc = BipolarHypervector(im.vectors[2])
        from conformal_hdc.hypervectors import permute

        want = bind(bind(sa, permute(sb, 1)), permute(sc, 2))
        got = enc.encode_batch(["abc"])[0]
        np.testing.assert_array_equal(got, want.elements)

    def test_too_short_gives_all_plus_one(self):
        enc = TrigramTextEncoder(d=32, seed=9)
        np.testing.assert_array_equal(enc.encode_batch(["ab", ""]), np.ones((2, 32)))

    def test_distinct_trigrams_quasi_orthogonal(self):
        enc = TrigramTextEncoder(d=10_000, seed=10)
        sim = similarity(*enc.encode_batch(["abc", "acb"]), "cosine_normalized")
        assert abs(sim - 0.5) < 0.05

    def test_out_of_vocabulary_dropped(self):
        enc = TrigramTextEncoder(d=64, seed=11)
        oov, plain = enc.encode_batch(["a1b!c", "abc"])
        np.testing.assert_array_equal(oov, plain)

    @pytest.mark.parametrize("length", [129, 130, 1000])
    def test_long_text_sums_exactly(self, length):
        # 127 and 128 trigrams straddled the chunk edge of an earlier int8 sum;
        # 998 trigrams span four uint8 chunks of 255
        enc = TrigramTextEncoder(d=256, seed=12)
        rng = np.random.default_rng(length)
        texts = ["a" * length, "".join(rng.choice(list(TEXT_VOCABULARY), size=length))]
        sv = enc.im.vectors.astype(np.int64)
        for text in texts:
            idx = [TEXT_VOCABULARY.index(c) for c in text]
            total = np.zeros(enc.d, dtype=np.int64)
            for a, b, c in zip(idx, idx[1:], idx[2:]):
                total += sv[a] * np.roll(sv[b], 1) * np.roll(sv[c], 2)
            want = np.where(total >= 0, 1, -1)
            np.testing.assert_array_equal(enc.encode_batch([text])[0], want)

    # "a" * n repeats one trigram n - 2 times, so a uint8 count of 256 or more
    # bits would wrap and flip every sign; widths that are not a multiple of 8
    # leave pad bits in the packed rows
    @example(d=9, texts=["a" * 256, "a" * 257, "a" * 258], seed=1)
    @example(d=65, texts=["a" * 512, "a" * 513], seed=2)
    @example(d=7, texts=["", "a", "ab", "abc"], seed=3)
    @example(d=63, texts=["é中a0b\x00c", "中文", "ABC abc", "abcd"], seed=4)
    @example(d=10_000, texts=["the quick brown fox", "a" * 258], seed=5)
    @given(
        d=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 10_000]),
        texts=st.lists(
            st.one_of(
                st.text(TEXT_VOCABULARY, max_size=3),
                st.text(TEXT_VOCABULARY + "é中0\x00A!", max_size=140),
                st.sampled_from(["a" * n for n in (256, 257, 258, 512, 513)]),
            ),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_packed_kernel_matches_direct_sum(self, d, texts, seed):
        enc = TrigramTextEncoder(d=d, seed=seed)
        batch = enc.encode_batch(texts)
        assert batch.shape == (len(texts), d) and batch.dtype == np.int8
        for row, text in zip(batch, texts):
            np.testing.assert_array_equal(row, _trigram_sign_reference(text, enc.im.vectors))
            np.testing.assert_array_equal(row, enc.encode_batch([text])[0])

    def test_batch_rejects_bare_string(self):
        # iterating a string would encode each character as its own text
        enc = TrigramTextEncoder(d=32, seed=13)
        with pytest.raises(TypeError, match="not one string"):
            enc.encode_batch("abcabc")
        assert enc.encode_batch(["abcabc"]).shape == (1, 32)

    def test_preprocess(self):
        assert preprocess_text("Hello  World") == "hello world"
        assert len(preprocess_text("x" * 500)) == 128
        assert preprocess_text("  A\tB\nC  ") == "a b c"


class TestFpeEncoding:
    def test_zero_input_gives_zero_phases(self):
        proj = FpeProjection(p=5, d=32, beta=0.3, seed=12)
        np.testing.assert_array_equal(proj.phases(np.zeros(5)), np.zeros(32))

    def test_self_similarity_is_one(self):
        proj = FpeProjection(p=5, d=64, beta=0.3, seed=13)
        x = np.random.default_rng(5).normal(size=5)
        h = np.exp(1j * proj.phases(x))
        assert similarity(h, h, "complex_cosine") == pytest.approx(1.0, abs=1e-12)

    def test_kernel_approximation(self):
        # Expected complex cosine is (exp(-beta^2 r^2 / 2) + 1) / 2.
        proj = FpeProjection(p=8, d=4000, beta=0.3, seed=14)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x, xp = rng.normal(size=8), rng.normal(size=8)
            r2 = float(np.sum((x - xp) ** 2))
            want = (np.exp(-0.09 * r2 / 2.0) + 1.0) / 2.0
            got = similarity(np.exp(1j * proj.phases(x)), np.exp(1j * proj.phases(xp)), "complex_cosine")
            assert got == pytest.approx(want, abs=0.04)

    def test_dimension_mismatch_rejected(self):
        proj = FpeProjection(p=5, d=16, seed=15)
        with pytest.raises(ValueError):
            proj.phases(np.zeros(4))


def _unit_phasors(u, out=None):
    """exp(2 pi i u / N) from the FPE kernel's phasor step, u in table steps, added into ``out`` (zeros by default)."""
    u = np.array(u, dtype=np.float64)
    out = np.zeros(u.shape, dtype=np.complex128) if out is None else out.copy()
    work = np.empty((3,) + u.shape)
    terms = np.empty((2,) + u.shape, dtype=np.complex128)
    _add_unit_phasors(u, out, work, np.empty(u.shape, dtype=np.intp), terms)
    return out


#: pi to about 1e-32: the float64 pi plus the float64 of its remainder
_PI = Fraction(math.pi) + Fraction(1.2246467991473532e-16)


def _exact_unit_phasor(u: float) -> tuple[float, float]:
    """cos and sin of 2 pi u / N, reduced exactly: libm sees only the remaining angle, at most pi / 4."""
    quarter = Fraction(_PHASOR_STEPS // 4)
    v = Fraction(u) % _PHASOR_STEPS
    q = round(v / quarter)
    angle = float((v - q * quarter) * 2 * _PI / _PHASOR_STEPS)
    c, s = math.cos(angle), math.sin(angle)
    return [(c, s), (-s, c), (-c, -s), (s, -c)][q % 4]


class TestUnitPhasors:
    def test_matches_exact_reduction(self):
        rng = np.random.default_rng(30)
        m = np.arange(-3 * _PHASOR_STEPS, 3 * _PHASOR_STEPS, dtype=np.float64)
        sign = rng.choice([-1.0, 1.0], size=2000)
        limit = 2.0**31
        u = np.concatenate([
            m + 0.5,  # half-step boundaries, where |r| = 1/2
            m,  # table entries
            rng.uniform(-33_000.0, 33_000.0, size=5000),
            [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-9, -1e-5, 1024.0, -2048.0, 4096.0],
            sign * rng.uniform(6e6, 6e8, size=2000),
            sign * limit * (1.0 - rng.uniform(1e-9, 1e-3, size=2000)),  # near the limit
            [limit - 0.5 - 2.0**-22, -(limit - 0.5 - 2.0**-22), limit - 1.0, 1.0 - limit],
        ])
        got = _unit_phasors(u)
        want = np.array([_exact_unit_phasor(x) for x in u.tolist()])
        eps = np.finfo(np.float64).eps
        assert np.max(np.abs(got.real - want[:, 0])) <= 4 * eps
        assert np.max(np.abs(got.imag - want[:, 1])) <= 4 * eps

    def test_adds_into_output(self):
        u = np.random.default_rng(31).uniform(-7000.0, 7000.0, size=(3, 7))
        start = np.full((3, 7), 2.0 - 1.0j)
        want = start + np.exp(2j * np.pi * u / _PHASOR_STEPS)
        np.testing.assert_allclose(_unit_phasors(u, start), want, atol=1e-15)

    @pytest.mark.parametrize("bad", [2.0**31, -(2.0**31), 2.0**31 - 0.5, 1e300, np.inf, np.nan])
    def test_phase_beyond_limit_rejected(self, bad):
        with pytest.raises(ValueError, match="limit"):
            _unit_phasors([0.0, bad, 1.0])

    def test_encoder_rejects_phase_beyond_limit(self):
        enc = TemporalFpeEncoder(p=2, d=16, t_max=2, seed=32)
        X = np.full((1, 2, 2), 1e9)
        with pytest.raises(ValueError, match="limit"):
            enc.encode_batch(X)


def _bits(x):
    # float64 bit patterns, with -0.0 read as +0.0
    return (np.asarray(x, dtype=np.float64) + 0.0).view(np.int64)


class TestSplitSteps:
    """k = rint(u) by the 1.5 * 2**52 shift: index = k mod N, and u becomes u - k."""

    @example(values=[0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 4095.5, -4096.5])
    @example(values=[0.0, -0.0, 5e-324, -5e-324, 0.49999999999999994, -0.49999999999999994])
    @example(values=[2.0**31 - 0.5 - 2.0**-22, 0.5 + 2.0**-22 - 2.0**31, 2.0**31 - 1.5, 1.5 - 2.0**31])
    @given(
        values=st.lists(
            st.one_of(
                st.floats(0.5 - 2.0**31, 2.0**31 - 0.5, exclude_min=True, exclude_max=True),
                st.integers(1 - 2**31, 2**31 - 2).map(lambda i: i + 0.5),  # ties
                st.floats(0.5 - 2.0**31, -(2.0**30), exclude_min=True),  # large negative
                st.floats(-1.0, 1.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_split_is_rint(self, values):
        u = np.array(values, dtype=np.float64)
        want_k = np.rint(u)
        r = u.copy()
        k = np.empty_like(u)
        index = np.empty(u.shape, dtype=np.intp)
        _split_steps(r, k, index)
        np.testing.assert_array_equal(k, want_k)
        np.testing.assert_array_equal(index, want_k.astype(np.int64) % _PHASOR_STEPS)
        np.testing.assert_array_equal(_bits(r), _bits(u - want_k))

    @pytest.mark.parametrize("bad", [2.0**31 - 0.5, -(2.0**31) - 1.0, np.inf, -np.inf, np.nan])
    def test_rejection_leaves_phases_unchanged(self, bad):
        u = np.array([3.25, bad, -7.5])
        r = u.copy()
        with pytest.raises(ValueError, match="limit"):
            _split_steps(r, np.empty(3), np.empty(3, dtype=np.intp))
        np.testing.assert_array_equal(r, u)


class TestTemporalEncoding:
    def test_single_bin_is_bound_fpe(self):
        enc = TemporalFpeEncoder(p=4, d=64, t_max=8, beta=0.3, seed=16)
        x = np.random.default_rng(7).normal(size=(4, 1))
        got = enc.encode_batch(x[None])[0]
        want = np.exp(1j * (enc.proj.phases(x[:, 0]) + enc.bank.phases_for_bin(1)))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_column_swap_changes_encoding(self):
        enc = TemporalFpeEncoder(p=6, d=2000, t_max=4, beta=0.3, seed=18)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(6, 3))
        swapped = X[:, [1, 0, 2]]
        a, b = enc.encode_batch(np.stack([X, swapped]))
        assert similarity(a, b, "complex_cosine") < similarity(a, a, "complex_cosine")

    def test_identical_columns_unrolled(self):
        enc = TemporalFpeEncoder(p=3, d=32, t_max=4, beta=0.3, seed=20)
        col = np.random.default_rng(9).normal(size=3)
        X = np.stack([col, col], axis=1)
        got = enc.encode_batch(X[None])[0]
        term1 = np.exp(1j * (enc.proj.phases(col) + enc.bank.phases_for_bin(1)))
        term2 = np.exp(1j * (enc.proj.phases(col) + enc.bank.phases_for_bin(2)))
        np.testing.assert_allclose(got, term1 + term2, atol=1e-12)

    def test_empty_trajectory_rejected(self):
        enc = TemporalFpeEncoder(p=3, d=16, t_max=4, seed=22)
        with pytest.raises(ValueError, match="at least one time bin"):
            enc.encode_batch(np.zeros((1, 3, 0)))

    def test_too_long_trajectory_rejected(self):
        enc = TemporalFpeEncoder(p=3, d=16, t_max=2, seed=24)
        with pytest.raises(ValueError):
            enc.encode_batch(np.zeros((1, 3, 5)))

    def test_non_finite_counts_rejected(self):
        enc = TemporalFpeEncoder(p=4, d=32, t_max=6, seed=26)
        X = np.random.default_rng(11).poisson(3.0, size=(3, 4, 6)).astype(np.float64)
        X[1, 2, 4] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            enc.encode_batch(X[1:2])
        with pytest.raises(ValueError, match="NaN or infinite"):
            enc.encode_batch(X)

    # the former fixed case; then, with the encoder's blocks of
    # max(2, 2**15 // d) rows and one product of (rows * t) rows and p + t
    # columns per block: n = 1, n = 2, n less than one block (t = 1),
    # n not a multiple of the block (t = t_max; 3 rows at d = 10000, 6 at
    # d = 5000), d > 2**16 (two rows per block, n = 2 and n = 3); t > 8;
    # t = t_max with a large t_max (40 one-hot columns); n = 1 with t = 1
    # (the product still has two rows); and d where the block size changes:
    # 16 rows at d = 2000, 3 at d = 10922, 2 at d = 10923 and at 2**15 +- 1
    @example(n=5, p=4, t=6, t_spare=0, d=32, seed=25)
    @example(n=1, p=3, t=2, t_spare=1, d=40, seed=1)
    @example(n=2, p=3, t=2, t_spare=0, d=10_000, seed=5)
    @example(n=5, p=2, t=1, t_spare=2, d=10_000, seed=2)
    @example(n=27, p=5, t=3, t_spare=0, d=10_000, seed=3)
    @example(n=14, p=4, t=2, t_spare=1, d=5_000, seed=6)
    @example(n=2, p=3, t=3, t_spare=0, d=2**16 + 1, seed=7)
    @example(n=3, p=2, t=2, t_spare=0, d=2**17 + 3, seed=4)
    @example(n=7, p=3, t=11, t_spare=2, d=3_000, seed=8)
    @example(n=5, p=2, t=40, t_spare=0, d=700, seed=9)
    @example(n=1, p=3, t=1, t_spare=0, d=10_000, seed=10)
    @example(n=1, p=30, t=1, t_spare=7, d=2_000, seed=11)
    @example(n=35, p=4, t=8, t_spare=0, d=2_000, seed=12)
    @example(n=7, p=3, t=4, t_spare=0, d=10_000, seed=13)
    @example(n=7, p=3, t=4, t_spare=1, d=10_922, seed=14)
    @example(n=5, p=3, t=4, t_spare=0, d=10_923, seed=15)
    @example(n=3, p=2, t=3, t_spare=0, d=2**15 - 1, seed=16)
    @example(n=3, p=2, t=3, t_spare=1, d=2**15 + 1, seed=17)
    @given(
        n=st.integers(1, 30),
        p=st.integers(1, 8),
        t=st.integers(1, 5),
        t_spare=st.integers(0, 2),
        d=st.integers(1, 30_000),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_matches_single(self, n, p, t, t_spare, d, seed):
        enc = TemporalFpeEncoder(p=p, d=d, t_max=t + t_spare, beta=0.3, seed=seed)
        X = np.random.default_rng(seed).normal(0.0, 3.0, size=(n, p, t))
        batch = enc.encode_batch(X)
        want, bound = _fpe_reference(enc, X)
        assert np.all(np.abs(batch - want) <= bound)
        for i in range(n):
            assert np.all(np.abs(batch[i] - enc.encode_batch(X[i : i + 1])[0]) <= bound[i])

    @pytest.mark.parametrize("d, n", [(2000, 20), (10_000, 7), (2001, 16)])
    def test_single_encode_is_its_batch_row_bit_for_bit(self, d, n):
        # the spike workload's shape (p = 30 neurons, t = 8 bins, Poisson
        # counts) at its two widths, and d = 2001: without the factor's padding
        # to 8 columns, batch rows 8 to 15 (product rows 120 to 127 of 128)
        # differ in their last column from the same trajectory encoded alone
        enc = TemporalFpeEncoder(p=30, d=d, t_max=8, seed=28)
        X = np.random.default_rng(d).poisson(2.0, size=(n, 30, 8)).astype(np.float64)
        batch = enc.encode_batch(X)
        for i in range(n):
            np.testing.assert_array_equal(enc.encode_batch(X[i : i + 1])[0], batch[i])

    def test_batch_memory_independent_of_rows(self):
        # rows are encoded in fixed-size blocks, so beyond the output itself
        # the peak does not grow with n (one float64 n x d temporary would add
        # 1.5 MiB at n=48 and 6 MiB at 4n)
        enc = TemporalFpeEncoder(p=5, d=4096, t_max=3, seed=27)
        X = np.random.default_rng(12).poisson(3.0, size=(4 * 48, 5, 3)).astype(np.float64)
        extra = []
        for n in (48, 4 * 48):
            tracemalloc.start()
            out = enc.encode_batch(X[:n])
            extra.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
            tracemalloc.stop()
        assert abs(extra[1] - extra[0]) <= 64 * 1024


class TestIdentityEncoding:
    def test_passthrough(self):
        out = IdentityEncoder(2).encode_batch([1.0, 2.0])
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_self_similarity_hits_cap(self):
        h = IdentityEncoder(2).encode_batch([1.0, 2.0])[0]
        assert similarity(h, h, "inverse_euclidean") == INVERSE_EUCLIDEAN_CAP

    def test_hand_distance(self):
        a, b = IdentityEncoder(2).encode_batch([[0.0, 0.0], [3.0, 4.0]])
        assert similarity(a, b, "inverse_euclidean") == pytest.approx(0.2, abs=1e-10)


class TestDeterminism:
    def test_encoders_bit_identical_given_seed(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(4, 10))
        for make in (
            lambda: BinaryImageEncoder(p=10, d=64, seed=31),
            lambda: QuantizedFeatureEncoder(p=10, d=64, levels=5, seed=31).fit(X),
        ):
            a, b = make(), make()
            np.testing.assert_array_equal(
                a.encode_batch((X > 0.5).astype(np.uint8) if isinstance(a, BinaryImageEncoder) else X),
                b.encode_batch((X > 0.5).astype(np.uint8) if isinstance(b, BinaryImageEncoder) else X),
            )
        t1 = TemporalFpeEncoder(p=3, d=32, t_max=2, seed=31)
        t2 = TemporalFpeEncoder(p=3, d=32, t_max=2, seed=31)
        T = rng.normal(size=(4, 3, 2))
        np.testing.assert_array_equal(t1.encode_batch(T), t2.encode_batch(T))
