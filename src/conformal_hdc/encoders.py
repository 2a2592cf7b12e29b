"""Encoders mapping raw inputs into hypervector space.

Four schemes cover the supported modalities, plus an identity passthrough
for feature-space experiments:

* binary images: bundle a fixed random position vector per active pixel;
* quantized real features: bind a per-feature identity vector with a
  correlated level vector and bundle across features;
* character trigrams: bind permuted symbol vectors over a 27-symbol
  vocabulary (a-z and space) and bundle all trigrams;
* temporal trajectories: fractional-power encoding of each time bin,
  bound to a rotated positional phasor and superposed.

Every encoder is deterministic given its seed and immutable once fitted,
so encoding calls are pure and may run concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .hypervectors import random_phase

__all__ = [
    "TEXT_VOCABULARY",
    "BinaryImageEncoder",
    "FpeProjection",
    "IdentityEncoder",
    "ItemMemory",
    "LevelMemory",
    "PositionBank",
    "QuantizationGrid",
    "QuantizedFeatureEncoder",
    "TemporalFpeEncoder",
    "TrigramTextEncoder",
    "preprocess_text",
]

#: 26 Latin letters plus the space token.
TEXT_VOCABULARY = "abcdefghijklmnopqrstuvwxyz "

MAX_TEXT_LENGTH = 128

#: Most trigrams whose set bits a uint8 count can hold.
_UINT8_CHUNK = 255

#: Vocabulary index of each ASCII code point, -1 outside the vocabulary.
_VOCABULARY_TABLE = np.full(128, -1, dtype=np.intp)
_VOCABULARY_TABLE[[ord(c) for c in TEXT_VOCABULARY]] = np.arange(len(TEXT_VOCABULARY))

#: The FPE kernel's table of unit phasors exp(2 pi i k / N) has N = 4096 entries (64 KiB).
_PHASOR_STEPS = 4096
_STEP = 2.0 * np.pi / _PHASOR_STEPS
#: Phases at or beyond this magnitude are 2**31 or more table steps and are rejected.
_PHASE_LIMIT = 2.0**31 * _STEP
#: Adding 1.5 * 2**52 to |u| < 2**51 rounds u to an integer k, half to even
#: (the sum's unit in the last place is 1), and leaves 2**51 + k in the low
#: bits of the sum's float64 representation.
_ROUND_SHIFT = 1.5 * 2.0**52
#: exp(i r STEP) = (1 - C2 r^2 + C4 r^4) + i r (C1 - C3 r^2) with Cn = STEP**n / n!.
_C1, _C2, _C3, _C4 = _STEP, _STEP**2 / 2.0, _STEP**3 / 6.0, _STEP**4 / 24.0


def _unit_phasor_table() -> np.ndarray:
    # exp(2 pi i k / N) = i**q exp(i m step) with |m| <= N/8, so libm only sees
    # angles below pi/4, each formed from m * hi (exact) plus m * lo: hi keeps
    # 21 significant bits of the step, lo the rest, including pi's own rounding.
    step_hi = float(np.ldexp(np.floor(np.ldexp(_STEP, 30)), -30))
    step_lo = (_STEP - step_hi) + 1.2246467991473532e-16 * 2.0 / _PHASOR_STEPS
    k = np.arange(_PHASOR_STEPS)
    quarter = _PHASOR_STEPS // 4
    m = (k + quarter // 2) % quarter - quarter // 2
    q = (k - m) // quarter % 4
    angle = m * step_hi + m * step_lo
    c, s = np.cos(angle), np.sin(angle)
    table = np.empty(_PHASOR_STEPS, dtype=np.complex128)
    table.real = np.choose(q, [c, -s, -c, s])
    table.imag = np.choose(q, [s, c, -s, -c])
    table.setflags(write=False)
    return table


_UNIT_PHASORS = _unit_phasor_table()


def _spawn_seeds(seed, n: int):
    if isinstance(seed, np.random.SeedSequence):
        return seed.spawn(n)
    return np.random.SeedSequence(seed).spawn(n)


def _require_finite(X: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(X).all():
        raise ValueError(f"{what} contains NaN or infinite values")
    return X


class ItemMemory:
    """Fixed random bipolar codebook: one vector per item index."""

    def __init__(self, n_items: int, d: int, seed) -> None:
        if n_items < 1:
            raise ValueError(f"item memory needs at least one item, got {n_items}")
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        rng = np.random.default_rng(seed)
        vectors = rng.integers(0, 2, size=(n_items, d), dtype=np.int8) * 2 - 1
        vectors.setflags(write=False)
        self.vectors = vectors
        self.d = d
        self.seed = seed


class LevelMemory:
    """Correlated level vectors for quantized magnitudes.

    Level 0 is random; each subsequent level flips ``floor(d / (2*(L-1)))``
    fresh positions, drawn from a single global permutation so the flip
    sets of different steps never overlap. The Hamming distance between
    levels u and v is then exactly ``flip_step * |u - v|``.
    """

    def __init__(self, d: int, levels: int = 21, seed=None) -> None:
        if levels < 2:
            raise ValueError(f"level memory needs at least 2 levels, got {levels}")
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        rng = np.random.default_rng(seed)
        self.flip_step = d // (2 * (levels - 1))
        base = (rng.integers(0, 2, size=d, dtype=np.int8) * 2 - 1)
        perm = rng.permutation(d)
        vectors = np.empty((levels, d), dtype=np.int8)
        vectors[0] = base
        for v in range(1, levels):
            vectors[v] = vectors[v - 1]
            flip = perm[(v - 1) * self.flip_step : v * self.flip_step]
            vectors[v, flip] *= -1
        vectors.setflags(write=False)
        self.vectors = vectors
        self.d = d
        self.levels = levels
        self.seed = seed


@dataclass(frozen=True)
class QuantizationGrid:
    """Per-feature linear bins learned from training data."""

    mins: np.ndarray
    maxs: np.ndarray
    levels: int

    def __post_init__(self) -> None:
        mins = np.asarray(self.mins, dtype=np.float64)
        maxs = np.asarray(self.maxs, dtype=np.float64)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ValueError("grid mins/maxs must be 1-d arrays of equal length")
        if np.any(maxs < mins):
            raise ValueError("grid requires min <= max per feature")
        if self.levels < 1:
            raise ValueError("grid needs at least one level")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @classmethod
    def fit(cls, X: np.ndarray, levels: int) -> "QuantizationGrid":
        X = _require_finite(np.asarray(X, dtype=np.float64), "quantizer training features")
        return cls(mins=X.min(axis=0), maxs=X.max(axis=0), levels=levels)

    def quantize(self, X: np.ndarray) -> np.ndarray:
        """Map reals to integer levels in {0, ..., levels-1}, clipping overflow.

        The levels come in the smallest unsigned dtype that holds them.
        Non-finite values raise: NaN would otherwise land silently on level 0.
        """
        X = _require_finite(np.atleast_2d(np.asarray(X, dtype=np.float64)), "quantizer input")
        span = self.maxs - self.mins
        level = X - self.mins
        level /= np.where(span > 0.0, span, 1.0)
        level *= self.levels
        np.floor(level, out=level)
        level[:, span == 0.0] = 0.0
        # clipped before the cast, so values past int64 still reach the top level
        np.clip(level, 0, self.levels - 1, out=level)
        return level.astype(np.min_scalar_type(self.levels - 1))


class FpeProjection:
    """Gaussian random projection for fractional-power encoding.

    Rows of ``W`` are standard normal draws; an input ``x`` maps to phases
    ``beta * W @ x``, so the expected complex cosine of two encodings
    approximates the RBF kernel exp(-beta^2 * ||x - x'||^2 / 2).
    """

    def __init__(self, p: int, d: int, beta: float = 0.3, seed=None) -> None:
        if p < 1 or d < 1:
            raise ValueError("projection needs p >= 1 and d >= 1")
        if beta <= 0.0:
            raise ValueError(f"fractional power factor must be > 0, got {beta}")
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((d, p))
        W.setflags(write=False)
        self.W = W
        self.p = p
        self.d = d
        self.beta = beta
        self.seed = seed

    def phases(self, X: np.ndarray) -> np.ndarray:
        """Phases beta * W x for one sample (p,) or a batch (n, p); input must be finite.

        The phases are not wrapped into [0, 2*pi): every use of them is
        2*pi-periodic, and ``ComplexHypervector`` wraps on construction.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.p:
            raise ValueError(f"expected {self.p} features, got {X.shape[-1]}")
        _require_finite(X, "projection input")
        return self.beta * (X @ self.W.T)


class PositionBank:
    """Positional phasor for temporal binding: bin j uses rotation j of P."""

    def __init__(self, d: int, t_max: int, seed=None) -> None:
        if t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {t_max}")
        self.base = random_phase(d, seed)
        self.d = d
        self.t_max = t_max
        self.seed = seed

    def phases_for_bin(self, j: int) -> np.ndarray:
        """Phases of the rotated indicator for 1-indexed time bin ``j``."""
        if not 1 <= j <= self.t_max:
            raise ValueError(f"time bin {j} outside [1, {self.t_max}]")
        return np.roll(self.base.phases, j % self.d)


def preprocess_text(text: str) -> str:
    """Lowercase, collapse whitespace, and truncate to 128 characters."""
    collapsed = re.sub(r"\s+", " ", text.lower()).strip()
    return collapsed[:MAX_TEXT_LENGTH]


def _vocabulary_indices(text: str) -> np.ndarray:
    # non-ASCII characters are all outside the vocabulary; encode drops them
    codes = _VOCABULARY_TABLE[np.frombuffer(text.encode("ascii", "ignore"), dtype=np.uint8)]
    return codes[codes >= 0]


def _pack_rotations(vectors: np.ndarray) -> np.ndarray:
    """Packed bits of rho^k(S) < 0 for k = 0, 1, 2: a read-only (3, 27, ceil(d / 8)) uint8 array."""
    packed = np.packbits(np.stack([np.roll(vectors, k, axis=1) for k in range(3)]) < 0, axis=-1)
    packed.setflags(write=False)
    return packed


def _trigram_code(text: str, rotations: np.ndarray, d: int) -> np.ndarray:
    """int8 sign of sum_t S_t * rho(S_{t+1}) * rho^2(S_{t+2}) from ``_pack_rotations`` rows.

    A set bit stands for -1, so binding is XOR, and n trigrams of which c set
    a bit sum to n - 2c there: the code is +1 where 2c <= n (ties and the
    empty bundle give +1). The text is not truncated; bits are counted
    exactly, in uint8 over chunks of at most 255 trigrams, then in int32.
    """
    idx = _vocabulary_indices(text)
    bits = rotations[0, idx[:-2]]
    bits ^= rotations[1, idx[1:-1]]
    bits ^= rotations[2, idx[2:]]
    counts = np.zeros(d, dtype=np.int32)
    for start in range(0, bits.shape[0], _UINT8_CHUNK):
        chunk = np.unpackbits(bits[start : start + _UINT8_CHUNK], axis=1, count=d)
        counts += chunk.sum(axis=0, dtype=np.uint8)
    # 1 - 2 * (bool mask viewed as int8) takes a third of np.where's time
    return 1 - 2 * (2 * counts > bits.shape[0]).view(np.int8)


def _split_steps(u: np.ndarray, k: np.ndarray, index: np.ndarray) -> None:
    """Split phases ``u`` in table steps into k + r, with u overwritten by r.

    k = rint(u) (half to even) goes to the float64 ``k``, k mod N to the intp
    ``index``, and r = u - k, exact and within [-1/2, 1/2], replaces u.
    Raises ValueError, with u left as it was, when some |k| reaches 2**31
    steps (a phase of _PHASE_LIMIT radians) or some u is not finite.
    """
    np.add(u, _ROUND_SHIFT, out=k)
    np.bitwise_and(k.view(np.int64), _PHASOR_STEPS - 1, out=index)
    k -= _ROUND_SHIFT
    if not (k.max() < 2.0**31 and k.min() > -(2.0**31)):
        raise ValueError(f"FPE phase magnitude reaches the limit {_PHASE_LIMIT:.6g} rad")
    u -= k


def _add_unit_phasors(
    u: np.ndarray, out: np.ndarray, work: np.ndarray, index: np.ndarray, terms: np.ndarray
) -> None:
    """Add exp(2 pi i u / N) into the complex ``out``, element by element; ``u`` is in table steps.

    exp(2 pi i u / N) = U[k mod N] exp(i r STEP) with u = k + r split by
    ``_split_steps``, U the table of N unit phasors and STEP = 2 pi / N, where
    exp(i r STEP) = (1 - C2 r^2 + C4 r^4) + i r (C1 - C3 r^2) drops terms
    below 2.3e-18. Each phasor is within about 1 eps of exact (libm's cos and
    sin: 0.25 eps, half an ulp). Raises ValueError, as ``_split_steps`` does,
    before ``out`` changes.

    Buffers of u's shape, all overwritten along with ``u``: ``work`` holds
    three float64 arrays, ``index`` is intp and ``terms`` holds two
    complex128 arrays.
    """
    k, c, s = work
    table_term, poly_term = terms
    _split_steps(u, k, index)
    # index is in range; mode="wrap" is the cheapest of the three modes here
    np.take(_UNIT_PHASORS, index, out=table_term, mode="wrap")
    r, r2 = u, k
    np.multiply(r, r, out=r2)
    np.multiply(r2, _C4, out=c)
    c -= _C2
    c *= r2
    np.add(c, 1.0, out=poly_term.real)
    np.multiply(r2, -_C3, out=s)
    s += _C1
    np.multiply(s, r, out=poly_term.imag)
    table_term *= poly_term
    out += table_term


def _fpe_factor(proj: FpeProjection, bank: PositionBank, t: int) -> np.ndarray:
    """A = [beta W^T; rho^1 P; ...; rho^t P] N / (2 pi), the read-only right factor of the FPE kernel.

    Its products are phases in table steps. It has p + t rows and d columns,
    zero-padded to a multiple of 8 (see ``_fpe_superpose``).
    """
    p, d = proj.p, proj.d
    A = np.zeros((p + t, -(-d // 8) * 8))
    np.multiply(proj.W.T, proj.beta, out=A[:p, :d])
    for j in range(1, t + 1):
        A[p + j - 1, :d] = bank.phases_for_bin(j)
    A *= 1.0 / _STEP
    A.setflags(write=False)
    return A


def _fpe_superpose(X: np.ndarray, factor: np.ndarray, d: int) -> np.ndarray:
    """sum_j exp(i (beta W X[r, :, j] + rho^j P)) for every row r of an (n, p, t) batch.

    ``factor`` is ``_fpe_factor(proj, bank, t_max)`` for some t_max >= t, and
    ``d`` is ``proj.d``.
    Rows are walked in blocks of max(2, 2**15 // d) rows, a fixed rule: the
    t bins' phases of a block (at most 2 MiB at t = 8 while d <= 2**14) stay
    in a core's L2 cache, and the temporaries do not grow with n. All of a
    block's phases, in table steps, come from one product L @ A, where row
    (j, r) of L is [X[r, :, j] | e_j] and e_j is the one-hot row of bin j;
    this folds the beta scale, the scale to table steps and the positional
    add into the product, and as the 1 * P and 0 * P terms are exact, each
    phase is still a rounded sum of p + 1 nonzero terms. Each bin's unit
    phasors are then added into the output (``_add_unit_phasors``).

    A row's phases must not depend on its place in the product, or a single
    input would encode unlike its row in a batch. So every product has the
    same rows * t >= 2 rows (numpy sends a one-row product to gemv, whose
    sums differ in the last bits from gemm's), and the factor is padded to a
    multiple of 8 columns: OpenBLAS's AVX-512 kernels sum the last d mod 8
    columns of the rows past a multiple of 12 in another order.
    """
    n, p, t = X.shape
    if t == 0:
        raise ValueError("trajectory must contain at least one time bin")
    if t > factor.shape[0] - p:
        raise ValueError(f"trajectory length {t} exceeds t_max {factor.shape[0] - p}")
    _require_finite(X, "projection input")
    A = factor[: p + t]
    width = A.shape[1]
    rows = max(2, 2**15 // d)
    out = np.zeros((n, d), dtype=np.complex128)
    # left[j, r] = [X[r, :, j] | e_j]; rows past a short block are stale and unused
    left = np.zeros((t, rows, p + t))
    left[np.arange(t), :, p + np.arange(t)] = 1.0
    phase_buf = np.empty((t, rows, width))
    work_buf = np.empty((3, rows, d))
    index_buf = np.empty((rows, d), dtype=np.intp)
    terms_buf = np.empty((2, rows, d), dtype=np.complex128)
    for start in range(0, n, rows):
        m = min(rows, n - start)
        left[:, :m, :p] = X[start : start + m].transpose(2, 0, 1)
        np.matmul(left.reshape(t * rows, p + t), A, out=phase_buf.reshape(t * rows, width))
        block = out[start : start + m]
        work, index, terms = work_buf[:, :m], index_buf[:m], terms_buf[:, :m]
        for j in range(t):
            _add_unit_phasors(phase_buf[j, :m, :d], block, work, index, terms)
    return out


def _bipolar_sign(sums: np.ndarray) -> np.ndarray:
    """int8 sign of real sums with the tie 0 -> +1.

    Written as 0/1 into the codes' own bytes, then mapped to -1/+1, so the
    only array made is the int8 result.
    """
    codes = np.empty(sums.shape, dtype=np.int8)
    np.greater_equal(sums, 0, out=codes.view(np.bool_))
    codes *= 2
    codes -= 1
    return codes


# ---------------------------------------------------------------------------
# Encoder objects: hold the fitted state, expose batch encoding for training.
# ---------------------------------------------------------------------------


class IdentityEncoder:
    """Raw features used directly as accumulators."""

    representation = "real"
    sample_ndim = 1

    def __init__(self, p: int) -> None:
        self.p = p
        self.d = p

    def encode_batch(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.p:
            raise ValueError(f"expected {self.p} features, got {X.shape[1]}")
        return X

    def state(self) -> dict:
        return {"type": "identity", "p": self.p}


class BinaryImageEncoder:
    """Position-bundling encoder for binary images."""

    representation = "bipolar"
    sample_ndim = 1

    def __init__(self, p: int, d: int, seed) -> None:
        self.im = ItemMemory(p, d, seed)
        self.p = p
        self.d = d
        self.seed = seed

    def encode_batch(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X))
        if X.shape[1] != self.p:
            raise ValueError(f"expected {self.p} pixels, got {X.shape[1]}")
        if not np.all((X == 0) | (X == 1)):
            raise ValueError("pixels must be binary (threshold upstream)")
        return _bipolar_sign(X.astype(np.float32) @ self.im.vectors.astype(np.float32))

    def state(self) -> dict:
        return {"type": "binary_image", "p": self.p, "d": self.d, "seed": self.seed}


class QuantizedFeatureEncoder:
    """Identification-value chain encoder for real-valued feature tables."""

    representation = "bipolar"
    sample_ndim = 1

    def __init__(self, p: int, d: int, levels: int = 21, seed=None) -> None:
        id_seed, level_seed = _spawn_seeds(seed, 2)
        self.im = ItemMemory(p, d, id_seed)
        self.lm = LevelMemory(d, levels, level_seed)
        self.grid: QuantizationGrid | None = None
        self.p = p
        self.d = d
        self.levels = levels
        self.seed = seed

    def fit(self, X) -> "QuantizedFeatureEncoder":
        self.grid = QuantizationGrid.fit(np.asarray(X, dtype=np.float64), self.levels)
        return self

    def _require_fitted(self) -> QuantizationGrid:
        if self.grid is None:
            raise RuntimeError("encoder not fitted: call fit(train_features) first")
        if self.grid.mins.shape[0] != self.p:
            raise ValueError("grid was fitted for a different feature count")
        return self.grid

    def encode_batch(self, X) -> np.ndarray:
        grid = self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.p:
            raise ValueError(f"expected {self.p} features, got {X.shape[1]}")
        q = grid.quantize(X)
        # Telescoping L_q = L_0 + sum_{v=1..q} (L_v - L_{v-1}) turns
        # sum_j ID_j * L_{q_j} into (sum_j ID_j) * L_0 plus, per level v, one
        # product (q >= v) @ ID restricted to the columns where L_v differs
        # from L_{v-1}; those sets are disjoint slices for LevelMemory, so all
        # levels together cost one (n, p) @ (p, <= d/2) product. Every partial
        # sum is an integer of magnitude <= 2p, exact in float32, so the
        # result equals the direct sum bit for bit. The accumulator is kept
        # (d, n) so each level updates whole rows rather than scattered columns.
        ids = self.im.vectors
        lvls = self.lm.vectors.astype(np.float32)
        acc = np.empty((self.d, X.shape[0]), dtype=np.float32)
        acc[:] = (ids.sum(axis=0, dtype=np.float32) * lvls[0])[:, None]
        for v, step in enumerate(np.diff(lvls, axis=0), start=1):
            cols = np.flatnonzero(step)
            reached = (q >= v).astype(np.float32)
            acc[cols] += (ids[:, cols].T.astype(np.float32) @ reached.T) * step[cols, None]
        del q, reached
        return _bipolar_sign(acc.T)

    def state(self) -> dict:
        grid = self.grid
        return {
            "type": "quantized_features",
            "p": self.p,
            "d": self.d,
            "levels": self.levels,
            "seed": self.seed,
            "grid_mins": None if grid is None else grid.mins,
            "grid_maxs": None if grid is None else grid.maxs,
        }


class TrigramTextEncoder:
    """Character-trigram encoder over the 27-symbol vocabulary."""

    representation = "bipolar"
    sample_ndim = 1

    def __init__(self, d: int, seed=None) -> None:
        self.im = ItemMemory(len(TEXT_VOCABULARY), d, seed)
        self.rotations = _pack_rotations(self.im.vectors)
        self.d = d
        self.seed = seed

    def encode_batch(self, texts: Iterable[str]) -> np.ndarray:
        if isinstance(texts, str):
            raise TypeError("encode_batch takes a sequence of texts, not one string; wrap it in a list")
        rows = [_trigram_code(t, self.rotations, self.d) for t in texts]
        if not rows:
            raise ValueError("cannot encode an empty batch of texts")
        return np.stack(rows)

    def state(self) -> dict:
        return {"type": "trigram_text", "d": self.d, "seed": self.seed}


class TemporalFpeEncoder:
    """Fractional-power encoder of (neurons x time-bins) trajectories."""

    representation = "complex"
    sample_ndim = 2

    def __init__(self, p: int, d: int, t_max: int, beta: float = 0.3, seed=None) -> None:
        proj_seed, bank_seed = _spawn_seeds(seed, 2)
        self.proj = FpeProjection(p, d, beta, proj_seed)
        self.bank = PositionBank(d, t_max, bank_seed)
        self.factor = _fpe_factor(self.proj, self.bank, t_max)
        self.p = p
        self.d = d
        self.t_max = t_max
        self.beta = beta
        self.seed = seed

    def encode_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3 or X.shape[1] != self.p:
            raise ValueError(f"expected (n, {self.p}, t) trajectories, got shape {X.shape}")
        return _fpe_superpose(X, self.factor, self.d)

    def state(self) -> dict:
        return {
            "type": "temporal_fpe",
            "p": self.p,
            "d": self.d,
            "t_max": self.t_max,
            "beta": self.beta,
            "seed": self.seed,
        }
