"""Hypervector representations and their algebra.

Two dense representations are supported:

* bipolar vectors in ``{-1, +1}^d``, with element-wise product as binding
  and cyclic right-rotation as permutation;
* complex unit-circle vectors stored as phase angles in ``[0, 2*pi)``,
  where binding adds phases modulo ``2*pi``.

Bundling accumulates element-wise sums into a real accumulator that is
binarized back to bipolar form with a sign function (ties at zero map to
+1 so repeated runs agree bit for bit). Temporal superpositions of phasors
are kept as unnormalized complex arrays.

All similarity metrics are standardized to be nonnegative so downstream
scoring can treat them as evidence: cosine and Hamming map into [0, 1],
the inverse Euclidean map is capped at ``1/EPS``, and the complex cosine
of unit-modulus vectors lands in [0, 1] by construction.

Values are immutable after construction; every operation returns a new
object, so hypervectors are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "EPS",
    "INVERSE_EUCLIDEAN_CAP",
    "SIMILARITY_KINDS",
    "TWO_PI",
    "BipolarHypervector",
    "ComplexHypervector",
    "RealAccumulator",
    "bind",
    "bundle",
    "permute",
    "random_bipolar",
    "random_phase",
    "sign_binarize",
    "similarity",
    "similarity_matrix",
]

TWO_PI = 2.0 * np.pi

#: Regularizer for the inverse Euclidean similarity; an exact match scores 1/EPS.
EPS = 1e-12
INVERSE_EUCLIDEAN_CAP = 1.0 / EPS

SIMILARITY_KINDS = (
    "cosine_normalized",
    "inverse_euclidean",
    "hamming_similarity",
    "complex_cosine",
)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BipolarHypervector:
    """Dense vector over {-1, +1}."""

    elements: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.elements)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("bipolar hypervector must be a nonempty 1-d sequence")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("bipolar hypervector elements must be -1 or +1")
        object.__setattr__(self, "elements", _freeze(arr.astype(np.int8)))

    @property
    def d(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True, eq=False)
class RealAccumulator:
    """Unbounded real vector holding pre-binarization sums."""

    elements: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.elements, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("accumulator must be a nonempty 1-d sequence")
        object.__setattr__(self, "elements", _freeze(arr))

    @property
    def d(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True, eq=False)
class ComplexHypervector:
    """Unit-circle phasor vector stored as phase angles in [0, 2*pi)."""

    phases: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.phases, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("complex hypervector must be a nonempty 1-d sequence")
        object.__setattr__(self, "phases", _freeze(np.mod(arr, TWO_PI)))

    @property
    def d(self) -> int:
        return self.phases.shape[0]

    def as_complex(self) -> np.ndarray:
        """Phasor values e^{i*theta} as a complex128 array."""
        return np.exp(1j * self.phases)


def random_bipolar(d: int, seed) -> BipolarHypervector:
    """Draw a vector with i.i.d. uniform {-1, +1} entries.

    The same seed always yields the same vector; at large ``d`` two vectors
    from different seeds are quasi-orthogonal with overwhelming probability.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=d, dtype=np.int8)
    return BipolarHypervector(bits * 2 - 1)


def random_phase(d: int, seed) -> ComplexHypervector:
    """Draw phases i.i.d. uniform on [0, 2*pi), deterministic in the seed."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    return ComplexHypervector(rng.uniform(0.0, TWO_PI, size=d))


def bundle(hs: Sequence[BipolarHypervector]) -> RealAccumulator:
    """Element-wise sum of bipolar hypervectors (order-independent)."""
    hs = list(hs)
    if not hs:
        raise ValueError("cannot bundle an empty list")
    for h in hs:
        if not isinstance(h, BipolarHypervector):
            raise TypeError("bundle expects BipolarHypervector inputs")
    d = hs[0].d
    if any(h.d != d for h in hs):
        raise ValueError("cannot bundle hypervectors of mixed dimension")
    total = np.zeros(d, dtype=np.float64)
    for h in hs:
        total += h.elements
    return RealAccumulator(total)


def sign_binarize(a: RealAccumulator) -> BipolarHypervector:
    """Element-wise sign with the tie 0 -> +1.

    The deterministic tie-break keeps repeated trainings bit-identical; an
    all-zero accumulator therefore maps to the all-(+1) vector.
    """
    return BipolarHypervector(np.where(a.elements >= 0, 1, -1).astype(np.int8))


def bind(h1, h2):
    """Associate two hypervectors of the same representation.

    Bipolar: element-wise product (self-inverse). Complex: element-wise
    phase addition modulo 2*pi.
    """
    if isinstance(h1, BipolarHypervector) and isinstance(h2, BipolarHypervector):
        if h1.d != h2.d:
            raise ValueError("cannot bind hypervectors of mixed dimension")
        return BipolarHypervector(h1.elements * h2.elements)
    if isinstance(h1, ComplexHypervector) and isinstance(h2, ComplexHypervector):
        if h1.d != h2.d:
            raise ValueError("cannot bind hypervectors of mixed dimension")
        return ComplexHypervector(np.mod(h1.phases + h2.phases, TWO_PI))
    raise TypeError(
        f"cannot bind {type(h1).__name__} with {type(h2).__name__}: "
        "representations must match"
    )


def permute(h, k: int):
    """Cyclic right-rotation by ``k`` positions; ``k = d`` is the identity."""
    if k < 0:
        raise ValueError(f"shift count must be >= 0, got {k}")
    if isinstance(h, BipolarHypervector):
        return BipolarHypervector(np.roll(h.elements, k % h.d))
    if isinstance(h, ComplexHypervector):
        return ComplexHypervector(np.roll(h.phases, k % h.d))
    raise TypeError(f"cannot permute {type(h).__name__}")


def _values(h) -> np.ndarray:
    if isinstance(h, (BipolarHypervector, RealAccumulator)):
        return h.elements
    if isinstance(h, ComplexHypervector):
        return h.as_complex()
    return np.asarray(h)


def similarity(h1, h2, kind: str) -> float:
    """Standardized nonnegative similarity between two hypervectors.

    A one-pair call to :func:`similarity_matrix`. Each argument is a
    hypervector value or a plain 1-d array: bipolar, real and complex
    values as the kinds there take them. It shares that function's
    precision: ``inverse_euclidean`` there expands the squared distance,
    so it loses digits when the points lie much farther from the origin
    than from each other (2% off for points near 1e8, 5 apart).
    """
    a, b = _values(h1), _values(h2)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("similarity takes two single hypervectors; use similarity_matrix for batches")
    return float(similarity_matrix(a, b, kind)[0, 0])


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("similarity inputs contain NaN or infinite values")


def similarity_matrix(queries: np.ndarray, prototypes: np.ndarray, kind: str) -> np.ndarray:
    """Similarity of every query row against every prototype row.

    Takes (n, d) queries and (K, d) prototypes (a 1-d array is one row) and
    returns an (n, K) float64 matrix. ``cosine_normalized`` maps the raw
    cosine linearly onto [0, 1] (a zero row scores 0.5);
    ``inverse_euclidean`` is 1/(L2 distance + EPS) capped at 1/EPS;
    ``hamming_similarity`` is 1 - (mismatch count)/d; ``complex_cosine`` is
    (Re[q^T conj(p)]/d + 1)/2, floored at 0 for unnormalized sums. Real
    kinds take real arrays and ``complex_cosine`` complex ones; any other
    pairing raises TypeError. NaN or infinite inputs raise ValueError
    rather than give a finite profile; the check reads the per-row sums of
    squares or the (n, K) complex cosines.
    """
    if kind not in SIMILARITY_KINDS:
        raise ValueError(f"unknown similarity kind {kind!r}; expected one of {SIMILARITY_KINDS}")
    q = np.atleast_2d(queries)
    p = np.atleast_2d(prototypes)
    if kind == "complex_cosine":
        if not (np.iscomplexobj(q) and np.iscomplexobj(p)):
            raise TypeError("kind='complex_cosine' applies to complex codes only")
    elif np.iscomplexobj(q) or np.iscomplexobj(p):
        raise TypeError(f"kind={kind!r} applies to real codes; use 'complex_cosine' for complex ones")
    if q.shape[1] != p.shape[1]:
        raise ValueError("dimension mismatch between queries and prototypes")

    if kind == "complex_cosine":
        q = q.astype(np.complex128, copy=False)
        p = p.astype(np.complex128, copy=False)
        re = np.real(q @ np.conj(p).T) / q.shape[1]
        _require_finite(re)
        return np.maximum((re + 1.0) / 2.0, 0.0)

    if kind == "hamming_similarity":
        _require_finite(q, p)
        # one prototype at a time: an (n, d) mask, not an (n, K, d) one
        mismatches = np.empty((q.shape[0], p.shape[0]), dtype=np.int64)
        for k, row in enumerate(p):
            mismatches[:, k] = np.count_nonzero(q != row, axis=1)
        return 1.0 - mismatches / q.shape[1]

    qf = q.astype(np.float64, copy=False)
    pf = p.astype(np.float64, copy=False)
    qq = np.einsum("ij,ij->i", qf, qf)
    pp = np.einsum("ij,ij->i", pf, pf)
    _require_finite(qq, pp)
    if kind == "cosine_normalized":
        denom = np.sqrt(np.outer(qq, pp))
        dots = qf @ pf.T
        cos = np.where(denom > 0.0, dots / np.where(denom > 0.0, denom, 1.0), 0.0)
        return (np.clip(cos, -1.0, 1.0) + 1.0) / 2.0

    # inverse_euclidean: expand ||q - p||^2 = ||q||^2 - 2 q.p + ||p||^2; its
    # rounding error grows with ||q||^2 and ||p||^2, not with the distance
    sq = qq[:, None] - 2.0 * (qf @ pf.T) + pp[None, :]
    dist = np.sqrt(np.maximum(sq, 0.0))
    return np.minimum(1.0 / (dist + EPS), INVERSE_EUCLIDEAN_CAP)
