"""Gauge kernels: fixed numpy and Python work that tracks the host's speed.

On a shared host the same repetition can take 1.4 s in one minute and
2.9 s a few minutes later, with CPU time equal to wall time throughout:
the vCPU itself runs slower while other tenants load the caches and memory.
A run therefore times a gauge between its rounds, and reports each round's
time against the gauge times just before and after it, scaled by the
gauge's nominal time. A slower program moves that figure
in full; a slower host moves the gauge with the round and mostly cancels.

Each gauge is shaped like its workload's hot path (same array shapes,
dtypes and access pattern) but never calls the program, so a change to the
program cannot change the gauge. Inputs come from a fixed seed.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

_RNG_SEED = 20_240_601


class Gauge:
    """One kernel, its inputs built once, and its nominal time in seconds."""

    #: median time of one call on the reference host (see README.md)
    nominal_s = 1.0

    def __init__(self) -> None:
        self.rng = np.random.default_rng(_RNG_SEED)

    def __call__(self) -> None:
        raise NotImplementedError

    def time(self) -> float:
        start = time.perf_counter()
        self()
        return time.perf_counter() - start


def mapped_zeros(shape, dtype) -> np.ndarray:
    """A zeroed array on its own anonymous mapping.

    It starts on a page boundary in every process, whatever the heap holds,
    so its alignment against the other arrays of a kernel is the same in
    every run.
    """
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, int(np.prod(shape)) * dtype.itemsize), dtype=dtype).reshape(shape)


class StreamGauge(Gauge):
    """The quantized encoder's loop: ``acc += ID_j * L[q_j]`` over 780 x 2000 float32.

    Its arrays live on their own mappings (``mapped_zeros``). On the heap,
    their placement followed the seed's data: in repeated processes one
    seed's gauge ran about 30% faster than another's while their rounds ran
    alike.
    """

    nominal_s = 0.14

    def __init__(self, rows=780, d=2000, features=40, levels=21) -> None:
        super().__init__()
        self.ids = mapped_zeros((features, d), np.float32)
        self.ids[:] = self.rng.choice([-1.0, 1.0], size=(features, d))
        self.lvls = mapped_zeros((levels, d), np.float32)
        self.lvls[:] = self.rng.choice([-1.0, 1.0], size=(levels, d))
        self.q = self.rng.integers(0, levels, size=(features, rows))
        self.acc = mapped_zeros((rows, d), np.float32)
        self.term = mapped_zeros((rows, d), np.float32)

    def __call__(self) -> None:
        acc, term = self.acc, self.term
        acc[:] = 0.0
        for j in range(self.q.shape[0]):
            np.take(self.lvls, self.q[j], axis=0, out=term)
            np.multiply(term, self.ids[j], out=term)
            np.add(acc, term, out=acc)


class PhasorGauge(Gauge):
    """The temporal FPE encoder's loop: ``out += exp(i(beta W x_j + P_j))`` in complex128."""

    nominal_s = 0.55

    def __init__(self, rows=150, neurons=30, d=10_000, bins=4) -> None:
        super().__init__()
        self.W = self.rng.standard_normal((d, neurons))
        self.P = self.rng.uniform(0.0, 2 * np.pi, size=(bins, d))
        self.X = self.rng.poisson(2.0, size=(rows, neurons, bins)).astype(np.float64)
        self.out = np.zeros((rows, d), dtype=np.complex128)

    def __call__(self) -> None:
        out = self.out
        out[:] = 0.0
        for j in range(self.P.shape[0]):
            phases = np.mod(0.3 * (self.X[:, :, j] @ self.W.T), 2 * np.pi) + self.P[j]
            out += np.exp(1j * phases)


class TrigramGauge(Gauge):
    """The trigram encoder's per-line work on 128 x 10000 int8 rows."""

    nominal_s = 0.28

    def __init__(self, lines=130, length=128, d=10_000) -> None:
        super().__init__()
        self.vectors = (self.rng.integers(0, 2, size=(27, d), dtype=np.int8) * 2 - 1)
        self.lines = self.rng.integers(0, 27, size=(lines, length))

    def __call__(self) -> None:
        for idx in self.lines:
            rows = self.vectors[idx]
            grams = rows[:-2] * np.roll(rows, 1, axis=1)[1:-1] * np.roll(rows, 2, axis=1)[2:]
            np.where(grams.sum(axis=0, dtype=np.float64) >= 0, 1, -1).astype(np.int8)


class HarnessGauge(Gauge):
    """Small-array numpy calls and Python bookkeeping, like the scores, AUC and harness.

    Each step does what one repetition of the synthetic recipe does at its
    size: distances of 1,500 2-d points to 3 centres, per-row sorts, an
    order statistic, rank-based AUC and a dict of per-method results.
    """

    nominal_s = 0.13

    def __init__(self, steps=60, points=1_500, classes=3) -> None:
        super().__init__()
        self.steps = steps
        self.X = self.rng.standard_normal((points, 2))
        self.C = self.rng.standard_normal((classes, 2))
        self.labels = self.rng.integers(0, classes, size=points)

    def __call__(self) -> None:
        n = self.X.shape[0]
        for step in range(self.steps):
            dist = np.sqrt(((self.X[:, None, :] - self.C[None, :, :]) ** 2).sum(axis=2))
            sim = 1.0 / (1.0 + dist)
            results = {}
            for method in ("similarity", "ratio", "discount", "penalized", "inverse_quantile"):
                scores = 1.0 - sim / sim.max(axis=1, keepdims=True)
                true = scores[np.arange(n), self.labels]
                q = np.sort(true[: n // 2])[int(np.ceil(0.9 * (n // 2 + 1))) - 1]
                sets = scores <= q
                ranks = np.argsort(np.argsort(scores.min(axis=1)))
                results[method] = {
                    "coverage": float(sets[np.arange(n), self.labels].mean()),
                    "size": float(sets.sum(axis=1).mean()),
                    "auc": float(ranks[: n // 3].mean() / n),
                    "step": step,
                }
            sorted(results.items(), key=lambda kv: kv[1]["auc"])


GAUGES = {"stream": StreamGauge, "phasor": PhasorGauge, "trigram": TrigramGauge, "harness": HarnessGauge}

