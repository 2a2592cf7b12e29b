"""Synthetic three-class Gaussian benchmark with an out-of-distribution cluster.

Class centers sit on an equilateral triangle with side ``L = 4 * sqrt(p)``;
per-class dispersions are isotropic with sigma = (1.0, 2.0, sigma3), the
third swept to control heteroscedasticity. The OOD cluster is a unit-sigma
Gaussian centered ``1.8 * L`` below the centroid of the in-distribution
centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["SyntheticConfig", "class_centers", "generate_synthetic", "ood_center"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the three-cluster generator."""

    p: int = 2
    sigma: Tuple[float, float, float] = (1.0, 2.0, 4.0)
    n_per_class: Tuple[int, int, int] = (334, 333, 333)
    n_ood: int = 500
    seed: int = 0

    @property
    def separation(self) -> float:
        return 4.0 * np.sqrt(self.p)


def class_centers(cfg: SyntheticConfig) -> np.ndarray:
    """Equilateral-triangle centers embedded in the first two coordinates."""
    L = cfg.separation
    centers = np.zeros((3, cfg.p))
    centers[1, 0] = L
    centers[2, 0] = L / 2.0
    centers[2, 1] = (np.sqrt(3.0) / 2.0) * L
    return centers


def ood_center(cfg: SyntheticConfig) -> np.ndarray:
    """In-distribution centroid shifted 1.8 * L along the negative y axis."""
    center = class_centers(cfg).mean(axis=0)
    center[1] -= 1.8 * cfg.separation
    return center


def generate_synthetic(cfg: SyntheticConfig):
    """Draw the in-distribution classes and the OOD cluster.

    Returns ``(features, labels, ood_features)``; everything is
    deterministic in ``cfg.seed``.
    """
    if any(s <= 0.0 for s in cfg.sigma):
        raise ValueError(f"class dispersions must be positive, got {cfg.sigma}")
    if cfg.p < 1:
        raise ValueError(f"feature dimension must be >= 1, got {cfg.p}")
    counts = cfg.n_per_class
    if isinstance(counts, int):
        counts = (counts, counts, counts)
    if any(n < 1 for n in counts):
        raise ValueError("each class needs at least one sample")

    rng = np.random.default_rng(cfg.seed)
    centers = class_centers(cfg)
    blocks = []
    labels = []
    for y in range(3):
        blocks.append(centers[y] + cfg.sigma[y] * rng.standard_normal((counts[y], cfg.p)))
        labels.append(np.full(counts[y], y, dtype=np.int64))
    features = np.concatenate(blocks, axis=0)
    labels = np.concatenate(labels)

    ood = np.empty((0, cfg.p))
    if cfg.n_ood > 0:
        ood = ood_center(cfg) + rng.standard_normal((cfg.n_ood, cfg.p))
    return features, labels, ood
