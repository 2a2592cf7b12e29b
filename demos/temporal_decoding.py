#!/usr/bin/env python3
"""Decode temporal firing-rate trajectories with complex-phasor encoding.

Generates the Poisson spike-count surrogate (four stimulus classes plus a
distinct "run" behavioral state), encodes each (neurons x time-bins)
trajectory with fractional-power phases bound to rotated positional
phasors, and runs the full conformal pipeline: per-class prototypes,
calibration, set-valued prediction, and abstention on the run state.
"""

import numpy as np

from conformal_hdc import ExperimentConfig, run_experiment, similarity
from conformal_hdc.cli import format_summary
from conformal_hdc.datasets import SpikeSurrogateConfig, generate_spike_surrogate
from conformal_hdc.encoders import TemporalFpeEncoder

# Peek at one surrogate draw: shapes and rate structure.
bundle = generate_spike_surrogate(SpikeSurrogateConfig(n_per_class=5, n_ood=5, seed=0))
print(f"surrogate features: {bundle.features.shape}  (samples, neurons, time bins)")
print(f"classes: {bundle.label_names}")
sample = bundle.features[0]
print(f"one trajectory: {sample.shape[0]} neurons x {sample.shape[1]} bins, "
      f"{int(sample.sum())} spikes total")

# Column-order sensitivity: reversing time changes the encoding.
enc = TemporalFpeEncoder(p=30, d=10_000, t_max=8, beta=0.3, seed=1)
forward, backward = enc.encode_batch(np.stack([sample, sample[:, ::-1]]))
print(f"complex cosine(forward, reversed time) = "
      f"{similarity(forward, backward, 'complex_cosine'):.3f} "
      f"(vs {similarity(forward, forward, 'complex_cosine'):.3f} against itself)")
print()

# Full pipeline at alpha = 0.2: run-state trajectories are held out as OOD.
cfg = ExperimentConfig(
    dataset="spike_surrogate", alpha=0.2, d=10_000, repetitions=5, seed=3,
    spike_per_class=120, spike_ood=120,
)
result = run_experiment(cfg)
print(format_summary(result))
discount = [m for m in result.methods if m.method == "discount"][0]
print()
print(f"discount score abstains on {discount.ood_empty_rate:.1%} of run-state trajectories "
      f"vs {discount.empty_rate:.1%} of held-out stimulus trajectories")
