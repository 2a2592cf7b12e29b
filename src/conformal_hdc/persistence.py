"""Model and calibrator serialization.

Models save to a single ``.npz`` holding the prototype array, any fitted
grid arrays, and a JSON metadata record (encoder type, parameters, seeds,
similarity kind, style, label names). One table, ``_ENCODERS``, names each
encoder type's class and the constructor arguments its record saves.
Reloading rebuilds the encoder from them, seeds included, so a restored
model reproduces the original bit for bit.

A calibrator saves to JSON: its thresholds (one shared, or one per
label), counts and alpha, plus any caller-supplied metadata such as the
score kind and randomization seed. One holding several calibrations
(leading axes) is not saved.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .classifier import TrainedModel
from .conformal import Calibrator
from .encoders import (
    BinaryImageEncoder,
    IdentityEncoder,
    QuantizationGrid,
    QuantizedFeatureEncoder,
    TemporalFpeEncoder,
    TrigramTextEncoder,
)

__all__ = ["load_calibrator", "load_model", "save_calibrator", "save_model"]

#: each encoder type's class and the constructor arguments its record saves, in file order
_ENCODERS = {
    "identity": (IdentityEncoder, ("p",)),
    "binary_image": (BinaryImageEncoder, ("p", "d", "seed")),
    "quantized_features": (QuantizedFeatureEncoder, ("p", "d", "levels", "seed")),
    "trigram_text": (TrigramTextEncoder, ("d", "seed")),
    "temporal_fpe": (TemporalFpeEncoder, ("p", "d", "t_max", "beta", "seed")),
}
_TYPE_NAMES = {cls: name for name, (cls, _) in _ENCODERS.items()}


def _seed_to_json(seed):
    if seed is None:
        return {"kind": "none"}
    if isinstance(seed, (int, np.integer)):
        return {"kind": "int", "value": int(seed)}
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, (tuple, list)):
            entropy = [int(e) for e in entropy]
        else:
            entropy = int(entropy)
        return {"kind": "seedseq", "entropy": entropy, "spawn_key": [int(k) for k in seed.spawn_key]}
    raise TypeError(f"cannot serialize seed of type {type(seed).__name__}")


def _seed_from_json(obj):
    if obj["kind"] == "none":
        return None
    if obj["kind"] == "int":
        return obj["value"]
    entropy = obj["entropy"]
    if isinstance(entropy, list):
        entropy = tuple(entropy)
    return np.random.SeedSequence(entropy=entropy, spawn_key=tuple(obj["spawn_key"]))


def save_model(model: TrainedModel, path) -> None:
    encoder = model.encoder
    kind = _TYPE_NAMES.get(type(encoder))
    if kind is None:
        raise ValueError(f"no saved form for an encoder of class {type(encoder).__name__}")
    enc_meta = {"type": kind, **{name: getattr(encoder, name) for name in _ENCODERS[kind][1]}}
    if "seed" in enc_meta:
        enc_meta["seed"] = _seed_to_json(enc_meta["seed"])
    meta = {
        "format": "conformal-hdc-model/1",
        "similarity_kind": model.similarity_kind,
        "style": model.style,
        "labels": np.asarray(model.labels).tolist(),
        "encoder": enc_meta,
    }
    arrays = {"prototypes": model.prototypes}
    if kind == "quantized_features" and encoder.grid is not None:
        arrays.update(grid_mins=encoder.grid.mins, grid_maxs=encoder.grid.maxs)
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def _rebuild_encoder(enc_meta: dict, arrays) -> object:
    # null values are dropped: earlier files record an unfitted grid as null bounds
    args = {k: v for k, v in enc_meta.items() if v is not None}
    kind = args.pop("type", None)
    if not isinstance(kind, str) or kind not in _ENCODERS:
        raise ValueError(f"unknown encoder type {kind!r} in model file")
    cls, names = _ENCODERS[kind]
    if set(args) != set(names):
        raise ValueError(f"encoder type {kind!r} takes the arguments {list(names)}, the model file {sorted(args)}")
    if "seed" in args:
        args["seed"] = _seed_from_json(args["seed"])
    encoder = cls(**args)
    if kind == "quantized_features" and "grid_mins" in arrays:
        encoder.grid = QuantizationGrid(mins=arrays["grid_mins"], maxs=arrays["grid_maxs"], levels=encoder.levels)
    return encoder


def load_model(path) -> TrainedModel:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format") != "conformal-hdc-model/1":
            raise ValueError(f"{path}: not a conformal-hdc model file")
        encoder = _rebuild_encoder(meta["encoder"], data)
        prototypes = data["prototypes"]
        kind = meta["similarity_kind"]
        if kind == "hamming_similarity" and prototypes.dtype == np.int8 and np.isin(prototypes, (-1, 1)).all():
            kind = "cosine_normalized"  # equal on bipolar codes: 1 - mismatches/d = (cos + 1)/2
        return TrainedModel(
            encoder=encoder,
            prototypes=prototypes,
            similarity_kind=kind,
            style=meta["style"],
            labels=np.asarray(meta["labels"]),
        )


#: JSON keys of the thresholds and counts, for a shared and a per-label calibrator
_CALIBRATOR_KEYS = {"marginal": ("q_hat", "n_cal"), "conditional": ("q_hat_per_label", "counts")}


def save_calibrator(calibrator: Calibrator, path, metadata: dict | None = None) -> None:
    if calibrator.q_hat.ndim != int(calibrator.per_label):
        raise ValueError(f"can save one calibration only, got thresholds of shape {calibrator.q_hat.shape}")
    kind = "conditional" if calibrator.per_label else "marginal"
    thresholds, counts = _CALIBRATOR_KEYS[kind]
    record = {"format": "conformal-hdc-calibrator/1", "type": kind, "alpha": calibrator.alpha,
              thresholds: calibrator.q_hat.tolist(), counts: calibrator.counts.tolist()}
    if metadata:
        record["metadata"] = metadata
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True))


def load_calibrator(path) -> Calibrator:
    record = json.loads(Path(path).read_text())
    if record.get("format") != "conformal-hdc-calibrator/1":
        raise ValueError(f"{path}: not a conformal-hdc calibrator file")
    thresholds, counts = _CALIBRATOR_KEYS[record["type"]]
    per_label = record["type"] == "conditional"
    return Calibrator(record[thresholds], record["alpha"], record[counts], per_label=per_label)
