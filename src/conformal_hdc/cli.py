"""Command-line entry point: configure, run, and report experiments.

Configuration comes from a flat ``key = value`` text file plus a handful
of flag overrides; results land in a CSV (fixed column order), a JSON
mirror with provenance, and a human-readable summary table. Given the
same configuration and master seed, every emitted byte is identical
across runs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .conformal import SCORE_KINDS
from .datasets import DatasetError, ingest_isolet, ingest_languages, ingest_mnist
from .evaluation import DATASETS, ExperimentConfig, ExperimentResult, run_experiment

__all__ = ["main", "parse_config_file", "write_results"]

CSV_COLUMNS = (
    "method",
    "alpha",
    "coverage",
    "coverage_se",
    "size",
    "size_se",
    "accuracy",
    "accuracy_se",
    "auc",
    "auc_se",
    "config_hash",
    "seed",
)

_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_config_file(path) -> dict:
    """Read a flat ``key = value`` file; '#' starts a comment."""
    options: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        options[key.strip()] = value.strip()
    return options


def _parse_bool(key: str, value: str) -> bool:
    try:
        return _BOOL_VALUES[value.lower()]
    except KeyError:
        raise ValueError(f"{key} must be true/false, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
_ALIASES = {"lambda": "lam", "reps": "repetitions", "scores": "score_kinds"}
#: the config-file key of each ExperimentConfig field: its alias, or else its name
_KEY_FIELDS = {**{f: f for f in _FIELD_TYPES if f not in _ALIASES.values()}, **_ALIASES}
#: dataset files whose bytes a ``<key>_sha256`` digest can pin
_CHECKED_PATHS = ("mnist_images", "mnist_labels", "isolet_path")
_OTHER_KEYS = {"out", "languages_dir", *_CHECKED_PATHS, *(f"{k}_sha256" for k in _CHECKED_PATHS)}
_SCALAR_PARSERS = {str: lambda key, value: value, bool: _parse_bool, int: _parse_int, float: _parse_float}


def _parse_field(key: str, hint, value: str):
    """``value`` read as the type ``hint`` of the field that ``key`` sets."""
    if type(None) in typing.get_args(hint):  # an optional field given a value
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    if hint in _SCALAR_PARSERS:
        return _SCALAR_PARSERS[hint](key, value)
    items = typing.get_args(hint)  # a tuple: (str, ...) of any length, or of fixed length
    parts = [p.strip() for p in value.split(",")]
    if items[-1] is Ellipsis:
        return tuple(p for p in parts if p)
    if items[0] is int and len(parts) == 1:
        parts *= len(items)  # one count stands for every entry
    if len(parts) != len(items):
        n = "three" if len(items) == 3 else len(items)
        shape = f"one count or {n} comma-separated counts" if items[0] is int else f"{n} comma-separated numbers"
        raise ValueError(f"{key} must be {shape}, got {value!r}")
    return tuple(_SCALAR_PARSERS[items[0]](key, p) for p in parts)


def build_config(options: dict) -> ExperimentConfig:
    """Turn string options into a validated experiment configuration.

    Each key names an ``ExperimentConfig`` field, three of them through an
    alias (``lambda``, ``reps``, ``scores`` set ``lam``, ``repetitions``,
    ``score_kinds``), and is read by the field's type; the output
    directory and dataset-path keys pass through. Any other key is an
    error, so a misspelled key cannot fall back to its default.
    """
    kwargs: dict = {}
    for key, value in options.items():
        if key in _KEY_FIELDS:
            name = _KEY_FIELDS[key]
            kwargs[name] = _parse_field(key, _FIELD_TYPES[name], value)
        elif key not in _OTHER_KEYS:
            raise ValueError(f"unknown config key {key!r}")

    config = ExperimentConfig(**kwargs)
    config.validate()
    return config


def _verify_checksum(options: dict, key: str) -> None:
    expected = options.get(f"{key}_sha256")
    if not expected:
        return
    actual = hashlib.sha256(Path(options[key]).read_bytes()).hexdigest()
    if actual != expected:
        raise ValueError(
            f"{key}: checksum mismatch for {options[key]} "
            f"(expected {expected}, got {actual})"
        )


def _load_bundle(config: ExperimentConfig, options: dict):
    if config.dataset == "mnist":
        for key in ("mnist_images", "mnist_labels"):
            if key not in options:
                raise ValueError(f"dataset mnist requires the config key {key!r} (IDX file path)")
            _verify_checksum(options, key)
        return ingest_mnist(options["mnist_images"], options["mnist_labels"])
    if config.dataset == "isolet":
        if "isolet_path" not in options:
            raise ValueError("dataset isolet requires the config key 'isolet_path'")
        _verify_checksum(options, "isolet_path")
        return ingest_isolet(options["isolet_path"])
    if config.dataset == "languages":
        if "languages_dir" not in options:
            raise ValueError("dataset languages requires the config key 'languages_dir'")
        return ingest_languages(options["languages_dir"])
    return None


def config_hash(result: ExperimentResult) -> str:
    canonical = json.dumps(result.config, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _result_rows(result: ExperimentResult) -> list[dict]:
    digest = config_hash(result)
    rows = []
    for m in result.methods:
        rows.append(
            {
                "method": m.method,
                "alpha": repr(result.alpha),
                "coverage": repr(m.coverage),
                "coverage_se": repr(m.coverage_se),
                "size": repr(m.size),
                "size_se": repr(m.size_se),
                "accuracy": repr(m.accuracy),
                "accuracy_se": repr(m.accuracy_se),
                "auc": repr(m.auc),
                "auc_se": repr(m.auc_se),
                "config_hash": digest,
                "seed": str(result.seed),
            }
        )
    return rows


def write_results(result: ExperimentResult, out_dir, provenance: dict | None = None):
    """Emit results.csv and results.json; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = _result_rows(result)

    csv_path = out / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS))
        writer.writeheader()
        writer.writerows(rows)

    extras = {}
    for m in result.methods:
        entry = {"empty_rate": m.empty_rate, "ood_empty_rate": m.ood_empty_rate}
        if m.label_coverage is not None:
            entry["label_coverage"] = [float(v) for v in m.label_coverage]
        extras[m.method] = entry
    payload = {
        "config": result.config,
        "config_hash": config_hash(result),
        "label_names": result.label_names,
        "provenance": provenance or {},
        "results": rows,
        "extras": extras,
    }
    json_path = out / "results.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return csv_path, json_path


def format_summary(result: ExperimentResult) -> str:
    """Human-readable table with coverage, set size, accuracy, and AUC."""
    header = f"{'Method':<18}{'Cov.':>8}{'Size':>8}{'Acc.':>8}{'AUC':>8}"
    lines = [
        f"dataset={result.dataset} alpha={result.alpha} reps={result.repetitions} "
        f"seed={result.seed} hash={config_hash(result)}",
        header,
        "-" * len(header),
    ]
    for m in result.methods:
        auc = f"{m.auc:>8.3f}" if np.isfinite(m.auc) else f"{'-':>8}"
        lines.append(
            f"{m.method:<18}{m.coverage:>8.3f}{m.size:>8.3f}{m.accuracy:>8.3f}{auc}"
        )
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conformal-hdc",
        description="Run conformal hyperdimensional-computing experiments.",
    )
    parser.add_argument("--config", help="path to a flat key = value configuration file")
    parser.add_argument("--dataset", choices=DATASETS, help="dataset to evaluate")
    parser.add_argument("--alpha", type=float, help="significance level in (0, 1)")
    parser.add_argument(
        "--score",
        help=f"comma-separated score kinds (subset of {', '.join(SCORE_KINDS)})",
    )
    parser.add_argument("--d", type=int, help="hypervector dimension")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--reps", type=int, help="number of repetitions")
    parser.add_argument("--out", help="output directory (default: results)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        options = parse_config_file(args.config) if args.config else {}
        flags = {"dataset": args.dataset, "alpha": args.alpha, "scores": args.score,
                 "d": args.d, "seed": args.seed, "reps": args.reps}
        for key, value in flags.items():
            if value is not None:
                options[key] = str(value)
        out_dir = args.out or options.get("out", "results")

        config = build_config(options)
        bundle = _load_bundle(config, options)
        result = run_experiment(config, bundle)
        provenance = bundle.provenance if bundle is not None else {}
        csv_path, json_path = write_results(result, out_dir, provenance)
        print(format_summary(result))
        print(f"wrote {csv_path} and {json_path}")
        return 0
    except (ValueError, DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
