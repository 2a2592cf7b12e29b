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


def build_config(options: dict) -> ExperimentConfig:
    """Turn string options into a validated experiment configuration."""
    kwargs: dict = {}
    if "dataset" in options:
        kwargs["dataset"] = options["dataset"]
    if "alpha" in options:
        kwargs["alpha"] = _parse_float("alpha", options["alpha"])
    if "d" in options:
        kwargs["d"] = _parse_int("d", options["d"])
    if "scores" in options:
        kwargs["score_kinds"] = tuple(s.strip() for s in options["scores"].split(",") if s.strip())
    if "reps" in options:
        kwargs["repetitions"] = _parse_int("reps", options["reps"])
    if "seed" in options:
        kwargs["seed"] = _parse_int("seed", options["seed"])
    if "fractions" in options:
        parts = [p.strip() for p in options["fractions"].split(",")]
        if len(parts) != 3:
            raise ValueError(f"fractions must be three comma-separated numbers, got {options['fractions']!r}")
        kwargs["fractions"] = tuple(_parse_float("fractions", p) for p in parts)
    if "ood_holdout" in options:
        kwargs["ood_holdout"] = tuple(
            s.strip() for s in options["ood_holdout"].split(",") if s.strip()
        )
    if "lambda" in options:
        kwargs["lam"] = _parse_float("lambda", options["lambda"])
    if "temperature" in options:
        kwargs["temperature"] = _parse_float("temperature", options["temperature"])
    if "conditional" in options:
        kwargs["conditional"] = _parse_bool("conditional", options["conditional"])
    if "levels" in options:
        kwargs["levels"] = _parse_int("levels", options["levels"])
    if "beta" in options:
        kwargs["beta"] = _parse_float("beta", options["beta"])
    if "sigma3" in options:
        kwargs["sigma3"] = _parse_float("sigma3", options["sigma3"])
    if "n_per_class" in options:
        parts = [p.strip() for p in options["n_per_class"].split(",")]
        if len(parts) not in (1, 3):
            raise ValueError(
                f"n_per_class must be one count or three comma-separated counts, got {options['n_per_class']!r}"
            )
        counts = tuple(_parse_int("n_per_class", p) for p in parts)
        kwargs["n_per_class"] = counts if len(counts) == 3 else counts * 3
    if "n_ood" in options:
        kwargs["n_ood"] = _parse_int("n_ood", options["n_ood"])
    for key in (
        "spike_classes",
        "spike_neurons",
        "spike_bins",
        "spike_per_class",
        "spike_ood",
    ):
        if key in options:
            kwargs[key] = _parse_int(key, options[key])
    if "spike_rate_scale" in options:
        kwargs["spike_rate_scale"] = _parse_float("spike_rate_scale", options["spike_rate_scale"])

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
        if args.dataset is not None:
            options["dataset"] = args.dataset
        if args.alpha is not None:
            options["alpha"] = str(args.alpha)
        if args.score is not None:
            options["scores"] = args.score
        if args.d is not None:
            options["d"] = str(args.d)
        if args.seed is not None:
            options["seed"] = str(args.seed)
        if args.reps is not None:
            options["reps"] = str(args.reps)
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
