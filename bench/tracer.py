"""Spans around the calls into each layer's public functions.

The tracer wraps functions of the ``conformal_hdc`` modules from outside:
it replaces each listed function in every module namespace that bound it
(so ``from .hypervectors import similarity_matrix`` callers are traced
too) and each listed method on its class. Spans live in memory and are
written out once, at the end, each with its parent.

A layer's self time is its span's duration minus the durations of its
direct child spans; the benchmark's own code between layer calls is the
self time of the root spans (``trace.bench_self_s``), so the self times
of one root span add up to its wall time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "conformal_hdc"

_SIMILARITY_METRICS = {
    "cosine_normalized": "hypervectors.cosine_s",
    "complex_cosine": "hypervectors.complex_cosine_s",
    "inverse_euclidean": "hypervectors.inverse_euclidean_s",
    "hamming_similarity": "hypervectors.hamming_s",
}


def _similarity_metric(args, kwargs) -> str:
    kind = kwargs.get("kind", args[2] if len(args) > 2 else None)
    return _SIMILARITY_METRICS.get(kind, "hypervectors.unknown_kind_s")


def _result_rows(args, kwargs, result) -> int:
    return int(result.shape[0])


def _result_size(args, kwargs, result) -> int:
    return int(result.size)


# (module, function or Class.method, time metric, count metric, count function)
LAYER_CALLS = [
    ("encoders", "QuantizedFeatureEncoder.encode_batch", "encoders.quantized_s",
     "encoders.quantized_rows", _result_rows),
    ("encoders", "QuantizedFeatureEncoder.fit", "encoders.grid_fit_s", None, None),
    ("encoders", "TemporalFpeEncoder.encode_batch", "encoders.fpe_s",
     "encoders.fpe_rows", _result_rows),
    ("encoders", "TrigramTextEncoder.encode_batch", "encoders.trigram_s",
     "encoders.trigram_rows", _result_rows),
    ("encoders", "IdentityEncoder.encode_batch", "encoders.identity_s", None, None),
    ("encoders", "QuantizedFeatureEncoder.__init__", "encoders.init_s", None, None),
    ("encoders", "TemporalFpeEncoder.__init__", "encoders.init_s", None, None),
    ("encoders", "TrigramTextEncoder.__init__", "encoders.init_s", None, None),
    ("hypervectors", "similarity_matrix", _similarity_metric, "hypervectors.pairs", _result_size),
    ("classifier", "train_prototypes", "classifier.prototypes_s", None, None),
    ("classifier", "prototypes_from_encoded", "classifier.prototypes_s", None, None),
    ("classifier", "TrainedModel.similarity_profiles", "classifier.profiles_s", None, None),
    ("classifier", "TrainedModel.similarity_profile", "classifier.profiles_s", None, None),
    ("conformal", "score_matrix", "conformal.scores_s", "conformal.score_rows", _result_rows),
    ("conformal", "calibration_scores", "conformal.scores_s", None, None),
    ("conformal", "calibrate_marginal", "conformal.calibrate_s", None, None),
    ("conformal", "calibrate_conditional", "conformal.calibrate_s", None, None),
    ("conformal", "sets_from_scores", "conformal.sets_s", None, None),
    ("conformal", "point_labels_from_sets", "conformal.sets_s", None, None),
    ("conformal", "ood_scores", "conformal.sets_s", None, None),
    ("conformal", "predict_set_marginal", "conformal.single_s", None, None),
    ("conformal", "predict_set_conditional", "conformal.single_s", None, None),
    ("conformal", "predict_point", "conformal.single_s", None, None),
    ("conformal", "ood_score", "conformal.single_s", None, None),
    ("evaluation", "run_experiment", "evaluation.harness_self_s", None, None),
    ("evaluation", "split_data", "evaluation.split_s", None, None),
    ("evaluation", "ood_auc", "evaluation.metrics_s", None, None),
    ("evaluation", "empirical_coverage", "evaluation.metrics_s", None, None),
    ("evaluation", "average_set_size", "evaluation.metrics_s", None, None),
    ("evaluation", "point_accuracy", "evaluation.metrics_s", None, None),
    ("datasets", "generate_spike_surrogate", "datasets.spike_surrogate_s", None, None),
    ("datasets", "ingest_isolet", "datasets.ingest_isolet_s", None, None),
    ("datasets", "ingest_languages", "datasets.ingest_languages_s", None, None),
    ("synthetic", "generate_synthetic", "synthetic.generate_s", None, None),
    ("persistence", "save_model", "persistence.save_s", None, None),
    ("persistence", "save_calibrator", "persistence.save_s", None, None),
    ("persistence", "load_model", "persistence.load_s", None, None),
    ("persistence", "load_calibrator", "persistence.load_s", None, None),
    ("cli", "main", "cli.self_s", None, None),
]

ROOT_METRIC = "trace.bench_self_s"
#: root-span phases the per-layer metrics cover: one set-up plus one round
MEASURED_PHASES = ("setup", "round")

#: self-time and count metrics the tracer always reports, 0 when unused
TIME_METRICS = sorted(
    {m for _, _, m, _, _ in LAYER_CALLS if isinstance(m, str)} | set(_SIMILARITY_METRICS.values())
)
COUNT_METRICS = sorted({c for _, _, _, c, _ in LAYER_CALLS if c})


class Tracer:
    """Records nested spans; installs and removes the layer wrappers."""

    def __init__(self) -> None:
        # span: [metric, parent index, root index, start ns, end ns(, phase if root)]
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, int]] = []  # (root index, metric, n)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def open(self, metric: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][2] if parent >= 0 else index
        self.spans.append([metric, parent, root, time.perf_counter_ns(), 0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, phase: str):
        """A root span: one set-up or one round."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        index = self.open(ROOT_METRIC)
        self.spans[index].append(phase)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, fn, metric, count_metric, count_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = metric(args, kwargs) if callable(metric) else metric
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count_metric is not None:
                root = tracer.spans[index][2]
                tracer.counts.append((root, count_metric, count_fn(args, kwargs, result)))
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every listed call, also where ``extra_modules`` imported it by name."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        modules += list(extra_modules)
        for module_name, attr, metric, count_metric, count_fn in LAYER_CALLS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(original, metric, count_metric, count_fn))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, metric, count_metric, count_fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    @staticmethod
    def per_span_cost_s(calls: int = 20000) -> float:
        """Wall cost one span adds to a call, from a no-op traced and bare."""

        def noop():
            return None

        probe = Tracer()
        traced = probe._wrap(noop, "trace.calibration", None, None)
        start = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        bare = time.perf_counter_ns() - start
        with probe.root("calibration"):
            start = time.perf_counter_ns()
            for _ in range(calls):
                traced()
            wrapped = time.perf_counter_ns() - start
        return max(wrapped - bare, 0) / calls / 1e9

    def layer_metrics(self) -> dict:
        """Self time and counts per metric for one set-up plus one round.

        Each metric is its total over the set-up root spans divided by their
        number, plus its total over the round root spans divided by theirs.
        Other root spans (the warm-up) are left out.
        """
        child_ns = defaultdict(int)
        for metric, parent, root, start, end, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        phase_of = {i: s[5] if len(s) > 5 else "unrooted" for i, s in enumerate(self.spans) if s[1] < 0}
        n_roots = defaultdict(int)
        for phase in phase_of.values():
            if phase in MEASURED_PHASES:
                n_roots[phase] += 1
        totals = defaultdict(float)  # (phase, metric) -> seconds or count
        spans = defaultdict(int)
        wall = defaultdict(float)
        for i, (metric, parent, root, start, end, *_) in enumerate(self.spans):
            phase = phase_of[root]
            if phase not in MEASURED_PHASES:
                continue
            totals[phase, metric] += (end - start - child_ns[i]) / 1e9
            spans[phase] += 1
            if parent < 0:
                wall[phase] += (end - start) / 1e9
        for root, metric, n in self.counts:
            if phase_of[root] in MEASURED_PHASES:
                totals[phase_of[root], metric] += n

        def per_unit(metric_totals: dict) -> float:
            return sum(v / n_roots[p] for p, v in metric_totals.items())

        out = dict.fromkeys(TIME_METRICS + COUNT_METRICS + [ROOT_METRIC], 0.0)
        for metric in {m for _, m in totals}:
            out[metric] = per_unit({p: totals[p, metric] for p in n_roots})
        out["trace.wall_s"] = per_unit(wall)
        out["trace.spans"] = per_unit(spans)
        return out

    def bench_self_share(self, phase: str) -> float:
        """Share of the ``phase`` root spans' wall time left to the benchmark's code."""
        child_ns = defaultdict(int)
        for metric, parent, root, start, end, *_ in self.spans:
            if parent >= 0 and self.spans[parent][1] < 0:
                child_ns[parent] += end - start
        wall = own = 0
        for i, (metric, parent, root, start, end, *rest) in enumerate(self.spans):
            if parent < 0 and rest and rest[0] == phase:
                wall += end - start
                own += end - start - child_ns[i]
        return own / wall if wall else 0.0

    def write(self, path) -> None:
        """One JSON array per span: id, parent, metric, start and end in ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (metric, parent, root, start, end, *phase) in enumerate(self.spans):
                name = phase[0] if phase else metric
                fh.write(json.dumps([i, parent, name, start, end]) + "\n")
