"""The four benchmark workloads.

Each workload generates its inputs from the seed, sets up (ingest and
warm up), runs whole rounds of the same operations while the clock runs,
and afterwards checks the program's outputs:

* ``isolet_reps``: one ``run_experiment`` repetition of the isolet recipe
  per round (quantized-feature encoder, d=2000);
* ``spike_reps``: one repetition of the spike-surrogate recipe per round
  (temporal phasor encoder, d=10000, fresh trials each time);
* ``synthetic_cli``: the documented CLI command, once with marginal and
  once with label-conditional calibration per round (identity encoder:
  scores, calibration, metrics and the harness are the whole cost);
* ``text_queries``: a reloaded trigram model answering one query stream
  through the single-input calls, then in batches.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

import reference
from checks import ALPHA, SCORE_KINDS, Checks, check_pipeline, split_sizes
from conformal_hdc import (
    ExperimentConfig,
    IdentityEncoder,
    QuantizedFeatureEncoder,
    SpikeSurrogateConfig,
    SyntheticConfig,
    TemporalFpeEncoder,
    TrigramTextEncoder,
    calibrate_conditional,
    calibrate_marginal,
    calibration_scores,
    cli,
    generate_spike_surrogate,
    generate_synthetic,
    ingest_isolet,
    ingest_languages,
    load_calibrator,
    load_model,
    ood_score,
    predict_point,
    predict_set_conditional,
    predict_set_marginal,
    run_experiment,
    save_calibrator,
    save_model,
    score_matrix,
    train_prototypes,
)
from conformal_hdc.conformal import ood_scores, point_labels_from_sets, sets_from_scores


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the workload seed and a purpose key."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def per_class(labels, classes, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of each class, in class order: a stratified sample."""
    return np.concatenate([np.flatnonzero(labels == c)[lo:hi] for c in classes])


class Workload:
    name = ""
    #: per-layer metrics the traced run must find nonzero on this workload
    layers: tuple = ()
    #: the hostspeed gauge shaped like this workload's hot path
    gauge = ""
    #: the gauge shaped like its set-up, where that differs from ``gauge``
    setup_gauge = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rep_samples: list[float] = []
        self.found: dict = {}  # observations reported beside the checks

    def attempt(self, ops: int, fn, *args):
        """Run ``fn``, which performs ``ops`` operations; an exception fails them all."""
        self.attempted += ops
        try:
            return fn(*args)
        except Exception as exc:  # the run goes on and reports the failure
            self.failed += ops
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work after the last set-up, before the first round."""

    def round(self) -> None:
        raise NotImplementedError

    def check(self, checks: Checks) -> None:
        raise NotImplementedError

    def info(self) -> dict:
        return {
            "rounds": self.rounds,
            "rep_s": statistics.median(self.rep_samples),
            "rep_samples_s": self.rep_samples,
        }


class _ExperimentReps(Workload):
    """One run_experiment repetition per round, a fresh seed each time."""

    fractions: tuple = ()
    n_inliers = 0

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.coverages: list[dict] = []

    def config(self, seed: int, **overrides) -> ExperimentConfig:
        raise NotImplementedError

    def bundle(self):
        return None

    def round(self) -> None:
        config = self.config(derive(self.seed, 3, self.rounds))
        self.rounds += 1
        start = time.perf_counter()
        result = self.attempt(1, run_experiment, config, self.bundle())
        elapsed = time.perf_counter() - start
        if result is None:
            return
        self.rep_samples.append(elapsed / config.repetitions)
        self.coverages.append({m.method: m.coverage for m in result.methods})

    def check_coverage(self, checks: Checks) -> None:
        """Test points each score covered over the run's repetitions, against their exact law."""
        n_cal, n_test = split_sizes(self.n_inliers, self.fractions)
        pmf = reference.covered_count_pmf(ALPHA, n_cal, n_test, len(self.coverages))
        for kind in SCORE_KINDS:
            covered = sum(round(c[kind] * n_test) for c in self.coverages)
            checks.covered_count(covered, pmf, f"{kind}: marginal coverage")


# ---------------------------------------------------------------------------
# isolet_reps
# ---------------------------------------------------------------------------

ISOLET_FEATURES = 617
LETTERS = [chr(ord("A") + i) for i in range(26)]


class IsoletReps(_ExperimentReps):
    name = "isolet_reps"
    gauge = "stream"
    setup_gauge = "harness"  # set-up writes and parses the table in Python
    d = 2000
    rows_per_letter = 30
    holdout = ("W", "X", "Y", "Z")
    fractions = (0.57, 0.38, 0.05)
    n_inliers = (26 - 4) * 30
    layers = (
        "encoders.quantized_s", "encoders.quantized_rows", "encoders.grid_fit_s", "encoders.init_s",
        "hypervectors.cosine_s", "hypervectors.pairs", "classifier.prototypes_s",
        "conformal.scores_s", "conformal.score_rows", "conformal.calibrate_s", "conformal.sets_s",
        "evaluation.metrics_s", "evaluation.split_s", "evaluation.harness_self_s",
        "datasets.ingest_isolet_s",
    )

    def config(self, seed, **overrides):
        kwargs = dict(
            dataset="isolet", d=self.d, alpha=ALPHA, score_kinds=SCORE_KINDS, repetitions=1,
            seed=seed, fractions=self.fractions, ood_holdout=self.holdout,
        )
        kwargs.update(overrides)
        return ExperimentConfig(**kwargs)

    def bundle(self):
        return self._bundle

    def setup(self) -> None:
        """Write a UCI-layout table of 617 features and 26 letters, ingest it, warm up."""
        rng = np.random.default_rng(derive(self.seed, 1))
        centers = rng.uniform(-0.5, 0.5, size=(26, ISOLET_FEATURES))
        labels = np.repeat(np.arange(26), self.rows_per_letter)
        rows = np.clip(centers[labels] + rng.normal(0.0, 0.35, size=(labels.size, ISOLET_FEATURES)), -1, 1)
        path = self.scratch / "isolet.data"
        # fixed-width cells: every seed's table has the same bytes per line, so
        # ingesting it leaves the same heap layout, which the encoder's speed
        # follows (variable widths put one seed 18% off another)
        with open(path, "w") as fh:
            for i in rng.permutation(labels.size):
                fh.write(", ".join(f"{v: .4f}" for v in rows[i]) + f", {labels[i] + 1:2d}.\n")
        self._bundle = ingest_isolet(path)
        run_experiment(self.config(derive(self.seed, 2), d=200), self._bundle)

    def warm_up(self) -> None:
        """One full-size repetition, untimed.

        The first one runs about twice as long as the next: its n x d
        temporaries fault in fresh pages, which the allocator reuses once
        one repetition has freed them.
        """
        run_experiment(self.config(derive(self.seed, 2)), self._bundle)

    def check(self, checks: Checks) -> None:
        self.check_coverage(checks)
        b = self._bundle
        kept = [c for c in range(26) if LETTERS[c] not in self.holdout]
        held = [LETTERS.index(c) for c in self.holdout]
        train, cal, test = (per_class(b.labels, kept, lo, hi) for lo, hi in ((0, 8), (8, 14), (14, 16)))
        ood = per_class(b.labels, held, 0, 4)

        def dense(idx):
            return np.searchsorted(kept, b.labels[idx])

        encoder = QuantizedFeatureEncoder(ISOLET_FEATURES, self.d, levels=21, seed=derive(self.seed, 4))
        encoder.fit(b.features[train])
        model = train_prototypes(b.features[train], dense(train), encoder, "binarized", "cosine_normalized")

        def ref_encode(X):
            grid = encoder.grid
            ref = reference.quantized_encoding(
                X, grid.mins, grid.maxs, encoder.levels, encoder.im.vectors, encoder.lm.vectors
            )
            return ref, 0.0

        data = {
            "X_train": b.features[train], "y_train": dense(train),
            "X_cal": b.features[cal], "y_cal": dense(cal),
            "X_test": b.features[np.concatenate([test, ood])],
        }
        check_pipeline(
            checks, model, ref_encode, reference.cosine_normalized, data,
            exact_encoder=True, seed=derive(self.seed, 5),
        )


# ---------------------------------------------------------------------------
# spike_reps
# ---------------------------------------------------------------------------


class SpikeReps(_ExperimentReps):
    name = "spike_reps"
    gauge = "phasor"
    d = 10_000
    fractions = (0.50, 0.40, 0.10)
    per_class = 150
    n_inliers = 4 * 150
    layers = (
        "encoders.fpe_s", "encoders.fpe_rows", "encoders.init_s", "hypervectors.complex_cosine_s",
        "hypervectors.pairs", "classifier.prototypes_s", "conformal.scores_s", "conformal.score_rows",
        "conformal.calibrate_s", "conformal.sets_s", "evaluation.metrics_s", "evaluation.split_s",
        "evaluation.harness_self_s", "datasets.spike_surrogate_s",
    )

    def config(self, seed, **overrides):
        kwargs = dict(
            dataset="spike_surrogate", d=self.d, alpha=ALPHA, score_kinds=SCORE_KINDS,
            repetitions=1, seed=seed, fractions=self.fractions, spike_classes=4,
            spike_neurons=30, spike_bins=8, spike_per_class=self.per_class, spike_ood=150,
        )
        kwargs.update(overrides)
        return ExperimentConfig(**kwargs)

    def setup(self) -> None:
        """Trials are drawn inside each repetition; set-up is a warm-up run.

        The warm-up keeps d: at small d the raw complex cosine can floor a
        whole profile to zero, which the ratio score rejects.
        """
        run_experiment(self.config(derive(self.seed, 2), spike_per_class=20, spike_ood=20))

    def check(self, checks: Checks) -> None:
        self.check_coverage(checks)
        bundle = generate_spike_surrogate(
            SpikeSurrogateConfig(n_per_class=30, n_ood=10, seed=derive(self.seed, 4))
        )
        X, y = bundle.features, bundle.labels
        train, cal, test = (per_class(y, range(4), lo, hi) for lo, hi in ((0, 12), (12, 24), (24, 30)))
        ood = np.flatnonzero(y == 4)
        encoder = TemporalFpeEncoder(30, self.d, t_max=8, beta=0.3, seed=derive(self.seed, 6))
        model = train_prototypes(X[train], y[train], encoder, "raw_complex", "complex_cosine")

        def ref_encode(trials):
            return reference.fpe_encoding(
                trials, encoder.proj.W, encoder.proj.beta, encoder.bank.base.phases
            )

        data = {
            "X_train": X[train], "y_train": y[train], "X_cal": X[cal], "y_cal": y[cal],
            "X_test": X[np.concatenate([test, ood])],
        }
        check_pipeline(
            checks, model, ref_encode, reference.complex_cosine, data,
            exact_encoder=False, seed=derive(self.seed, 5),
        )


# ---------------------------------------------------------------------------
# synthetic_cli
# ---------------------------------------------------------------------------

#: results.csv header as documented in the README
CSV_HEADER = (
    "method,alpha,coverage,coverage_se,size,size_se,accuracy,"
    "accuracy_se,auc,auc_se,config_hash,seed"
)


class SyntheticCli(Workload):
    name = "synthetic_cli"
    gauge = "harness"
    reps = 100
    layers = (
        "encoders.identity_s", "hypervectors.inverse_euclidean_s", "hypervectors.pairs",
        "classifier.prototypes_s", "conformal.scores_s", "conformal.score_rows", "conformal.calibrate_s",
        "conformal.sets_s", "evaluation.metrics_s", "evaluation.split_s", "evaluation.harness_self_s",
        "synthetic.generate_s", "cli.self_s",
    )

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.config_path = scratch / "conditional.cfg"
        self.calls: list[dict] = []  # parsed outputs, one per call
        self.first_outputs: dict[str, tuple[list, bytes, bytes]] = {}

    def _args(self, mode: str, seed: int) -> list[str]:
        out = str(self.scratch / mode)
        if mode == "marginal":
            return ["--dataset", "synthetic", "--reps", str(self.reps), "--seed", str(seed), "--out", out]
        return ["--config", str(self.config_path), "--reps", str(self.reps), "--seed", str(seed), "--out", out]

    def _call(self, args: list[str]) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(args)
        if code != 0:
            raise RuntimeError(f"conformal-hdc exited with {code}: {sink.getvalue().strip()[-200:]}")
        return code

    def setup(self) -> None:
        """Write the label-conditional config file and warm up with one full call."""
        self.config_path.write_text("dataset = synthetic\nconditional = true\n")
        self._call(self._args("marginal", derive(self.seed, 2)))

    def round(self) -> None:
        seed = derive(self.seed, 3, self.rounds)
        self.rounds += 1
        elapsed = 0.0
        for mode in ("marginal", "conditional"):
            args = self._args(mode, seed)
            start = time.perf_counter()
            code = self.attempt(1, self._call, args)
            elapsed += time.perf_counter() - start
            if code is None:
                return
            out = self.scratch / mode
            csv_bytes = (out / "results.csv").read_bytes()
            json_bytes = (out / "results.json").read_bytes()
            if mode not in self.first_outputs:
                self.first_outputs[mode] = (args, csv_bytes, json_bytes)
            self.calls.append({"mode": mode, "csv": csv_bytes.decode(), "json": json_bytes.decode()})
        self.rep_samples.append(elapsed / (2 * self.reps))

    def check(self, checks: Checks) -> None:
        for mode, (args, csv_bytes, json_bytes) in self.first_outputs.items():
            checks.equal(
                csv_bytes.decode().splitlines()[0], CSV_HEADER, f"{mode}: results.csv header"
            )
            self._call(args)
            out = self.scratch / mode
            checks.expect(
                (out / "results.csv").read_bytes() == csv_bytes
                and (out / "results.json").read_bytes() == json_bytes,
                f"{mode}: same seed writes byte-identical results.csv and results.json",
            )

        for mode in ("marginal", "conditional"):
            runs = [c for c in self.calls if c["mode"] == mode]
            payload = json.loads(runs[0]["json"])
            n_per_class = payload["config"]["n_per_class"]
            n = sum(n_per_class)
            n_cal, n_test = split_sizes(n, payload["config"]["fractions"])
            reps = self.reps * len(runs)
            pmf = reference.covered_count_pmf(ALPHA, n_cal, n_test, reps)
            for kind in SCORE_KINDS:
                if mode == "marginal":
                    # each call's coverage is the mean over its repetitions of covered / n_test
                    covered = sum(
                        round(float(row["coverage"]) * self.reps * n_test)
                        for c in runs for row in csv.DictReader(io.StringIO(c["csv"]))
                        if row["method"] == kind
                    )
                    checks.covered_count(covered, pmf, f"{kind}: marginal coverage")
                    checks.coverage_band(
                        covered / (reps * n_test), reference.coverage_se(ALPHA, n_cal, n_test, reps),
                        f"{kind}: mean marginal coverage", 1 - ALPHA + 1 / (n_cal + 1), upper=True,
                    )
                    continue
                per_label = np.array(
                    [json.loads(c["json"])["extras"][kind]["label_coverage"] for c in runs]
                )
                for y, n_y in enumerate(n_per_class):
                    # label y's calibration and test counts vary with the split; the
                    # standard error takes their expected sizes
                    se = reference.coverage_se(ALPHA, n_cal * n_y // n, max(1, n_test * n_y // n), reps)
                    checks.coverage_band(
                        float(per_label[:, y].mean()), se, f"{kind}: label {y} conditional coverage", 1 - ALPHA
                    )

        features, labels, ood = generate_synthetic(
            SyntheticConfig(n_per_class=(40, 40, 40), n_ood=10, seed=derive(self.seed, 4))
        )
        train, cal, test = (per_class(labels, range(3), lo, hi) for lo, hi in ((0, 15), (15, 35), (35, 40)))
        model = train_prototypes(
            features[train], labels[train], IdentityEncoder(p=2), "centroid", "inverse_euclidean"
        )
        data = {
            "X_train": features[train], "y_train": labels[train],
            "X_cal": features[cal], "y_cal": labels[cal],
            "X_test": np.concatenate([features[test], ood]),
        }
        check_pipeline(
            checks, model, lambda X: (np.asarray(X, dtype=np.float64), 0.0),
            reference.inverse_euclidean, data, exact_encoder=True, seed=derive(self.seed, 5),
        )


# ---------------------------------------------------------------------------
# text_queries
# ---------------------------------------------------------------------------

VOCABULARY = "abcdefghijklmnopqrstuvwxyz "
LINE_LENGTH = 128


def markov_lines(rng, n_lines: int) -> list[str]:
    """Lines of one generated language: a character Markov chain over a-z and space.

    Transition rows are Dirichlet(0.2) draws; a space never follows a space
    and lines start and end with a letter, so preprocessing keeps all 128
    characters.
    """
    T = rng.dirichlet(np.full(27, 0.2), size=27)
    T[26, 26] = 0.0
    T /= T.sum(axis=1, keepdims=True)
    letters = T[:, :26] / T[:, :26].sum(axis=1, keepdims=True)
    cum, cum_letters = np.cumsum(T, axis=1), np.cumsum(letters, axis=1)
    state = rng.integers(0, 26, size=n_lines)
    codes = np.empty((n_lines, LINE_LENGTH), dtype=np.int64)
    codes[:, 0] = state
    for t in range(1, LINE_LENGTH):
        table = cum if t < LINE_LENGTH - 1 else cum_letters
        u = rng.random(n_lines)
        state = np.minimum((table[state] < u[:, None]).sum(axis=1), table.shape[1] - 1)
        codes[:, t] = state
    return ["".join(VOCABULARY[c] for c in row) for row in codes]


class TextQueries(Workload):
    name = "text_queries"
    gauge = "trigram"
    d = 10_000
    kind = "discount"
    languages = tuple(f"lang_{c}" for c in "abcdefgh")
    held_out = ("lang_g", "lang_h")
    n_train, n_cal, n_test, n_ood = 60, 50, 20, 40
    batch = 50
    layers = (
        "encoders.trigram_s", "encoders.trigram_rows", "encoders.init_s", "hypervectors.cosine_s",
        "hypervectors.pairs", "classifier.prototypes_s", "classifier.profiles_s", "conformal.scores_s",
        "conformal.score_rows", "conformal.calibrate_s", "conformal.sets_s", "conformal.single_s",
        "datasets.ingest_languages_s", "persistence.save_s", "persistence.load_s",
    )

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.latencies_ns: list[int] = []
        self.batch_rates: list[float] = []
        self.single_results = None
        self.batch_results = None

    def setup(self) -> None:
        """Generate and ingest the corpus; fit, calibrate, save and reload the model."""
        rng = np.random.default_rng(derive(self.seed, 1))
        corpus = self.scratch / "languages"
        corpus.mkdir(exist_ok=True)
        per_inlier = self.n_train + self.n_cal + self.n_test
        for name in self.languages:
            n = self.n_ood if name in self.held_out else per_inlier
            (corpus / f"{name}.txt").write_text("\n".join(markov_lines(rng, n)) + "\n")
        bundle = ingest_languages(corpus)
        texts = np.asarray(bundle.features, dtype=object)
        inliers = [i for i, n in enumerate(bundle.label_names) if n not in self.held_out]
        folds = {"train": [], "cal": [], "test": []}
        bounds = {"train": (0, self.n_train), "cal": (self.n_train, self.n_train + self.n_cal),
                  "test": (self.n_train + self.n_cal, per_inlier)}
        for dense, label in enumerate(inliers):
            rows = np.flatnonzero(bundle.labels == label)
            for fold, (lo, hi) in bounds.items():
                folds[fold] += [(texts[i], dense) for i in rows[lo:hi]]
        ood_rows = np.flatnonzero(~np.isin(bundle.labels, inliers))
        self.train = folds["train"]
        self.cal = folds["cal"]

        model = train_prototypes(
            [t for t, _ in self.train], [y for _, y in self.train],
            TrigramTextEncoder(self.d, seed=derive(self.seed, 2)),
            "l2_normalized_real", "cosine_normalized",
        )
        self.n_classes = model.n_classes
        self.cal_profiles = model.similarity_profiles([t for t, _ in self.cal])
        self.cal_labels = np.array([y for _, y in self.cal])
        self.cal_scores = calibration_scores(self.cal_profiles, self.cal_labels, self.kind)
        marginal = calibrate_marginal(self.cal_scores, ALPHA)
        conditional = calibrate_conditional(self.cal_scores, self.cal_labels, ALPHA, self.n_classes)
        save_model(model, self.scratch / "model.npz")
        save_calibrator(marginal, self.scratch / "marginal.json", {"score": self.kind})
        save_calibrator(conditional, self.scratch / "conditional.json", {"score": self.kind})
        self.memory_model = model
        self.model = load_model(self.scratch / "model.npz")
        self.marginal = load_calibrator(self.scratch / "marginal.json")
        self.conditional = load_calibrator(self.scratch / "conditional.json")

        stream = folds["test"] + [(texts[i], -1) for i in ood_rows]
        order = rng.permutation(len(stream))
        self.stream = [stream[i][0] for i in order]
        self.stream_labels = np.array([stream[i][1] for i in order])
        self._single(self.stream[0])
        self._batch(self.stream[: self.batch])

    def _single(self, x):
        m, kind = self.model, self.kind
        t0 = time.perf_counter_ns()
        marginal = predict_set_marginal(m, self.marginal, x, kind)
        t1 = time.perf_counter_ns()
        conditional = predict_set_conditional(m, self.conditional, x, kind)
        t2 = time.perf_counter_ns()
        point = predict_point(m, self.marginal, x, kind, allow_empty=True)
        t3 = time.perf_counter_ns()
        ood = ood_score(m, x, kind)
        t4 = time.perf_counter_ns()
        return (t1 - t0, t2 - t1, t3 - t2, t4 - t3), (marginal, conditional, point, ood)

    def _batch(self, texts):
        scores = score_matrix(self.model.similarity_profiles(texts), self.kind)
        marginal = sets_from_scores(scores, self.marginal.thresholds(self.n_classes))
        conditional = sets_from_scores(scores, self.conditional.thresholds(self.n_classes))
        points = point_labels_from_sets(marginal, scores, allow_empty=True)
        return marginal, conditional, points, ood_scores(scores)

    def round(self) -> None:
        self.rounds += 1
        start = time.perf_counter()
        singles = []
        for x in self.stream:
            timed = self.attempt(4, self._single, x)  # four single-input calls
            if timed is not None:
                self.latencies_ns.extend(timed[0])
                singles.append(timed[1])
        batch_start = time.perf_counter()
        batches = []
        for lo in range(0, len(self.stream), self.batch):
            chunk = self.stream[lo : lo + self.batch]
            result = self.attempt(len(chunk), self._batch, chunk)  # one per query
            if result is not None:
                batches.append(result)
        end = time.perf_counter()
        self.rep_samples.append(end - start)
        self.batch_rates.append(len(self.stream) / (end - batch_start))
        if self.single_results is None:
            self.single_results = singles
            self.batch_results = [np.concatenate(parts) for parts in zip(*batches)]

    def info(self) -> dict:
        lat_ms = np.asarray(self.latencies_ns) / 1e6
        out = super().info()
        out["query_samples"] = int(lat_ms.size)
        out["query_ms_p50"] = float(np.median(lat_ms))
        # a tail percentile only where at least ten samples lie beyond it
        if lat_ms.size * 0.01 >= 10:
            out["query_ms_p99"] = float(np.quantile(lat_ms, 0.99))
        out["batch_queries_per_s"] = statistics.median(self.batch_rates)
        return out

    def check(self, checks: Checks) -> None:
        stream, labels, k = self.stream, self.stream_labels, self.n_classes
        marginal, conditional, points, ood = self.batch_results
        singles = self.single_results
        checks.expect(len(singles) == len(stream), "every single-input call returned")
        # profiles of one row and of a batch may differ by the rounding bound of
        # a length-d dot product, (d + 8) eps; the discount score of K = 6
        # labels moves by at most 2 + K times that
        tolerance = 16 * (self.d + 8) * reference.EPS
        ood_ulp_mismatch = 0
        for i, (s_marg, s_cond, s_point, s_ood) in enumerate(singles):
            same = (
                list(s_marg.labels) == list(np.flatnonzero(marginal[i]))
                and list(s_cond.labels) == list(np.flatnonzero(conditional[i]))
                and list(s_point.labels) == ([] if points[i] < 0 else [points[i]])
            )
            checks.expect(same, f"line {i}: single-input sets and point label equal the batch row")
            checks.expect(abs(s_ood - ood[i]) <= tolerance, f"line {i}: single-input OOD score equals the batch row")
            ood_ulp_mismatch += int(s_ood != ood[i])
            in_set = set(s_point.labels) <= set(s_marg.labels)
            abstains_iff_empty = (len(s_point) == 0) == (len(s_marg) == 0)
            checks.expect(in_set and abstains_iff_empty, f"line {i}: point label lies in its set")
        self.found["ood_score_single_differs_from_batch"] = ood_ulp_mismatch

        checks.equal(
            self.model.similarity_profiles(stream), self.memory_model.similarity_profiles(stream),
            "reloaded model's profiles are bit-identical",
        )
        checks.equal(
            self.marginal.q_hat, reference.marginal_threshold(self.cal_scores, ALPHA),
            "reloaded marginal threshold is the exact order statistic",
        )
        checks.equal(
            self.conditional.thresholds(k),
            reference.conditional_thresholds(self.cal_scores, self.cal_labels, ALPHA, k),
            "reloaded per-label thresholds are the exact order statistics",
        )

        inlier = labels >= 0
        covered = marginal[np.flatnonzero(inlier), labels[inlier]]
        # calibration and stream lines are drawn per language in equal shares,
        # not by one random split; the law of a random split stands in for theirs
        pmf = reference.covered_count_pmf(ALPHA, len(self.cal_labels), int(inlier.sum()), 1)
        checks.covered_count(int(covered.sum()), pmf, "inlier marginal coverage")
        empty = ~marginal.any(axis=1)
        checks.expect(
            empty[~inlier].mean() > empty[inlier].mean(),
            "held-out languages get the empty set more often than inliers",
            f"{empty[~inlier].mean():.3f} <= {empty[inlier].mean():.3f}",
        )

        sample = slice(0, 40)
        data = {
            "X_train": [t for t, _ in self.train], "y_train": [y for _, y in self.train],
            "X_cal": [t for t, _ in self.cal], "y_cal": self.cal_labels,
            "X_test": stream[sample],
        }
        vectors = self.model.encoder.im.vectors

        def ref_encode(texts):
            return np.stack([reference.trigram_encoding(t, vectors) for t in texts]), 0.0

        check_pipeline(
            checks, self.model, ref_encode, reference.cosine_normalized, data,
            exact_encoder=True, seed=derive(self.seed, 5),
        )


WORKLOADS = {w.name: w for w in (IsoletReps, SpikeReps, SyntheticCli, TextQueries)}
