"""Benchmark of conformal-hdc: one workload per process.

Usage, from the repository root:

    python3 bench/run.py --workload isolet_reps --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

The program is imported from ``src/`` next to this directory. The run sets
up several times and reports the median set-up time, runs whole rounds of
the workload's operations for ``--seconds`` with a host-speed gauge
(``hostspeed.py``) timed between them, then checks the outputs. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
BENCHMARK.json with ``--trace 0``, every per-layer metric with
``--trace 1``. The line before it records the environment and figures
that are not metrics. Full records and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import os

#: BLAS threads, fixed before numpy loads; one thread repeats best here
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("isolet_reps", "spike_reps", "synthetic_cli", "text_queries")
#: set-ups per untraced run; set-up time is their median
SETUP_RUNS = 5
#: the benchmark's own code may take at most this share of a traced round
BENCH_SELF_SHARE = 0.05


def fix_allocator() -> bool:
    """Serve arrays up to 32 MiB from glibc's heap and never trim it.

    By default glibc moves its mmap threshold as chunks are freed and trims
    the heap top, so how often a round faults in fresh pages depends on the
    heap's layout, which differs with the seed's data (1,500 to 3,300 faults
    per ``isolet_reps`` round across seeds). Fixed thresholds make every
    round reuse the same pages after warm-up.
    Arrays above 32 MiB (``spike_reps``'s complex n x d) are still mapped
    fresh on each allocation, the same number of times in every round.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 32 << 20) and libc.mallopt(m_trim_threshold, 1 << 30))


def import_program():
    """Import conformal_hdc from this checkout's src/, or exit non-zero."""
    package = SRC / "conformal_hdc" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import conformal_hdc

    if Path(conformal_hdc.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported {conformal_hdc.__file__}, not {package}")
    return conformal_hdc


def blas_threads_in_use():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libraries = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(np, allocator_fixed: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads_in_use(),
        "malloc_fixed_thresholds": allocator_fixed,
    }


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def check_trace(checks, tracer, metrics: dict, layers) -> float:
    """Checks of a traced run that fail when a layer's calls go unseen.

    A call the tracer misses (say, a function bound under a name that
    ``Tracer.install`` does not find) leaves its layer at 0 and moves its
    time into the caller's self time; if the caller is the benchmark's own
    code, that shows as a large ``trace.bench_self_s``. Returns the share
    of the rounds' wall time left to the benchmark's code.
    """
    for name in layers:
        checks.expect(metrics.get(name, 0.0) > 0, f"traced layer metric {name} is nonzero")
    share = tracer.bench_self_share("round")
    checks.expect(
        share <= BENCH_SELF_SHARE,
        f"the benchmark's own code takes at most {BENCH_SELF_SHARE:.0%} of a traced round",
        f"{share:.1%}",
    )
    # self times partition the root spans, so this holds by construction
    layer_sum = sum(v for k, v in metrics.items() if k.endswith("_s") and "." in k
                    and k not in ("trace.wall_s", "trace.overhead_s"))
    checks.expect(
        abs(layer_sum - metrics["trace.wall_s"]) <= 1e-6 * metrics["trace.wall_s"],
        "layer self times add up to the traced wall time",
        f"{layer_sum} != {metrics['trace.wall_s']}",
    )
    return share


def run_workload(name: str, seed: int, seconds: float, trace: bool, allocator_fixed: bool) -> dict:
    import numpy as np

    import_program()
    import hostspeed
    import workloads
    from checks import Checks
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[name](seed, scratch)
        tracer = Tracer() if trace else None
        root = tracer.root if tracer else (lambda phase: contextlib.nullcontext())
        if tracer:
            tracer.install(extra_modules=[workloads])

        # set-ups, each bracketed by the set-up gauge (untraced runs only)
        setup_gauge = None if trace else hostspeed.GAUGES[workload.setup_gauge or workload.gauge]()
        if setup_gauge:
            setup_gauge()
            setup_gauge_times = [setup_gauge.time()]
        setup_times, setup_ratios = [], []
        for _ in range(1 if trace else SETUP_RUNS):
            start = time.perf_counter()
            with root("setup"):
                workload.setup()
            setup_times.append(time.perf_counter() - start)
            if setup_gauge:
                setup_gauge_times.append(setup_gauge.time())
                setup_ratios.append(setup_times[-1] / statistics.mean(setup_gauge_times[-2:]))

        with root("warm_up"):
            workload.warm_up()

        # whole rounds, each bracketed by the host-speed gauge (untraced runs
        # only); stop before a round that would end past the window
        gauge = None if trace else hostspeed.GAUGES[workload.gauge]()
        if gauge:
            gauge()
            gauge_times = [gauge.time()]
        ratios, round_faults = [], []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            samples = len(workload.rep_samples)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with root("round"):
                workload.round()
            round_faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
            if gauge:
                gauge_times.append(gauge.time())
                if len(workload.rep_samples) > samples:
                    ratios.append(workload.rep_samples[-1] / statistics.mean(gauge_times[-2:]))
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = Checks()
        if tracer:
            tracer.uninstall()
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_s"] = Tracer.per_span_cost_s() * metrics["trace.spans"]
            bench_share = check_trace(checks, tracer, metrics, workload.layers)
            tracer.write(OUT / f"{name}-seed{seed}.spans.jsonl.gz")
        else:
            metrics = {
                "rep_norm_s": statistics.median(ratios) * gauge.nominal_s,
                "setup_s": statistics.median(setup_ratios) * setup_gauge.nominal_s,
                "peak_rss_mb": peak_rss_mb,
            }
        check_start = time.perf_counter()
        workload.check(checks)
        info = workload.info()
        info["check_s"] = time.perf_counter() - check_start
        info["setup_wall_s"] = statistics.median(setup_times)
        info["setup_samples_s"] = setup_times
        info["round_page_faults"] = round_faults
        if gauge:
            info["gauge"] = workload.gauge
            info["gauge_samples_s"] = gauge_times
            info["gauge_nominal_s"] = gauge.nominal_s
            info["setup_gauge"] = workload.setup_gauge or workload.gauge
            info["setup_gauge_samples_s"] = setup_gauge_times
        if tracer:
            info["bench_self_share_of_rounds"] = bench_share
        info.update(workload.found)
        return {
            "environment": environment(np, allocator_fixed),
            "info": info,
            "checks_passed": checks.passed,
            "check_failures": checks.failures,
            "errors": workload.errors,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        status = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{name}: {last[0]}")
            status = status or proc.returncode
        return status

    allocator_fixed = fix_allocator()
    declared = declared_metrics()[args.trace]
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), allocator_fixed)
    missing = sorted(set(declared) - set(record["metrics"]))
    if missing:
        sys.exit(f"error: workload did not measure {missing}")
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True))
    for failure in record["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for error in record["errors"]:
        print(f"operation failed: {error}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("environment", "info", "checks_passed")}))
    result = {
        "correct": not record["check_failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit} for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
