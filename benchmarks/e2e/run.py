"""End-to-end benchmark of the slice broker.  See README.md beside this file.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --repeat 5 [--out noise_study.json]
    python3 benchmarks/e2e/run.py --compare BEFORE.json AFTER.json

A run is one short discarded warm pass plus P measured passes of the
workload's fixed, seeded op sequence, each on fresh state.  ``--seconds``
selects P; it never cuts a pass short.  The last line of standard output is
the result object; the lines before it say how it was obtained.
"""

from __future__ import annotations

import os
import sys
import time

#: One BLAS/OpenMP thread: the solvers are single-threaded by design and a
#: second BLAS thread on a two-core host costs ~10 % and widens the spread.
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in THREAD_CAPS:
    os.environ[_variable] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("side_p50_ms", "ms"),
    ("side_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
HIGHER_IS_BETTER = {"ops_per_s"}
WORKLOAD_NAMES = ("online_week", "churn_replay", "cold_sweep", "wire_mixed")

#: Seconds one full pass is budgeted at when turning ``--seconds`` into a
#: pass count (set-up + ops + checks on the reference host, rounded up).
PASS_BUDGET_S = 6.5
#: Seconds of a run that are not passes: imports, the warm pass, reporting.
FIXED_BUDGET_S = 4.0
MIN_PASSES = 3
MAX_PASSES = 12


def pass_count(seconds: int) -> int:
    wanted = int((seconds - FIXED_BUDGET_S) // PASS_BUDGET_S)
    return max(MIN_PASSES, min(MAX_PASSES, wanted))


# --------------------------------------------------------------------- #
# Estimators
# --------------------------------------------------------------------- #
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile``'s default)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def op_floor(series: list[list[float]]) -> list[float]:
    """Op *i*'s latency: the minimum over passes (ops never measured drop out)."""
    floors = []
    for samples in zip(*series):
        measured = finite(samples)
        if measured:
            floors.append(min(measured))
    return floors


def finite(values) -> list[float]:
    return [value for value in values if not math.isnan(value)]


class PassView:
    """One pass's clocks, scaled to the host's undisturbed speed (``pace.py``);
    with ``pace=None`` they are the seconds as measured."""

    def __init__(self, result, pace=None):
        def scaled(values, marks):
            if pace is None:
                return list(values)
            return [v * pace.scale_around(m) for v, m in zip(values, marks)]

        self.primary = scaled(result.primary_s, result.primary_marks)
        self.side = scaled(result.side_s, result.side_marks)
        #: Stretches in which the primary ops were served; their sum is the
        #: denominator of ``ops_per_s``.  One op, one stretch, unless ops overlap.
        self.busy = (
            self.primary
            if result.busy_s is None
            else scaled(result.busy_s, result.busy_marks)
        )
        self.setup_s = result.setup_s
        if pace:
            self.setup_s *= pace.scale_between(*result.setup_marks)


def latency_metrics(workload, primary, side, busy) -> dict[str, float]:
    return {
        "ops_per_s": len(primary) / sum(busy),
        "op_p50_ms": 1e3 * percentile(primary, 50),
        "op_tail_ms": 1e3 * percentile(primary, workload.tail_percentile),
        "side_p50_ms": 1e3 * percentile(side, 50),
        "side_tail_ms": 1e3 * percentile(side, workload.side_tail_percentile),
    }


def pass_metrics(workload, view: PassView) -> dict[str, float]:
    return latency_metrics(workload, finite(view.primary), finite(view.side), finite(view.busy))


def estimate(workload, views: list[PassView]) -> dict[str, float]:
    """The run's timing metrics from its measured passes.

    Single-threaded deterministic workloads: percentiles over per-op floors.
    ``wire_mixed`` (two threads, interleaving differs pass to pass): every
    metric per pass, best pass reported.
    """
    if workload.per_op_floor:
        primary = op_floor([view.primary for view in views])
        metrics = latency_metrics(
            workload, primary, op_floor([view.side for view in views]), primary
        )
    else:
        per_pass = [pass_metrics(workload, view) for view in views]
        metrics = {
            name: (max if name in HIGHER_IS_BETTER else min)(m[name] for m in per_pass)
            for name in per_pass[0]
        }
    metrics["setup_s"] = min(view.setup_s for view in views)
    return metrics


def pass_spread(workload, views: list[PassView]) -> float:
    rates = [pass_metrics(workload, view)["ops_per_s"] for view in views]
    return (max(rates) - min(rates)) / statistics.median(rates)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------- #
def stamp(args, passes: int) -> dict:
    def git(*command):
        try:
            done = subprocess.run(
                ("git", "-C", ROOT, *command), capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    import numpy
    import scipy

    dirty = git("status", "--porcelain")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_caps": {name: os.environ.get(name) for name in THREAD_CAPS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": None if dirty is None else bool(dirty),
    }


def run_once(args) -> int:
    # HiGHS now and then prints a line of its own to the C-level stdout, which
    # is flushed at exit -- after the result object.  Keep Python's stdout on a
    # private copy of the descriptor and send anything else to stderr.
    sys.stdout = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    import_started = time.perf_counter()
    import layers
    from pace import Pace
    from wire import WireMixed
    from workloads import ChurnReplay, ColdSweep, OnlineWeek

    import_s = time.perf_counter() - import_started
    classes = {cls.name: cls for cls in (OnlineWeek, ChurnReplay, ColdSweep, WireMixed)}
    workload = classes[args.workload](args.seed)
    ops = args.ops or workload.ops
    passes = pass_count(args.seconds)
    traced_run = bool(args.trace)

    pace = Pace()
    gc.collect()
    workload.run_pass(min(ops, workload.warm_ops), pace)
    plain, traced, tracers = [], [], []
    for index in range(passes):
        gc.collect()
        # A traced run still needs untraced passes to price the tracing.
        if traced_run and index % 2 == 0:
            tracers.append(workload.new_tracer())
            traced.append(workload.run_pass(ops, pace, tracers[-1]))
        else:
            plain.append(workload.run_pass(ops, pace))
    measured = plain + traced
    failures = [line for result in measured for line in result.failures]
    digests = sorted({result.digest for result in measured})
    if len(digests) > 1:
        failures.append(f"passes disagree on what was decided: digests {digests}")
    attempted = sum(result.attempted for result in measured)
    failed = sum(len(result.failures) for result in measured)

    plain_views = [PassView(result, pace) for result in plain]
    traced_views = [PassView(result, pace) for result in traced]
    raw_views = [PassView(result) for result in measured]
    report = {
        "stamp": stamp(args, passes),
        "digest": digests,
        "failures": failures[:10],
        "samples": {
            "primary_ops_per_pass": len(measured[0].primary_s),
            "side_ops_per_pass": len(finite(measured[0].side_s)),
            "tail_percentile": workload.tail_percentile,
            "side_tail_percentile": workload.side_tail_percentile,
            "estimator": "per-op floor over passes" if workload.per_op_floor else "best pass",
        },
        "import_s": import_s,
        "pace": pace.summary(),
        "as_measured": estimate(workload, raw_views),
        "as_measured_per_pass": [
            {"setup_s": view.setup_s, **pass_metrics(workload, view)} for view in raw_views
        ],
    }
    if traced_run:
        best = max(
            range(len(traced)),
            key=lambda i: pass_metrics(workload, traced_views[i])["ops_per_s"],
        )
        metrics = layers.per_layer(traced[best], tracers[best], pace)
        metrics.update(
            {
                "harness.import_s": import_s,
                "harness.trace_overhead": estimate(workload, traced_views)["op_p50_ms"]
                / estimate(workload, plain_views)["op_p50_ms"]
                - 1.0,
                "harness.pass_spread": pass_spread(workload, traced_views),
                "harness.passes": len(measured),
            }
        )
        units = layers.UNITS
        layers.write_spans(
            args.spans_out
            or os.path.join(ROOT, ".e2e_out", f"{workload.name}-seed{args.seed}.spans.json"),
            tracers,
        )
    else:
        metrics = estimate(workload, plain_views)
        child_rss = [result.rss_mb for result in plain if result.rss_mb is not None]
        metrics["peak_rss_mb"] = max(child_rss) if child_rss else own_peak_rss_mb()
        units = dict(END_TO_END)
        report["pass_spread"] = pass_spread(workload, plain_views)

    for name in units:
        print(f"{name:44s} {metrics[name]:14.6f} {units[name]}")
    print("REPORT " + json.dumps(report, sort_keys=True))
    for line in failures[:10]:
        print("FAILED " + line, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result), flush=True)
    return 0


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops",
        type=int,
        default=0,
        help="ops per pass instead of the workload's own count (smoke tests "
        "only: results are not comparable with any other run)",
    )
    parser.add_argument("--spans-out", help="with --trace 1: write every span here")
    parser.add_argument("--repeat", type=int, help="noise study: N runs of every workload")
    parser.add_argument("--out", help="with --repeat: where to write the study")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    if args.compare:
        import study

        return study.compare(*args.compare)
    if args.repeat:
        import study

        return study.repeat(args.repeat, args.seed, args.seconds, args.out)
    if not args.workload:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
