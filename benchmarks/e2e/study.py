"""Sets of runs: the noise study (``--repeat``) and the comparison of two
such sets (``--compare``).

A set is N runs of every workload back to back, each run in a process of
its own and on another seed, exactly as the accepting driver takes them.
Two spreads are kept per metric: the distance between the first and third
quartile over the median (what the driver bounds) and the largest deviation
from the median over the median.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def bounds() -> dict[str, tuple[float, bool]]:
    """metric -> (bound, higher is better), from ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    return {
        entry["name"]: (entry["bound"], entry["better"] == "higher")
        for entry in spec["end_to_end"]
    }


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "min": min(values),
        "max": max(values),
        "iqr_share": (third - first) / median,
        "max_deviation": max(abs(value - median) for value in values) / median,
    }


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2].removeprefix("REPORT "))
    return {
        "seed": seed,
        "wall_s": time.perf_counter() - started,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "as_measured": report["as_measured"],
        "pass_spread": report["pass_spread"],
        "digest": report["digest"],
        "stamp": report["stamp"],
    }


def repeat(count: int, first_seed: int, seconds: int, out: str | None) -> int:
    limits = bounds()
    study = {"seconds": seconds, "runs": {}, "summary": {}}
    steady = True
    for workload in run.WORKLOAD_NAMES:
        runs = [one_run(workload, first_seed + i, seconds) for i in range(count)]
        study["runs"][workload] = runs
        study["summary"][workload] = summary = {}
        print(f"\n{workload}: {count} runs, seeds {first_seed}..{first_seed + count - 1}, "
              f"{statistics.median(r['wall_s'] for r in runs):.1f} s a run, "
              f"pass spreads {' '.join(format(r['pass_spread'], '.2f') for r in runs)}")
        print(f"  {'metric':14s} {'median':>11s} {'min':>11s} {'max':>11s} "
              f"{'iqr/med':>8s} {'maxdev':>8s} {'bound':>6s}")
        for name, _unit in run.END_TO_END:
            row = summarise([r["metrics"][name] for r in runs])
            row["bound"] = limits[name][0]
            summary[name] = row
            # Like the driver, hold every metric but setup_s to its spread:
            # set-up replays the seed's own first epochs, so it varies with it.
            loud = name != "setup_s" and row["iqr_share"] > row["bound"] / 2
            steady = steady and not loud
            print(f"  {name:14s} {row['median']:11.4f} {row['min']:11.4f} {row['max']:11.4f} "
                  f"{row['iqr_share']:8.3f} {row['max_deviation']:8.3f} {row['bound']:6.2f}"
                  + ("  <-- wider than half its bound" if loud else ""))
        if not all(r["correct"] for r in runs):
            steady = False
            print("  a run reported incorrect output")
    if out:
        with open(out, "w") as handle:
            json.dump(study, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if steady else 1


def compare(before_path: str, after_path: str) -> int:
    """Per (workload, metric): worse / unresolved / within bound / better."""
    with open(before_path) as handle:
        before = json.load(handle)
    with open(after_path) as handle:
        after = json.load(handle)
    limits = bounds()
    clean = True
    for workload in run.WORKLOAD_NAMES:
        cells = []
        for name, _unit in run.END_TO_END:
            bound, higher = limits[name]
            old = [r["metrics"][name] for r in before["runs"][workload]]
            new = [r["metrics"][name] for r in after["runs"][workload]]
            old_row, new_row = summarise(old), summarise(new)
            ratio = new_row["median"] / old_row["median"]
            # > 0: the change reads better by that share of the parent's median.
            gain = (ratio - 1.0) if higher else (1.0 - ratio)
            sign = 1.0 if higher else -1.0
            separated = (
                min(sign * v for v in new) > max(sign * v for v in old)
                or max(sign * v for v in new) < min(sign * v for v in old)
            )
            if max(old_row["iqr_share"], new_row["iqr_share"]) > bound and not separated:
                verdict = "unresolved"
            elif gain < -bound:
                verdict = "worse"
            elif gain > bound:
                verdict = "better"
            else:
                verdict = "within bound"
            clean = clean and verdict not in ("worse", "unresolved")
            cells.append(
                f"{name} {verdict} ({new_row['median']:.4g} / {old_row['median']:.4g} "
                f"= {ratio:.3f}, bound {bound:.2f})"
            )
        print(f"{workload}: " + "; ".join(cells))
    return 0 if clean else 1
