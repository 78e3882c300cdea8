"""Run every workload over several seeds and record the baseline.

    python3 perfbench/record.py

For every workload this runs ``run.py --trace 0`` once for each of the
seeds 1-10, then ``run.py --trace 1`` twice at seed 1. It prints each
end-to-end metric's median and quartile spread (Q3 - Q1 as a share of the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles) next
to its bound, and checks that the two traced runs agree on every count. It
writes ``BENCHMARK.json`` from ``catalog.py`` and a fresh
``perfbench/baseline.json`` with the environment, the per-workload numbers
and the layer map. Exits 1 if a run fails, an output check fails, a spread
reaches a third of its bound, or the traced runs disagree.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import catalog
import run

BASELINE = run.HERE / "baseline.json"
SEEDS = list(range(1, 11))


def bench(workload, seed, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(catalog.RUN_SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE, check=True, text=True, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "pinned_threads": {name: "1" for name in run.PINNED_THREADS},
    }


def main() -> int:
    ok, results = True, {}
    for workload in catalog.ALL:
        t0 = time.monotonic()
        runs = [bench(workload, seed, 0) for seed in SEEDS]
        traced = [bench(workload, SEEDS[0], 1) for _ in range(2)]
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs + traced)
        e2e = {}
        print(f"{workload}: {len(runs)} seeds, {len(runs) + len(traced)} runs "
              f"in {time.monotonic() - t0:.0f} s")
        for metric in catalog.END_TO_END:
            name = metric["name"]
            e2e[name] = spread([r["metrics"][name]["value"] for r in runs])
            stat = e2e[name]
            steady = stat["spread"] < metric["bound"] / 3
            ok &= steady
            print(f"  {name:14s} median {stat['median']:.6g} {metric['unit']}  "
                  f"spread {stat['spread']:.3f} (bound {metric['bound']})"
                  f"{'' if steady else '  NOT STEADY'}  {[float(f'{v:.4g}') for v in stat['values']]}")
        layers = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
        counts = [m["name"] for m in catalog.PER_LAYER if m["unit"] == "count"]
        differ = [n for n in counts if layers[0][n] != layers[1][n]]
        if differ:
            ok = False
            print(f"  traced runs disagree on {differ}")
        results[workload] = {"seeds": SEEDS, "end_to_end": e2e, "per_layer_seed": SEEDS[0],
                             "per_layer": layers[0]}

    doc = catalog.benchmark_json()
    (run.ROOT / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n")
    baseline = {
        "environment": environment(),
        "run_seconds": catalog.RUN_SECONDS,
        "workloads": catalog.WORKLOADS,
        "per_layer_targets": catalog.PER_LAYER,
        "memory_targets": catalog.MEMORY_TARGETS,
        "noise": "On a shared 2-core VM the host speed swings by up to 1.6x for tens "
                 "of seconds, so times are calibrated reference seconds (worker.py), "
                 "each run reports medians over several passes and set-up probes, and "
                 "gates compare medians over repeated runs against each metric's bound. "
                 "Per-layer counts repeat exactly for a seed and are the exact "
                 "comparison; per-layer times are indicative only.",
        "results": results,
    }
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    print("steady and correct" if ok else "FAILED: see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
