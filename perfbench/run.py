"""pbitsim benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src``. The workload's inputs are generated
from ``--seed``. Set-up is measured in several fresh processes, half of
them before the jobs and half after, and their median reported; the jobs run
in one more fresh process with BLAS/OpenMP pinned to one thread. With
``--trace 0`` that process repeats the workload's passes for ``--seconds``
and reports the sum over jobs of each job's median time; with ``--trace 1`` it runs the workload's
minimum number of untraced passes and then two traced ones, checks that
their outputs and counts agree exactly, and reports per-layer metrics.

Every metric is printed as ``name = value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Exits 2 on a bad argument or a checkout without the program,
1 when the workload process fails, in both cases without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import catalog
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# Set-up probes per run, half before the jobs and half after: the host's speed
# drifts over tens of seconds, and probes spread over the run outvote a slow spell.
SETUP_PROBES = 12
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    """Environment of every child: pinned threads, the checkout's src, and a
    bytecode cache inside the checkout so nothing is written outside it."""
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def build(env) -> None:
    """Fill the bytecode cache once per checkout, so no timed import compiles."""
    if (BUILD / "pycache").is_dir():
        return
    subprocess.run([sys.executable, "-c", "import pbitsim.cli, scipy.optimize"],
                   env=env, check=True, timeout=600)


def child(args, env, timeout) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          stdout=subprocess.PIPE, timeout=timeout, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wall_time(passes) -> float:
    """Sum over jobs of each job's median over the passes, which damps a
    slow pass better than the median pass does."""
    return sum(statistics.median(job) for job in zip(*(p["jobs"] for p in passes)))


def end_to_end(setup_times, result) -> dict:
    passes = result["passes"]
    wall = wall_time(passes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "samples_per_s": passes[0]["samples"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result) -> tuple:
    """Per-layer metrics (median of the traced passes) and replay problems."""
    layers, traced = result["layers"], result["traced"]
    counts = {m["name"] for m in catalog.PER_LAYER if m["unit"] == "count"}
    times = {m["name"] for m in catalog.PER_LAYER if m["unit"] in ("s", "ns")}
    # span times are host time; scale each pass to reference seconds
    scales = [p["wall"] / p["host_wall"] for p in traced]
    metrics = {name: layers[0][name] if name in counts
               else statistics.median(layer[name] * (scale if name in times else 1.0)
                                      for layer, scale in zip(layers, scales))
               for name in layers[0]}
    metrics["trace.overhead_s"] = wall_time(traced) - wall_time(result["passes"])
    distances = traced[0]["distances"]
    metrics["oracle_distance"] = sum(distances) / len(distances) if distances else 0.0
    every = result["passes"] + traced
    metrics["failed_frac"] = (sum(p["failed"] for p in every)
                              / sum(len(p["digests"]) for p in every))

    problems = []
    for name in sorted(counts & set(layers[0])):
        values = [layer[name] for layer in layers]
        if len(set(values)) != 1:
            problems.append(f"{name} differs between traced runs: {values}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=catalog.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pbitsim" / "cli.py").is_file():
        print(f"error: no pbitsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = worker_env()
    run_dir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        build(env)
        plan = workloads.make_plan(args.workload, args.seed, run_dir / "inputs")
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=1))
        probe = [str(plan_path), "setup"]
        setup_times = [child(probe, env, PROBE_TIMEOUT_S)["setup_s"]
                       for _ in range(SETUP_PROBES // 2)]
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        result = child([str(plan_path), "run", "--seconds", str(args.seconds),
                        "--trace", str(args.trace),
                        "--spans", str(traces / f"{args.workload}-seed{args.seed}.json")],
                       env, WORKER_TIMEOUT_S)
        setup_times += [child(probe, env, PROBE_TIMEOUT_S)["setup_s"]
                        for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: workload {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    every = result["passes"] + result.get("traced", [])
    problems = [p for run in every for p in run["problems"]]
    digests = {tuple(run["digests"]) for run in every}
    if len(digests) != 1:
        problems.append("job outputs differ between passes of one seed")
    if args.trace:
        metrics, replay = per_layer(result)
        problems += replay
        units = {m["name"]: m["unit"] for m in catalog.PER_LAYER}
    else:
        metrics = end_to_end(setup_times, result)
        units = {m["name"]: m["unit"] for m in catalog.END_TO_END}

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(result['passes'])} timed "
          f"and {len(result.get('traced', []))} traced passes, "
          f"python {platform.python_version()}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]!r} {unit}")
    attempted = sum(len(run["digests"]) for run in every)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(run["failed"] for run in every),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
