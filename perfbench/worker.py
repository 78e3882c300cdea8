"""One workload in one fresh process: set-up, then timed or traced passes.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and
BLAS/OpenMP pinned to one thread. Usage:

    python3 perfbench/worker.py PLAN.json setup
    python3 perfbench/worker.py PLAN.json run --seconds S --trace 0|1 --spans OUT.json

Prints one JSON object as its last line of output.

On a shared 2-core Xeon VM, neighbour load slowed all CPU-bound Python
code by up to 1.6x for tens of seconds at a time, and raw pass times spread
by 17-21% between runs. Every timed region is therefore bracketed by a fixed
calibration loop and reported in reference seconds: host seconds times
``CALIB_REF_S`` over the mean of the two bracketing calibration times. That
cancels the host's current speed (run-to-run spread 2-9% on the same VM)
and equals host seconds when the loop runs at its reference speed. Set-up
is import work (unmarshalling bytecode and running module bodies), which
the host's load slows differently from the event loop, so it is bracketed
by a loop of that kind instead (``calibrate_import``, ``CALIB_IMPORT_REF_S``):
over 350 set-up probes that cut the spread of medians of 20 probes from
11% to 5%.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import heapq
import io
import json
import marshal
import math
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

TRACED_PASSES = 2
CALIB_REF_S = 0.025  # calibrate() on an unloaded 2-core Xeon VM, Python 3.11
CALIB_IMPORT_REF_S = 0.0138  # calibrate_import() on the same VM, at the same speed


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop of the event loop's kind:
    heap pushes and pops of tuples, float math and list appends."""
    t0 = perf_counter()
    queue, out, acc = [], [], 0.0
    for i in range(30_000):
        heapq.heappush(queue, (i * 7919 % 1000, i & 1, i))
        if len(queue) > 64:
            t, _prio, seq = heapq.heappop(queue)
            acc += math.exp(-(t % 7) * 0.1)
            out.append(seq)
    return perf_counter() - t0


@functools.lru_cache(maxsize=1)
def _module_bytecode() -> bytes:
    source = "\n".join(f"def f{i}(a, b=({i}, 'x{i}')):\n    return [a * k for k in range({i % 7})]\n"
                       f"class C{i}:\n    v = {i}\n    def m(self):\n        return self.v"
                       for i in range(400))
    return marshal.dumps(compile(source, "calibrate_import", "exec"))


def calibrate_import() -> float:
    """Host seconds to unmarshal and run a fixed module body of 400 small
    functions and classes, three times: what importing a package does."""
    code = _module_bytecode()
    t0 = perf_counter()
    for _ in range(3):
        exec(marshal.loads(code), {})
    return perf_counter() - t0


def reference_seconds(seconds, before, after, ref=CALIB_REF_S) -> float:
    return seconds * ref * 2.0 / (before + after)


def set_up(plan):
    """Import the CLI and load and build the first scenario.

    Returns the cli module and the host seconds this took.
    """
    t0 = perf_counter()
    from pbitsim import cli

    cli.build_network(cli.load_scenario(plan["setup_scenario"]))
    return cli, perf_counter() - t0


def _malloc_trim():
    """Hand freed heap memory back to the OS (glibc only), so each job starts
    from a heap like a fresh CLI process has instead of one shaped by the
    jobs before it; without this the peak RSS of exact_synth varies by
    15% between runs of one seed."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def run_pass(cli, plan, pass_dir: Path) -> dict:
    """Run every job of the plan once, timing the jobs, then check their outputs."""
    pass_dir.mkdir(parents=True)
    where = str(pass_dir)
    printed, host, calib = [], [], [calibrate()]
    for job in plan["jobs"]:
        gc.collect()
        _malloc_trim()
        argv = [a.replace("{pass}", where) for a in job["argv"]]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crashed job is a failed job; the pass goes on
                traceback.print_exc()
                code = "traceback"
            host.append(perf_counter() - t0)
        calib.append(calibrate())
        printed.append((code, out.getvalue()))
    ref = [reference_seconds(t, a, b) for t, a, b in zip(host, calib, calib[1:])]

    failed, samples, distances, digests, problems = 0, 0, [], [], []
    for job, (code, text) in zip(plan["jobs"], printed):
        out = Path(job["out"].replace("{pass}", where)) if job["out"] else None
        if code != 0:
            wrong = [f"exit code {code}"]
        else:
            try:
                wrong, logged, dists = workloads.check_job(job, out)
            except (OSError, KeyError, ValueError) as exc:
                wrong, logged, dists = [f"unreadable output: {exc!r}"], 0, []
            samples += logged
            distances += dists
        digests.append(workloads.job_digest(out, text, where) if code == 0 else None)
        if wrong:
            failed += 1
            problems.append(f"{' '.join(job['argv'][:2])}: {'; '.join(wrong)}")
    shutil.rmtree(pass_dir)
    return {"wall": sum(ref), "host_wall": sum(host), "jobs": ref, "samples": samples,
            "failed": failed, "distances": distances, "digests": digests, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("setup")
    passes = modes.add_parser("run")
    passes.add_argument("--seconds", type=float, required=True)
    passes.add_argument("--trace", type=int, choices=(0, 1), required=True)
    passes.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    plan_path = Path(args.plan)
    plan = json.loads(plan_path.read_text())
    if args.mode == "setup":
        # the calibration runs only here, so it leaves the run's peak RSS alone
        before = calibrate_import()
        _cli, seconds = set_up(plan)
        setup_s = reference_seconds(seconds, before, calibrate_import(), CALIB_IMPORT_REF_S)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    cli, _seconds = set_up(plan)

    # Every run makes the workload's minimum number of untraced passes;
    # timed runs add passes while another typical pass still ends within
    # --seconds, and traced runs then make their traced passes.
    work = plan_path.parent / "passes"
    passes, spent = [], []
    t0 = perf_counter()
    while (len(passes) < plan["min_passes"]
           or (not args.trace
               and perf_counter() - t0 + statistics.median(spent) <= args.seconds)):
        start = perf_counter()
        passes.append(run_pass(cli, plan, work / f"pass{len(passes)}"))
        spent.append(perf_counter() - start)
    result = {"passes": passes}

    if args.trace:
        from spans import SpanRecorder

        traced, layers = [], []
        for k in range(TRACED_PASSES):
            recorder = SpanRecorder()
            recorder.install()
            try:
                traced.append(run_pass(cli, plan, work / f"traced{k}"))
            finally:
                recorder.restore()
            layers.append(recorder.metrics())
            if k == 0:
                recorder.dump(args.spans)
        result["traced"] = traced
        result["layers"] = layers

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
