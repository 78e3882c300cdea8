"""Workload inputs made from a seed, and the checks on each job's outputs.

``make_plan`` writes the scenario and truth-table files a workload needs and
returns the job list; the program sees only those files. Job seeds and the
random 18-unit machine come from ``random.Random`` seeded by the workload
name and the benchmark seed, so one seed always gives the same inputs.

Each job is a ``pbitsim`` command line run in-process through
``pbitsim.cli.main``. ``{pass}`` in an argument stands for the directory of
the current pass, so every pass writes fresh outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

# Budgets per pass. One pass of each workload takes 1.3-4 s of host time on
# a 2-core Xeon VM; the timed loop repeats passes for --seconds. Work is
# split into several jobs of about a second where the workload allows it,
# because each job is timed against its own calibration (see worker.py).
AND_SAMPLES = 200_000
AND_JOBS = 6
FACTORIZER_UPDATES = 50_000
CONTROL_SAMPLES = 25_000
FACTORIZER_JOBS = 2  # of each kind
SWEEP_SAMPLES = 25_000
SWEEP_SEEDS = 2
# Sweep-tau jobs per seed: (periods in us, samples per point). The fast point
# gets more samples: at tau_sample = tau_N / 200 its samples are strongly
# correlated, and at 25k samples its oracle distance reached 0.66 over 2,000
# seeds (99th percentile 0.43), past the check's limit. At 200k samples it
# stayed at or below 0.17 over 300 seeds. The slow points keep 25k samples
# and split into two jobs of about a second.
SWEEP_JOBS = (((1_000,), 200_000), ((100_000, 200_000), SWEEP_SAMPLES),
              ((400_000,), SWEEP_SAMPLES))
MATRIX_UNITS = 18
FULL_ADDER_UNITS = 12  # 5 visible and 7 auxiliary spins
MATRIX_SAMPLES = 50_000

# Timed runs take at least this many passes, even past --seconds: the first
# pass also pays one-time costs (lazy imports such as scipy in synth,
# jsonschema validator set-up) and the median must outvote it. On a shared
# VM the jobs of and_tau_sweep varied by 13-17% from pass to pass after
# calibration, and those of exact_synth, whose LP solve and 2^n oracle are
# memory-bound native code that the calibration does not track, by 10-17%;
# the ten-seed spread of factorizer_reverse reached 10% at six passes. So
# these take more passes. For the same reason exact_synth keeps its passes
# short: an 18-unit random machine (20 units doubled the pass) and a
# 12-spin LP (libgen's 14-spin one took 4.9 s of a 6.5 s pass).
MIN_PASSES = {"and_fast_sampling": 3, "factorizer_reverse": 8, "and_tau_sweep": 6,
              "exact_synth": 8}

AND_RETENTION_US = 200_000
MATRIX_RETENTION_US = 20_000

# Loose physics thresholds. and_correlated measured oracle distances of
# 0.007-0.17 at 200k samples and tau_sample = tau_N / 200 over 300 seeds,
# and 0.66-0.73 at 25k samples and tau_sample >= tau_N over 300 seeds. The
# point at tau_sample = tau_N / 2 spread over 0.04-0.67 and is not checked.
MAX_ORACLE_DISTANCE = 0.5  # sweep points at or above the breakdown lie beyond it
FAST_RATIO = 0.1  # sweep points at tau_sample <= 0.1 tau_N must match the oracle
MIN_FACTOR_MASS = 0.5
MAX_CONTROL_MODE = 0.25

# Factor words over (A1, A0, B1, B0): A=2, B=3 and A=3, B=2.
FACTOR_WORDS = (0b1011, 0b1110)


def _and_correlated(name, seed, samples):
    return {
        "name": name,
        "network": {"kind": "gate", "gate": "and", "i0": 0.8, "tau_sample_us": 1000},
        "retention_us": AND_RETENTION_US,
        "seed": seed,
        "samples": samples,
        "burn_in": 0.1,
        "histogram_over": ["A", "B", "C"],
        "compare_oracle": True,
    }


def _factorizer(name, seed, i0, budget):
    return dict(
        {
            "name": name,
            "network": {"kind": "factorizer", "i0": i0},
            "clamps": {"S0": 0, "S1": 1, "S2": 1, "S3": 0},
            "seed": seed,
            "burn_in": 0.1,
            "histogram_over": ["A1", "A0", "B1", "B0"],
        },
        **budget,
    )


def _random_matrix(name, seed, rng):
    n = MATRIX_UNITS
    j = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            j[a][b] = j[b][a] = rng.randrange(-4, 5) / 4
    h = [rng.randrange(-4, 5) / 4 for _ in range(n)]
    return {
        "name": name,
        "network": {"kind": "matrix", "i0": 0.5, "j": j, "h": h, "tau_sample_us": 1000},
        "retention_us": MATRIX_RETENTION_US,
        "seed": seed,
        "samples": MATRIX_SAMPLES,
        "burn_in": 0.1,
        "compare_oracle": True,
    }


def _full_adder_truth_table():
    """The full adder with libgen's auxiliary spins fixed per row, less the
    two that copy inputs A and B: 5 visible and 7 auxiliary spins."""
    aux_fns = (
        lambda a, b, c: c,
        lambda a, b, c: a & b,
        lambda a, b, c: a & c,
        lambda a, b, c: b & c,
        lambda a, b, c: a ^ b,
        lambda a, b, c: (a ^ b) & c,
        lambda a, b, c: a | b,
    )
    rows, assignment = [], []
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                rows.append([a, b, c, a ^ b ^ c, (a + b + c) >> 1])
                word = 0
                for fn in aux_fns:
                    word = (word << 1) | fn(a, b, c)
                assignment.append(word)
    return {
        "name": "full_adder",
        "table": rows,
        "n_aux": len(aux_fns),
        "labels": ["A", "B", "CIN", "S", "COUT"],
        "inputs": ["A", "B", "CIN"],
        "outputs": ["S", "COUT"],
        "aux_assignments": [assignment],
    }


def _run_job(path, doc, **check):
    return {
        "argv": ["run", str(path), "--out", "{pass}/" + path.stem],
        "out": "{pass}/" + path.stem,
        "kind": "run",
        "check": dict(check, samples=doc.get("samples")),
        "oracle": bool(doc.get("compare_oracle")),
    }


def make_plan(workload: str, seed: int, inputs: Path) -> dict:
    """Write the workload's input files under ``inputs``; return its plan.

    The plan lists the jobs of one pass and the scenario whose load and
    build make up the set-up time.
    """
    rng = random.Random(f"{workload}/{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    docs, jobs = {}, []

    def scenario(stem, doc):
        path = inputs / f"{stem}.json"
        docs[path] = doc
        return path

    if workload == "and_fast_sampling":
        for k in range(AND_JOBS):
            doc = _and_correlated(f"and_{k}", rng.randrange(2**31), AND_SAMPLES)
            jobs.append(_run_job(scenario(f"and_{k}", doc), doc))
    elif workload == "factorizer_reverse":
        for k in range(FACTORIZER_JOBS):
            doc = _factorizer(f"factorizer_{k}", rng.randrange(2**31), 1.5,
                              {"updates": FACTORIZER_UPDATES})
            jobs.append(_run_job(scenario(f"factorizer_{k}", doc), doc,
                                 factor_mass=MIN_FACTOR_MASS))
            doc = _factorizer(f"factorizer_control_{k}", rng.randrange(2**31), 0.0,
                              {"samples": CONTROL_SAMPLES})
            jobs.append(_run_job(scenario(f"factorizer_control_{k}", doc), doc,
                                 max_mode=MAX_CONTROL_MODE))
    elif workload == "and_tau_sweep":
        for k in range(SWEEP_SEEDS):
            doc = _and_correlated(f"and_sweep_{k}", rng.randrange(2**31), SWEEP_SAMPLES)
            path = scenario(f"and_sweep_{k}", doc)
            for g, (taus, samples) in enumerate(SWEEP_JOBS):
                jobs.append({
                    "argv": ["sweep-tau", str(path), "--taus", ",".join(map(str, taus)),
                             "--seed", str(rng.randrange(2**31)), "--samples", str(samples),
                             "--out", f"{{pass}}/sweep_{k}_{g}"],
                    "out": f"{{pass}}/sweep_{k}_{g}",
                    "kind": "sweep",
                    "check": {"points": len(taus), "samples": samples},
                    "oracle": True,
                })
    elif workload == "exact_synth":
        doc = _random_matrix("random_matrix", rng.randrange(2**31), rng)
        jobs.append(_run_job(scenario("random_matrix", doc), doc))
        table = inputs / "full_adder_table.json"
        docs[table] = _full_adder_truth_table()
        jobs.append({"argv": ["synth", str(table), "--out", "{pass}/synth"],
                     "out": "{pass}/synth", "kind": "synth", "check": {}, "oracle": False})
        jobs.append({"argv": ["verify", "{pass}/synth/full_adder.json"],
                     "out": None, "kind": "verify", "check": {}, "oracle": False})
    else:
        raise ValueError(f"unknown workload {workload!r}")

    for path, doc in docs.items():
        path.write_text(json.dumps(doc, indent=1) + "\n")
    setup = next(j for j in jobs if j["kind"] in ("run", "sweep"))["argv"][1]
    return {"workload": workload, "seed": seed, "setup_scenario": setup, "jobs": jobs,
            "min_passes": MIN_PASSES[workload]}


def _read_histogram(path):
    """(counts, probabilities) columns of a histogram.csv."""
    counts, probs = [], []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows) != ["state", "label", "count", "probability"]:
            raise ValueError(f"unexpected header in {path}")
        for row in rows:
            counts.append(int(row[2]))
            probs.append(float(row[3]))
    return counts, probs


def check_job(job: dict, out: Path) -> tuple:
    """Check one finished job's outputs.

    Returns (problems, samples, oracle_distances): a list of what is wrong
    (empty when the outputs are right), the trace samples the job logged, and
    its oracle comparisons with tau_sample < tau_N.
    """
    kind, check = job["kind"], job["check"]
    problems, distances, samples = [], [], 0
    if kind == "run":
        report = json.loads((out / "report.json").read_text())
        counts, probs = _read_histogram(out / "histogram.csv")
        samples = report["samples"]
        if check["samples"] is not None and samples != check["samples"]:
            problems.append(f"logged {samples} samples, budget {check['samples']}")
        if abs(math.fsum(probs) - 1.0) > 1e-9:
            problems.append(f"probabilities sum to {math.fsum(probs)!r}")
        if sum(counts) != samples - report["burn_in_discarded"]:
            problems.append("histogram counts do not match the kept samples")
        if job["oracle"]:
            dist = report["oracle_distance"]
            distances.append(dist)
            if not dist < MAX_ORACLE_DISTANCE:
                problems.append(f"oracle distance {dist!r}")
        if "factor_mass" in check:
            mass = sum(probs[w] for w in FACTOR_WORDS)
            if mass < check["factor_mass"]:
                problems.append(f"factor mass {mass:.3f} below {check['factor_mass']}")
        if "max_mode" in check and max(probs) > check["max_mode"]:
            problems.append(f"control run concentrates {max(probs):.3f} on one state")
    elif kind == "sweep":
        with open(out / "distance.csv", newline="") as fh:
            rows = [(float(r["tau_ratio"]), float(r["distance"])) for r in csv.DictReader(fh)]
        samples = check["samples"] * len(rows)
        if len(rows) != check["points"]:
            problems.append(f"{len(rows)} sweep points, expected {check['points']}")
        if not all(math.isfinite(d) for _, d in rows):
            problems.append("non-finite sweep distance")
        distances.extend(d for r, d in rows if r < 1.0)
        fast = [d for r, d in rows if r <= FAST_RATIO]
        broken = [d for r, d in rows if r >= 1.0]
        if any(d >= MAX_ORACLE_DISTANCE for d in fast):
            problems.append(f"oracle distances {fast} at tau_sample << tau_N")
        if any(d <= MAX_ORACLE_DISTANCE for d in broken):
            problems.append(f"no breakdown at tau_sample >= tau_N: distances {broken}")
    elif kind == "synth":
        gate = json.loads((out / "full_adder.json").read_text())
        if not gate.get("verified") or gate["n"] != FULL_ADDER_UNITS:
            problems.append(f"synthesized full adder is not a verified "
                            f"{FULL_ADDER_UNITS}-unit gate")
    return problems, samples, distances


def job_digest(out, stdout: str, pass_dir: str) -> str:
    """sha256 of a job's printed output and output files, pass directory elided."""
    h = hashlib.sha256(stdout.replace(pass_dir, "{pass}").encode())
    if out is not None:
        out = Path(out)
        for path in sorted(out.rglob("*")):
            if path.is_file():
                h.update(path.relative_to(out).as_posix().encode())
                h.update(path.read_bytes())
    return h.hexdigest()
