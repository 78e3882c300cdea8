"""Steady-state statistics, oracle comparisons and parameter sweeps."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .errors import CapacityError, ConfigurationError
from .networks import NetworkSpec
from .oracle import (ENUMERATION_LIMIT, bit_rows, boltzmann_distribution, euclidean_distance,
                     project)

# the leading fraction of samples a run or sweep discards unless told otherwise
DEFAULT_BURN_IN = 0.1
# the most histogram rows ``to_csv`` builds at once
BLOCK_ROWS = 1 << 16
# an unseen state's row after its word and bits
_UNSEEN_TAIL = b",0,0.0\r\n"


@dataclass
class EmpiricalDistribution:
    """State counts over a labelled group of visible units."""

    labels: list
    counts: np.ndarray
    total: int
    burn_in_discarded: int

    @property
    def n_bits(self) -> int:
        return len(self.labels)

    @property
    def probabilities(self) -> np.ndarray:
        if self.total == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / self.total

    def bit_string(self, word: int) -> str:
        return format(word, f"0{self.n_bits}b")

    def to_csv(self, path) -> None:
        """Write one row per state, every state listed, in the bytes
        ``csv.writer`` would give (no field needs quoting).

        Most of 2^n states are never seen, and an unseen state's row is
        always ``w,<bits>,0,0.0``. So the rows are built as uint8 blocks by
        ``_unseen_rows``, one per run of words with the same number of
        digits (at most ``BLOCK_ROWS`` rows each), and only the seen states
        are formatted one by one, by a template, each written in place of
        its row of the block."""
        row = f"{{}},{{:0{self.n_bits}b}},{{}},{{!r}}\r\n".format
        seen = np.flatnonzero(self.counts)
        words = seen.tolist() + [len(self.counts)]
        counts = self.counts[seen].tolist()
        probs = self.probabilities[seen].tolist()
        j = 0
        with open(path, "wb") as fh:
            fh.write(b"state,label,count,probability\r\n")
            lo = 0
            while lo < len(self.counts):
                hi = min(len(self.counts), 10 ** len(str(lo)), lo + BLOCK_ROWS)
                block = _unseen_rows(lo, hi, self.n_bits)
                flat, width, start = memoryview(block.reshape(-1)), block.shape[1], lo
                while words[j] < hi:
                    w = words[j]
                    fh.write(flat[(start - lo) * width:(w - lo) * width])
                    fh.write(row(w, w, counts[j], probs[j]).encode())
                    start, j = w + 1, j + 1
                fh.write(flat[(start - lo) * width:])
                lo = hi


def _unseen_rows(lo: int, hi: int, n: int) -> np.ndarray:
    """The histogram rows ``w,<n bits>,0,0.0\\r\\n`` of the words in [lo, hi),
    which all have as many digits as lo, as a uint8 array of one row each."""
    digits = len(str(lo))
    block = np.empty((hi - lo, digits + n + len(_UNSEEN_TAIL) + 1), dtype=np.uint8)
    words = np.arange(lo, hi)[:, None]
    block[:, :digits] = words // 10 ** np.arange(digits - 1, -1, -1) % 10 + ord("0")
    block[:, digits] = ord(",")
    block[:, digits + 1:digits + 1 + n] = bit_rows(lo, hi, n) + ord("0")
    block[:, digits + 1 + n:] = np.frombuffer(_UNSEEN_TAIL, dtype=np.uint8)
    return block


def histogram(
    trace: dynamics.SimulationTrace,
    visible: dict,
    burn_in: float = 0.0,
) -> EmpiricalDistribution:
    """Aggregate refresh-instant samples into visible-state counts.

    ``visible`` maps labels to global unit ids; the first label is the most
    significant bit of the state word. The leading ``burn_in`` fraction of
    samples is discarded. The samples are counted from the trace's flip log:
    each flip's mask adds the number of kept samples that hold it, so the
    cost follows the run's flips, not its samples.
    """
    check_histogram_units(len(visible))
    if not 0.0 <= burn_in < 1.0:
        raise ConfigurationError("burn-in fraction must lie in [0, 1)")
    discard = int(len(trace) * burn_in)
    held = trace.segment_samples(discard)
    total = int(held.sum())
    if total == 0:
        raise ConfigurationError("no samples remain after burn-in")
    labels = list(visible)
    seen = held > 0
    words = project(trace.flip_masks[seen], trace.n, [visible[label] for label in labels])
    counts = np.zeros(1 << len(labels), dtype=np.int64)
    np.add.at(counts, words, held[seen])
    return EmpiricalDistribution(
        labels=labels, counts=counts, total=total, burn_in_discarded=discard
    )


def check_histogram_units(count: int) -> None:
    """Refuse a histogram over more units than the oracle enumerates: it
    holds and writes one row for each of the 2^count states."""
    if count > ENUMERATION_LIMIT:
        raise CapacityError(
            f"a histogram covers at most {ENUMERATION_LIMIT} units, got {count}; "
            "name fewer units in 'histogram_over'")


def rank_states(probs, words=None) -> np.ndarray:
    """Positions of ``probs`` in mode order: descending probability, ties by
    ascending state word. ``words`` defaults to the positions themselves."""
    probs = np.asarray(probs, dtype=float)
    if words is None:
        return np.argsort(-probs, kind="stable")
    return np.lexsort((words, -probs))


def mode_report(dist: EmpiricalDistribution, k: int) -> list:
    """Top-k states by ``rank_states``; unseen states only when k covers
    every state."""
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    probs = dist.probabilities
    top = rank_states(probs)[:k]
    if k < len(probs):
        top = top[dist.counts[top] > 0]
    return [
        {"state": w, "label": dist.bit_string(w), "probability": p}
        for w, p in zip(top.tolist(), probs[top].tolist())
    ]


def single_machine_oracle(network: NetworkSpec):
    """Exact distribution for a one-machine network (which has no wires,
    since wires must cross machines)."""
    if len(network.machines) != 1:
        raise ConfigurationError(
            "the Boltzmann oracle covers single machines without wires only"
        )
    modes = [p.mode for p in network.pbits]
    return boltzmann_distribution(network.machines[0].coupling, modes)


def exact_law(network: NetworkSpec, units=None):
    """Exact law of a one-machine network over ``units`` (the first one most
    significant), summed from its law over all units; all units by default."""
    exact = single_machine_oracle(network)
    if units is None:
        return exact.probabilities
    words = project(np.arange(1 << exact.n, dtype=np.int64), exact.n, units)
    return np.bincount(words, weights=exact.probabilities, minlength=1 << len(units))


def trace_distance(trace: dynamics.SimulationTrace, exact, burn_in: float,
                   units=None) -> float:
    """Euclidean distance between a trace's law over ``units`` (all its units
    by default) and ``exact``, the exact law over the same units."""
    units = range(trace.n) if units is None else units
    emp = histogram(trace, {f"pbit_{k}": k for k in units}, burn_in)
    return euclidean_distance(emp.probabilities, exact)


def oracle_distance(
    network: NetworkSpec, seed: int, samples: int, burn_in: float = DEFAULT_BURN_IN
) -> float:
    """Euclidean distance between a run's empirical law and the exact oracle."""
    exact = single_machine_oracle(network)
    return trace_distance(dynamics.run(network, seed, max_samples=samples), exact, burn_in)


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def sweep_sampling_time(
    network: NetworkSpec,
    seed: int,
    taus_us,
    samples: int,
    burn_in: float = DEFAULT_BURN_IN,
    units=None,
) -> list:
    """Oracle distance over ``units`` (all by default) as a function of
    normalized sampling time.

    Returns one row per tau: {tau_us, tau_ratio, distance} with tau_ratio
    normalized by the smallest retention time. Timing never changes the
    exact law, so it is built once for every point.
    """
    exact = exact_law(network, units)
    tau_min = min(p.retention_us for p in network.pbits)
    rows = []
    for idx, tau in enumerate(taus_us):
        net = network.copy()
        net.set_tau_sample(int(tau))
        trace = dynamics.run(net, _derived_seed(seed, idx), max_samples=samples)
        dist = trace_distance(trace, exact, burn_in, units)
        rows.append({"tau_us": int(tau), "tau_ratio": tau / tau_min, "distance": dist})
    return rows


def sweep_retention_spread(
    network: NetworkSpec,
    seed: int,
    plans,
    samples: int,
    burn_in: float = DEFAULT_BURN_IN,
    units=None,
) -> list:
    """Oracle distance over ``units`` (all by default) for each per-unit
    retention-time assignment, against one exact law built for every plan."""
    exact = exact_law(network, units)
    rows = []
    for idx, plan in enumerate(plans):
        net = network.copy()
        net.set_retention(plan)
        tau_sample = max(m.tau_sample_us for m in net.machines)
        tau_min = min(p.retention_us for p in net.pbits)
        if tau_sample > tau_min:
            raise ConfigurationError(
                f"sampling period {tau_sample} exceeds smallest retention {tau_min}"
            )
        trace = dynamics.run(net, _derived_seed(seed, idx), max_samples=samples)
        dist = trace_distance(trace, exact, burn_in, units)
        rows.append({"plan": [p.retention_us for p in net.pbits],
                     "tau_ratio": tau_sample / tau_min, "distance": dist})
    return rows


def distance_rows_to_csv(rows, path, columns=("tau_ratio", "distance")) -> None:
    """Write sweep rows as CSV; a list cell (a retention plan) is space-joined
    and a number is written as repr(float)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([
                " ".join(str(x) for x in row[c]) if isinstance(row[c], list)
                else repr(float(row[c]))
                for c in columns
            ])
