"""Virtual-time discrete-event engine for p-bit networks.

Two event kinds drive everything: per-unit stochastic updates (each unit
re-samples its output every retention time, plus jitter) and per-machine
weight-logic refreshes (each machine re-publishes its units' input voltages
every sampling period and logs one trace sample). Ties order refreshes
before updates so a unit updating at the same instant sees fresh inputs.

Virtual time is integer microseconds. Each unit owns an independent seeded
random stream derived from (scenario seed, unit id), so traces replay
bit-identically regardless of host or run count.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CLAMPED_HIGH,
    CLAMPED_LOW,
    FREE,
    V_RAIL,
    Wired,
    sigmoid,
    weight_inputs,
)
from .errors import ConfigurationError
from .networks import NetworkSpec
from .oracle import state_bits

PRIO_REFRESH = 0
PRIO_UPDATE = 1


@dataclass
class SimulationTrace:
    """Timestamped machine-refresh snapshots of the full output vector.

    States are stored as big-endian bitmasks (unit k is bit n-1-k). When two
    machines refresh at the same instant the later snapshot wins, keeping
    sample times strictly increasing.
    """

    n: int
    times: np.ndarray
    states: np.ndarray
    update_events: list = field(default_factory=list)
    update_counts: np.ndarray = None
    one_counts: np.ndarray = None
    final_time_us: int = 0

    def __len__(self):
        return len(self.times)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_us"] + [f"pbit_{k}" for k in range(self.n)])
            for t, mask in zip(self.times, self.states):
                writer.writerow([int(t), *state_bits(int(mask), self.n)])


class Simulator:
    """Event-queue state for one run. Strictly single-threaded."""

    def __init__(self, network: NetworkSpec, seed: int, record_updates: bool = False):
        network.validate()
        self.network = network
        self.seed = seed
        self.record_updates = record_updates
        n = network.n_total
        self.n = n

        self.machine_of = network.machine_of()
        self.members = [
            list(range(off, off + mach.n))
            for off, mach in zip(network.offsets(), network.machines)
        ]

        self.rngs = [
            np.random.default_rng(np.random.SeedSequence([seed, gid])) for gid in range(n)
        ]

        self.outputs = [0] * n
        self.held_inputs = [2.5] * n
        self.mask = 0
        for gid, p in enumerate(network.pbits):
            if p.mode == CLAMPED_HIGH:
                out = 1
            elif p.mode == CLAMPED_LOW:
                out = 0
            else:
                out = 1 if self.rngs[gid].random() < 0.5 else 0
            self.outputs[gid] = out
            if out:
                self.mask |= 1 << (n - 1 - gid)
            if p.mode == CLAMPED_HIGH:
                self.held_inputs[gid] = V_RAIL
            elif p.mode == CLAMPED_LOW:
                self.held_inputs[gid] = 0.0

        # wire-delay histories, only for sources of delayed wires
        self._histories = {}
        for p in network.pbits:
            if isinstance(p.mode, Wired) and p.mode.delay_us > 0:
                self._histories.setdefault(p.mode.source, [(0, self.outputs[p.mode.source])])

        self.clock = 0
        self._seq = 0
        self.queue = []
        for k in range(len(network.machines)):
            self._push(0, PRIO_REFRESH, k)
        for gid, p in enumerate(network.pbits):
            self._push(p.phase_us, PRIO_UPDATE, gid)

        self.dirty = [True] * len(network.machines)
        self.sample_times = []
        self.sample_states = []
        self.update_events = []
        self.n_updates = 0
        self.update_counts = np.zeros(n, dtype=np.int64)
        self.one_counts = np.zeros(n, dtype=np.int64)

    def _push(self, time_us, prio, target):
        heapq.heappush(self.queue, (time_us, prio, self._seq, target))
        self._seq += 1

    def _source_output(self, src: int, at_time: int, delay_us: int) -> int:
        if delay_us == 0:
            return self.outputs[src]
        history = self._histories[src]
        want = at_time - delay_us
        for t, val in reversed(history):
            if t <= want:
                return val
        return history[0][1]

    def step(self) -> None:
        """Process the single least event (refreshes win ties)."""
        if not self.queue:
            raise ConfigurationError("event queue is empty")
        t, prio, _seq, target = heapq.heappop(self.queue)
        self.clock = t
        if prio == PRIO_REFRESH:
            self._refresh(t, target)
        else:
            self._update(t, target)

    def _refresh(self, t: int, k: int) -> None:
        net = self.network
        mach = net.machines[k]
        ids = self.members[k]
        if self.dirty[k]:
            snapshot = [self.outputs[g] for g in ids]
            modes = [net.pbits[g].mode for g in ids]
            published = weight_inputs(mach.coupling, snapshot, modes, mach.quant)
            held = self.held_inputs
            for local, gid in enumerate(ids):
                if modes[local] == FREE:
                    held[gid] = published[local]
            self.dirty[k] = False
        if self.sample_times and self.sample_times[-1] == t:
            self.sample_states[-1] = self.mask
        else:
            self.sample_times.append(t)
            self.sample_states.append(self.mask)
        self._push(t + mach.tau_sample_us, PRIO_REFRESH, k)

    def _update(self, t: int, gid: int) -> None:
        p = self.network.pbits[gid]
        mode = p.mode
        if mode == FREE:
            v = self.held_inputs[gid]
        elif mode == CLAMPED_HIGH:
            v = V_RAIL
        elif mode == CLAMPED_LOW:
            v = 0.0
        else:
            v = V_RAIL * self._source_output(mode.source, t, mode.delay_us)
        rng = self.rngs[gid]
        u = rng.random()
        out = 1 if sigmoid(2.0 * v - 5.0) > u else 0
        self.n_updates += 1
        self.update_counts[gid] += 1
        self.one_counts[gid] += out
        if self.record_updates:
            self.update_events.append((t, gid))
        if out != self.outputs[gid]:
            self.outputs[gid] = out
            self.mask ^= 1 << (self.n - 1 - gid)
            self.dirty[self.machine_of[gid]] = True
            if gid in self._histories:
                self._histories[gid].append((t, out))
        dt = p.retention_us
        if p.jitter_fraction > 0.0:
            f = p.jitter_fraction
            dt = max(1, int(round(dt * (1.0 + rng.uniform(-f, f)))))
        self._push(t + dt, PRIO_UPDATE, gid)

    def trace(self) -> SimulationTrace:
        return SimulationTrace(
            n=self.n,
            times=np.asarray(self.sample_times, dtype=np.int64),
            states=np.asarray(self.sample_states, dtype=np.int64),
            update_events=list(self.update_events),
            update_counts=self.update_counts.copy(),
            one_counts=self.one_counts.copy(),
            final_time_us=self.clock,
        )


def run(
    network: NetworkSpec,
    seed: int,
    max_samples: int = None,
    duration_us: int = None,
    max_updates: int = None,
    record_updates: bool = False,
) -> SimulationTrace:
    """Run until a budget is exhausted; deterministic in (network, seed).

    ``duration_us`` processes events in the half-open window [0, duration);
    ``max_samples`` counts logged trace rows; ``max_updates`` counts unit
    update events. A zero budget yields an empty trace.
    """
    if max_samples is None and duration_us is None and max_updates is None:
        raise ConfigurationError("a sample, update, or duration budget is required")
    sim = Simulator(network, seed, record_updates=record_updates)
    queue = sim.queue
    while queue:
        if max_samples is not None and len(sim.sample_times) >= max_samples:
            break
        if max_updates is not None and sim.n_updates >= max_updates:
            break
        if duration_us is not None and queue[0][0] >= duration_us:
            break
        sim.step()
    return sim.trace()


def serialization_metric(
    trace: SimulationTrace,
    network: NetworkSpec,
    window_us: int,
    start: int = 0,
    end: int = None,
) -> float:
    """Fraction of unit updates with another same-machine update within the
    window; a proxy for the probability of parallel updating.

    Requires a trace recorded with record_updates=True.
    """
    aligned = _alignment_flags(trace, network, window_us)
    if end is None:
        end = len(aligned)
    window = aligned[start:end]
    if not window:
        raise ConfigurationError("no update events in the requested range")
    return sum(window) / len(window)


def _alignment_flags(trace, network, window_us):
    if window_us <= 0:
        raise ConfigurationError("window must be positive")
    if not trace.update_events:
        raise ConfigurationError("trace carries no update timestamps")
    machine_of = network.machine_of()
    per_machine = {}
    for pos, (t, gid) in enumerate(trace.update_events):
        per_machine.setdefault(machine_of[gid], []).append((t, gid, pos))
    flags = [False] * len(trace.update_events)
    for events in per_machine.values():
        times = [e[0] for e in events]
        for i, (t, gid, pos) in enumerate(events):
            j = i - 1
            while j >= 0 and t - times[j] <= window_us:
                if events[j][1] != gid:
                    flags[pos] = True
                    break
                j -= 1
            if flags[pos]:
                continue
            j = i + 1
            while j < len(events) and times[j] - t <= window_us:
                if events[j][1] != gid:
                    flags[pos] = True
                    break
                j += 1
    return flags
