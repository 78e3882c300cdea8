"""Virtual-time discrete-event engine for p-bit networks.

Two event kinds drive everything: per-unit stochastic updates (each unit
re-samples its output every retention time, plus jitter) and per-machine
weight-logic refreshes (a machine re-publishes its units' input voltages on
the ticks of its sampling-period lattice). Ties order refreshes before
updates so a unit updating at the same instant sees fresh inputs. A unit
updates on whatever voltage its machine's weight logic last published for
it, the rail voltage for a clamped unit included; only a wired unit
bypasses the weight logic and reads its source's output.

The weight logic is a pure function of the machine's own outputs, so each
machine caches what it published per local output mask (at most
``MEMO_ENTRIES`` masks; past that a miss is computed and not kept). Each
unit also holds its firing probability ``sigmoid(2v - 5)``, recomputed only
when a refresh changes the voltage it holds; a wired unit reads one of two
probabilities fixed by its source's output.

A refresh whose machine saw no flip since its last one would publish the
same voltages again, so only dirty machines queue one: every machine
refreshes at t = 0, and a flip in a clean machine queues its refresh at the
next tick of that machine's lattice. The trace samples are the instants of
the union of all machines' lattices; their states are rebuilt after the run
from a log of flips, with no event per sample. The same log is the only
record of the past: a wire with a delay reads its source's bit from the mask
of the newest flip at or before ``t - delay``, found by binary search, and no
per-wire history is kept.

Virtual time is integer microseconds. Each unit owns an independent seeded
PCG64 stream derived from (scenario seed, unit id), so traces replay
bit-identically regardless of host or run count. A unit's stream is consumed
in blocks of ``BLOCK`` uniforms drawn ahead, one value per draw in turn: its
initial state, each update's comparison value and each jitter draw. The
values are the same as scalar ``Generator.random()`` calls, and a jitter
draw ``-f + 2f·u`` is the same as ``Generator.uniform(-f, f)``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import CLAMPED_HIGH, CLAMPED_LOW, V_RAIL, Wired, sigmoid, weight_inputs
from .errors import ConfigurationError
from .networks import NetworkSpec

PRIO_REFRESH = 0
PRIO_UPDATE = 1
# uniforms drawn ahead per refill of a unit's stream
BLOCK = 256
# local output masks cached per machine: every state of up to 8 units
MEMO_ENTRIES = 256


def uniform_stream(seed: int, gid: int):
    """Unit ``gid``'s next-uniform function: the values of scalar
    ``random()`` calls on its PCG64 generator, drawn ``BLOCK`` at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, gid]))
    blocks = iter(lambda: rng.random(BLOCK).tolist(), None)
    return chain.from_iterable(blocks).__next__


@dataclass
class SimulationTrace:
    """Snapshots of the full output vector at the machines' refresh instants.

    ``times`` is the sorted union of the machines' refresh lattices (machines
    refreshing at the same instant give one sample, so times strictly
    increase). Each state is rebuilt from the run's flip log as the mask
    after every update strictly before the sample time, since refreshes run
    before updates at the same instant. States are big-endian bitmasks (unit
    k is bit n-1-k).
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
        """Write one row per sample, its time and every unit's level, in the
        bytes ``csv.writer`` would give, each row formatted inside C-level
        ``map`` loops."""
        levels = map(",".join, map(f"{{:0{self.n}b}}".format, self.states.tolist()))
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["time_us"] + [f"pbit_{k}" for k in range(self.n)]) + "\r\n")
            fh.writelines(map("{},{}\r\n".format, self.times.tolist(), levels))


class Simulator:
    """Event-queue state for one run. Strictly single-threaded."""

    def __init__(self, network: NetworkSpec, seed: int, record_updates: bool = False):
        network.validate()
        self.record_updates = record_updates
        n = network.n_total
        self.n = n

        self.machine_of = network.machine_of()
        offsets = network.offsets()
        self.members = [
            list(range(off, off + mach.n))
            for off, mach in zip(offsets, network.machines)
        ]
        # a machine's local output mask is (mask >> shift) & local_mask
        self.shifts = [n - off - mach.n for off, mach in zip(offsets, network.machines)]
        self.local_masks = [(1 << mach.n) - 1 for mach in network.machines]
        self.memos = [{} for _ in network.machines]
        self.modes = [[network.pbits[g].mode for g in ids] for ids in self.members]
        self.machines = network.machines
        # per-unit parameters read on every update
        self.retention = [p.retention_us for p in network.pbits]
        self.jitter = [p.jitter_fraction for p in network.pbits]
        self.wires = [p.mode if isinstance(p.mode, Wired) else None for p in network.pbits]
        self.draws = [uniform_stream(seed, gid) for gid in range(n)]

        self.outputs = [0] * n
        # every machine refreshes at t = 0, before any update reads these
        self.held_inputs = [None] * n
        self.held_p = [None] * n
        self.wire_p = tuple(sigmoid(2.0 * (V_RAIL * out) - 5.0) for out in (0, 1))
        self.mask = 0
        for gid, p in enumerate(network.pbits):
            if p.mode == CLAMPED_HIGH:
                out = 1
            elif p.mode == CLAMPED_LOW:
                out = 0
            else:
                out = 1 if self.draws[gid]() < 0.5 else 0
            self.outputs[gid] = out
            if out:
                self.mask |= 1 << (n - 1 - gid)

        self.clock = 0
        m = len(network.machines)
        self.queue = [(0, PRIO_REFRESH, k, k) for k in range(m)]
        self.queue += [(p.phase_us, PRIO_UPDATE, m + gid, gid)
                       for gid, p in enumerate(network.pbits)]
        heapq.heapify(self.queue)
        self._seq = m + n

        self.taus = [mach.tau_sample_us for mach in network.machines]
        # a machine is dirty exactly while its refresh is queued
        self.dirty = [True] * len(network.machines)
        self.flip_times = [-1]
        self.flip_masks = [self.mask]
        self.update_events = []
        self.n_updates = 0
        self._update_counts = [0] * n
        self._one_counts = [0] * n

    @property
    def update_counts(self) -> np.ndarray:
        """Updates per unit so far."""
        return np.array(self._update_counts, dtype=np.int64)

    @property
    def one_counts(self) -> np.ndarray:
        """Updates per unit so far that drew output 1."""
        return np.array(self._one_counts, dtype=np.int64)

    def _source_output(self, src: int, at_time: int, delay_us: int) -> int:
        if delay_us == 0:
            return self.outputs[src]
        # the mask after the newest flip at or before at_time - delay_us; the
        # clamp keeps an earlier time on the -1 sentinel's initial mask
        i = bisect_right(self.flip_times, max(at_time - delay_us, -1)) - 1
        return (self.flip_masks[i] >> (self.n - 1 - src)) & 1

    def step(self) -> None:
        """Process the single least event (refreshes win ties)."""
        t, prio, _seq, target = heapq.heappop(self.queue)
        self.clock = t
        if prio == PRIO_REFRESH:
            self._refresh(target)
        else:
            self._update(t, target)

    def _refresh(self, k: int) -> None:
        ids = self.members[k]
        memo = self.memos[k]
        local = (self.mask >> self.shifts[k]) & self.local_masks[k]
        published = memo.get(local)
        if published is None:
            mach = self.machines[k]
            snapshot = [self.outputs[g] for g in ids]
            published = weight_inputs(mach.coupling, snapshot, self.modes[k], mach.quant)
            if len(memo) < MEMO_ENTRIES:
                memo[local] = published
        held, held_p = self.held_inputs, self.held_p
        for gid, v in zip(ids, published):
            if v is not None and v != held[gid]:
                held[gid] = v
                held_p[gid] = sigmoid(2.0 * v - 5.0)
        self.dirty[k] = False

    def _update(self, t: int, gid: int) -> None:
        wire = self.wires[gid]
        if wire is None:
            p = self.held_p[gid]
        else:
            p = self.wire_p[self._source_output(wire.source, t, wire.delay_us)]
        draw = self.draws[gid]
        out = 1 if p > draw() else 0
        self.n_updates += 1
        self._update_counts[gid] += 1
        self._one_counts[gid] += out
        if self.record_updates:
            self.update_events.append((t, gid))
        if out != self.outputs[gid]:
            self.outputs[gid] = out
            self.mask ^= 1 << (self.n - 1 - gid)
            self.flip_times.append(t)
            self.flip_masks.append(self.mask)
            k = self.machine_of[gid]
            if not self.dirty[k]:
                self.dirty[k] = True
                tau = self.taus[k]
                heapq.heappush(self.queue, ((t // tau + 1) * tau, PRIO_REFRESH, self._seq, k))
                self._seq += 1
        dt = self.retention[gid]
        f = self.jitter[gid]
        if f > 0.0:
            # -f + 2f*u is exactly Generator.uniform(-f, f)
            dt = round(dt * (1.0 + (-f + 2.0 * f * draw())))
            if dt < 1:
                dt = 1
        heapq.heappush(self.queue, (t + dt, PRIO_UPDATE, self._seq, gid))
        self._seq += 1

    def sample_times(self, last: int) -> np.ndarray:
        """The union of the machines' refresh lattices over [0, last]."""
        lattices = [np.arange(0, last + 1, tau, dtype=np.int64) for tau in set(self.taus)]
        return lattices[0] if len(lattices) == 1 else np.unique(np.concatenate(lattices))

    def sample_time(self, index: int) -> int:
        """The time of sample ``index`` (from 0), which lies within
        ``index * min(tau)`` since the fastest lattice alone has enough points."""
        taus = set(self.taus)
        if len(taus) == 1:
            return index * taus.pop()
        return int(self.sample_times(index * min(taus))[index])

    def trace(self, last_sample: int) -> SimulationTrace:
        """The samples up to ``last_sample`` (none if it is negative), each
        state being the mask after every flip strictly before its time."""
        times = self.sample_times(last_sample)
        flip_times = np.asarray(self.flip_times, dtype=np.int64)
        flip_masks = np.asarray(self.flip_masks, dtype=np.int64)
        states = flip_masks[np.searchsorted(flip_times, times, "left") - 1]
        return SimulationTrace(
            n=self.n,
            times=times,
            states=states,
            update_events=list(self.update_events),
            update_counts=self.update_counts,
            one_counts=self.one_counts,
            final_time_us=max(self.clock, int(times[-1])) if len(times) else self.clock,
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
    ``max_samples`` counts trace rows and stops at the last one's time s*,
    running the events strictly before it; ``max_updates`` counts unit
    update events and ends the samples at the last update's time. A zero
    budget yields an empty trace.
    """
    if max_samples is None and duration_us is None and max_updates is None:
        raise ConfigurationError("a sample, update, or duration budget is required")
    sim = Simulator(network, seed, record_updates=record_updates)
    # events run strictly before ``stop``; samples end at ``last``
    stop = last = None
    if duration_us is not None:
        stop, last = duration_us, duration_us - 1
    if max_samples is not None:
        s_star = sim.sample_time(max_samples - 1) if max_samples > 0 else -1
        if stop is None or s_star < stop:
            stop, last = s_star, s_star
    queue = sim.queue
    # every update requeues its unit, so the queue never empties
    while True:
        if max_updates is not None and sim.n_updates >= max_updates:
            last = sim.clock if sim.n_updates else -1
            break
        if stop is not None and queue[0][0] >= stop:
            break
        sim.step()
    return sim.trace(last)


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
