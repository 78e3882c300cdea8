"""Virtual-time discrete-event engine for p-bit networks.

Two event kinds drive everything: per-unit stochastic updates (each unit
re-samples its output every retention time, plus jitter) and per-machine
weight-logic refreshes (a machine re-publishes its units' input voltages on
the ticks of its sampling-period lattice). Ties order refreshes before
updates so a unit updating at the same instant sees fresh inputs. A unit
updates on whatever voltage its machine's weight logic last published for
it, the rail voltage for a clamped unit included; only a wired unit
bypasses the weight logic and reads its source's output.

The weight logic is a pure function of the machine's own outputs, so at
the start of each run every machine of at most ``TABLE_UNITS`` units (the
full adder, the largest shipped machine, has 14) gets a table v[state, unit]
of the voltages it publishes in each of its 2^n local states, from one
batched ``weight_inputs`` call. The batch sums each drive in the same
ascending unit order as a single state, so a table row has the bits a
per-state call would give. A refresh then does no weight-logic work: it
writes its row's firing probabilities ``sigmoid(2v - 5)`` into the units'
held probabilities with one slice assignment. Each probability is computed
once per distinct voltage the run meets and kept in a map that lives for
the run. A larger machine (only a ``matrix`` scenario of 15 or more units)
computes a row when it misses and keeps at most ``MEMO_ENTRIES`` rows. A
wired unit reads one of two probabilities fixed by its source's output.

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
bit-identically regardless of host or run count. A free unit's output at
t = 0 is its stream's first value; ``_Schedule`` turns the rest into the
unit's updates for both engines: the first falls at the unit's phase, and
each draws its ``u`` and then, with jitter f, the interval to the next,
``round(r·(1 + uniform(-f, f)))`` and at least 1. The heap draws ``BLOCK``
updates ahead and the composed engine more; neither changes a bit.

Two engines run a network, and they give the same trace and end time.
``_composable`` picks one from the network and the budget. A run with only a
sample or duration budget, on one machine with at most ``COMPOSED_UNITS`` (8)
units (one machine holds no wire), composes per-tick state maps; a run with
an update budget or recorded updates, and every run of a larger network,
steps the event heap of ``Simulator``, whose order of equal-time updates is
the only one those runs need. In one machine without wires the published
voltages change only at lattice ticks: a refresh runs before the updates at
its tick, and a clean refresh would publish the same values. So every update
in [t_k, t_k+1) compares its ``u`` against p(S_k), the held probability in
the state at tick t_k, and the interval is a map on the 2^n states in which
each unit that updated takes the output of its last update. The composed
engine reads p[state, unit] off the machine's voltage table, takes each
unit's update times and ``u`` values from its schedule, and composes the
interval maps forward over windows of ticks, in the manner of Propp and
Wilson's coupled maps (Random Struct. Alg. 9, 223, 1996) run forward on the
same streams.

Every virtual time of a run, the updates drawn ahead included, stays below
``TIME_LIMIT_US`` (2^62 µs), so int64 arrays hold it; ``run`` refuses a
budget or timing that could pass it.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import CLAMPED_HIGH, CLAMPED_LOW, V_RAIL, Wired, sigmoid, weight_inputs
from .errors import ConfigurationError
from .networks import NetworkSpec

PRIO_REFRESH = 0
PRIO_UPDATE = 1
# updates drawn ahead per refill of a unit's schedule in the event heap
BLOCK = 256
# the largest machine whose weight logic a run tabulates over every local
# state: the full adder, the largest shipped machine
TABLE_UNITS = 14
# local output masks cached per larger machine
MEMO_ENTRIES = 256
# the largest machine the composed engine runs
COMPOSED_UNITS = 8
# updates drawn ahead per refill of a unit's schedule in the composed engine
CHUNK = 4096
# bound on the state-map entries of one window of the composed engine
WINDOW_ENTRIES = 1 << 20
# every virtual time of a run stays below this, half of int64's range
TIME_LIMIT_US = 1 << 62


def sample_times(taus, last: int) -> np.ndarray:
    """The union of the refresh lattices of periods ``taus`` over [0, last]."""
    lattices = [np.arange(0, last + 1, tau, dtype=np.int64) for tau in set(taus)]
    return lattices[0] if len(lattices) == 1 else np.unique(np.concatenate(lattices))


def sample_time(taus, index: int) -> int:
    """The time of sample ``index`` (from 0), which lies within
    ``index * min(taus)`` since the fastest lattice alone has enough points."""
    taus = set(taus)
    if len(taus) == 1:
        return index * taus.pop()
    return int(sample_times(taus, index * min(taus))[index])


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


def _trace(n, taus, last, clock, flip_times, flip_masks, update_events,
           update_counts, one_counts) -> SimulationTrace:
    """The samples up to ``last`` (none if it is negative), each state being
    the mask after every logged flip strictly before its time. The run ends
    at its last event (``clock``) or its last sample, whichever is later."""
    times = sample_times(taus, last)
    states = flip_masks[np.searchsorted(flip_times, times, "left") - 1]
    return SimulationTrace(
        n=n,
        times=times,
        states=states,
        update_events=update_events,
        update_counts=update_counts,
        one_counts=one_counts,
        final_time_us=max(clock, int(times[-1])) if len(times) else clock,
    )


class Simulator:
    """Event-queue state for one run. Strictly single-threaded."""

    def __init__(self, network: NetworkSpec, seed: int, record_updates: bool = False):
        network.validate()
        self.record_updates = record_updates
        n = network.n_total
        self.n = n

        self.machine_of = network.machine_of()
        # machine k's units are offsets[k], offsets[k] + 1, ...
        self.offsets = network.offsets()
        # a machine's local output mask is (mask >> shift) & local_mask
        self.shifts = [n - off - mach.n for off, mach in zip(self.offsets, network.machines)]
        self.local_masks = [(1 << mach.n) - 1 for mach in network.machines]
        # a wired unit's input is its wire, so the weight logic is asked for
        # it as clamped low: its entry is a rail no update reads, and every
        # entry is a voltage
        self.modes = [[CLAMPED_LOW if isinstance(p.mode, Wired) else p.mode
                       for p in network.pbits[off:off + mach.n]]
                      for off, mach in zip(self.offsets, network.machines)]
        self.machines = network.machines
        self.p_of = _Probabilities()
        # the voltages of each machine of up to TABLE_UNITS units in every
        # local state; a larger machine caches the rows it computed, keyed
        # by local output mask
        self.tables = [_voltage_table(mach, modes) if mach.n <= TABLE_UNITS else None
                       for mach, modes in zip(network.machines, self.modes)]
        self.memos = [{} for _ in network.machines]
        self.wires = [p.mode if isinstance(p.mode, Wired) else None for p in network.pbits]
        self.mask, schedules = _units(network, seed, BLOCK)
        self.outputs = [(self.mask >> (n - 1 - gid)) & 1 for gid in range(n)]
        # every machine refreshes at t = 0, before any update reads these
        self.held_p = [None] * n
        self.wire_p = (self.p_of[0.0], self.p_of[V_RAIL])

        self.clock = 0
        m = len(network.machines)
        self.queue = [(0, PRIO_REFRESH, k, k) for k in range(m)]
        # each unit's next update: its time waits in the queue, its u here
        self.next_update = [s.updates().__next__ for s in schedules]
        self.next_u = [None] * n
        for gid, next_update in enumerate(self.next_update):
            t, self.next_u[gid] = next_update()
            self.queue.append((t, PRIO_UPDATE, m + gid, gid))
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
        local = (self.mask >> self.shifts[k]) & self.local_masks[k]
        table = self.tables[k]
        row = table[local].tolist() if table is not None else self._row(k, local)
        off = self.offsets[k]
        self.held_p[off:off + len(row)] = map(self.p_of.__getitem__, row)
        self.dirty[k] = False

    def _row(self, k: int, local: int) -> list:
        """Machine k's voltages in local state ``local``, for a machine too
        large to tabulate: computed on a miss, and kept while its cache has
        room."""
        memo = self.memos[k]
        row = memo.get(local)
        if row is None:
            mach = self.machines[k]
            snapshot = (local >> np.arange(mach.n - 1, -1, -1)) & 1
            row = weight_inputs(mach.coupling, snapshot, self.modes[k], mach.quant)
            if len(memo) < MEMO_ENTRIES:
                memo[local] = row
        return row

    def _update(self, t: int, gid: int) -> None:
        wire = self.wires[gid]
        if wire is None:
            p = self.held_p[gid]
        else:
            p = self.wire_p[self._source_output(wire.source, t, wire.delay_us)]
        out = 1 if p > self.next_u[gid] else 0
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
        t, self.next_u[gid] = self.next_update[gid]()
        heapq.heappush(self.queue, (t, PRIO_UPDATE, self._seq, gid))
        self._seq += 1

    def trace(self, last_sample: int) -> SimulationTrace:
        """The samples up to ``last_sample`` (none if it is negative)."""
        return _trace(self.n, self.taus, last_sample, self.clock,
                      np.asarray(self.flip_times, dtype=np.int64),
                      np.asarray(self.flip_masks, dtype=np.int64),
                      list(self.update_events), self.update_counts, self.one_counts)


class _Schedule:
    """One unit's drawn but unprocessed updates, as arrays of times and
    comparison values ``u``: the only place a unit's stream becomes its
    updates. They are drawn up to ``chunk`` updates at a time; each update
    draws ``u`` and then, if the unit has jitter, the value that sets the
    time of its next update."""

    def __init__(self, rng: np.random.Generator, pbit, chunk: int):
        self.rng = rng
        self.retention = pbit.retention_us
        self.jitter = pbit.jitter_fraction
        self.chunk = chunk
        # no interval between two updates is shorter
        self.min_step = max(1, int(self.retention * (1.0 - self.jitter)))
        self.times = np.empty(0, dtype=np.int64)
        self.u = np.empty(0)
        # the time of the first update not drawn yet
        self.next_t = pbit.phase_us

    def refill(self, horizon) -> None:
        """Draw the next ``chunk`` updates, or fewer if fewer start before
        ``horizon``."""
        c = min(self.chunk, (horizon - self.next_t) // self.min_step + 1)
        r, f = self.retention, self.jitter
        if f > 0.0:
            draws = self.rng.random(2 * c)
            u = draws[0::2]
            # round(r * (1 + uniform(-f, f))), at least 1; -f + 2f*v is
            # exactly Generator.uniform(-f, f)
            dt = np.maximum(np.rint(r * (1.0 + (-f + 2.0 * f * draws[1::2]))), 1)
            dt = dt.astype(np.int64)
        else:
            u = self.rng.random(c)
            dt = np.full(c, r, dtype=np.int64)
        after = self.next_t + np.cumsum(dt)
        self.times = np.concatenate((self.times, [self.next_t], after[:-1]))
        self.u = np.concatenate((self.u, u))
        self.next_t = int(after[-1])

    def take(self, count: int):
        """Remove and return the first ``count`` updates' times and ``u``."""
        taken = self.times[:count], self.u[:count]
        self.times, self.u = self.times[count:], self.u[count:]
        return taken

    def updates(self):
        """Every update in turn as a ``(time, u)`` pair of Python numbers."""
        while True:
            self.refill(math.inf)
            times, u = self.take(self.chunk)
            yield from zip(times.tolist(), u.tolist())


def _units(network: NetworkSpec, seed: int, chunk: int):
    """Every unit's output at t = 0, as one mask, and its ``_Schedule`` of
    ``chunk`` updates per refill, both drawn from the unit's own PCG64
    generator, seeded by (scenario seed, unit id): a clamped unit sits on its
    rail without a draw, any other unit takes the first uniform of its stream."""
    n = network.n_total
    mask, schedules = 0, []
    for gid, pbit in enumerate(network.pbits):
        rng = np.random.default_rng(np.random.SeedSequence([seed, gid]))
        if pbit.mode == CLAMPED_HIGH or (pbit.mode != CLAMPED_LOW and rng.random() < 0.5):
            mask |= 1 << (n - 1 - gid)
        schedules.append(_Schedule(rng, pbit, chunk))
    return mask, schedules


class _Probabilities(dict):
    """Firing probabilities sigmoid(2v - 5) keyed by input voltage v, each
    computed when the run first meets its voltage; one map per run."""

    def __missing__(self, v):
        p = self[v] = sigmoid(2.0 * v - 5.0)
        return p


def _voltage_table(mach, modes) -> np.ndarray:
    """v[state, unit]: the voltage the machine's weight logic publishes for
    each unit in local state ``state`` (unit k is bit n-1-k), from one call
    over every state."""
    n = mach.n
    states = ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
    return weight_inputs(mach.coupling, states, modes, mach.quant)


def _composable(network: NetworkSpec, max_updates, record_updates) -> bool:
    """Whether ``run`` composes per-tick state maps: a run that neither
    counts nor records updates, since only the heap orders equal-time
    updates, on one machine (``NetworkSpec.validate`` allows no wire inside
    a machine) of at most ``COMPOSED_UNITS`` units."""
    return (max_updates is None and not record_updates
            and len(network.machines) == 1 and network.n_total <= COMPOSED_UNITS)


def _check_horizon(pbits, taus, max_samples, duration_us, max_updates) -> None:
    """Refuse a run whose virtual times could reach ``TIME_LIMIT_US``. Its
    events end by its first budget's bound (the duration, the samples'
    ticks, or an interval of up to twice the longest retention per update
    after the latest phase) or by that phase. Past them come one tick of
    the slowest lattice and a refill of updates drawn ahead."""
    longest = 2 * max(p.retention_us for p in pbits)
    phase = max(p.phase_us for p in pbits)
    ends = [duration_us, None if max_samples is None else max_samples * min(taus),
            None if max_updates is None else phase + max_updates * longest]
    end = max(min(e for e in ends if e is not None), phase)
    reach = end + max(taus) + max(BLOCK, CHUNK) * longest
    if reach >= TIME_LIMIT_US:
        raise ConfigurationError(
            f"the run's virtual times could reach {reach} us, past the limit of "
            f"2**62 = {TIME_LIMIT_US} us; shorten its budget, retention, phases "
            "or sampling period")


def _walk(maps, state) -> np.ndarray:
    """The state after each row of ``maps``, applied in turn from ``state``,
    by a two-level scan (Blelloch, "Prefix sums and their applications",
    1990): compose each block of about sqrt(rows) maps, walk the blocks'
    compositions from ``state``, then step through all blocks at once."""
    rows, size = maps.shape
    width = math.isqrt(rows)
    blocks = -(-rows // width)
    pad = np.tile(np.arange(size, dtype=maps.dtype), (blocks * width - rows, 1))
    maps = np.concatenate((maps, pad)).reshape(blocks, width, size)
    through = maps[:, 0]
    for j in range(1, width):
        through = np.take_along_axis(maps[:, j], through, axis=1)
    entry = []
    for row in through.tolist():
        entry.append(state)
        state = row[state]
    after = np.empty((blocks, width), dtype=np.int64)
    entry, index = np.array(entry), np.arange(blocks)
    for j in range(width):
        entry = after[:, j] = maps[index, j, entry]
    return after.reshape(-1)[:rows]


def _compose_window(p, tau, state, taken):
    """Apply one window's updates, ``taken[g]`` being unit g's (times, u),
    from ``state`` at the window's first tick. Returns the number of outputs
    1 per unit, the ticks after which the state changed, the states it
    changed to, and the state at the window's end."""
    n = len(taken)
    times = np.concatenate([t for t, _ in taken])
    u = np.concatenate([v for _, v in taken])
    counts = [len(t) for t, _ in taken]
    gids = np.repeat(np.arange(n), counts)
    ticks, at = np.unique(times // tau, return_inverse=True)
    # row i maps the state at tick ticks[i] to the state at the next tick
    identity = np.arange(len(p), dtype=np.uint8)
    maps = np.tile(identity, (len(ticks), 1))
    lo = 0
    for g, c in enumerate(counts):
        if c:
            rows = at[lo:lo + c]
            final = np.append(rows[1:] != rows[:-1], True)
            rows, bit = rows[final], 1 << (n - 1 - g)
            fires = p[:, g] > u[lo:lo + c][final, None]
            maps[rows] = np.where(fires, maps[rows] | bit, maps[rows] & (identity[-1] ^ bit))
        lo += c
    after = _walk(maps, state)
    before = np.concatenate(([state], after[:-1]))
    moved = after != before
    ones = np.bincount(gids[p[before[at], gids] > u], minlength=n)
    return ones, ticks[moved] * tau, after[moved], int(after[-1])


def _run_heap(network, seed, stop, last, max_updates, record_updates) -> SimulationTrace:
    """``run`` on the event heap of ``Simulator``, with the budgets already
    turned into ``stop`` and ``last``; it runs any network."""
    sim = Simulator(network, seed, record_updates=record_updates)
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


def _run_composed(network, seed, stop, last) -> SimulationTrace:
    """``run`` for a network and budget that ``_composable`` admits, with the
    budget already turned into ``stop`` and ``last``: each tick interval is
    a map on the 2^n states, and the run composes them forward, window by
    window, up to ``stop``."""
    mach = network.machines[0]
    n, tau = network.n_total, mach.tau_sample_us
    # p[state, unit]: every unit's held probability after a refresh in that state
    p_of = _Probabilities()
    p = np.array([list(map(p_of.__getitem__, row))
                  for row in _voltage_table(mach, [p.mode for p in network.pbits]).tolist()])
    chunk = min(CHUNK, WINDOW_ENTRIES // (n << n))
    state, schedules = _units(network, seed, chunk)

    flip_times, flip_masks = [np.array([-1])], [np.array([state])]
    update_counts = np.zeros(n, dtype=np.int64)
    one_counts = np.zeros(n, dtype=np.int64)
    clock = start = 0
    # no update at or after ``stop`` runs
    while start < stop:
        # a window ends on the last tick before some unit's next undrawn update
        for s in schedules:
            while s.next_t < stop and (s.next_t < start + tau or len(s.times) < chunk):
                s.refill(stop)
        end = min([s.next_t // tau * tau for s in schedules if s.next_t < stop], default=stop)
        counts = [int(np.searchsorted(s.times, end)) for s in schedules]
        taken = [s.take(c) for s, c in zip(schedules, counts)]
        start = end
        if not sum(counts):
            continue
        ones, moved_at, moved_to, state = _compose_window(p, tau, state, taken)
        update_counts += counts
        one_counts += ones
        flip_times.append(moved_at)
        flip_masks.append(moved_to)
        clock = max(int(t[-1]) for t, _ in taken if len(t))
    return _trace(n, [tau], last, clock, np.concatenate(flip_times),
                  np.concatenate(flip_masks), [], update_counts, one_counts)


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
    budget yields an empty trace. A run ``_composable`` admits composes state
    maps; any other, such as one with an update budget or recorded updates,
    steps the event heap. Both give the same trace. A run whose virtual
    times could reach ``TIME_LIMIT_US`` is refused.
    """
    if max_samples is None and duration_us is None and max_updates is None:
        raise ConfigurationError("a sample, update, or duration budget is required")
    network.validate()
    taus = [mach.tau_sample_us for mach in network.machines]
    _check_horizon(network.pbits, taus, max_samples, duration_us, max_updates)
    # events run strictly before ``stop``; samples end at ``last``
    stop = last = None
    if duration_us is not None:
        stop, last = duration_us, duration_us - 1
    if max_samples is not None:
        s_star = sample_time(taus, max_samples - 1) if max_samples > 0 else -1
        if stop is None or s_star < stop:
            stop, last = s_star, s_star
    if _composable(network, max_updates, record_updates):
        return _run_composed(network, seed, stop, last)
    return _run_heap(network, seed, stop, last, max_updates, record_updates)


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
