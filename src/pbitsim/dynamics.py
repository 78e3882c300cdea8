"""Virtual-time discrete-event engine for p-bit networks.

Two event kinds drive everything: per-unit stochastic updates (each unit
re-samples its output every retention time, plus jitter) and per-machine
weight-logic refreshes (a machine re-publishes its units' input voltages on
the ticks of its sampling-period lattice). Ties order refreshes before
updates so a unit updating at the same instant sees fresh inputs. A unit
updates on whatever voltage its machine's weight logic last published for
it, the rail voltage for a clamped unit included; only a wired unit
bypasses the weight logic and reads its source's output.

The weight logic is a pure function of the machine's own outputs. Each
run builds one ``_Machines`` from its network, which all four engines
read. Its one row rule, ``_Machines.row``, gives a machine's firing
probabilities ``sigmoid(2v - 5)`` in a local state: on a miss, from one
``weight_inputs`` call over that state, which sums each drive in the same
ascending unit order as a batch, so a row has the bits a batched call
would give. Every machine keeps up to ``MEMO_ENTRIES`` (2^14) rows, every
local state of a machine of up to ``TABLE_UNITS`` units (the full adder,
the largest shipped machine, has 14), so a refresh in a state met before
does no weight-logic work, and each probability is computed once per
distinct voltage the run meets. A wired unit reads one of two
probabilities fixed by its source's output.

A refresh whose machine saw no flip since its last one would publish the
same voltages again, so only dirty machines queue one: every machine
refreshes at t = 0, and a flip in a clean machine queues its refresh at the
next tick of that machine's lattice. The trace samples are the instants of
the union of all machines' lattices, and no engine makes an event per
sample: an engine logs the changes of its state, and ``_trace`` alone turns
that log into the samples' run-length encoding, the same on every engine.
``sample_count`` counts from the periods alone how many samples each entry
holds, by inclusion-exclusion over the lcm of each set of periods, so a
statistic of the samples costs one step per run; the per-sample arrays are
built only when asked for. The heap's log is its only record of the past: a
wire with a delay reads its source's bit from the mask of the newest flip at
or before ``t - delay``, found by binary search, and no per-wire history is
kept.

Virtual time is integer microseconds. Each unit owns an independent seeded
PCG64 stream derived from (scenario seed, unit id), so traces replay
bit-identically regardless of host or run count. A free unit's output at
t = 0 is its stream's first value; ``_Schedule`` turns the rest into the
unit's updates for every engine: the first falls at the unit's phase, and
each draws its ``u`` and then, with jitter f, the interval to the next,
``round(r·(1 + uniform(-f, f)))`` and at least 1. The heap and the merged
walk draw ``BLOCK`` updates ahead and the other engines more; none of them
changes a bit.

Three engines run a network, and ``_composable`` picks one from its
machine count alone, under any budget:

- ``"composed"`` for one machine of at most ``COMPOSED_UNITS`` (8) units
  (one machine holds no wire), which composes per-tick state maps;
- ``"merged"`` for any larger machine alone, which walks its updates in
  time order;
- ``"flips"`` for several machines, which steps only the flips that other
  units read.

The event heap of ``Simulator`` runs any network one event at a time. It
is the reference the tests compare every engine with, and ``run`` takes it
only where ``_composable`` is made to return ``"heap"``. All four give the
same trace and end time.

In one machine without wires the published voltages change only at lattice
ticks: a refresh runs before the updates at its tick, and a clean refresh
would publish the same values. So every update in [t_k, t_k+1) compares its
``u`` against p(S_k), the held probability in the state at tick t_k, and
the interval is a map on the 2^n states in which each unit that updated
takes the output of its last update. The composed engine reads p[state,
unit] from the machine's rows, takes each unit's update times and
``u`` values from its schedule, and applies the interval maps forward over
windows of whole ticks, in the manner of Propp and Wilson's coupled maps
(Random Struct. Alg. 9, 223, 1996) run forward on the same streams. A
unit's last update fires in state x when p[x, g] > u: in the states of the
highest p[:, g], as many as its code, the number of states in which it
fires. So an interval's map is fixed by one level per unit, 0 for no
update and 1 + that code. Per window the engine merges the units' sorted
ticks into rows, numbers the rows by their levels, builds one map per
distinct row of levels (``_tick_maps``; on the AND gate far fewer than the
rows), walks the rows through them in one pass, one lookup per tick, and
counts each unit's ones against the probabilities of each row's state.
A machine of more than ``COMPOSED_UNITS`` units has too many states for
maps, so the merged walk (``_run_merged``) reads the same held rows one
update at a time: it merges each window's updates by time, and a flip of a
bit that some voltage can depend on (``_couplings``, below) refreshes the
row, in the state masked to those bits, at the first update at or after the
next tick. The updates of one instant read one row, so it needs no tie rule.

In any network, unit g's held probability at time t is its machine's
p[state just before tick floor(t/tau)*tau, g], and a wired unit's is fixed
by its source's bit at t - delay. Between two changes of a unit's input its
outputs are the fixed comparisons ``p > u`` over its schedule, so the
flip-driven engine, in the manner of rejection-free Monte Carlo (Bortz,
Kalos and Lebowitz, J. Comput. Phys. 17, 10, 1975) but bit for bit, takes
the schedules in windows of at most ``CHUNK`` updates per unit and makes
events only of the flips that change some other unit's probability: a flip
of a bit that some voltage of its machine can depend on (read off J once
per run, ``_couplings``), which queues a refresh at the machine's next
tick, and a flip of a wire's source. A refresh reads its machine's row in
the local state masked to those bits, which has the same voltages, and
changes only the probabilities that differ. A unit finds its next such flip
with a numpy scan, or all of a window's flips at once if its own
probability never changes; every other update only adds to its unit's
counts, once per window. Only zero-delay wires need the heap's order of
equal-time updates (``_tied_ranks``: by each one's previous update time,
recursively, then by unit id); the engine ranks an instant's updates only
among the ends of such wires, and only where several of them tie. One
walk, ``_tie_ranks``, carries that rule across windows for this engine,
the budget cut and ``update_order`` alike.

The window engines and ``update_order`` take their updates by one rule,
``_windows``: a window holds every unit's updates before its end, each
window spans a fixed time, and the span bounds a unit's updates in a
window. The same walk applies an update budget, which the heap counts as
it runs. Update times come from the schedules alone, so the walk counts
the updates it yields; in the window where the count reaches the budget
it finds the instant t_cut of the budget's last update in the heap's
order, keeps each unit's updates up to and including that one, and ends
at t_cut + 1. Only a budget that ends inside an instant of several
updates needs the heap's tie rule there: a second walk over fresh copies
of those units' schedules ranks them (``_tie_ranks``). Where a sample or
duration budget ends the run first, the count never reaches the update
budget; a run that spent it ends its samples at t_cut (``_trace``).

No engine logs its updates. A unit's update times come from its schedule
alone, and its outputs never feed back into them, so ``update_order``
rebuilds the heap's order of a run's updates from the per-unit counts of
its trace. Whatever budget ended the run, its updates are the first ones
in the heap's order, so the walk takes as many as the counts add up to,
by the budget rule, and sorts each window's by time and, within an
instant, by their ranks among every unit, distinct there (``_tie_ranks``).

Every virtual time of a run, the updates drawn ahead included, stays below
``TIME_LIMIT_US`` (2^62 µs), so int64 arrays hold it; ``run`` refuses a
budget or timing that could pass it.
"""

from __future__ import annotations

import functools
import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import CLAMPED_HIGH, CLAMPED_LOW, FREE, V_RAIL, Wired, sigmoid, weight_inputs
from .errors import ConfigurationError
from .networks import NetworkSpec
from .oracle import bit_rows

PRIO_REFRESH = 0
PRIO_UPDATE = 1
# updates drawn ahead per refill of a unit's schedule in the event heap and
# the merged walk
BLOCK = 256
# a machine's memo holds every local state's row up to this many units:
# the full adder, the largest shipped machine
TABLE_UNITS = 14
# rows of firing probabilities cached per machine; a row only refers to the
# run's shared floats
MEMO_ENTRIES = 1 << TABLE_UNITS
# the largest machine the composed engine runs
COMPOSED_UNITS = 8
# updates drawn ahead per refill of a unit's schedule in the composed and
# flip-driven engines; a flip-driven window holds at most about this many
# updates per unit
CHUNK = 4096
# bound on the state-map entries of one window of the composed engine
WINDOW_ENTRIES = 1 << 20
# every virtual time of a run stays below this, half of int64's range
TIME_LIMIT_US = 1 << 62
# the most updates a run may draw: far above every shipped scenario, of
# which ``rca4_inverted`` draws the most, about 7.5M
UPDATE_LIMIT = 1 << 30


def _distinct(values) -> np.ndarray:
    """The sorted distinct entries of ``values``. A plain ``np.unique`` call
    imports ``numpy.ma`` to ask whether its input is masked, which no run
    needs; a sort and an adjacent-difference mask do not."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def sample_times(taus, last: int) -> np.ndarray:
    """The union of the refresh lattices of periods ``taus`` over [0, last]."""
    lattices = [np.arange(0, last + 1, tau, dtype=np.int64) for tau in set(taus)]
    return lattices[0] if len(lattices) == 1 else _distinct(np.concatenate(lattices))


def _lattice_terms(taus) -> list:
    """``(period, coefficient)`` pairs whose sum of ``coefficient * (x //
    period + 1)`` counts the union of the lattices of periods ``taus`` in
    [0, x]: inclusion-exclusion over the lcm of each subset of the distinct
    periods, the subsets with one lcm merged. An lcm of ``TIME_LIMIT_US`` or
    more holds no instant past 0 before that limit, so it is clipped there."""
    terms = {}
    for tau in sorted(set(taus)):
        for period, c in list(terms.items()):
            lcm = min(math.lcm(period, tau), TIME_LIMIT_US)
            terms[lcm] = terms.get(lcm, 0) - c
        terms[tau] = terms.get(tau, 0) + 1
    return [(period, c) for period, c in terms.items() if c]


def sample_count(taus, x):
    """The number of samples, the instants of the union of the lattices of
    periods ``taus``, in [0, x], for each x (at least -1) of an array or one
    integer."""
    x = np.asarray(x, dtype=np.int64)
    count = np.zeros(x.shape, dtype=np.int64)
    for period, c in _lattice_terms(taus):
        count += c * (x // period + 1)
    return count


def sample_time(taus, index: int) -> int:
    """The time of sample ``index`` (from 0): the first instant with ``index
    + 1`` samples up to it, found by binary search within ``index *
    min(taus)``, since the fastest lattice alone has enough points there.
    The search counts samples in Python ints, by ``sample_count``'s rule
    (``_lattice_terms``), which costs far less than numpy on one scalar."""
    terms = _lattice_terms(taus)
    lo, hi = 0, index * min(taus)
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(c * (mid // period + 1) for period, c in terms) > index:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass
class SimulationTrace:
    """A run's samples of the full output vector at the machines' refresh
    instants, held as their run-length encoding.

    The samples are the instants of the union of the machines' refresh
    lattices (periods ``taus``) in [0, ``last``]; machines refreshing at the
    same instant give one sample. A sample's state is the mask after every
    update strictly before its time, since refreshes run before updates at
    the same instant. ``masks[i]`` is the state of ``runs[i]`` consecutive
    samples; every run is at least 1 and no two neighbouring masks are
    equal, so every engine gives the same encoding. States are big-endian
    bitmasks (unit k is bit n-1-k); the per-sample arrays ``times`` and
    ``states`` are built only when asked for.
    """

    n: int
    taus: list
    last: int
    masks: np.ndarray
    runs: np.ndarray
    update_counts: np.ndarray
    one_counts: np.ndarray
    final_time_us: int

    def __len__(self):
        return int(self.runs.sum())

    @functools.cached_property
    def times(self) -> np.ndarray:
        """Every sample's time, in increasing order."""
        return sample_times(self.taus, self.last)

    @functools.cached_property
    def states(self) -> np.ndarray:
        """Every sample's state."""
        return np.repeat(self.masks, self.runs)

    def to_csv(self, path) -> None:
        """Write one row per sample, its time and every unit's level, in the
        bytes ``csv.writer`` would give, each row formatted inside C-level
        ``map`` loops."""
        levels = map(",".join, map(f"{{:0{self.n}b}}".format, self.states.tolist()))
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["time_us"] + [f"pbit_{k}" for k in range(self.n)]) + "\r\n")
            fh.writelines(map("{},{}\r\n".format, self.times.tolist(), levels))


def _trace(n, taus, last, clock, flip_times, flip_masks, update_counts,
           one_counts, max_updates=None) -> SimulationTrace:
    """The trace of the samples up to ``last`` (none if it is negative), or,
    if the run spent its update budget ``max_updates``, up to its last
    update, its last event (``clock``), from an engine's log: entry i holds
    ``flip_masks[i]`` over the samples in (flip_times[i], flip_times[i + 1]],
    from the initial mask at -1 and clipped at the last sample. The entries
    that hold none are dropped and equal neighbours merged, which leaves the
    samples' run-length encoding. The run ends at its last event or its last
    sample, whichever is later."""
    if max_updates is not None and int(update_counts.sum()) == max_updates:
        last = clock if max_updates else -1
    runs = np.append(flip_times, last)
    runs = np.diff(sample_count(taus, np.minimum(runs, last, out=runs)))
    kept = runs > 0
    masks, runs = flip_masks[kept], runs[kept]
    # a run starts at each mask unlike the one before it; no mask is -1
    starts = np.flatnonzero(np.diff(masks, prepend=-1))
    masks = masks[starts]
    runs = np.add.reduceat(runs, starts)
    end = sample_time(taus, int(runs.sum()) - 1) if len(runs) else clock
    return SimulationTrace(n=n, taus=list(taus), last=last, masks=masks, runs=runs,
                           update_counts=update_counts, one_counts=one_counts,
                           final_time_us=max(clock, end))


class _Machines:
    """What every engine reads of a network's machines, built once per run.

    Machine k's units are ``offsets[k]``, ``offsets[k] + 1``, ...; its local
    state is ``mask >> shifts[k]`` masked to its units. ``modes[k]`` are
    its unit modes as its weight logic is asked for them, a wired unit's as
    clamped low: its input is its wire, so its entry is a rail no update
    reads. ``memos[k]`` holds machine k's rows of firing probabilities by
    local state. ``mask`` is every unit's output at t = 0, and each
    schedule draws ``chunk`` updates a refill."""

    def __init__(self, network: NetworkSpec, seed: int, chunk: int):
        n = self.n = network.n_total
        self.machines = network.machines
        self.machine_of = network.machine_of()
        self.offsets = network.offsets()
        self.shifts = [n - off - mach.n for off, mach in zip(self.offsets, self.machines)]
        self.taus = [mach.tau_sample_us for mach in self.machines]
        self.wires = [p.mode if isinstance(p.mode, Wired) else None for p in network.pbits]
        modes = [CLAMPED_LOW if w else p.mode for p, w in zip(network.pbits, self.wires)]
        self.modes = [modes[off:off + mach.n] for off, mach in zip(self.offsets, self.machines)]
        # each machine's probability rows, keyed by local state
        self.memos = [{} for _ in self.machines]
        self.p_of = _Probabilities()
        self.wire_p = (self.p_of[0.0], self.p_of[V_RAIL])
        self.mask, self.schedules = _units(network, seed, chunk)

    def row(self, k: int, local: int) -> list:
        """Machine k's firing probabilities in local state ``local``: on a
        miss from one weight-logic call over that state, and kept while its
        cache has room."""
        memo = self.memos[k]
        row = memo.get(local)
        if row is None:
            mach = self.machines[k]
            volts = weight_inputs(mach.coupling, bit_rows(local, local + 1, mach.n)[0],
                                  self.modes[k], mach.quant)
            row = list(map(self.p_of.__getitem__, volts))
            if len(memo) < MEMO_ENTRIES:
                memo[local] = row
        return row


class Simulator(_Machines):
    """Event-queue state for one run. Strictly single-threaded. It runs any
    network, one event at a time, and is the reference the tests compare
    every engine with; ``run`` steps it only where ``_composable`` is made
    to return ``"heap"``."""

    def __init__(self, network: NetworkSpec, seed: int):
        network.validate()
        super().__init__(network, seed, BLOCK)
        n = self.n
        self.local_masks = [(1 << mach.n) - 1 for mach in self.machines]
        self.outputs = [(self.mask >> (n - 1 - gid)) & 1 for gid in range(n)]
        # every machine refreshes at t = 0, before any update reads these
        self.held_p = [None] * n

        self.clock = 0
        m = len(self.machines)
        self.queue = [(0, PRIO_REFRESH, k, k) for k in range(m)]
        # each unit's next update: its time waits in the queue, its u here
        self.next_update = [s.updates().__next__ for s in self.schedules]
        self.next_u = [None] * n
        for gid, next_update in enumerate(self.next_update):
            t, self.next_u[gid] = next_update()
            self.queue.append((t, PRIO_UPDATE, m + gid, gid))
        heapq.heapify(self.queue)
        self._seq = m + n

        # a machine is dirty exactly while its refresh is queued
        self.dirty = [True] * m
        self.flip_times = [-1]
        self.flip_masks = [self.mask]
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
        off = self.offsets[k]
        row = self.row(k, (self.mask >> self.shifts[k]) & self.local_masks[k])
        self.held_p[off:off + len(row)] = row
        self.dirty[k] = False

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

    def trace(self, last_sample: int, max_updates=None) -> SimulationTrace:
        """The samples up to ``last_sample`` (none if it is negative), or as
        ``_trace`` ends them under an update budget ``max_updates``."""
        return _trace(self.n, self.taus, last_sample, self.clock,
                      np.asarray(self.flip_times, dtype=np.int64),
                      np.asarray(self.flip_masks, dtype=np.int64),
                      self.update_counts, self.one_counts, max_updates)


class _Schedule:
    """One unit's drawn but unprocessed updates, as arrays of times and
    comparison values ``u``: the only place a unit's stream becomes its
    updates. They are drawn up to ``chunk`` updates at a time; each update
    draws ``u`` and then, if the unit has jitter, the value that sets the
    time of its next update."""

    def __init__(self, rng: np.random.Generator, pbit, chunk: int):
        self.rng = rng
        # the stream's state before its first update, for ``restart``
        self.origin = rng.bit_generator.state
        self.pbit = pbit
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

    def restart(self) -> "_Schedule":
        """A fresh copy of this schedule, from its first update."""
        rng = np.random.Generator(np.random.PCG64())  # its state is replaced
        rng.bit_generator.state = self.origin
        return _Schedule(rng, self.pbit, self.chunk)

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


def _composable(network: NetworkSpec) -> str:
    """The engine ``run`` gives a network, under any budget, from its
    machine count alone: for one machine (``NetworkSpec.validate`` allows no
    wire inside a machine), ``"composed"`` up to ``COMPOSED_UNITS`` units
    and ``"merged"`` past them; ``"flips"`` for several machines."""
    if len(network.machines) > 1:
        return "flips"
    return "composed" if network.n_total <= COMPOSED_UNITS else "merged"


def _check_horizon(pbits, taus, max_samples, duration_us, max_updates) -> None:
    """Refuse a run whose virtual times could reach ``TIME_LIMIT_US``, or
    that would draw more than ``UPDATE_LIMIT`` updates. Its events end by
    its first budget's bound (the duration, the samples' ticks, or an
    interval of up to twice the longest retention per update after the
    latest phase) or by that phase. Past them come one tick of the slowest
    lattice and a refill of updates drawn ahead. Up to that end, each unit
    updates at its phase and then once per retention time, its mean
    interval, whatever its jitter; an update budget caps the sum."""
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
    updates = sum((end - p.phase_us) // p.retention_us + 1 for p in pbits)
    if max_updates is not None:
        updates = min(updates, max_updates)
    if updates > UPDATE_LIMIT:
        raise ConfigurationError(
            f"the run could draw {updates} updates, past the limit of 2**30 = "
            f"{UPDATE_LIMIT}; shorten its budget or lengthen its retention times")


def _windows(schedules, chunk, stop, max_updates=None, tick=1):
    """Every unit's updates before ``stop``, or the first ``max_updates`` in
    the heap's order, window by window: for each window, its end and the
    updates before it, unit g's times ``times[g]`` and comparison values
    ``u[g]``, taken from its schedule and refilled as needed. Each window
    spans the same whole number of ticks of ``tick``: as many as fit in
    ``chunk`` shortest intervals, or in the budget's share of each unit's
    updates if that is fewer, and at least one.

    The walk counts the updates it yields. In the window where the count
    reaches the budget, the budget's last update falls at t_cut, found by
    ``np.partition``: the window keeps each unit's updates before t_cut
    and, of those at t_cut, as many as the budget has left in the heap's
    order, ends at t_cut + 1, and is the last. Only where the budget ends
    inside an instant of several updates does that order need the tie rule:
    a second walk ranks the tied units' updates (``_tie_ranks``) over fresh
    copies of their schedules up to t_cut."""
    left, share = math.inf, chunk
    if max_updates is not None:
        left, share = max_updates, min(chunk, -(-max_updates // len(schedules)))
    span = max(tick, share * min(s.min_step for s in schedules) // tick * tick)
    for start in range(0, stop, span):
        if not left:
            return
        end = min(start + span, stop)
        for s in schedules:
            while s.next_t < end:
                s.refill(end)
        counts = [int(s.times.searchsorted(end)) for s in schedules]
        if sum(counts) >= left:
            times = [s.times[:k] for s, k in zip(schedules, counts)]
            t_cut = int(np.partition(np.concatenate(times), left - 1)[left - 1])
            counts = [int(ts.searchsorted(t_cut)) for ts in times]
            at_cut = [g for g, (ts, i) in enumerate(zip(times, counts))
                      if i < len(ts) and ts[i] == t_cut]
            tied = left - sum(counts)
            if tied < len(at_cut):
                restarted = [schedules[g].restart() for g in at_cut]
                for *_, rank in _tie_ranks(_windows(restarted, CHUNK, t_cut + 1),
                                           range(len(at_cut))):
                    pass  # the last window ends with the tied updates at t_cut
                at_cut = [at_cut[j] for j in np.argsort([r[-1] for r in rank]).tolist()]
            for g in at_cut[:tied]:
                counts[g] += 1
            end = t_cut + 1
        left -= sum(counts)
        times, u = zip(*[s.take(k) for s, k in zip(schedules, counts)])
        yield end, times, u


def _ranks(p):
    """For each unit g, each state's rank in p[:, g] from the top, the
    number of states whose probability of g is at least its own, and
    p[:, g] in ascending order, read off those ranks."""
    ranks = [len(p) - (p[:, g, None] > p[None, :, g]).sum(1) for g in range(p.shape[1])]
    return ranks, [p[np.argsort(-rank), g] for g, rank in enumerate(ranks)]


def _tick_maps(ranks, levels) -> np.ndarray:
    """One state map per entry of each unit's ``levels``: ``maps[i, x]`` is
    the state at the next tick from state x at a tick where unit g's level
    is ``levels[g][i]``, 0 if it did not update and otherwise 1 + the code of
    its last update, the number of states in which that update fires.
    Those are the states whose ``ranks[g]`` (``_ranks``) are at most the
    code."""
    n, size = len(ranks), len(ranks[0])
    identity = np.arange(size, dtype=np.uint8)
    maps = np.tile(identity, (len(levels[0]), 1))
    for g, (rank, level) in enumerate(zip(ranks, levels)):
        rows, bit = np.flatnonzero(level), 1 << (n - 1 - g)
        fires = level[rows, None] > rank
        maps[rows] = np.where(fires, maps[rows] | bit, maps[rows] & (identity[-1] ^ bit))
    return maps


def _compose_window(p, ranks, ordered, tau, state, times, u):
    """Apply one window's updates, ``times[g]`` and ``u[g]`` being unit g's,
    from ``state`` at the window's first tick. Returns the number of outputs
    1 per unit, the ticks after which the state changed, the states it
    changed to, and the state at the window's end.

    The window's rows are its ticks that hold an update. Only a unit's last
    update in a tick sets its bit at the next tick, to ``p[x, g] > u`` in
    state x. The states where that holds are those of the highest p[:, g],
    as many as the update's code counts, so the update enters the map only
    through its code, found in ``ordered[g]`` (``_ranks``). A row is named
    by one level per unit (``_tick_maps``), and the rows of one set of
    levels share one map, built once."""
    n, size = len(times), len(p)
    # each unit's ticks that hold an update, and its last update in each
    ticks_of, lasts = [], []
    for t in times:
        k = t // tau
        last = np.flatnonzero(np.append(k[1:] != k[:-1], len(k) > 0))
        ticks_of.append(k[last])
        lasts.append(last)
    # merge the units' ticks into the rows, and find each tick's row
    ticks, row_of = np.unique(np.concatenate(ticks_of), return_inverse=True)
    rows_of = np.split(row_of, np.cumsum(list(map(len, ticks_of)))[:-1])
    # each row's level of each unit: 0, or 1 + the code of its last update
    levels = []
    for rows, last, us, probs in zip(rows_of, lasts, u, ordered):
        level = np.zeros(len(ticks), dtype=np.int64)
        level[rows] = 1 + size - probs.searchsorted(us[last], "right")
        levels.append(level)
    # number the rows densely by their levels: fold in the levels of as
    # many units as 31 bits hold, renumber, and go on, so that every number
    # stays below rows * 2^31
    radix = size + 2
    fold, inverse = 31 // radix.bit_length(), np.zeros(len(ticks), dtype=np.int64)
    for start in range(0, n, fold):
        for level in levels[start:start + fold]:
            inverse = inverse * radix + level
        distinct, inverse = np.unique(inverse, return_inverse=True)
    # one map for each distinct row of levels, built from one of its rows
    first = np.empty(len(distinct), dtype=np.int64)
    first[inverse] = np.arange(len(ticks))
    maps = _tick_maps(ranks, [level[first] for level in levels])
    # the state at each row and at the window's end, one lookup a row
    flat, path = maps.tobytes(), bytearray([state])
    for base in memoryview(inverse * size):
        state = flat[base + state]
        path.append(state)
    states = np.frombuffer(path, dtype=np.uint8).astype(np.int64)
    before, after = states[:-1], states[1:]
    # every update in a row reads the probability of the row's state
    ones = [np.count_nonzero(np.repeat(p[before[rows], g], np.diff(last, prepend=-1)) > us)
            for g, (rows, last, us) in enumerate(zip(rows_of, lasts, u))]
    moved = after != before
    return np.array(ones, dtype=np.int64), ticks[moved] * tau, after[moved], state


def _run_heap(network, seed, stop, last, max_updates) -> SimulationTrace:
    """``run`` on the event heap of ``Simulator``, with the sample and
    duration budgets already turned into ``stop`` and ``last``, counting
    the updates of ``max_updates`` as it runs; it runs any network."""
    sim = Simulator(network, seed)
    queue = sim.queue
    # every update requeues its unit, so the queue never empties
    while (max_updates is None or sim.n_updates < max_updates) and queue[0][0] < stop:
        sim.step()
    return sim.trace(last, max_updates)


def _run_composed(network, seed, stop, last, max_updates) -> SimulationTrace:
    """``run`` for a network that ``_composable`` gives the composed engine,
    with the sample and duration budgets already turned into ``stop`` and
    ``last``, and the update budget ``max_updates``: each tick interval is a
    map on the 2^n states, and the run composes them forward, window by
    window. A window spans whole ticks and holds at most ``chunk`` updates
    per unit, so its tick rows, and the maps ``_compose_window`` builds for
    their distinct levels, fit ``WINDOW_ENTRIES`` entries."""
    n = network.n_total
    chunk = min(CHUNK, WINDOW_ENTRIES // (n << n))
    machines = _Machines(network, seed, chunk)
    tau, state, schedules = machines.taus[0], machines.mask, machines.schedules
    # p[state, unit]: every unit's held probability after a refresh in that
    # state, from one weight-logic call over all 2^n states
    mach = machines.machines[0]
    volts = weight_inputs(mach.coupling, bit_rows(0, 1 << n, n), machines.modes[0], mach.quant)
    p = np.array([list(map(machines.p_of.__getitem__, v)) for v in volts.tolist()])
    ranks, ordered = _ranks(p)

    flip_times, flip_masks = [np.array([-1])], [np.array([state])]
    update_counts = np.zeros(n, dtype=np.int64)
    one_counts = np.zeros(n, dtype=np.int64)
    clock = 0
    for _, times, u in _windows(schedules, chunk, stop, max_updates, tau):
        counts = [len(t) for t in times]
        if not sum(counts):
            continue
        ones, moved_at, moved_to, state = _compose_window(p, ranks, ordered, tau, state,
                                                          times, u)
        update_counts += counts
        one_counts += ones
        flip_times.append(moved_at)
        flip_masks.append(moved_to)
        clock = max(int(t[-1]) for t in times if len(t))
    flip_times, flip_masks = np.concatenate(flip_times), np.concatenate(flip_masks)
    return _trace(n, [tau], last, clock, flip_times, flip_masks, update_counts,
                  one_counts, max_updates)


def _run_merged(network, seed, stop, last, max_updates) -> SimulationTrace:
    """``run`` for one machine of more than ``COMPOSED_UNITS`` units, with
    the sample and duration budgets already turned into ``stop`` and
    ``last``, and the update budget ``max_updates``: each window's updates,
    merged by time, run one by one against the held row. A flip of a bit
    that some voltage can depend on (``_couplings``) queues a refresh at the
    next tick, and the first update at or after it reads the row of the
    present mask, which no update since that tick has changed, masked to
    those bits, which gives the same voltages."""
    machines = _Machines(network, seed, BLOCK)
    n, tau, mask = machines.n, machines.taus[0], machines.mask
    _, dep = _couplings(machines.machines[0], machines.modes[0])
    bits = [1 << (n - 1 - g) for g in range(n)]
    out = [mask & bit != 0 for bit in bits]
    p, refresh = machines.row(0, mask & dep), math.inf
    flip_times, flip_masks = [-1], [mask]
    update_counts = np.zeros(n, dtype=np.int64)
    one_counts = np.zeros(n, dtype=np.int64)
    clock = 0
    for _, times, u in _windows(machines.schedules, BLOCK, stop, max_updates):
        counts = list(map(len, times))
        at = np.concatenate(times)
        if not len(at):
            continue
        order = np.argsort(at, kind="stable")
        units = np.repeat(np.arange(n), counts)[order].tolist()
        fires = []
        for t, g, v in zip(at[order].tolist(), units, np.concatenate(u)[order].tolist()):
            if t >= refresh:
                p, refresh = machines.row(0, mask & dep), math.inf
            b = p[g] > v
            fires.append(b)
            if b != out[g]:
                out[g] = b
                mask ^= bits[g]
                flip_times.append(t)
                flip_masks.append(mask)
                if refresh == math.inf and bits[g] & dep:
                    refresh = (t // tau + 1) * tau
        update_counts += counts
        one_counts += np.bincount(units, fires, n).astype(np.int64)
        clock = t  # the window's last update
    return _trace(n, [tau], last, clock, np.array(flip_times, dtype=np.int64),
                  np.array(flip_masks, dtype=np.int64), update_counts, one_counts,
                  max_updates)


def _couplings(mach, modes):
    """Which units of machine ``mach``, with unit modes ``modes``, have a
    voltage that can change: those free at i0 != 0 with a nonzero row of J;
    and the local mask of the bits they can depend on, their rows' nonzero
    columns. Saturation or DAC rounding can hide a dependence; the flips
    found stay the same."""
    j = mach.coupling.j
    live = (np.array(modes) == FREE) & (mach.coupling.i0 != 0) & np.any(j != 0, axis=1)
    dep = np.flatnonzero(np.any(j[live] != 0, axis=0)).tolist()
    return live.tolist(), sum(1 << (mach.n - 1 - c) for c in dep)


def _tied_ranks(times, units, last_t, last_rank):
    """The heap's tie rule: rank unit g's update ``times[g][i]`` among the
    updates of ``units`` at every instant where several of them fall. They
    run in the order of each one's previous update, the earlier first, and
    among updates whose previous ones fell in one instant, by their ranks
    there; unit g's update before ``times[g][0]`` fell at
    ``last_t[g]``, before every time in ``times``, with rank
    ``last_rank[g]``, which are -1 and g before its first update. How two
    units' updates are ordered depends on those two units alone, so ranks
    among any set of units order its members as the heap does. Returns the
    positions of the tied updates in the concatenation of the times of
    ``units``, and their ranks; an update at an instant without a tie has
    none.

    So two tied updates run in the order of their units' sequences of
    earlier update times, compared backwards from the tie. A tied update's
    sequence runs back through tied updates to an anchor, which is unique: a
    previous update at an instant without a tie, or, before the first
    update in ``times``, the unit's update before them, valued below every
    time. Pointer jumping ranks all of these sequences at once, doubling
    the length compared in each round (the prefix doubling of suffix
    sorting), until every sequence has met its anchor."""
    units = list(units)
    counts = [len(times[g]) for g in units]
    flat = np.concatenate([times[g] for g in units] + [[]]).astype(np.int64)
    ordered = np.sort(flat)
    same = ordered[1:] == ordered[:-1]
    if not same.any():
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    tied = _distinct(ordered[1:][same])
    at = np.minimum(tied.searchsorted(flat), len(tied) - 1)
    hit = np.flatnonzero(tied[at] == flat)
    place = np.repeat(np.arange(len(units)), counts)[hit]
    index = hit - np.cumsum([0] + counts[:-1])[place]
    k = len(hit)
    # a tied update whose unit's previous update is tied too follows it
    chained = np.append(False, (hit[1:] == hit[:-1] + 1) & (place[1:] == place[:-1]))
    heads = np.flatnonzero(~chained)
    # the anchors: the time of an untied previous update, or below every
    # time, in the order of the units' (last_t, last_rank)
    before = np.lexsort(([last_rank[g] for g in units], [last_t[g] for g in units]))
    below = np.empty(len(units), dtype=np.int64)
    below[before] = np.arange(len(units)) - len(units) - 1
    anchors = np.where(index[heads] > 0, flat[hit[heads] - 1], below[place[heads]])
    value = np.concatenate((flat[hit], anchors))
    # each sequence's element before, in ``value``; an anchor points to itself
    prev = np.concatenate((np.where(chained, np.arange(k) - 1, k + np.cumsum(~chained) - 1),
                           np.arange(k, k + len(heads))))
    rank = np.unique(value, return_inverse=True)[1]
    while rank.max() + 1 < len(value):
        rank = np.unique(rank * len(value) + rank[prev], return_inverse=True)[1]
        prev = prev[prev]
    rank = rank[:k]
    order = np.lexsort((rank, flat[hit]))
    at_time = flat[hit][order]
    within = np.empty(k, dtype=np.int64)
    within[order] = np.arange(k) - at_time.searchsorted(at_time)
    return hit, within


def _tie_ranks(windows, units):
    """The windows of a ``_windows`` walk, each as ``(end, times, u,
    rank)``: ``rank[g]`` holds the ``_tied_ranks`` rank among ``units`` of
    each of unit g's updates ``times[g]``, 0 at an instant without a tie
    and for every unit outside ``units``. Each ranked unit's last update
    time and rank carry over from one window to the next; g is a unit's
    index in the walk's schedules."""
    units = list(units)
    last_t, last_rank = dict.fromkeys(units, -1), {g: g for g in units}
    for end, times, u in windows:
        # every unit outside ``units`` reads one shared array of zeros
        zeros = np.zeros(max(map(len, times)), dtype=np.int64)
        rank = [zeros[:len(t)] for t in times]
        hit, within = _tied_ranks(times, units, last_t, last_rank)
        counts = [len(times[g]) for g in units]
        ranked = np.zeros(sum(counts), dtype=np.int64)
        ranked[hit] = within
        for g, r in zip(units, np.split(ranked, np.cumsum(counts)[:-1])):
            rank[g] = r
            if len(r):
                last_t[g], last_rank[g] = int(times[g][-1]), int(r[-1])
        yield end, times, u, rank


class _FlipRun(_Machines):
    """One run of the flip-driven engine, window by window.

    Each unit's held probability is constant between two changes of its
    input, so its outputs there are the comparisons ``p > u`` over its
    schedule. A unit keeps those stretches as segments (first update index,
    probability) and turns them into outputs, counts and flips once per
    window (``settle``). Only a flip that changes some other unit's
    probability is an event: the flip of a bit that a voltage of its
    machine can depend on (``_couplings``), which queues a refresh at the
    machine's next tick, or of a wire's source. The units that flip such
    bits are "eager". An eager unit whose own probability never changes
    (not wired, and by J its voltage the same in every state: a clamped
    unit, any unit at i0 = 0, or one with a zero row of J) has its flips
    found for the whole window at once; any other finds its next flip by
    scanning its segment. A heap runs the events in time order.
    """

    def __init__(self, network: NetworkSpec, seed: int):
        super().__init__(network, seed, CHUNK)
        n, wires = self.n, self.wires
        self.m = len(self.machines)
        self.wired = [w is not None for w in wires]
        self.readers = [[] for _ in range(n)]
        for r, w in enumerate(wires):
            if w is not None:
                self.readers[w.source].append((r, w.delay_us))
        # the units whose same-instant order matters: the ends of zero-delay wires
        self.tie_units = sorted({g for r, w in enumerate(wires) if w is not None
                                 and not w.delay_us for g in (r, w.source)})
        # which units' voltages can change, and the global mask bits each
        # machine's voltages can depend on
        live, deps = zip(*map(_couplings, self.machines, self.modes))
        self.dep_masks = [dep << shift for dep, shift in zip(deps, self.shifts)]
        self.bits = [1 << (n - 1 - g) for g in range(n)]
        self.refreshes = [self.dep_masks[k] & bit != 0
                          for k, bit in zip(self.machine_of, self.bits)]
        self.eager = [dep or bool(readers) for dep, readers in zip(self.refreshes, self.readers)]
        self.constant = [not c and not w for c, w in zip(sum(live, []), self.wired)]

        self.initial_mask = self.mask
        self.out = [(self.mask >> (n - 1 - g)) & 1 for g in range(n)]
        # each unit's output after the last settled window
        self.out_settled = list(self.out)
        # the local state each machine last refreshed in, masked to its dependences
        self.held = [(self.mask & dep) >> shift for dep, shift in zip(self.dep_masks, self.shifts)]
        self.p = [self.wire_p[self.out[w.source]] if w is not None else None for w in wires]
        for k, off in enumerate(self.offsets):
            for g, p in enumerate(self.row(k, self.held[k]), off):
                if not self.wired[g]:
                    self.p[g] = p
        self.pending = [False] * self.m
        # events (time, order, code, extra). Refreshes and wire changes have
        # order -1, so they run before the updates of their instant; a flip
        # has its update's tie rank. Code g < n is unit g's scanned flip
        # (extra: its version), n + g a constant unit's found flip, 2n + k
        # machine k's refresh, and 2n + m + r reader r's wire change (extra:
        # the source's new bit).
        self.heap = []
        # a unit's flip events of an older segment are stale
        self.version = [0] * n
        self.update_counts = np.zeros(n, dtype=np.int64)
        self.one_counts = np.zeros(n, dtype=np.int64)
        self.flip_times, self.flip_units = [], []
        self.clock = 0

    def _late_reads(self, r: int, g: int, flips) -> np.ndarray:
        """For each update of source g in ``flips`` (indices), whether its
        zero-delay reader r updates at the same instant before it, and so
        reads g's bit from before that update."""
        at, times = self.times[g][flips], self.times[r]
        if not len(times):
            return np.zeros(len(at), dtype=bool)
        j = np.minimum(times.searchsorted(at), len(times) - 1)
        return (times[j] == at) & (self.rank[r][j] < self.rank[g][flips])

    def begin(self, times, u, rank) -> None:
        """Take the window's updates, unit g's times ``times[g]``, its
        ``u[g]`` and its ranks ``rank[g]`` among ``tie_units``
        (``_tie_ranks``). Start every unit's first segment of the window at
        its held probability. Find the flips of each constant eager unit:
        queue those that refresh its machine, give each zero-delay reader
        that is not eager its segments, and queue its other readers' input
        changes. Queue every other eager unit's first flip."""
        n, heap, wire_p = self.n, self.heap, self.wire_p
        self.times, self.u, self.rank = times, u, rank
        self.starts = [[0] for _ in range(n)]
        self.probs = [[p] for p in self.p]
        self.next_flip = [None] * n
        for g in range(n):
            if not self.eager[g]:
                continue
            if not self.constant[g]:
                self._queue(g, self._scan(g, 0, len(self.u[g])))
                continue
            fires = self.p[g] > self.u[g]
            flips = np.flatnonzero(fires != np.concatenate(([self.out[g]], fires[:-1])))
            if not len(flips):
                continue
            at = self.times[g][flips]
            after = fires[flips]
            if self.refreshes[g]:
                for t in at.tolist():
                    heapq.heappush(heap, (t, 0, n + g, 0))
            for r, delay in self.readers[g]:
                changes = at + delay
                if not delay:
                    changes += self._late_reads(r, g, flips)
                    if not self.eager[r]:
                        self.starts[r] += self.times[r].searchsorted(changes).tolist()
                        self.probs[r] += [wire_p[b] for b in after.tolist()]
                        self.p[r] = wire_p[int(after[-1])]
                        continue
                code = 2 * n + self.m + r
                for t, b in zip(changes.tolist(), after.tolist()):
                    heapq.heappush(heap, (t, -1, code, int(b)))

    def _scan(self, g: int, index: int, limit: int):
        """The first of eager unit g's updates ``index`` to ``limit - 1``
        whose output differs from its present one at its held probability,
        or None. The scan looks about four expected runs ahead at first,
        then four times further each step."""
        u, p, out = self.u[g], self.p[g], self.out[g]
        rate = 1.0 - p if out else p
        if rate <= 0.0:
            return None
        step = max(16, int(4.0 / rate))
        while index < limit:
            ahead = u[index:min(index + step, limit)]
            flips = ahead >= p if out else ahead < p
            j = int(flips.argmax())
            if flips[j]:
                return index + j
            index += step
            step *= 4
        return None

    def _queue(self, g: int, i) -> None:
        """Make update ``i`` (or None) eager unit g's next flip."""
        self.version[g] += 1
        self.next_flip[g] = i
        if i is not None:
            heapq.heappush(self.heap, (self.times[g].item(i), self.rank[g].item(i),
                                       g, self.version[g]))

    def advance(self, end: int) -> None:
        """Run every event before ``end``. Refreshes and wire input changes
        at an instant run before its flips, and its flips run in the heap's
        order of updates."""
        heap, n, m = self.heap, self.n, self.m
        while heap and heap[0][0] < end:
            t, _, code, extra = heapq.heappop(heap)
            if code < n:
                if extra == self.version[code]:
                    self._flip(code, t)
            elif code < 2 * n:
                self._toggle(code - n, t)
            elif code < 2 * n + m:
                self._refresh(code - 2 * n, t)
            else:
                self._set_p(code - 2 * n - m, t, self.wire_p[extra])

    def _toggle(self, g: int, t: int) -> None:
        """Flip unit g's output at ``t``; a bit its machine depends on
        queues a refresh at the machine's next tick."""
        self.out[g] ^= 1
        if self.refreshes[g]:
            self.mask ^= self.bits[g]
            k = self.machine_of[g]
            if not self.pending[k]:
                self.pending[k] = True
                tau = self.taus[k]
                heapq.heappush(self.heap, ((t // tau + 1) * tau, -1, 2 * self.n + k, 0))

    def _flip(self, g: int, t: int) -> None:
        """Flip scanned unit g at ``t``, change its readers' probabilities,
        and find its next flip."""
        i = self.next_flip[g]
        self._toggle(g, t)
        bit = self.out[g]
        for r, delay in self.readers[g]:
            if delay:
                heapq.heappush(self.heap, (t + delay, -1, 2 * self.n + self.m + r, bit))
            else:
                late = int(self._late_reads(r, g, [i])[0])
                self._set_p(r, t + late, self.wire_p[bit])
        self._queue(g, self._scan(g, i + 1, len(self.u[g])))

    def _refresh(self, k: int, t: int) -> None:
        """Machine k's refresh at tick ``t``: each unit whose voltage differs
        from the last refresh's takes its new probability."""
        self.pending[k] = False
        local = (self.mask & self.dep_masks[k]) >> self.shifts[k]
        if local == self.held[k]:
            return
        self.held[k] = local
        for g, p in enumerate(self.row(k, local), self.offsets[k]):
            if not self.wired[g]:
                self._set_p(g, t, p)

    def _set_p(self, g: int, t: int, p: float) -> None:
        """Unit g holds ``p`` from its first update at or after ``t``."""
        if p == self.p[g]:
            return
        self.p[g] = p
        i = int(self.times[g].searchsorted(t))
        if self.starts[g][-1] == i:
            self.probs[g][-1] = p
        else:
            self.starts[g].append(i)
            self.probs[g].append(p)
        if self.eager[g]:
            self._queue(g, self._scan(g, i, len(self.u[g])))

    def settle(self) -> None:
        """Turn the window's segments into every unit's outputs: add up its
        updates and ones and log its flips."""
        for g in range(self.n):
            times, u = self.times[g], self.u[g]
            if not len(times):
                continue
            starts, probs = self.starts[g], self.probs[g]
            if len(probs) == 1:
                fires = probs[0] > u
            else:
                fires = np.repeat(probs, np.diff(starts + [len(u)])) > u
            flips = np.flatnonzero(fires[1:] != fires[:-1]) + 1
            if fires[0] != self.out_settled[g]:
                flips = np.concatenate(([0], flips))
            self.flip_times.append(times[flips])
            self.flip_units.append(np.full(len(flips), g, dtype=np.int64))
            self.out[g] = self.out_settled[g] = int(fires[-1])
            self.update_counts[g] += len(u)
            self.one_counts[g] += int(np.count_nonzero(fires))
            self.clock = max(self.clock, int(times[-1]))

    def trace(self, last: int, max_updates) -> SimulationTrace:
        """The samples up to ``last`` (or as ``_trace`` ends them under the
        update budget ``max_updates``), from the flips in time order."""
        times = np.concatenate([[-1]] + self.flip_times).astype(np.int64)
        units = np.concatenate([[0]] + self.flip_units).astype(np.int64)
        order = np.argsort(times, kind="stable")
        times, masks = times[order], np.left_shift(np.int64(1), self.n - 1 - units[order])
        del order, units
        masks[0] = self.initial_mask
        return _trace(self.n, self.taus, last, self.clock, times,
                      np.bitwise_xor.accumulate(masks, out=masks), self.update_counts,
                      self.one_counts, max_updates)


def _run_flips(network, seed, stop, last, max_updates) -> SimulationTrace:
    """``run`` for a network that ``_composable`` gives the flip-driven
    engine, with the sample and duration budgets already turned into
    ``stop`` and ``last``, and the update budget ``max_updates``. Schedules
    are drawn in windows of at most ``CHUNK`` updates per unit."""
    run_ = _FlipRun(network, seed)
    windows = _windows(run_.schedules, CHUNK, stop, max_updates)
    for end, times, u, rank in _tie_ranks(windows, run_.tie_units):
        run_.begin(times, u, rank)
        run_.advance(end)
        run_.settle()
    return run_.trace(last, max_updates)


def run(
    network: NetworkSpec,
    seed: int,
    max_samples: int = None,
    duration_us: int = None,
    max_updates: int = None,
) -> SimulationTrace:
    """Run until a budget is exhausted; deterministic in (network, seed).

    ``duration_us`` processes events in the half-open window [0, duration);
    ``max_samples`` counts trace rows and stops at the last one's time s*,
    running the events strictly before it; ``max_updates`` counts unit
    update events and ends the samples at the last update's time. A zero
    budget yields an empty trace. ``_composable`` picks the engine from the
    network's machine count: per-tick state maps for one machine of up to
    ``COMPOSED_UNITS`` units, a walk of the updates in time order for a
    larger machine alone, and the flip-driven engine for several machines.
    Each ends at an update budget inside the window walk that feeds it
    (``_windows``), unless another budget ends the run first; the event
    heap, which the tests force as their reference, counts its updates as
    it runs, and gives the same trace. A run whose virtual times could
    reach ``TIME_LIMIT_US`` is refused.
    ``update_order`` gives the order of the run's updates.
    """
    if max_samples is None and duration_us is None and max_updates is None:
        raise ConfigurationError("a sample, update, or duration budget is required")
    network.validate()
    taus = [mach.tau_sample_us for mach in network.machines]
    _check_horizon(network.pbits, taus, max_samples, duration_us, max_updates)
    # events run strictly before ``stop``; samples end at ``last``
    stop, last = TIME_LIMIT_US, None
    if duration_us is not None:
        stop, last = duration_us, duration_us - 1
    if max_samples is not None:
        s_star = sample_time(taus, max_samples - 1) if max_samples > 0 else -1
        if s_star < stop:
            stop, last = s_star, s_star
    engine = {"heap": _run_heap, "composed": _run_composed, "merged": _run_merged,
              "flips": _run_flips}
    return engine[_composable(network)](network, seed, stop, last, max_updates)


def update_order(network: NetworkSpec, seed: int, update_counts) -> list:
    """The ``(time, unit)`` pair of every update of a run, in the order the
    event heap runs them, from the run's ``update_counts``. A run's updates
    are the first ones in the heap's order, whichever budget ended it, so
    they are the first ``sum(update_counts)`` of fresh schedules, cut by the
    window walk's budget rule (``_windows``), sorted by time and, within an
    instant, by their ranks among every unit (``_tie_ranks``), distinct at
    an instant of several updates, in one ``np.lexsort`` per window."""
    _, schedules = _units(network, seed, CHUNK)
    windows = _windows(schedules, CHUNK, TIME_LIMIT_US, int(sum(update_counts)))
    events = []
    for _, times, _, rank in _tie_ranks(windows, range(len(schedules))):
        at = np.concatenate(times)
        units = np.repeat(np.arange(len(times)), list(map(len, times)))
        order = np.lexsort((np.concatenate(rank), at))
        events += zip(at[order].tolist(), units[order].tolist())
    return events


def serialization_metric(aligned, start: int = 0, end: int = None) -> float:
    """Fraction of unit updates with another same-machine update within the
    window; a proxy for the probability of parallel updating. ``aligned``
    are a run's update flags from ``alignment_flags``; ``start`` and ``end``
    pick a range of them.
    """
    window = aligned[start:end]
    if not len(window):
        raise ConfigurationError("no update events in the requested range")
    return int(np.count_nonzero(window)) / len(window)


def alignment_flags(events, network, window_us) -> np.ndarray:
    """For each of ``events``, a run's ``(time, unit)`` updates in order as
    ``update_order`` gives them, whether another unit of its machine updates
    within ``window_us`` of it."""
    if window_us <= 0:
        raise ConfigurationError("window must be positive")
    times, gids = np.array(events, dtype=np.int64).reshape(-1, 2).T
    machines = np.array(network.machine_of())[gids]
    flags = np.zeros(len(events), dtype=bool)
    for k in _distinct(machines):
        at = np.flatnonzero(machines == k)
        t, g = times[at], gids[at]
        # the updates within the window of each one are lo..hi-1, and the
        # first one after lo by another unit than lo's is at run_end
        lo, hi = t.searchsorted(t - window_us, "left"), t.searchsorted(t + window_us, "right")
        ends = np.append(np.flatnonzero(g[1:] != g[:-1]) + 1, len(g))
        run_end = ends[ends.searchsorted(lo, "right")]
        flags[at] = (g[lo] != g) | (run_end < hi)
    return flags
