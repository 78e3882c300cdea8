"""Event engine: determinism, tie ordering, clamps, wires, budgets, event counts."""

import dataclasses
import hashlib
import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbitsim import dynamics
from pbitsim.analysis import histogram
from pbitsim.cli import build_network, load_scenario
from pbitsim.core import (
    CLAMPED_HIGH,
    CLAMPED_LOW,
    FREE,
    CouplingMatrix,
    PBitConfig,
    QuantizationConfig,
    Wired,
    sigmoid,
    weight_inputs,
)
from pbitsim.errors import ConfigurationError
from pbitsim.networks import (
    MachineSpec,
    NetworkSpec,
    build_and_machine,
    load_gate,
)
from pbitsim.oracle import bit_rows, project
from pbitsim.dynamics import (PRIO_REFRESH, Simulator, alignment_flags, run, sample_count,
                              sample_time, serialization_metric, update_order)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def and_net(i0=0.8, tau_sample_us=None, retention_us=None):
    net = build_and_machine(i0)
    if tau_sample_us is not None:
        net.set_tau_sample(tau_sample_us)
    if retention_us is not None:
        net.set_retention(retention_us)
    return net


def two_machine_net(src_mode, wire_delay_us=0):
    """Two 2-unit machines; the second machine's first unit is wired to the
    first machine's first unit, whose mode is ``src_mode``."""
    gate = load_gate("copy")
    mach = lambda name: MachineSpec(name, gate.coupling(0.0), tau_sample_us=100)
    pbits = [PBitConfig(id=k, retention_us=1000) for k in range(4)]
    pbits[0] = PBitConfig(id=0, retention_us=1000, mode=src_mode)
    pbits[2] = PBitConfig(id=2, retention_us=1000,
                          mode=Wired(source=0, delay_us=wire_delay_us))
    net = NetworkSpec([mach("src"), mach("dst")], pbits,
                      {"SRC": 0, "DST": 2})
    net.validate()
    return net


class TestDeterminism:
    def test_identical_runs(self):
        a = run(and_net(), seed=7, max_samples=500)
        b = run(and_net(), seed=7, max_samples=500)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.update_counts, b.update_counts)

    def test_seed_changes_trajectory(self):
        a = run(and_net(), seed=7, max_samples=500)
        b = run(and_net(), seed=8, max_samples=500)
        assert not np.array_equal(a.states, b.states)

    def test_budget_extension_is_a_prefix(self):
        short = run(and_net(), seed=7, max_samples=200)
        long = run(and_net(), seed=7, max_samples=500)
        assert np.array_equal(short.states, long.states[:200])


class TestEventOrdering:
    def test_refresh_precedes_update_at_same_instant(self):
        # a strongly biased single unit: the t=0 refresh runs first, so the
        # very first update already sees V=5
        gate = load_gate("copy")
        mach = MachineSpec("m", gate.coupling(5.0), tau_sample_us=10)
        pbits = [PBitConfig(id=0, retention_us=10, mode=CLAMPED_HIGH),
                 PBitConfig(id=1, retention_us=10)]
        net = NetworkSpec([mach], pbits, dict(gate.visible))
        sim = Simulator(net, seed=0)
        sim.step()  # machine refresh at t=0
        assert sim.held_p[1] == sigmoid(2.0 * 5.0 - 5.0)

    def test_sample_times_strictly_increase(self):
        trace = run(and_net(), seed=3, max_samples=300)
        assert np.all(np.diff(trace.times) > 0)

    def test_updates_wait_for_phase(self):
        net = and_net()
        net.set_phases([0, 500, 900])
        trace = run(net, seed=1, duration_us=1000)
        first = {}
        for t, gid in update_order(net, 1, trace.update_counts):
            first.setdefault(gid, t)
        assert first == {0: 0, 1: 500, 2: 900}


class TestTerminalModes:
    def test_clamped_units_hug_the_rails(self):
        net = and_net().with_clamps({"A": 1, "B": 0})
        trace = run(net, seed=5, max_updates=30_000)
        a, b = net.visible_labels["A"], net.visible_labels["B"]
        frac = trace.one_counts / trace.update_counts
        assert frac[a] > 0.999
        assert frac[b] < 0.001

    def test_wired_unit_follows_high_source(self):
        trace = run(two_machine_net(CLAMPED_HIGH), seed=9, max_updates=40_000)
        frac = trace.one_counts[2] / trace.update_counts[2]
        assert frac == pytest.approx(sigmoid(5.0), abs=0.005)

    def test_wired_unit_follows_low_source(self):
        trace = run(two_machine_net(CLAMPED_LOW), seed=9, max_updates=40_000)
        frac = trace.one_counts[2] / trace.update_counts[2]
        assert frac == pytest.approx(sigmoid(-5.0), abs=0.005)

    def test_delayed_wire_runs(self):
        trace = run(two_machine_net(CLAMPED_HIGH, wire_delay_us=500),
                    seed=9, max_updates=5_000)
        assert trace.update_counts.sum() == 5_000

    def test_wire_longer_than_run_reads_initial_output(self):
        # the wire looks back past t = 0 for the whole run, so unit 2 follows
        # unit 0's initial output; reading the newest output instead gives ~0.5
        trace = run(two_machine_net(FREE, wire_delay_us=10**9), seed=9, max_updates=20_000)
        src_bit = (int(trace.states[0]) >> (trace.n - 1)) & 1
        frac = trace.one_counts[2] / trace.update_counts[2]
        assert frac == pytest.approx(sigmoid(5.0 if src_bit else -5.0), abs=0.005)


class TestBudgets:
    def test_duration_window_is_half_open(self):
        net = and_net(tau_sample_us=10)
        trace = run(net, seed=2, duration_us=100)
        assert len(trace) == 10
        assert trace.times[0] == 0
        assert trace.times[-1] == 90

    def test_zero_budget_empty_trace(self):
        trace = run(and_net(), seed=2, max_samples=0)
        assert len(trace) == 0

    def test_max_updates_counts_events(self):
        trace = run(and_net(), seed=2, max_updates=1234)
        assert trace.update_counts.sum() == 1234

    def test_running_update_counter(self):
        sim = Simulator(and_net(), seed=2)
        for _ in range(500):
            sim.step()
        assert sim.n_updates == sim.update_counts.sum() > 0

    def test_budget_required(self):
        with pytest.raises(ConfigurationError):
            run(and_net(), seed=2)

    def test_update_cut_holds_a_window_per_unit(self, monkeypatch):
        # a run of the and_serialization network under a budget of 200k
        # updates takes them from its schedules window by window: a schedule
        # never holds more than one window of CHUNK updates and what its
        # last refill drew past it
        held, refill = [], dynamics._Schedule.refill

        def holding(schedule, horizon):
            refill(schedule, horizon)
            held.append(len(schedule.times))

        monkeypatch.setattr(dynamics._Schedule, "refill", holding)
        net = build_network(load_scenario(SCENARIOS / "and_serialization.json"))
        trace = run(net, 4, max_updates=200_000)
        assert trace.update_counts.sum() == 200_000
        assert len(held) > 200_000 // dynamics.CHUNK
        assert max(held) <= 2 * dynamics.CHUNK


def two_and_net(tau_sample_us, retention_us):
    """Two AND machines, the second one's A wired to the first one's C: a
    network the flip-driven engine runs, and the event heap through
    ``heap_run``."""
    gate = load_gate("and")
    mach = lambda name: MachineSpec(name, gate.coupling(0.8), tau_sample_us=tau_sample_us)
    pbits = [PBitConfig(id=k, retention_us=retention_us) for k in range(6)]
    pbits[3] = PBitConfig(id=3, retention_us=retention_us, mode=Wired(source=2))
    net = NetworkSpec([mach("first"), mach("second")], pbits, {"C": 2, "C2": 5})
    net.validate()
    return net


class TestEventCounts:
    """Deterministic cost gate: events processed, never wall time."""

    @staticmethod
    def _count_calls(monkeypatch, owner, name, calls):
        original = getattr(owner, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counting)

    @staticmethod
    def _tabulated(weight_calls, machines):
        # one call per machine, over its 2**3 local states in mask order
        states = [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        return (len({id(coupling) for coupling, *_ in weight_calls}) == len(weight_calls)
                == machines
                and all(np.array_equal(outputs, states) for _, outputs, *_ in weight_calls))

    @staticmethod
    def _evaluated(weight_calls, machines) -> list:
        """Each weight-logic call as (machine index, local state): every
        call must be a single-state call for one of ``machines``."""
        index = {id(mach.coupling): k for k, mach in enumerate(machines)}
        evaluated = []
        for coupling, outputs, *_ in weight_calls:
            bits = np.asarray(outputs)
            assert bits.shape == (coupling.n,)
            local = int(bits @ (1 << np.arange(coupling.n - 1, -1, -1)))
            evaluated.append((index[id(coupling)], local))
        return evaluated

    @staticmethod
    def _heap_refreshes(monkeypatch) -> list:
        """Log each refresh on the event heap as (simulator, machine, local
        state it refreshes in)."""
        refreshes, refresh = [], Simulator._refresh

        def logging_refresh(sim, k):
            refreshes.append((sim, k, (sim.mask >> sim.shifts[k]) & sim.local_masks[k]))
            refresh(sim, k)

        monkeypatch.setattr(Simulator, "_refresh", logging_refresh)
        return refreshes

    @classmethod
    def _assert_once_per_state(cls, sim, refreshed, weight_calls):
        """One single-state weight-logic call per distinct (machine, local
        state) in ``refreshed``, and every such row kept in the memo."""
        evaluated = cls._evaluated(weight_calls, sim.machines)
        assert len(evaluated) == len(set(evaluated))
        assert set(evaluated) == set(refreshed)
        for k, memo in enumerate(sim.memos):
            assert set(memo) == {local for m, local in refreshed if m == k}

    def test_clean_refreshes_are_elided(self, monkeypatch):
        heads, weight_calls = [], []
        step = Simulator.step

        def counting_step(sim):
            heads.append(sim.queue[0][:2])
            step(sim)

        monkeypatch.setattr(Simulator, "step", counting_step)
        refreshes = self._heap_refreshes(monkeypatch)
        self._count_calls(monkeypatch, dynamics, "weight_inputs", weight_calls)
        # tau_sample = tau_N / 200, the regime where nearly every refresh is
        # clean, on the event heap; each machine computes a row only when it
        # first refreshes in a local state
        trace = heap_run(two_and_net(tau_sample_us=1000, retention_us=200_000), seed=1,
                         max_samples=20_000)
        assert len(trace) == 20_000
        assert len(heads) == trace.update_counts.sum() + len(refreshes)
        assert len(heads) <= 0.05 * len(trace)
        assert heads[0] == (0, PRIO_REFRESH)
        sim = refreshes[0][0]
        self._assert_once_per_state(sim, [(k, local) for _, k, local in refreshes],
                                    weight_calls)

    def test_weight_logic_runs_once_per_local_state(self, monkeypatch):
        weight_calls = []
        refreshes = self._heap_refreshes(monkeypatch)
        self._count_calls(monkeypatch, dynamics, "weight_inputs", weight_calls)
        # tau_sample = tau_N, the breakdown regime where every refresh is
        # dirty, on the event heap: thousands of refreshes, and one
        # weight-logic call for each distinct local state among them, of
        # the two machines' 2^3 each
        trace = heap_run(two_and_net(tau_sample_us=200_000, retention_us=200_000), seed=1,
                         max_samples=20_000)
        assert len(refreshes) > 0.9 * len(trace)
        sim = refreshes[0][0]
        refreshed = [(k, local) for _, k, local in refreshes]
        self._assert_once_per_state(sim, refreshed, weight_calls)
        assert len(weight_calls) <= 2 * 8 < len(refreshes)

    def test_untabulated_weight_logic_runs_once_per_local_state(self, monkeypatch):
        # a random 18-unit machine with J and h on the quarter grid, past
        # TABLE_UNITS, run on the event heap, visits hundreds of local
        # states: it computes a state's row when it first refreshes in that
        # state and reads it back on every later refresh there
        rng = np.random.default_rng(18)
        j = np.triu(rng.integers(-4, 5, (18, 18)) / 4, 1)
        net = build_network({
            "name": "matrix18", "seed": 0, "retention_us": 20_000,
            "network": {"kind": "matrix", "i0": 0.5, "j": (j + j.T).tolist(),
                        "h": (rng.integers(-4, 5, 18) / 4).tolist(), "tau_sample_us": 1000}})
        states, weight_calls = [], []
        refresh = Simulator._refresh

        def logging_refresh(sim, k):
            states.append(sim.mask)
            refresh(sim, k)

        monkeypatch.setattr(Simulator, "_refresh", logging_refresh)
        self._count_calls(monkeypatch, dynamics, "weight_inputs", weight_calls)
        heap_run(net, seed=1, max_samples=10_000)
        assert len(set(states)) > 500
        assert len(weight_calls) == len(set(states)) < len(states)

    def test_merged_control_evaluates_one_state(self, monkeypatch):
        # a 15-unit machine at i0 = 0: no voltage depends on any bit, so the
        # merged walk calls the weight logic once, over its state masked to
        # no bits, and reads that row through over a thousand flips
        rng = np.random.default_rng(15)
        j = np.triu(rng.integers(-4, 5, (15, 15)) / 4, 1)
        net = build_network({
            "name": "matrix15", "seed": 0, "retention_us": 20_000,
            "network": {"kind": "matrix", "i0": 0.0, "j": (j + j.T).tolist(),
                        "h": (rng.integers(-4, 5, 15) / 4).tolist(), "tau_sample_us": 1000}})
        weight_calls = []
        self._count_calls(monkeypatch, dynamics, "weight_inputs", weight_calls)
        assert dynamics._composable(net) == "merged"
        trace = run(net, seed=1, max_samples=5000)
        assert len(trace.flip_times) > 1000
        assert len(weight_calls) == 1

    @pytest.mark.parametrize("tau_sample_us", [1000, 200_000])
    def test_composed_run_tabulates_the_weight_logic(self, monkeypatch, tau_sample_us):
        # a one-machine run of up to 8 units never steps the heap: it calls
        # the weight logic once, over the machine's 2**3 states
        steps, weight_calls = [], []
        self._count_calls(monkeypatch, Simulator, "step", steps)
        self._count_calls(monkeypatch, dynamics, "weight_inputs", weight_calls)
        trace = run(and_net(tau_sample_us=tau_sample_us, retention_us=200_000), seed=1,
                    max_samples=20_000)
        assert len(trace) == 20_000
        assert steps == []
        assert self._tabulated(weight_calls, 1)

    def test_composed_maps_built_once_per_distinct_code(self, monkeypatch):
        # and_breakdown_400ms at full budget, tau_sample = 2 tau_N: its
        # 499,999 tick rows hold 9,998 distinct rows of levels, and the run
        # builds one map for each of those and none for any other row
        doc = load_scenario(SCENARIOS / "and_breakdown_400ms.json")
        rows, codes, built = [], [], []
        compose, tick_maps = dynamics._compose_window, dynamics._tick_maps

        def counting_compose(p, ranks, ordered, tau, state, times, u):
            levels = row_levels(p, tau, times, u)
            rows.append(len(levels))
            codes.append(len(np.unique(levels, axis=0)))
            return compose(p, ranks, ordered, tau, state, times, u)

        def counting_maps(ranks, levels):
            built.append(len(levels[0]))
            return tick_maps(ranks, levels)

        monkeypatch.setattr(dynamics, "_compose_window", counting_compose)
        monkeypatch.setattr(dynamics, "_tick_maps", counting_maps)
        trace = run(build_network(doc), doc["seed"], max_samples=doc["samples"])
        assert len(trace) == doc["samples"]
        assert built == codes
        assert (sum(rows), sum(built)) == (499_999, 9_998)

    def test_held_probabilities_match_held_voltages(self):
        # after each refresh, each unit of the machine holds sigmoid(2v - 5)
        # of the voltage the weight logic publishes for that one state; the
        # wired unit reads its wire instead
        net = two_and_net(tau_sample_us=1000, retention_us=1000).with_clamps({"C2": 0})
        sim = Simulator(net, seed=3)
        refreshed = 0
        while sim.n_updates < 2000:
            _, prio, _, k = sim.queue[0]
            sim.step()
            if prio != PRIO_REFRESH:
                continue
            refreshed += 1
            mach, ids = net.machines[k], range(3 * k, 3 * k + 3)
            v = weight_inputs(mach.coupling, [sim.outputs[g] for g in ids],
                              [net.pbits[g].mode for g in ids], mach.quant)
            held = [sim.held_p[g] for g in ids]
            assert [p for p, x in zip(held, v) if x is not None] == [
                sigmoid(2.0 * x - 5.0) for x in v if x is not None]
        assert refreshed > 100

    def test_flip_engine_events_are_few(self, monkeypatch):
        # the factorizer at i0 = 1.5 for the time of its first 50,000
        # updates, whole instants: the flip-driven engine visits the flips
        # that change some other unit's probability and the refreshes they
        # queue, and only adds up the other updates
        net = build_network({
            "name": "factorizer", "seed": 0, "network": {"kind": "factorizer", "i0": 1.5},
            "clamps": {"S0": 0, "S1": 1, "S2": 1, "S3": 0}})
        t_end = run(net, seed=1, max_updates=50_000).final_time_us
        pops, flips, refreshes = [], [], []
        self._count_calls(monkeypatch, dynamics.heapq, "heappop", pops)
        self._count_calls(monkeypatch, dynamics._FlipRun, "_toggle", flips)
        self._count_calls(monkeypatch, dynamics._FlipRun, "_refresh", refreshes)
        trace = run(net, seed=1, duration_us=t_end + 1)
        updates = int(trace.update_counts.sum())
        assert updates >= 50_000
        assert flips and refreshes
        assert len(pops) >= len(flips) + len(refreshes)
        assert len(flips) + len(refreshes) <= 0.05 * updates

    @staticmethod
    def _flip_refreshes(monkeypatch) -> list:
        """Log the flip-driven engine's refreshes as (run, machine, local
        state masked to its dependences), each machine's refresh at t = 0,
        made as the run starts, included."""
        refreshes, begin, refresh = [], dynamics._FlipRun.begin, dynamics._FlipRun._refresh

        def logging_begin(run_, times, u, rank):
            if not any(r is run_ for r, *_ in refreshes):
                refreshes.extend((run_, k, local) for k, local in enumerate(run_.held))
            begin(run_, times, u, rank)

        def logging_refresh(run_, k, t):
            refreshes.append((run_, k, (run_.mask & run_.dep_masks[k]) >> run_.shifts[k]))
            refresh(run_, k, t)

        monkeypatch.setattr(dynamics._FlipRun, "begin", logging_begin)
        monkeypatch.setattr(dynamics._FlipRun, "_refresh", logging_refresh)
        return refreshes

    @pytest.mark.parametrize("budget, engine, ran", [
        ({"max_samples": 5000}, "flips", lambda trace: len(trace) == 5000),
        ({"max_updates": 20_000}, "flips", lambda trace: trace.update_counts.sum() == 20_000),
    ], ids=["samples", "updates"])
    def test_control_tabulates_each_machine_once(self, monkeypatch, budget, engine, ran):
        # the factorizer at i0 = 0: no voltage of its 8- to 13-unit machines
        # depends on any bit, so each machine calls the weight logic once,
        # over its local state masked to no bits, under a sample and an
        # update budget alike; the sigmoid runs at most once per voltage
        # published or read off a wire
        net = build_network({
            "name": "control", "seed": 0,
            "network": {"kind": "factorizer", "i0": 0.0, "tau_sample_us": 2000},
            "retention_us": 20_000, "clamps": {"S0": 0, "S1": 1, "S2": 1, "S3": 0}})
        weight_calls, volts, sigmoid_args = [], [], []
        weight_inputs, sigmoid_ = dynamics.weight_inputs, dynamics.sigmoid

        def logging_weight_inputs(*args):
            weight_calls.append(args)
            volts.append(weight_inputs(*args))
            return volts[-1]

        def sigmoid_calls(x):
            sigmoid_args.append(x)
            return sigmoid_(x)

        refreshes = self._flip_refreshes(monkeypatch)
        monkeypatch.setattr(dynamics, "weight_inputs", logging_weight_inputs)
        monkeypatch.setattr(dynamics, "sigmoid", sigmoid_calls)
        assert dynamics._composable(net) == engine
        trace = run(net, seed=11, **budget)
        assert ran(trace)
        run_ = refreshes[0][0]
        assert run_.dep_masks == [0] * 4
        assert [(k, local) for _, k, local in refreshes] == [(k, 0) for k in range(4)]
        self._assert_once_per_state(run_, [(k, 0) for k in range(4)], weight_calls)
        published = {0.0, 5.0}.union(*volts)
        assert len(sigmoid_args) == len(set(sigmoid_args)) <= len(published)
        assert set(sigmoid_args) <= {2.0 * v - 5.0 for v in published}

    def test_flip_run_evaluates_only_refreshed_states(self, monkeypatch):
        # the factorizer at i0 = 1.5 under an update budget: each machine
        # calls the weight logic once per distinct local state, masked to
        # its dependences, that it refreshes in, and keeps every such row;
        # the run evaluates under 2% of its machines' 20,736 local states
        net = build_network({
            "name": "factorizer", "seed": 0, "network": {"kind": "factorizer", "i0": 1.5},
            "clamps": {"S0": 0, "S1": 1, "S2": 1, "S3": 0}})
        weight_calls = []
        refreshes = self._flip_refreshes(monkeypatch)
        self._count_calls(monkeypatch, dynamics, "weight_inputs", weight_calls)
        assert dynamics._composable(net) == "flips"
        trace = run(net, seed=1, max_updates=50_000)
        assert trace.update_counts.sum() == 50_000
        run_ = refreshes[0][0]
        refreshed = [(k, local) for _, k, local in refreshes]
        self._assert_once_per_state(run_, refreshed, weight_calls)
        assert len(weight_calls) < len(refreshes)
        assert len(weight_calls) < 0.02 * sum(1 << mach.n for mach in net.machines) \
            == 0.02 * 20_736

    def test_update_budget_draws_each_stream_once(self, monkeypatch):
        # the factorizer at i0 = 1.5 under an update budget: the engine's
        # own window walk ends the run at the budget, so every unit's stream
        # is built and drawn once: one schedule per unit
        units, schedules = [], []
        self._count_calls(monkeypatch, dynamics, "_units", units)
        self._count_calls(monkeypatch, dynamics._Schedule, "__init__", schedules)
        net = build_network({
            "name": "factorizer", "seed": 0, "network": {"kind": "factorizer", "i0": 1.5},
            "clamps": {"S0": 0, "S1": 1, "S2": 1, "S3": 0}})
        trace = run(net, seed=1, max_updates=50_000)
        assert trace.update_counts.sum() == 50_000
        assert len(units) == 1
        assert len(schedules) == net.n_total == 46

    def test_cut_inside_an_instant_redraws_only_its_units(self, monkeypatch):
        # four jitterless units at retention 700, 1000, 1300 and 900 us make
        # 28 updates before 6300 us, where units 0 and 3 tie; a budget of 29
        # ends inside that instant, so only those two streams are drawn again
        # to rank it, and unit 3, whose previous update is the earlier, runs
        # first, as on the heap
        gate = load_gate("copy")
        mach = lambda name: MachineSpec(name, gate.coupling(1.0), tau_sample_us=100)
        pbits = [PBitConfig(id=k, retention_us=r) for k, r in enumerate([700, 1000, 1300, 900])]
        net = NetworkSpec([mach("a"), mach("b")], pbits, {"A": 0, "B": 2})
        net.validate()
        units, schedules = [], []
        self._count_calls(monkeypatch, dynamics, "_units", units)
        self._count_calls(monkeypatch, dynamics._Schedule, "__init__", schedules)
        trace = run(net, seed=3, max_updates=29)
        assert len(units) == 1
        assert [pbit.id for _, _, pbit, _ in schedules] == [0, 1, 2, 3, 0, 3]
        assert trace.update_counts.tolist() == [9, 7, 5, 8]
        assert trace.final_time_us == 6300
        assert digest(trace) == digest(heap_run(net, seed=3, max_updates=29))


class TestJitter:
    def _gaps(self, jitter):
        net = and_net()
        net.set_retention(1000)
        net.set_jitter(jitter)
        trace = run(net, seed=6, max_updates=3000)
        per_unit = {}
        for t, gid in update_order(net, 6, trace.update_counts):
            per_unit.setdefault(gid, []).append(t)
        return [b - a for ts in per_unit.values() for a, b in zip(ts, ts[1:])]

    def test_zero_jitter_is_periodic(self):
        assert set(self._gaps(0.0)) == {1000}

    def test_jitter_interval_bounds(self):
        gaps = self._gaps(0.01)
        assert all(989 <= g <= 1011 for g in gaps)
        assert len(set(gaps)) > 1


class TestRandomStreams:
    """A unit's schedule, drawn a chunk of updates at a time, gives exactly
    the values of scalar Generator calls in the engine's order: each
    update's comparison value followed by the jitter that sets the interval
    to the next update."""

    @staticmethod
    def _check_stream(seed, gid, f, chunk):
        pbit = PBitConfig(id=gid, retention_us=1000, phase_us=137, jitter_fraction=f)
        stream = lambda: np.random.default_rng(np.random.SeedSequence([seed, gid]))
        rng = stream()
        want, t = [], 137
        # 3 * BLOCK + 3 updates: a BLOCK-sized schedule refills three times
        for _ in range(3 * dynamics.BLOCK + 3):
            u = rng.random()
            want.append((t, u))
            t += max(1, round(1000 * (1.0 + rng.uniform(-f, f)))) if f > 0.0 else 1000
        # the heap's path, update by update
        schedule = dynamics._Schedule(stream(), pbit, chunk)
        updates = schedule.updates()
        assert [next(updates) for _ in want] == want
        # the composed engine's path: refills cut short by a horizon
        schedule = dynamics._Schedule(stream(), pbit, chunk)
        while len(schedule.times) < len(want):
            schedule.refill(schedule.next_t + 2500)
        times, u = schedule.take(len(want))
        assert list(zip(times.tolist(), u.tolist())) == want

    @pytest.mark.parametrize("seed", [0, 1, 11, 2**40])
    @pytest.mark.parametrize("f", [0.0, 0.005, 0.01, 0.3])
    def test_block_stream_matches_scalar_draws(self, seed, f):
        for chunk in (1, 3, dynamics.BLOCK):
            self._check_stream(seed, 2, f, chunk)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**63), gid=st.integers(0, 62),
           f=st.floats(min_value=1e-9, max_value=0.999), chunk=st.integers(1, 300))
    def test_block_stream_matches_scalar_draws_drawn(self, seed, gid, f, chunk):
        self._check_stream(seed, gid, f, chunk)

    @pytest.mark.parametrize("f", [0.01, 0.3])
    @pytest.mark.parametrize("make_net", [and_net, two_and_net], ids=["one_machine", "heap"])
    def test_update_times_match_scalar_jitter(self, make_net, f):
        # every unit's update times, rebuilt from scalar draws on its
        # generator, on one machine and on two wired ones
        net = make_net(retention_us=1000, tau_sample_us=100)
        net.set_jitter(f)
        trace = run(net, seed=4, max_updates=3 * net.n_total * dynamics.BLOCK)
        assert trace.update_counts.min() >= 2 * dynamics.BLOCK
        events = update_order(net, 4, trace.update_counts)
        for gid in range(net.n_total):
            rng = np.random.default_rng(np.random.SeedSequence([4, gid]))
            rng.random()
            want, t = [], 0
            for _ in range(trace.update_counts[gid]):
                want.append(t)
                rng.random()
                t += max(1, int(round(1000 * (1.0 + rng.uniform(-f, f)))))
            assert [t for t, g in events if g == gid] == want


class TestTrace:
    def test_state_bits_round_trip(self, tmp_path):
        # trace.csv spells out each state mask, unit k at bit n-1-k
        trace = run(and_net(), seed=4, max_samples=50)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        rows = path.read_text().strip().splitlines()[1:]
        assert len(rows) == len(trace)
        for row, t, mask in zip(rows, trace.times, trace.states):
            cells = [int(c) for c in row.split(",")]
            assert cells[0] == t
            assert sum(b << (trace.n - 1 - k) for k, b in enumerate(cells[1:])) == mask

    def test_to_csv(self, tmp_path):
        trace = run(and_net(), seed=4, max_samples=5)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time_us,pbit_0,pbit_1,pbit_2"
        assert len(lines) == 6


class TestSerializationMetric:
    def _events(self, phases, jitter=0.0):
        net = and_net()
        net.set_retention(1000)
        net.set_jitter(jitter)
        net.set_phases(phases)
        trace = run(net, seed=11, max_updates=3000)
        return net, update_order(net, 11, trace.update_counts)

    def test_synchronized_updates_score_one(self):
        net, events = self._events([0, 0, 0])
        assert serialization_metric(alignment_flags(events, net, 10)) == 1.0

    def test_staggered_updates_score_zero(self):
        net, events = self._events([0, 333, 666])
        assert serialization_metric(alignment_flags(events, net, 100)) == 0.0

    def test_window_ends_count(self):
        # each update lies 333 us from another unit's and 334 us from the
        # third's
        net, events = self._events([0, 333, 666])
        assert serialization_metric(alignment_flags(events, net, 333)) == 1.0
        assert serialization_metric(alignment_flags(events, net, 332)) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(net=st.deferred(lambda: small_networks()), data=st.data(),
           window_us=st.integers(1, 40))
    def test_flags_match_the_definition(self, net, data, window_us):
        # an update is aligned if another unit of its machine updates within
        # the window, before or after it
        events = sorted(data.draw(st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, net.n_total - 1)), max_size=60)))
        machine_of = net.machine_of()
        want = [any(machine_of[h] == machine_of[g] and h != g and abs(s - t) <= window_us
                    for s, h in events) for t, g in events]
        assert alignment_flags(events, net, window_us).tolist() == want

    def test_profile_chunks(self):
        net, events = self._events([0, 0, 0])
        aligned = alignment_flags(events, net, 10)
        total = len(events)
        for start in range(0, total, 100):
            end = min(start + 100, total)
            assert serialization_metric(aligned, start=start, end=end) == 1.0

    def test_requires_recorded_updates(self):
        # a zero-update run has no update events to measure
        net = and_net()
        events = update_order(net, 1, run(net, seed=1, max_updates=0).update_counts)
        assert events == []
        with pytest.raises(ConfigurationError):
            serialization_metric(alignment_flags(events, net, 10))

    def test_window_must_be_positive(self):
        net, events = self._events([0, 0, 0])
        with pytest.raises(ConfigurationError):
            serialization_metric(alignment_flags(events, net, 0))

    def test_empty_range_rejected(self):
        net, events = self._events([0, 0, 0])
        with pytest.raises(ConfigurationError):
            serialization_metric(alignment_flags(events, net, 10), start=10**9)


def forced_run(engine, net, seed, **budget):
    """``run`` on ``engine``, whatever engine the chooser would pick."""
    with mock.patch.object(dynamics, "_composable", lambda *_: engine):
        return run(net, seed, **budget)


def heap_run(net, seed, **budget):
    """``run`` on the event heap, the reference of every engine."""
    return forced_run("heap", net, seed, **budget)


def digest(trace):
    h = hashlib.sha256(f"{len(trace)}:{trace.n}:{trace.final_time_us}:".encode())
    for arr in (trace.times, trace.states, trace.update_counts, trace.one_counts):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def matrix_net(*sizes):
    """One machine of uncoupled units for each of ``sizes``."""
    return NetworkSpec(
        [MachineSpec(f"m{k}", CouplingMatrix(np.zeros((n, n)), np.zeros(n), 1.0))
         for k, n in enumerate(sizes)],
        [PBitConfig(id=k, retention_us=1000) for k in range(sum(sizes))])


@st.composite
def small_machines(draw, units=(1, 8)):
    """A random machine of ``units`` (least, most) units with clamps, phases,
    jitter and a DAC, sampled at 1/200 to 2 times its units' retention
    time. Its J and h lie on the quarter grid, or in some machines off it,
    with diagonal entries up to the 1e-12 that ``CouplingMatrix`` allows,
    so that a unit's probability takes up to 2^n values."""
    n = draw(st.integers(*units))
    off_grid = not draw(st.integers(0, 2))
    grid = st.floats(-2, 2) if off_grid else st.integers(-4, 4).map(lambda k: k / 4)
    j = np.zeros((n, n))
    for a in range(n):
        if off_grid:
            j[a, a] = draw(st.floats(-1e-12, 1e-12))
        for b in range(a + 1, n):
            j[a, b] = j[b, a] = draw(grid)
    h = np.array([draw(grid) for _ in range(n)])
    i0 = draw(st.sampled_from([0.0, 0.5, 0.8, 1.5]))
    retention = draw(st.sampled_from([200, 300, 1000]))
    tau = max(1, round(retention * draw(st.sampled_from([1 / 200, 1 / 20, 0.5, 1.0, 2.0]))))
    dac_bits = draw(st.sampled_from([0, 0, 2, 4]))
    quant = QuantizationConfig(dac_bits=dac_bits, vref=5.0)
    mach = MachineSpec("m", CouplingMatrix(j, h, i0), tau_sample_us=tau, quant=quant)
    pbits = []
    for gid in range(n):
        pbits.append(PBitConfig(
            id=gid,
            retention_us=draw(st.sampled_from([retention, retention, retention + 100])),
            phase_us=draw(st.sampled_from([0, 0, 50, retention])),
            jitter_fraction=draw(st.sampled_from([0.0, 0.0, 0.01, 0.3])),
            mode=draw(st.sampled_from([FREE, FREE, FREE, CLAMPED_HIGH, CLAMPED_LOW])),
        ))
    net = NetworkSpec([mach], pbits, {f"u{gid}": gid for gid in range(n)})
    net.validate()
    return net


budgets = st.fixed_dictionaries({}, optional={
    "max_samples": st.integers(0, 3000),
    "duration_us": st.integers(0, 300_000),
    "max_updates": st.integers(0, 3000),
}).filter(bool)


class TestComposedEngine:
    """One-machine runs of up to 8 units compose per-tick state maps; they
    must give the heap's bits under every budget and window size."""

    @settings(max_examples=150, deadline=None)
    @given(net=small_machines(), seed=st.integers(0, 2**32), budget=budgets,
           chunk=st.sampled_from([3, 64, dynamics.CHUNK]))
    def test_matches_the_heap(self, net, seed, budget, chunk):
        assert dynamics._composable(net) == "composed"
        want = heap_run(net, seed, **budget)
        with mock.patch.object(dynamics, "CHUNK", chunk):
            got = run(net, seed, **budget)
        assert digest(got) == digest(want)
        assert (got.final_time_us, len(got)) == (want.final_time_us, len(want))

    def test_tie_order_carries_across_windows(self):
        # unit 1's first update ties with unit 0's second and runs first, and
        # the pair keeps that order at every later tie
        mach = MachineSpec("m", CouplingMatrix(np.zeros((2, 2)), np.zeros(2), 0.0),
                           tau_sample_us=100)
        net = NetworkSpec([mach], [PBitConfig(id=0, retention_us=1000),
                                   PBitConfig(id=1, retention_us=1000, phase_us=1000)])
        trace = run(net, 3, max_updates=50)
        events = update_order(net, 3, trace.update_counts)
        assert events[1:5] == [(1000, 1), (1000, 0), (2000, 1), (2000, 0)]

    def test_untabulated_machines_step_the_heap(self):
        # the machine count alone picks the engine: a one-machine run past
        # COMPOSED_UNITS takes the merged walk, at any size, and a network of
        # several machines the flip-driven engine, whatever their sizes; no
        # network steps the heap
        assert dynamics._composable(matrix_net(9)) == "merged"
        assert dynamics._composable(matrix_net(dynamics.TABLE_UNITS + 1)) == "merged"
        assert dynamics._composable(matrix_net(dynamics.TABLE_UNITS + 1, 1)) == "flips"
        assert dynamics._composable(and_net()) == "composed"
        assert dynamics._composable(two_and_net(1000, 1000)) == "flips"

    @pytest.mark.parametrize("net, budget", [
        (and_net, {"max_updates": 100}),
        (and_net, {"max_samples": 100}),
        (lambda: two_and_net(1000, 1000), {"max_updates": 100}),
        (lambda: two_and_net(1000, 1000), {"max_samples": 100}),
        (lambda: matrix_net(dynamics.TABLE_UNITS + 1, 1), {"max_updates": 100}),
        (lambda: matrix_net(dynamics.TABLE_UNITS + 1), {"max_updates": 100}),
    ], ids=["max_updates", "max_samples",
            "two_machines_max_updates", "two_machines_max_samples",
            "untabulated_max_updates", "one_untabulated_machine_max_updates"])
    def test_update_budgets_step_the_heap(self, monkeypatch, net, budget):
        # no budget steps the heap: one machine composes maps or takes the
        # merged walk, and several machines, one of them past TABLE_UNITS
        # too, take the flip-driven engine, under every budget, the update
        # budget cut from their schedules
        steps = []
        step = Simulator.step
        monkeypatch.setattr(Simulator, "step", lambda sim: steps.append(sim) or step(sim))
        run(net(), seed=1, **budget)
        assert steps == []


def compose_window_by_updates(p, tau, state, times, u):
    """``dynamics._compose_window`` with one map per tick row: each unit's
    last update in a tick scattered into that row's map, and the ones
    counted over every update at once."""
    n = len(times)
    counts = [len(t) for t in times]
    times, u = np.concatenate(times), np.concatenate(u)
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
    flat, states = maps.ravel(), [state]
    for base in range(0, flat.size, len(p)):
        state = flat.item(base + state)
        states.append(state)
    states = np.array(states)
    before, after = states[:-1], states[1:]
    moved = after != before
    ones = np.bincount(gids[p[before[at], gids] > u], minlength=n)
    return ones, ticks[moved] * tau, after[moved], state


def probabilities(net):
    """p[state, unit] of a one-machine network, as the composed engine reads it."""
    machines = dynamics._Machines(net, 0, dynamics.CHUNK)
    return np.array([machines.row(0, local) for local in range(1 << net.n_total)])


def row_levels(p, tau, times, u):
    """Each tick row of a window, by its unit g's level in column g: 0 if g
    did not update in the tick, else 1 + the number of states in which g's
    last update there fires, those where p[:, g] exceeds its ``u``."""
    ticks = np.unique(np.concatenate(times) // tau)
    levels = np.zeros((len(ticks), len(times)), dtype=np.int64)
    for g, (t, x) in enumerate(zip(times, u)):
        # the first of each tick in reverse order is the tick's last update
        at, last = np.unique((t // tau)[::-1], return_index=True)
        levels[ticks.searchsorted(at), g] = 1 + (p[:, g] > x[::-1][last, None]).sum(1)
    return levels


def compose(p, tau, state, times, u):
    """``dynamics._compose_window`` with the ranks the composed engine
    reads from p once per run."""
    return dynamics._compose_window(p, *dynamics._ranks(p), tau, state, times, u)


def assert_same_window(got, want):
    assert [a.tolist() for a in got[:3]] == [a.tolist() for a in want[:3]]
    assert got[3] == want[3]
    assert [a.dtype for a in got[:3]] == [np.int64] * 3


class TestComposeWindow:
    """``_compose_window`` builds one map per distinct row of levels; it
    must give what one map per tick row gives."""

    @settings(max_examples=100, deadline=None)
    @given(net=small_machines(), data=st.data())
    def test_matches_one_map_per_tick(self, net, data):
        n, p = net.n_total, probabilities(net)
        # at a tick of 1 us a unit updates at most once a tick, at 50 us
        # often many times
        tau = data.draw(st.sampled_from([1, 7, 50]))
        times = [np.array(sorted(data.draw(st.sets(st.integers(0, 300), max_size=30))),
                          dtype=np.int64) for _ in range(n)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        u = [rng.random(len(t)) for t in times]
        for g, x in enumerate(u):
            # some values equal a probability of the unit's, the edge of p > u
            exact = rng.random(len(x)) < 0.3
            x[exact] = rng.choice(p[:, g], exact.sum())
        state = data.draw(st.integers(0, (1 << n) - 1))
        assert_same_window(compose(p, tau, state, times, u),
                           compose_window_by_updates(p, tau, state, times, u))

    def test_codes_past_int64_stay_exact(self, monkeypatch):
        # 8 units, each with 2^8 distinct probabilities from off-grid
        # couplings and its own diagonal entry, so each takes all 2^8 + 2
        # levels: read as one base-258 number, a row's levels reach
        # 258^8 > 2^63, and rows must still be told apart exactly
        rng = np.random.default_rng(8)
        j = np.triu(rng.uniform(-1, 1, (8, 8)), 1)
        j = j + j.T + np.diag(np.full(8, 1e-12))
        mach = MachineSpec("m", CouplingMatrix(j, rng.uniform(-1, 1, 8), 0.5))
        net = NetworkSpec([mach], [PBitConfig(id=k, retention_us=1000) for k in range(8)])
        p = probabilities(net)
        values = [np.unique(p[:, g]) for g in range(8)]
        assert list(map(len, values)) == [256] * 8 and 258 ** 8 > 2 ** 63
        # the first two ticks' levels differ by the base-258 digits of 2^64,
        # so as one int64 number each, unit 0 highest, they would be equal
        digits = [2 ** 64 // 258 ** (7 - g) % 258 for g in range(8)]
        first, second = digits[:7] + [digits[7] + 1], [0] * 7 + [1]
        times, u = [[] for _ in range(8)], [[] for _ in range(8)]
        for tick, levels in enumerate([first, second]):
            for g, level in enumerate(levels):
                if level:
                    times[g].append(10 * tick + g)
                    # a u exceeded in level - 1 states
                    u[g].append(values[g][256 - level] if level < 257 else 0.0)
        # then every unit updates once or twice in each of 200 more ticks
        for g in range(8):
            times[g] = np.append(times[g], np.sort(rng.choice(2000, 300, replace=False)) + 20)
            u[g] = np.append(u[g], rng.random(300))
        assert row_levels(p, 10, times, u)[:2].tolist() == [first, second]
        built = []
        tick_maps = dynamics._tick_maps
        monkeypatch.setattr(dynamics, "_tick_maps",
                            lambda ranks, levels: built.append(len(levels[0]))
                            or tick_maps(ranks, levels))
        assert_same_window(compose(p, 10, 0, times, u),
                           compose_window_by_updates(p, 10, 0, times, u))
        assert built == [len(np.unique(row_levels(p, 10, times, u), axis=0))]


class TestUpdateLimit:
    def test_counts_updates_at_the_mean_interval(self):
        # and_breakdown_400ms at a jitter of 0.9999: a unit's shortest
        # interval is 20 us, but its intervals average its 200,000 us
        # retention, so its 500,000 samples of 400,000 us draw about
        # 1,000,001 updates a unit. Counted at the shortest interval, the
        # run was refused at 3e10
        doc = dict(load_scenario(SCENARIOS / "and_breakdown_400ms.json"),
                   jitter_fraction=0.9999)
        net = build_network(doc)
        assert {p.jitter_fraction for p in net.pbits} == {0.9999}
        dynamics._check_horizon(net.pbits, [400_000], doc["samples"], None, None)


@st.composite
def small_networks(draw):
    """A random network of 2-4 machines of 1-4 units each, with clamps,
    phases, jitter, a DAC, and zero-delay and delayed wires between
    machines, none of them wired in both directions. In some networks every
    unit has the same retention, no jitter, and a phase of 0 or one
    retention, so that updates tie at every instant, in an order that a
    unit's first update changes."""
    grid = st.integers(-4, 4).map(lambda k: k / 4)
    i0 = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]))
    retention = draw(st.sampled_from([200, 300, 1000]))
    ties = draw(st.booleans())
    machines, pbits = [], []
    for k in range(draw(st.integers(2, 4))):
        n = draw(st.integers(1, 4))
        j = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                j[a, b] = j[b, a] = draw(grid)
        h = np.array([draw(grid) for _ in range(n)])
        tau = max(1, round(retention * draw(st.sampled_from([1 / 200, 1 / 20, 0.5, 1.0]))))
        quant = QuantizationConfig(dac_bits=draw(st.sampled_from([0, 0, 3])), vref=5.0)
        machines.append(MachineSpec(f"m{k}", CouplingMatrix(j, h, i0), tau_sample_us=tau,
                                    quant=quant))
        for _ in range(n):
            pbits.append(PBitConfig(
                id=len(pbits),
                retention_us=retention if ties else draw(
                    st.sampled_from([retention, retention + 100, 2 * retention])),
                phase_us=draw(st.sampled_from([0, 0, retention] if ties else [0, 0, 50, retention])),
                jitter_fraction=0.0 if ties else draw(st.sampled_from([0.0, 0.01, 0.3])),
                mode=draw(st.sampled_from([FREE, FREE, FREE, CLAMPED_HIGH, CLAMPED_LOW])),
            ))
    net = NetworkSpec(machines, pbits, {f"u{gid}": gid for gid in range(len(pbits))})
    machine_of = net.machine_of()
    pairs = set()
    for dst in range(len(pbits)):
        if not draw(st.integers(0, 2)):
            src = draw(st.integers(0, len(pbits) - 1))
            m_src, m_dst = machine_of[src], machine_of[dst]
            if m_src != m_dst and (m_dst, m_src) not in pairs:
                pairs.add((m_src, m_dst))
                delay = draw(st.sampled_from([0, 0, 0, 50, retention, 10 * retention]))
                pbits[dst] = dataclasses.replace(pbits[dst], mode=Wired(src, delay))
    net.validate()
    return net


@st.composite
def large_networks(draw):
    """A ``small_networks`` network behind a random machine of 9 to 20 units
    (``small_machines``), past ``COMPOSED_UNITS`` and in some networks past
    ``TABLE_UNITS``. Where some unit of the others reads no wire, a wire of
    zero or positive delay runs from the large machine into it, and in some
    networks another back from a third machine."""
    big, rest = draw(small_machines(units=(dynamics.COMPOSED_UNITS + 1, 20))), draw(small_networks())
    shift = big.n_total
    pbits = list(big.pbits)
    for p in rest.pbits:
        mode = Wired(p.mode.source + shift, p.mode.delay_us) if isinstance(p.mode, Wired) else p.mode
        pbits.append(dataclasses.replace(p, id=p.id + shift, mode=mode))
    net = NetworkSpec(big.machines + rest.machines, pbits)
    machine_of = net.machine_of()
    delays = st.sampled_from([0, 0, 50, 1000])
    unwired = [g for g in range(shift, len(pbits)) if not isinstance(pbits[g].mode, Wired)]
    if unwired:
        dst = draw(st.sampled_from(unwired))
        pbits[dst] = dataclasses.replace(pbits[dst], mode=Wired(
            draw(st.integers(0, shift - 1)), draw(delays)))
        if draw(st.booleans()):
            src = draw(st.sampled_from([g for g in range(shift, len(pbits))
                                        if machine_of[g] != machine_of[dst]]))
            back = draw(st.integers(0, shift - 1))
            pbits[back] = dataclasses.replace(pbits[back], mode=Wired(src, draw(delays)))
    net = NetworkSpec(net.machines, pbits, {f"u{gid}": gid for gid in range(len(pbits))})
    net.validate()
    return net


class TestFlipEngine:
    """Runs on several machines go to the flip-driven engine, however large
    one of them is; under every budget and window size it must give the
    heap's bits, end time and length."""

    @staticmethod
    def _check(net, seed, budget, chunk):
        assert dynamics._composable(net) == "flips"
        want = heap_run(net, seed, **budget)
        with mock.patch.object(dynamics, "CHUNK", chunk):
            got = run(net, seed, **budget)
        assert digest(got) == digest(want)
        assert (got.final_time_us, len(got)) == (want.final_time_us, len(want))

    @settings(max_examples=200, deadline=None)
    @given(net=small_networks(), seed=st.integers(0, 2**32), budget=budgets,
           chunk=st.sampled_from([3, 64, dynamics.CHUNK]))
    def test_matches_the_heap(self, net, seed, budget, chunk):
        self._check(net, seed, budget, chunk)

    @settings(max_examples=40, deadline=None)
    @given(net=large_networks(), seed=st.integers(0, 2**32), budget=budgets,
           chunk=st.sampled_from([3, 64, dynamics.CHUNK]))
    def test_a_large_machine_among_several_matches_the_heap(self, net, seed, budget, chunk):
        self._check(net, seed, budget, chunk)


class TestMergedEngine:
    """A run on one machine of more than ``COMPOSED_UNITS`` units walks its
    updates in time order; under every budget and window size it must give
    the heap's bits, end time and length."""

    @settings(max_examples=100, deadline=None)
    @given(net=small_machines(units=(dynamics.COMPOSED_UNITS + 1, 20)),
           seed=st.integers(0, 2**32), budget=budgets, block=st.sampled_from([3, 64, 256]))
    def test_matches_the_heap(self, net, seed, budget, block):
        assert dynamics._composable(net) == "merged"
        want = heap_run(net, seed, **budget)
        with mock.patch.object(dynamics, "BLOCK", block):
            got = run(net, seed, **budget)
        assert digest(got) == digest(want)
        assert (got.final_time_us, len(got)) == (want.final_time_us, len(want))


@pytest.mark.parametrize("budget", [{"max_samples": 2000}, {"max_updates": 3000}],
                         ids=["samples", "updates"])
@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_every_engine_runs_a_scenario_alike(path, budget):
    # every shipped scenario's network, forced onto each engine that can
    # take it: the heap and the flip-driven engine take any network, the
    # merged walk one machine, and the composed engine one machine of up to
    # COMPOSED_UNITS units; all of them give one trace
    doc = load_scenario(path)
    net = build_network(doc)
    engines = ["heap", "flips"]
    if len(net.machines) == 1:
        engines.append("merged")
        if net.n_total <= dynamics.COMPOSED_UNITS:
            engines.append("composed")
    assert dynamics._composable(net) in engines
    digests = {engine: digest(forced_run(engine, net, doc["seed"], **budget))
               for engine in engines}
    assert len(set(digests.values())) == 1, digests


def table_dependence(volts) -> int:
    """The local mask of the bits that some voltage in table ``volts``,
    v[state, unit] over every local state, depends on; a wired unit's
    column, a rail, depends on none. The flip-driven engine's former rule,
    kept as the reference for ``_couplings``."""
    n = volts.shape[1]
    dep = 0
    for k in range(n):
        # the states without unit k's bit, and the same states with it
        halves = volts.reshape(1 << k, 2, -1, n)
        if np.any(halves[:, 0] != halves[:, 1]):
            dep |= 1 << (n - 1 - k)
    return dep


def table_rules(run_):
    """The dependence masks and constant units of a ``_FlipRun`` by the
    former rules: each machine's voltages tabulated over its local states,
    a machine depending on the bits that change some voltage, and a unit
    constant if it is not wired and its column is the same in every state."""
    tables = [weight_inputs(mach.coupling, bit_rows(0, 1 << mach.n, mach.n), modes, mach.quant)
              for mach, modes in zip(run_.machines, run_.modes)]
    deps = [table_dependence(t) << shift for t, shift in zip(tables, run_.shifts)]
    fixed = np.concatenate([np.all(t == t[0], axis=0) for t in tables])
    return deps, [bool(c) and not w for c, w in zip(fixed, run_.wired)]


def saturated_net():
    """Two machines, the first one's unit 0 driven past the saturation
    limit in every state: its voltage is the rail, though its row of J is
    not zero, so J says that it can change and that bit 1 matters, and the
    table says neither. Unit 1 is read by nothing else, so by J it is an
    eager unit and by the table it is not."""
    first = CouplingMatrix(np.array([[0.0, 0.25, 0.0], [0.25, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                           np.array([8.0, 0.0, -0.25]), 1.0)
    second = CouplingMatrix(np.array([[0.0, -0.5], [-0.5, 0.0]]), np.array([0.25, 0.0]), 1.0)
    pbits = [PBitConfig(id=k, retention_us=300 + 50 * k, phase_us=20 * k) for k in range(5)]
    pbits[3] = PBitConfig(id=3, retention_us=300, mode=Wired(source=2))
    net = NetworkSpec([MachineSpec("sat", first, tau_sample_us=100),
                       MachineSpec("pair", second, tau_sample_us=150)], pbits)
    net.validate()
    return net


class TestCouplingRule:
    """The flip-driven engine reads which bits each machine depends on, and
    which units publish one voltage in every state, off J (``_couplings``).
    It must give the table rules' answer on every shipped network, and may
    only over-report a dependence elsewhere, which changes no bit."""

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
    def test_scenarios_match_the_table_rules(self, path):
        run_ = dynamics._FlipRun(build_network(load_scenario(path)), seed=0)
        assert (run_.dep_masks, run_.constant) == table_rules(run_)

    @settings(max_examples=100, deadline=None)
    @given(net=st.one_of(small_machines(units=(1, 10)), small_networks()))
    def test_covers_the_table_rules(self, net):
        run_ = dynamics._FlipRun(net, seed=0)
        deps, constant = table_rules(run_)
        assert all(dep & ~j_dep == 0 for dep, j_dep in zip(deps, run_.dep_masks))
        assert all(c for j_c, c in zip(run_.constant, constant) if j_c)

    def test_saturated_machine_keeps_the_heap_bits(self):
        net = saturated_net()
        run_ = dynamics._FlipRun(net, seed=0)
        deps, constant = table_rules(run_)
        assert (deps[0], run_.dep_masks[0]) == (0b10000, 0b11000)
        assert (constant[0], run_.constant[0]) == (True, False)
        assert run_.eager[:3] == [True, True, True]
        assert dynamics._composable(net) == "flips"
        for budget in ({"max_samples": 3000}, {"max_updates": 5000}, {"duration_us": 200_000}):
            want, got = heap_run(net, 5, **budget), run(net, 5, **budget)
            assert digest(got) == digest(want)
            assert (got.final_time_us, len(got)) == (want.final_time_us, len(want))


class TestUpdateOrder:
    """No engine logs its updates; ``update_order`` rebuilds, from the
    schedules and a run's update counts, the order in which the event heap
    runs them, under every kind of budget."""

    @settings(max_examples=60, deadline=None)
    @given(net=st.one_of(small_machines(), small_networks()), seed=st.integers(0, 2**32),
           budget=st.fixed_dictionaries({}, optional={
               "max_samples": st.integers(0, 3000),
               "duration_us": st.integers(0, 300_000),
               "max_updates": st.integers(0, 3000),
           }).filter(bool), chunk=st.sampled_from([3, 64, dynamics.CHUNK]))
    def test_matches_the_heap(self, net, seed, budget, chunk):
        # a chunk of 3 or 64 spreads the walk over many windows, so the
        # ranks carry across them and a cut's second walk takes several
        log, update = [], Simulator._update
        with mock.patch.object(Simulator, "_update",
                               lambda sim, t, gid: log.append((t, gid)) or update(sim, t, gid)):
            trace = heap_run(net, seed, **budget)
        with mock.patch.object(dynamics, "CHUNK", chunk):
            assert update_order(net, seed, trace.update_counts) == log


def rank_ties(times, units, last_t, last_rank) -> dict:
    """``dynamics._tied_ranks`` keyed by ``(g, i)``, unit g's update
    ``times[g][i]``: the rank of every tied update, and no entry for any
    other."""
    units = list(units)
    hit, within = dynamics._tied_ranks(times, units, last_t, last_rank)
    starts = np.cumsum([0] + [len(times[g]) for g in units])
    place = starts.searchsorted(hit, "right") - 1
    owner = np.array(units, dtype=np.int64)[place]
    return dict(zip(zip(owner.tolist(), (hit - starts[place]).tolist()), within.tolist()))


def rank_ties_by_instant(times, units, last_t, last_rank) -> dict:
    """``rank_ties`` instant by instant: each tied update keyed by its
    previous update's time and rank, the rank already given to it."""
    rank = {}
    events = sorted((int(t), g, i) for g in units for i, t in enumerate(times[g]))
    for t, group in itertools.groupby(events, key=lambda e: e[0]):
        group = list(group)
        if len(group) < 2:
            continue
        keyed = sorted(((int(times[g][i - 1]), rank.get((g, i - 1), 0)) if i
                        else (last_t[g], last_rank[g]), g, i) for _, g, i in group)
        rank.update(((g, i), r) for r, (_, g, i) in enumerate(keyed))
    return rank


class TestTieRanks:
    """``_tied_ranks`` ranks every tied instant at once by pointer jumping;
    it must give the ranks of the rule applied one instant at a time."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), span=st.integers(0, 40))
    def test_matches_the_rule_by_instant(self, data, n, span):
        # few distinct times, so that ties and long chains of ties are common
        times = [np.array(sorted(data.draw(st.sets(st.integers(0, span), max_size=30))),
                          dtype=np.int64) for _ in range(n)]
        units = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        last_t = [data.draw(st.integers(-3, -1)) for _ in range(n)]
        last_rank = data.draw(st.permutations(range(n)))
        assert rank_ties(times, units, last_t, last_rank) == \
            rank_ties_by_instant(times, units, last_t, last_rank)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 8), lockstep=st.booleans(),
           chunk=st.sampled_from([3, 8, 64]), stop=st.integers(100, 2000))
    def test_a_subset_keeps_the_order_of_all_units(self, data, n, lockstep, chunk, stop):
        # the flip engine ranks only the ends of zero-delay wires: over many
        # windows, the ranks ``_tie_ranks`` gives a subset must order each
        # instant's members as ranking every unit does, and be 0, 1, ...
        # among them, with 0 for every other unit
        retention = data.draw(st.sampled_from([3, 4, 6]))
        pbits = [PBitConfig(
            id=g,
            retention_us=retention if lockstep else data.draw(st.sampled_from([3, 4, 6])),
            phase_us=data.draw(st.sampled_from([0, 0, 3, retention])),
            jitter_fraction=0.0 if lockstep else data.draw(st.sampled_from([0.0, 0.3])),
        ) for g in range(n)]
        units = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))

        def walk(ranked):
            schedules = [dynamics._Schedule(np.random.default_rng([7, g]), p, chunk)
                         for g, p in enumerate(pbits)]
            return dynamics._tie_ranks(dynamics._windows(schedules, chunk, stop), ranked)

        for (_, times, _, some), (_, same, _, every) in zip(walk(units), walk(range(n))):
            assert all(np.array_equal(a, b) for a, b in zip(times, same))
            assert not any(some[g].any() for g in range(n) if g not in units)
            at = np.concatenate([times[g] for g in units])
            sub = np.concatenate([some[g] for g in units])
            order = np.lexsort((sub, at))
            assert order.tolist() == np.lexsort((np.concatenate([every[g] for g in units]),
                                                 at)).tolist()
            first = at[order].searchsorted(at[order])
            assert sub[order].tolist() == (np.arange(len(at)) - first).tolist()

    def test_lockstep_units_keep_their_order(self):
        # three units in lockstep from t = 0 run in unit order at every
        # instant, and a fourth that starts one step late runs first
        times = [np.arange(0, 50, 5)] * 3 + [np.arange(5, 50, 5)]
        rank = rank_ties(times, range(4), [-1] * 4, list(range(4)))
        assert [rank[(g, 3 - (g == 3))] for g in range(4)] == [1, 2, 3, 0]


@st.composite
def periodic_networks(draw):
    """A random network of ``small_machines`` or ``small_networks`` with a
    sampling period drawn for each machine: periods that divide each other,
    coprime ones, and primes whose lcm lies past any run."""
    net = draw(st.one_of(small_machines(), small_networks()))
    for mach in net.machines:
        mach.tau_sample_us = draw(st.sampled_from([1, 2, 3, 7, 60, 97, 300, 1000,
                                                   99_991, 100_003]))
    return net


class TestSampleCounts:
    """A trace holds its run's flip log; ``sample_count`` counts the samples
    each flip's mask holds for, and every count must equal the one read off
    the per-sample arrays, under every budget, burn-in and set of units."""

    @settings(max_examples=100, deadline=None)
    @given(net=periodic_networks(), seed=st.integers(0, 2**32), data=st.data(),
           budget=st.fixed_dictionaries({}, optional={
               "max_samples": st.integers(0, 3000),
               "duration_us": st.integers(0, 300_000),
               "max_updates": st.integers(0, 3000),
           }).filter(bool),
           burn_in=st.floats(0.0, 1.0, exclude_max=True))
    def test_counts_match_the_sample_arrays(self, net, seed, data, budget, burn_in):
        trace = run(net, seed, **budget)
        times, states = trace.times, trace.states
        assert len(trace) == len(times)
        # the run ends at its last update or its last sample, whichever is later
        updates = update_order(net, seed, trace.update_counts)
        assert trace.final_time_us == max([updates[-1][0] if updates else 0]
                                          + times[-1:].tolist())
        x = data.draw(st.lists(st.integers(-1, 2 * trace.final_time_us + 1), max_size=20))
        lattice = dynamics.sample_times(trace.taus, max(x, default=-1))
        assert sample_count(trace.taus, x).tolist() == lattice.searchsorted(x, "right").tolist()
        if len(times):
            index = data.draw(st.integers(0, len(times) - 1))
            assert sample_time(trace.taus, index) == times[index]

        units = data.draw(st.lists(st.integers(0, net.n_total - 1), min_size=1, unique=True))
        visible = {f"u{g}": g for g in units}
        discard = int(len(times) * burn_in)
        if discard == len(times):
            with pytest.raises(ConfigurationError):
                histogram(trace, visible, burn_in)
            return
        dist = histogram(trace, visible, burn_in)
        want = np.bincount(project(states[discard:], net.n_total, units),
                           minlength=1 << len(units))
        assert dist.counts.dtype == np.int64
        assert dist.counts.tolist() == want.tolist()
        assert (dist.total, dist.burn_in_discarded) == (len(times) - discard, discard)


@st.composite
def period_sets(draw):
    """One to four periods, each a product of small primes: periods that
    share factors, periods that divide others, and co-prime pairs."""
    period = st.builds(math.prod, st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=4))
    return draw(st.lists(period, min_size=1, max_size=4))


class TestSampleTime:
    """``sample_time`` searches in Python ints by the rule of
    ``_lattice_terms``; each of the first 201 samples must fall where the
    union of the lattices puts it."""

    @staticmethod
    def _check(taus):
        times = dynamics.sample_times(taus, 200 * min(taus))
        assert [sample_time(taus, index) for index in range(201)] == times[:201].tolist()
        assert sample_count(taus, times[:201]).tolist() == list(range(1, 202))

    @settings(max_examples=100, deadline=None)
    @given(taus=period_sets())
    def test_matches_the_lattices(self, taus):
        self._check(taus)

    def test_lcm_past_the_time_limit(self):
        # four co-prime periods whose lcm passes TIME_LIMIT_US, so the term
        # of all four is clipped there; any three stay below it
        taus = [1_000_003, 1_000_033, 1_000_037, 1_000_039]
        assert math.prod(taus) > dynamics.TIME_LIMIT_US > math.prod(taus[1:])
        assert (dynamics.TIME_LIMIT_US, -1) in dynamics._lattice_terms(taus)
        self._check(taus)
