"""Golden digests: short runs must reproduce their exact bits.

Each case pins the sha256 of a short trace (sample times, state masks and
per-unit update and one counts), of the files a CLI command writes, or of a
built network (every machine's and unit's parameters and the labels). The
budget cases also pin the run's reported end time and sample count, so they
show where each budget (and each mix of budgets) stops a run. A
refactor of the engine, the builders or the CLI must leave every digest
unchanged. A digest may change only together with a CHANGES.md line that
says why the output changed on purpose. The digests rest on numpy's PCG64
stream and IEEE-754 doubles, like every replay in this package.
"""

import hashlib
import json
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from pbitsim import dynamics
from pbitsim.analysis import histogram
from pbitsim.cli import build_network, main
from pbitsim.core import CLAMPED_HIGH, PBitConfig, Wired
from pbitsim.dynamics import BLOCK, TABLE_UNITS, Simulator, run, sample_time, update_order
from pbitsim.networks import (
    MachineSpec,
    NetworkSpec,
    build_and_machine,
    build_factorizer,
    build_full_adder,
    build_rca4,
    load_gate,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SAMPLES = 3000


def trace_digest(trace) -> str:
    h = hashlib.sha256(f"{len(trace)}:{trace.n}:".encode())
    for arr in (trace.times, trace.states, trace.update_counts, trace.one_counts):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def scenario_net(network, **doc):
    return build_network({"name": "golden", "seed": 0, "network": network, **doc})


def delayed_wire_net():
    """Two coupled 2-unit machines; unit 2 follows unit 0 through a 500 us
    wire, and the retention times differ so the wire history is consulted
    between its entries."""
    gate = load_gate("copy")
    mach = lambda name: MachineSpec(name, gate.coupling(1.0), tau_sample_us=100)
    pbits = [PBitConfig(id=k, retention_us=r) for k, r in enumerate([700, 1000, 1300, 900])]
    pbits[2] = PBitConfig(id=2, retention_us=1300, mode=Wired(source=0, delay_us=500))
    net = NetworkSpec([mach("src"), mach("dst")], pbits, {"SRC": 0, "DST": 2})
    net.validate()
    return net


def block_refill_net():
    """The delayed-wire pair with every unit jittered and unit 1 clamped
    high: each jittered update consumes two draws of its unit's stream, and
    the clamped unit still draws on every update."""
    gate = load_gate("copy")
    mach = lambda name: MachineSpec(name, gate.coupling(1.0), tau_sample_us=100)
    pbits = [PBitConfig(id=k, retention_us=r, jitter_fraction=0.02)
             for k, r in enumerate([700, 1000, 1300, 900])]
    pbits[1] = PBitConfig(id=1, retention_us=1000, jitter_fraction=0.02, mode=CLAMPED_HIGH)
    pbits[2] = PBitConfig(id=2, retention_us=1300, jitter_fraction=0.02,
                          mode=Wired(source=0, delay_us=500))
    net = NetworkSpec([mach("src"), mach("dst")], pbits, {"SRC": 0, "DST": 2})
    net.validate()
    return net


def phased_net():
    net = scenario_net({"kind": "gate", "gate": "and", "i0": 0.8, "tau_sample_us": 100},
                       retention_us=1000)
    net.set_phases([0, 333, 666])
    return net


def two_period_net():
    """Two coupled 2-unit machines refreshing every 300 and 700 us, with a
    zero-delay wire from unit 0 to unit 2: the sample lattice is the union
    of two periods that do not divide each other."""
    gate = load_gate("copy")
    mach = lambda name, tau: MachineSpec(name, gate.coupling(1.0), tau_sample_us=tau)
    pbits = [PBitConfig(id=k, retention_us=r, jitter_fraction=0.01)
             for k, r in enumerate([1100, 1500, 1300, 1700])]
    pbits[2] = PBitConfig(id=2, retention_us=1300, jitter_fraction=0.01,
                          mode=Wired(source=0, delay_us=0))
    net = NetworkSpec([mach("src", 300), mach("dst", 700)], pbits, {"SRC": 0, "DST": 2})
    net.validate()
    return net


def tie_net():
    """Three coupled 2-unit machines whose units all update at the same
    instants (retention 1000 us, phase 0, no jitter), with two zero-delay
    wires: unit 2 reads unit 0, which comes before it at every tie, and
    unit 1 reads unit 4, which comes after it."""
    gate = load_gate("copy")
    mach = lambda name: MachineSpec(name, gate.coupling(1.0), tau_sample_us=100)
    pbits = [PBitConfig(id=k, retention_us=1000, jitter_fraction=0.0) for k in range(6)]
    pbits[1] = PBitConfig(id=1, retention_us=1000, jitter_fraction=0.0, mode=Wired(source=4))
    pbits[2] = PBitConfig(id=2, retention_us=1000, jitter_fraction=0.0, mode=Wired(source=0))
    net = NetworkSpec([mach("a"), mach("b"), mach("c")], pbits, {"A": 0, "B": 2, "C": 4})
    net.validate()
    return net


def late_source_tie_net():
    """``tie_net`` with unit 4 first updating at 1000 us: there its first
    update comes before unit 1's second, so unit 1 reads unit 4's new bit,
    and the pair keeps that order at every later instant."""
    net = tie_net()
    net.set_phases([0, 0, 0, 0, 1000, 0])
    return net


def fast_and_net():
    return scenario_net({"kind": "gate", "gate": "and", "i0": 0.8, "tau_sample_us": 100},
                        retention_us=2000)


def sevenths_matrix(n, retention_us=20_000):
    """A random n-unit machine with J and h in sevenths: its drives are not
    dyadic, so the last bits of its published voltages depend on the order
    in which the weight logic sums them."""
    rng = np.random.default_rng(n)
    j = np.triu(rng.integers(-7, 8, (n, n)) / 7, 1)
    return scenario_net({"kind": "matrix", "i0": 0.3, "j": (j + j.T).tolist(),
                         "h": (rng.integers(-7, 8, n) / 7).tolist(), "tau_sample_us": 1000},
                        retention_us=retention_us)


def lockstep_matrix16_net():
    """``sevenths_matrix(16)`` without jitter, its last eight units first
    updating one retention time late: at every later instant all sixteen
    tie, and the late eight run first."""
    net = sevenths_matrix(16)
    net.set_jitter(0.0)
    net.set_phases([0] * 8 + [20_000] * 8)
    return net


def slow_tick_and_net():
    """An AND gate whose units update every 2 us and whose tick is 10 ms,
    longer than a composed window's updates span."""
    return scenario_net({"kind": "gate", "gate": "and", "i0": 0.8, "tau_sample_us": 10_000},
                        retention_us=2)


FACTOR_CLAMPS = {"S0": 0, "S1": 1, "S2": 1, "S3": 0}

# name -> (network factory, run budget, digest)
TRACE_CASES = {
    "gate": (
        lambda: scenario_net({"kind": "gate", "gate": "and", "i0": 0.8}, retention_us=5000),
        {"max_samples": SAMPLES},
        "25223be84c13b84024da06697f94a76a16508cc3ce525fd01682c5e4e65c9b9d",
    ),
    "gate_clamped": (
        lambda: scenario_net({"kind": "gate", "gate": "and", "i0": 0.8},
                             retention_us=5000, clamps={"C": 0}),
        {"max_samples": SAMPLES},
        "0b8d26791a157f7cc8f12bc6597cba5b7298c825d200de8f48406f69b8696866",
    ),
    "matrix": (
        lambda: scenario_net({"kind": "matrix", "i0": 0.7,
                              "j": [[0, 1, -0.5], [1, 0, 0.25], [-0.5, 0.25, 0]],
                              "h": [0.5, -1, 0]}, retention_us=5000),
        {"max_samples": SAMPLES},
        "efb03f88e64f2f94d923b142a0dc954628f6521ab478005a562de2aa9e08c0f0",
    ),
    "full_adder": (
        lambda: scenario_net({"kind": "full_adder", "i0": 1.0, "tau_sample_us": 2000},
                             retention_us=20_000),
        {"max_samples": SAMPLES},
        "a033236ea5cf30b4380b9e36fb2c47ae66931a8d22a75068b1a239fd505d0fc1",
    ),
    "rca4": (
        lambda: scenario_net({"kind": "rca4", "i0": 1.0, "tau_sample_us": 2000},
                             retention_us=20_000, clamps={"S0": 1, "S2": 1}),
        {"max_samples": SAMPLES},
        "ef68931cec1212dd0211761c927a2b4c1587baafcf08110f2cd93c854dcc9dbb",
    ),
    "factorizer": (
        lambda: scenario_net({"kind": "factorizer", "i0": 1.5, "tau_sample_us": 2000},
                             retention_us=20_000, clamps=FACTOR_CLAMPS),
        {"max_samples": SAMPLES},
        "4b157e1818bbe45f81e2e8d9b0a154dafceb8089c609115fce639154c8a76f41",
    ),
    "factorizer_max_updates": (
        lambda: scenario_net({"kind": "factorizer", "i0": 1.5}, clamps=FACTOR_CLAMPS),
        {"max_updates": 20_000},
        "bf7450cf6d9374b6b5f1b931b65d3fc0a6f55ff0b9b4e7e637d2e460304a8a53",
    ),
    "jitter": (
        lambda: scenario_net({"kind": "gate", "gate": "and", "i0": 0.8, "tau_sample_us": 100},
                             retention_us=1000, jitter_fraction=0.05),
        {"max_samples": SAMPLES},
        "385cac9eef6358a904f37216c2c45b78c1acc02c4904cb299d377f207f89ff61",
    ),
    "phases": (
        phased_net,
        {"max_samples": SAMPLES},
        "0450033a6060a15994930a847c9e50b384768d0b5316c0748b32531a955291bb",
    ),
    "delayed_wire": (
        delayed_wire_net,
        {"max_samples": SAMPLES},
        "4be8a9cc2c6979b672d1da3da424c88e083ebfd0949350f7ececa6991c227490",
    ),
    # every unit updates at least 4,000 times
    "block_refills": (
        block_refill_net,
        {"max_updates": 24_000},
        "832d5d4ad66b43b2062395df64f83e5afd7adc86c573fdd2406366800126c61a",
    ),
    # at i0 = 0 every free unit flips half the time: the 13-unit machines
    # visit more local states than a machine's weight-logic cache holds
    "memo_overflow": (
        lambda: scenario_net({"kind": "factorizer", "i0": 0.0, "tau_sample_us": 2000},
                             retention_us=20_000, clamps=FACTOR_CLAMPS),
        {"max_samples": 5000},
        "f9ec3dcfcfe254be906b0ae2035bd6a93f81970323e2ebd427804d32d6361248",
    ),
    # a one-machine composite on the merged walk, through a 4-bit DAC
    "full_adder_dac_bits_4": (
        lambda: scenario_net({"kind": "full_adder", "i0": 1.0, "tau_sample_us": 2000,
                              "dac_bits": 4}, retention_us=20_000),
        {"max_samples": SAMPLES},
        "ec166cc06ec1dd45414a86443a13382dc4f686d282f070a8d900ce189144014d",
    ),
    # non-dyadic machines of 12 and 15 units, the second past TABLE_UNITS,
    # both on the merged walk
    "matrix12_sevenths": (
        lambda: sevenths_matrix(12),
        {"max_samples": SAMPLES},
        "ce848cde00472364387d05cfa1a904a58b3c667ec5c038aab5910036ffec7a71",
    ),
    "matrix15_sevenths": (
        lambda: sevenths_matrix(15),
        {"max_samples": SAMPLES},
        "5f651c3806700e6d796e889a12f5c74e24711f6ca268429b28e6ee9758d5d46f",
    ),
    "dac_bits_3": (
        lambda: scenario_net({"kind": "gate", "gate": "and", "i0": 0.8, "dac_bits": 3},
                             retention_us=5000),
        {"max_samples": SAMPLES},
        "6147f2fd50ba0959f0f0d6362a560b95a0f31effbcad6801e74e206377f1c150",
    ),
    # the composed engine on 8 units, whose maps are cut into many windows
    "composed_matrix8_windows": (
        lambda: sevenths_matrix(8, retention_us=200),
        {"max_samples": 5000},
        "4755ad0b517359575366e06c8f18b836365eace0f610638ecfbbbc3de9cc03f4",
    ),
    # the composed engine with every window a single tick
    "composed_slow_tick": (
        slow_tick_and_net,
        {"max_samples": 50},
        "34a75bf3188984cb7d9d6b62971d71482448417914f4d9b3b31ad328089963a8",
    ),
}


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_trace_digest(name):
    factory, budget, expected = TRACE_CASES[name]
    trace = run(factory(), seed=11, **budget)
    assert trace_digest(trace) == expected


def test_block_refills_case_refills_every_stream():
    # every unit's schedule crosses 3 refills of BLOCK updates
    factory, budget, _ = TRACE_CASES["block_refills"]
    trace = run(factory(), seed=11, **budget)
    assert trace.update_counts.min() >= 3 * BLOCK


@pytest.mark.parametrize("name, windows", [
    ("composed_matrix8_windows", lambda count, samples: count > 10),
    ("composed_slow_tick", lambda count, samples: count == samples - 1),
])
def test_composed_cases_span_their_windows(name, windows, monkeypatch):
    # the 8-unit case composes more than ten windows of maps; the slow-tick
    # case composes one window per tick that holds updates
    factory, budget, _ = TRACE_CASES[name]
    calls, compose = [], dynamics._compose_window
    monkeypatch.setattr(dynamics, "_compose_window",
                        lambda *args: calls.append(1) or compose(*args))
    net = factory()
    assert dynamics._composable(net) == "composed"
    trace = run(net, seed=11, **budget)
    assert windows(len(calls), len(trace))


def stepped_by_hand(name, monkeypatch):
    """The run of a trace case stepped by hand on the event heap: the
    simulator after it, each refresh as (machine, local state) in order, and
    each weight-logic call the same way, every call a single-state one."""
    factory, budget, _ = TRACE_CASES[name]
    sim = Simulator(factory(), seed=11)
    index = {id(mach.coupling): k for k, mach in enumerate(sim.machines)}
    calls, weight_inputs = [], dynamics.weight_inputs

    def logging_weight_inputs(coupling, outputs, *args):
        bits = np.asarray(outputs)
        assert bits.shape == (coupling.n,)
        calls.append((index[id(coupling)], int(bits @ (1 << np.arange(coupling.n)[::-1]))))
        return weight_inputs(coupling, outputs, *args)

    monkeypatch.setattr(dynamics, "weight_inputs", logging_weight_inputs)
    stop = sample_time(sim.taus, budget["max_samples"] - 1)
    refreshes = []
    while sim.queue[0][0] < stop:
        if sim.queue[0][1] == dynamics.PRIO_REFRESH:
            k = sim.queue[0][3]
            refreshes.append((k, (sim.mask >> sim.shifts[k]) & sim.local_masks[k]))
        sim.step()
    return sim, refreshes, calls


def test_memo_overflow_case_fills_a_cache(monkeypatch):
    # a 13-unit machine visits over a thousand local states; every machine
    # computes a row with one weight-logic call when it first refreshes in
    # a local state, and its cache holds a row for exactly the local states
    # it refreshed in
    sim, refreshes, calls = stepped_by_hand("memo_overflow", monkeypatch)
    assert max(sum(1 for m, _ in set(refreshes) if m == k)
               for k in range(len(sim.machines))) > 1000
    assert calls == list(dict.fromkeys(refreshes))
    for k, (mach, memo) in enumerate(zip(sim.machines, sim.memos)):
        assert mach.n <= TABLE_UNITS
        assert set(memo) == {local for m, local in refreshes if m == k}


def test_matrix15_case_fills_its_cache(monkeypatch):
    # a machine computes a row per miss and keeps at most MEMO_ENTRIES of
    # them; with room for 64 the run takes the path that finds the cache
    # full: the first 64 local states it refreshes in are kept and computed
    # once, any other is computed again at every refresh there, and its
    # bits stay the same
    monkeypatch.setattr(dynamics, "MEMO_ENTRIES", 64)
    sim, refreshes, calls = stepped_by_hand("matrix15_sevenths", monkeypatch)
    assert sim.machines[0].n == TABLE_UNITS + 1
    kept = list(dict.fromkeys(refreshes))[:64]
    assert len(set(refreshes)) > 64
    assert list(sim.memos[0]) == [local for _, local in kept]
    want, met = [], set()
    for r in refreshes:
        if r not in met or r not in kept:
            want.append(r)
        met.add(r)
    assert calls == want
    _, budget, expected = TRACE_CASES["matrix15_sevenths"]
    assert trace_digest(sim.trace(sample_time(sim.taus, budget["max_samples"] - 1))) == expected


def test_merged_run_past_the_memo(monkeypatch):
    # with room for 64 rows, the merged walk over the 15-unit machine
    # computes some local states' rows again at every refresh there, and
    # its bits stay the heap's
    monkeypatch.setattr(dynamics, "MEMO_ENTRIES", 64)
    calls, weight_inputs = [], dynamics.weight_inputs
    monkeypatch.setattr(dynamics, "weight_inputs",
                        lambda coupling, outputs, *args: calls.append(tuple(outputs))
                        or weight_inputs(coupling, outputs, *args))
    factory, budget, expected = TRACE_CASES["matrix15_sevenths"]
    net = factory()
    assert dynamics._composable(net) == "merged"
    assert trace_digest(run(net, seed=11, **budget)) == expected
    assert 64 < len(set(calls)) < len(calls)


# name -> (network factory, run budget, (digest, final_time_us, samples)):
# where each budget stops the run, and the end time it reports
BUDGET_CASES = {
    "two_period_samples": (
        two_period_net, {"max_samples": SAMPLES},
        ("4403ad81d990f16d5df751df920bce71c669ef45d3548f372d7889a0c4aa72a4",
         699900, 3000),
    ),
    "two_period_updates": (
        two_period_net, {"max_updates": 2000},
        ("ea37991bb585e42fc2cb89e02958f0ea9beab2075de5449cb104a35075399a37",
         681135, 2920),
    ),
    "two_period_duration": (
        two_period_net, {"duration_us": 1_000_000},
        ("5e7bf36d54620f8090f03ababdab9ab31fc72c6df93d9a7e5797bd4b99ac5b13",
         999900, 4286),
    ),
    "two_period_duration_on_both_lattices": (
        two_period_net, {"duration_us": 2_100_000},
        ("9864d77991846a5b385aecf0eb590122d3aa779cb7807e28437cdb7ea912fc80",
         2099901, 9000),
    ),
    "and_duration": (
        fast_and_net, {"duration_us": 1_234_567},
        ("9364f999ed6bfe5c3c08fbfbba83150c22b237fdb7bef50cb83ff2187c27182d",
         1234500, 12346),
    ),
    "and_samples_before_duration": (
        fast_and_net, {"max_samples": SAMPLES, "duration_us": 400_000},
        ("9dd2d92f405ba574bac97843bb903888a9732fef1498f79439588aa572982933",
         299900, 3000),
    ),
    "and_duration_before_samples": (
        fast_and_net, {"max_samples": SAMPLES, "duration_us": 123_457},
        ("d319fbca5f8496b467ed9f8de121e62482695b385ef22d64a30748f7d12d26fd",
         123400, 1235),
    ),
    "and_updates_before_samples": (
        fast_and_net, {"max_samples": SAMPLES, "max_updates": 250},
        ("56032d4b79cc73137992bce5253a260502d0a7a6f6d395b80c6ff95c3cda3738",
         165941, 1660),
    ),
    "and_samples_before_updates": (
        fast_and_net, {"max_samples": SAMPLES, "max_updates": 1000},
        ("9dd2d92f405ba574bac97843bb903888a9732fef1498f79439588aa572982933",
         299900, 3000),
    ),
    # every update before s*: both budgets end on the same update, and the
    # update budget binds
    "and_updates_end_with_samples": (
        fast_and_net, {"max_samples": SAMPLES, "max_updates": 450},
        ("56644b87690407a1b73632ead2c11bafa0b9d7f86fc6edb2799d9bdb71f3a2e6",
         298056, 2981),
    ),
    "and_zero_updates": (
        fast_and_net, {"max_updates": 0},
        ("96371daacf626433c4eed164758569a6d7d2f03a4c1fc098994423b267d153d4",
         0, 0),
    ),
    "and_one_sample": (
        fast_and_net, {"max_samples": 1},
        ("5cd1dde89d299c31cb7faf01f9e4eb8182f27a7c0a83ada35ba222adfe39b642",
         0, 1),
    ),
    "delayed_wire_updates": (
        delayed_wire_net, {"max_updates": 5000},
        ("cfc3a256c36182be82bcc9c9211fd7672eae8ae6ffa36539af0a84d8debcb506",
         1159900, 11600),
    ),
    "factorizer_updates": (
        TRACE_CASES["factorizer"][0], {"max_updates": 10_000},
        ("4d8ac087af25b74946a84bacf7f7ded6fa9f06007aaf2604c3f0906207f6438d",
         4339674, 2170),
    ),
    # every unit updates at t = 0 in unit order: the budget ends inside
    # that first instant
    "factorizer_updates_inside_first_instant": (
        TRACE_CASES["factorizer"][0], {"max_updates": 20},
        ("d6971eee36d3093fdf9857827be89dcff47828dd8bdca6148f3e97af49a540b3",
         0, 1),
    ),
    "tie_samples": (
        tie_net, {"max_samples": SAMPLES},
        ("ee872dfa3c18136c0cc45db86381e8aa853d379cd54868a30a455cb900c8a54b",
         299900, 3000),
    ),
    # 333 whole instants of all six units
    "tie_updates": (
        tie_net, {"max_updates": 1998},
        ("7ff13160f22c2eaff4e91d41daa240fa88243785930a7ba5de956ab2f1bb4553",
         332000, 3321),
    ),
    # the last update is the fifth of its instant's six
    "tie_updates_inside_an_instant": (
        tie_net, {"max_updates": 2003},
        ("97ff3249ca404b08f52d4e6fb0a4ae5848ad65efb7ee7e8cbc699ad2dc822743",
         333000, 3331),
    ),
    # the six lockstep units' CHUNK updates each: the budget ends on the
    # last update of the flip engine's first window
    "tie_updates_end_a_window": (
        tie_net, {"max_updates": 6 * dynamics.CHUNK},
        ("8da8b3807168d2d136e3ee63a656492c7bf5692466f0cb43ec141dc28cb99c26",
         4095000, 40951),
    ),
    # every update before s*: both budgets end on the same update, and the
    # update budget binds
    "tie_updates_end_with_samples": (
        tie_net, {"max_samples": SAMPLES, "max_updates": 1800},
        ("8fe8dc406d7c696c3cc7d74e1b2d9e7f0c2641380b7caad97f1586749d88354a",
         299000, 2991),
    ),
    "tie_duration": (
        tie_net, {"duration_us": 250_050},
        ("a62ed6488d3de002ac6d7fd4565cee43783291eb89313cda43fc4cf176b47d62",
         250000, 2501),
    ),
    "late_source_tie_samples": (
        late_source_tie_net, {"max_samples": SAMPLES},
        ("2d45841276b62e760ffbc0976c61ebd36e1b54bac17d4b1d179e0c2e2d5d427f",
         299900, 3000),
    ),
    "late_source_tie_updates_inside_an_instant": (
        late_source_tie_net, {"max_updates": 2003},
        ("22589ad9973703d1bfbd6af94520973b7b55aa40a3765d79cc765a443d0b74b8",
         333000, 3331),
    ),
    # one machine past TABLE_UNITS: the last update is the fifth of its
    # instant's sixteen, so units 8-12 update there and units 0-7 do not
    "matrix16_updates_inside_an_instant": (
        lockstep_matrix16_net, {"max_updates": 8 + 16 * 300 + 5},
        ("0d8eac6a0b4dbaf60cfead71e43a73b47824475c0012d2aacdfa2da02e0c1e63",
         6020000, 6021),
    ),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CASES))
def test_budget_stop(name):
    factory, budget, expected = BUDGET_CASES[name]
    trace = run(factory(), seed=11, **budget)
    assert (trace_digest(trace), trace.final_time_us, len(trace)) == expected


def histogram_digest(dist) -> str:
    h = hashlib.sha256(f"{dist.total}:{dist.burn_in_discarded}:{dist.labels}:".encode())
    h.update(np.ascontiguousarray(dist.counts, dtype="<i8").tobytes())
    return h.hexdigest()


# budget name -> digest: the counts of a run of ``two_period_net`` over units
# 3, 0 and 2, in that order, after a burn-in of a quarter of its samples
HISTOGRAM_CASES = {
    "two_period_samples":
        "345510aa2f9bef438a6353e7eb7c500d50304eb006bc155c548ad23ca050c34f",
    "two_period_updates":
        "cb7a03d9a7d0b226687ef06c0d445e57a4193b00b8865cf88b6f1235be5217ba",
    "two_period_duration":
        "e5bea481918816649dc9fe0468dd83259198eb7ee5231b30a151fcf60f03c6cf",
    "two_period_duration_on_both_lattices":
        "604ef72c20278003e598a86e4efec9284629c9d1e6038433eaec2a7bd3b97115",
}


@pytest.mark.parametrize("name", sorted(HISTOGRAM_CASES))
def test_histogram_digest(name):
    _, budget, _ = BUDGET_CASES[name]
    trace = run(two_period_net(), seed=11, **budget)
    dist = histogram(trace, {"D": 3, "S": 0, "W": 2}, burn_in=0.25)
    assert histogram_digest(dist) == HISTOGRAM_CASES[name]


@pytest.mark.parametrize("name", ["tie_updates_inside_an_instant",
                                  "late_source_tie_updates_inside_an_instant"])
def test_update_order_cut_inside_an_instant(name, monkeypatch):
    # the heap's order of the updates, logged as it runs them, up to a
    # budget that ends inside an instant of six tied updates; the run is
    # sent to the heap, which alone runs its updates one by one
    factory, budget, _ = BUDGET_CASES[name]
    log, update = [], Simulator._update
    monkeypatch.setattr(Simulator, "_update",
                        lambda sim, t, gid: log.append((t, gid)) or update(sim, t, gid))
    monkeypatch.setattr(dynamics, "_composable", lambda *_: "heap")
    net = factory()
    trace = run(net, seed=11, **budget)
    assert update_order(net, 11, trace.update_counts) == log


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("name", ["block_refills", "delayed_wire", "factorizer_max_updates",
                                  "two_period_updates"])
def test_heap_block_size_changes_no_bit(name, block):
    # the event heap draws each unit's updates BLOCK at a time
    factory, budget, expected = {**TRACE_CASES, **BUDGET_CASES}[name]
    with mock.patch.object(dynamics, "BLOCK", block), \
            mock.patch.object(dynamics, "_composable", lambda *_: "heap"):
        trace = run(factory(), seed=11, **budget)
    got = trace_digest(trace)
    if name in BUDGET_CASES:
        got = (got, trace.final_time_us, len(trace))
    assert got == expected


def random_matrix_scenario(n=16):
    """A random n-unit machine with J and h on the quarter grid, run with
    its oracle distance and its trace: a 2^n-row histogram."""
    rng = np.random.default_rng(n)
    j = np.triu(rng.integers(-4, 5, (n, n)) / 4, 1)
    return {
        "name": f"matrix{n}",
        "network": {"kind": "matrix", "i0": 0.5, "j": (j + j.T).tolist(),
                    "h": (rng.integers(-4, 5, n) / 4).tolist(), "tau_sample_us": 1000},
        "retention_us": 20_000,
        "seed": 5,
        "samples": 4000,
        "compare_oracle": True,
        "record_trace": True,
    }


def shipped(name):
    return lambda tmp_path: shutil.copy(SCENARIOS / name, tmp_path / name)


def written(doc):
    def write(tmp_path):
        path = tmp_path / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        return path
    return write


matrix16 = written(random_matrix_scenario())

# short composite runs that discard a burn-in fraction that cuts no lattice
# period evenly and count only some of their units, in their own order: one
# of several machines under a sample budget, on the flip-driven engine, and
# one machine under an update budget, on the merged walk
RCA4_BURN_IN = {
    "name": "rca4_burn_in",
    "network": {"kind": "rca4", "i0": 1.0, "tau_sample_us": 2000},
    "retention_us": 20_000,
    "clamps": {"S0": 1, "S2": 1},
    "seed": 7,
    "samples": 20_000,
    "burn_in": 0.37,
    "histogram_over": ["B0", "A3", "S4", "A1"],
}
FULL_ADDER_UPDATES_BURN_IN = {
    "name": "full_adder_updates_burn_in",
    "network": {"kind": "full_adder", "i0": 1.0, "tau_sample_us": 2000},
    "retention_us": 20_000,
    "jitter_fraction": 0.01,
    "seed": 8,
    "updates": 20_000,
    "burn_in": 0.37,
    "histogram_over": ["COUT", "A", "S"],
    "record_trace": True,
}


PLANS = json.dumps([[200_000] * 3, [137_000, 200_000, 263_000]])

# case -> (scenario writer, command, arguments after the scenario, {file: digest});
# the first run case reports the serialization metric over its updates
CLI_GOLDEN = {
    "run": (
        shipped("and_serialization.json"), "run", [],
        {
            "histogram.csv": "a6b77e781e2aefc3f2cd11cfcb193215016b072accb0116cb0a953dc0ccb5fc9",
            "report.json": "813b002806c017a175525ccf6b6d20a0abd24efeb6e961a025fa11f6c0f729d1",
        },
    ),
    "run-matrix16": (
        matrix16, "run", [],
        {
            "histogram.csv": "d59d9fcf4a1f087706c9d24b9fd8d9f9b1c37d4b4ba174f6a483a5726935dca5",
            "report.json": "c2c81d38c4a3f827cf0a33ec1121c998b70b9e4fbf32a67f103c71ddf6228b6f",
            "trace.csv": "757baca97f1f5e863bf8b243149866fd9363d2912f8e57e5d33e675b209e36df",
        },
    ),
    "run-rca4-burn-in": (
        written(RCA4_BURN_IN), "run", [],
        {
            "histogram.csv": "77fbb280ebd1108ee8e49eb019f4ad293b38b96af7a3f48e62319cf496f7aedb",
            "report.json": "57031419c517b7b9b8ead1b3586c20674f186eeff4b3312ac674f628d6c21d21",
        },
    ),
    "run-full-adder-updates-burn-in": (
        written(FULL_ADDER_UPDATES_BURN_IN), "run", [],
        {
            "histogram.csv": "4716de9427080d740279973000ff35ee6ef0fa2531f893d2889ec1bcf805c3ad",
            "report.json": "f8821ba4975ee409aec2993dc4336abedfd6545c1bafec0a451832515481aa22",
            "trace.csv": "100ccb26a35078db4444df13fef526877717c312496e4638c3d28bda8d9e5122",
        },
    ),
    "sweep-tau": (
        shipped("and_correlated.json"),
        "sweep-tau", ["--taus", "1000,50000", "--samples", "2000"],
        {"distance.csv": "f3e0c002e333ac0b29eeac5e3f707dfbf6c8a5d3fcf68e6733c552199f06dce3"},
    ),
    "sweep-retention": (
        shipped("and_correlated.json"),
        "sweep-retention", ["--plans", PLANS, "--samples", "2000"],
        {"distance.csv": "82502ea3551d1d5ba5186eed339525c8f5d00d119ac7dc83d990151e752730c7"},
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_GOLDEN))
def test_cli_output_digest(case, tmp_path, capsys):
    write, command, args, expected = CLI_GOLDEN[case]
    out = tmp_path / "out"
    assert main([command, str(write(tmp_path)), *args, "--out", str(out)]) == 0
    got = {fname: file_digest(out / fname) for fname in expected}
    assert got == expected


def test_cli_digests_hold_on_a_shared_parser(tmp_path):
    # ``main`` reuses one parser per process: every case, run twice in one
    # process, forwards and then backwards, must give its own digests, so no
    # call leaves anything in the parser for the next
    cases = sorted(CLI_GOLDEN)
    for k, case in enumerate(cases + cases[::-1]):
        write, command, args, expected = CLI_GOLDEN[case]
        out = tmp_path / f"out_{k}"
        assert main([command, str(write(tmp_path)), *args, "--out", str(out)]) == 0
        assert {fname: file_digest(out / fname) for fname in expected} == expected, case


def network_digest(net) -> str:
    """sha256 of everything a run reads from a built network."""
    h = hashlib.sha256()
    for mach in net.machines:
        c = mach.coupling
        h.update(repr((mach.name, mach.tau_sample_us, mach.quant.dac_bits,
                       mach.quant.vref, c.i0)).encode())
        h.update(np.ascontiguousarray(c.j, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(c.h, dtype="<f8").tobytes())
    for p in net.pbits:
        h.update(repr((p.id, p.retention_us, p.phase_us, p.jitter_fraction,
                       repr(p.mode))).encode())
    h.update(repr(sorted(net.visible_labels.items())).encode())
    return h.hexdigest()


# network factory name -> digest: every shipped scenario through the CLI's
# builder, and each builder at its default sampling period
NETWORK_GOLDEN = {
    "build_and_machine": "0c021bfbc753bc77a3f5984ab7d6b28f8e5618a3517e0ffaf56f001836fcdde4",
    "build_factorizer": "c4efe65c6555b1d9096f7737f191a759617490d49c0f4f1f15e5af27df075a34",
    "build_full_adder": "b05b8e195bd367b252849a46e4d0c7b589af794cc3d52bd4846d36997240628c",
    "build_rca4": "6fc635b3a87907facbbc12809ae148e7c49e86dd3ee3ceb39c395935d5770289",
    "scenario:and_breakdown_200ms": "55230aa7556d683a84b5de0672ea03c289d32741bcdde909c0d15ed6d6b87cfc",
    "scenario:and_breakdown_400ms": "fdd5ceda1b636ff82763addbe3d5e1c22d02362e05971ae9670b6dbf2604dc23",
    "scenario:and_correlated": "0c021bfbc753bc77a3f5984ab7d6b28f8e5618a3517e0ffaf56f001836fcdde4",
    "scenario:and_direct": "22c36658efd2b3525c2da296ec43c4c85b17e7d4243ba45350cdbb44fdeaad7a",
    "scenario:and_inverted": "c9edfd3c60ae39adc6ce909d8612299a0d0041048859f5a217bdd19536e81cd2",
    "scenario:and_serialization": "3bee14d16a26f7c697a884a6511115bb4ffddd032c7abe72a897d1470d69bc05",
    "scenario:and_uncorrelated": "8410d4f852b738bc731e3966b53250ab5437db0e19495bfbd0535225b4bdccd7",
    "scenario:factorizer": "3c72df931d0d7ccd6cdb11d8c6afc677c74dacd73cb6cba32e21a157e9878b53",
    "scenario:factorizer_control": "b278c907a562e08341b12dcbd61fa360f427e9e006350e099d03e1467982e2e4",
    "scenario:full_adder_direct": "dafd2ff85b2ea8319b31a2f5dd92dbc1bf93d7abcbf6e6f64ffc832fe8bd510f",
    "scenario:full_adder_inverted": "d993390c4e07a28b648b8a65813025a28579ce9de16d2ec259156aa4838117c0",
    "scenario:rca4_direct": "8e4adc37574c1792f12bbe5d8391d83ac6e620571f12746aa4fdd93a58e2f4c6",
    "scenario:rca4_inverted": "b120846f5863c856702a964010d6baaec18604eb6ed8d67fb9bc75eeebc8e102",
}

NETWORK_FACTORIES = {
    **{f"scenario:{path.stem}": (lambda path=path: build_network(json.loads(path.read_text())))
       for path in sorted(SCENARIOS.glob("*.json"))},
    "build_and_machine": lambda: build_and_machine(0.8),
    "build_full_adder": lambda: build_full_adder(1.0),
    "build_rca4": lambda: build_rca4(1.0),
    "build_factorizer": lambda: build_factorizer(1.0),
}


@pytest.mark.parametrize("name", sorted(NETWORK_FACTORIES))
def test_network_digest(name):
    assert network_digest(NETWORK_FACTORIES[name]()) == NETWORK_GOLDEN[name]
