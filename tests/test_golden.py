"""Golden digests: short runs must reproduce their exact bits.

Each case pins the sha256 of a short trace (sample times, state masks and
per-unit update and one counts) or of the files a CLI command writes. A
refactor of the engine, the builders or the CLI must leave every digest
unchanged. A digest may change only together with a CHANGES.md line that
says why the output changed on purpose. The digests rest on numpy's PCG64
stream and IEEE-754 doubles, like every replay in this package.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from pbitsim.cli import build_network, main
from pbitsim.core import PBitConfig, Wired
from pbitsim.dynamics import run
from pbitsim.networks import MachineSpec, NetworkSpec, load_gate, verify_ground_states

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
    gate = verify_ground_states(load_gate("copy"))
    mach = lambda name: MachineSpec(name, gate.coupling(1.0), tau_sample_us=100,
                                    labels=dict(gate.visible))
    pbits = [PBitConfig(id=k, retention_us=r) for k, r in enumerate([700, 1000, 1300, 900])]
    pbits[2] = PBitConfig(id=2, retention_us=1300, mode=Wired(source=0, delay_us=500))
    net = NetworkSpec([mach("src"), mach("dst")], pbits, {"SRC": 0, "DST": 2})
    net.validate()
    return net


def phased_net():
    net = scenario_net({"kind": "gate", "gate": "and", "i0": 0.8, "tau_sample_us": 100},
                       retention_us=1000)
    net.set_phases([0, 333, 666])
    return net


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
    "dac_bits_3": (
        lambda: scenario_net({"kind": "gate", "gate": "and", "i0": 0.8, "dac_bits": 3},
                             retention_us=5000),
        {"max_samples": SAMPLES},
        "6147f2fd50ba0959f0f0d6362a560b95a0f31effbcad6801e74e206377f1c150",
    ),
}


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_trace_digest(name):
    factory, budget, expected = TRACE_CASES[name]
    trace = run(factory(), seed=11, **budget)
    assert trace_digest(trace) == expected


# command -> {file name: digest}
CLI_GOLDEN = {
    "run": {
        "histogram.csv": "a6b77e781e2aefc3f2cd11cfcb193215016b072accb0116cb0a953dc0ccb5fc9",
        "report.json": "813b002806c017a175525ccf6b6d20a0abd24efeb6e961a025fa11f6c0f729d1",
    },
    "sweep-tau": {
        "distance.csv": "f3e0c002e333ac0b29eeac5e3f707dfbf6c8a5d3fcf68e6733c552199f06dce3",
    },
    "sweep-retention": {
        "distance.csv": "82502ea3551d1d5ba5186eed339525c8f5d00d119ac7dc83d990151e752730c7",
    },
}


def cli_args(command, scenario, out):
    if command == "run":
        return ["run", str(scenario), "--out", str(out)]
    extra = (["--taus", "1000,50000"] if command == "sweep-tau" else
             ["--plans", json.dumps([[200_000] * 3, [137_000, 200_000, 263_000]])])
    return [command, str(scenario), *extra, "--samples", "2000", "--out", str(out)]


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_cli_output_digest(command, tmp_path, capsys):
    # the run case records update timestamps (serialization metric)
    name = "and_serialization.json" if command == "run" else "and_correlated.json"
    scenario = shutil.copy(SCENARIOS / name, tmp_path / name)
    out = tmp_path / "out"
    assert main(cli_args(command, scenario, out)) == 0
    got = {fname: file_digest(out / fname) for fname in CLI_GOLDEN[command]}
    assert got == CLI_GOLDEN[command]
