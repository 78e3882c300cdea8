"""The benchmark's tracer must keep finding what it patches.

``perfbench/spans.py`` wraps public pbitsim functions by attribute name for
the traced benchmark run. These tests install and restore that tracer, so a
refactor that drops, renames or stops calling one of those attributes fails
here rather than only in the benchmark. Nothing under ``perfbench/`` is
changed; the tests only import from it.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from pbitsim import analysis, cli, dynamics, networks, oracle
from pbitsim.core import CouplingMatrix, PBitConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (owner, attribute) pairs the tracer patches; the program must keep them.
TRACED = [
    (cli, "main"), (cli, "load_scenario"), (cli, "build_network"),
    (cli, "verify_ground_states"), (cli, "synthesize_gate_lp"),
    (networks, "build_and_machine"), (networks, "build_full_adder"),
    (networks, "build_rca4"), (networks, "build_quad_and"),
    (networks, "build_factorizer"), (networks, "single_machine_network"),
    (networks, "verify_ground_states"), (networks, "synthesize_gate_lp"),
    (networks, "all_energies"), (oracle, "all_energies"),
    (analysis, "boltzmann_distribution"), (analysis, "histogram"),
    (analysis, "mode_report"), (analysis, "sweep_sampling_time"),
    (analysis.EmpiricalDistribution, "to_csv"),
    (dynamics, "run"), (dynamics.Simulator, "step"),
    (dynamics, "weight_inputs"), (dynamics, "sigmoid"),
]


@pytest.fixture
def recorder(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    rec = importlib.import_module("spans").SpanRecorder()
    originals = {(owner, attr): getattr(owner, attr) for owner, attr in TRACED}
    rec.install()
    try:
        yield rec, originals
    finally:
        rec.restore()


def test_install_wraps_and_restore_puts_originals_back(recorder):
    rec, originals = recorder
    saved = {(owner, attr): original for owner, attr, original in rec._saved}
    for key, original in originals.items():
        assert key in saved, f"tracer no longer patches {key[0].__name__}.{key[1]}"
        assert getattr(*key) is not original
    assert isinstance(dynamics.PRIO_REFRESH, int)
    rec.restore()
    for (owner, attr), original in saved.items():
        assert getattr(owner, attr) is original


def test_traced_run_reaches_every_layer(recorder, tmp_path, capsys, monkeypatch):
    rec, _ = recorder
    networks.load_gate.cache_clear()  # a fresh pbitsim process loads its gates cold
    # a full adder, a shipped gate that is verified when loaded, and a
    # 15-unit matrix machine, which the merged walk runs, through the CLI
    n = dynamics.TABLE_UNITS + 1
    docs = [
        {"name": "hooks", "seed": 3, "updates": 300,
         "network": {"kind": "full_adder", "i0": 1.0}, "retention_us": 20_000},
        {"name": "hooks_matrix", "seed": 3, "samples": 300,
         "network": {"kind": "matrix", "i0": 1.0, "j": [[0.0] * n] * n, "h": [0.5] * n},
         "retention_us": 20_000},
    ]
    for doc in docs:
        scenario = tmp_path / f"{doc['name']}.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / doc["name"]
        assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
    # no network takes the event heap, the tests' reference, unless the
    # chooser is made to pick it, as the engine tests' ``heap_run`` does;
    # then Simulator.step is reached through dynamics.run
    big, small = (CouplingMatrix(np.zeros((m, m)), np.full(m, 0.5), 1.0) for m in (n, 1))
    net = networks.NetworkSpec(
        [networks.MachineSpec("big", big), networks.MachineSpec("small", small)],
        [PBitConfig(id=g, retention_us=20_000) for g in range(n + 1)])
    monkeypatch.setattr(dynamics, "_composable", lambda *_: "heap")
    dynamics.run(net, seed=3, max_samples=300)
    for name in ("cli.main", "cli.load_scenario", "cli.build_network",
                 "networks.single_machine_network", "networks.verify_ground_states",
                 "dynamics.run", "analysis.histogram", "analysis.mode_report",
                 "analysis.to_csv"):
        assert rec.calls(name) >= 1, name
    for name in ("dynamics.step", "core.weight_inputs", "core.sigmoid"):
        assert rec.hot[name][0] > 0, name
