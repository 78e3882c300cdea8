"""Gate library, verification, synthesis, composition and system builders."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from pbitsim import libgen, networks
from pbitsim.core import CLAMPED_HIGH, CLAMPED_LOW, Wired
from pbitsim.errors import (
    CapacityError,
    ConfigurationError,
    SynthesisError,
    VerificationError,
)
from pbitsim.networks import (
    SHIPPED_GATES,
    GateSpec,
    NetworkSpec,
    build_and_machine,
    build_factorizer,
    build_full_adder,
    build_quad_and,
    build_rca4,
    compose_gates,
    fold_constant,
    gate_from_json,
    gate_to_json,
    ground_state_report,
    load_gate,
    normal_retention_plan,
    save_gate,
    single_machine_network,
    synthesize_gate_lp,
    verify_ground_states,
)
from pbitsim.oracle import all_energies, state_bits, state_index

AND_TABLE = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
GATE_DIR = Path(networks.__file__).parent / "gates"


def ground_states(gate) -> dict:
    """Each truth row's auxiliary words among the gate's ground states."""
    energies = all_energies(gate.coupling(1.0))
    found = {}
    for state in np.flatnonzero(energies <= energies.min() + networks.DEGENERACY_TOL):
        bits = state_bits(int(state), gate.n)
        row = tuple(bits[k] for k in gate.visible.values())
        found.setdefault(row, []).append(tuple(bits[k] for k in gate.auxiliary))
    return found


class TestGateLibrary:
    @pytest.mark.parametrize("name", SHIPPED_GATES)
    def test_shipped_gates_verify(self, name):
        gate = load_gate(name)
        report = ground_state_report(gate)
        assert report["ok"], f"{name}: {report}"
        assert report["gap"] > 0

    @pytest.mark.parametrize("name", SHIPPED_GATES)
    def test_libgen_makes_the_shipped_gate(self, name, tmp_path):
        # the library libgen regenerates must be the one every digest reads:
        # row generation may land on another vertex of the same LP, so the
        # gates must agree in every property a run or a check reads, and
        # the four whose LP vertex is unique agree byte for byte
        made, shipped = libgen.MAKERS[name](), load_gate(name)
        assert list(made.visible.items()) == list(shipped.visible.items())
        for field in ("name", "inputs", "outputs", "auxiliary", "truth_table"):
            assert getattr(made, field) == getattr(shipped, field), field
        assert ground_states(verify_ground_states(made)) == ground_states(shipped)
        gap = ground_state_report(made)["gap"]
        assert abs(gap - ground_state_report(shipped)["gap"]) <= 1e-9
        if name in ("and", "or", "not", "copy"):
            save_gate(made, tmp_path / "made.json")
            assert (tmp_path / "made.json").read_bytes() == (GATE_DIR / f"{name}.json").read_bytes()

    def test_libgen_makes_every_shipped_gate(self):
        assert tuple(libgen.MAKERS) == SHIPPED_GATES

    def test_library_counts(self):
        assert load_gate("and").n == 3
        assert load_gate("full_adder").n == 14
        assert len(load_gate("full_adder").auxiliary) == 9
        assert load_gate("half_adder").n == 6

    def test_full_adder_truth_rows(self):
        gate = load_gate("full_adder")
        assert len(gate.truth_table) == 8
        for a, b, cin, s, cout in gate.truth_table:
            assert s == a ^ b ^ cin
            assert cout == (a + b + cin) >> 1

    def test_ground_count_matches_truth_rows(self):
        for name in SHIPPED_GATES:
            gate = load_gate(name)
            report = ground_state_report(gate)
            assert report["ground_count"] == len(gate.truth_table)

    def test_report_refused_past_the_enumeration_limit(self):
        # the oracle's limit is the only one: 24 spins enumerate, 25 do not
        wide = GateSpec(name="wide", visible={f"u{k}": k for k in range(25)}, inputs=[],
                        outputs=[], auxiliary=[], truth_table=[], j=np.zeros((25, 25)),
                        h=np.zeros(25))
        with pytest.raises(CapacityError, match="enumeration limited to 24 units, got 25"):
            ground_state_report(wide)

    def test_sign_corruption_is_caught(self):
        gate = load_gate("and")
        j = gate.j.copy()
        j[0, 1] = j[1, 0] = -j[0, 1]
        bad = GateSpec(
            name="and",
            visible=dict(gate.visible),
            inputs=list(gate.inputs),
            outputs=list(gate.outputs),
            auxiliary=list(gate.auxiliary),
            truth_table=list(gate.truth_table),
            j=j,
            h=gate.h.copy(),
        )
        with pytest.raises(VerificationError):
            verify_ground_states(bad)

    def test_json_round_trip(self, tmp_path):
        gate = load_gate("xor")
        path = tmp_path / "xor.json"
        save_gate(gate, path)
        back = gate_from_json(json.loads(path.read_text()))
        assert np.array_equal(back.j, gate.j)
        assert np.array_equal(back.h, gate.h)
        assert back.visible == gate.visible
        assert back.truth_table == gate.truth_table
        assert gate_from_json(gate_to_json(gate)).name == gate.name

    def test_file_verified_key_is_not_trusted(self):
        # a file's own "verified": true used to let a flat gate into a network
        doc = gate_to_json(load_gate("and"))
        doc["j"] = np.zeros((3, 3)).tolist()
        doc["h"] = [0.0] * 3
        assert doc["verified"] is True
        with pytest.raises(VerificationError):
            single_machine_network(gate_from_json(doc), 1.0)

    def test_shipped_gate_is_read_only(self):
        # every caller shares one verified gate, so it cannot be edited
        gate = load_gate("and")
        with pytest.raises(ValueError):
            gate.j[0, 1] = 0.0
        with pytest.raises(ValueError):
            gate.h[:] = 0.0
        assert gate.verified

    def test_shipped_gates_verified_once_per_process(self, monkeypatch):
        checked = []

        def counting(gate):
            checked.append(gate.name)
            return verify_ground_states(gate)

        monkeypatch.setattr(networks, "verify_ground_states", counting)
        load_gate.cache_clear()
        build_rca4(1.0)
        build_rca4(1.0)
        assert sorted(checked) == ["full_adder", "half_adder"]

    @pytest.mark.parametrize("name", SHIPPED_GATES)
    def test_saved_gate_matches_shipped_file(self, name, tmp_path):
        # the gate file format: a loaded gate saves back to the same bytes
        save_gate(load_gate(name), tmp_path / f"{name}.json")
        assert (tmp_path / f"{name}.json").read_bytes() == (GATE_DIR / f"{name}.json").read_bytes()

    def test_shared_gate_cannot_be_edited(self):
        # every caller shares one cached gate: an edit used to reach every later build
        gate = load_gate("and")
        with pytest.raises(TypeError):
            gate.visible["A"] = 2
        with pytest.raises(AttributeError):
            gate.truth_table.append((1, 1, 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            gate.verified = False
        assert build_and_machine(1.0).visible_labels["A"] == 0
        assert load_gate("and").truth_table == tuple(AND_TABLE)
        assert load_gate("and").verified

    def test_derived_gates_verified_once_per_process(self, monkeypatch):
        checked = []

        def counting(gate):
            checked.append(gate.name)
            return verify_ground_states(gate)

        build_factorizer(1.0)
        monkeypatch.setattr(networks, "verify_ground_states", counting)
        build_factorizer(1.0)
        assert checked == []


class TestSynthesis:
    def test_lp_rejects_oversized(self):
        with pytest.raises(CapacityError):
            synthesize_gate_lp(AND_TABLE, n_aux=14)

    def test_parity_has_no_pairwise_realization(self):
        xor = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        with pytest.raises(SynthesisError):
            synthesize_gate_lp(xor, n_aux=0)
        gate = synthesize_gate_lp(xor, n_aux=1, labels=["A", "B", "S"])
        assert gate.verified
        assert gate.n == 4

    def test_lp_reaches_wider_gaps(self):
        gate = synthesize_gate_lp(AND_TABLE, name="and", labels=["A", "B", "C"])
        assert ground_state_report(gate)["gap"] >= 2.0

    def test_lp_infeasible_table(self):
        xor = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        with pytest.raises(SynthesisError):
            synthesize_gate_lp(xor, n_aux=0)

    @pytest.mark.parametrize("labels, terminals, message", [
        (["A", "B", "S"], {"inputs": ["nope"]}, "terminal 'nope' is not a visible label"),
        (["A", "B", "S"], {"outputs": ["Z"]}, "terminal 'Z' is not a visible label"),
        (["A", "B"], {}, "truth table width must match visible labels"),
    ], ids=["input", "output", "width"])
    def test_label_rules_hold_before_any_lp(self, monkeypatch, labels, terminals, message):
        # a table with a feasible gate: a bad label is refused before its
        # search solves one LP
        solves = []
        linprog = scipy.optimize.linprog
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *a, **k: solves.append(1) or linprog(*a, **k))
        with pytest.raises(ConfigurationError, match=message):
            synthesize_gate_lp(AND_TABLE, name="and", labels=labels, **terminals)
        assert solves == []

    def test_lp_respects_fixed_assignment(self):
        gate = synthesize_gate_lp(
            AND_TABLE, n_aux=1, labels=["A", "B", "C"],
            aux_assignments=[(0, 0, 0, 1)],
        )
        # aux spin must be 1 exactly on the (1,1,1) ground state
        report = ground_state_report(gate)
        assert report["ok"]


def _exact_synth_full_adder() -> dict:
    """The benchmark's 12-spin full adder: libgen's auxiliary spins, less
    the two that copy inputs A and B, fixed per row."""
    aux = (lambda a, b, c: c, lambda a, b, c: a & b, lambda a, b, c: a & c,
           lambda a, b, c: b & c, lambda a, b, c: a ^ b, lambda a, b, c: (a ^ b) & c,
           lambda a, b, c: a | b)
    table = libgen.full_adder_table()
    words = []
    for a, b, c, _s, _co in table:
        word = 0
        for fn in aux:
            word = (word << 1) | fn(a, b, c)
        words.append(word)
    return {"truth_table": table, "n_aux": len(aux), "aux_assignments": [tuple(words)],
            "labels": ["A", "B", "CIN", "S", "COUT"]}


ROW_GENERATION_CASES = {
    "and": lambda: synthesize_gate_lp(AND_TABLE),
    "or": lambda: synthesize_gate_lp(libgen.OR_TABLE),
    "xor_search": lambda: synthesize_gate_lp(libgen.XOR_TABLE, n_aux=1),
    "half_adder": libgen.make_half_adder,
    "full_adder_12": lambda: synthesize_gate_lp(**_exact_synth_full_adder()),
}


class TestRowGeneration:
    """Each assignment's LP is solved by row generation; the gap it returns
    must be the full LP's, whose every non-chosen state is a row."""

    @pytest.mark.parametrize("case", sorted(ROW_GENERATION_CASES))
    def test_gap_of_the_full_lp(self, case, monkeypatch):
        linprog = scipy.optimize.linprog
        solves = []

        def recording(*args, **kwargs):
            res = linprog(*args, **kwargs)
            solves.append((args[0], kwargs, res))
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", recording)
        gate = ROW_GENERATION_CASES[case]()
        assert gate.verified
        # the last solve is the accepted assignment's last round; its
        # equality rows are the chosen states' features
        c, kwargs, res = solves[-1]
        phi = networks._feature_matrix(gate.n)
        n_params = phi.shape[1]
        chosen = [int(np.flatnonzero((phi == row).all(axis=1))[0])
                  for row in kwargs["A_eq"][:, :n_params]]
        others = np.setdiff1d(np.arange(1 << gate.n), chosen)
        assert len(kwargs["A_ub"]) <= len(others)
        a_ub = np.ones((others.size, n_params + 2))
        a_ub[:, :n_params] = phi[others]
        full = linprog(c, A_ub=a_ub, b_ub=np.zeros(others.size),
                       A_eq=kwargs["A_eq"], b_eq=kwargs["b_eq"], bounds=kwargs["bounds"],
                       method="highs")
        assert full.status == 0
        assert res.x[-1] == pytest.approx(full.x[-1], abs=1e-7)
        # and the returned solution meets every row of the full LP
        assert np.max(a_ub @ res.x) <= 1e-7

    def test_full_adder_12_never_solves_the_full_lp(self, monkeypatch):
        # the first round's rows are the states one flip from a chosen
        # state, and no round needs all 4,088 of the full LP
        linprog = scipy.optimize.linprog
        rows = []

        def counting(*args, **kwargs):
            rows.append(len(kwargs["A_ub"]))
            return linprog(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counting)
        doc = _exact_synth_full_adder()
        synthesize_gate_lp(**doc)
        chosen = {(state_index(row) << doc["n_aux"]) | word
                  for row, word in zip(doc["truth_table"], doc["aux_assignments"][0])}
        flips = {s ^ (1 << k) for s in chosen for k in range(12)} - chosen
        assert rows[0] == len(flips)
        assert max(rows) < (1 << 12) - len(chosen)


class TestComposition:
    def test_circuit_sums_to_verified_whole(self):
        rows = [
            (x, y, z, (x & y) | z)
            for x in (0, 1) for y in (0, 1) for z in (0, 1)
        ]
        gate = compose_gates(
            "aoi",
            [(load_gate("and"), {"A": "X", "B": "Y", "C": "M"}),
             (load_gate("or"), {"A": "M", "B": "Z", "C": "OUT"})],
            ["X", "Y", "Z", "OUT"], inputs=["X", "Y", "Z"], outputs=["OUT"], truth_table=rows)
        assert gate.verified
        assert gate.n == 5
        assert gate.auxiliary == (2,)  # M, numbered in order of first use
        assert ground_state_report(gate)["ok"]

    def test_place_requires_verified_gate(self):
        raw = dataclasses.replace(load_gate("and"), verified=False)
        with pytest.raises(ConfigurationError, match="not verified"):
            compose_gates("x", [(raw, {"A": "A", "B": "B", "C": "C"})],
                          ["A", "B", "C"], ["A", "B"], ["C"], AND_TABLE)

    def test_compose_refuses_auxiliary_spins(self):
        xor = load_gate("xor")
        assert xor.auxiliary
        with pytest.raises(ConfigurationError, match="auxiliary spins"):
            compose_gates("x", [(xor, {"A": "A", "B": "B", "S": "S"})],
                          ["A", "B", "S"], ["A", "B"], ["S"], xor.truth_table)

    def test_compose_refuses_two_terminals_on_one_spin(self):
        with pytest.raises(ConfigurationError, match="its own spin"):
            compose_gates("x", [(load_gate("and"), {"A": "X", "B": "X", "C": "Y"})],
                          ["X", "Y"], ["X"], ["Y"], [(0, 0), (1, 1)])

    def test_fold_constant_conditions_truth_table(self):
        fa = load_gate("full_adder")
        folded = fold_constant(fa, "CIN", 0)
        assert folded.verified
        assert folded.n == fa.n - 1
        assert all(len(row) == 4 for row in folded.truth_table)
        # surviving rows are exactly the CIN=0 half adder behavior
        for a, b, s, cout in folded.truth_table:
            assert s == a ^ b
            assert cout == a & b

    def test_fold_unknown_label(self):
        with pytest.raises(ConfigurationError):
            fold_constant(load_gate("and"), "Q", 0)


class TestBuilders:
    def test_and_machine(self):
        net = build_and_machine(0.8)
        assert net.n_total == 3
        assert set(net.visible_labels) == {"A", "B", "C"}

    def test_full_adder_count(self):
        net = build_full_adder(1.0)
        assert net.n_total == 14

    def test_rca4_roster_and_wires(self):
        net = build_rca4(1.0)
        assert net.n_total == 48
        wired = [p for p in net.pbits if isinstance(p.mode, Wired)]
        assert len(wired) == 3
        machine_of = net.machine_of()
        assert machine_of == [0] * 6 + [1] * 14 + [2] * 14 + [3] * 14
        for p in wired:
            assert machine_of[p.mode.source] != machine_of[p.id]

    def test_quad_and_shares_inputs(self):
        gate = build_quad_and()
        assert gate.n == 8
        assert gate.verified

    def test_factorizer_accounting(self):
        net = build_factorizer(1.0)
        assert net.n_total == 46
        accounting = {m.name: m.n for m in net.machines}
        assert sum(accounting.values()) == 46
        assert accounting["and_bm"] == 8
        wired = [p for p in net.pbits if isinstance(p.mode, Wired)]
        assert len(wired) == 5

    def test_visible_label_order(self):
        # the order is the default histogram_over, most significant bit first
        assert list(build_and_machine(1.0).visible_labels) == ["A", "B", "C"]
        assert list(build_full_adder(1.0).visible_labels) == ["A", "B", "CIN", "S", "COUT"]
        assert list(build_rca4(1.0).visible_labels) == [
            "A0", "B0", "S0", "A1", "B1", "S1", "A2", "B2", "S2", "A3", "B3", "S3", "S4"]
        assert list(build_factorizer(1.0).visible_labels) == [
            "A0", "A1", "B0", "B1", "S0", "S1", "S2", "S3"]

    def test_retention_plan_bounds_and_determinism(self):
        plan = normal_retention_plan(48, 99)
        assert plan == normal_retention_plan(48, 99)
        assert all(137_000 <= t <= 263_000 for t in plan)
        assert plan != normal_retention_plan(48, 100)


class TestNetworkSpec:
    def test_clamping_by_label(self):
        net = build_and_machine(0.8).with_clamps({"A": 1, "B": 0})
        assert net.pbits[net.visible_labels["A"]].mode == CLAMPED_HIGH
        assert net.pbits[net.visible_labels["B"]].mode == CLAMPED_LOW

    def test_clamp_unknown_label(self):
        with pytest.raises(ConfigurationError):
            build_and_machine(0.8).with_clamps({"Q": 1})

    def test_wire_must_cross_machines(self):
        net = build_and_machine(0.8)
        from dataclasses import replace

        net.pbits[2] = replace(net.pbits[2], mode=Wired(source=0))
        with pytest.raises(ConfigurationError):
            net.validate()

    def test_no_reciprocal_wiring(self):
        net = build_rca4(1.0)
        from dataclasses import replace

        # add a back-wire from machine 1 into machine 0 alongside the
        # existing forward carry wire
        offs = net.offsets()
        net.pbits[offs[0]] = replace(net.pbits[offs[0]], mode=Wired(source=offs[1]))
        with pytest.raises(ConfigurationError):
            net.validate()

    def test_network_needs_a_unit(self):
        # an empty network used to pass and then fail inside the engine
        with pytest.raises(ConfigurationError, match="at least one unit"):
            NetworkSpec([], []).validate()
        from pbitsim.dynamics import run

        with pytest.raises(ConfigurationError, match="at least one unit"):
            run(NetworkSpec([], []), seed=0, max_samples=1)

    def test_copy_is_independent(self):
        net = build_and_machine(0.8)
        twin = net.copy()
        twin.set_retention(1000)
        twin.set_tau_sample(50)
        twin.visible_labels["X"] = 0
        assert [p.retention_us for p in net.pbits] == [200_000] * 3
        assert net.machines[0].tau_sample_us == 1000
        assert "X" not in net.visible_labels

    def test_unit_cap(self):
        # states are int64 masks: 63 units fit, 64 are refused up front
        from pbitsim.dynamics import run

        def wide(n):
            return GateSpec(name="wide", visible={f"u{k}": k for k in range(n)},
                            inputs=[], outputs=[], auxiliary=[], truth_table=[],
                            j=np.zeros((n, n)), h=np.zeros(n), verified=True)

        assert len(run(single_machine_network(wide(63), 1.0), seed=1, max_samples=5)) == 5
        with pytest.raises(CapacityError):
            single_machine_network(wide(64), 1.0)

    def test_retention_plan_length_checked(self):
        net = build_and_machine(0.8)
        with pytest.raises(ConfigurationError):
            net.set_retention([1000, 2000])

    def test_unverified_gate_rejected(self):
        gate = load_gate("and")  # shipped as verified, strip the flag
        from dataclasses import replace

        with pytest.raises(VerificationError):
            single_machine_network(replace(gate, verified=False), 1.0)

    @pytest.mark.parametrize("name", SHIPPED_GATES)
    def test_reported_gap_matches_spectrum(self, name):
        from pbitsim.oracle import all_energies

        gate = load_gate(name)
        report = ground_state_report(gate)
        e = np.sort(all_energies(gate.coupling(1.0)))
        excited = e[e > e[0] + 1e-9]
        assert report["ground_energy"] == pytest.approx(e[0])
        assert report["gap"] == pytest.approx(excited[0] - e[0])
