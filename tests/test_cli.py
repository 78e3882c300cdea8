"""Command-line interface: scenarios, overrides, exit codes, artifacts."""

import argparse
import contextlib
import copy
import csv
import dataclasses
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st

from pbitsim import cli, dynamics, networks
from pbitsim.analysis import sweep_sampling_time
from pbitsim.cli import GATE_FILE_SCHEMA, GATE_INPUT_SCHEMA, PLANS_SCHEMA, SCENARIO_SCHEMA, main
from pbitsim.dynamics import SimulationTrace
from pbitsim.errors import ConfigurationError
from pbitsim.oracle import all_energies, state_index
from pbitsim.networks import (
    build_and_machine,
    gate_from_json,
    gate_to_json,
    load_gate,
    save_gate,
    verify_ground_states,
)


def write_scenario(path, **overrides):
    doc = {
        "name": "and-smoke",
        "network": {"kind": "gate", "gate": "and", "i0": 0.8},
        "seed": 7,
        "samples": 400,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


@contextlib.contextmanager
def within(seconds):
    """Fail the block, instead of waiting on it, if it runs past ``seconds``."""
    def expire(*_):
        pytest.fail(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.fixture
def scenario(tmp_path):
    return write_scenario(tmp_path / "scenario.json")


@pytest.mark.parametrize("schema", [SCENARIO_SCHEMA, PLANS_SCHEMA, GATE_INPUT_SCHEMA,
                                    GATE_FILE_SCHEMA])
def test_schemas_meet_the_metaschema(schema):
    # the CLI validates input against these without checking them again
    jsonschema.Draft202012Validator.check_schema(schema)


def subschemas(schema):
    """``schema`` and every schema within it."""
    yield schema
    for keyword, rule in schema.items():
        if keyword == "properties":
            inner = list(rule.values())
        elif keyword in ("allOf", "anyOf", "oneOf"):
            inner = rule
        elif keyword in ("items", "not", "if", "then", "else"):
            inner = [rule]
        elif keyword == "additionalProperties" and rule is not False:
            inner = [rule]
        else:
            continue
        for each in inner:
            yield from subschemas(each)


@pytest.mark.parametrize("schema", [SCENARIO_SCHEMA, PLANS_SCHEMA, GATE_INPUT_SCHEMA,
                                    GATE_FILE_SCHEMA], ids=["scenario", "plans", "gate_input",
                                                            "gate_file"])
def test_checker_reads_every_keyword(schema):
    # a keyword the checker does not know would be ignored, as jsonschema
    # ignores one it does not know; then and else are read by if
    for each in subschemas(schema):
        assert isinstance(each, dict), each
        assert set(each) <= set(cli._KEYWORDS) | {"then", "else"}, each


def test_walker_reaches_the_nested_rules():
    # the not inside the matrix rule's else, and the integer of a plan's list
    keywords = [k for each in subschemas(SCENARIO_SCHEMA) for k in each]
    assert keywords.count("not") == 3
    assert keywords.count("anyOf") == 1
    assert {"minimum": 1, "type": "integer"} in list(subschemas(PLANS_SCHEMA))


class TestRun:
    def test_smoke_artifacts(self, scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 0
        hist = (out / "histogram.csv").read_text().strip().splitlines()
        assert hist[0] == "state,label,count,probability"
        assert len(hist) == 9
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 7
        assert report["n_units"] == 3
        assert "and-smoke" in capsys.readouterr().out

    def test_reruns_byte_identical(self, scenario, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", str(scenario), "--out", str(a)])
        main(["run", str(scenario), "--out", str(b)])
        for name in ("histogram.csv", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_overrides(self, scenario, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out),
                     "--seed", "99", "--samples", "150", "--burn-in", "0.2"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 99
        assert report["samples"] == 150
        assert report["burn_in_discarded"] == 30

    def test_run_does_not_import_numpy_ma(self, tmp_path):
        # a plain np.unique call imports numpy.ma, about 1 MB no run needs;
        # this test session has imported it already, so a fresh process runs
        doc = json.loads((ROOT / "scenarios" / "factorizer_control.json").read_text())
        path = tmp_path / "control.json"
        path.write_text(json.dumps(dict(doc, samples=2000)))
        argv = ["run", str(path), "--out", str(tmp_path / "out")]
        code = ("import sys; from pbitsim import cli; "
                f"print(cli.main({argv!r}), 'numpy.ma' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
        assert done.stdout.splitlines()[-1] == "0 False", done.stderr

    def test_run_does_not_import_jsonschema(self, tmp_path):
        # the CLI checks its input itself; jsonschema loaded some 40 modules
        # (attrs, referencing, rpds, ...) in every process, and this test
        # session has imported it already, so a fresh process runs
        doc = json.loads((ROOT / "scenarios" / "and_correlated.json").read_text())
        path = tmp_path / "and.json"
        path.write_text(json.dumps(dict(doc, samples=2000)))
        argv = ["run", str(path), "--out", str(tmp_path / "out")]
        code = ("import sys; from pbitsim import cli; "
                f"print(cli.main({argv!r}), "
                "sorted({m.partition('.')[0] for m in sys.modules} "
                "& {'jsonschema', 'referencing', 'attrs', 'rpds'}))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
        assert done.stdout.splitlines()[-1] == "0 []", done.stderr

    def test_matrix_network(self, tmp_path):
        path = write_scenario(
            tmp_path / "m.json",
            network={"kind": "matrix", "i0": 1.0, "j": [[0.0]], "h": [1.0]},
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_units"] == 1

    def test_trace_and_oracle(self, tmp_path):
        path = write_scenario(tmp_path / "t.json", record_trace=True,
                              compare_oracle=True)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["oracle_distance"] < 1.0

    def test_oracle_refused_before_the_run(self, tmp_path, capsys):
        # a composite network used to run and write its histogram first
        path = write_scenario(tmp_path / "o.json", compare_oracle=True,
                              network={"kind": "rca4", "i0": 1.0})
        out = tmp_path / "out"
        assert main(["run", str(path), "--samples", "50", "--out", str(out)]) == 2
        assert "single machines without wires" in capsys.readouterr().err
        assert not (out / "histogram.csv").exists()

    @pytest.mark.parametrize("command", [["run", "SCENARIO", "--out", "OUT"],
                                         ["report", "HISTOGRAM"]])
    @pytest.mark.parametrize("top", ["0", "-6"])
    def test_top_must_be_positive(self, scenario, tmp_path, capsys, command, top):
        # run --top 0 used to simulate and write before failing; report
        # --top -6 silently dropped the last six rows
        histogram = tmp_path / "histogram.csv"
        histogram.write_text("state,label,count,probability\n0,0,1,1.0\n")
        out = tmp_path / "out"
        argv = [{"SCENARIO": str(scenario), "HISTOGRAM": str(histogram),
                 "OUT": str(out)}.get(a, a) for a in command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--top", top])
        assert exc.value.code == 2
        assert f"not a positive integer: '{top}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"compare_oracle": True, "histogram_over": ["C", "A"], "burn_in": 0.37},
        {"network": {"kind": "rca4", "i0": 1.0}, "histogram_over": ["S4", "A0"]},
    ], ids=["gate_oracle_over_a_subset", "rca4"])
    def test_statistics_read_no_sample_arrays(self, tmp_path, monkeypatch, doc):
        # every statistic of a run counts its samples from the flip log;
        # only trace.csv builds the per-sample arrays
        def refuse(_trace):
            raise AssertionError("a statistic read the per-sample arrays")

        monkeypatch.setattr(SimulationTrace, "times", property(refuse))
        monkeypatch.setattr(SimulationTrace, "states", property(refuse))
        path = write_scenario(tmp_path / "s.json", samples=20_000, **doc)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["samples"] == 20_000
        assert "oracle_distance" in report or "compare_oracle" not in doc

    def test_serialization_report(self, tmp_path):
        path = write_scenario(tmp_path / "s.json", serialization_window_us=100)
        del_doc = json.loads(path.read_text())
        del_doc.pop("samples")
        del_doc["updates"] = 2000
        path.write_text(json.dumps(del_doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "serialization_initial" in report
        assert "serialization_final" in report

    def test_serialization_needs_updates(self, tmp_path, capsys):
        # a run that made no updates was said to carry no update timestamps
        path = write_scenario(tmp_path / "s.json", samples=1, serialization_window_us=10)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: the run made no updates, so it has no serialization to measure; "
            "give it a larger budget\n")
        assert not (tmp_path / "o").exists()


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_directory_in_place_of_scenario(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_retention_bounds_must_be_ordered(self, tmp_path, capsys):
        # lo_us > hi_us used to clip every unit to hi_us
        path = write_scenario(tmp_path / "r.json", retention_normal={
            "seed": 1, "lo_us": 300_000, "hi_us": 100_000})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "lo_us=300000 > hi_us=100000" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        {"retention_us": 99999999999999999999, "jitter_fraction": 0, "samples": 10},
        {"retention_us": 99999999999999999999, "samples": 10},
        {"retention_us": 4611686018427387904, "updates": 10},
        {"network": {"kind": "gate", "gate": "and", "i0": 0.8,
                     "tau_sample_us": 99999999999999999999}, "samples": 10},
    ], ids=["retention_without_jitter", "retention", "retention_updates", "tau_sample"])
    def test_virtual_times_fit_int64(self, tmp_path, capsys, fields):
        # the first used to end in an OverflowError traceback, the others to
        # run without end
        path = tmp_path / "t.json"
        path.write_text(json.dumps({
            "name": "x", "seed": 7, "network": {"kind": "gate", "gate": "and", "i0": 0.8},
            **fields}))
        with within(1.0):
            assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "past the limit of 2**62 = 4611686018427387904 us" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep-tau", "--taus", "400000"]],
                             ids=["run", "sweep_tau"])
    def test_billions_of_updates_refused(self, tmp_path, capsys, command):
        # and_breakdown_400ms at a 1 us retention draws about 2.4e9 updates
        # for 2,000 samples, and used to run without end
        doc = dict(json.loads((ROOT / "scenarios" / "and_breakdown_400ms.json").read_text()),
                   retention_us=1, samples=2000)
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc))
        argv = [command[0], str(path), *command[1:], "--out", str(tmp_path / "o")]
        with within(1.0):
            assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: the run could draw 2400000003 updates, past the limit of 2**30 = "
            "1073741824; shorten its budget or lengthen its retention times\n")
        assert not (tmp_path / "o").exists()

    def test_dac_bits_at_most_53(self, tmp_path, capsys):
        # 2000 bits used to end in an OverflowError traceback
        path = write_scenario(tmp_path / "d.json", network={
            "kind": "gate", "gate": "and", "i0": 0.8, "dac_bits": 2000})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: 2000 is greater than the maximum of 53\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fields", [
        {"seed": 2.0},
        {"samples": 1000.0},
        {"updates": 1000.0},
        {"network": {"kind": "gate", "gate": "and", "i0": 0.8, "dac_bits": 4.0}},
    ], ids=["seed", "samples", "updates", "dac_bits"])
    def test_integral_floats_rejected(self, tmp_path, capsys, fields):
        # JSON Schema's integer admits 2.0: the seed, samples and DAC bits
        # used to end in a TypeError traceback, and the update budget ran
        path = write_scenario(tmp_path / "f.json", **fields)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.endswith(".0 is not of type 'integer'\n")
        assert not (tmp_path / "o").exists()

    def test_huge_i0_rejected(self, tmp_path, capsys):
        # 2**70 used to end in a TypeError traceback from np.isfinite
        path = write_scenario(tmp_path / "i.json", network={
            "kind": "gate", "gate": "and", "i0": 2 ** 70})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: 1180591620717411303424 is greater than the maximum of 9007199254740992\n")
        assert not (tmp_path / "o").exists()

    def test_huge_serialization_window_rejected(self, tmp_path, capsys):
        # 2**70 used to end in an OverflowError traceback after the run
        path = write_scenario(tmp_path / "w.json", serialization_window_us=2 ** 70)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: 1180591620717411303424 is greater than the maximum of 4611686018427387904\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag", [
        ("verify", "--seed"), ("verify", "--out"),
        ("synth", "--seed"), ("synth", "--format"),
        ("report", "--seed"), ("report", "--out"),
    ])
    def test_flags_a_command_does_not_read_rejected(self, tmp_path, capsys, command, flag):
        # each used to be accepted and ignored
        with pytest.raises(SystemExit) as exc:
            main([command, str(tmp_path / "in.json"), flag, "json"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} json" in capsys.readouterr().err

    def test_vref_needs_dac_bits(self, tmp_path, capsys):
        # a vref without a DAC used to be accepted and ignored
        for network in ({"vref": 3.3}, {"vref": 3.3, "dac_bits": 0}):
            path = write_scenario(tmp_path / "v.json", network={
                "kind": "gate", "gate": "and", "i0": 0.8, **network})
            assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
            assert "'vref' needs a positive 'dac_bits'" in capsys.readouterr().err

    @pytest.mark.parametrize("vref, text", [
        (float("nan"), "NaN"), (float("inf"), "Infinity"), (float("-inf"), "-Infinity")])
    def test_vref_must_be_finite(self, tmp_path, capsys, vref, text):
        # NaN used to run with every sample at state 111, and Infinity to
        # run after a numpy RuntimeWarning from the weight logic
        path = write_scenario(tmp_path / "v.json", network={
            "kind": "gate", "gate": "and", "i0": 0.8, "dac_bits": 4, "vref": vref})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {text} is not a finite number\n"
        assert not (tmp_path / "o").exists()

    def test_overflowing_number_refused(self, tmp_path, capsys):
        # 1e999 is valid JSON that reads as infinity
        path = write_scenario(tmp_path / "v.json")
        path.write_text(path.read_text().replace('"i0": 0.8', '"i0": 0.8, "dac_bits": 4, '
                                                 '"vref": 1e999'))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: 1e999 is not a finite number\n"

    @pytest.mark.parametrize("command", [
        ["sweep-retention", "SCENARIO", "--plans", "[NaN]"],
        ["sweep-retention", "SCENARIO", "--plans", "PLANS"],
        ["verify", "GATE"],
    ], ids=["plans_string", "plans_file", "gate_file"])
    def test_every_input_refuses_nan(self, scenario, tmp_path, capsys, command):
        plans = tmp_path / "plans.json"
        plans.write_text("[[200000, NaN, 200000]]")
        gate = tmp_path / "gate.json"
        gate.write_text(json.dumps(gate_to_json(load_gate("and"))).replace("-1.0", "NaN", 1))
        argv = [{"SCENARIO": str(scenario), "PLANS": str(plans), "GATE": str(gate)}.get(a, a)
                for a in command]
        assert main([*argv, *(["--out", str(tmp_path / "o")] if "--plans" in argv else [])]) == 2
        assert capsys.readouterr().err == "error: NaN is not a finite number\n"
        assert not (tmp_path / "o").exists()

    def test_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "network": {"kind": "gate"}}))
        assert main(["run", str(path)]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    def test_budget_required(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({
            "name": "x", "seed": 1,
            "network": {"kind": "gate", "gate": "and", "i0": 0.5},
        }))
        assert main(["run", str(path)]) == 2

    def test_unknown_histogram_label(self, tmp_path):
        path = write_scenario(tmp_path / "h.json", histogram_over=["Q"])
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("network, message", [
        # a gate name or a matrix on another kind used to be ignored
        ({"kind": "full_adder", "gate": "and"},
         "network: 'gate' may not be given for kind 'full_adder'"),
        ({"kind": "gate"}, "'gate' is a required property"),
        ({"kind": "gate", "gate": "and", "labels": {"X": 0}},
         "network: 'labels' may not be given for kind 'gate'"),
        ({"kind": "rca4", "j": [[0.0]], "h": [1.0]},
         "network: 'j' and 'h' may not be given for kind 'rca4'"),
        ({"kind": "matrix", "j": [[0.0]]}, "'h' is a required property"),
    ], ids=["gate_on_full_adder", "gate_missing", "labels_on_gate", "matrix_on_rca4",
            "h_missing"])
    def test_network_fields_match_the_kind(self, tmp_path, capsys, network, message):
        path = write_scenario(tmp_path / "k.json", network={"i0": 0.8, **network})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("labels, message", [
        ({"A": "x"}, "'x' is not of type 'integer'"),
        ({"A": [0]}, "[0] is not of type 'integer'"),
    ], ids=["string", "list"])
    def test_matrix_labels_are_unit_indices(self, tmp_path, capsys, labels, message):
        # a label that is not an integer used to end in a ValueError or TypeError traceback
        path = write_scenario(tmp_path / "l.json", network={
            "kind": "matrix", "i0": 0.8, "j": [[0, 1], [1, 0]], "h": [0, 0], "labels": labels})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_one_retention_plan(self, tmp_path, capsys):
        # retention_normal used to override retention_us silently
        path = write_scenario(tmp_path / "r.json", retention_us=1000,
                              retention_normal={"seed": 1})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert ("'retention_us' and 'retention_normal' may not be given together"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fields, expected", [
        ({"network": {"kind": "full_adder", "i0": 1.0,
                      "j": np.full((14, 14), 0.625).tolist()}},
         "error: network: 'j' may not be given for kind 'full_adder'\n"),
        ({"retention_us": [13579] * 3, "retention_normal": {"seed": 24680}},
         "error: 'retention_us' and 'retention_normal' may not be given together\n"),
    ], ids=["matrix_on_full_adder", "two_retention_plans"])
    def test_not_rules_name_the_fields(self, tmp_path, capsys, fields, expected):
        # jsonschema's message used to echo the whole object, matrix and lists too
        path = write_scenario(tmp_path / "n.json", **fields)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == expected
        for value in ("0.625", "13579", "24680"):
            assert value not in err

    @pytest.mark.parametrize("gate", ["../gates/and", "nand"])
    def test_gate_must_be_shipped(self, tmp_path, capsys, gate):
        # a relative path used to load and run, an unknown name to print a package path
        path = write_scenario(tmp_path / "g.json",
                              network={"kind": "gate", "gate": gate, "i0": 0.8})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{gate!r} is not one of ['and', 'or', 'not', 'copy', 'xor'," in err
        assert ".json" not in err
        assert not (tmp_path / "o").exists()

    def test_histogram_labels_unique(self, tmp_path, capsys):
        # a repeated label used to give a histogram over one bit
        path = write_scenario(tmp_path / "h.json", histogram_over=["A", "A"])
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "['A', 'A'] has non-unique elements" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [
        ["run", "SCENARIO", "--samples", "100"],
        ["sweep-tau", "SCENARIO", "--taus", "1000", "--samples", "100"],
        ["sweep-retention", "SCENARIO", "--plans", "[200000]", "--samples", "100"],
        ["synth", "TABLE"],
    ])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_is_a_file(self, scenario, tmp_path, capsys, command, under):
        # Path.mkdir used to end in a FileExistsError or NotADirectoryError traceback
        table = tmp_path / "and_table.json"
        table.write_text(json.dumps({
            "name": "my_and", "table": [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 1]]}))
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "sub" if under else afile
        argv = [{"SCENARIO": str(scenario), "TABLE": str(table)}.get(a, a) for a in command]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert afile.read_text() == ""

    @pytest.mark.parametrize("command", [
        ["run", "BAD", "--out", "OUT"],
        ["synth", "BAD", "--out", "OUT"],
        ["verify", "BAD"],
        ["report", "BAD"],
        ["sweep-retention", "SCENARIO", "--plans", "BAD", "--out", "OUT"],
    ])
    def test_input_not_utf8(self, scenario, tmp_path, capsys, command):
        # a file that is not UTF-8 used to end in a UnicodeDecodeError traceback
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe\x00")
        argv = [{"SCENARIO": str(scenario), "BAD": str(bad), "OUT": str(tmp_path / "o")}.get(a, a)
                for a in command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [
        ["run", "DEEP", "--out", "OUT"],
        ["verify", "DEEP"],
        ["sweep-retention", "SCENARIO", "--plans", "DEEP", "--out", "OUT"],
    ], ids=["run", "verify", "plans_file"])
    def test_deeply_nested_input(self, scenario, tmp_path, capsys, command):
        # JSON nested past the recursion limit used to end in a
        # RecursionError traceback
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        argv = [{"SCENARIO": str(scenario), "DEEP": str(deep), "OUT": str(tmp_path / "o")}.get(a, a)
                for a in command]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: the JSON input is nested too deeply\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value", [("samples", [0] * 100_000),
                                              ("clamps", [0] * 50_000)])
    def test_long_message_cut(self, tmp_path, capsys, field, value):
        # the message echoes the whole value: these printed error lines of
        # 300,033 and 150,032 bytes
        path = write_scenario(tmp_path / "long.json", **{field: value})
        with pytest.raises(ConfigurationError) as caught:
            cli.load_scenario(path)
        message = str(caught.value)
        assert len(message) > 100_000
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {message[:1000]}... ({len(message) - 1000} more characters)\n")
        assert not (tmp_path / "o").exists()

    def test_adc_bits_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "a.json", network={
            "kind": "gate", "gate": "and", "i0": 0.8, "adc_bits": 1})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "adc_bits" in capsys.readouterr().err

    def test_over_63_units_rejected(self, tmp_path, capsys):
        n = 64
        path = write_scenario(tmp_path / "wide.json", network={
            "kind": "matrix", "i0": 1.0, "j": [[0.0] * n] * n, "h": [0.0] * n})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "63 units" in capsys.readouterr().err

    def test_histogram_over_25_units_rejected(self, tmp_path, capsys, monkeypatch):
        # with no histogram_over the histogram covers all 25 units: its 2^25
        # rows used to be allocated after the run, and written out
        monkeypatch.setattr(dynamics, "run", lambda *_, **__: pytest.fail("the run started"))
        n = 25
        path = write_scenario(tmp_path / "wide.json", network={
            "kind": "matrix", "i0": 1.0, "j": [[0.0] * n] * n, "h": [0.0] * n}, samples=100)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "a histogram covers at most 24 units, got 25" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("phases", [[0, 1, 2, 3, 4], [7]])
    def test_phase_list_must_cover_every_unit(self, tmp_path, capsys, phases):
        # the AND gate has 3 units: a longer list used to raise IndexError,
        # a shorter one silently phased only its first units
        path = write_scenario(tmp_path / "p.json", phases_us=phases)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "phase plan must be one integer or 3 integers" in capsys.readouterr().err

    @pytest.mark.parametrize("h", [[0.0], [0.0, 0.0, 0.0]], ids=["short", "long"])
    def test_matrix_h_must_match_j(self, tmp_path, capsys, h):
        # the default labels used to be counted off h, so a short or long h
        # was reported as labels that miss or overrun the spins
        path = write_scenario(tmp_path / "h.json", network={
            "kind": "matrix", "i0": 1.0, "j": [[0, 1], [1, 0]], "h": h})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "h must have length 2" in capsys.readouterr().err

    def test_ragged_matrix_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "r.json", network={
            "kind": "matrix", "i0": 1.0, "j": [[0, 1], [1]], "h": [0, 0]})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "numeric arrays" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["sweep-tau", "--taus", "1000"]])
    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "-1 is less than the minimum of 0"),
        ("--samples", "0", "0 is less than the minimum of 1"),
        ("--samples", "-5", "-5 is less than the minimum of 1"),
        ("--burn-in", "1.5", "1.5 is greater than or equal to the maximum of 1"),
    ])
    def test_overrides_meet_the_schema(self, scenario, tmp_path, capsys, command,
                                       flag, value, message):
        # an override is validated with the scenario, before anything runs
        name, *extra = command
        code = main([name, str(scenario), *extra, flag, value,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()


class TestParser:
    def test_built_once_per_process(self, scenario, tmp_path, capsys, monkeypatch):
        # a build makes the top parser and one per subcommand, 7 in all;
        # later calls, a refused one included, reuse them
        cli.make_parser.cache_clear()
        built, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
        assert main(["run", str(scenario), "--out", str(tmp_path / "o")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["run", str(scenario), "--no-such-flag"])
        assert exc.value.code == 2
        save_gate(load_gate("and"), tmp_path / "and.json")
        assert main(["verify", str(tmp_path / "and.json")]) == 0
        assert len(built) == 7


class TestVerify:
    def test_shipped_gate_passes(self, tmp_path, capsys):
        gate = load_gate("and")
        path = tmp_path / "and.json"
        save_gate(gate, path)
        assert main(["verify", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_corrupted_gate_fails(self, tmp_path, capsys):
        save_gate(load_gate("and"), tmp_path / "and.json")
        doc = json.loads((tmp_path / "and.json").read_text())
        doc["j"][0][1] = -doc["j"][0][1]
        doc["j"][1][0] = -doc["j"][1][0]
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["verify", str(tmp_path / "broken.json")]) == 3
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("make_doc, message", [
        (lambda doc: {k: v for k, v in doc.items() if k != "visible"},
         "'visible' is a required property"),
        (lambda doc: [1, 2], "[1, 2] is not of type 'object'"),
        (lambda doc: {**doc, "visible": {**doc["visible"], "A": "x"}},
         "'x' is not of type 'integer'"),
    ], ids=["visible_missing", "not_an_object", "visible_not_an_index"])
    def test_malformed_gate_file(self, tmp_path, capsys, make_doc, message):
        # each used to end in a KeyError, TypeError or ValueError traceback
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(make_doc(gate_to_json(load_gate("and")))))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("n, message", [
        (7, "n is 7, but J is 3 x 3"),
        ("3", "'3' is not of type 'integer'"),
    ], ids=["mismatch", "not_an_integer"])
    def test_n_must_match_j(self, tmp_path, capsys, n, message):
        # an n of 7 used to be ignored, and the gate verified as ok
        path = tmp_path / "and.json"
        path.write_text(json.dumps({**gate_to_json(load_gate("and")), "n": n}))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("field, value, message", [
        ("j", 0.5, "0.5 is not of type 'array'"),
        ("j", -1, "-1 is not of type 'array'"),
        ("j", [1.5], "1.5 is not of type 'array'"),
        ("h", [0, "x", 1], "'x' is not of type 'number'"),
    ], ids=["j_float", "j_int", "j_vector", "h_string"])
    def test_j_and_h_are_numeric_arrays(self, tmp_path, capsys, field, value, message):
        # a number for J used to end in an IndexError traceback
        path = tmp_path / "and.json"
        path.write_text(json.dumps({**gate_to_json(load_gate("and")), field: value}))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("field, value, message", [
        ("h", [1e308, 0, 0], "1e+308 is greater than the maximum of 9007199254740992"),
        ("j", [[0, -1e308, 0], [-1e308, 0, 0], [0, 0, 0]],
         "-1e+308 is less than the minimum of -9007199254740992"),
    ], ids=["h", "j"])
    def test_huge_coefficients_rejected(self, tmp_path, capsys, field, value, message):
        # an h entry of 1e308 used to print numpy's overflow warning before
        # its exit-3 error
        path = tmp_path / "and.json"
        path.write_text(json.dumps({**gate_to_json(load_gate("and")), field: value}))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("field", ["inputs", "outputs"])
    def test_terminals_must_be_labels(self, tmp_path, capsys, field):
        # a terminal that names no visible label used to verify as ok
        path = tmp_path / "and.json"
        path.write_text(json.dumps({**gate_to_json(load_gate("and")), field: ["A", "nope"]}))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == "error: terminal 'nope' is not a visible label of 'and'\n"

    def test_json_lists_spurious_states(self, tmp_path, capsys):
        # with J and h all zero every state is a ground state
        gate = dataclasses.replace(load_gate("and"), j=np.zeros((3, 3)), h=np.zeros(3))
        save_gate(gate, tmp_path / "flat.json")
        assert main(["verify", str(tmp_path / "flat.json"), "--format", "json"]) == 3
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert not report["ok"]
        assert report["gap"] is None
        assert report["spurious"] == [1, 3, 5, 6]
        assert [1, 1, 0] in report["spurious_states"]


class TestSynth:
    def test_lp_writes_verified_gate(self, tmp_path, capsys):
        spec = tmp_path / "and.json"
        spec.write_text(json.dumps({
            "name": "my_and",
            "table": [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 1]],
            "labels": ["A", "B", "C"],
        }))
        out = tmp_path / "gates"
        assert main(["synth", str(spec), "--out", str(out)]) == 0
        # the file records the writer's check; loading it does not trust that
        assert json.loads((out / "my_and.json").read_text())["verified"] is True
        doc = json.loads((out / "my_and.json").read_text())
        assert verify_ground_states(gate_from_json(doc)).verified
        assert "gap=" in capsys.readouterr().out

    def test_terminals_must_be_labels(self, tmp_path, capsys):
        # these terminals used to be written to a verified gate file, exit 0
        spec = tmp_path / "and.json"
        spec.write_text(json.dumps({
            "name": "my_and",
            "table": [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 1]],
            "labels": ["A", "B", "C"], "inputs": ["Z", "Q"], "outputs": ["nope"],
        }))
        out = tmp_path / "gates"
        assert main(["synth", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: terminal 'Z' is not a visible label of 'my_and'\n"
        assert not (out / "my_and.json").exists()

    def test_terminals_are_checked_before_the_search(self, tmp_path, capsys):
        # the bare XOR table has no feasible gate: this used to exit 3, "no
        # feasible coupling matrix", after its LP search
        spec = tmp_path / "xor.json"
        spec.write_text(json.dumps({
            "name": "my_xor",
            "table": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "labels": ["A", "B", "S"], "inputs": ["nope"],
        }))
        out = tmp_path / "gates"
        assert main(["synth", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: terminal 'nope' is not a visible label of 'my_xor'\n")
        assert not (out / "my_xor.json").exists()

    def test_method_field_rejected(self, tmp_path):
        # LP is the only synthesizer; the old "method" switch is a schema error
        spec = tmp_path / "copy.json"
        spec.write_text(json.dumps({
            "name": "my_copy",
            "table": [[0, 0], [1, 1]],
            "method": "exhaustive",
        }))
        assert main(["synth", str(spec), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "my_copy.json").exists()

    @pytest.mark.parametrize("table", [[[0, 2], [1, 0]], [["x", 0], [1, 1]]])
    def test_table_entries_must_be_bits(self, tmp_path, capsys, table):
        # a 2 used to synthesize a gate, a string to end in a traceback
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"name": "odd", "table": table}))
        assert main(["synth", str(spec), "--out", str(tmp_path)]) == 2
        assert "is not one of [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "odd.json").exists()

    @pytest.mark.parametrize("assignments, message", [
        ([1], "1 is not of type 'array'"),
        ([[0, "x", 1, 0]], "'x' is not of type 'integer'"),
        ([[0, 0.5, 1, 0]], "0.5 is not of type 'integer'"),
        ([[0, -1, 1, 0]], "-1 is less than the minimum of 0"),
    ])
    def test_aux_assignments_are_lists_of_words(self, tmp_path, capsys, assignments, message):
        # [1] used to end in "TypeError: 'int' object is not iterable"
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({
            "name": "odd", "table": [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 1]],
            "n_aux": 1, "aux_assignments": assignments,
        }))
        assert main(["synth", str(spec), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert not (tmp_path / "odd.json").exists()

    @pytest.mark.parametrize("fields, message", [
        ({"table": [[0, 1], []]}, "[] should be non-empty"),
        ({"table": [[0, 0], [1, 1, 1]]}, "truth table width must be the same in every row"),
        ({"n_aux": 1, "aux_assignments": [[0]]},
         "each aux assignment needs one word per truth row (2), each below 2**n_aux = 2"),
        ({"n_aux": 1, "aux_assignments": [[0, 1, 1]]},
         "each aux assignment needs one word per truth row (2), each below 2**n_aux = 2"),
        ({"n_aux": 1, "aux_assignments": [[5, 7]]},
         "each aux assignment needs one word per truth row (2), each below 2**n_aux = 2"),
        ({"n_aux": 1, "aux_assignments": []}, "[] should be non-empty"),
    ], ids=["empty_row", "ragged_rows", "short_assignment", "long_assignment", "wide_words",
            "no_assignments"])
    def test_malformed_table_or_assignments(self, tmp_path, capsys, fields, message):
        # the rows used to end in a ValueError or IndexError traceback; the
        # short assignment was cut to its first rows by zip and failed
        # verification, the wide words were masked to [1, 1], and an empty
        # list of assignments searched every assignment
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"name": "odd", "table": [[0, 0], [1, 1]], **fields}))
        assert main(["synth", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["../x", "a/b", "x\0"])
    def test_name_is_a_plain_file_name(self, tmp_path, capsys, name):
        # "../x" used to write x.json beside the output directory
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"name": name, "table": [[0, 0], [1, 1]]}))
        out = tmp_path / "o"
        assert main(["synth", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: gate name {name!r} is not a plain file name\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]

    def test_unbounded_search_refused(self, tmp_path, capsys, monkeypatch):
        # 4-input parity with one aux bit: searching every assignment of 16
        # rows would solve 2**16 LPs and used to run on for minutes
        def no_lp(*args, **kwargs):
            raise AssertionError("the search started solving")

        monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
        table = [[*bits, sum(bits) % 2] for bits in itertools.product((0, 1), repeat=4)]
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"name": "parity4", "table": table, "n_aux": 1}))
        assert main(["synth", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: searching every aux assignment would solve 2**16 LPs, past the "
            "limit of 4096; list candidates in aux_assignments\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("max_weight, text", [(float("nan"), "NaN"),
                                                  (float("inf"), "Infinity")])
    def test_max_weight_must_be_finite(self, tmp_path, capsys, max_weight, text):
        # both used to exit 3 with "no feasible coupling matrix at the given
        # bound", as if the table had no gate
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"name": "my_and", "max_weight": max_weight,
                                    "table": [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 1]]}))
        assert main(["synth", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {text} is not a finite number\n"
        assert not (tmp_path / "o").exists()

    def test_infeasible_exits_three(self, tmp_path):
        spec = tmp_path / "xor.json"
        spec.write_text(json.dumps({
            "name": "bare_xor",
            "table": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
        }))
        assert main(["synth", str(spec), "--out", str(tmp_path)]) == 3


class TestSweeps:
    def test_sweep_tau(self, scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep-tau", str(scenario), "--taus", "1000,2000",
                     "--samples", "300", "--out", str(out)])
        assert code == 0
        lines = (out / "distance.csv").read_text().strip().splitlines()
        assert lines[0] == "tau_ratio,distance"
        assert len(lines) == 3

    def test_sweep_retention(self, scenario, tmp_path):
        out = tmp_path / "out"
        plans = json.dumps([[200000, 200000, 200000], [137000, 200000, 263000]])
        code = main(["sweep-retention", str(scenario), "--plans", plans,
                     "--samples", "300", "--out", str(out)])
        assert code == 0
        lines = (out / "distance.csv").read_text().strip().splitlines()
        assert lines[0] == "plan,tau_ratio,distance"
        assert len(lines) == 3

    @pytest.mark.parametrize("extra", [["sweep-tau", "--taus", "1000"],
                                       ["sweep-retention", "--plans", "[200000]"]])
    def test_updates_only_scenario_needs_samples(self, tmp_path, capsys, extra):
        doc = json.loads(write_scenario(tmp_path / "u.json").read_text())
        del doc["samples"]
        doc["updates"] = 100
        path = tmp_path / "u.json"
        path.write_text(json.dumps(doc))
        command, *args = extra
        assert main([command, str(path), *args, "--out", str(tmp_path / "o")]) == 2
        assert "'samples' budget" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["sweep-tau", "--taus", "1000"],
                                       ["sweep-retention", "--plans", "[200000]"]])
    @pytest.mark.parametrize("field, value", [
        ("updates", 100), ("record_trace", True), ("serialization_window_us", 50)])
    def test_run_only_field_refused(self, tmp_path, capsys, extra, field, value):
        # a sweep used to accept these, ignore them and exit 0
        path = write_scenario(tmp_path / "s.json", **{field: value})
        command, *args = extra
        assert main([command, str(path), *args, "--out", str(tmp_path / "o")]) == 2
        assert f"sweeps do not read '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("extra", [["sweep-tau", "--taus", "1000"],
                                       ["sweep-retention", "--plans", "[200000]"]])
    def test_compare_oracle_false_refused(self, tmp_path, capsys, extra):
        # a sweep always measures against the oracle; it used to ignore this
        path = write_scenario(tmp_path / "s.json", compare_oracle=False)
        command, *args = extra
        assert main([command, str(path), *args, "--out", str(tmp_path / "o")]) == 2
        assert "'compare_oracle': false" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_histogram_over_sets_the_marginal(self, tmp_path):
        # the distance is measured over the named units; it used to ignore them
        def distance(**fields):
            path = write_scenario(tmp_path / "s.json", **fields)
            out = tmp_path / "out"
            assert main(["sweep-tau", str(path), "--taus", "1000", "--samples", "2000",
                         "--out", str(out)]) == 0
            return (out / "distance.csv").read_text()

        full = distance()
        assert distance(histogram_over=["A", "B", "C"]) == full
        only_c = distance(histogram_over=["C"])
        assert only_c != full
        net = build_and_machine(0.8)
        rows = sweep_sampling_time(net, 7, [1000], 2000, units=[2])
        assert only_c.splitlines()[1] == f"{rows[0]['tau_ratio']!r},{rows[0]['distance']!r}"

    def test_histogram_over_unknown_label(self, tmp_path, capsys):
        path = write_scenario(tmp_path / "s.json", histogram_over=["Z"])
        assert main(["sweep-tau", str(path), "--taus", "1000", "--out", str(tmp_path)]) == 2
        assert "unknown histogram labels ['Z']" in capsys.readouterr().err

    def test_taus_must_be_integers(self, scenario, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-tau", str(scenario), "--taus", "1k", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "not comma-separated integers: '1k'" in capsys.readouterr().err

    def test_long_inline_plans(self, scenario, tmp_path):
        # a value longer than a file name used to crash Path.exists()
        plans = json.dumps([[200000 + k, 200000, 200000] for k in range(30)])
        assert len(plans) >= 780
        out = tmp_path / "out"
        code = main(["sweep-retention", str(scenario), "--plans", plans,
                     "--samples", "30", "--out", str(out)])
        assert code == 0
        assert len((out / "distance.csv").read_text().strip().splitlines()) == 31

    def test_plans_validated(self, scenario, tmp_path, capsys):
        code = main(["sweep-retention", str(scenario), "--plans", '[["a", 1, 1]]',
                     "--samples", "300", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'a'" in capsys.readouterr().err


class TestReport:
    def test_top_states(self, scenario, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(scenario), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out / "histogram.csv"), "--top", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("state ")

    def test_ties_by_state_in_an_unsorted_file(self, tmp_path, capsys):
        path = tmp_path / "histogram.csv"
        path.write_text("state,label,count,probability\n"
                        "3,11,1,0.25\n2,10,2,0.5\n0,00,0,0.0\n1,01,1,0.25\n")
        assert main(["report", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["state"] for r in report] == [2, 1, 3, 0]
        assert report[1] == {"state": 1, "label": "01", "probability": 0.25}

    @pytest.mark.parametrize("text, message", [
        ("", "histogram file is empty"),
        ("state,label,count,probability\n\n", "histogram file is empty"),
        ("state,label,count\n0,000,5\n", "lacks the columns ['probability']"),
        ("state,label,count,probability\n0,000,5,high\n", "numeric probability"),
        ("state,label,count,probability\nzero,000,5,0.5\n", "integer state"),
        ("state,label,count,probability\n0,000,5,0.5\n1,001\n", "integer state"),
        ("state,label,count,probability\n99999999999999999999,0,5,0.5\n", "integer state"),
    ])
    def test_malformed_histogram(self, tmp_path, capsys, text, message):
        path = tmp_path / "histogram.csv"
        path.write_text(text)
        assert main(["report", str(path)]) == 2
        assert message in capsys.readouterr().err


# Fuzzed input documents of every subcommand: each ends in exit 0, 2 or 3,
# with a message on stderr when it fails, never in a traceback or a hang.

ROOT = Path(__file__).resolve().parent.parent
GATE_DIR = Path(networks.__file__).parent / "gates"

# what a mutated field becomes: null, a bool, 0, -1, a huge int, a float
# (an integral one too), a string, a list or a dict
VALUES = [None, True, False, 0, -1, 2**70, 0.5, 2.0, "x", [0, 1], {"k": 1}]
# budgets are cut to this, only to bound each case's time; budgets past the
# run's limits have their own refusal tests
BUDGET_CAP = 2000
# seconds a case may take
CASE_SECONDS = 10


def _gate_table(name: str) -> dict:
    """A truth-table document for ``synth`` from a shipped gate, with each
    row's auxiliary word read off the gate's ground states, so that one LP
    solves it."""
    gate = json.loads((GATE_DIR / f"{name}.json").read_text())
    n_aux = len(gate["auxiliary"])
    doc = {"name": name, "table": gate["truth_table"], "labels": list(gate["visible"]),
           "inputs": gate["inputs"], "outputs": gate["outputs"], "n_aux": n_aux}
    if n_aux:
        energies = all_energies(gate_from_json(gate).coupling(1.0))
        doc["aux_assignments"] = [[int(energies[state_index(row) << n_aux:][:1 << n_aux].argmin())
                                   for row in gate["truth_table"]]]
    return doc


# a histogram.csv as ``run`` writes it, as rows of cells
HISTOGRAM = [["state", "label", "count", "probability"],
             ["0", "000", "799", "0.4438888888888889"], ["1", "001", "0", "0.0"],
             ["2", "010", "601", "0.3338888888888889"], ["7", "111", "400", "0.2222222222222222"]]

SCENARIOS = {p.stem: json.loads(p.read_text()) for p in sorted((ROOT / "scenarios").glob("*.json"))}
# no shipped scenario has a raw coupling matrix: the AND gate's, as one
_AND = json.loads((GATE_DIR / "and.json").read_text())
SCENARIOS["matrix"] = {
    "name": "matrix",
    "network": {"kind": "matrix", "i0": 0.8, "j": _AND["j"], "h": _AND["h"],
                "labels": _AND["visible"], "tau_sample_us": 1000},
    "retention_us": 200_000, "seed": 3, "samples": BUDGET_CAP, "compare_oracle": True,
}
PLANS = json.dumps([[200_000] * 3, [137_000, 200_000, 263_000]])
# subcommand -> (its documents, the arguments after the input file)
COMMANDS = {
    "run": (SCENARIOS, []),
    "sweep-tau": (SCENARIOS, ["--taus", "1000,50000"]),
    "sweep-retention": (SCENARIOS, ["--plans", PLANS]),
    "verify": ({p.stem: json.loads(p.read_text()) for p in sorted(GATE_DIR.glob("*.json"))}, []),
    "synth": ({g: _gate_table(g) for g in ("and", "copy", "half_adder", "xor")}, []),
    "report": ({"histogram": HISTOGRAM}, []),
}


@st.composite
def fields(draw, doc):
    """The path of a field of ``doc``: a key at each level from the top,
    stopping at a value that is not a container, or at random above it, so
    that a top-level field is drawn as often as a matrix entry."""
    path, node = [], doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        if not isinstance(node[key], (dict, list)) or not node[key] or draw(st.booleans()):
            return path
        node = node[key]


@st.composite
def mutants(draw, doc, values):
    """A copy of ``doc`` with one to three fields changed to one of ``values``."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(fields(doc))
        target = doc
        for part in parents:
            target = target[part]
        target[key] = copy.deepcopy(draw(st.sampled_from(values)))
    return doc


@st.composite
def cases(draw, values=VALUES):
    """A subcommand and one of its documents with one to three fields
    changed, budgets cut to ``BUDGET_CAP``."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    docs, _ = COMMANDS[command]
    doc = draw(mutants(docs[draw(st.sampled_from(sorted(docs)))], values))
    if command not in ("verify", "synth", "report"):
        for budget in ("samples", "updates"):
            value = doc.get(budget)
            if type(value) is int and value > BUDGET_CAP:
                doc[budget] = BUDGET_CAP
    return command, doc


def _write(command, doc, path: Path) -> None:
    if command != "report":
        path.write_text(json.dumps(doc))
        return
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [c if isinstance(c, str) else json.dumps(c) for c in row]
            if isinstance(row, list) else [json.dumps(row)] for row in doc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=cases())
def test_fuzzed_documents_exit_cleanly(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        _write(command, doc, path)
        argv = [command, str(path), *COMMANDS[command][1]]
        if command in ("run", "sweep-tau", "sweep-retention", "synth"):
            argv += ["--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with within(CASE_SECONDS):
                try:
                    code = main(argv)
                except Exception:
                    pytest.fail(f"{argv[0]} on {json.dumps(doc)}:\n{traceback.format_exc()}")
    message = err.getvalue()
    assert code in (0, 2, 3), message
    assert "Traceback" not in message
    if code:
        assert message.startswith("error: ") and message[len("error: "):].strip(), message


# The CLI's checker against the validator it replaced: jsonschema's Draft
# 2020-12 validator with an integer type that refuses floats, picking its
# error with best_match. On every document both must accept, or both refuse
# with the text ``main`` prints.

_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)))


def reference_validate(doc, schema: dict) -> None:
    """Raise the best-matching error of ``doc`` under one of the schemas
    above, as ``jsonschema.validate`` does, but with an ``integer`` type
    that refuses floats, and without checking the schema itself against its
    metaschema on every call, which costs far more than the validation; the
    tests check each schema once.

    A broken ``not`` rule is reported by the fields it forbids, since
    jsonschema's message echoes the whole object, matrices and lists too."""
    error = jsonschema.exceptions.best_match(
        _Validator(schema).iter_errors(doc))
    if error is None:
        return
    if error.validator == "not":  # {"required": [...]} or {"anyOf": [{"required": [f]}, ...]}
        obj, rule = error.instance, error.validator_value
        names = rule.get("required") or [f for alt in rule["anyOf"] for f in alt["required"]]
        fields = " and ".join(repr(f) for f in names if f in obj)
        where = "".join(f"{part}: " for part in error.absolute_path)
        context = f"for kind {obj['kind']!r}" if "kind" in obj else "together"
        raise ConfigurationError(f"{where}{fields} may not be given {context}")
    raise error


def verdict(validate, doc, schema):
    """None if ``validate`` accepts ``doc``, else the message ``main`` prints."""
    try:
        validate(doc, schema)
    except ConfigurationError as exc:
        return str(exc)
    except jsonschema.ValidationError as exc:
        return exc.message
    return None


def same_verdict(doc, schema):
    expected = verdict(reference_validate, doc, schema)
    assert verdict(cli._validate, doc, schema) == expected
    return expected


SCHEMAS = {"run": SCENARIO_SCHEMA, "sweep-tau": SCENARIO_SCHEMA,
           "sweep-retention": SCENARIO_SCHEMA, "verify": GATE_FILE_SCHEMA,
           "synth": GATE_INPUT_SCHEMA}
# the fuzz test's values, and values near the schemas' bounds, of types
# JSON equality tells apart, and repeated in lists
CHECKED_VALUES = VALUES + [
    1, 1.0, -0.5, 53, 54, 2**53, 2**53 + 1, -2**53 - 1, 1e308, -1e308, "", "and", [], {},
    [1, 1.0], [True, 1], [False, 0], ["A", "A"], [[0, 1], [0, 1]], [[1], [True], [1]],
    [{"k": 1}, {"k": 1.0}], {"kind": "gate"}, {"seed": 1}]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(case=cases(CHECKED_VALUES))
def test_checker_matches_the_reference(case):
    command, doc = case
    assume(command in SCHEMAS)
    same_verdict(doc, SCHEMAS[command])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(plans=st.one_of(mutants(json.loads(PLANS), CHECKED_VALUES),
                       st.sampled_from(CHECKED_VALUES)))
def test_checker_matches_the_reference_on_plans(plans):
    same_verdict(plans, PLANS_SCHEMA)


@pytest.mark.parametrize("schema", [SCENARIO_SCHEMA, PLANS_SCHEMA, GATE_INPUT_SCHEMA,
                                    GATE_FILE_SCHEMA], ids=["scenario", "plans", "gate_input",
                                                            "gate_file"])
def test_checker_matches_the_reference_on_whole_documents(schema):
    for doc in CHECKED_VALUES:
        same_verdict(doc, schema)


_BASE = {"name": "x", "network": {"kind": "gate", "gate": "and", "i0": 0.8}, "seed": 1,
         "samples": 10}


@pytest.mark.parametrize("doc, schema, message", [
    # sorted neighbours [1], [1] and [True] differ by JSON equality, so the
    # list counts as unique and the first of its items' errors is reported
    ({**_BASE, "histogram_over": [[1], [True], [1]]}, SCENARIO_SCHEMA,
     "[1] is not of type 'string'"),
    ({**_BASE, "histogram_over": ["A", "B", "A"]}, SCENARIO_SCHEMA,
     "['A', 'B', 'A'] has non-unique elements"),
    ({**_BASE, "retention_normal": {"seed": 1, "z": 0, "a": 0}}, SCENARIO_SCHEMA,
     "Additional properties are not allowed ('a', 'z' were unexpected)"),
    ({"name": "x", "table": [[True, 0], [1, 1]]}, GATE_INPUT_SCHEMA,
     "True is not one of [0, 1]"),
    ({"name": "x", "table": [[1.0, 0], [1, 1]]}, GATE_INPUT_SCHEMA, None),
    # oneOf: the deepest, earliest error of its alternatives
    ({**_BASE, "retention_us": [1, 0, "x"]}, SCENARIO_SCHEMA, "0 is less than the minimum of 1"),
    # oneOf: the alternatives' two errors tie, so oneOf's own is reported
    ({**_BASE, "retention_us": True}, SCENARIO_SCHEMA,
     "True is not valid under any of the given schemas"),
    ({**_BASE, "network": {"kind": "gate", "i0": 1, "j": [[0]], "labels": {}}}, SCENARIO_SCHEMA,
     "'gate' is a required property"),
], ids=["unique_by_neighbours", "repeated_label", "two_extras", "true_is_not_1",
        "1.0_is_1", "one_of_descends", "one_of_tie", "then_before_else"])
def test_checker_matches_the_reference_on_edge_cases(doc, schema, message):
    assert same_verdict(doc, schema) == message


def test_every_shipped_document_is_accepted():
    for command, schema in SCHEMAS.items():
        for doc in COMMANDS[command][0].values():
            assert same_verdict(doc, schema) is None
    assert same_verdict(json.loads(PLANS), PLANS_SCHEMA) is None
