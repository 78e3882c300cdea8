"""Command-line front end: scenario runs, sweeps, gate verification and synthesis.

A scenario is a JSON document naming a network (a shipped gate, a raw
coupling matrix, or one of the composite builders), a clamp plan, timing
parameters and a run budget. ``run`` executes it and writes ``histogram.csv``
plus ``report.json`` (and optionally ``trace.csv``) into the output
directory; the sweep subcommands write ``distance.csv``.

Exit codes: 0 success, 2 configuration/validation error, 3 verification or
synthesis failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, dynamics
from .core import QuantizationConfig
from .errors import CapacityError, ConfigurationError, SynthesisError, VerificationError
from .networks import (
    SHIPPED_GATES,
    GateSpec,
    NetworkSpec,
    build_factorizer,
    build_full_adder,
    build_rca4,
    gate_from_json,
    ground_state_report,
    load_gate,
    normal_retention_plan,
    save_gate,
    single_machine_network,
    synthesize_gate_lp,
    verify_ground_states,
)

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["name", "network", "seed"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "network": {
            "type": "object",
            "required": ["kind", "i0"],
            "additionalProperties": False,
            "properties": {
                "kind": {
                    "enum": ["gate", "matrix", "full_adder", "rca4", "factorizer"]
                },
                "gate": {"enum": list(SHIPPED_GATES)},
                "j": {"type": "array"},
                "h": {"type": "array"},
                "labels": {"type": "object",
                           "additionalProperties": {"type": "integer", "minimum": 0}},
                # float64 holds every integer exactly only up to 2**53, and
                # numpy's checks take no integer past int64
                "i0": {"type": "number", "minimum": 0, "maximum": 2 ** sys.float_info.mant_dig},
                "tau_sample_us": {"type": "integer", "minimum": 1},
                # float64 holds every DAC code exactly up to 2**53
                "dac_bits": {"type": "integer", "minimum": 0,
                             "maximum": sys.float_info.mant_dig},
                "vref": {"type": "number", "exclusiveMinimum": 0},
            },
            # a field only one kind's build reads is refused on every other kind
            "allOf": [
                {"if": {"properties": {"kind": {"const": "gate"}}},
                 "then": {"required": ["gate"]},
                 "else": {"not": {"required": ["gate"]}}},
                {"if": {"properties": {"kind": {"const": "matrix"}}},
                 "then": {"required": ["j", "h"]},
                 "else": {"not": {"anyOf": [{"required": [f]} for f in ("j", "h", "labels")]}}},
            ],
        },
        "clamps": {
            "type": "object",
            "additionalProperties": {"type": "integer", "enum": [0, 1]},
        },
        "retention_us": {
            "oneOf": [
                {"type": "integer", "minimum": 1},
                {"type": "array", "items": {"type": "integer", "minimum": 1}},
            ]
        },
        "retention_normal": {
            "type": "object",
            "required": ["seed"],
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "integer", "minimum": 0},
                "mean_us": {"type": "integer", "minimum": 1},
                "lo_us": {"type": "integer", "minimum": 1},
                "hi_us": {"type": "integer", "minimum": 1},
                "sigma_us": {"type": "integer", "minimum": 1},
            },
        },
        "jitter_fraction": {"type": "number", "minimum": 0, "maximum": 1},
        "phases_us": {
            "oneOf": [
                {"type": "integer", "minimum": 0},
                {"type": "array", "items": {"type": "integer", "minimum": 0}},
            ]
        },
        "seed": {"type": "integer", "minimum": 0},
        "samples": {"type": "integer", "minimum": 1},
        "updates": {"type": "integer", "minimum": 1},
        "burn_in": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "histogram_over": {
            "type": "array",
            "items": {"type": "string"},
            "minItems": 1,
            "uniqueItems": True,
        },
        "record_trace": {"type": "boolean"},
        "compare_oracle": {"type": "boolean"},
        # a window past every virtual time would overflow the int64 times
        "serialization_window_us": {"type": "integer", "minimum": 1,
                                    "maximum": dynamics.TIME_LIMIT_US},
    },
    # both set every unit's retention, so a scenario gives at most one plan
    "not": {"required": ["retention_us", "retention_normal"]},
}

GATE_INPUT_SCHEMA = {
    "type": "object",
    "required": ["name", "table"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "table": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "minItems": 1, "items": {"enum": [0, 1]}},
        },
        "n_aux": {"type": "integer", "minimum": 0},
        "labels": {"type": "array", "items": {"type": "string"}},
        "inputs": {"type": "array", "items": {"type": "string"}},
        "outputs": {"type": "array", "items": {"type": "string"}},
        # each an aux word per truth row
        "aux_assignments": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
        "max_weight": {"type": "number", "exclusiveMinimum": 0},
    },
}

# a J or h entry of a gate file: as for network.i0, float64 holds every
# integer exactly only up to 2**53, and a state's energy, a sum of such
# entries, then stays far from overflow
GATE_COEFFICIENT = {"type": "number", "minimum": -2 ** sys.float_info.mant_dig,
                    "maximum": 2 ** sys.float_info.mant_dig}

# the fields gate_from_json converts; GateSpec checks the gate they make
GATE_FILE_SCHEMA = {
    "type": "object",
    "required": ["name", "visible", "inputs", "outputs", "auxiliary", "truth_table", "j", "h"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        # gate_from_json checks it against J's size
        "n": {"type": "integer"},
        "visible": {"type": "object", "additionalProperties": {"type": "integer"}},
        "inputs": {"type": "array"},
        "outputs": {"type": "array"},
        "auxiliary": {"type": "array", "items": {"type": "integer"}},
        "truth_table": {"type": "array", "items": {"type": "array", "items": {"enum": [0, 1]}}},
        "j": {"type": "array", "items": {"type": "array", "items": GATE_COEFFICIENT}},
        "h": {"type": "array", "items": GATE_COEFFICIENT},
    },
}

# sweep-retention's --plans: each plan is what a scenario's retention_us may be
PLANS_SCHEMA = {
    "type": "array",
    "minItems": 1,
    "items": SCENARIO_SCHEMA["properties"]["retention_us"],
}


# The checker of input documents: an interpreter of the keywords the schemas
# above use, with the meaning, the messages and the error choice of
# jsonschema 4.26's Draft 2020-12 validator and its ``best_match``, except
# that its "integer" refuses an integral float such as 2.0, which the program
# would then use where it needs an int. tests/test_cli.py keeps that
# validator as the reference and fails on a keyword the checker lacks.


class _Error:
    """One failed keyword: its message, the errors of the alternatives of a
    failed ``anyOf`` or ``oneOf``, the keyword and its value, the instance
    and the schema that hold them, and the path to the instance from the
    instance of the keyword that descended into its schema."""

    __slots__ = ("message", "context", "keyword", "rule", "instance", "schema", "path")

    def __init__(self, message: str, context=()):
        self.message, self.context = message, context
        self.keyword = self.rule = self.instance = self.schema = None
        self.path = ()


# a bool is an int to Python, but only a boolean to JSON
_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "number": (int, float), "boolean": bool, "null": type(None)}


def _is_type(instance, name: str) -> bool:
    if isinstance(instance, bool):
        return name == "boolean"
    return isinstance(instance, _TYPES[name])


def _type_names(rule) -> list:
    """The names a ``type`` rule lists: one name, or a list of them."""
    return [rule] if isinstance(rule, str) else rule


def _of_type(instance, rule) -> bool:
    return any(_is_type(instance, name) for name in _type_names(rule))


def _equal(one, two) -> bool:
    """JSON equality: ``True`` is not 1, 1 is 1.0, and lists and objects
    compare member by member."""
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, list) and isinstance(two, list):
        return len(one) == len(two) and all(map(_equal, one, two))
    if isinstance(one, dict) and isinstance(two, dict):
        return len(one) == len(two) and all(k in two and _equal(v, two[k]) for k, v in one.items())
    return _unbool(one) == _unbool(two)


def _unbool(value, true=object(), false=object()):
    """``value``, with ``True`` and ``False`` made unequal to every number."""
    if value is True:
        return true
    if value is False:
        return false
    return value


def _unique(items: list) -> bool:
    """Whether no two of ``items`` are equal: neighbours in sorted order, or
    every pair where the items do not sort, as jsonschema decides it."""
    try:
        ordered = sorted(map(_unbool, items))
        return not any(map(_equal, ordered, ordered[1:]))
    except (NotImplementedError, TypeError):
        seen = []
        for item in map(_unbool, items):
            if any(_equal(other, item) for other in seen):
                return False
            seen.append(item)
        return True


def _errors(instance, schema: dict):
    """Yield the errors of ``instance`` under ``schema``, keyword by keyword
    in the schema's order."""
    for keyword, rule in schema.items():
        check = _KEYWORDS.get(keyword)
        if check is None:  # then and else, which if reads
            continue
        for error in check(instance, rule, schema):
            if error.keyword is None:  # raised here, not in a subschema
                error.keyword, error.rule = keyword, rule
                error.instance, error.schema = instance, schema
            yield error


def _descend(instance, schema: dict, step):
    """The errors of ``instance``, the member ``step`` (a key or an index)
    of the instance being checked, with ``step`` put first in their paths."""
    for error in _errors(instance, schema):
        error.path = (step, *error.path)
        yield error


def _valid(instance, schema: dict) -> bool:
    return next(_errors(instance, schema), None) is None


def _type(instance, rule, schema):
    if not _of_type(instance, rule):
        yield _Error(f"{instance!r} is not of type {', '.join(map(repr, _type_names(rule)))}")


def _enum(instance, values, schema):
    if not any(_equal(value, instance) for value in values):
        yield _Error(f"{instance!r} is not one of {values!r}")


def _const(instance, value, schema):
    if not _equal(instance, value):
        yield _Error(f"{value!r} was expected")


def _required(instance, names, schema):
    if _is_type(instance, "object"):
        for name in names:
            if name not in instance:
                yield _Error(f"{name!r} is a required property")


def _properties(instance, subschemas, schema):
    if _is_type(instance, "object"):
        for name, subschema in subschemas.items():
            if name in instance:
                yield from _descend(instance[name], subschema, name)


def _additional_properties(instance, rule, schema):
    if not _is_type(instance, "object"):
        return
    known = schema.get("properties", {})
    extras = [name for name in instance if name not in known]
    if isinstance(rule, dict):
        for name in extras:
            yield from _descend(instance[name], rule, name)
    elif not rule and extras:
        verb = "was" if len(extras) == 1 else "were"
        names = ", ".join(map(repr, sorted(extras, key=str)))
        yield _Error(f"Additional properties are not allowed ({names} {verb} unexpected)")


def _items(instance, subschema, schema):
    if _is_type(instance, "array"):
        for index, item in enumerate(instance):
            yield from _descend(item, subschema, index)


def _bound(fails, words):
    """A check of a number against a bound: ``fails(instance, bound)`` is
    true where the check fails."""
    def check(instance, bound, schema):
        if _is_type(instance, "number") and fails(instance, bound):
            yield _Error(f"{instance!r} is {words} {bound!r}")
    return check


def _min_size(kind):
    def check(instance, least, schema):
        if _is_type(instance, kind) and len(instance) < least:
            yield _Error(f"{instance!r} {'should be non-empty' if least == 1 else 'is too short'}")
    return check


def _unique_items(instance, rule, schema):
    if rule and _is_type(instance, "array") and not _unique(instance):
        yield _Error(f"{instance!r} has non-unique elements")


def _all_of(instance, subschemas, schema):
    for subschema in subschemas:
        yield from _errors(instance, subschema)


def _any_of(instance, subschemas, schema):
    context = []
    for subschema in subschemas:
        errors = list(_errors(instance, subschema))
        if not errors:
            return
        context += errors
    yield _Error(f"{instance!r} is not valid under any of the given schemas", context)


def _one_of(instance, subschemas, schema):
    rest = iter(subschemas)
    context = []
    for subschema in rest:
        errors = list(_errors(instance, subschema))
        if not errors:
            break
        context += errors
    else:
        yield _Error(f"{instance!r} is not valid under any of the given schemas", context)
        return
    also = [other for other in rest if _valid(instance, other)]
    if also:
        valid = ", ".join(map(repr, [*also, subschema]))
        yield _Error(f"{instance!r} is valid under each of {valid}")


def _not(instance, subschema, schema):
    if _valid(instance, subschema):
        yield _Error(f"{instance!r} should not be valid under {subschema!r}")


def _if(instance, subschema, schema):
    if _valid(instance, subschema):
        if "then" in schema:
            yield from _errors(instance, schema["then"])
    elif "else" in schema:
        yield from _errors(instance, schema["else"])


_KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "const": _const,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(operator.ge, "greater than or equal to the maximum of"),
    "minLength": _min_size("string"),
    "minItems": _min_size("array"),
    "uniqueItems": _unique_items,
    "allOf": _all_of,
    "anyOf": _any_of,
    "oneOf": _one_of,
    "not": _not,
    "if": _if,
}


def _relevance(error: _Error) -> tuple:
    """``best_match``'s key: the larger, the shallower the error's path,
    then the later among siblings, then not an ``anyOf`` or ``oneOf``, then
    of a schema whose ``type`` the instance fails."""
    matches = "type" in error.schema and _of_type(error.instance, error.schema["type"])
    return -len(error.path), error.path, error.keyword not in ("anyOf", "oneOf"), not matches


def _validate(doc, schema: dict) -> None:
    """Raise a ConfigurationError with the best-matching error of ``doc``
    under one of the schemas above: the largest by ``_relevance``, and then,
    while it has alternatives' errors, the least of those unless the two
    least tie.

    A broken ``not`` rule is reported by the fields it forbids, since its
    message echoes the whole object, matrices and lists too."""
    best = max(_errors(doc, schema), key=_relevance, default=None)
    if best is None:
        return
    where = best.path
    while best.context:
        first, *second = sorted(best.context, key=_relevance)[:2]
        if second and _relevance(first) == _relevance(second[0]):
            break
        best = first
        where += best.path
    if best.keyword == "not":  # {"required": [...]} or {"anyOf": [{"required": [f]}, ...]}
        obj, rule = best.instance, best.rule
        names = rule.get("required") or [f for alt in rule["anyOf"] for f in alt["required"]]
        fields = " and ".join(repr(f) for f in names if f in obj)
        prefix = "".join(f"{part}: " for part in where)
        context = f"for kind {obj['kind']!r}" if "kind" in obj else "together"
        raise ConfigurationError(f"{prefix}{fields} may not be given {context}")
    raise ConfigurationError(best.message)


def _finite(text: str) -> float:
    """JSON's number, refused unless finite: the hook of every input read
    for a float literal, and for the NaN, Infinity and -Infinity that
    Python's json reader accepts."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigurationError(f"{text} is not a finite number")
    return value


def _loads(text: str):
    """A JSON input document, its numbers finite (``_finite``). The reader
    recurses once per level of nesting, so a document nested past the
    interpreter's recursion limit is refused too."""
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except RecursionError:
        raise ConfigurationError("the JSON input is nested too deeply") from None


def _read_json(path):
    with open(path) as fh:
        return _loads(fh.read())


def load_scenario(path, overrides=None) -> dict:
    """Read a scenario, apply ``overrides`` (top-level keys) and validate it."""
    doc = _read_json(path)
    if overrides and isinstance(doc, dict):  # a non-object fails the schema below
        doc.update(overrides)
    _validate(doc, SCENARIO_SCHEMA)
    if "samples" not in doc and "updates" not in doc:
        raise ConfigurationError("scenario needs a 'samples' or 'updates' budget")
    return doc


def _matrix_network(spec: dict) -> NetworkSpec:
    labels = {str(k): int(v) for k, v in spec.get("labels", {}).items()}
    if not labels:
        labels = {f"pbit_{k}": k for k in range(len(spec["j"]))}
    gate = GateSpec(
        name="matrix",
        visible=labels,
        inputs=[],
        outputs=[],
        auxiliary=[],
        truth_table=[],
        j=spec["j"],
        h=spec["h"],
        verified=True,  # raw machines carry no truth table to verify against
    )
    return single_machine_network(gate, spec["i0"])


def build_network(doc: dict) -> NetworkSpec:
    """Instantiate the scenario's network with every override applied."""
    spec = doc["network"]
    kind = spec["kind"]
    i0 = spec["i0"]
    if kind == "gate":
        net = single_machine_network(load_gate(spec["gate"]), i0)
    elif kind == "matrix":
        net = _matrix_network(spec)
    elif kind == "full_adder":
        net = build_full_adder(i0)
    elif kind == "rca4":
        net = build_rca4(i0)
    else:
        net = build_factorizer(i0)

    if "tau_sample_us" in spec:
        net.set_tau_sample(spec["tau_sample_us"])
    if spec.get("dac_bits"):
        net.set_quantization(
            QuantizationConfig(dac_bits=spec["dac_bits"], vref=spec.get("vref", 5.0))
        )
    elif "vref" in spec:
        raise ConfigurationError("network 'vref' needs a positive 'dac_bits'")
    if "retention_us" in doc:
        net.set_retention(doc["retention_us"])
    if "retention_normal" in doc:
        kw = dict(doc["retention_normal"])
        net.set_retention(normal_retention_plan(net.n_total, kw.pop("seed"), **kw))
    if "jitter_fraction" in doc:
        net.set_jitter(doc["jitter_fraction"])
    if "phases_us" in doc:
        net.set_phases(doc["phases_us"])
    if doc.get("clamps"):
        net = net.with_clamps(doc["clamps"])
    net.validate()
    return net


def _histogram_labels(doc: dict, net: NetworkSpec) -> dict:
    wanted = doc.get("histogram_over", list(net.visible_labels))
    missing = [lab for lab in wanted if lab not in net.visible_labels]
    if missing:
        raise ConfigurationError(f"unknown histogram labels {missing}")
    analysis.check_histogram_units(len(wanted))
    return {lab: net.visible_labels[lab] for lab in wanted}


def _scenario_and_network(args):
    """Load the scenario with --seed/--samples/--burn-in applied, build its network."""
    overrides = {"seed": args.seed, "samples": args.samples, "burn_in": args.burn_in}
    doc = load_scenario(args.scenario, {k: v for k, v in overrides.items() if v is not None})
    return doc, build_network(doc)


def _periods(text: str) -> list:
    """argparse type of --taus: comma-separated integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _positive(text: str) -> int:
    """argparse type of --top: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def cmd_run(args) -> int:
    doc, net = _scenario_and_network(args)
    # the histogram's units and the exact law come first, so a histogram too
    # wide or a network the oracle cannot cover fails before the run
    labels = _histogram_labels(doc, net)
    exact = analysis.single_machine_oracle(net) if doc.get("compare_oracle") else None
    trace = dynamics.run(
        net,
        doc["seed"],
        max_samples=doc.get("samples"),
        max_updates=doc.get("updates"),
    )
    events = None
    if "serialization_window_us" in doc:
        events = dynamics.update_order(net, doc["seed"], trace.update_counts)
        if not events:
            raise ConfigurationError("the run made no updates, so it has no serialization "
                                     "to measure; give it a larger budget")
    # made only once the run stands, so a refused run leaves no directory behind
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    burn_in = doc.get("burn_in", analysis.DEFAULT_BURN_IN)
    emp = analysis.histogram(trace, labels, burn_in)
    emp.to_csv(outdir / "histogram.csv")
    if doc.get("record_trace"):
        trace.to_csv(outdir / "trace.csv")

    report = {
        "name": doc["name"],
        "seed": doc["seed"],
        "n_units": net.n_total,
        "samples": len(trace),
        "burn_in_discarded": emp.burn_in_discarded,
        "final_time_us": int(trace.final_time_us),
        "update_counts": [int(x) for x in trace.update_counts],
        "one_fractions": [
            float(o) / c if c else 0.0
            for o, c in zip(trace.one_counts, trace.update_counts)
        ],
        "modes": analysis.mode_report(emp, args.top),
    }
    if exact is not None:
        # the oracle's law is over every unit in order; a histogram over those is reused
        if list(labels.values()) == list(range(net.n_total)):
            report["oracle_distance"] = analysis.euclidean_distance(emp.probabilities, exact)
        else:
            report["oracle_distance"] = analysis.trace_distance(trace, exact, burn_in)
    if events:
        w = doc["serialization_window_us"]
        total = len(events)
        aligned = dynamics.alignment_flags(events, net, w)
        first = dynamics.serialization_metric(aligned, 0, min(1000, total))
        last = dynamics.serialization_metric(aligned, max(0, total - 2000), total)
        report["serialization_initial"] = first
        report["serialization_final"] = last
    with open(outdir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"{doc['name']}: {len(trace)} samples, {net.n_total} units")
        for row in report["modes"]:
            print(f"  state {row['label']} ({row['state']}): {row['probability']:.4f}")
        if "oracle_distance" in report:
            print(f"  oracle distance: {report['oracle_distance']:.4f}")
    return 0


def _sweep(args, sweep, points, columns, describe) -> int:
    """Run one oracle-distance sweep over ``points`` and write distance.csv."""
    doc, net = _scenario_and_network(args)
    if "samples" not in doc:
        raise ConfigurationError("sweeps need a 'samples' budget (scenario or --samples)")
    ignored = [f for f in ("updates", "record_trace", "serialization_window_us") if f in doc]
    if ignored:
        raise ConfigurationError(
            f"sweeps do not read {' or '.join(map(repr, ignored))}, which only 'run' uses")
    if doc.get("compare_oracle") is False:
        raise ConfigurationError("sweeps always compare with the oracle; "
                                 "'compare_oracle': false is for 'run' only")
    # the law over histogram_over's units, or over every unit when it is absent
    units = list(_histogram_labels(doc, net).values()) if "histogram_over" in doc else None
    rows = sweep(net, doc["seed"], points, doc["samples"],
                 doc.get("burn_in", analysis.DEFAULT_BURN_IN), units)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    analysis.distance_rows_to_csv(rows, outdir / "distance.csv", columns)
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            print(describe(row))
    return 0


def cmd_sweep_tau(args) -> int:
    return _sweep(
        args, analysis.sweep_sampling_time, args.taus, ("tau_ratio", "distance"),
        lambda row: f"tau={row['tau_us']}us ratio={row['tau_ratio']:g} "
                    f"distance={row['distance']:.4f}",
    )


def cmd_sweep_retention(args) -> int:
    # os.path.exists, unlike Path.exists, is False for a value too long to be a path
    if os.path.exists(args.plans):
        plans = _read_json(args.plans)
    else:
        plans = _loads(args.plans)
    _validate(plans, PLANS_SCHEMA)
    return _sweep(
        args, analysis.sweep_retention_spread, plans, ("plan", "tau_ratio", "distance"),
        lambda row: f"plan={row['plan']} distance={row['distance']:.4f}",
    )


def cmd_verify(args) -> int:
    doc = _read_json(args.gatespec)
    _validate(doc, GATE_FILE_SCHEMA)
    gate = gate_from_json(doc)
    report = ground_state_report(gate)
    if args.format == "json":
        # strict JSON has no Infinity: a gate with no excited state has no gap
        gap = None if math.isinf(report["gap"]) else report["gap"]
        print(json.dumps({**report, "gap": gap}, indent=2, sort_keys=True, allow_nan=False))
    else:
        print(
            f"{gate.name}: {'ok' if report['ok'] else 'FAILED'} "
            f"gap={report['gap']} spurious={report['spurious']} missing={report['missing']}"
        )
    verify_ground_states(gate)  # raises VerificationError -> exit 3
    return 0


def cmd_synth(args) -> int:
    doc = _read_json(args.truthtable)
    _validate(doc, GATE_INPUT_SCHEMA)
    filename = f"{doc['name']}.json"
    if Path(filename).name != filename or "\0" in filename:
        raise ConfigurationError(f"gate name {doc['name']!r} is not a plain file name")
    table = [tuple(int(b) for b in row) for row in doc["table"]]
    kwargs = dict(
        name=doc["name"],
        labels=doc.get("labels"),
        inputs=doc.get("inputs"),
        outputs=doc.get("outputs"),
    )
    if "aux_assignments" in doc:
        kwargs["aux_assignments"] = [tuple(a) for a in doc["aux_assignments"]]
    if doc.get("max_weight"):
        kwargs["bound"] = float(doc["max_weight"])
    gate = synthesize_gate_lp(table, n_aux=doc.get("n_aux", 0), **kwargs)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / filename
    save_gate(gate, path)
    report = ground_state_report(gate)
    print(f"{gate.name}: {gate.n} units, gap={report['gap']}, wrote {path}")
    return 0


def cmd_report(args) -> int:
    with open(args.histogram) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader if row]
    if not rows:
        raise ConfigurationError("histogram file is empty")
    wanted = ("state", "label", "probability")
    missing = [col for col in wanted if col not in header]
    if missing:
        raise ConfigurationError(f"histogram file lacks the columns {missing}")
    # a repeated column name reads its last column, as csv.DictReader does
    position = {name: k for k, name in enumerate(header)}
    state_at, label_at, prob_at = (position[col] for col in wanted)
    bad_rows = "histogram rows need an integer state and a numeric probability"
    if min(map(len, rows)) <= max(state_at, label_at, prob_at):
        raise ConfigurationError(bad_rows)
    try:
        states = np.array(list(map(int, map(operator.itemgetter(state_at), rows))),
                          dtype=np.int64)
        probs = list(map(float, map(operator.itemgetter(prob_at), rows)))
    # a bad cell fails to parse, a huge state overflows
    except (ValueError, OverflowError):
        raise ConfigurationError(bad_rows) from None
    top = [(int(states[i]), rows[i][label_at], probs[i])
           for i in analysis.rank_states(probs, states)[: args.top]]
    if args.format == "json":
        print(json.dumps([{"state": s, "label": lab, "probability": p} for s, lab, p in top],
                         indent=2))
    else:
        for state, label, p in top:
            print(f"state {label} ({state}): {p:.4f}")
    return 0


def _add_format(parser):
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


def _add_scenario_flags(parser):
    """The flags of the subcommands that run a scenario."""
    parser.add_argument("--seed", type=int, default=None, help="override scenario seed")
    parser.add_argument("--samples", type=int, default=None, help="override sample budget")
    parser.add_argument("--burn-in", type=float, default=None, help="override burn-in fraction")
    parser.add_argument("--out", default=".", help="output directory")
    _add_format(parser)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared by
    every later one: parsing keeps no state in it, since ``parse_args``
    returns a fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="pbitsim",
        description="Discrete-event simulation of stochastic p-bit networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("scenario")
    p.add_argument("--top", type=_positive, default=8, help="modes listed in the report")
    _add_scenario_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-tau", help="oracle distance vs sampling period")
    p.add_argument("scenario")
    p.add_argument("--taus", required=True, type=_periods,
                   help="comma-separated periods in us")
    _add_scenario_flags(p)
    p.set_defaults(func=cmd_sweep_tau)

    p = sub.add_parser("sweep-retention", help="oracle distance vs retention plans")
    p.add_argument("scenario")
    p.add_argument("--plans", required=True, help="JSON list of plans, or a file path")
    _add_scenario_flags(p)
    p.set_defaults(func=cmd_sweep_retention)

    p = sub.add_parser("verify", help="ground-state verification of a gate file")
    p.add_argument("gatespec")
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="synthesize a gate Hamiltonian from a truth table")
    p.add_argument("truthtable")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="top states of an existing histogram.csv")
    p.add_argument("histogram")
    p.add_argument("--top", type=_positive, default=8)
    _add_format(p)
    p.set_defaults(func=cmd_report)

    return parser


def _error(exc) -> None:
    """Print ``exc`` as an error line of at most 1,000 characters of its
    message: a message can echo a whole offending value."""
    text = str(exc)
    if len(text) > 1000:
        text = f"{text[:1000]}... ({len(text) - 1000} more characters)"
    print(f"error: {text}", file=sys.stderr)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VerificationError, SynthesisError) as exc:
        _error(exc)
        return 3
    except (
        ConfigurationError,
        CapacityError,
        json.JSONDecodeError,
        FileNotFoundError,
        FileExistsError,
        IsADirectoryError,
        NotADirectoryError,
        UnicodeDecodeError,
    ) as exc:
        _error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
