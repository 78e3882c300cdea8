"""What the benchmark measures: workloads, metrics, bounds and the layer map.

``record.py`` writes ``BENCHMARK.json`` from this module, and ``run.py``
reports exactly the metrics listed here, so the names live in one place.

Each per-layer metric names the end-to-end metric and workload it should
move (``moves``) and, where it matters, the workloads on which it should
stay flat (``flat``). A later performance change cites one of these pairs.
"""

RUN_SECONDS = 16

WORKLOADS = [
    {
        "name": "and_fast_sampling",
        "why": "AND gate at tau_sample << tau_N, the paper's operating regime: "
        "nearly every event is a clean refresh, so event elision shows here.",
    },
    {
        "name": "factorizer_reverse",
        "why": "46-unit factorizer run in reverse under an updates budget plus "
        "its i0=0 control: wires, same-instant refreshes, many dirty refreshes.",
    },
    {
        "name": "and_tau_sweep",
        "why": "Sampling-time breakdown sweep: at tau_sample >= tau_N every refresh "
        "is dirty, so updates and weight logic dominate and elision stays nearly flat.",
    },
    {
        "name": "exact_synth",
        "why": "Full-adder LP synthesis and verification plus a random 18-unit machine "
        "against its 2^18-state oracle: the exact layers no sampling workload reaches.",
    },
]

ALL = [w["name"] for w in WORKLOADS]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]


def _m(name, unit, better, moves=(), flat=(), note=""):
    entry = {"name": name, "unit": unit, "better": better}
    if moves:
        entry["moves"] = [{"metric": m, "workloads": list(w)} for m, w in moves]
    if flat:
        entry["flat"] = list(flat)
    if note:
        entry["note"] = note
    return entry


_SETUP = [("setup_s", ALL)]
_ELISION = [
    ("wall_s", ["and_fast_sampling", "factorizer_reverse"]),
    ("samples_per_s", ["and_fast_sampling", "factorizer_reverse"]),
]
_UPDATES = [("wall_s", ["and_tau_sweep", "factorizer_reverse"])]
_EXACT = [("wall_s", ["exact_synth"])]

PER_LAYER = [
    _m("cli.jobs", "count", "lower", note="cli.main calls in one pass"),
    _m("cli.main_s", "s", "lower", moves=[("wall_s", ALL)]),
    _m("cli.self_s", "s", "lower", moves=[("wall_s", ALL)],
       note="cli.main minus its wrapped children: argument parsing, report writing"),
    _m("cli.load_scenario_s", "s", "lower", moves=_SETUP),
    _m("cli.build_network_s", "s", "lower", moves=_SETUP),
    _m("networks.build_s", "s", "lower", moves=_SETUP,
       note="networks.build_* and single_machine_network, outermost calls"),
    _m("networks.verify_calls", "count", "lower", moves=_SETUP),
    _m("networks.verify_s", "s", "lower", moves=_SETUP),
    _m("networks.synth_calls", "count", "lower"),
    _m("networks.lp_solves", "count", "lower", moves=_EXACT),
    _m("networks.exact_s", "s", "lower", moves=_EXACT,
       note="verify_ground_states and synthesize_gate_lp, outermost calls; "
       "the LP solve on exact_synth"),
    _m("oracle.boltzmann_calls", "count", "lower", moves=_EXACT),
    _m("oracle.states_enumerated", "count", "lower", moves=_EXACT,
       note="sum of 2^n over all_energies calls"),
    _m("oracle.all_energies_s", "s", "lower", moves=_EXACT),
    _m("oracle.total_s", "s", "lower", moves=_EXACT,
       note="all_energies and boltzmann_distribution, outermost calls"),
    _m("dynamics.run_s", "s", "lower", moves=_ELISION + _UPDATES),
    _m("dynamics.self_s", "s", "lower", moves=_ELISION + _UPDATES,
       note="dynamics.run minus its core children (weight_inputs, sigmoid)"),
    _m("dynamics.loop_s", "s", "lower", moves=[("wall_s", ["factorizer_reverse"])],
       note="dynamics.run minus the wrapped Simulator.step: the per-event budget "
       "checks plus the step wrapper's own cost (a call and two clock reads per event)"),
    _m("dynamics.events", "count", "lower", moves=_ELISION, flat=["and_tau_sweep"]),
    _m("dynamics.refresh_events", "count", "lower", moves=_ELISION,
       flat=["and_tau_sweep"]),
    _m("dynamics.update_events", "count", "lower"),
    _m("dynamics.dirty_refreshes", "count", "lower",
       moves=[("wall_s", ["and_tau_sweep", "factorizer_reverse"])],
       flat=["and_fast_sampling"]),
    _m("dynamics.clean_refreshes", "count", "lower", moves=_ELISION,
       flat=["and_tau_sweep"]),
    _m("dynamics.merged_refreshes", "count", "lower", moves=_ELISION,
       flat=["and_tau_sweep"], note="refresh events minus logged samples"),
    _m("dynamics.samples", "count", "higher"),
    _m("dynamics.dirty_ratio", "ratio", "higher", note="dirty refreshes / refresh events"),
    _m("dynamics.events_per_sample", "ratio", "lower", moves=_ELISION,
       flat=["and_tau_sweep"]),
    _m("dynamics.ns_per_event", "ns", "lower", moves=_UPDATES,
       note="traced dynamics.run time per event, wrapper cost included"),
    _m("core.weight_inputs_calls", "count", "lower"),
    _m("core.weight_inputs_s", "s", "lower",
       moves=[("wall_s", ["and_tau_sweep", "factorizer_reverse"])],
       flat=["and_fast_sampling"]),
    _m("core.weight_inputs_ns_per_unit", "ns", "lower",
       moves=[("wall_s", ["and_tau_sweep", "factorizer_reverse"])],
       note="machines of 3 (AND), 8-13 (factorizer) and 18 units (exact_synth); "
       "a vectorised path that slows the 3-unit machine shows on and_tau_sweep"),
    _m("core.sigmoid_calls", "count", "lower"),
    _m("core.sigmoid_s", "s", "lower", moves=_UPDATES, flat=["and_fast_sampling"]),
    _m("analysis.histogram_s", "s", "lower", moves=[("wall_s", ["and_fast_sampling"])]),
    _m("analysis.histogram_rows", "count", "lower"),
    _m("analysis.output_s", "s", "lower", moves=_EXACT,
       note="histogram, mode_report and EmpiricalDistribution.to_csv, outermost calls"),
    _m("analysis.to_csv_rows", "count", "lower"),
    _m("analysis.sweep_points", "count", "lower"),
    _m("trace.overhead_s", "s", "lower",
       note="wall time of the traced passes minus that of the untraced passes, "
       "each the sum of per-job medians; on exact_synth, where few calls are "
       "wrapped, it is below pass-to-pass noise and can read slightly negative"),
    _m("oracle_distance", "unitless", "lower",
       note="mean Euclidean distance to the exact oracle over comparisons with "
       "tau_sample < tau_N; 0 where the workload makes none (factorizer_reverse)"),
    _m("failed_frac", "ratio", "lower", note="failed jobs / attempted jobs"),
]

# Trace storage and the oracle tables have no span of their own; they move
# peak_rss_mb on these workloads.
MEMORY_TARGETS = {
    "trace storage (Python lists of samples)": ["and_fast_sampling"],
    "oracle tables and the 2^18-row histogram": ["exact_synth"],
}


def benchmark_json() -> dict:
    """The BENCHMARK.json document, in its fixed key set."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": m["name"], "unit": m["unit"], "better": m["better"]} for m in PER_LAYER
        ],
    }
