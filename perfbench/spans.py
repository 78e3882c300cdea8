"""Outside-in tracing of pbitsim's public functions, from the benchmark's side.

``SpanRecorder.install`` swaps each traced function for a wrapper at every
name the program looks it up by, and ``restore`` puts the originals back;
no program file changes. Coarse calls (a CLI job, a network build, an oracle
table) each record a span: name, start, end, parent span and an optional
size. The three per-event calls (``Simulator.step``, ``weight_inputs`` and
``sigmoid``) run millions of times per pass, so their wrappers only add to
per-name call counts and times, which keeps memory flat. Spans stay in
memory until ``dump`` writes them once.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# Span names grouped into the layers the metrics report.
BUILDERS = ("networks.build_and_machine", "networks.build_full_adder", "networks.build_rca4",
            "networks.build_quad_and", "networks.build_factorizer",
            "networks.single_machine_network")


class SpanRecorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, size]
        self.hot = {}  # name -> [calls, seconds, extra]
        self._stack = []
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if size is not None:
                rec[4] = size(args, result)
            return result

        return wrapped

    def _hot(self, name):
        return self.hot.setdefault(name, [0, 0.0, 0])

    def hot_step(self, step, refresh_prio):
        """Simulator.step, counting refresh events by the head event's priority."""
        acc = self._hot("dynamics.step")

        @functools.wraps(step)
        def wrapped(sim):
            queue = sim.queue
            if queue and queue[0][1] == refresh_prio:
                acc[2] += 1
            t = perf_counter()
            step(sim)
            acc[1] += perf_counter() - t
            acc[0] += 1

        return wrapped

    def hot_call(self, name, fn, units_arg=None):
        """A per-event function; ``units_arg`` names the argument whose length
        is added to the extra counter (machine size for weight_inputs)."""
        acc = self._hot(name)

        @functools.wraps(fn)
        def wrapped(*args):
            t = perf_counter()
            result = fn(*args)
            acc[1] += perf_counter() - t
            acc[0] += 1
            if units_arg is not None:
                acc[2] += len(args[units_arg])
            return result

        return wrapped

    # -- installation -------------------------------------------------------

    def _patch(self, owners, attr, wrapper):
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the public functions at the names the program calls them by."""
        import scipy.optimize

        from pbitsim import analysis, cli, dynamics, networks, oracle

        span, patch = self.span, self._patch
        patch([cli], "main", span("cli.main", cli.main))
        patch([cli], "load_scenario", span("cli.load_scenario", cli.load_scenario))
        patch([cli], "build_network", span("cli.build_network", cli.build_network))
        for name in BUILDERS:
            attr = name.split(".", 1)[1]
            owners = [networks] + ([cli] if hasattr(cli, attr) else [])
            patch(owners, attr, span(name, getattr(networks, attr)))
        patch([networks, cli], "verify_ground_states",
              span("networks.verify_ground_states", networks.verify_ground_states))
        patch([networks, cli], "synthesize_gate_lp",
              span("networks.synthesize_gate_lp", networks.synthesize_gate_lp))
        patch([scipy.optimize], "linprog", span("networks.linprog", scipy.optimize.linprog))
        # boltzmann_distribution looks all_energies up in oracle itself
        patch([networks, oracle], "all_energies",
              span("oracle.all_energies", oracle.all_energies,
                   size=lambda args, _result: 1 << args[0].n))
        patch([analysis], "boltzmann_distribution",
              span("oracle.boltzmann_distribution", analysis.boltzmann_distribution))
        patch([dynamics], "run", span("dynamics.run", dynamics.run,
                                      size=lambda _args, trace: len(trace)))
        patch([dynamics.Simulator], "step",
              self.hot_step(dynamics.Simulator.step, dynamics.PRIO_REFRESH))
        patch([dynamics], "weight_inputs",
              self.hot_call("core.weight_inputs", dynamics.weight_inputs, units_arg=1))
        patch([dynamics], "sigmoid", self.hot_call("core.sigmoid", dynamics.sigmoid))
        patch([analysis], "histogram", span("analysis.histogram", analysis.histogram,
                                            size=lambda _args, dist: dist.total))
        patch([analysis], "mode_report", span("analysis.mode_report", analysis.mode_report))
        patch([analysis.EmpiricalDistribution], "to_csv",
              span("analysis.to_csv", analysis.EmpiricalDistribution.to_csv,
                   size=lambda args, _result: len(args[0].counts)))
        patch([analysis], "sweep_sampling_time",
              span("analysis.sweep_sampling_time", analysis.sweep_sampling_time,
                   size=lambda _args, rows: len(rows)))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- derived numbers ----------------------------------------------------

    def _outermost(self, names):
        """Spans named in ``names`` that have no ancestor named in ``names``."""
        spans, out = self.spans, []
        for rec in spans:
            if rec[0] not in names:
                continue
            parent = rec[3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                out.append(rec)
        return out

    def time(self, *names):
        """Host seconds covered by calls to any of ``names``, nesting counted once."""
        return sum(rec[2] - rec[1] for rec in self._outermost(set(names)))

    def calls(self, name):
        return sum(1 for rec in self.spans if rec[0] == name)

    def size(self, name):
        return sum(rec[4] for rec in self.spans if rec[0] == name)

    def self_time(self, name):
        """Duration of ``name`` spans minus the time their child spans cover."""
        spans = self.spans
        ids = {i for i, rec in enumerate(spans) if rec[0] == name}
        total = sum(spans[i][2] - spans[i][1] for i in ids)
        children = sum(rec[2] - rec[1] for rec in spans if rec[3] in ids)
        return total - children

    def metrics(self) -> dict:
        """Per-layer numbers of one traced pass (names as in catalog.PER_LAYER)."""
        step = self.hot.get("dynamics.step", [0, 0.0, 0])
        wi = self.hot.get("core.weight_inputs", [0, 0.0, 0])
        sig = self.hot.get("core.sigmoid", [0, 0.0, 0])
        run_s = self.time("dynamics.run")
        events, refreshes = step[0], step[2]
        samples = self.size("dynamics.run")
        return {
            "cli.jobs": self.calls("cli.main"),
            "cli.main_s": self.time("cli.main"),
            "cli.self_s": self.self_time("cli.main"),
            "cli.load_scenario_s": self.time("cli.load_scenario"),
            "cli.build_network_s": self.time("cli.build_network"),
            "networks.build_s": self.time(*BUILDERS),
            "networks.verify_calls": self.calls("networks.verify_ground_states"),
            "networks.verify_s": self.time("networks.verify_ground_states"),
            "networks.synth_calls": self.calls("networks.synthesize_gate_lp"),
            "networks.lp_solves": self.calls("networks.linprog"),
            "networks.exact_s": self.time("networks.verify_ground_states",
                                          "networks.synthesize_gate_lp"),
            "oracle.boltzmann_calls": self.calls("oracle.boltzmann_distribution"),
            "oracle.states_enumerated": self.size("oracle.all_energies"),
            "oracle.all_energies_s": self.time("oracle.all_energies"),
            "oracle.total_s": self.time("oracle.all_energies", "oracle.boltzmann_distribution"),
            "dynamics.run_s": run_s,
            "dynamics.self_s": run_s - wi[1] - sig[1],
            "dynamics.loop_s": run_s - step[1],
            "dynamics.events": events,
            "dynamics.refresh_events": refreshes,
            "dynamics.update_events": events - refreshes,
            "dynamics.dirty_refreshes": wi[0],
            "dynamics.clean_refreshes": refreshes - wi[0],
            "dynamics.merged_refreshes": refreshes - samples,
            "dynamics.samples": samples,
            "dynamics.dirty_ratio": wi[0] / refreshes if refreshes else 0.0,
            "dynamics.events_per_sample": events / samples if samples else 0.0,
            "dynamics.ns_per_event": run_s * 1e9 / events if events else 0.0,
            "core.weight_inputs_calls": wi[0],
            "core.weight_inputs_s": wi[1],
            "core.weight_inputs_ns_per_unit": wi[1] * 1e9 / wi[2] if wi[2] else 0.0,
            "core.sigmoid_calls": sig[0],
            "core.sigmoid_s": sig[1],
            "analysis.histogram_s": self.time("analysis.histogram"),
            "analysis.histogram_rows": self.size("analysis.histogram"),
            "analysis.output_s": self.time("analysis.histogram", "analysis.mode_report",
                                           "analysis.to_csv"),
            "analysis.to_csv_rows": self.size("analysis.to_csv"),
            "analysis.sweep_points": self.size("analysis.sweep_sampling_time"),
        }

    def dump(self, path) -> None:
        """Write every span and per-event counter once, as JSON."""
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "size": z}
                for n, s, e, p, z in self.spans
            ],
            "per_event": {name: {"calls": c, "seconds": t, "extra": x}
                          for name, (c, t, x) in self.hot.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
