"""Gate Hamiltonians, their verification and synthesis, and system builders.

No coupling matrix in this package is hand-invented: every shipped gate is
either solved for by a linear program that maximizes the energy gap above
the truth-table ground manifold, or composed by summing already-verified
sub-gate Hamiltonians over shared spins (``compose_gates``). Every route
ends in the same exhaustive ground-state check, the only thing that marks a
gate verified (a gate file's ``verified`` key is not trusted on load). Gates
are immutable, so a verified gate is shared: each shipped gate, and each gate
derived from them, is checked once per process. ``_stack_machines``
assembles every network from the parts, labels and wires a builder declares.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .core import (
    CLAMPED_HIGH,
    CLAMPED_LOW,
    CouplingMatrix,
    PBitConfig,
    QuantizationConfig,
    Wired,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    SynthesisError,
    VerificationError,
)
from .oracle import all_energies, project, state_bits, state_index

DEGENERACY_TOL = 1e-9
# the smallest energy gap (in units of i0) a synthesized gate may have
MIN_GAP = 0.25
# the most aux assignments synthesis searches when none are listed, one LP each
SEARCH_LIMIT = 4096
# synthesis' row generation: how far a state may sit below the gap and count
# as met (HiGHS meets its own rows to 1e-7), and the share of the gap within
# which a state joins the rows before it breaks; adding the near states cuts
# the rounds, for the 14-unit full adder from 20 to 4
ROW_TOL = 1e-9
ROW_MARGIN = 0.5
# Trace states are int64 bitmasks with unit k at bit n-1-k; bit 63 is the sign.
MAX_UNITS = 63


# ---------------------------------------------------------------------------
# Gate specifications


def _check_labels(name, visible, terminals, truth_table) -> None:
    """Refuse a truth table row whose width is not the number of labels in
    ``visible``, or a terminal of gate ``name`` that is not one of them."""
    for row in truth_table:
        if len(row) != len(visible):
            raise ConfigurationError("truth table width must match visible labels")
    for label in terminals:
        if label not in visible:
            raise ConfigurationError(f"terminal {label!r} is not a visible label of {name!r}")


@dataclass(frozen=True, eq=False)
class GateSpec:
    """One gate Hamiltonian plus the Boolean contract it must realize.

    ``visible`` maps terminal labels to spin indices, and every one of
    ``inputs`` and ``outputs`` is one of those labels; ``truth_table`` rows
    are 0/1 tuples in the order the labels appear in ``visible``. A gate is
    an immutable value: the mapping is read-only, the sequences are tuples,
    J and h are read-only copies, and ``dataclasses.replace`` is the only way
    to make a variant. The ``verified`` flag may only be set by
    :func:`verify_ground_states`, so a gate cannot drift from what was
    checked. Gates compare and hash by identity.
    """

    name: str
    visible: Mapping
    inputs: tuple
    outputs: tuple
    auxiliary: tuple
    truth_table: tuple
    j: np.ndarray
    h: np.ndarray
    verified: bool = False

    def __post_init__(self):
        try:
            j = np.array(self.j, dtype=float)
            h = np.array(self.h, dtype=float)
        except (TypeError, ValueError):  # ragged rows or non-numbers
            raise ConfigurationError("J and h must be numeric arrays") from None
        j.flags.writeable = h.flags.writeable = False
        for name, value in (
            ("j", j), ("h", h),
            ("visible", MappingProxyType(dict(self.visible))),
            ("inputs", tuple(self.inputs)),
            ("outputs", tuple(self.outputs)),
            ("auxiliary", tuple(self.auxiliary)),
            ("truth_table", tuple(tuple(int(b) for b in row) for row in self.truth_table)),
        ):
            object.__setattr__(self, name, value)
        if len(set(self.truth_table)) != len(self.truth_table):
            raise ConfigurationError("truth table rows must be distinct")
        _check_labels(self.name, self.visible, self.inputs + self.outputs, self.truth_table)
        spins = sorted(list(self.visible.values()) + list(self.auxiliary))
        if spins != list(range(self.n)):
            raise ConfigurationError("visible + auxiliary must cover all spins exactly once")

    @property
    def n(self) -> int:
        return self.j.shape[0]

    def coupling(self, i0: float) -> CouplingMatrix:
        return CouplingMatrix(self.j.copy(), self.h.copy(), i0)


def gate_to_json(gate: GateSpec) -> dict:
    return {
        "name": gate.name,
        "n": gate.n,
        "visible": dict(gate.visible),
        "inputs": list(gate.inputs),
        "outputs": list(gate.outputs),
        "auxiliary": list(gate.auxiliary),
        "truth_table": [list(row) for row in gate.truth_table],
        "j": gate.j.tolist(),
        "h": gate.h.tolist(),
        "verified": bool(gate.verified),
    }


def gate_from_json(doc: dict) -> GateSpec:
    gate = GateSpec(
        name=doc["name"],
        visible={str(k): int(v) for k, v in doc["visible"].items()},
        inputs=[str(s) for s in doc["inputs"]],
        outputs=[str(s) for s in doc["outputs"]],
        auxiliary=[int(i) for i in doc["auxiliary"]],
        truth_table=doc["truth_table"],
        j=doc["j"], h=doc["h"],
    )
    if doc.get("n", gate.n) != gate.n:
        raise ConfigurationError(f"n is {doc['n']}, but J is {gate.n} x {gate.n}")
    return gate


def save_gate(gate: GateSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(gate_to_json(gate), fh, indent=1)
        fh.write("\n")


@functools.cache
def load_gate(name: str) -> GateSpec:
    """A shipped gate from the package's data directory, verified the first
    time it is loaded in a process and shared by every later caller."""
    from importlib import resources

    ref = resources.files("pbitsim").joinpath("gates", f"{name}.json")
    return verify_ground_states(gate_from_json(json.loads(ref.read_text())))


SHIPPED_GATES = ("and", "or", "not", "copy", "xor", "half_adder", "full_adder")


# ---------------------------------------------------------------------------
# Ground-state verification


def ground_state_report(gate: GateSpec) -> dict:
    """Enumerate all states at i0 = 1 and compare ground projections to the
    truth table.

    Returns a report dict with ``ok``, the energy ``gap`` above the ground
    manifold, and any ``spurious``/``missing`` visible words.
    """
    energies = all_energies(gate.coupling(1.0))
    emin = energies.min()
    ground = energies <= emin + DEGENERACY_TOL
    above = energies[~ground]
    gap = float(above.min() - emin) if above.size else math.inf
    words = project(np.arange(1 << gate.n, dtype=np.int64), gate.n, list(gate.visible.values()))
    truth = {state_index(row) for row in gate.truth_table}
    ground_words = set(int(w) for w in words[ground])
    spurious = sorted(ground_words - truth)
    missing = sorted(truth - ground_words)
    spurious_states = [
        state_bits(s, gate.n) for s in np.flatnonzero(ground & np.isin(words, spurious)).tolist()
    ]
    return {
        "ok": not spurious and not missing,
        "gap": gap,
        "ground_energy": float(emin),
        "ground_count": int(ground.sum()),
        "spurious": spurious,
        "missing": missing,
        "spurious_states": spurious_states,
    }


def verify_ground_states(gate: GateSpec) -> GateSpec:
    """Return a VERIFIED copy of ``gate`` or raise with the offending states.

    Passes iff the visible projections of the minimum-energy states equal
    the truth table exactly and the ground manifold is degenerate within
    1e-9 (everything else strictly above it).
    """
    report = ground_state_report(gate)
    if not report["ok"]:
        raise VerificationError(
            f"gate {gate.name!r} failed ground-state check: "
            f"spurious visible words {report['spurious']}, "
            f"missing {report['missing']}",
            offending_states=report["spurious_states"],
        )
    return replace(gate, verified=True)


# ---------------------------------------------------------------------------
# Synthesis


def _pair_indices(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _feature_matrix(n: int) -> np.ndarray:
    """Phi with E(state) = -(Phi @ theta), theta = (J upper triangle, h)."""
    from .oracle import _bipolar_table

    m = _bipolar_table(n)
    pairs = _pair_indices(n)
    cols = [m[:, i] * m[:, j] for i, j in pairs] + [m[:, i] for i in range(n)]
    return np.stack(cols, axis=1)


def _theta_to_jh(theta, n: int):
    pairs = _pair_indices(n)
    j = np.zeros((n, n))
    for k, (a, b) in enumerate(pairs):
        j[a, b] = j[b, a] = theta[k]
    h = np.array(theta[len(pairs):], dtype=float)
    return j, h


def _round_to_grid(x: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(x) / 0.25) * 0.25


def _max_gap(phi: np.ndarray, n: int, chosen, bound: float):
    """The LP solution (theta, e0, g) with the largest gap g when the
    ``chosen`` states share energy e0 and every other state sits at least g
    above it, or None when that gap is below MIN_GAP.

    The LP is solved by row generation (Kelley's cutting planes). Its rows
    start as the states one flip away from a chosen state. Each round finds
    every state's height above e0 with one product over all states, stops
    when no state outside the rows sits below g, and otherwise adds every
    state below (1 + ROW_MARGIN) * g. A round's LP has a subset of the rows,
    so its gap bounds the full LP's from above, and a round whose gap is
    already below MIN_GAP rejects the assignment.
    """
    from scipy.optimize import linprog

    n_params = phi.shape[1]
    chosen = np.asarray(chosen, dtype=np.int64)
    is_chosen = np.zeros(len(phi), dtype=bool)
    is_chosen[chosen] = True
    rows = np.zeros(len(phi), dtype=bool)
    rows[(chosen[:, None] ^ (1 << np.arange(n))).ravel()] = True
    rows &= ~is_chosen
    # variables: theta (n_params), e0, g; maximize g
    c = np.zeros(n_params + 2)
    c[-1] = -1.0
    a_eq = np.zeros((len(chosen), n_params + 2))
    a_eq[:, :n_params] = phi[chosen]
    a_eq[:, n_params] = 1.0
    b_eq = np.zeros(len(chosen))
    bounds = [(-bound, bound)] * n_params + [(None, None), (0.0, 4.0 * bound)]
    while True:
        states = np.flatnonzero(rows)
        a_ub = np.ones((states.size, n_params + 2))
        a_ub[:, :n_params] = phi[states]
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(states.size), A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        if res.status != 0 or res.x[-1] < MIN_GAP:
            return None
        # a state's slack is g less its height above e0: above 0, its row is broken
        slack = phi @ res.x[:n_params] + (res.x[-2] + res.x[-1])
        if not np.any(slack[~rows & ~is_chosen] > ROW_TOL):
            return res.x
        rows |= (slack > -ROW_MARGIN * res.x[-1]) & ~is_chosen


def synthesize_gate_lp(
    truth_table,
    n_aux: int = 0,
    bound: float = 2.0,
    name: str = "gate",
    labels=None,
    inputs=None,
    outputs=None,
    aux_assignments=None,
) -> GateSpec:
    """Gap-maximizing linear-program synthesis.

    For a fixed assignment of auxiliary bits to each truth row, requiring
    the assigned states to share energy e0 and every other state to sit at
    least ``g`` above it is linear in (J, h, e0, g); we maximize g subject
    to coefficient bounds, by row generation (``_max_gap``), and accept the
    first assignment with g >= MIN_GAP. ``aux_assignments`` optionally lists candidate assignments (one aux word
    below 2**n_aux per truth row); otherwise all are tried in lexicographic
    order, and a search of more than ``SEARCH_LIMIT`` is refused.
    Solutions are snapped to a quarter-integer grid when the snapped gate
    still verifies with a gap of at least MIN_GAP.
    """
    truth_table = [tuple(int(b) for b in r) for r in truth_table]
    n_vis = len(truth_table[0])
    if any(len(row) != n_vis for row in truth_table):
        raise ConfigurationError("truth table width must be the same in every row")
    if labels is None:
        labels = [f"V{k}" for k in range(n_vis)]
    visible = {lab: k for k, lab in enumerate(labels)}
    inputs, outputs = tuple(inputs or labels[:-1]), tuple(outputs or labels[-1:])
    # the gate's label rules, before any LP is solved
    _check_labels(name, visible, inputs + outputs, truth_table)
    n = n_vis + n_aux
    if n > 16:
        raise CapacityError("LP synthesis limited to 16 total spins")
    n_rows = len(truth_table)
    phi = _feature_matrix(n)
    n_params = phi.shape[1]

    if aux_assignments is None:
        if 1 << (n_aux * n_rows) > SEARCH_LIMIT:
            raise CapacityError(
                f"searching every aux assignment would solve 2**{n_aux * n_rows} LPs, "
                f"past the limit of {SEARCH_LIMIT}; list candidates in aux_assignments")
        aux_assignments = itertools.product(range(1 << n_aux), repeat=n_rows)
    elif any(len(a) != n_rows or not all(0 <= w < 1 << n_aux for w in a)
             for a in aux_assignments):
        raise ConfigurationError(
            f"each aux assignment needs one word per truth row ({n_rows}), "
            f"each below 2**n_aux = {1 << n_aux}")

    best = None
    for assignment in aux_assignments:
        # each chosen state: the truth row's bits above its auxiliary word
        chosen = [(state_index(row) << n_aux) | aw
                  for row, aw in zip(truth_table, assignment)]
        best = _max_gap(phi, n, chosen, bound)
        if best is not None:
            break
    if best is None:
        raise SynthesisError("no feasible coupling matrix at the given bound")

    j, h = _theta_to_jh(best[:n_params], n)
    gate = GateSpec(name, visible, inputs, outputs, range(n_vis, n), truth_table, j, h)
    snapped = replace(gate, j=_round_to_grid(j), h=_round_to_grid(h))
    try:
        verified = verify_ground_states(snapped)
        if ground_state_report(verified)["gap"] >= MIN_GAP:
            return verified
    except VerificationError:
        pass
    return verify_ground_states(gate)


# ---------------------------------------------------------------------------
# Composition of verified sub-gates


def compose_gates(name, placements, visible_labels, inputs, outputs, truth_table) -> GateSpec:
    """The verified sum of verified gate Hamiltonians over shared, named spins.

    Each placement is ``(gate, {gate label: spin label})``. Spins are
    numbered in order of first use; those not in ``visible_labels`` are
    auxiliary. The composite ground manifold is exactly the set of states
    where every placed gate sits in its own ground manifold, which makes
    composition sound as long as the whole is verified, as it is here.
    """
    index = {}
    for gate, mapping in placements:
        if not gate.verified:
            raise ConfigurationError(f"gate {gate.name!r} is not verified")
        if gate.auxiliary:
            raise ConfigurationError(f"gate {gate.name!r} has auxiliary spins")
        if set(mapping) != set(gate.visible) or len(set(mapping.values())) != len(mapping):
            raise ConfigurationError(
                f"mapping must send each visible label of {gate.name!r} to its own spin"
            )
        for label in gate.visible:
            index.setdefault(mapping[label], len(index))
    j = np.zeros((len(index), len(index)))
    h = np.zeros(len(index))
    for gate, mapping in placements:
        at = [index[mapping[label]] for label in sorted(gate.visible, key=gate.visible.get)]
        j[np.ix_(at, at)] += gate.j
        h[at] += gate.h
    visible = {label: index[label] for label in visible_labels}
    auxiliary = [k for k in range(len(index)) if k not in visible.values()]
    return verify_ground_states(
        GateSpec(name, visible, inputs, outputs, auxiliary, truth_table, j, h)
    )


@functools.cache
def fold_constant(gate: GateSpec, label: str, bit: int) -> GateSpec:
    """Absorb a terminal held at a constant rail into the biases.

    Removing spin k pinned at m = 2*bit - 1 adds J_ik * m to every h_i; the
    folded gate's truth table is the original conditioned on that terminal.
    Hardware analogue: driving a terminal from a rail instead of spending a
    unit on it. Each fold of a gate is made and verified once per process.
    """
    if label not in gate.visible:
        raise ConfigurationError(f"{label!r} is not a visible terminal of {gate.name!r}")
    k = gate.visible[label]
    m = 2 * int(bit) - 1
    keep = [i for i in range(gate.n) if i != k]
    j = gate.j[np.ix_(keep, keep)]
    h = gate.h[keep] + gate.j[keep, k] * m
    old_labels = list(gate.visible)
    col = old_labels.index(label)
    rows = [
        tuple(b for c, b in enumerate(row) if c != col)
        for row in gate.truth_table
        if row[col] == int(bit)
    ]
    remap = {old: new for new, old in enumerate(keep)}
    visible = {lab: remap[gate.visible[lab]] for lab in old_labels if lab != label}
    folded = GateSpec(
        name=f"{gate.name}_{label.lower()}{bit}",
        visible=visible,
        inputs=[s for s in gate.inputs if s != label],
        outputs=[s for s in gate.outputs if s != label],
        auxiliary=[remap[i] for i in gate.auxiliary],
        truth_table=rows,
        j=j,
        h=h,
    )
    return verify_ground_states(folded)


# ---------------------------------------------------------------------------
# Machines and networks

DEFAULT_RETENTION_US = 200_000
DEFAULT_TAU_SAMPLE_US = 1_000
# the full adder, ripple-carry adder and factorizer sample ten times slower
COMPOSITE_TAU_SAMPLE_US = 10_000
DEFAULT_JITTER = 0.005


@dataclass
class MachineSpec:
    """One Boltzmann machine: couplings, refresh period and DAC."""

    name: str
    coupling: CouplingMatrix
    tau_sample_us: int = DEFAULT_TAU_SAMPLE_US
    quant: QuantizationConfig = field(default_factory=QuantizationConfig)

    def __post_init__(self):
        if self.tau_sample_us <= 0:
            raise ConfigurationError("sampling period must be positive")

    @property
    def n(self) -> int:
        return self.coupling.n


@dataclass
class NetworkSpec:
    """Machines plus directed inter-machine wires and global visible labels.

    Units are numbered globally in machine order; a wire is represented by
    the destination unit carrying a Wired mode that names its source. Wires
    must cross machine boundaries and no two machines may be wired in both
    directions.
    """

    machines: list
    pbits: list
    visible_labels: dict = field(default_factory=dict)

    @property
    def n_total(self) -> int:
        return len(self.pbits)

    def offsets(self) -> list:
        out, acc = [], 0
        for mach in self.machines:
            out.append(acc)
            acc += mach.n
        return out

    def machine_of(self) -> list:
        """Machine index of every unit, indexed by global unit id."""
        return [k for k, mach in enumerate(self.machines) for _ in range(mach.n)]

    def copy(self) -> "NetworkSpec":
        """Shallow copy whose rosters can be edited without touching this one."""
        return NetworkSpec(list(self.machines), list(self.pbits), dict(self.visible_labels))

    def validate(self) -> None:
        if not self.pbits:
            raise ConfigurationError("a network needs at least one unit")
        if sum(m.n for m in self.machines) != len(self.pbits):
            raise ConfigurationError("unit roster does not match machine sizes")
        if self.n_total > MAX_UNITS:
            raise CapacityError(
                f"networks are limited to {MAX_UNITS} units, got {self.n_total}"
            )
        for gid, p in enumerate(self.pbits):
            if p.id != gid:
                raise ConfigurationError("unit ids must be consecutive from 0")
        machine_of = self.machine_of()
        pair_dirs = set()
        for gid, p in enumerate(self.pbits):
            if isinstance(p.mode, Wired):
                src = p.mode.source
                if not 0 <= src < self.n_total:
                    raise ConfigurationError(f"wire source {src} does not exist")
                m_src, m_dst = machine_of[src], machine_of[gid]
                if m_src == m_dst:
                    raise ConfigurationError(
                        "wires must connect units in different machines"
                    )
                if (m_dst, m_src) in pair_dirs:
                    raise ConfigurationError(
                        f"machines {m_src} and {m_dst} are wired in both directions"
                    )
                pair_dirs.add((m_src, m_dst))
        for label, gid in self.visible_labels.items():
            if not 0 <= gid < self.n_total:
                raise ConfigurationError(f"label {label!r} points at missing unit {gid}")

    # -- scenario helpers ---------------------------------------------------

    def with_clamps(self, clamp_plan: dict) -> "NetworkSpec":
        """Copy of the network with labelled units pinned to rails."""
        net = self.copy()
        for label, bit in clamp_plan.items():
            if label not in self.visible_labels:
                raise ConfigurationError(f"unknown visible label {label!r}")
            gid = self.visible_labels[label]
            net.pbits[gid] = replace(
                net.pbits[gid], mode=CLAMPED_HIGH if int(bit) else CLAMPED_LOW
            )
        return net

    def _per_unit(self, what: str, values) -> list:
        """A scalar for every unit, or a list with exactly one value per unit."""
        if np.isscalar(values):
            return [int(values)] * self.n_total
        if len(values) != self.n_total:
            raise ConfigurationError(
                f"{what} must be one integer or {self.n_total} integers, got {len(values)}"
            )
        return [int(v) for v in values]

    def set_retention(self, plan) -> None:
        """Assign retention times: a scalar or one integer per unit (us)."""
        for gid, tau in enumerate(self._per_unit("retention plan", plan)):
            self.pbits[gid] = replace(self.pbits[gid], retention_us=tau)

    def set_jitter(self, fraction: float) -> None:
        for gid in range(self.n_total):
            self.pbits[gid] = replace(self.pbits[gid], jitter_fraction=float(fraction))

    def set_phases(self, phases) -> None:
        """Offset the first updates: a scalar or one integer per unit (us)."""
        for gid, ph in enumerate(self._per_unit("phase plan", phases)):
            self.pbits[gid] = replace(self.pbits[gid], phase_us=ph)

    def set_tau_sample(self, tau_us: int) -> None:
        for k, mach in enumerate(self.machines):
            self.machines[k] = replace(mach, tau_sample_us=int(tau_us))

    def set_quantization(self, quant: QuantizationConfig) -> None:
        for k, mach in enumerate(self.machines):
            self.machines[k] = replace(mach, quant=quant)


def _stack_machines(i0: float, tau_sample_us: int, parts, labels, wires=()) -> NetworkSpec:
    """The validated network of a list of (name, verified gate) parts, one
    machine each, every unit at the default retention and jitter.

    ``labels`` maps each network label to a (part, terminal) pair, in the
    order the network lists them; each (source, destination) pair of
    ``wires`` names two (part, terminal) pairs.
    """
    machines, pbits, where = [], [], {}
    for name, gate in parts:
        if not gate.verified:
            raise VerificationError(f"gate {gate.name!r} must be verified before use")
        offset = len(pbits)
        machines.append(MachineSpec(name, gate.coupling(i0), tau_sample_us))
        pbits += [PBitConfig(id=offset + local, retention_us=DEFAULT_RETENTION_US,
                             jitter_fraction=DEFAULT_JITTER) for local in range(gate.n)]
        for label, local in gate.visible.items():
            where[(name, label)] = offset + local
    for src, dst in wires:
        pbits[where[dst]] = replace(pbits[where[dst]], mode=Wired(where[src]))
    net = NetworkSpec(machines, pbits, {label: where[at] for label, at in labels.items()})
    net.validate()
    return net


def single_machine_network(
    gate: GateSpec, i0: float, tau_sample_us: int = DEFAULT_TAU_SAMPLE_US
) -> NetworkSpec:
    """Wrap one verified gate as a standalone network."""
    labels = {label: (gate.name, label) for label in gate.visible}
    return _stack_machines(i0, tau_sample_us, [(gate.name, gate)], labels)


def build_and_machine(i0: float) -> NetworkSpec:
    """The 3-unit AND machine (terminals A, B, C = A AND B)."""
    return single_machine_network(load_gate("and"), i0)


def build_full_adder(i0: float) -> NetworkSpec:
    """The 14-unit full adder (terminals A, B, CIN, S, COUT; 9 auxiliary)."""
    gate = load_gate("full_adder")
    if gate.n != 14:
        raise ConfigurationError(f"full adder must have 14 units, found {gate.n}")
    return single_machine_network(gate, i0, COMPOSITE_TAU_SAMPLE_US)


def normal_retention_plan(
    n: int,
    seed: int,
    mean_us: int = 200_000,
    lo_us: int = 137_000,
    hi_us: int = 263_000,
    sigma_us: int = 42_000,
) -> list:
    """Per-unit retention times: clipped normal spread, deterministic in seed."""
    if lo_us > hi_us:
        raise ConfigurationError(f"retention plan bounds lo_us={lo_us} > hi_us={hi_us}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7e7e]))
    draws = rng.normal(mean_us, sigma_us, size=n)
    return [int(x) for x in np.clip(draws, lo_us, hi_us)]


def build_rca4(i0: float) -> NetworkSpec:
    """4-bit ripple-carry adder: a 6-unit half adder plus three 14-unit full
    adders, chained by directed carry wires. 48 units total.

    Visible labels: A0..A3, B0..B3 (addends, LSB first) and S0..S4 (sum word).
    """
    fa = load_gate("full_adder")
    parts = [("ha0", load_gate("half_adder"))] + [(f"fa{k}", fa) for k in (1, 2, 3)]
    labels = {"A0": ("ha0", "A"), "B0": ("ha0", "B"), "S0": ("ha0", "S")}
    for k in (1, 2, 3):
        labels |= {f"{t}{k}": (f"fa{k}", t) for t in ("A", "B", "S")}
    labels["S4"] = ("fa3", "COUT")
    carries = [(("ha0", "C"), ("fa1", "CIN")),
               (("fa1", "COUT"), ("fa2", "CIN")),
               (("fa2", "COUT"), ("fa3", "CIN"))]
    net = _stack_machines(i0, COMPOSITE_TAU_SAMPLE_US, parts, labels, carries)
    if net.n_total != 48:
        raise ConfigurationError(f"ripple-carry adder must total 48 units, got {net.n_total}")
    return net


@functools.cache
def build_quad_and() -> GateSpec:
    """All four partial-product AND gates as one machine over shared inputs,
    composed and verified once per process."""
    gate = load_gate("and")
    products = [("A0", "B0", "P00"), ("A1", "B0", "P10"), ("A0", "B1", "P01"), ("A1", "B1", "P11")]
    rows = [(a0, a1, b0, b1, a0 & b0, a1 & b0, a0 & b1, a1 & b1)
            for a0, a1, b0, b1 in itertools.product((0, 1), repeat=4)]
    return compose_gates(
        "quad_and",
        [(gate, {"A": a, "B": b, "C": p}) for a, b, p in products],
        ["A0", "A1", "B0", "B1", "P00", "P10", "P01", "P11"],
        inputs=["A0", "A1", "B0", "B1"],
        outputs=["P00", "P10", "P01", "P11"],
        truth_table=rows,
    )


def build_factorizer(i0: float) -> NetworkSpec:
    """2x2-bit multiplier run in reverse: clamp the product, read the factors.

    One machine holds all four partial-product AND gates over shared factor
    bits; the adder chain keeps its LSB-to-MSB carry wires while the wires
    between adders and AND outputs run *from* the adder terminals *to* the
    AND-gate output units. Adder terminals that a multiplier would hold at
    constant 0 are folded into biases instead of spending units on them,
    which lands the roster at exactly 46.

    Visible labels: A0, A1, B0, B1 (factors) and S0..S3 (product word).
    """
    fa = load_gate("full_adder")
    parts = [
        ("and_bm", build_quad_and()),
        ("add1", fold_constant(fa, "CIN", 0)),            # S1 = P10 xor P01
        ("add2", fold_constant(fa, "B", 0)),              # S2 = P11 xor carry1
        ("add3", fold_constant(fold_constant(fa, "A", 0), "B", 0)),  # S3 = carry2
    ]
    labels = {
        "A0": ("and_bm", "A0"), "A1": ("and_bm", "A1"),
        "B0": ("and_bm", "B0"), "B1": ("and_bm", "B1"),
        "S0": ("and_bm", "P00"), "S1": ("add1", "S"),
        "S2": ("add2", "S"), "S3": ("add3", "S"),
    }
    wires = [
        (("add1", "A"), ("and_bm", "P10")),
        (("add1", "B"), ("and_bm", "P01")),
        (("add2", "A"), ("and_bm", "P11")),
        (("add1", "COUT"), ("add2", "CIN")),
        (("add2", "COUT"), ("add3", "CIN")),
    ]
    net = _stack_machines(i0, COMPOSITE_TAU_SAMPLE_US, parts, labels, wires)
    if net.n_total != 46:
        raise ConfigurationError(f"factorizer must total 46 units, got {net.n_total}")
    return net
