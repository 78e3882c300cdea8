"""Pure numerics of a single stochastic bit unit and its weight logic.

Everything here is a pure function of its inputs: no clocks, no event queue,
no random state. The stochastic update rule that consumes these voltages,
output 1 iff sigmoid(2*v - 5) > u for a uniform draw u, lives in the event
engine (``dynamics.Simulator``), which owns the random streams.

Conventions:
  * logic levels are plain ints 0/1 (hardware: 0 V / 5 V at the output pin)
  * the bipolar view of a level ``s`` is ``m = 2*s - 1`` in {-1, +1}
  * input voltages live in [0, 5] V; an input decodes to ``m = 2*v - 5``
  * virtual durations are integer microseconds; the barrier formula below is
    the one place that works in physical seconds
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError

V_RAIL = 5.0
SAT_LIMIT = 5.0

# Terminal modes. A unit is either free (driven by its machine's weight
# logic), pinned to a supply rail, or wired to another unit's output.
FREE = "free"
CLAMPED_HIGH = "clamped_high"
CLAMPED_LOW = "clamped_low"


@dataclass(frozen=True)
class Wired:
    """Input bound to the live output of unit ``source`` (a global id).

    ``delay_us`` models interconnect delay; 0 means an instantaneous
    electrical wire.
    """

    source: int
    delay_us: int = 0

    def __post_init__(self):
        if self.delay_us < 0:
            raise ConfigurationError("wire delay must be non-negative")


TerminalMode = Union[str, Wired]


def sigmoid(x: float) -> float:
    """Activation S(x) = 1 / (1 + exp(-2x)), equal to (1 + tanh x) / 2."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-2.0 * x))
    e = math.exp(2.0 * x)
    return e / (1.0 + e)


def encode_input(i: float) -> float:
    """Bipolar drive to input voltage: v = (i + 5) / 2, so [-5,5] -> [0,5] V.

    A unit decodes its input back as 2*v - 5 (see ``dynamics``).
    """
    return (i + 5.0) / 2.0


def saturate(x: float) -> float:
    """Clip a weighted sum to the drive range [-SAT_LIMIT, +SAT_LIMIT]."""
    if x > SAT_LIMIT:
        return SAT_LIMIT
    if x < -SAT_LIMIT:
        return -SAT_LIMIT
    return x


@dataclass(frozen=True)
class QuantizationConfig:
    """DAC resolution on the published voltages. 0 bits = ideal path."""

    dac_bits: int = 0
    vref: float = V_RAIL

    def __post_init__(self):
        if self.dac_bits < 0:
            raise ConfigurationError("DAC bit count must be >= 0")
        if self.vref <= 0:
            raise ConfigurationError("vref must be positive")


def quantize_voltage(v: float, bits: int, vref: float = V_RAIL) -> float:
    """Round ``v`` to the nearest DAC code (ties away from zero).

    Codes are clamped to [0, 2**bits - 1]; code*vref/2**bits is the published
    voltage. bits == 0 is the identity (ideal converter).
    """
    if bits == 0:
        return v
    steps = 1 << bits
    code = math.floor(v / vref * steps + 0.5)
    code = min(max(code, 0), steps - 1)
    return code * vref / steps


@dataclass
class CouplingMatrix:
    """Symmetric couplings J, biases h and correlation strength i0.

    J must have a zero diagonal and be symmetric within one machine; i0 acts
    as an inverse pseudo-temperature and i0 = 0 decouples all units.
    """

    j: np.ndarray
    h: np.ndarray
    i0: float

    def __post_init__(self):
        self.j = np.asarray(self.j, dtype=float)
        self.h = np.asarray(self.h, dtype=float)
        if self.j.ndim != 2 or self.j.shape[0] != self.j.shape[1]:
            raise ConfigurationError("J must be a square matrix")
        n = self.j.shape[0]
        if self.h.shape != (n,):
            raise ConfigurationError(f"h must have length {n}")
        if not np.all(np.isfinite(self.j)) or not np.all(np.isfinite(self.h)):
            raise ConfigurationError("J and h must be finite")
        if np.any(np.abs(np.diag(self.j)) > 1e-12):
            raise ConfigurationError("J must have a zero diagonal")
        if np.any(np.abs(self.j - self.j.T) > 1e-9):
            raise ConfigurationError("J must be symmetric within a machine")
        if not np.isfinite(self.i0) or self.i0 < 0:
            raise ConfigurationError("i0 must be a finite non-negative real")

    @property
    def n(self) -> int:
        return self.j.shape[0]


@dataclass
class PBitConfig:
    """Per-unit timing and terminal binding.

    ``retention_us`` is the hold interval between stochastic updates,
    ``phase_us`` offsets the first update, and ``jitter_fraction`` perturbs
    every interval by a uniform factor in (1-f, 1+f).
    """

    id: int
    retention_us: int
    phase_us: int = 0
    jitter_fraction: float = 0.0
    mode: TerminalMode = FREE

    def __post_init__(self):
        if self.retention_us <= 0:
            raise ConfigurationError("retention time must be positive")
        if self.phase_us < 0:
            raise ConfigurationError("phase must be non-negative")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigurationError("jitter fraction must lie in [0, 1)")


def weight_inputs(
    coupling: CouplingMatrix,
    outputs: Sequence[int],
    modes: Sequence[TerminalMode],
    quant: QuantizationConfig = QuantizationConfig(),
) -> list:
    """Compute the voltages a machine's weight logic publishes.

    ``outputs`` is an atomic snapshot of all unit outputs (0/1). For a free
    unit j the drive is i0*(h_j + sum_i J_ji * m_i), saturated to [-5, 5],
    encoded as (drive + 5)/2 volts and quantized if a DAC is configured.
    Clamped units get exactly the rail voltage; wired units are skipped
    (entry None) because their input is bound outside this machine. The
    engine holds every published voltage as the unit's input, together with
    the unit's firing probability sigmoid(2*v - 5), and caches each
    machine's result per local output mask, since it depends on nothing
    else; only wired units bypass the weight logic.
    """
    n = coupling.n
    if len(outputs) != n or len(modes) != n:
        raise ConfigurationError(
            f"expected {n} outputs and modes, got {len(outputs)}/{len(modes)}"
        )
    m = 2.0 * np.asarray(outputs, dtype=float) - 1.0
    drive = coupling.i0 * (coupling.h + coupling.j @ m)
    published = []
    for j_idx, mode in enumerate(modes):
        if mode == FREE:
            v = encode_input(saturate(float(drive[j_idx])))
            published.append(quantize_voltage(v, quant.dac_bits, quant.vref))
        elif mode == CLAMPED_HIGH:
            published.append(V_RAIL)
        elif mode == CLAMPED_LOW:
            published.append(0.0)
        elif isinstance(mode, Wired):
            published.append(None)
        else:
            raise ConfigurationError(f"unknown terminal mode {mode!r}")
    return published


def retention_time_from_barrier(tau0_seconds: float, barrier_over_kt: float) -> float:
    """Retention time tau0 * exp(barrier/kT), in seconds.

    Utility for picking physically plausible retention times; tau0 is the
    material attempt time (typically 1 ps to 1 ns).
    """
    if tau0_seconds <= 0:
        raise ConfigurationError("tau0 must be positive")
    if barrier_over_kt < 0:
        raise ConfigurationError("energy barrier must be non-negative")
    try:
        result = tau0_seconds * math.exp(barrier_over_kt)
    except OverflowError:
        raise OverflowError("retention time overflows a double") from None
    if math.isinf(result):
        raise OverflowError("retention time overflows a double")
    return result
