"""Pure numerics of a single stochastic bit unit and its weight logic.

Everything here is a pure function of its inputs: no clocks, no event queue,
no random state. The stochastic update rule that consumes these voltages,
output 1 iff sigmoid(2*v - 5) > u for a uniform draw u, is applied by each of
the three engines in ``dynamics``; ``dynamics._Schedule`` owns the random
streams that give each unit its draws.

Conventions:
  * logic levels are plain ints 0/1 (hardware: 0 V / 5 V at the output pin)
  * the bipolar view of a level ``s`` is ``m = 2*s - 1`` in {-1, +1}
  * input voltages live in [0, 5] V; an input decodes to ``m = 2*v - 5``
  * virtual durations are integer microseconds; the barrier formula below is
    the one place that works in physical seconds
"""

from __future__ import annotations

import math
import sys
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


@dataclass(frozen=True)
class QuantizationConfig:
    """DAC resolution on the published voltages. 0 bits = ideal path."""

    dac_bits: int = 0
    vref: float = V_RAIL

    def __post_init__(self):
        # float64 holds every code exactly only up to 2**53
        if not 0 <= self.dac_bits <= sys.float_info.mant_dig:
            raise ConfigurationError(
                f"DAC bit count must be 0 to {sys.float_info.mant_dig}, got {self.dac_bits}")
        # a NaN vref fails every comparison, so `vref <= 0` alone admits it;
        # an infinite one makes every code NaN
        if not (math.isfinite(self.vref) and self.vref > 0):
            raise ConfigurationError(f"vref must be finite and positive, got {self.vref}")


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


def _ascending_sums(j: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """For each row of ``bits`` (0/1, shape (k, n)), acc = 0.0 and then
    acc += m_i * J[:, i] for i = 0..n-1 in ascending order, m_i = 2*bit_i - 1.

    Each term is +-J[:, i], exact, so the partial sum after unit i depends
    only on the row's first i + 1 bits. The first ``lead`` units, as many as
    give no more prefixes than there are rows, are summed once per prefix
    by doubling the prefixes unit by unit; each row then adds the rest of
    its terms to its prefix's sum in order.
    """
    k, n = bits.shape
    jt = j.T
    if k == 1:
        # one row starts at its first term, not at 0.0 plus it; the two
        # differ only in the sign of a zero sum, which the encoding's + 5 drops
        return np.add.accumulate(np.where(bits[0, :, None], jt, -jt), axis=0)[-1:]
    lead = min(n, k.bit_length() - 1)
    acc = np.zeros((1, n))
    for i in range(lead):
        acc = np.stack((acc - jt[i], acc + jt[i]), axis=1).reshape(-1, n)
    acc = acc[bits[:, :lead] @ (1 << np.arange(lead - 1, -1, -1))]
    if lead == n:
        return acc
    # unit-major: terms[i - lead, row] is the row's term of unit i
    terms = np.where(bits.T[lead:, :, None], jt[lead:, None], -jt[lead:, None])
    terms[0] += acc
    return np.add.accumulate(terms, axis=0)[-1]


def weight_inputs(
    coupling: CouplingMatrix,
    outputs: Union[Sequence[int], np.ndarray],
    modes: Sequence[TerminalMode],
    quant: QuantizationConfig = QuantizationConfig(),
) -> Union[list, np.ndarray]:
    """Compute the voltages a machine's weight logic publishes.

    ``outputs`` is an atomic snapshot of all unit outputs (0/1), or a 2-D
    array of snapshots, one per row. For a free unit j the drive is
    i0*(h_j + acc_j), where acc starts at 0.0 and adds m_i * J[:, i] for
    i = 0..n-1 in ascending order (m = 2s - 1); it is saturated to [-5, 5],
    encoded as (drive + 5)/2 volts and, if a DAC is configured, rounded to
    the nearest of its codes (ties up) within [0, 2**bits - 1], each code
    publishing code*vref/2**bits volts, all vectorized over the snapshots. The fixed order makes the bits independent of any
    BLAS kernel, and the same for a snapshot alone and inside a batch.
    Clamped units get exactly the rail voltage; wired units are skipped
    because their input is bound outside this machine. A snapshot gives a
    list, None for a wired unit; a batch gives a float array, NaN there.
    A run makes one call per local state a machine meets, over that state
    alone, and the composed engine one batch call over all the local states
    of its machine; every engine reads the rows of probabilities that one
    per-run model caches (see ``dynamics``).
    """
    n = coupling.n
    bits = np.asarray(outputs)
    if bits.ndim not in (1, 2) or bits.shape[-1] != n or len(modes) != n:
        raise ConfigurationError(
            f"expected {n} outputs and modes, got outputs of shape {bits.shape}"
            f" and {len(modes)} modes"
        )
    drive = coupling.i0 * (coupling.h + _ascending_sums(coupling.j, bits.reshape(-1, n)))
    v = (np.minimum(np.maximum(drive, -SAT_LIMIT), SAT_LIMIT) + 5.0) / 2.0
    if quant.dac_bits:
        steps = 1 << quant.dac_bits
        code = np.minimum(np.maximum(np.floor(v / quant.vref * steps + 0.5), 0), steps - 1)
        v = code * quant.vref / steps
    wired = []
    for j_idx, mode in enumerate(modes):
        if mode == FREE:
            continue
        if mode == CLAMPED_HIGH:
            v[:, j_idx] = V_RAIL
        elif mode == CLAMPED_LOW:
            v[:, j_idx] = 0.0
        elif isinstance(mode, Wired):
            wired.append(j_idx)
        else:
            raise ConfigurationError(f"unknown terminal mode {mode!r}")
    if bits.ndim == 2:
        v[:, wired] = np.nan
        return v
    published = v[0].tolist()
    for j_idx in wired:
        published[j_idx] = None
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
