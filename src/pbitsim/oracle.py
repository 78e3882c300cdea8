"""Exact reference results for a single symmetric machine.

States are indexed big-endian by unit order: state index s encodes unit k as
bit (s >> (n-1-k)) & 1, so for three units labelled A,B,C the index equals
the monitoring word 4*A + 2*B + C.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import CLAMPED_HIGH, CLAMPED_LOW, FREE, CouplingMatrix, Wired
from .errors import CapacityError, ConfigurationError

ENUMERATION_LIMIT = 24


def state_bits(index: int, n: int) -> tuple:
    """Decode a big-endian state index into a tuple of 0/1 levels."""
    return tuple((index >> (n - 1 - k)) & 1 for k in range(n))


def state_index(bits) -> int:
    """Encode a sequence of 0/1 levels into its big-endian state index."""
    word = 0
    for b in bits:
        word = (word << 1) | int(b)
    return word


def project(states, n: int, units) -> np.ndarray:
    """Big-endian word formed by the bits of ``units`` (the first one most
    significant) in each n-unit state index or mask of ``states``."""
    states = np.asarray(states, dtype=np.int64)
    word = np.zeros(states.shape, dtype=np.int64)
    for k in units:
        word = (word << 1) | ((states >> (n - 1 - k)) & 1)
    return word


def bit_rows(lo: int, hi: int, n: int) -> np.ndarray:
    """The n big-endian bits of each index in [lo, hi), one uint8 row of 0/1
    per index: column k is bit n-1-k, as in ``state_bits``. The indices are
    unpacked from their big-endian bytes, so no n-wide integer array is made."""
    width = 4 if n <= 32 else 8
    idx = np.arange(lo, hi, dtype=f">u{width}")
    return np.unpackbits(idx.view(np.uint8).reshape(-1, width), axis=1)[:, 8 * width - n:]


def _bipolar_table(n: int) -> np.ndarray:
    """All 2**n states as rows of -1/+1 spins, in index order."""
    m = bit_rows(0, 1 << n, n).astype(np.float64)
    m *= 2.0
    m -= 1.0
    return m


def energy(coupling: CouplingMatrix, state) -> float:
    """Energy -i0 * (1/2 sum_ij J_ij m_i m_j + sum_i h_i m_i).

    ``state`` is a bipolar vector; the 1/2 compensates the symmetric double
    count in the ordered double sum.
    """
    m = np.asarray(state, dtype=float)
    if m.shape != (coupling.n,):
        raise ConfigurationError(f"state must have length {coupling.n}")
    if not np.all(np.abs(m) == 1.0):
        raise ConfigurationError("state entries must be -1 or +1")
    return float(-coupling.i0 * (0.5 * m @ coupling.j @ m + coupling.h @ m))


@functools.cache
def _half_table(k: int) -> np.ndarray:
    """``_bipolar_table(k)``, read-only and built once per process. A half
    has at most 12 units under ENUMERATION_LIMIT, so every table kept fits
    in 0.8 MB, and a small machine's energies skip rebuilding two tables
    that cost more than the einsums over them."""
    m = _bipolar_table(k)
    m.flags.writeable = False
    return m


def _half_energies(j: np.ndarray, h: np.ndarray) -> tuple:
    """The -1/+1 table of one half's states and, per state, its energy at
    i0 = -1 from the couplings and biases inside the half."""
    m = _half_table(len(h))
    return m, 0.5 * np.einsum("si,ij,sj->s", m, j, m) + m @ h


def all_energies(coupling: CouplingMatrix) -> np.ndarray:
    """Energies of every state, indexed big-endian. Guarded by the 2**24 cap.

    The units split at a = n // 2 into a high half (units 0..a-1, the high
    index bits) and a low half. Each half's own energies come from one small
    einsum over its 2**a or 2**(n-a) states, and the coupling between the
    halves is one matrix product of their tables. A state's energy is
    -i0 * ((cross + E_hi) + E_lo), and the 2**a x 2**(n-a) table of these,
    raveled, is already in index order. No 2**n x n table is built, and the
    cross table becomes the result in place: at 20 units the traced peak is
    1.02 times the result's bytes.

    The bits equal those of that single einsum,
    -i0 * (0.5 * m J m + m h) over all 2**n rows, whenever every partial sum
    is exact, as it is for couplings on the quarter grid (every shipped gate
    but the full adder). Elsewhere the summation order differs and the last
    bits may move: by at most 5.3e-14 over the shipped full adder's 2**14
    states."""
    n = coupling.n
    if n > ENUMERATION_LIMIT:
        raise CapacityError(f"enumeration limited to {ENUMERATION_LIMIT} units, got {n}")
    a = n // 2
    j, h = coupling.j, coupling.h
    m_hi, e_hi = _half_energies(j[:a, :a], h[:a])
    m_lo, e_lo = _half_energies(j[a:, a:], h[a:])
    # both off-diagonal blocks, so a J symmetric only to 1e-9 counts as the
    # full double sum does; for an exactly symmetric J this is J[:a, a:]
    cross = (m_hi @ (0.5 * (j[:a, a:] + j[a:, :a].T))) @ m_lo.T
    cross += e_hi[:, None]
    cross += e_lo[None, :]
    cross *= -coupling.i0
    return cross.ravel()


@dataclass
class ExactDistribution:
    """Boltzmann probabilities over all 2**n states of one machine."""

    n: int
    probabilities: np.ndarray


def boltzmann_distribution(coupling: CouplingMatrix, modes=None) -> ExactDistribution:
    """Exact steady-state law P(state) ~ exp(-E(state)).

    Clamped units are treated as ideal: states disagreeing with a rail get
    probability exactly 0 and the rest renormalize, which equals conditioning
    the unclamped law on the clamped bits. Wired modes have no single-machine
    oracle and are rejected.
    """
    n = coupling.n
    energies = all_energies(coupling)
    mask = np.ones(1 << n, dtype=bool)
    if modes is not None:
        if len(modes) != n:
            raise ConfigurationError(f"expected {n} modes")
        idx = np.arange(1 << n, dtype=np.int64)
        for k, mode in enumerate(modes):
            if mode == FREE:
                continue
            if isinstance(mode, Wired):
                raise ConfigurationError(
                    "wired units have no single-machine Boltzmann oracle"
                )
            bit = (idx >> (n - 1 - k)) & 1
            if mode == CLAMPED_HIGH:
                mask &= bit == 1
            elif mode == CLAMPED_LOW:
                mask &= bit == 0
            else:
                raise ConfigurationError(f"unknown terminal mode {mode!r}")
    # max-shift before exponentiation keeps the enumeration overflow-free
    shifted = -(energies - energies[mask].min())
    weights = np.where(mask, np.exp(shifted), 0.0)
    return ExactDistribution(n, weights / weights.sum())


def euclidean_distance(p, q) -> float:
    """sqrt(sum_s (p_s - q_s)^2) over a shared state space."""
    pv = p.probabilities if isinstance(p, ExactDistribution) else np.asarray(p, dtype=float)
    qv = q.probabilities if isinstance(q, ExactDistribution) else np.asarray(q, dtype=float)
    if pv.shape != qv.shape:
        raise ConfigurationError(f"support mismatch: {pv.shape} vs {qv.shape}")
    return float(np.sqrt(np.sum((pv - qv) ** 2)))
