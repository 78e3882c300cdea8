"""Exact reference results for a single symmetric machine.

States are indexed big-endian by unit order: state index s encodes unit k as
bit (s >> (n-1-k)) & 1, so for three units labelled A,B,C the index equals
the monitoring word 4*A + 2*B + C.
"""

from __future__ import annotations

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


def all_energies(coupling: CouplingMatrix) -> np.ndarray:
    """Energies of every state, indexed big-endian. Guarded by the 2**24 cap.

    The table is one einsum over all 2**n rows on purpose. einsum's
    summation order depends on the shape it is given, so enumerating in
    chunks changes the last bits: on random float couplings with 3-14 units,
    chunks of 1 and 7 rows gave different energies in 19 of 88 cases (256
    and 4,096 rows in none). The oracle and the verified gates rest on these
    exact bits."""
    n = coupling.n
    if n > ENUMERATION_LIMIT:
        raise CapacityError(f"enumeration limited to {ENUMERATION_LIMIT} units, got {n}")
    m = _bipolar_table(n)
    pair = 0.5 * np.einsum("si,ij,sj->s", m, coupling.j, m)
    return -coupling.i0 * (pair + m @ coupling.h)


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
