"""pbitsim: virtual-time discrete-event simulation of stochastic p-bit networks."""

from .core import (
    CLAMPED_HIGH,
    CLAMPED_LOW,
    FREE,
    CouplingMatrix,
    PBitConfig,
    QuantizationConfig,
    Wired,
    retention_time_from_barrier,
    sigmoid,
    weight_inputs,
)
from .oracle import ExactDistribution, boltzmann_distribution, energy, euclidean_distance

__all__ = [
    "CLAMPED_HIGH",
    "CLAMPED_LOW",
    "FREE",
    "CouplingMatrix",
    "PBitConfig",
    "QuantizationConfig",
    "Wired",
    "retention_time_from_barrier",
    "sigmoid",
    "weight_inputs",
    "ExactDistribution",
    "boltzmann_distribution",
    "energy",
    "euclidean_distance",
]

__version__ = "0.1.0"
