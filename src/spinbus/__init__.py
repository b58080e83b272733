"""Exact quantum-state-transfer toolkit for XX chains with barrier fields.

The package maps spin dynamics in fixed-excitation sectors onto free fermions,
evaluates multi-excitation transition amplitudes as determinants of
single-particle propagator minors, and builds on those the receiver-block
density matrices, average transfer fidelities, and the time/field scans used
to locate high-fidelity operating points.

Importing the package loads what every call path uses: chain, spectral,
states, reduced and fidelity.  The names of scans (time and field scans),
oracle (the sector-evolution cross-check) and amplitudes (multi-excitation
amplitudes) load their module on first access, so a point query loads none
of them.
"""

__version__ = "0.1.0"

from .chain import (
    BALLISTIC,
    BALLISTIC_C_DEFAULT,
    ENGINEERED,
    PROFILES,
    UNIFORM,
    ChainSpec,
    SingleParticleHamiltonian,
    build_chain,
    hamiltonian_matrix,
)
from .fidelity import (
    CLASSES,
    AverageFidelity,
    avg_fidelity_1q,
    avg_fidelity_1q_mc,
    avg_fidelity_mc,
    avg_fidelity_omega1,
    avg_fidelity_omega2,
    general_values,
    omega1_values,
    omega2_values,
    one_qubit_amplitude,
    one_qubit_values,
)
from .reduced import (
    RECEIVER_BASIS,
    evolve_receiver_pair,
    fidelity_against,
)
from .spectral import (
    SpectralDecomposition,
    amplitude_1p,
    amplitude_row,
    decompose,
    decompose_chain,
    propagator_minor,
    propagator_minor_grid,
)
from .states import (
    SeededSampler,
    TwoQubitState,
    sample_haar_1q,
    sample_haar_2q,
    sample_omega1,
    sample_omega2,
)

__all__ = [
    "AverageFidelity",
    "BALLISTIC",
    "BALLISTIC_C_DEFAULT",
    "CLASSES",
    "ChainSpec",
    "ENGINEERED",
    "PROFILES",
    "RECEIVER_BASIS",
    "ScanRequest",
    "ScanResult",
    "SectorBasis",
    "SectorEvolver",
    "SeededSampler",
    "SingleParticleHamiltonian",
    "SpectralDecomposition",
    "ThresholdResult",
    "TwoQubitState",
    "UNIFORM",
    "amplitude_1p",
    "amplitude_row",
    "amplitude_rp",
    "avg_fidelity_1q",
    "avg_fidelity_1q_mc",
    "avg_fidelity_mc",
    "avg_fidelity_omega1",
    "avg_fidelity_omega2",
    "build_chain",
    "decompose",
    "decompose_chain",
    "default_t_max",
    "evolve_receiver_pair",
    "fidelity_against",
    "field_constant",
    "field_sweep",
    "general_values",
    "hamiltonian_matrix",
    "max_over_time",
    "omega1_values",
    "omega2_values",
    "one_qubit_amplitude",
    "one_qubit_values",
    "oracle_rdm",
    "propagator_minor",
    "propagator_minor_grid",
    "sample_haar_1q",
    "sample_haar_2q",
    "sample_omega1",
    "sample_omega2",
    "threshold_field",
    "verification_battery",
]

# the names whose module loads on first access, and that module
_DEFERRED = {
    "amplitude_rp": "amplitudes",
    "SectorBasis": "oracle",
    "SectorEvolver": "oracle",
    "field_constant": "oracle",
    "oracle_rdm": "oracle",
    "verification_battery": "oracle",
    "ScanRequest": "scans",
    "ScanResult": "scans",
    "ThresholdResult": "scans",
    "default_t_max": "scans",
    "field_sweep": "scans",
    "max_over_time": "scans",
    "threshold_field": "scans",
}


def __getattr__(name):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__():
    return list(__all__)
