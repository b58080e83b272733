"""Exact quantum-state-transfer toolkit for XX chains with barrier fields.

The package maps spin dynamics in fixed-excitation sectors onto free fermions,
evaluates multi-excitation transition amplitudes as determinants of
single-particle propagator minors, and builds on those the receiver-block
density matrices, average transfer fidelities, and the time/field scans used
to locate high-fidelity operating points.
"""

__version__ = "0.1.0"

from .amplitudes import amplitude_rp
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
from .oracle import (
    SectorBasis,
    SectorEvolver,
    field_constant,
    oracle_rdm,
    verification_battery,
)
from .reduced import (
    RECEIVER_BASIS,
    evolve_receiver_pair,
    fidelity_against,
)
from .scans import (
    ScanRequest,
    ScanResult,
    ThresholdResult,
    default_t_max,
    field_sweep,
    max_over_time,
    threshold_field,
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
