"""Statevector simulation of adiabatic ground-state preparation with
ancilla-based eigenstate filtering and corrected expectation estimation."""

from ._version import __version__
from .adiabatic import (
    EvolutionMode,
    Schedule,
    Trajectory,
    evolve_step,
    run_adiabatic,
    run_hold,
)
from .config import (
    EstimationConfig,
    ExperimentConfig,
    FilterSettings,
    ModelConfig,
    RefineSettings,
    build_model,
    config_to_text,
    load_config,
    parse_config,
    with_overrides,
)
from .errors import (
    ConfigError,
    CorrectionError,
    DegenerateEnergyError,
    DomainError,
    ImpossibleOutcomeError,
    NumericalConsistencyError,
    ResourceLimitError,
    UnitarityError,
    VacuumRefineError,
)
from .estimation import (
    EigenOverlaps,
    EstimateResult,
    corrected_expectation,
    cross_term,
    eigen_overlaps,
    shot_expectation,
)
from .experiments import (
    CommandResult,
    cmd_diag,
    cmd_filter_run,
    cmd_refine,
    cmd_sweep,
)
from .filtering import (
    FilterConfig,
    FilterOutcome,
    RefinementReport,
    RefinementStep,
    apply_filter,
    choose_theta,
    controlled_u_power,
    filter_amplitude,
    refine_iteratively,
    tag_circuit_one_qubit,
)
from .hamiltonian import (
    PauliSum,
    Spectrum,
    apply_evolution,
    evolution_unitary,
    exact_diagonalize,
    hadamard_hamiltonian,
    initial_hamiltonian,
    interpolate,
    parse_pauli_text,
    ramp_coefficients,
    to_matrix,
    transverse_ising_pair,
)
from .statevector import (
    StateVector,
    apply_controlled,
    apply_gate,
    apply_pauli_string,
    basis_state,
    expectation_observable,
    fidelity,
    measure_sample,
    postselect,
)
