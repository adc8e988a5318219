"""Statevector simulation of non-unitary time evolution via fitted Pauli rotations,
applied to Black-Scholes option pricing on amplitude-encoded grids."""

from .errors import (
    CapacityError,
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    InvalidDomainError,
    ProtocolFailureError,
    QnuteError,
    RescaleDegeneracyError,
    SingularSystemError,
    StepSizeError,
    UnsupportedSizeError,
)
from .evolution import (
    QnuteConfig,
    SigmaBasis,
    StepReport,
    Trajectory,
    evolve,
    measure_b,
    measure_c,
    sigma_basis,
    terms_for_config,
    trotter_step,
)
from .exact import (
    FidelityStats,
    exact_step,
    exact_trajectory,
    fidelity_stats,
    reference_pde_solution,
)
from .hamiltonian import (
    BSParams,
    Grid,
    HamiltonianTerm,
    TridiagonalOperator,
    apply_linear_bc,
    bs_coefficients,
    build_bs_pauli,
    chi_matrix,
    chi_squared_matrix,
    d1_matrix,
    d2_matrix,
    split_terms,
)
from .market import (
    BoundaryCoeffs,
    OptionContract,
    analytic_price,
    boundary_coefficients,
    boundary_value,
    payoff_samples,
    price_curve,
    price_run,
    rescale_factor,
)
from .pauli import (
    LadderOp,
    PauliString,
    PauliSum,
    decompose_dense,
    dense_matrix,
    ladder_as_pauli,
    multiply_strings,
    tensor,
)
from .statevector import (
    ScaledState,
    StateVector,
    apply_pauli_rotation,
    decode_nonnegative,
    encode_samples,
    expectation,
    fidelity,
)

__version__ = "0.1.0"
