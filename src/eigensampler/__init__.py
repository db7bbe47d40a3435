"""Classical ground-energy estimation from sample-and-query state access.

The package estimates the smallest eigenvalue of a Hermitian operator given
as a sum of row-sparse terms with norm bounds, using only amplitude queries
and Born-rule samples of a guiding state. Filtered spectral weight is read
off through sampled polynomial transforms built from recursive sparse chain
products, and an exact dense oracle backs every stochastic layer for small
instances.
"""

from .errors import (
    CostCapExceeded,
    DegreeOverflowError,
    DenseLimitError,
    EigensamplerError,
    GapError,
    HamiltonianFormatError,
    StateSpecError,
    UndefinedRatioError,
    ValidationError,
    ZeroKappaError,
)
from .hamiltonian import (
    Decomposition,
    LocalTerm,
    build_decomposition,
    compute_term_norm,
    load_hamiltonian,
    shift_rescale,
    term_to_sparse,
)
from .state_access import (
    BasisState,
    DenseState,
    DenseVector,
    MaxEntState,
    ProductState,
    StateAccessor,
    VectorAccessor,
    estimate_inner_product,
    make_state,
    median_amplify,
)
from .imm import chain_entry
from .polyfilter import (
    RectanglePolynomial,
    build_rectangle_polynomial,
    coefficient_l1,
    eval_poly,
)
from .transform import (
    ChainSampler,
    estimate_polynomial_transform,
    estimate_power,
    predict_cost,
)
from .eigensolve import (
    DecisionOutcome,
    EnergyEstimate,
    SolverConfig,
    decide,
    estimate_smallest_eigenvalue,
    solve_guided,
    solve_unguided,
    test_threshold,
)
from .oracle import (
    DenseOperator,
    exact_ground_energy,
    exact_overlap,
    exact_sandwich,
    reconstruct,
)
from .instrument import Counters, recording
from .rng import make_generator, spawn_streams

__version__ = "0.1.0"

__all__ = [
    "BasisState",
    "ChainSampler",
    "CostCapExceeded",
    "Counters",
    "DecisionOutcome",
    "Decomposition",
    "DegreeOverflowError",
    "DenseLimitError",
    "DenseOperator",
    "DenseState",
    "DenseVector",
    "EigensamplerError",
    "EnergyEstimate",
    "GapError",
    "HamiltonianFormatError",
    "LocalTerm",
    "MaxEntState",
    "ProductState",
    "RectanglePolynomial",
    "SolverConfig",
    "StateAccessor",
    "StateSpecError",
    "UndefinedRatioError",
    "ValidationError",
    "VectorAccessor",
    "ZeroKappaError",
    "build_decomposition",
    "build_rectangle_polynomial",
    "chain_entry",
    "coefficient_l1",
    "compute_term_norm",
    "decide",
    "estimate_inner_product",
    "estimate_polynomial_transform",
    "estimate_power",
    "estimate_smallest_eigenvalue",
    "eval_poly",
    "exact_ground_energy",
    "exact_overlap",
    "exact_sandwich",
    "load_hamiltonian",
    "make_generator",
    "make_state",
    "median_amplify",
    "predict_cost",
    "reconstruct",
    "recording",
    "shift_rescale",
    "solve_guided",
    "solve_unguided",
    "spawn_streams",
    "term_to_sparse",
    "test_threshold",
]
