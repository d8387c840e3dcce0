"""qeuclid: operators on the q-deformed Euclidean lattice.

The package realizes the coordinate, hopping, mode-ladder, and orbital
operator families of the three-dimensional q-deformed Euclidean space as
concrete shift rules: on a truncated q-lattice Hilbert space (sparse
matrices under a Jackson-weighted inner product) and on smooth test
functions (argument-scaling rules per angular mode).  Verification suites
turn every defining relation, adjointness property, closed-form spectrum,
and q -> 1 classical limit into a numerical residual with an explicit
truncation-boundary policy.

Quick start
-----------
>>> import qeuclid
>>> p = qeuclid.DeformationParams(q=2.0)
>>> w = qeuclid.TruncationWindow(0, 0, -4, 4)
>>> [round(v, 6) for _, v in qeuclid.spectrum_diagonal("tau_k", w, p)][:2]
[-0.25, -0.015625]

The ``qeuclid`` console script exposes the same functionality for batch
runs; see ``qeuclid --help``.
"""

from .core import (
    DEFAULT_WINDOW_CAPACITY,
    BasisIndex,
    CapacityError,
    DeformationParams,
    DomainError,
    NotDiagonalError,
    QeuclidError,
    RangeError,
    TruncationWindow,
    UnknownOperatorError,
    canonical_key,
    jackson_weight,
    lattice_coordinates,
    qpow,
    t3_eigenvalue,
    tauk_eigenvalue,
    torb3_eigenvalue,
)
from .lattice import (
    LatticeState,
    build_window,
    inner_product,
    load_state,
    save_state,
)
from .operators import (
    Branch,
    Diagonals,
    LatticeOperator,
    OperatorMatrix,
    adjoint_matrix,
    apply,
    catalogue_names,
    get_operator,
    materialize,
    operator_action,
    resolve_name,
    save_matrix,
    spectrum_arrays,
    spectrum_diagonal,
)
from .smooth import (
    ConvergenceResult,
    LimitGrid,
    ModeFunction,
    SmoothFunction,
    XiConstraint,
    classical_apply,
    classical_names,
    common_xi_interval,
    convergence_csv,
    deformed_images,
    limit_convergence,
    limit_grid,
    probe_function,
    smooth_apply,
    smooth_names,
)
from .verify import (
    ADJOINT_PAIRS,
    CASIMIR,
    COMMUTANT,
    K_RELATIONS,
    SUITE_NAMES,
    T_TEMPLATE,
    TORB_TEMPLATE,
    X_RELATIONS,
    RelationSpec,
    ResidualReport,
    SuiteReport,
    Term,
    check_adjointness,
    check_homomorphism,
    check_lowest_weight,
    check_recursions,
    check_relations,
    check_tensor_torb,
    interior_positions,
    j_recursion_residual,
    j_solution,
    phi_solution,
    run_all_suites,
    run_suite,
    window_label,
    word_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "QeuclidError",
    "CapacityError",
    "UnknownOperatorError",
    "NotDiagonalError",
    "DomainError",
    "RangeError",
    "DEFAULT_WINDOW_CAPACITY",
    "qpow",
    "DeformationParams",
    "BasisIndex",
    "TruncationWindow",
    "canonical_key",
    "lattice_coordinates",
    "jackson_weight",
    "t3_eigenvalue",
    "tauk_eigenvalue",
    "torb3_eigenvalue",
    # lattice
    "LatticeState",
    "build_window",
    "inner_product",
    "save_state",
    "load_state",
    # operators
    "Branch",
    "Diagonals",
    "LatticeOperator",
    "OperatorMatrix",
    "catalogue_names",
    "get_operator",
    "resolve_name",
    "operator_action",
    "apply",
    "materialize",
    "adjoint_matrix",
    "spectrum_arrays",
    "spectrum_diagonal",
    "save_matrix",
    # smooth
    "XiConstraint",
    "ModeFunction",
    "SmoothFunction",
    "smooth_names",
    "classical_names",
    "smooth_apply",
    "classical_apply",
    "probe_function",
    "ConvergenceResult",
    "limit_convergence",
    "convergence_csv",
    "deformed_images",
    "common_xi_interval",
    "LimitGrid",
    "limit_grid",
    # verify
    "Term",
    "RelationSpec",
    "ResidualReport",
    "SuiteReport",
    "X_RELATIONS",
    "K_RELATIONS",
    "CASIMIR",
    "COMMUTANT",
    "T_TEMPLATE",
    "TORB_TEMPLATE",
    "ADJOINT_PAIRS",
    "window_label",
    "word_matrix",
    "interior_positions",
    "check_relations",
    "check_adjointness",
    "check_homomorphism",
    "check_tensor_torb",
    "check_recursions",
    "check_lowest_weight",
    "phi_solution",
    "j_solution",
    "j_recursion_residual",
    "SUITE_NAMES",
    "run_suite",
    "run_all_suites",
]
