"""The package's public surface: one list per name, and no name lost."""

import qeuclid
from qeuclid import core, lattice, operators, smooth, verify

MODULES = (core, lattice, operators, smooth, verify)

#: ``sorted(qeuclid.__all__)`` as released; a change here is an API change.
PUBLIC = [
    "ADJOINT_PAIRS", "BasisIndex", "Branch", "CASIMIR", "COMMUTANT", "CapacityError",
    "ConvergenceResult", "DEFAULT_WINDOW_CAPACITY", "DeformationParams", "Diagonals",
    "DomainError", "K_RELATIONS", "LatticeOperator", "LatticeState", "LimitGrid",
    "ModeFunction", "NotDiagonalError", "OperatorMatrix", "QeuclidError", "RangeError",
    "RelationSpec", "ResidualReport", "SUITE_NAMES", "SmoothFunction", "SuiteReport",
    "TORB_TEMPLATE", "T_TEMPLATE", "Term", "TruncationWindow", "UnknownOperatorError",
    "X_RELATIONS", "XiConstraint", "__version__", "adjoint_matrix", "apply", "build_window",
    "canonical_key", "catalogue_names", "check_adjointness", "check_homomorphism",
    "check_lowest_weight", "check_recursions", "check_relations", "check_tensor_torb",
    "classical_apply", "classical_names", "common_xi_interval", "convergence_csv",
    "deformed_images", "get_operator", "inner_product", "interior_positions",
    "j_recursion_residual", "j_solution", "jackson_weight", "lattice_coordinates",
    "limit_convergence", "limit_grid", "load_state", "materialize", "operator_action",
    "phi_solution", "probe_function", "qpow", "resolve_name", "run_all_suites", "run_suite",
    "save_matrix", "save_state", "smooth_apply", "smooth_names", "spectrum_arrays",
    "spectrum_diagonal", "t3_eigenvalue", "tauk_eigenvalue", "torb3_eigenvalue",
    "window_label", "word_matrix",
]


def test_no_name_is_listed_twice():
    assert len(qeuclid.__all__) == len(set(qeuclid.__all__))


def test_package_list_is_the_module_lists():
    assert qeuclid.__all__ == ["__version__", *(n for m in MODULES for n in m.__all__)]


def test_every_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qeuclid, name) is getattr(module, name), name


def test_public_names_are_unchanged():
    assert sorted(qeuclid.__all__) == PUBLIC
