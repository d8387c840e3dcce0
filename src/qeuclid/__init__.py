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

Importing the package loads only :mod:`qeuclid.core`.  The other
submodules, and the names they export, load on first attribute access
(``qeuclid.lattice``, ``qeuclid.apply``, ``from qeuclid import *``), so a
program pays to compile and run only the modules it uses.
"""

import importlib

from . import core
from .core import *

__version__ = "0.1.0"

#: The public names of the submodules that load on first access, in the
#: order of each module's ``__all__``.
_LAZY = {
    "lattice": ("LatticeState", "build_window", "inner_product", "save_state", "load_state"),
    "operators": (
        "Branch", "Diagonals", "LatticeOperator", "OperatorMatrix", "catalogue_names",
        "get_operator", "resolve_name", "operator_action", "apply", "materialize",
        "adjoint_matrix", "spectrum_arrays", "spectrum_diagonal", "save_matrix",
    ),
    "smooth": (
        "XiConstraint", "ModeFunction", "SmoothFunction", "smooth_names", "classical_names",
        "smooth_apply", "classical_apply", "probe_function", "ConvergenceResult",
        "limit_convergence", "convergence_csv", "deformed_images", "common_xi_interval",
        "LimitGrid", "limit_grid",
    ),
    "verify": (
        "Term", "RelationSpec", "ResidualReport", "SuiteReport", "X_RELATIONS", "K_RELATIONS",
        "CASIMIR", "COMMUTANT", "T_TEMPLATE", "TORB_TEMPLATE", "ADJOINT_PAIRS", "window_label",
        "word_matrix", "interior_positions", "check_relations", "check_adjointness",
        "check_homomorphism", "check_tensor_torb", "check_recursions", "check_lowest_weight",
        "phi_solution", "j_solution", "j_recursion_residual", "SUITE_NAMES", "run_suite",
        "run_all_suites",
    ),
}

#: The submodule each lazily loaded name comes from.
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["__version__", *core.__all__, *_HOME]


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAZY})
