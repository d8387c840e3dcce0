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

from . import core, lattice, operators, smooth, verify
from .core import *
from .lattice import *
from .operators import *
from .smooth import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *lattice.__all__,
    *operators.__all__,
    *smooth.__all__,
    *verify.__all__,
]
