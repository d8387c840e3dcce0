"""Every lattice catalogue operator must reproduce checked-in bytes.

``golden/lattice/matrices.json`` records, for every catalogue name at q
1.1, 2.0 and 40.0 and phases -1, +1 and e^{0.7i}, on two windows, what
:func:`materialize` returns:

- the stored offsets, and the dtype and a digest of the diagonal values,
- digests of ``boundary_columns`` and ``boundary_leakage``, and of
  ``total_leakage`` as one float64,
- the offsets and a digest of the values of its Jackson adjoint.

The window ``0:0,-120,4`` reaches polar levels where q = 40 overflows a
coefficient to inf and underflows a Jackson weight to 0.  Regenerate with
``PYTHONPATH=src python tests/test_lattice_golden.py``, only from code whose
output is meant to change.
"""

import cmath
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qeuclid.core import DeformationParams, TruncationWindow
from qeuclid.operators import adjoint_matrix, catalogue_names, materialize

GOLDEN = Path(__file__).parent / "golden" / "lattice" / "matrices.json"
QS = (1.1, 2.0, 40.0)
PHASES = {"-1": -1.0, "+1": 1.0, "e^0.7i": cmath.exp(0.7j)}
WINDOWS = {"-2:2,-3,3": TruncationWindow(-2, 2, -3, 3), "0:0,-120,4": TruncationWindow(0, 0, -120, 4)}


def _digest(a) -> str:
    a = np.asarray(a)
    return f"{a.dtype}:{hashlib.sha256(a.tobytes()).hexdigest()[:16]}"


def _case(name: str) -> dict:
    """Record of one case key: ``'<operator> q=<q> phase=<label> window=<label>'``."""
    op, *rest = name.split()
    q, phase, window = (part.split("=", 1)[1] for part in rest)
    p = DeformationParams(q=float(q), theta_phase=PHASES[phase])
    A = materialize(op, WINDOWS[window], p)
    adj = adjoint_matrix(A, p).entries
    return {
        "offsets": A.entries.offsets.tolist(),
        "values": _digest(A.entries.values),
        "boundary_columns": _digest(A.boundary_columns),
        "boundary_leakage": _digest(A.boundary_leakage),
        "total_leakage": _digest(np.float64(A.total_leakage)),
        "adjoint_offsets": adj.offsets.tolist(),
        "adjoint_values": _digest(adj.values),
    }


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def case_names() -> list[str]:
    return [
        f"{op} q={q!r} phase={label} window={window}"
        for op in catalogue_names()
        for q in QS
        for label in PHASES
        for window in WINDOWS
    ]


def test_golden_covers_every_operator():
    assert sorted(_golden()) == sorted(case_names())


@pytest.mark.parametrize("name", case_names())
def test_operator_matches_golden(name):
    assert _case(name) == _golden()[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    rows = [f"{json.dumps(name)}: {json.dumps(_case(name), sort_keys=True)}" for name in case_names()]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
