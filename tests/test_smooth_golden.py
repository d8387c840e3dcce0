"""Every smooth rule must reproduce checked-in bytes, not only itself.

``golden/smooth/rules.json`` was written by the hand-written rule closures
that the branch table replaced.  For every deformed rule at q 1.1 and 2.0
and phases -1 and e^{0.7i}, and for every classical rule, applied to
``probe_function(range(-3, 4))``, it records per output mode:

- the recorded constraints ``(lo, hi, source, strict)`` in order,
- whether a derivative is present,
- the dtype and a digest of the value bytes (and of the d/dxi bytes) on the
  points of a fixed (r, xi) grid that satisfy every constraint,
- the factor named by the ``DomainError`` that evaluating the whole grid
  raises, if any,

and per rule the message of the ``QeuclidError`` raised when the source
modes carry no derivative.  Regenerate with
``PYTHONPATH=src python tests/test_smooth_golden.py``, only from code whose
output is meant to change.
"""

import cmath
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qeuclid.core import DeformationParams, DomainError, QeuclidError
from qeuclid.smooth import (
    ModeFunction,
    SmoothFunction,
    _outside,
    classical_apply,
    classical_names,
    probe_function,
    smooth_apply,
    smooth_names,
)

GOLDEN = Path(__file__).parent / "golden" / "smooth" / "rules.json"
QS = (1.1, 2.0)
PHASES = {"-1": -1.0, "e^0.7i": cmath.exp(0.7j)}
R_GRID = (0.5, 1.3)
XI_GRID = (0.02, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9, 0.97)
R_MESH, XI_MESH = np.meshgrid(np.array(R_GRID), np.array(XI_GRID), indexing="ij")


def _digest(a) -> str:
    a = np.asarray(a)
    return f"{a.dtype}:{hashlib.sha256(a.tobytes()).hexdigest()[:16]}"


def _mode_record(mf: ModeFunction) -> dict:
    outside = [_outside(XI_MESH, XI_MESH, c.lo, c.hi, c.strict) for c in mf.constraints]
    inside = ~np.logical_or.reduce(outside)
    r, xi = R_MESH[inside], XI_MESH[inside]
    try:
        mf(R_MESH, XI_MESH)
        domain_error = None
    except DomainError as exc:
        domain_error = exc.factor
    return {
        "constraints": [[c.lo, c.hi, c.source, c.strict] for c in mf.constraints],
        "has_dxi": mf.dxi is not None,
        "points": int(inside.sum()),
        "value": _digest(mf(r, xi)),
        "dxi": None if mf.dxi is None else _digest(mf.derivative(r, xi)),
        "domain_error": domain_error,
    }


def _without_derivatives(f: SmoothFunction) -> SmoothFunction:
    return SmoothFunction(
        {m: ModeFunction(mf.value, None, mf.constraints) for m, mf in f.modes.items()}
    )


def _case(name: str) -> dict:
    """Record of one case key: ``'<rule> q=<q> phase=<label>'`` or ``'<rule> classical'``."""
    rule, *rest = name.split()
    f = probe_function(range(-3, 4))
    if rest == ["classical"]:
        run = lambda g: classical_apply(rule, g)  # noqa: E731
    else:
        q, phase = (part.split("=", 1)[1] for part in rest)
        p = DeformationParams(q=float(q), theta_phase=PHASES[phase])
        run = lambda g: smooth_apply(rule, g, p)  # noqa: E731
    try:
        run(_without_derivatives(f))
        no_dxi_error = None
    except QeuclidError as exc:
        no_dxi_error = str(exc)
    g = run(f)
    return {
        "modes": {str(m): _mode_record(g.modes[m]) for m in g.mode_indices()},
        "no_dxi_error": no_dxi_error,
    }


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def case_names() -> list[str]:
    names = [
        f"{rule} q={q!r} phase={label}"
        for rule in smooth_names()
        for q in QS
        for label in PHASES
    ]
    return names + [f"{rule} classical" for rule in classical_names()]


def test_golden_covers_every_rule():
    assert sorted(_golden()) == sorted(case_names())


@pytest.mark.parametrize("name", case_names())
def test_rule_matches_golden(name):
    # A JSON round trip turns inf into Infinity and back, exactly as stored.
    assert json.loads(json.dumps(_case(name))) == _golden()[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    rows = [f"{json.dumps(name)}: {json.dumps(_case(name), sort_keys=True)}" for name in case_names()]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
