"""The lattice operator catalogue: shift rules, matrices, adjoints, spectra.

Every operator acts on a basis index through one or two *branches*; a branch
is a shift triple (dM, dmt, dm) plus a coefficient evaluated at the source
index.  Multiplication factors that depend on the polar point are evaluated
at the post-shift lattice point (that is what pointwise evaluation of the
difference-operator formulas on lattice eigenfunctions produces), and
functions of the mode-twisted coordinate xihat standing left of a mode shift
see the post-shift mode.

Shift semantics of the generating moves:

======================  ==========  =======================================
move                    shift        coefficient
======================  ==========  =======================================
Lambda (radial)         M  -> M+1   q^-2   (Jackson-unitary normalization)
Lambda_inv              M  -> M-1   q^+2
Lambda_xi               mt -> mt-1  q      (g(xi) -> q * g(q^2 xi))
Lambda_xi_inv           mt -> mt+1  q^-1   (quotient zero past mt = 0)
exp_iphi                m  -> m+1   1
exp_minus_iphi          m  -> m-1   1      (quotient zero past m = mt)
======================  ==========  =======================================

A shift that would violate mt <= 0 or m >= mt yields exactly zero: either the
analytic prefactor vanishes there (X+, t+ at mt = 0; K-, Torb- ladder branch
at m = mt) or the image function vanishes on every lattice point and is the
zero class of the factor space (bare Lambda_xi_inv, bare exp_minus_iphi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .core import (
    ALIASES,
    BasisIndex,
    DeformationParams,
    NotDiagonalError,
    TruncationWindow,
    UnknownOperatorError,
    jackson_weight,
    validate_index,
)
from .lattice import LatticeState, build_window

__all__ = [
    "Branch",
    "LatticeOperator",
    "OperatorMatrix",
    "catalogue_names",
    "get_operator",
    "resolve_name",
    "operator_action",
    "apply",
    "materialize",
    "adjoint_matrix",
    "spectrum_diagonal",
    "save_matrix",
]

CoeffFn = Callable[[BasisIndex, DeformationParams], complex]


@dataclass(frozen=True)
class Branch:
    """One shift triple with its source-evaluated coefficient."""

    dM: int
    dmt: int
    dm: int
    coeff: CoeffFn

    @property
    def shift(self) -> tuple[int, int, int]:
        return (self.dM, self.dmt, self.dm)


@dataclass(frozen=True)
class LatticeOperator:
    """A named catalogue operator: one or two branches, block-diagonal in sigma."""

    name: str
    branches: tuple[Branch, ...]

    @property
    def is_diagonal(self) -> bool:
        return all(b.shift == (0, 0, 0) for b in self.branches)

    def shifts(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(b.shift for b in self.branches)


def _rval(idx: BasisIndex, p: DeformationParams) -> float:
    return p.r0 * p.qpow(4 * idx.M + 2)


def _xival(idx: BasisIndex, p: DeformationParams) -> float:
    return idx.sigma * p.qpow(2 * idx.mt - 1)


def _xihatval(idx: BasisIndex, p: DeformationParams) -> float:
    return idx.sigma * p.qpow(2 * (idx.mt - idx.m) - 1)


# --- diagonal coefficients ------------------------------------------------

def _c_identity(idx, p):
    return 1.0


def _c_r(idx, p):
    return _rval(idx, p)


def _c_xi(idx, p):
    return _xival(idx, p)


def _c_xi_inv(idx, p):
    return idx.sigma * p.qpow(1 - 2 * idx.mt)


def _c_abs_xi_inv(idx, p):
    return p.qpow(1 - 2 * idx.mt)


def _c_xihat(idx, p):
    return _xihatval(idx, p)


def _c_R2(idx, p):
    return p.r0 * p.r0 * p.qpow(8 * idx.M + 4)


def _c_X3(idx, p):
    return _rval(idx, p) * _xival(idx, p)


def _c_t3(idx, p):
    u = p.qpow(1 - 2 * idx.mt)
    return (1.0 + u * u) / p.lam


def _c_K3(idx, p):
    return (1.0 + p.qpow(-4 * idx.mk - 2)) / p.lam


def _c_tau_k(idx, p):
    v = _xihatval(idx, p)
    return -(v * v)


def _c_tau_t(idx, p):
    u = p.qpow(1 - 2 * idx.mt)
    return -(u * u)


def _c_tau_orb(idx, p):
    return p.qpow(-4 * idx.m)


def _c_Torb3(idx, p):
    return (1.0 - p.qpow(-4 * idx.m)) / p.lam


# --- ladder coefficients ----------------------------------------------------
#
# Raising in mt multiplies by the square-root factor at the post-shift polar
# point; the exact boundary zero at mt = 0 keeps mt <= 0 invariant.

def _c_Xplus(idx, p):
    if idx.mt == 0:
        return 0.0
    arg = 1.0 - p.qpow(4 * idx.mt)
    return -_rval(idx, p) * p.qpow(-1) * math.sqrt(arg / (1.0 + p.qpow(-2)))


def _c_Xminus(idx, p):
    arg = 1.0 - p.qpow(4 * idx.mt - 4)
    return _rval(idx, p) * p.q * math.sqrt(arg / (1.0 + p.qpow(2)))


def _c_tplus(idx, p):
    if idx.mt == 0:
        return 0.0
    return idx.sigma * p.qpow(-2 * idx.mt - 2) * math.sqrt(1.0 - p.qpow(4 * idx.mt)) / p.lam


def _c_tminus(idx, p):
    return idx.sigma * p.qpow(4 - 2 * idx.mt) * math.sqrt(1.0 - p.qpow(4 * idx.mt - 4)) / p.lam


def _c_Kplus(idx, p):
    arg = 1.0 - p.qpow(-4 * idx.mk - 4)
    return p.theta_phase * math.sqrt(arg) / (p.qpow(2) - 1.0)


def _c_Kminus(idx, p):
    if idx.mk == 0:
        return 0.0
    arg = 1.0 - p.qpow(-4 * idx.mk)
    return -p.qpow(2) * p.theta_phase.conjugate() * math.sqrt(arg) / (p.qpow(2) - 1.0)


def _c_Torbplus_ladder(idx, p):
    # 1/xi times the K+ factor; the signed 1/xi keeps the printed form.
    arg = 1.0 - p.qpow(-4 * idx.mk - 4)
    return (
        idx.sigma
        * p.qpow(1 - 2 * idx.mt)
        * p.theta_phase
        * math.sqrt(arg)
        / (p.qpow(2) - 1.0)
    )


def _c_Torbminus_ladder(idx, p):
    if idx.mk == 0:
        return 0.0
    arg = 1.0 - p.qpow(-4 * idx.mk)
    return (
        idx.sigma
        * p.qpow(1 - 2 * idx.mt)
        * p.theta_phase
        * p.qpow(2)
        * math.sqrt(arg)
        / (p.qpow(2) - 1.0)
    )


def _c_Lambda(idx, p):
    return p.qpow(-2)


def _c_Lambda_inv(idx, p):
    return p.qpow(2)


def _c_Lambda_xi(idx, p):
    return p.q


def _c_Lambda_xi_inv(idx, p):
    return p.qpow(-1)


def _c_one(idx, p):
    return 1.0


def _diag(name: str, coeff: CoeffFn) -> LatticeOperator:
    return LatticeOperator(name, (Branch(0, 0, 0, coeff),))


CATALOGUE: dict[str, LatticeOperator] = {
    op.name: op
    for op in (
        _diag("identity", _c_identity),
        _diag("r", _c_r),
        _diag("xi", _c_xi),
        _diag("xi_inv", _c_xi_inv),
        _diag("abs_xi_inv", _c_abs_xi_inv),
        _diag("xihat", _c_xihat),
        _diag("R2", _c_R2),
        _diag("X3", _c_X3),
        _diag("t3", _c_t3),
        _diag("K3", _c_K3),
        _diag("tau_k", _c_tau_k),
        _diag("tau_t", _c_tau_t),
        _diag("tau_orb", _c_tau_orb),
        _diag("Torb3", _c_Torb3),
        LatticeOperator("Xplus", (Branch(0, +1, +1, _c_Xplus),)),
        LatticeOperator("Xminus", (Branch(0, -1, -1, _c_Xminus),)),
        LatticeOperator("tplus", (Branch(0, +1, +1, _c_tplus),)),
        LatticeOperator("tminus", (Branch(0, -1, -1, _c_tminus),)),
        LatticeOperator("Kplus", (Branch(0, 0, +1, _c_Kplus),)),
        LatticeOperator("Kminus", (Branch(0, 0, -1, _c_Kminus),)),
        LatticeOperator(
            "Torbplus",
            (Branch(0, +1, +1, _c_tplus), Branch(0, 0, +1, _c_Torbplus_ladder)),
        ),
        LatticeOperator(
            "Torbminus",
            (Branch(0, -1, -1, _c_tminus), Branch(0, 0, -1, _c_Torbminus_ladder)),
        ),
        LatticeOperator("Lambda", (Branch(+1, 0, 0, _c_Lambda),)),
        LatticeOperator("Lambda_inv", (Branch(-1, 0, 0, _c_Lambda_inv),)),
        LatticeOperator("Lambda_xi", (Branch(0, -1, 0, _c_Lambda_xi),)),
        LatticeOperator("Lambda_xi_inv", (Branch(0, +1, 0, _c_Lambda_xi_inv),)),
        LatticeOperator("exp_iphi", (Branch(0, 0, +1, _c_one),)),
        LatticeOperator("exp_minus_iphi", (Branch(0, 0, -1, _c_one),)),
    )
}


def resolve_name(name: str) -> str:
    """Canonical catalogue name for ``name`` (alias-aware); raises if unknown."""
    cname = ALIASES.get(name, name)
    if cname not in CATALOGUE:
        known = ", ".join(sorted(CATALOGUE))
        raise UnknownOperatorError(f"unknown operator {name!r}; catalogue: {known}")
    return cname


def catalogue_names() -> tuple[str, ...]:
    return tuple(sorted(CATALOGUE))


def get_operator(name: str) -> LatticeOperator:
    return CATALOGUE[resolve_name(name)]


def operator_action(
    name: str, idx: BasisIndex, p: DeformationParams
) -> list[tuple[BasisIndex, complex]]:
    """Exact action on one basis state: list of (target index, coefficient).

    Targets violating mt <= 0 or m >= mt are never emitted (their
    coefficients are exact zeros), and exact zero coefficients are pruned,
    so the list is empty at annihilation points (K- at m = mt, t+ at mt = 0).
    """
    idx = validate_index(idx)
    op = get_operator(name)
    out: list[tuple[BasisIndex, complex]] = []
    for br in op.branches:
        tgt = idx.shifted(br.dM, br.dmt, br.dm)
        if not tgt.is_valid():
            continue
        c = complex(br.coeff(idx, p))
        if c != 0.0:
            out.append((tgt, c))
    return out


def apply(name: str, state: LatticeState, p: DeformationParams) -> LatticeState:
    """Linear extension of :func:`operator_action` to a sparse state."""
    acc: dict[BasisIndex, complex] = {}
    for idx, amp in state.amplitudes.items():
        for tgt, c in operator_action(name, idx, p):
            acc[tgt] = acc.get(tgt, 0.0 + 0.0j) + amp * c
    return LatticeState(acc)


@dataclass
class OperatorMatrix:
    """Windowed matrix of a catalogue operator in canonical basis order.

    ``entries[j, i]`` is the coefficient of window index j in the action on
    window index i.  ``boundary_mask`` lists the column positions whose image
    carries nonzero amplitude to a valid index outside the window (that
    amplitude is simply absent from the matrix).
    """

    window: TruncationWindow
    entries: sp.csr_matrix
    boundary_mask: frozenset[int]

    def to_dense(self) -> np.ndarray:
        return self.entries.toarray()


def materialize(
    name: str,
    w: TruncationWindow,
    p: DeformationParams,
    capacity: int | None = None,
) -> OperatorMatrix:
    """Matrix of an operator over a window (columns = canonical order)."""
    order = build_window(w, capacity)
    pos = {idx: k for k, idx in enumerate(order)}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    mask: set[int] = set()
    op = get_operator(name)
    for col, idx in enumerate(order):
        for br in op.branches:
            tgt = idx.shifted(br.dM, br.dmt, br.dm)
            if not tgt.is_valid():
                continue
            c = complex(br.coeff(idx, p))
            if c == 0.0:
                continue
            if tgt in pos:
                rows.append(pos[tgt])
                cols.append(col)
                vals.append(c)
            else:
                mask.add(col)
    n = len(order)
    entries = sp.csr_matrix(
        (np.asarray(vals, dtype=np.complex128), (rows, cols)), shape=(n, n)
    )
    return OperatorMatrix(window=w, entries=entries, boundary_mask=frozenset(mask))


def adjoint_matrix(A: OperatorMatrix, p: DeformationParams) -> OperatorMatrix:
    """Jackson adjoint W^-1 A^H W of a windowed matrix (W = diagonal weights).

    The operation is involutive.  The basis comes from A's window without a
    second capacity check: A already passed the caller's.  The boundary mask
    is left empty (windowed entries of a single catalogue operator are exact).
    """
    wgt = np.array([jackson_weight(idx, p) for idx in A.window.iter_indices()])
    AH = A.entries.conjugate().transpose().tocsr()
    entries = sp.diags(1.0 / wgt) @ AH @ sp.diags(wgt)
    return OperatorMatrix(window=A.window, entries=entries.tocsr(), boundary_mask=frozenset())


def spectrum_diagonal(
    name: str, w: TruncationWindow, p: DeformationParams, capacity: int | None = None
) -> list[tuple[BasisIndex, float]]:
    """Eigenvalue list of a diagonal catalogue operator over a window.

    Raises :class:`NotDiagonalError` for operators with nonzero shifts.
    """
    op = get_operator(name)
    if not op.is_diagonal:
        raise NotDiagonalError(f"operator {name!r} is not diagonal; no eigenvalue list")
    out = []
    for idx in build_window(w, capacity):
        val = complex(op.branches[0].coeff(idx, p))
        out.append((idx, val.real if val.imag == 0.0 else val))
    return out


def save_matrix(path: str, A: OperatorMatrix, header: str = "") -> None:
    """Write nonzero entries as text lines ``row col re im`` (row-major order)."""
    coo = A.entries.tocoo()
    triples = sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    lines = []
    if header:
        for ln in header.splitlines():
            lines.append(f"# {ln}")
    lines.append("# row col re im")
    for r, c, v in triples:
        lines.append(f"{r} {c} {v.real!r} {v.imag!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
