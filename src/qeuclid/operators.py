"""The lattice operator catalogue: shift rules, matrices, adjoints, spectra.

One branch table defines every operator.  An operator acts through one or
two *branches*; a branch is a shift triple (dM, dmt, dm), a numpy expression
for the real coefficient over the source points' label arrays (M, sigma, mt,
m) and their powers of q, and optionally the ladder phase, multiplied in
last.  The scalar action (:func:`operator_action`), the state action
(:func:`apply`), the windowed matrix (:func:`materialize`) and the
eigenvalues (:func:`spectrum_arrays`) all evaluate that one table on
arrays of points, so they cannot disagree.  A branch coefficient is only
evaluated on points whose target is a valid index.

Multiplication factors that depend on the polar point are evaluated at the
post-shift lattice point (that is what pointwise evaluation of the
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

from dataclasses import dataclass
from functools import partialmethod
from typing import Callable, Iterator

import numpy as np

from .core import (
    ALIASES,
    BasisIndex,
    DeformationParams,
    NotDiagonalError,
    TruncationWindow,
    UnknownOperatorError,
    qpow_array,
    stack_indices,
    unstack_indices,
    validate_index,
)
from .lattice import LatticeState, check_capacity, write_rows

__all__ = [
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
]


class Points:
    """Source points of a branch: index arrays, powers of q and coordinates.

    r = r0*q^(4M+2), xi = sigma*q^(2mt-1) and xihat = sigma*q^(2(mt-m)-1)
    are the lattice coordinates (see :func:`core.lattice_coordinates`).
    """

    def __init__(self, ix: BasisIndex, p: DeformationParams):
        self.M, self.sigma, self.mt, self.m = ix
        self.mk = ix.mk
        self.p = p

    def q(self, n: np.ndarray) -> np.ndarray:
        return qpow_array(self.p.q, n)

    @property
    def r(self) -> np.ndarray:
        return self.p.r0 * self.q(4 * self.M + 2)

    @property
    def xi(self) -> np.ndarray:
        return self.sigma * self.q(2 * self.mt - 1)

    @property
    def xihat(self) -> np.ndarray:
        return self.sigma * self.q(2 * (self.mt - self.m) - 1)


Coeff = Callable[[Points], "np.ndarray | float"]


@dataclass(frozen=True)
class Branch:
    """One shift triple with its coefficient expression over the source points.

    ``coeff`` multiplies the real factors in a fixed order.  ``phase`` is
    +1 for a branch carrying the ladder phase theta, -1 for one carrying its
    conjugate and 0 for none; the phase is multiplied in last.
    """

    dM: int
    dmt: int
    dm: int
    coeff: Coeff
    phase: int = 0

    @property
    def shift(self) -> tuple[int, int, int]:
        return (self.dM, self.dmt, self.dm)

    def values(self, src: BasisIndex, p: DeformationParams) -> np.ndarray:
        """Coefficients at the source points (Python-float semantics: an
        overflow reads inf, never a warning).

        They are float64 unless the branch carries a phase whose imaginary
        part is nonzero; then they are complex128.  At a real phase (+1 or
        -1) every catalogue coefficient is real.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            c = np.full(src.M.shape, self.coeff(Points(src, p)), dtype=np.float64)
            if self.phase:
                theta = p.theta_phase if self.phase > 0 else p.theta_phase.conjugate()
                c = c * (theta.real if theta.imag == 0.0 else theta)
                # Adding 0.0 turns a -0.0 part into +0.0.
                c += 0.0
        return c


@dataclass(frozen=True)
class LatticeOperator:
    """A named catalogue operator: one or two branches, block-diagonal in sigma."""

    name: str
    branches: tuple[Branch, ...]

    @property
    def is_diagonal(self) -> bool:
        return all(b.shift == (0, 0, 0) for b in self.branches)


def _diag(name: str, coeff: Coeff) -> LatticeOperator:
    return LatticeOperator(name, (Branch(0, 0, 0, coeff),))


# Raising in mt multiplies by the square-root factor at the post-shift polar
# point; the coefficient is never evaluated where the target leaves mt <= 0
# or m >= mt, which is where the analytic prefactors vanish.
_tplus = Branch(
    0, +1, +1,
    lambda s: s.sigma * s.q(-2 * s.mt - 2) * np.sqrt(1.0 - s.q(4 * s.mt)) / s.p.lam,
)
_tminus = Branch(
    0, -1, -1,
    lambda s: s.sigma * s.q(4 - 2 * s.mt) * np.sqrt(1.0 - s.q(4 * s.mt - 4)) / s.p.lam,
)

CATALOGUE: dict[str, LatticeOperator] = {
    op.name: op
    for op in (
        _diag("identity", lambda s: 1.0),
        _diag("r", lambda s: s.r),
        _diag("xi", lambda s: s.xi),
        _diag("xi_inv", lambda s: s.sigma * s.q(1 - 2 * s.mt)),
        _diag("abs_xi_inv", lambda s: s.q(1 - 2 * s.mt)),
        _diag("xihat", lambda s: s.xihat),
        _diag("R2", lambda s: s.p.r0 * s.p.r0 * s.q(8 * s.M + 4)),
        _diag("X3", lambda s: s.r * s.xi),
        _diag("t3", lambda s: (1.0 + np.square(s.q(1 - 2 * s.mt))) / s.p.lam),
        _diag("K3", lambda s: (1.0 + s.q(-4 * s.mk - 2)) / s.p.lam),
        _diag("tau_k", lambda s: -np.square(s.xihat)),
        _diag("tau_t", lambda s: -np.square(s.q(1 - 2 * s.mt))),
        _diag("tau_orb", lambda s: s.q(-4 * s.m)),
        _diag("Torb3", lambda s: (1.0 - s.q(-4 * s.m)) / s.p.lam),
        LatticeOperator("Xplus", (Branch(
            0, +1, +1,
            lambda s: -s.r * s.p.qpow(-1)
            * np.sqrt((1.0 - s.q(4 * s.mt)) / (1.0 + s.p.qpow(-2))),
        ),)),
        LatticeOperator("Xminus", (Branch(
            0, -1, -1,
            lambda s: s.r * s.p.q
            * np.sqrt((1.0 - s.q(4 * s.mt - 4)) / (1.0 + s.p.qpow(2))),
        ),)),
        LatticeOperator("tplus", (_tplus,)),
        LatticeOperator("tminus", (_tminus,)),
        LatticeOperator("Kplus", (Branch(
            0, 0, +1,
            lambda s: np.sqrt(1.0 - s.q(-4 * s.mk - 4)) / (s.p.qpow(2) - 1.0),
            +1,
        ),)),
        LatticeOperator("Kminus", (Branch(
            0, 0, -1,
            lambda s: -s.p.qpow(2) * np.sqrt(1.0 - s.q(-4 * s.mk)) / (s.p.qpow(2) - 1.0),
            -1,
        ),)),
        # The orbital ladder branches are 1/xi times the K+- factors; the
        # signed 1/xi keeps the printed form, and Torb- keeps theta
        # unconjugated.
        LatticeOperator("Torbplus", (_tplus, Branch(
            0, 0, +1,
            lambda s: s.sigma * s.q(1 - 2 * s.mt)
            * np.sqrt(1.0 - s.q(-4 * s.mk - 4)) / (s.p.qpow(2) - 1.0),
            +1,
        ))),
        LatticeOperator("Torbminus", (_tminus, Branch(
            0, 0, -1,
            lambda s: s.sigma * s.q(1 - 2 * s.mt) * s.p.qpow(2)
            * np.sqrt(1.0 - s.q(-4 * s.mk)) / (s.p.qpow(2) - 1.0),
            +1,
        ))),
        LatticeOperator("Lambda", (Branch(+1, 0, 0, lambda s: s.p.qpow(-2)),)),
        LatticeOperator("Lambda_inv", (Branch(-1, 0, 0, lambda s: s.p.qpow(2)),)),
        LatticeOperator("Lambda_xi", (Branch(0, -1, 0, lambda s: s.p.q),)),
        LatticeOperator("Lambda_xi_inv", (Branch(0, +1, 0, lambda s: s.p.qpow(-1)),)),
        LatticeOperator("exp_iphi", (Branch(0, 0, +1, lambda s: 1.0),)),
        LatticeOperator("exp_minus_iphi", (Branch(0, 0, -1, lambda s: 1.0),)),
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


def images(
    name: str, src: BasisIndex, p: DeformationParams
) -> Iterator[tuple[np.ndarray, BasisIndex, np.ndarray]]:
    """Action of an operator on arrays of basis indices, one entry per branch.

    Each entry holds the positions in ``src`` whose shifted target is a valid
    index with a nonzero coefficient, those targets, and the coefficients.
    Coefficients are evaluated on valid targets only.  Labels are gathered
    only where some position drops out; otherwise the arrays pass as they are.
    """
    for br in get_operator(name).branches:
        tgt = src.shifted(br.dM, br.dmt, br.dm)
        valid = tgt.is_valid()
        whole = bool(valid.all())
        pos = np.arange(len(valid)) if whole else np.flatnonzero(valid)
        c = br.values(src if whole else _take(src, pos), p)
        keep = c != 0.0
        if not keep.all():
            pos, c, whole = pos[keep], c[keep], False
        yield pos, tgt if whole else _take(tgt, pos), c


def _take(idx: BasisIndex, pos: np.ndarray) -> BasisIndex:
    return BasisIndex(*(a[pos] for a in idx))


def operator_action(
    name: str, idx: BasisIndex, p: DeformationParams
) -> list[tuple[BasisIndex, complex]]:
    """Exact action on one basis state: list of (target index, coefficient).

    Targets violating mt <= 0 or m >= mt are never emitted (their
    coefficients are exact zeros), and exact zero coefficients are pruned,
    so the list is empty at annihilation points (K- at m = mt, t+ at mt = 0).
    """
    src = stack_indices([validate_index(idx)])
    return [
        (next(unstack_indices(tgt)), complex(c[0]))
        for _, tgt, c in images(name, src, p)
        if len(c)
    ]


def apply(name: str, state: LatticeState, p: DeformationParams) -> LatticeState:
    """Linear extension of :func:`operator_action` to a sparse state.

    The whole support is evaluated at once; the LatticeState builder sums
    the amplitudes that two branches carry to one target, in branch order.
    """
    parts = list(images(name, state.index, p))
    tgt = BasisIndex(*map(np.concatenate, zip(*(t for _, t, _ in parts))))
    # Adding 0.0 turns a -0.0 part into +0.0, as a sum started at 0 would.
    amps = np.concatenate([state.values[pos] * c for pos, _, c in parts]) + 0.0
    return LatticeState.from_arrays(tgt, amps)


def _times(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a * b entrywise, into ``out`` if given.  A complex product is
    (ac - bd) + (ad + bc)i with every operation rounded on its own, as
    compressed sparse rows form it; numpy's complex loops may fuse them.  A
    real operand's imaginary part reads 0."""
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return np.multiply(a, b, out=out)
    term = np.empty(len(a), dtype=np.complex128) if out is None else out
    term.real = a.real * b.real - a.imag * b.imag
    term.imag = a.real * b.imag + a.imag * b.real
    return term


def _shift(v: np.ndarray, s: int) -> np.ndarray:
    """u[i] = v[i + s] where i + s indexes v, else 0."""
    u = np.zeros_like(v)
    lo = max(-s, 0)
    hi = max(min(len(v), len(v) - s), lo)
    u[lo:hi] = v[lo + s : hi + s]
    return u


@dataclass(frozen=True)
class Diagonals:
    """A square matrix stored as shifted diagonals (DIA storage; Saad,
    *Iterative Methods for Sparse Linear Systems*, 2nd ed., section 3.4).

    ``values[d, c]`` is the entry in column c and row c + ``offsets[d]``,
    the offsets ascending.  An exact 0 is an absent entry, as is every
    position whose row falls outside the matrix.  Entry by entry, the
    arithmetic is that of compressed sparse rows: a product sums the terms
    of present entries only, from 0 and in ascending inner index, and a
    scalar multiple keeps absent entries absent.  Overflow reads inf or
    NaN without a warning.

    A product keeps one zero-started sum per output offset and adds the
    terms of each pair of diagonals into the slice of columns where the
    inner index and the row exist (``sum[lo:hi] += term``), each term formed
    in a reused scratch buffer; it never makes a shifted copy of a
    diagonal, and never writes into an operand.

    ``values`` is float64 when every operand it was built from is real and
    complex128 otherwise: a catalogue letter at a real phase, and any sum,
    product or real multiple of such letters, stays float64; a complex
    operand or scalar makes the result complex128.
    """

    offsets: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, diags: dict[int, np.ndarray], n: int) -> "Diagonals":
        """The n x n matrix of offset -> column values, less empty diagonals:
        complex128 if any given column values are complex, else float64."""
        keep = sorted(o for o, v in diags.items() if np.any(v))
        dtype = complex if any(map(np.iscomplexobj, diags.values())) else float
        vals = np.array([diags[o] for o in keep], dtype=dtype)
        return cls(np.array(keep, dtype=np.int64), vals.reshape(len(keep), n))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.values.shape[1],) * 2

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the stored entries, row-major."""
        # Within a row, a higher offset is a lower column.
        (d, n), down = self.values.shape, self.offsets[::-1]
        present = np.zeros((n, d), dtype=bool)
        for j, (o, v) in enumerate(zip(down, self.values[::-1])):
            present[:, j] = _shift(v != 0, -o)
        rows, j = np.divmod(np.flatnonzero(present), d)
        cols = rows - down[j]
        return rows, cols, self.values.ravel()[(d - 1 - j) * n + cols]

    def __matmul__(self, other: "Diagonals") -> "Diagonals":
        n = self.shape[0]
        dtype = np.result_type(self.values, other.values)
        sums: dict[int, np.ndarray] = {}
        # Each term and its absent-entry masks live in length-n scratch
        # buffers, so no array of a varying length reaches the allocator,
        # whose heap would otherwise keep growing over many products.
        buf, in_a, in_b = np.empty(n, dtype), np.empty(n, bool), np.empty(n, bool)
        # The term of A's offset oa and B's ob in column c has inner index
        # c + ob, so ascending ob adds each entry's terms in that order.  It
        # exists where the inner index and the row c + oa + ob are in range;
        # elsewhere it would add an exact 0 to a sum that started at +0.0.
        with np.errstate(over="ignore", invalid="ignore"):
            for ob, b in zip(other.offsets.tolist(), other.values):
                for oa, a in zip(self.offsets.tolist(), self.values):
                    o = oa + ob
                    # Every pair opens its diagonal, so the dtype is the
                    # operands' even where no term exists; ``of`` drops it.
                    if o not in sums:
                        sums[o] = np.zeros(n, dtype)
                    lo, hi = max(-ob, -o, 0), min(n, n - ob, n - o)
                    if lo < hi:
                        a_in, b_in, k = a[lo + ob : hi + ob], b[lo:hi], hi - lo
                        term = _times(a_in, b_in, buf[:k])
                        absent = np.equal(a_in, 0, out=in_a[:k])
                        absent |= np.equal(b_in, 0, out=in_b[:k])
                        np.copyto(term, 0, where=absent)
                        sums[o][lo:hi] += term
        return Diagonals.of(sums, n)

    def _combine(self, other: "Diagonals", op: np.ufunc) -> "Diagonals":
        mine = dict(zip(self.offsets.tolist(), self.values))
        theirs = dict(zip(other.offsets.tolist(), other.values))
        with np.errstate(over="ignore", invalid="ignore"):
            sums = {o: op(mine.get(o, 0), theirs.get(o, 0)) for o in mine.keys() | theirs.keys()}
        return Diagonals.of(sums, self.shape[0])

    __add__ = partialmethod(_combine, op=np.add)
    __sub__ = partialmethod(_combine, op=np.subtract)

    def __rmul__(self, c: complex) -> "Diagonals":
        with np.errstate(over="ignore", invalid="ignore"):
            vals = self.values * c
        vals[self.values == 0] = 0
        return Diagonals(self.offsets, vals)


@dataclass
class OperatorMatrix:
    """Windowed matrix of a catalogue operator in canonical basis order.

    Row j, column i of ``entries`` is the coefficient of window index j in
    the action on window index i.  ``boundary[i]`` marks a column i that
    carries nonzero amplitude to a valid index outside the window (absent
    from the matrix); ``leakage[i]`` sums its squared magnitudes there.
    """

    window: TruncationWindow
    entries: Diagonals
    boundary: np.ndarray
    leakage: np.ndarray


def materialize(
    name: str, w: TruncationWindow, p: DeformationParams, capacity: int | None = None
) -> OperatorMatrix:
    """Matrix of an operator over a window (columns = canonical order).

    Canonical positions are linear in (M, mt, m - mt) within a sign block, so
    an in-window target sits on its branch's diagonal, at a fixed offset.
    """
    n = check_capacity(w, capacity)
    op = get_operator(name)
    nk = w.k_max + 1
    diags: dict[int, np.ndarray] = {}
    lost = np.zeros(n, dtype=bool)
    leakage = np.zeros(n)
    for br, (pos, tgt, c) in zip(op.branches, images(name, w.index_arrays(), p)):
        inside = w.contains(tgt)
        offset = (br.dM * (1 - w.mt_min) + br.dmt) * nk + br.dm - br.dmt
        d = np.zeros(n, dtype=c.dtype)
        d[pos[inside]] = c[inside]
        # Two branches may share an offset (Torb+- when k_max = 0), but never
        # an in-window target; a real and a complex branch sum to complex.
        diags[offset] = diags[offset] + d if offset in diags else d
        out, c = pos[~inside], c[~inside]
        lost[out] = True
        # Like a Python float product, the square overflows to inf silently.
        with np.errstate(over="ignore"):
            leakage[out] += c.real * c.real + c.imag * c.imag
    return OperatorMatrix(w, Diagonals.of(diags, n), lost, leakage)


def adjoint_matrix(A: OperatorMatrix, p: DeformationParams) -> OperatorMatrix:
    """Jackson adjoint W^-1 A^H W of a windowed matrix (W = diagonal weights).

    W holds the Jackson weights q^(4M) * q^(2*mt) of the window's states;
    A^H moves offset o to -o.  The operation is involutive.  The basis comes
    from A's window without a second capacity check: A already passed the
    caller's.  No column is on the boundary and the leakage is zero
    (windowed entries of a single catalogue operator are exact).
    """
    ix = A.window.index_arrays()
    # A weight may overflow, underflow to 0 or meet inf * 0 (NaN); its inverse follows.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wgt = qpow_array(p.q, 4 * ix.M) * qpow_array(p.q, 2 * ix.mt)
        inv = 1.0 / wgt
    a, n = A.entries, len(wgt)
    flipped = {-o: _shift(np.conj(v), -o) for o, v in zip(a.offsets.tolist(), a.values)}
    entries = Diagonals.of({0: inv}, n) @ Diagonals.of(flipped, n) @ Diagonals.of({0: wgt}, n)
    return OperatorMatrix(A.window, entries, np.zeros(n, dtype=bool), np.zeros(n))


def spectrum_arrays(
    name: str, w: TruncationWindow, p: DeformationParams, capacity: int | None = None
) -> tuple[BasisIndex, np.ndarray]:
    """A diagonal catalogue operator's eigenvalues over a window, as the
    window's index arrays (canonical order) and one value array.  No
    diagonal operator carries the ladder phase, so the values are float64.

    Raises :class:`NotDiagonalError` for operators with nonzero shifts.
    """
    op = get_operator(name)
    if not op.is_diagonal:
        raise NotDiagonalError(f"operator {name!r} is not diagonal; no eigenvalue list")
    check_capacity(w, capacity)
    ix = w.index_arrays()
    return ix, op.branches[0].values(ix, p)


def spectrum_diagonal(
    name: str, w: TruncationWindow, p: DeformationParams, capacity: int | None = None
) -> list[tuple[BasisIndex, float]]:
    """Eigenvalue list of a diagonal catalogue operator over a window: a
    float where the value is real, else a complex (see :func:`spectrum_arrays`)."""
    ix, vals = spectrum_arrays(name, w, p, capacity)
    return [
        (idx, v.real if v.imag == 0.0 else v)
        for idx, v in zip(unstack_indices(ix), vals.tolist())
    ]


def save_matrix(path: str, A: OperatorMatrix, header: str = "") -> None:
    """Write nonzero entries as text lines ``row col re im`` (row-major order)."""
    lines = [f"# {ln}" for ln in header.splitlines()] + ["# row col re im"]
    rows, cols, vals = A.entries.triples()
    write_rows(path, lines, "%d %d %r %r", (rows, cols, vals.real, vals.imag))
