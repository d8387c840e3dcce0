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
    Points,
    TruncationWindow,
    UnknownOperatorError,
    _times,
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
            c = np.asarray(self.coeff(Points(src, p)), dtype=np.float64)
            if c.ndim == 0:
                c = np.full(src.M.shape, c)
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


def _ladder(dm: int, phase: int, pre: Coeff | None = None) -> Branch:
    """The K+- ladder branch m -> m + dm with the phase theta (+1) or its
    conjugate (-1): sqrt(1 - q^(-4*mk - 2 - 2*dm)) / (q^2 - 1), times
    ``pre`` if given, formed in place (one temporary of the points' length)."""

    def coeff(s: Points) -> np.ndarray:
        c = np.sqrt(1.0 - s.q(-4 * s.mk - 2 - 2 * dm))
        if pre is not None:
            c *= pre(s)
        c /= s.p.qpow(2) - 1.0
        return c

    return Branch(0, 0, dm, coeff, phase)


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
        LatticeOperator("Kplus", (_ladder(+1, +1),)),
        LatticeOperator("Kminus", (_ladder(-1, -1, lambda s: -s.p.qpow(2)),)),
        # The orbital ladder branches are the signed 1/xi times the K+-
        # factors, and Torb- keeps theta unconjugated.
        LatticeOperator("Torbplus", (_tplus, _ladder(
            +1, +1, lambda s: s.sigma * s.q(1 - 2 * s.mt)
        ))),
        LatticeOperator("Torbminus", (_tminus, _ladder(
            -1, +1, lambda s: s.sigma * s.q(1 - 2 * s.mt) * s.p.qpow(2)
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
    only where some position drops out, before they are shifted.
    """
    for br in get_operator(name).branches:
        yield _image(br, src, p)


def _image(
    br: Branch, src: BasisIndex, p: DeformationParams
) -> tuple[np.ndarray, BasisIndex, np.ndarray]:
    """One branch's entry of :func:`images`."""
    valid = src.shifted(br.dM, br.dmt, br.dm).is_valid()
    whole = bool(valid.all())
    pos = np.arange(len(valid)) if whole else np.flatnonzero(valid)
    at = src if whole else _take(src, pos)
    c = br.values(at, p)
    keep = c != 0.0
    if not keep.all():
        pos, c, at = pos[keep], c[keep], _take(at, keep)
    return pos, at.shifted(br.dM, br.dmt, br.dm), c


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
    amps = np.concatenate([_times(state.values[pos], c) for pos, _, c in parts])
    del parts  # the branches' parts are all in tgt and amps now
    amps += 0.0  # turns a -0.0 part into +0.0, as a sum started at 0 would
    return LatticeState.from_arrays(tgt, amps)


def _pair_rows(a: "Diagonals", b: "Diagonals") -> tuple[np.ndarray, np.ndarray]:
    """The ascending offsets oa + ob over every pair of a diagonal of ``a``
    and one of ``b``, and one zero-started row of values per offset, all in
    one (d, n) array at the pair's dtype, into which a product of a and b
    adds its terms.  Every pair opens its diagonal, even where no term
    exists; :meth:`Diagonals.nonempty` drops the empty ones."""
    offsets = sorted({oa + ob for oa in a.offsets.tolist() for ob in b.offsets.tolist()})
    values = np.zeros((len(offsets), a.shape[0]), np.result_type(a.values, b.values))
    return np.array(offsets, dtype=np.int64), values


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

    @classmethod
    def nonempty(cls, offsets: np.ndarray, values: np.ndarray) -> "Diagonals":
        """The matrix of ascending ``offsets`` and their (d, n) ``values``,
        less empty diagonals; ``values`` is kept, not copied, if none is."""
        keep = values.any(axis=1)
        return cls(offsets, values) if keep.all() else cls(offsets[keep], values[keep])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.values.shape[1],) * 2

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the stored entries, row-major."""
        d, cols = np.nonzero(self.values)
        rows = cols + self.offsets[d]
        # A value stored where the row falls outside the matrix is no entry.
        keep = np.flatnonzero((rows >= 0) & (rows < self.shape[0]))
        keep = keep[np.lexsort((cols[keep], rows[keep]))]
        return rows[keep], cols[keep], self.values[d[keep], cols[keep]]

    def __matmul__(self, other: "Diagonals") -> "Diagonals":
        n = self.shape[0]
        offsets, out = _pair_rows(self, other)
        sums = dict(zip(offsets.tolist(), out))
        dtype = out.dtype
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
                    lo, hi = max(-ob, -o, 0), min(n, n - ob, n - o)
                    if lo < hi:
                        a_in, b_in, k = a[lo + ob : hi + ob], b[lo:hi], hi - lo
                        term = _times(a_in, b_in, buf[:k])
                        absent = np.equal(a_in, 0, out=in_a[:k])
                        absent |= np.equal(b_in, 0, out=in_b[:k])
                        np.copyto(term, 0, where=absent)
                        sums[o][lo:hi] += term
        return Diagonals.nonempty(offsets, out)

    def _combine(self, other: "Diagonals", op: np.ufunc) -> "Diagonals":
        """``op`` of the two matrices into one zero-started array, whose row
        stands in for the side that lacks an offset; complex only if a
        stored diagonal is."""
        mine = dict(zip(self.offsets.tolist(), self.values))
        theirs = dict(zip(other.offsets.tolist(), other.values))
        offsets = sorted(mine.keys() | theirs.keys())
        dtypes = [d.values.dtype for d in (self, other) if d.offsets.size]
        out = np.zeros((len(offsets), self.shape[0]), np.result_type(float, *dtypes))
        with np.errstate(over="ignore", invalid="ignore"):
            for o, row in zip(offsets, out):
                op(mine.get(o, row), theirs.get(o, row), out=row)
        return Diagonals.nonempty(np.array(offsets, dtype=np.int64), out)

    __add__ = partialmethod(_combine, op=np.add)
    __sub__ = partialmethod(_combine, op=np.subtract)

    def __rmul__(self, c: complex) -> "Diagonals":
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _times(c, self.values)
        vals[self.values == 0] = 0
        return Diagonals(self.offsets, vals)


@dataclass
class OperatorMatrix:
    """Windowed matrix of a catalogue operator in canonical basis order.

    Row j, column i of ``entries`` is the coefficient of window index j in
    the action on window index i.  ``boundary_columns`` holds, ascending,
    the columns that carry a nonzero amplitude to a valid index outside the
    window (absent from the matrix), and ``boundary_leakage`` the summed
    squared magnitudes each of them loses there, in the same order; a
    column whose square underflows to 0 is still on the boundary.
    ``total_leakage`` is the letter's whole loss, summed over every column
    of the window.

    Only the window's edge columns leak, and a diagonal letter leaks
    nowhere, so a letter stores its diagonals (8 bytes a state each, or 16
    if complex) and next to nothing per state beside them.
    """

    window: TruncationWindow
    entries: Diagonals
    boundary_columns: np.ndarray
    boundary_leakage: np.ndarray
    total_leakage: float


def materialize(
    name: str, w: TruncationWindow, p: DeformationParams, capacity: int | None = None
) -> OperatorMatrix:
    """Matrix of an operator over a window (columns = canonical order).

    Canonical positions are linear in (M, mt, m - mt) within a sign block, so
    an in-window target sits on its branch's diagonal, at a fixed offset.
    The squared magnitudes the branches lose are added per column over the
    whole window, summed with ``np.sum`` (whose pairwise order follows the
    positions) into the total, and kept only at the boundary columns.
    """
    n = check_capacity(w, capacity)
    op = get_operator(name)
    nk = w.k_max + 1
    diags: dict[int, np.ndarray] = {}
    lost = np.zeros(n, dtype=bool)
    leakage = np.zeros(n)
    for br in op.branches:
        pos, tgt, c = _image(br, w.index_arrays(), p)
        inside = w.contains(tgt)
        # Each array is dropped once read, so none is left bound while the
        # next branch is evaluated.
        del tgt
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
        del pos, c, inside
    boundary = np.flatnonzero(lost)
    # A total of finite squares may overflow to inf too, as silently.
    with np.errstate(over="ignore"):
        total = float(np.sum(leakage))
    return OperatorMatrix(w, Diagonals.of(diags, n), boundary, leakage[boundary], total)


def adjoint_matrix(A: OperatorMatrix, p: DeformationParams) -> OperatorMatrix:
    """Jackson adjoint W^-1 A^H W of a windowed matrix (W = diagonal weights).

    W holds the Jackson weights q^(4M) * q^(2*mt) of the window's states;
    A^H moves offset o to -o, each diagonal conjugated by one slice into one
    preallocated array.  The operation is involutive.  The basis comes from
    A's window without a second capacity check: A already passed the
    caller's.  No column is on the boundary and the leakage is zero
    (windowed entries of a single catalogue operator are exact).
    """
    ix = A.window.index_arrays()
    # A weight may overflow, underflow to 0 or meet inf * 0 (NaN); its inverse follows.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wgt = Points(ix, p).weight
        inv = 1.0 / wgt
    a, n = A.entries, len(wgt)
    # Column c of A's offset o is column c + o of A^H's offset -o; ascending
    # -o is descending o.
    flipped = np.zeros_like(a.values)
    for row, o, v in zip(flipped, a.offsets[::-1].tolist(), a.values[::-1]):
        lo = max(o, 0)
        hi = max(min(n, n + o), lo)
        # A real diagonal's conjugate is itself, copied once into place.
        np.conjugate(v[lo - o : hi - o], out=row[lo:hi])
    flip = Diagonals(-a.offsets[::-1], flipped)
    entries = Diagonals.of({0: inv}, n) @ flip @ Diagonals.of({0: wgt}, n)
    return OperatorMatrix(A.window, entries, np.zeros(0, dtype=np.int64), np.zeros(0), 0.0)


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


def save_matrix(path: str, A: OperatorMatrix) -> None:
    """Write nonzero entries as text lines ``row col re im`` (row-major order)."""
    rows, cols, vals = A.entries.triples()
    write_rows(path, ["# row col re im"], "%d %d %r %r", (rows, cols, vals.real, vals.imag))
