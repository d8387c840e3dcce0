"""Deformation parameters, lattice indexing, and closed-form eigenvalues.

Everything downstream (operator rules, inner products, verification suites)
consumes the small set of exact power formulas defined here.  Powers of the
deformation parameter are computed by integer exponentiation-by-squaring of
q and 1/q so that lattice data is bit-reproducible and never routed through
exp/log.

The configuration space is a geometric lattice: radial points r0*q^(4M+2)
indexed by M in Z, polar points xi = sigma*q^(2*mt-1) indexed by a sign
sigma and mt <= 0, and Fourier modes m >= mt on the circle.  A basis state
of the Hilbert space is one such triple per sign sector, and the inner
product carries the Jackson weight q^(4M) * q^(2*mt).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
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
]


class QeuclidError(Exception):
    """Base class for library errors."""


class CapacityError(QeuclidError):
    """A truncation window exceeds the configured state cap."""


class UnknownOperatorError(QeuclidError):
    """An operator name is not in the catalogue."""


class NotDiagonalError(QeuclidError):
    """A spectrum was requested for a non-diagonal operator."""


class DomainError(QeuclidError):
    """A smooth-side evaluation left the valid xi-interval.

    ``factor`` names the multiplicative factor (or argument scaling) whose
    domain restriction was violated.
    """

    def __init__(self, message: str, factor: str = "input domain"):
        super().__init__(message)
        self.factor = factor


class RangeError(QeuclidError):
    """An input drives a power of q outside the double range."""


#: Default cap on truncation-window sizes; guards accidental huge windows.
DEFAULT_WINDOW_CAPACITY = 200_000

#: Largest accepted |M|, |mt| and |m|: the array paths compute power
#: exponents up to 8*|M| + 4 in int64.
LABEL_LIMIT = 2**59

#: Accepted spellings of operator names, shared by the lattice catalogue and
#: the smooth deformed rules.
ALIASES: dict[str, str] = {
    "X+": "Xplus",
    "X-": "Xminus",
    "t+": "tplus",
    "t-": "tminus",
    "K+": "Kplus",
    "K-": "Kminus",
    "Torb+": "Torbplus",
    "Torb-": "Torbminus",
}


def qpow(q: float, n: int) -> float:
    """Return q**n for integer n by exponentiation-by-squaring.

    Negative exponents square 1/q rather than dividing at the end, so the
    result is a deterministic product of representable factors.
    """
    base = q if n >= 0 else 1.0 / q
    e = abs(n)
    out = 1.0
    while e:
        if e & 1:
            out *= base
        base *= base
        e >>= 1
    return out


def qpow_array(q: float, n) -> np.ndarray:
    """Elementwise q**n for an integer array n, read from a :func:`qpow` table.

    The table holds :func:`qpow` values, so every entry is bit-identical to
    the scalar power.  It spans n.min()..n.max() and is indexed directly;
    only exponents spread far wider than n has entries (labels may reach
    2^59) get one value per distinct exponent, found by sorting.  A short
    array (at most 64 entries, fewer than its span) is not tabled at all:
    each entry gets its own :func:`qpow`.
    """
    n = np.asarray(n)
    if n.size == 0:
        return np.zeros(n.shape)
    lo, hi = int(n.min()), int(n.max())
    if n.size <= min(hi - lo, 64):
        return np.array([qpow(q, k) for k in n.ravel().tolist()]).reshape(n.shape)
    if hi - lo <= max(n.size // 16, 64):
        table = np.array([qpow(q, k) for k in range(lo, hi + 1)], dtype=np.float64)
        return table[n.ravel() - lo].reshape(n.shape)
    exps, inv = np.unique(n, return_inverse=True)
    table = np.array([qpow(q, k) for k in exps.tolist()], dtype=np.float64)
    return table[inv].reshape(n.shape)


@dataclass(frozen=True)
class DeformationParams:
    """Deformation parameter q > 1 with the radial scale and ladder phase.

    Parameters
    ----------
    q : float
        Deformation parameter, real and > 1.  q = 1 is the degenerate
        classical point and is rejected; classical behaviour is reached
        through the q -> 1 limit studies instead.
    r0 : float
        Radial lattice scale, > 0.
    theta_phase : complex
        Unit phase carried by the ladder operators K+- (and the mixed
        branches of Torb+-).  The orbital q -> 1 limit exists only for -1,
        which is the default.
    """

    q: float
    r0: float = 1.0
    theta_phase: complex = -1.0 + 0.0j

    def __post_init__(self) -> None:
        if not (isinstance(self.q, (int, float)) and math.isfinite(self.q)):
            raise ValueError("q must be a finite real number")
        if self.q <= 1.0:
            raise ValueError(f"q must be > 1 (got {self.q}); q = 1 is degenerate")
        if not (self.r0 > 0.0 and math.isfinite(self.r0)):
            raise ValueError(f"r0 must be positive and finite (got {self.r0})")
        theta = complex(self.theta_phase)
        mod = abs(theta)
        if not math.isfinite(mod) or abs(mod - 1.0) > 1e-9:
            raise ValueError(f"theta_phase must be a unit complex number (got {theta})")
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "r0", float(self.r0))
        object.__setattr__(self, "theta_phase", theta / mod)

    @property
    def lam(self) -> float:
        """The deformation scale lambda = q - 1/q (recomputed, never stored)."""
        return self.q - 1.0 / self.q

    def qpow(self, n):
        """Exact integer power of q (see :func:`qpow`); an int array n gives
        the array of powers, read from a :func:`qpow_array` table."""
        if isinstance(n, np.ndarray):
            return qpow_array(self.q, n)
        return qpow(self.q, n)


class BasisIndex(NamedTuple):
    """Label of one lattice basis state: (M, sigma, mt, m).

    M indexes the radial point r0*q^(4M+2); sigma in {+1, -1} picks the sign
    sector of the polar coordinate; mt <= 0 indexes xi = sigma*q^(2*mt-1);
    m >= mt is the Fourier mode on the circle.

    The fields may also be equal-length int arrays holding many states (see
    :func:`stack_indices`); ``mk``, ``is_valid``, ``shifted`` and
    :meth:`TruncationWindow.contains` then act elementwise.
    """

    M: int
    sigma: int
    mt: int
    m: int

    @property
    def mk(self) -> int:
        """Ladder depth m - mt >= 0 above the lowest mode."""
        return self.m - self.mt

    def is_valid(self) -> bool:
        return ((self.sigma == 1) | (self.sigma == -1)) & (self.mt <= 0) & (self.m >= self.mt)

    def shifted(self, dM: int, dmt: int, dm: int) -> "BasisIndex":
        """Index displaced by a shift triple; may be invalid (checked by caller)."""
        return BasisIndex(self.M + dM, self.sigma, self.mt + dmt, self.m + dm)


def stack_indices(indices: Iterable[BasisIndex]) -> BasisIndex:
    """Basis indices as one BasisIndex of equal-length int64 arrays."""
    try:
        table = np.fromiter(itertools.chain.from_iterable(indices), dtype=np.int64)
    except OverflowError:
        raise ValueError("a basis index has a label beyond 2^59 in magnitude") from None
    return BasisIndex(*np.ascontiguousarray(table.reshape(-1, 4).T))


def unstack_indices(ix: BasisIndex) -> Iterator[BasisIndex]:
    """The inverse of :func:`stack_indices`: one BasisIndex of ints per state."""
    return map(BasisIndex._make, zip(*(a.tolist() for a in ix)))


def validate_index(idx: BasisIndex) -> BasisIndex:
    """Return idx unchanged, raising ValueError if it violates the constraints."""
    if not isinstance(idx, BasisIndex):
        idx = BasisIndex(*idx)
    if not idx.is_valid():
        raise ValueError(
            f"invalid basis index {tuple(idx)}: need sigma in {{+1,-1}}, mt <= 0, m >= mt"
        )
    if max(abs(idx.M), -idx.mt, abs(idx.m)) > LABEL_LIMIT:
        raise ValueError(f"basis index {tuple(idx)} has a label beyond 2^59 in magnitude")
    return idx


def invalid_indices(ix: BasisIndex) -> np.ndarray:
    """Positions of the entries of an array BasisIndex that
    :func:`validate_index` rejects."""
    lim = LABEL_LIMIT
    ok = (
        ix.is_valid()
        & (-lim <= ix.M) & (ix.M <= lim)
        & (-lim <= ix.mt)
        & (-lim <= ix.m) & (ix.m <= lim)
    )
    return np.flatnonzero(~ok)


def canonical_key(idx: BasisIndex):
    """Sort key of the canonical basis order: sigma=+1 block first, then M, mt, m."""
    return (0 if idx.sigma > 0 else 1, idx.M, idx.mt, idx.m)


@dataclass(frozen=True)
class TruncationWindow:
    """Finite index box: M in [M_min, M_max], mt in [mt_min, 0], m in [mt, mt+k_max].

    Both sign sectors are always included, so the window holds
    2 * (M_max - M_min + 1) * (-mt_min + 1) * (k_max + 1) states.
    """

    M_min: int
    M_max: int
    mt_min: int
    k_max: int

    def __post_init__(self) -> None:
        if self.M_min > self.M_max:
            raise ValueError(f"M_min {self.M_min} exceeds M_max {self.M_max}")
        if self.mt_min > 0:
            raise ValueError(f"mt_min must be <= 0 (got {self.mt_min})")
        if self.k_max < 0:
            raise ValueError(f"k_max must be >= 0 (got {self.k_max})")
        if max(abs(self.M_min), abs(self.M_max), -self.mt_min, self.k_max) > LABEL_LIMIT:
            raise ValueError("window labels must stay within 2^59 in magnitude")

    @property
    def size(self) -> int:
        return 2 * (self.M_max - self.M_min + 1) * (-self.mt_min + 1) * (self.k_max + 1)

    def contains(self, idx: BasisIndex) -> bool:
        """Whether idx is a valid index inside the box (elementwise on arrays)."""
        return (
            idx.is_valid()
            & (self.M_min <= idx.M)
            & (idx.M <= self.M_max)
            & (self.mt_min <= idx.mt)
            & (idx.mk <= self.k_max)
        )

    def index_arrays(self) -> BasisIndex:
        """The window's indices as arrays in canonical order (sigma=+1 block
        first, then M, mt, m).

        They are built on the first call and shared by every later one, so
        they are read-only.
        """
        return self._index_arrays

    @functools.cached_property
    def _index_arrays(self) -> BasisIndex:
        sigma, M, mt, mk = np.meshgrid(
            np.array([1, -1]),
            np.arange(self.M_min, self.M_max + 1),
            np.arange(self.mt_min, 1),
            np.arange(self.k_max + 1),
            indexing="ij",
        )
        ix = BasisIndex(M.ravel(), sigma.ravel(), mt.ravel(), (mt + mk).ravel())
        for a in ix:
            a.flags.writeable = False
        return ix

    def iter_indices(self) -> Iterator[BasisIndex]:
        """Yield the window's indices in canonical order."""
        return unstack_indices(self.index_arrays())


def lattice_coordinates(idx: BasisIndex, p: DeformationParams) -> tuple[float, float, float]:
    """Coordinate values (r, xi, xihat) carried by a basis state.

    r = r0 * q^(4M+2) is the radial point, xi = sigma * q^(2*mt-1) the polar
    point, and xihat = sigma * q^(2*(mt-m)-1) the eigenvalue of the
    mode-twisted polar coordinate xi * q^(2i d/dphi).
    """
    idx = validate_index(idx)
    r = p.r0 * p.qpow(4 * idx.M + 2)
    xi = idx.sigma * p.qpow(2 * idx.mt - 1)
    xihat = idx.sigma * p.qpow(2 * (idx.mt - idx.m) - 1)
    return (r, xi, xihat)


def jackson_weight(idx: BasisIndex, p: DeformationParams) -> float:
    """Jackson summation weight q^(4M) * q^(2*mt) of a basis state.

    The weight is independent of the Fourier mode m and of sigma; it is what
    makes the geometric sums behave like the measures r^3 dr/r and dxi.
    """
    idx = validate_index(idx)
    return p.qpow(4 * idx.M) * p.qpow(2 * idx.mt)


def t3_eigenvalue(mt: int, p: DeformationParams) -> float:
    """Eigenvalue (1/lambda) * (1 + q^2 * q^(-4*mt)) of t3 at polar level mt <= 0."""
    if mt > 0:
        raise ValueError(f"mt must be <= 0 (got {mt})")
    return (1.0 + p.qpow(2 - 4 * mt)) / p.lam


def tauk_eigenvalue(mk: int, p: DeformationParams) -> float:
    """Eigenvalue -q^(-4*mk-2) of the ladder grading tau_k at depth mk = m - mt >= 0."""
    if mk < 0:
        raise ValueError(f"mk must be >= 0 (got {mk})")
    return -p.qpow(-4 * mk - 2)


def torb3_eigenvalue(m: int, p: DeformationParams) -> float:
    """Eigenvalue (1/lambda) * (1 - q^(-4*m)) of Torb3 at Fourier mode m.

    Expanding q = e^h around h = 0 gives 2*m + O(h), the classical azimuthal
    angular momentum -2i d/dphi of the doubled mode.
    """
    return (1.0 - p.qpow(-4 * m)) / p.lam
