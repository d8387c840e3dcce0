"""Operators on smooth test functions and the classical-limit harness.

A :class:`SmoothFunction` is a finite Fourier sum

    f(r, xi, phi) = sum_m c_m(r, xi) * e^{i m phi}

with evaluable mode functions c_m defined for r > 0 and xi in (0, 1) (the
polar coordinate xi = cos(theta)).  The deformed operators act on it by
argument scalings (Lambda_xi g)(xi) = q*g(q^2 xi), Fourier-mode shifts
e^{+-i phi}: m -> m +- 1, per-mode scalings q^{-4m}, and multiplication
by coefficient functions.  Functions of the mode-twisted coordinate
xihat = xi * q^{2i d/dphi} standing left of a mode shift are evaluated at
the post-shift mode.

Both families are data: ``DEFORMED_RULES`` and ``CLASSICAL_RULES`` map each
name to a tuple of :class:`SmoothBranch` entries, read by one applier.

A function is arrays over its modes.  It evaluates all of them in one call,
with a leading mode axis: the probe by one Horner pass, a rule image by one
array pass per branch, summed in table order.  It records the xi-intervals
on which it is evaluable (square-root factors must stay nonnegative, scaled
arguments inside (0, 1)) as a table of constraints over its modes, which
one predicate checks whole.  Evaluating outside raises :class:`DomainError`
naming the offending factor; square roots never go complex.  ``f.modes[m]``
is a per-mode view, built on first use, whose call reads one row of the
stacked pass.

The classical rules (q = 1 counterparts) consume the analytic xi-derivative
supplied with each mode function; :func:`limit_convergence` drives the
q = e^h -> 1 comparison between the two families and fits the log-log decay
slope of the maximum grid error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    ALIASES, DeformationParams, DomainError, QeuclidError, RangeError, UnknownOperatorError,
)

__all__ = [
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
]

Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class XiConstraint:
    """One admissible xi-interval (open when strict) and the factor imposing it."""

    lo: float
    hi: float
    source: str
    strict: bool = False


_BASE = XiConstraint(0.0, 1.0, "xi inside (0, 1)", strict=True)


def _outside(a, b, lo, hi, strict):
    """Whether samples whose extremes are a and b leave [lo, hi] (open where
    strict), elementwise over arrays; a NaN sample or bound leaves none."""
    return (a < lo) | (b > hi) | (strict & ((a == lo) | (b == hi)))


def _sqrt_nonneg(arg: np.ndarray) -> np.ndarray:
    """Principal square root; the clamp at 0 absorbs rounding fuzz at an
    allowed endpoint (the domain check rejects negative arguments)."""
    return np.sqrt(np.maximum(arg, 0.0))


class ModeFunction:
    """One Fourier mode: value c(r, xi), optional d/dxi, and its xi-domain."""

    __slots__ = ("value", "dxi", "constraints")

    def __init__(self, value: Evaluator, dxi: Evaluator | None = None,
                 constraints: Iterable[XiConstraint] = (_BASE,)):
        self.value, self.dxi = value, dxi
        self.constraints = tuple(dict.fromkeys(constraints))

    @property
    def xi_domain(self) -> tuple[float, float]:
        """Intersection (lo, hi) of all recorded constraints."""
        return (max(c.lo for c in self.constraints), min(c.hi for c in self.constraints))

    def check_domain(self, xi) -> None:
        """Raise for the first recorded constraint that xi violates."""
        # The table check of a function with this one mode.
        hit = SmoothFunction({0: self})._violation(np.asarray(xi, dtype=float))
        if hit is not None:
            raise hit[1]

    def _eval(self, fn: Evaluator, r, xi) -> np.ndarray:
        self.check_domain(xi)
        return np.asarray(fn(np.asarray(r, dtype=float), np.asarray(xi, dtype=float)))

    def __call__(self, r, xi) -> np.ndarray:
        return self._eval(self.value, r, xi)

    def derivative(self, r, xi) -> np.ndarray:
        if self.dxi is None:
            raise QeuclidError(
                "mode function supplies no xi-derivative; classical operators "
                "and Z_xi need analytic derivatives"
            )
        return self._eval(self.dxi, r, xi)


class SmoothFunction:
    """Finite Fourier sum over integer modes with :class:`ModeFunction` coefficients.

    ``_stack(r, x, d)`` evaluates every mode at the float arrays (r, x) in
    one call: values (d False) or xi-derivatives (d True), stacked along a
    leading axis in :meth:`mode_indices` order.  Built from mode functions,
    it stacks their values, broadcast to one shape and promoted to one
    dtype; a mode without a derivative has a NaN row.

    The constraints are a table: ``_lo`` and ``_hi`` of shape (C, K) hold
    constraint c's bounds at mode column k (NaN where that mode has none),
    ``_strict`` one flag and ``_sources`` the parts of the source per
    constraint.  A part is a string or a per-mode sequence read at column k
    (:meth:`_constraint`).  One table check (:meth:`_violation`) finds the
    lowest mode that a sample leaves.  Rule images and the probe build
    ``modes`` on first use.
    """

    __slots__ = ("_ms", "_lo", "_hi", "_strict", "_sources", "_dxi", "_modes", "_domain")

    def __init__(self, modes: Mapping[int, ModeFunction]):
        given = {int(m): mf for m, mf in modes.items()}
        ms = sorted(given)
        # One row per mode and constraint: a block diagonal over the modes.
        cells = [(k, c) for k, m in enumerate(ms) for c in given[m].constraints]
        lo, hi = np.full((2, len(cells), len(ms)), np.nan)
        for row, (k, c) in enumerate(cells):
            lo[row, k], hi[row, k] = c.lo, c.hi
        self._table(
            ms, lo, hi, [c.strict for _, c in cells], [(c.source,) for _, c in cells],
            [given[m].dxi is not None for m in ms], given,
        )

    def _table(self, ms, lo, hi, strict, sources, dxi, modes=None) -> None:
        """Set the modes, the constraint table and its intersection ``_domain``."""
        self._ms, self._lo, self._hi = ms, lo, hi
        self._strict = np.asarray(strict, dtype=bool)
        self._sources, self._dxi, self._modes = tuple(sources), dxi, modes
        self._domain = (float(np.fmax.reduce(lo, axis=None, initial=-math.inf)),
                        float(np.fmin.reduce(hi, axis=None, initial=math.inf)))

    @property
    def modes(self) -> dict[int, ModeFunction]:
        """Each mode's :class:`ModeFunction`: value, d/dxi and constraints."""
        if self._modes is None:
            self._modes = {m: self._view(k) for k, m in enumerate(self._ms)}
        return self._modes

    def _view(self, k: int) -> ModeFunction:
        """Mode column k as a ModeFunction reading row k of the stacked pass."""
        cons = [self._constraint(c, k) for c in np.flatnonzero(~np.isnan(self._lo[:, k]))]
        dxi = partial(self._row, k, True) if self._dxi[k] else None
        return ModeFunction(partial(self._row, k, False), dxi, cons)

    def _constraint(self, c: int, k: int) -> XiConstraint:
        """Constraint row c at mode column k."""
        text = "".join(p if isinstance(p, str) else str(p[k]) for p in self._sources[c])
        lo, hi = float(self._lo[c, k]), float(self._hi[c, k])
        return XiConstraint(lo, hi, text, bool(self._strict[c]))

    def _row(self, k: int, d: bool, r, x) -> np.ndarray:
        return self._stack(np.asarray(r, dtype=float), np.asarray(x, dtype=float), d)[k]

    def mode_indices(self) -> list[int]:
        return list(self._ms)

    def __getitem__(self, m: int) -> ModeFunction:
        return self.modes[m]

    def __contains__(self, m: int) -> bool:
        return m in self._ms

    def _violation(self, xi: np.ndarray) -> tuple[int, DomainError] | None:
        """The lowest mode with a constraint that xi leaves, if any, and the
        error naming that mode's first such constraint and the first such xi.
        A NaN xi leaves none."""
        a = float(np.fmin.reduce(xi, axis=None, initial=math.inf))
        b = float(np.fmax.reduce(xi, axis=None, initial=-math.inf))
        if self._domain[0] < a and b < self._domain[1]:
            return None
        bad = _outside(a, b, self._lo, self._hi, self._strict[:, None])
        hit = np.flatnonzero(bad.any(axis=0))
        if not len(hit):
            return None
        k = int(hit[0])
        c = self._constraint(int(np.flatnonzero(bad[:, k])[0]), k)
        offender = float(xi[_outside(xi, xi, c.lo, c.hi, c.strict)].flat[0])
        return self._ms[k], DomainError(
            f"xi = {offender!r} is outside [{c.lo!r}, {c.hi!r}] required by factor {c.source}",
            factor=c.source,
        )

    def _stack(self, r: np.ndarray, x: np.ndarray, d: bool) -> np.ndarray:
        shape = np.broadcast_shapes(r.shape, x.shape)
        rows = []
        for m in self._ms:
            fn = self.modes[m].dxi if d else self.modes[m].value
            rows.append(np.full(shape, np.nan) if fn is None else np.asarray(fn(r, x)))
        if not rows:
            return np.zeros((0,) + shape)
        return np.stack(np.broadcast_arrays(r, x, *rows)[2:])


def _mode_axis(a: np.ndarray, r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A per-mode array (leading axis) shaped to broadcast against (r, x)."""
    return a.reshape(a.shape + (1,) * max(r.ndim, x.ndim))


# --- the rule tables ---------------------------------------------------------

class SmoothPoint:
    """One branch evaluated at the points (r, x) for every source mode at once.

    ``m`` holds the source modes as an int array of shape (K, 1, ...).
    ``v`` and ``dv`` are their values and xi-derivatives at the scaled
    argument s*x, along the same leading axis (``dv`` carries the factor s;
    None in a value pass that does not read it).  ``root`` is the factor
    sqrt(1 - q^n x^2), ``sin`` the classical sqrt(1 - x^2), each None where
    unused; ``p`` is None for classical rules.
    """

    __slots__ = ("r", "x", "m", "p", "v", "dv", "root", "sin")

    def __init__(self, r, x, m, p, v, dv, root, sin):
        self.r, self.x, self.m, self.p = r, x, m, p
        self.v, self.dv, self.root, self.sin = v, dv, root, sin


Expr = Callable[[SmoothPoint], np.ndarray]


@dataclass(frozen=True)
class SmoothBranch:
    """One target mode shift of a smooth rule, as data.

    The source mode is read at q^arg * xi; a nonzero ``arg`` rescales the
    source constraints and re-imposes xi inside (0, 1).  ``root(m)`` gives
    the exponent n of the factor sqrt(1 - q^n xi^2) held in
    ``SmoothPoint.root`` (m may be an int array), and records its constraint
    xi <= q^(-n/2).  ``value`` and ``dxi`` are expressions over one
    :class:`SmoothPoint`; the output has a derivative when ``dxi`` is given
    and the source mode has one.  A rule whose value reads ``dv`` sets
    ``needs_dv`` to the error raised for a source mode without a derivative.
    """

    dm: int
    value: Expr
    dxi: Expr | None = None
    arg: int = 0
    root: Callable[[int], int] | None = None
    needs_dv: str | None = None


class _Image(SmoothFunction):
    """A rule applied to a function: each branch is one pass over all modes.

    Each branch adds constraint rows: the source's (divided by the argument
    scale, then xi inside (0, 1), if it scales the argument) and its
    square-root bound.  Evaluation sums the branches' passes in table order.
    """

    __slots__ = ("_passes", "_src", "_p", "_m")

    def __init__(self, branches: tuple[SmoothBranch, ...], src: SmoothFunction,
                 p: DeformationParams | None):
        for br in branches:
            if br.needs_dv and not all(src._dxi):
                raise QeuclidError(br.needs_dv)
        self._src, self._p = src, p
        self._m = np.array(src._ms, dtype=np.int64)
        one = np.ones((1, len(src._ms)))
        zero = 0.0 * one
        # Per branch: the argument scale and the square root's q^n per mode, if any.
        self._passes: list[tuple[SmoothBranch, float | None, np.ndarray | None]] = []
        # Blocks of constraint rows: (lo, hi, strict, sources).
        rows: list[tuple] = []
        for br in branches:
            scale = None
            if br.arg:
                scale = p.qpow(br.arg)
                if not 0.0 < scale < math.inf:
                    raise RangeError(
                        f"q^{br.arg} = {scale!r} leaves the double range at q = {p.q!r}"
                    )
                tail = f" at argument q^{br.arg}*xi"
                rows.append((src._lo / scale, src._hi / scale, src._strict,
                             [parts + (tail,) for parts in src._sources]))
                rows.append((zero, one, [True], [(_BASE.source,)]))
            else:
                rows.append((src._lo, src._hi, src._strict, src._sources))
            root_scale = None
            if br.root is not None:
                n = np.full(self._m.shape, br.root(self._m))
                root_scale = p.qpow(n)
                # xi <= q^(-n/2); a q^n that underflows to 0 bounds nothing.
                bound = [math.inf if x <= 0.0 else 1.0 / math.sqrt(x) for x in root_scale.tolist()]
                rows.append((zero, bound * one, [False], [("sqrt(1 - q^", n.tolist(), "*xi^2)")]))
            self._passes.append((br, scale, root_scale))
        lo, hi, strict, sources = zip(*rows)
        has_dxi = all(br.dxi is not None for br in branches)
        self._table(
            [m + branches[0].dm for m in src._ms], np.concatenate(lo), np.concatenate(hi),
            np.concatenate(strict), [s for block in sources for s in block],
            [has_dxi and d for d in src._dxi],
        )

    def _stack(self, r: np.ndarray, x: np.ndarray, d: bool) -> np.ndarray:
        m = _mode_axis(self._m, r, x)
        sin = _sqrt_nonneg(1.0 - x * x) if self._p is None else None
        total = None
        for br, scale, rs in self._passes:
            sx = x if scale is None else scale * x
            v = self._src._stack(r, sx, False)
            dv = root = None
            if d or br.needs_dv:
                dv = self._src._stack(r, sx, True)
                if scale is not None:
                    dv = scale * dv
            if rs is not None:
                root = _sqrt_nonneg(1.0 - _mode_axis(rs, r, x) * x * x)
            s = SmoothPoint(r, x, m, self._p, v, dv, root, sin)
            term = br.dxi(s) if d else br.value(s)
            total = term if total is None else total + term
        return total


# Each expression fixes its floating-point operation order, so the output
# bits do not depend on how a rule is composed or evaluated.

def _mul(g: Expr, dg: Expr) -> tuple[SmoothBranch]:
    """Diagonal multiplication by g(r, xi): value g*v, derivative dg*v + g*dv."""
    return (SmoothBranch(
        0, lambda s: g(s) * s.v, lambda s: dg(s) * s.v + g(s) * s.dv
    ),)


def _const(k: Expr, arg: int = 0) -> tuple[SmoothBranch]:
    """Constant k (over m and p) times the source mode read at q^arg * xi."""
    return (SmoothBranch(0, lambda s: k(s) * s.v, lambda s: k(s) * s.dv, arg),)


def _shift(dm: int) -> tuple[SmoothBranch]:
    """The source mode itself, moved to mode m + dm."""
    return (SmoothBranch(dm, lambda s: s.v, lambda s: s.dv),)


_TPLUS = SmoothBranch(
    +1, lambda s: 1.0 / (s.p.lam * s.p.q) * s.root * s.v / s.x,
    arg=-2, root=lambda m: -2,
)
_TMINUS = SmoothBranch(
    -1, lambda s: s.p.q / s.p.lam * s.root * s.v / s.x,
    arg=2, root=lambda m: 2,
)


def _ladder(dm: int, phase: int, pre: Expr | None = None) -> SmoothBranch:
    """The K+- ladder branch to mode m + dm, with the phase theta (+1) or
    its conjugate (-1): theta/(q^2 - 1) for K+, theta*q^2/(q^2 - 1) for
    K-, times sqrt(1 - q^(+-2) xihat^2) at the post-shift mode, then the
    prefactor ``pre`` if one is given."""

    def value(s: SmoothPoint) -> np.ndarray:
        theta = s.p.theta_phase if phase > 0 else s.p.theta_phase.conjugate()
        k = theta / (s.p.qpow(2) - 1.0) if dm > 0 else theta * s.p.qpow(2) / (s.p.qpow(2) - 1.0)
        k = k * s.root * s.v
        return k if pre is None else pre(s) * k

    return SmoothBranch(dm, value, root=lambda m: 2 * dm - 4 * (m + dm))


DEFORMED_RULES: dict[str, tuple[SmoothBranch, ...]] = {
    "identity": _shift(0),
    "r": _mul(lambda s: s.r, lambda s: np.zeros_like(s.x)),
    "R2": _mul(lambda s: s.r * s.r, lambda s: np.zeros_like(s.x)),
    "xi": _mul(lambda s: s.x, lambda s: np.ones_like(s.x)),
    "xi_inv": _mul(lambda s: 1.0 / s.x, lambda s: -1.0 / (s.x * s.x)),
    "xihat": _mul(
        lambda s: s.p.qpow(-2 * s.m) * s.x,
        lambda s: s.p.qpow(-2 * s.m) * np.ones_like(s.x),
    ),
    "X3": _mul(lambda s: s.r * s.x, lambda s: s.r * np.ones_like(s.x)),
    "t3": _mul(
        lambda s: (1.0 + 1.0 / (s.x * s.x)) / s.p.lam,
        lambda s: -2.0 / (s.x * s.x * s.x) / s.p.lam,
    ),
    "K3": _mul(
        lambda s: (1.0 + s.p.qpow(-4 * s.m) * s.x * s.x) / s.p.lam,
        lambda s: 2.0 * s.p.qpow(-4 * s.m) * s.x / s.p.lam,
    ),
    "tau_k": _mul(
        lambda s: -s.p.qpow(-4 * s.m) * s.x * s.x,
        lambda s: -2.0 * s.p.qpow(-4 * s.m) * s.x,
    ),
    "tau_t": _mul(lambda s: -1.0 / (s.x * s.x), lambda s: 2.0 / (s.x * s.x * s.x)),
    "tau_orb": _const(lambda s: s.p.qpow(-4 * s.m)),
    "Torb3": _const(lambda s: (1.0 - s.p.qpow(-4 * s.m)) / s.p.lam),
    "Lambda_xi": _const(lambda s: s.p.q, arg=2),
    "Lambda_xi_inv": _const(lambda s: s.p.qpow(-1), arg=-2),
    "Z_xi": (SmoothBranch(
        0, lambda s: s.x * s.dv + 0.5 * s.v,
        needs_dv="Z_xi needs the analytic xi-derivative of every mode function",
    ),),
    "exp_iphi": _shift(+1),
    "exp_minus_iphi": _shift(-1),
    "Xplus": (SmoothBranch(
        +1, lambda s: -s.p.qpow(-1) / math.sqrt(1.0 + s.p.qpow(-2)) * s.r * s.root * s.v,
        arg=-2, root=lambda m: -2,
    ),),
    "Xminus": (SmoothBranch(
        -1, lambda s: s.p.q / math.sqrt(1.0 + s.p.qpow(2)) * s.r * s.root * s.v,
        arg=2, root=lambda m: 2,
    ),),
    "tplus": (_TPLUS,),
    "tminus": (_TMINUS,),
    "Kplus": (_ladder(+1, +1),),
    "Kminus": (_ladder(-1, -1, lambda s: -1.0),),
    # The orbital ladder branches are 1/xi times the K+- factors; Torb-
    # keeps theta unconjugated.
    "Torbplus": (_TPLUS, _ladder(+1, +1, lambda s: 1.0 / s.x)),
    "Torbminus": (_TMINUS, _ladder(-1, +1, lambda s: 1.0 / s.x)),
}


def smooth_names() -> tuple[str, ...]:
    return tuple(sorted(DEFORMED_RULES))


def smooth_apply(name: str, f: SmoothFunction, p: DeformationParams) -> SmoothFunction:
    """Apply a deformed operator to a smooth function, all modes at once."""
    cname = ALIASES.get(name, name)
    if cname not in DEFORMED_RULES:
        known = ", ".join(smooth_names())
        raise UnknownOperatorError(f"unknown smooth operator {name!r}; have: {known}")
    return _Image(DEFORMED_RULES[cname], f, p)


# Classical (q = 1) rules: d/dtheta = -sqrt(1 - xi^2) d/dxi for
# xi = cos(theta), and i d/dphi contributes -m on mode m.  The ladders are
# e^{+-i phi} { +-d/dtheta + cot(theta) i d/dphi }.

_LADDER_NEEDS_DV = "classical ladder operators need the analytic xi-derivative"

CLASSICAL_RULES: dict[str, tuple[SmoothBranch, ...]] = {
    "L3": (SmoothBranch(0, lambda s: 2.0 * s.m * s.v, lambda s: 2.0 * s.m * s.dv),),
    "Lplus": (SmoothBranch(
        +1, lambda s: -s.sin * s.dv - s.m * s.x / s.sin * s.v,
        needs_dv=_LADDER_NEEDS_DV,
    ),),
    "Lminus": (SmoothBranch(
        -1, lambda s: s.sin * s.dv - s.m * s.x / s.sin * s.v,
        needs_dv=_LADDER_NEEDS_DV,
    ),),
    "X3_cl": DEFORMED_RULES["X3"],
    "Xplus_cl": (SmoothBranch(+1, lambda s: -s.r * s.sin * s.v / math.sqrt(2.0)),),
    "Xminus_cl": (SmoothBranch(-1, lambda s: s.r * s.sin * s.v / math.sqrt(2.0)),),
}

def classical_names() -> tuple[str, ...]:
    return tuple(sorted(CLASSICAL_RULES))


def classical_apply(name: str, f: SmoothFunction) -> SmoothFunction:
    """Apply a classical (q = 1) operator; mode derivatives must be supplied."""
    cname = ALIASES.get(name, name)
    if cname not in CLASSICAL_RULES:
        known = ", ".join(classical_names())
        raise UnknownOperatorError(f"unknown classical operator {name!r}; have: {known}")
    return _Image(CLASSICAL_RULES[cname], f, None)


# --- test corpus -------------------------------------------------------------

#: Centre of the probe's Gaussian in r.
_R_CENTER = 1.0


class _Probe(SmoothFunction):
    """The modes of :func:`probe_function`, each kept to xi inside (0, 1):
    one Horner pass (numpy's ``polyval``, operation for operation) over the
    coefficients of every mode stacked along a leading axis, times the
    Gaussian, computed once per call."""

    __slots__ = ("_c", "_dc")

    def __init__(self, modes: Iterable[int], degree: int):
        ms = sorted({int(m) for m in modes})
        # Row k holds the x^k coefficients of every mode (columns in mode order).
        self._c = np.array(
            [[3.0 ** (-abs(m)) / (1 + k) for m in ms] for k in range(degree + 1)]
        ).reshape(degree + 1, len(ms))
        self._dc = self._c[1:] * np.arange(1, degree + 1)[:, None]
        one = np.ones((1, len(ms)))
        self._table(ms, 0.0 * one, one, [True], [(_BASE.source,)], [True] * len(ms))

    def _stack(self, r: np.ndarray, x: np.ndarray, d: bool) -> np.ndarray:
        c = _mode_axis(self._dc if d else self._c, r, x)
        v = c[-1] + x * 0
        for i in range(2, len(c) + 1):
            v = c[-i] + v * x
        return v * np.exp(-((r - _R_CENTER) ** 2))


def probe_function(modes: Iterable[int], degree: int = 3) -> SmoothFunction:
    """Polynomial-in-xi times Gaussian-in-r probe with analytic derivatives.

    Mode m carries c_m(r, xi) = 3^-|m| * P_m(xi) * exp(-(r - 1)^2)
    with P_m(xi) = sum_k xi^k / (1 + k); the geometric mode decay emulates a
    test function analytic in the angle, whose Fourier amplitudes decay at
    least geometrically.  All coefficients are deterministic so convergence
    measurements are reproducible.
    """
    return _Probe(modes, degree)


# --- q -> 1 convergence -------------------------------------------------------

#: The radii at which :func:`limit_convergence` compares; the xi range that
#: :func:`limit_grid` samples before the common domain shrinks it, and the
#: factor that pulls in a top cut by a square-root bound.
_R_GRID = (0.5, 1.0, 1.5)
_XI_LO, _XI_HI, _MARGIN = 0.1, 0.9, 0.75


@dataclass
class ConvergenceResult:
    """Grid errors of a deformed operator against its classical target.

    ``rows`` holds one (h, max_abs_error, slope_so_far) triple per h: the
    pairwise log-log slope against the previous h, nan for the first row or
    where an error vanishes or is not finite (a NaN anywhere on the grid
    makes the error NaN).  ``slope`` is the least-squares log-log fit over
    the rows with a finite nonzero error, None if fewer than two have one.
    """

    deformed: str
    classical: str
    theta_phase: complex
    rows: list[tuple[float, float, float]]
    slope: float | None
    monotone_decreasing: bool
    all_zero: bool


def _max_error(fq: SmoothFunction, a: np.ndarray, fcl: SmoothFunction, b: np.ndarray) -> float:
    """Largest |fq - fcl| over the stacked values a of fq and b of fcl.

    A mode that one side lacks counts as 0 there; NaN propagates.
    """
    qm, cm = fq._ms, fcl._ms
    if qm != cm:
        modes = sorted({*qm, *cm})
        a, b = _spread(a, qm, modes), _spread(b, cm, modes)
    return float(np.max(np.abs(a - b), initial=0.0))


def _spread(v: np.ndarray, have: list[int], modes: list[int]) -> np.ndarray:
    """Rows of v (modes ``have``) placed among zero rows for ``modes``."""
    out = np.zeros((len(modes),) + v.shape[1:], dtype=v.dtype)
    out[[modes.index(m) for m in have]] = v
    return out


def limit_convergence(grid: LimitGrid, classical_name: str) -> ConvergenceResult:
    """Max-error table of D_{q=e^h} f versus the classical operator on a grid.

    ``grid`` (from :func:`limit_grid`) holds the deformed images and the xi
    samples, compared at the radii ``_R_GRID``; no rescaling is applied.
    The classical image is evaluated once and each deformed image once,
    every mode in one stacked pass.  A grid outside a recorded xi-interval
    raises :class:`DomainError` for the lowest such mode, the deformed
    image's on a tie with the classical one's.
    """
    r = np.array(_R_GRID)
    _, xi_mesh = np.meshgrid(r, grid.xi, indexing="ij")
    # A column of r against one row of xi: what depends on xi alone runs once per xi.
    r_col, xi_row = r[:, None], xi_mesh[:1]
    fcl = classical_apply(classical_name, grid.f)
    cl: np.ndarray | None = None
    rows: list[tuple[float, float, float]] = []
    prev: tuple[float, float] | None = None
    for h, fq in zip(grid.h_values, grid.images):
        hits = [hit for g in ((fq,) if cl is not None else (fq, fcl))
                if (hit := g._violation(xi_mesh)) is not None]
        if hits:
            # min keeps the first of equal modes: the deformed image's.
            raise min(hits, key=lambda hit: hit[0])[1]
        if cl is None:
            cl = fcl._stack(r_col, xi_row, False)
        err = _max_error(fq, fq._stack(r_col, xi_row, False), fcl, cl)
        if (prev is None or prev[0] == h
                or not (0.0 < err < math.inf and 0.0 < prev[1] < math.inf)):
            pair_slope = math.nan
        else:
            pair_slope = math.log(err / prev[1]) / math.log(h / prev[0])
        rows.append((h, err, pair_slope))
        prev = (h, err)
    errs = [e for _, e, _ in rows]
    pts = [(h, e) for (h, e, _) in rows if 0.0 < e < math.inf]
    slope = float(np.polyfit(*np.log(pts).T, 1)[0]) if len(pts) >= 2 else None
    return ConvergenceResult(
        deformed=grid.deformed,
        classical=classical_name,
        theta_phase=complex(grid.theta_phase),
        rows=rows,
        slope=slope,
        monotone_decreasing=all(errs[i] > errs[i + 1] for i in range(len(errs) - 1)),
        all_zero=all(e == 0.0 for e in errs),
    )


def convergence_csv(result: ConvergenceResult) -> str:
    """CSV body ``h,error,slope`` (slope-so-far per row), byte-stable."""
    return "h,error,slope\n" + "".join(f"{h!r},{e!r},{s!r}\n" for h, e, s in result.rows)


#: |log| of the smallest normal double: q^n and q^-n are both normal
#: doubles while n*h stays below it.
_LOG_RANGE = -math.log(sys.float_info.min)


def deformed_images(
    deformed_name: str, f: SmoothFunction, h_values: Sequence[float], theta_phase: complex = -1.0
) -> list[SmoothFunction]:
    """D_{q=e^h} f for each h in order, one rule application per h.

    A smooth rule reads powers q^n with |n| <= 4*max|m| + 2 over the modes m
    of f (the K+- square roots).  An h at which such a power leaves the
    normal double range, or at which e^h rounds to 1, raises
    :class:`RangeError` naming that h; a non-positive or repeated h raises
    ValueError.
    """
    if any(not float(h) > 0.0 for h in h_values):
        raise ValueError("h values must be positive")
    if len(set(map(float, h_values))) < len(h_values):
        raise ValueError(f"h values must be distinct, got {[float(h) for h in h_values]}")
    top = max((abs(m) for m in f.mode_indices()), default=0)
    reach = 4 * top + 2
    for h in map(float, h_values):
        if h * reach > _LOG_RANGE:
            raise RangeError(
                f"h = {h!r} is out of range: q^{reach}, the largest power of q "
                f"a smooth rule reads on modes up to |m| = {top}, leaves the "
                f"normal double range above h = {_LOG_RANGE / reach:.6g}"
            )
        if math.exp(h) == 1.0:
            raise RangeError(f"h = {h!r} is out of range: q = e^h rounds to 1")
    return [
        smooth_apply(deformed_name, f, DeformationParams(q=math.exp(h), theta_phase=theta_phase))
        for h in map(float, h_values)
    ]


def common_xi_interval(images: Sequence[SmoothFunction]) -> tuple[float, float]:
    """Intersection of recorded output xi-domains over all modes and images."""
    return (max([0.0, *(fq._domain[0] for fq in images)]),
            min([1.0, *(fq._domain[1] for fq in images)]))


@dataclass(frozen=True, eq=False)
class LimitGrid:
    """The deformed images D_{q=e^h} f, one per h, and the xi samples."""

    deformed: str
    f: SmoothFunction
    theta_phase: complex
    h_values: tuple[float, ...]
    images: tuple[SmoothFunction, ...]
    xi: np.ndarray


def limit_grid(
    deformed_name: str, f: SmoothFunction, h_values: Sequence[float], n: int = 25,
    theta_phase: complex = -1.0,
) -> LimitGrid:
    """Apply the deformed rule per h and sample xi inside their common domain.

    The samples lie inside [0.1, 0.9] shrunk to the feasible common
    xi-interval.  A square-root bound that cuts below 0.9 pulls the top in to
    0.75 of it, so the grid stays clear of the degenerate edge where the
    deformed/classical comparison loses its cancellation structure.
    """
    images = deformed_images(deformed_name, f, h_values, theta_phase)
    dlo, dhi = common_xi_interval(images)
    top = _XI_HI if dhi >= _XI_HI else _MARGIN * dhi
    bottom = max(_XI_LO, dlo)
    if not (bottom < top):
        raise DomainError(
            f"no feasible xi interval: [{bottom}, {top}] is empty for "
            f"{deformed_name} over h = {list(h_values)}",
            factor=deformed_name,
        )
    return LimitGrid(deformed_name, f, theta_phase, tuple(float(h) for h in h_values),
                     tuple(images), np.linspace(bottom, top, n))
