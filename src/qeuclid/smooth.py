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

Every rule application records the xi-subinterval on which the result is
evaluable (square-root factors must stay nonnegative, scaled arguments must
stay inside (0, 1)); evaluating outside raises :class:`DomainError` naming
the offending factor.  Square roots use the principal branch and never go
complex: a negative argument is a domain mistake, not data.

The classical rules (q = 1 counterparts) consume the analytic xi-derivative
supplied with each mode function; :func:`limit_convergence` drives the
q = e^h -> 1 comparison between the two families and fits the log-log decay
slope of the maximum grid error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    ALIASES,
    DeformationParams,
    DomainError,
    QeuclidError,
    UnknownOperatorError,
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
    "write_convergence_csv",
    "common_xi_interval",
    "limit_grid",
]

Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class XiConstraint:
    """One admissible xi-interval with the factor that imposes it."""

    lo: float
    hi: float
    source: str
    strict: bool = False

    def violations(self, xi: np.ndarray) -> np.ndarray:
        if self.strict:
            return (xi <= self.lo) | (xi >= self.hi)
        return (xi < self.lo) | (xi > self.hi)


_BASE = XiConstraint(0.0, 1.0, "xi inside (0, 1)", strict=True)


def _sqrt_nonneg(arg: np.ndarray) -> np.ndarray:
    """Principal square root with the argument clamped at 0.

    The clamp only absorbs rounding fuzz at an allowed interval endpoint;
    genuinely negative arguments are rejected by the constraint check
    before evaluation reaches this point.
    """
    return np.sqrt(np.maximum(arg, 0.0))


class ModeFunction:
    """One Fourier mode: value c(r, xi), optional d/dxi, and its xi-domain."""

    __slots__ = ("value", "dxi", "constraints")

    def __init__(
        self,
        value: Evaluator,
        dxi: Evaluator | None = None,
        constraints: Iterable[XiConstraint] = (_BASE,),
    ):
        self.value = value
        self.dxi = dxi
        seen: dict[XiConstraint, None] = {}
        for c in constraints:
            seen.setdefault(c)
        self.constraints = tuple(seen)

    @property
    def xi_domain(self) -> tuple[float, float]:
        """Intersection (lo, hi) of all recorded constraints."""
        lo = max(c.lo for c in self.constraints)
        hi = min(c.hi for c in self.constraints)
        return (lo, hi)

    def check_domain(self, xi) -> None:
        xi = np.asarray(xi, dtype=float)
        for c in self.constraints:
            bad = c.violations(xi)
            if np.any(bad):
                offender = float(np.asarray(xi)[bad].flat[0])
                raise DomainError(
                    f"xi = {offender!r} is outside [{c.lo!r}, {c.hi!r}] "
                    f"required by factor {c.source}",
                    factor=c.source,
                )

    def __call__(self, r, xi) -> np.ndarray:
        self.check_domain(xi)
        r = np.asarray(r, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return np.asarray(self.value(r, xi))

    def derivative(self, r, xi) -> np.ndarray:
        if self.dxi is None:
            raise QeuclidError(
                "mode function supplies no xi-derivative; classical operators "
                "and Z_xi need analytic derivatives"
            )
        self.check_domain(xi)
        r = np.asarray(r, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return np.asarray(self.dxi(r, xi))


class SmoothFunction:
    """Finite Fourier sum over integer modes with :class:`ModeFunction` coefficients."""

    __slots__ = ("modes",)

    def __init__(self, modes: Mapping[int, ModeFunction]):
        self.modes = {int(m): mf for m, mf in modes.items()}

    def mode_indices(self) -> list[int]:
        return sorted(self.modes)

    def __getitem__(self, m: int) -> ModeFunction:
        return self.modes[m]

    def __contains__(self, m: int) -> bool:
        return m in self.modes

    def evaluate_mode(self, m: int, r, xi) -> np.ndarray:
        return self.modes[m](r, xi)


# --- mode-function combinators ---------------------------------------------

def _mf_scale_argument(c: ModeFunction, s: float, arg_label: str) -> ModeFunction:
    """New mode function x -> c(s*x); constraints rescale accordingly."""

    def value(r, x, _v=c.value, _s=s):
        return _v(r, _s * x)

    dxi = None
    if c.dxi is not None:

        def dxi(r, x, _d=c.dxi, _s=s):
            return _s * _d(r, _s * x)

    cons = [
        XiConstraint(k.lo / s, k.hi / s, f"{k.source} at argument {arg_label}", k.strict)
        for k in c.constraints
    ]
    cons.append(_BASE)
    return ModeFunction(value, dxi, cons)


def _mf_multiply(
    c: ModeFunction,
    g: Evaluator,
    dg: Evaluator | None = None,
    extra: Iterable[XiConstraint] = (),
) -> ModeFunction:
    """Multiply by a coefficient function g(r, x); dg enables derivative output."""

    def value(r, x, _g=g, _v=c.value):
        return _g(r, x) * _v(r, x)

    dxi = None
    if c.dxi is not None and dg is not None:

        def dxi(r, x, _g=g, _dg=dg, _v=c.value, _d=c.dxi):
            return _dg(r, x) * _v(r, x) + _g(r, x) * _d(r, x)

    return ModeFunction(value, dxi, tuple(c.constraints) + tuple(extra))


def _mf_const(c: ModeFunction, k: complex) -> ModeFunction:
    def value(r, x, _v=c.value, _k=k):
        return _k * _v(r, x)

    dxi = None
    if c.dxi is not None:

        def dxi(r, x, _d=c.dxi, _k=k):
            return _k * _d(r, x)

    return ModeFunction(value, dxi, c.constraints)


def _mf_add(a: ModeFunction, b: ModeFunction) -> ModeFunction:
    def value(r, x, _a=a.value, _b=b.value):
        return _a(r, x) + _b(r, x)

    dxi = None
    if a.dxi is not None and b.dxi is not None:

        def dxi(r, x, _a=a.dxi, _b=b.dxi):
            return _a(r, x) + _b(r, x)

    return ModeFunction(value, dxi, tuple(a.constraints) + tuple(b.constraints))


# --- deformed rules ---------------------------------------------------------
#
# Each rule maps (mode index, mode function, params) to a list of
# (target mode, transformed mode function).

def _sqrt_factor(scale: float, label: str) -> tuple[Evaluator, XiConstraint]:
    """Factor sqrt(1 - scale*x^2) with its nonnegativity constraint x <= bound."""

    def g(r, x, _s=scale):
        return _sqrt_nonneg(1.0 - _s * x * x)

    bound = math.inf if scale <= 0.0 else 1.0 / math.sqrt(scale)
    return g, XiConstraint(0.0, bound, label)


def _rule_identity(m, c, p):
    return [(m, c)]


def _rule_r(m, c, p):
    return [(m, _mf_multiply(c, lambda r, x: r, lambda r, x: np.zeros_like(x)))]


def _rule_R2(m, c, p):
    return [(m, _mf_multiply(c, lambda r, x: r * r, lambda r, x: np.zeros_like(x)))]


def _rule_xi(m, c, p):
    return [(m, _mf_multiply(c, lambda r, x: x, lambda r, x: np.ones_like(x)))]


def _rule_xi_inv(m, c, p):
    return [(m, _mf_multiply(c, lambda r, x: 1.0 / x, lambda r, x: -1.0 / (x * x)))]


def _rule_xihat(m, c, p):
    s = p.qpow(-2 * m)

    def g(r, x, _s=s):
        return _s * x

    def dg(r, x, _s=s):
        return _s * np.ones_like(x)

    return [(m, _mf_multiply(c, g, dg))]


def _rule_X3(m, c, p):
    return [(m, _mf_multiply(c, lambda r, x: r * x, lambda r, x: r * np.ones_like(x)))]


def _rule_t3(m, c, p):
    lam = p.lam

    def g(r, x, _l=lam):
        return (1.0 + 1.0 / (x * x)) / _l

    def dg(r, x, _l=lam):
        return -2.0 / (x * x * x) / _l

    return [(m, _mf_multiply(c, g, dg))]


def _rule_K3(m, c, p):
    s = p.qpow(-4 * m)
    lam = p.lam

    def g(r, x, _s=s, _l=lam):
        return (1.0 + _s * x * x) / _l

    def dg(r, x, _s=s, _l=lam):
        return 2.0 * _s * x / _l

    return [(m, _mf_multiply(c, g, dg))]


def _rule_tau_k(m, c, p):
    s = p.qpow(-4 * m)

    def g(r, x, _s=s):
        return -_s * x * x

    def dg(r, x, _s=s):
        return -2.0 * _s * x

    return [(m, _mf_multiply(c, g, dg))]


def _rule_tau_t(m, c, p):
    def g(r, x):
        return -1.0 / (x * x)

    def dg(r, x):
        return 2.0 / (x * x * x)

    return [(m, _mf_multiply(c, g, dg))]


def _rule_tau_orb(m, c, p):
    return [(m, _mf_const(c, p.qpow(-4 * m)))]


def _rule_Torb3(m, c, p):
    return [(m, _mf_const(c, (1.0 - p.qpow(-4 * m)) / p.lam))]


def _rule_Lambda_xi(m, c, p):
    return [(m, _mf_const(_mf_scale_argument(c, p.qpow(2), "q^2*xi"), p.q))]


def _rule_Lambda_xi_inv(m, c, p):
    return [(m, _mf_const(_mf_scale_argument(c, p.qpow(-2), "q^-2*xi"), p.qpow(-1)))]


def _rule_Z_xi(m, c, p):
    if c.dxi is None:
        raise QeuclidError(
            "Z_xi needs the analytic xi-derivative of every mode function"
        )

    def value(r, x, _v=c.value, _d=c.dxi):
        return x * _d(r, x) + 0.5 * _v(r, x)

    return [(m, ModeFunction(value, None, c.constraints))]


def _rule_exp_iphi(m, c, p):
    return [(m + 1, c)]


def _rule_exp_minus_iphi(m, c, p):
    return [(m - 1, c)]


def _rule_Xplus(m, c, p):
    g, cons = _sqrt_factor(p.qpow(-2), "sqrt(1 - q^-2*xi^2)")
    shifted = _mf_scale_argument(c, p.qpow(-2), "q^-2*xi")
    k = -p.qpow(-1) / math.sqrt(1.0 + p.qpow(-2))

    def value(r, x, _g=g, _v=shifted.value, _k=k):
        return _k * r * _g(r, x) * _v(r, x)

    return [(m + 1, ModeFunction(value, None, tuple(shifted.constraints) + (cons,)))]


def _rule_Xminus(m, c, p):
    g, cons = _sqrt_factor(p.qpow(2), "sqrt(1 - q^2*xi^2)")
    shifted = _mf_scale_argument(c, p.qpow(2), "q^2*xi")
    k = p.q / math.sqrt(1.0 + p.qpow(2))

    def value(r, x, _g=g, _v=shifted.value, _k=k):
        return _k * r * _g(r, x) * _v(r, x)

    return [(m - 1, ModeFunction(value, None, tuple(shifted.constraints) + (cons,)))]


def _rule_tplus(m, c, p):
    g, cons = _sqrt_factor(p.qpow(-2), "sqrt(1 - q^-2*xi^2)")
    shifted = _mf_scale_argument(c, p.qpow(-2), "q^-2*xi")
    k = 1.0 / (p.lam * p.q)

    def value(r, x, _g=g, _v=shifted.value, _k=k):
        return _k * _g(r, x) * _v(r, x) / x

    return [(m + 1, ModeFunction(value, None, tuple(shifted.constraints) + (cons,)))]


def _rule_tminus(m, c, p):
    g, cons = _sqrt_factor(p.qpow(2), "sqrt(1 - q^2*xi^2)")
    shifted = _mf_scale_argument(c, p.qpow(2), "q^2*xi")
    k = p.q / p.lam

    def value(r, x, _g=g, _v=shifted.value, _k=k):
        return _k * _g(r, x) * _v(r, x) / x

    return [(m - 1, ModeFunction(value, None, tuple(shifted.constraints) + (cons,)))]


def _kplus_part(m: int, c: ModeFunction, p: DeformationParams) -> ModeFunction:
    """sqrt(1 - q^2*xihat^2) at post-shift mode m+1, times theta/(q^2-1)."""
    scale = p.qpow(2 - 4 * (m + 1))
    g, cons = _sqrt_factor(scale, f"sqrt(1 - q^{2 - 4 * (m + 1)}*xi^2)")
    k = p.theta_phase / (p.qpow(2) - 1.0)

    def value(r, x, _g=g, _v=c.value, _k=k):
        return _k * _g(r, x) * _v(r, x)

    return ModeFunction(value, None, tuple(c.constraints) + (cons,))


def _kminus_part(
    m: int, c: ModeFunction, p: DeformationParams, conjugate_phase: bool
) -> ModeFunction:
    """sqrt(1 - q^-2*xihat^2) at post-shift mode m-1, times q^2/(q^2-1) and phase."""
    scale = p.qpow(-2 - 4 * (m - 1))
    g, cons = _sqrt_factor(scale, f"sqrt(1 - q^{-2 - 4 * (m - 1)}*xi^2)")
    phase = p.theta_phase.conjugate() if conjugate_phase else p.theta_phase
    k = phase * p.qpow(2) / (p.qpow(2) - 1.0)

    def value(r, x, _g=g, _v=c.value, _k=k):
        return _k * _g(r, x) * _v(r, x)

    return ModeFunction(value, None, tuple(c.constraints) + (cons,))


def _rule_Kplus(m, c, p):
    return [(m + 1, _kplus_part(m, c, p))]


def _rule_Kminus(m, c, p):
    return [(m - 1, _mf_const(_kminus_part(m, c, p, conjugate_phase=True), -1.0))]


def _rule_Torbplus(m, c, p):
    ladder = _mf_multiply(
        _kplus_part(m, c, p), lambda r, x: 1.0 / x, lambda r, x: -1.0 / (x * x)
    )
    (_, hopping), = _rule_tplus(m, c, p)
    return [(m + 1, _mf_add(hopping, ladder))]


def _rule_Torbminus(m, c, p):
    ladder = _mf_multiply(
        _kminus_part(m, c, p, conjugate_phase=False),
        lambda r, x: 1.0 / x,
        lambda r, x: -1.0 / (x * x),
    )
    (_, hopping), = _rule_tminus(m, c, p)
    return [(m - 1, _mf_add(hopping, ladder))]


DEFORMED_RULES: dict[str, Callable] = {
    "identity": _rule_identity,
    "r": _rule_r,
    "R2": _rule_R2,
    "xi": _rule_xi,
    "xi_inv": _rule_xi_inv,
    "xihat": _rule_xihat,
    "X3": _rule_X3,
    "t3": _rule_t3,
    "K3": _rule_K3,
    "tau_k": _rule_tau_k,
    "tau_t": _rule_tau_t,
    "tau_orb": _rule_tau_orb,
    "Torb3": _rule_Torb3,
    "Lambda_xi": _rule_Lambda_xi,
    "Lambda_xi_inv": _rule_Lambda_xi_inv,
    "Z_xi": _rule_Z_xi,
    "exp_iphi": _rule_exp_iphi,
    "exp_minus_iphi": _rule_exp_minus_iphi,
    "Xplus": _rule_Xplus,
    "Xminus": _rule_Xminus,
    "tplus": _rule_tplus,
    "tminus": _rule_tminus,
    "Kplus": _rule_Kplus,
    "Kminus": _rule_Kminus,
    "Torbplus": _rule_Torbplus,
    "Torbminus": _rule_Torbminus,
}


def smooth_names() -> tuple[str, ...]:
    return tuple(sorted(DEFORMED_RULES))


def smooth_apply(name: str, f: SmoothFunction, p: DeformationParams) -> SmoothFunction:
    """Apply a deformed operator to a smooth function, mode by mode."""
    cname = ALIASES.get(name, name)
    rule = DEFORMED_RULES.get(cname)
    if rule is None:
        known = ", ".join(smooth_names())
        raise UnknownOperatorError(f"unknown smooth operator {name!r}; have: {known}")
    out: dict[int, ModeFunction] = {}
    for m in f.mode_indices():
        for tgt, mf in rule(m, f.modes[m], p):
            out[tgt] = _mf_add(out[tgt], mf) if tgt in out else mf
    return SmoothFunction(out)


# --- classical (q = 1) rules -------------------------------------------------
#
# d/dtheta = -sqrt(1 - xi^2) d/dxi for xi = cos(theta);
# i d/dphi contributes -m on mode m.

def _ladder_classical(m: int, c: ModeFunction, sign: int) -> ModeFunction:
    """e^{+-i phi} { +-d/dtheta + cot(theta) i d/dphi } acting on mode m."""
    if c.dxi is None:
        raise QeuclidError(
            "classical ladder operators need the analytic xi-derivative"
        )

    def value(r, x, _v=c.value, _d=c.dxi, _m=m, _s=sign):
        root = _sqrt_nonneg(1.0 - x * x)
        return -_s * root * _d(r, x) - _m * x / root * _v(r, x)

    return ModeFunction(value, None, c.constraints)


def _cl_L3(m, c):
    return [(m, _mf_const(c, 2.0 * m))]


def _cl_Lplus(m, c):
    return [(m + 1, _ladder_classical(m, c, +1))]


def _cl_Lminus(m, c):
    return [(m - 1, _ladder_classical(m, c, -1))]


def _cl_X3(m, c):
    return [(m, _mf_multiply(c, lambda r, x: r * x, lambda r, x: r * np.ones_like(x)))]


def _cl_Xpm(m, c, sign):
    def value(r, x, _v=c.value, _s=sign):
        return -_s * r * _sqrt_nonneg(1.0 - x * x) * _v(r, x) / math.sqrt(2.0)

    return [(m + sign, ModeFunction(value, None, c.constraints))]


CLASSICAL_RULES: dict[str, Callable] = {
    "L3": lambda m, c: _cl_L3(m, c),
    "Lplus": lambda m, c: _cl_Lplus(m, c),
    "Lminus": lambda m, c: _cl_Lminus(m, c),
    "X3_cl": lambda m, c: _cl_X3(m, c),
    "Xplus_cl": lambda m, c: _cl_Xpm(m, c, +1),
    "Xminus_cl": lambda m, c: _cl_Xpm(m, c, -1),
}

_CLASSICAL_ALIASES = {
    "L+": "Lplus",
    "L-": "Lminus",
    "X+_cl": "Xplus_cl",
    "X-_cl": "Xminus_cl",
}


def classical_names() -> tuple[str, ...]:
    return tuple(sorted(CLASSICAL_RULES))


def classical_apply(name: str, f: SmoothFunction) -> SmoothFunction:
    """Apply a classical (q = 1) operator; mode derivatives must be supplied."""
    cname = _CLASSICAL_ALIASES.get(name, name)
    rule = CLASSICAL_RULES.get(cname)
    if rule is None:
        known = ", ".join(classical_names())
        raise UnknownOperatorError(f"unknown classical operator {name!r}; have: {known}")
    out: dict[int, ModeFunction] = {}
    for m in f.mode_indices():
        for tgt, mf in rule(m, f.modes[m]):
            out[tgt] = _mf_add(out[tgt], mf) if tgt in out else mf
    return SmoothFunction(out)


# --- test corpus -------------------------------------------------------------

def probe_function(
    modes: Iterable[int], degree: int = 3, r_center: float = 1.0
) -> SmoothFunction:
    """Polynomial-in-xi times Gaussian-in-r probe with analytic derivatives.

    Mode m carries c_m(r, xi) = 3^-|m| * P_m(xi) * exp(-(r - r_center)^2)
    with P_m(xi) = sum_k xi^k / (1 + k); the geometric mode decay emulates a
    test function analytic in the angle, whose Fourier amplitudes decay at
    least geometrically.  All coefficients are deterministic so convergence
    measurements are reproducible.
    """
    out: dict[int, ModeFunction] = {}
    for m in modes:
        coeffs = np.array(
            [3.0 ** (-abs(m)) / (1 + k) for k in range(degree + 1)]
        )
        dcoeffs = coeffs[1:] * np.arange(1, degree + 1)

        def value(r, x, _c=coeffs, _rc=r_center):
            return np.polynomial.polynomial.polyval(x, _c) * np.exp(-((r - _rc) ** 2))

        def dxi(r, x, _d=dcoeffs, _rc=r_center):
            return np.polynomial.polynomial.polyval(x, _d) * np.exp(-((r - _rc) ** 2))

        out[int(m)] = ModeFunction(value, dxi)
    return SmoothFunction(out)


# --- q -> 1 convergence -------------------------------------------------------

@dataclass
class ConvergenceResult:
    """Grid errors of a deformed operator against its classical target.

    ``rows`` holds one (h, max_abs_error, slope_so_far) triple per h, where
    slope_so_far is the pairwise log-log slope against the previous h (nan
    for the first row or whenever an error vanishes).  ``slope`` is the
    least-squares log-log fit over all rows with nonzero error, or None if
    every error is exactly zero.
    """

    deformed: str
    classical: str
    theta_phase: complex
    rows: list[tuple[float, float, float]]
    slope: float | None
    monotone_decreasing: bool
    all_zero: bool


def _max_mode_error(
    fq: SmoothFunction, fcl: SmoothFunction, r_mesh: np.ndarray, xi_mesh: np.ndarray
) -> float:
    err = 0.0
    for m in sorted(set(fq.mode_indices()) | set(fcl.mode_indices())):
        a = fq.modes[m](r_mesh, xi_mesh) if m in fq else 0.0
        b = fcl.modes[m](r_mesh, xi_mesh) if m in fcl else 0.0
        err = max(err, float(np.max(np.abs(np.asarray(a) - np.asarray(b)))))
    return err


def limit_convergence(
    deformed_name: str,
    classical_name: str,
    f: SmoothFunction,
    h_values: Sequence[float],
    xi_grid: Sequence[float],
    r_grid: Sequence[float] = (0.5, 1.0, 1.5),
    theta_phase: complex = -1.0,
) -> ConvergenceResult:
    """Max-error table of D_{q=e^h} f versus the classical operator on a grid.

    No rescaling is applied: the deformed operators as written converge
    directly.  Domain errors from evaluating outside a rule's recorded
    xi-interval propagate to the caller.
    """
    h_values = [float(h) for h in h_values]
    if any(h <= 0.0 for h in h_values):
        raise ValueError("h values must be positive")
    xi = np.asarray(list(xi_grid), dtype=float)
    r = np.asarray(list(r_grid), dtype=float)
    r_mesh, xi_mesh = np.meshgrid(r, xi, indexing="ij")
    fcl = classical_apply(classical_name, f)
    rows: list[tuple[float, float, float]] = []
    prev: tuple[float, float] | None = None
    for h in h_values:
        p = DeformationParams(q=math.exp(h), r0=1.0, theta_phase=theta_phase)
        fq = smooth_apply(deformed_name, f, p)
        err = _max_mode_error(fq, fcl, r_mesh, xi_mesh)
        if prev is None or err == 0.0 or prev[1] == 0.0 or prev[0] == h:
            pair_slope = math.nan
        else:
            pair_slope = math.log(err / prev[1]) / math.log(h / prev[0])
        rows.append((h, err, pair_slope))
        prev = (h, err)
    errs = [e for _, e, _ in rows]
    all_zero = all(e == 0.0 for e in errs)
    slope: float | None = None
    pts = [(h, e) for (h, e, _) in rows if e > 0.0]
    if len(pts) >= 2:
        hs = np.log([h for h, _ in pts])
        es = np.log([e for _, e in pts])
        slope = float(np.polyfit(hs, es, 1)[0])
    monotone = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    return ConvergenceResult(
        deformed=deformed_name,
        classical=classical_name,
        theta_phase=complex(theta_phase),
        rows=rows,
        slope=slope,
        monotone_decreasing=monotone,
        all_zero=all_zero,
    )


def convergence_csv(result: ConvergenceResult) -> str:
    """CSV body ``h,error,slope`` (slope-so-far per row), byte-stable."""
    lines = ["h,error,slope"]
    for h, err, s in result.rows:
        lines.append(f"{h!r},{err!r},{s!r}")
    return "\n".join(lines) + "\n"


def write_convergence_csv(path: str, result: ConvergenceResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(convergence_csv(result))


def common_xi_interval(
    deformed_name: str,
    f: SmoothFunction,
    h_values: Sequence[float],
    theta_phase: complex = -1.0,
) -> tuple[float, float]:
    """Intersection of recorded output xi-domains over all modes and h values."""
    lo, hi = 0.0, 1.0
    for h in h_values:
        p = DeformationParams(q=math.exp(float(h)), r0=1.0, theta_phase=theta_phase)
        fq = smooth_apply(deformed_name, f, p)
        for m in fq.mode_indices():
            mlo, mhi = fq.modes[m].xi_domain
            lo, hi = max(lo, mlo), min(hi, mhi)
    return (lo, hi)


def limit_grid(
    deformed_name: str,
    f: SmoothFunction,
    h_values: Sequence[float],
    n: int = 25,
    lo: float = 0.1,
    hi: float = 0.9,
    margin: float = 0.75,
    theta_phase: complex = -1.0,
) -> np.ndarray:
    """Sample grid inside [lo, hi] shrunk to the feasible common xi-interval.

    When a square-root domain bound cuts below ``hi``, the top is pulled in
    by ``margin`` so the grid stays clear of the degenerate edge where the
    deformed/classical comparison loses its cancellation structure.
    """
    dlo, dhi = common_xi_interval(deformed_name, f, h_values, theta_phase)
    top = hi if dhi >= hi else margin * dhi
    bottom = max(lo, dlo)
    if not (bottom < top):
        raise DomainError(
            f"no feasible xi interval: [{bottom}, {top}] is empty for "
            f"{deformed_name} over h = {list(h_values)}",
            factor=deformed_name,
        )
    return np.linspace(bottom, top, n)
