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
name to a tuple of :class:`SmoothBranch` entries, read by one applier.  A
branch holds its mode shift, the power of q at which it reads the source
argument, the exponent of its square-root factor sqrt(1 - q^n xi^2) if it
has one, and value and d/dxi expressions over one :class:`SmoothPoint`
(r, xi, the source mode m, the parameters, and the source value and
derivative at the scaled argument).  Branches that land on one target mode
are summed.

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
from functools import cached_property
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
    "SmoothBranch",
    "smooth_names",
    "classical_names",
    "smooth_apply",
    "classical_apply",
    "probe_function",
    "ConvergenceResult",
    "limit_convergence",
    "convergence_csv",
    "write_convergence_csv",
    "deformed_images",
    "common_xi_interval",
    "LimitGrid",
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


def _mf_add(a: ModeFunction, b: ModeFunction) -> ModeFunction:
    """Sum of two mode functions that land on one target mode."""

    def value(r, x, _a=a.value, _b=b.value):
        return _a(r, x) + _b(r, x)

    dxi = None
    if a.dxi is not None and b.dxi is not None:

        def dxi(r, x, _a=a.dxi, _b=b.dxi):
            return _a(r, x) + _b(r, x)

    return ModeFunction(value, dxi, tuple(a.constraints) + tuple(b.constraints))


# --- the rule tables ---------------------------------------------------------

class SmoothPoint:
    """One evaluation of a branch at the points (r, x), source mode m.

    ``v`` and ``dv`` are the source mode's value and xi-derivative at the
    branch's scaled argument s*x (``dv`` carries the chain-rule factor s);
    ``root`` is the branch's factor sqrt(1 - q^n x^2) and ``sin`` the
    classical sin(theta) = sqrt(1 - x^2).  ``p`` is None for classical rules.
    """

    def __init__(self, r, x, m: int, p: DeformationParams | None,
                 src: ModeFunction, scale: float | None, root_scale: float | None):
        self.r, self.x, self.m, self.p = r, x, m, p
        self._src, self._scale, self._root_scale = src, scale, root_scale
        self.v = src.value(r, x if scale is None else scale * x)

    @cached_property
    def dv(self) -> np.ndarray:
        if self._scale is None:
            return self._src.dxi(self.r, self.x)
        return self._scale * self._src.dxi(self.r, self._scale * self.x)

    @cached_property
    def root(self) -> np.ndarray:
        return _sqrt_nonneg(1.0 - self._root_scale * self.x * self.x)

    @cached_property
    def sin(self) -> np.ndarray:
        return _sqrt_nonneg(1.0 - self.x * self.x)


Expr = Callable[[SmoothPoint], np.ndarray]


@dataclass(frozen=True)
class SmoothBranch:
    """One target mode shift of a smooth rule, as data.

    The source mode is read at q^arg * xi; a nonzero ``arg`` rescales the
    source constraints and re-imposes xi inside (0, 1).  ``root(m)`` gives
    the exponent n of the factor sqrt(1 - q^n xi^2) that ``SmoothPoint.root``
    evaluates, and records its constraint xi <= q^(-n/2).  ``value`` and
    ``dxi`` are expressions over one :class:`SmoothPoint`; the output has a
    derivative when ``dxi`` is given and the source mode has one.  A rule
    whose value reads ``dv`` sets ``needs_dv`` to the error raised for a
    source mode without a derivative.
    """

    dm: int
    value: Expr
    dxi: Expr | None = None
    arg: int = 0
    root: Callable[[int], int] | None = None
    needs_dv: str | None = None


def _branch_mode(
    br: SmoothBranch, m: int, c: ModeFunction, p: DeformationParams | None
) -> ModeFunction:
    """The mode function that branch ``br`` makes of source mode (m, c)."""
    if br.needs_dv and c.dxi is None:
        raise QeuclidError(br.needs_dv)
    scale = root_scale = None
    cons = list(c.constraints)
    if br.arg:
        scale = p.qpow(br.arg)
        cons = [
            XiConstraint(k.lo / scale, k.hi / scale,
                         f"{k.source} at argument q^{br.arg}*xi", k.strict)
            for k in c.constraints
        ]
        cons.append(_BASE)
    if br.root is not None:
        n = br.root(m)
        root_scale = p.qpow(n)
        bound = math.inf if root_scale <= 0.0 else 1.0 / math.sqrt(root_scale)
        cons.append(XiConstraint(0.0, bound, f"sqrt(1 - q^{n}*xi^2)"))

    def value(r, x):
        return br.value(SmoothPoint(r, x, m, p, c, scale, root_scale))

    dxi = None
    if br.dxi is not None and c.dxi is not None:

        def dxi(r, x):
            return br.dxi(SmoothPoint(r, x, m, p, c, scale, root_scale))

    return ModeFunction(value, dxi, cons)


def _apply(
    branches: tuple[SmoothBranch, ...], f: SmoothFunction, p: DeformationParams | None
) -> SmoothFunction:
    """Apply a rule mode by mode; branches landing on one mode are summed."""
    out: dict[int, ModeFunction] = {}
    for m in f.mode_indices():
        for br in branches:
            tgt, mf = m + br.dm, _branch_mode(br, m, f.modes[m], p)
            out[tgt] = _mf_add(out[tgt], mf) if tgt in out else mf
    return SmoothFunction(out)


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
    # K+- carry sqrt(1 - q^(+-2) xihat^2) at the post-shift mode m +- 1.
    "Kplus": (SmoothBranch(
        +1, lambda s: s.p.theta_phase / (s.p.qpow(2) - 1.0) * s.root * s.v,
        root=lambda m: 2 - 4 * (m + 1),
    ),),
    "Kminus": (SmoothBranch(
        -1, lambda s: -1.0 * (
            s.p.theta_phase.conjugate() * s.p.qpow(2) / (s.p.qpow(2) - 1.0) * s.root * s.v
        ),
        root=lambda m: -2 - 4 * (m - 1),
    ),),
    # The orbital ladder branches are 1/xi times the K+- factors; Torb-
    # keeps theta unconjugated.
    "Torbplus": (_TPLUS, SmoothBranch(
        +1, lambda s: 1.0 / s.x * (
            s.p.theta_phase / (s.p.qpow(2) - 1.0) * s.root * s.v
        ),
        root=lambda m: 2 - 4 * (m + 1),
    )),
    "Torbminus": (_TMINUS, SmoothBranch(
        -1, lambda s: 1.0 / s.x * (
            s.p.theta_phase * s.p.qpow(2) / (s.p.qpow(2) - 1.0) * s.root * s.v
        ),
        root=lambda m: -2 - 4 * (m - 1),
    )),
}


def smooth_names() -> tuple[str, ...]:
    return tuple(sorted(DEFORMED_RULES))


def smooth_apply(name: str, f: SmoothFunction, p: DeformationParams) -> SmoothFunction:
    """Apply a deformed operator to a smooth function, mode by mode."""
    cname = ALIASES.get(name, name)
    if cname not in DEFORMED_RULES:
        known = ", ".join(smooth_names())
        raise UnknownOperatorError(f"unknown smooth operator {name!r}; have: {known}")
    return _apply(DEFORMED_RULES[cname], f, p)


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
    if cname not in CLASSICAL_RULES:
        known = ", ".join(classical_names())
        raise UnknownOperatorError(f"unknown classical operator {name!r}; have: {known}")
    return _apply(CLASSICAL_RULES[cname], f, None)


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
    fq: SmoothFunction,
    fcl: SmoothFunction,
    r_mesh: np.ndarray,
    xi_mesh: np.ndarray,
    cl_values: dict[int, np.ndarray],
) -> float:
    """Largest |fq - fcl| over all modes; ``cl_values`` caches fcl on the mesh.

    Each classical mode is evaluated on first use, right after the deformed
    mode, so a mesh outside either domain raises the same DomainError as an
    uncached evaluation would.
    """
    err = 0.0
    for m in sorted(set(fq.mode_indices()) | set(fcl.mode_indices())):
        a = fq.modes[m](r_mesh, xi_mesh) if m in fq else 0.0
        if m in fcl and m not in cl_values:
            cl_values[m] = fcl.modes[m](r_mesh, xi_mesh)
        b = cl_values.get(m, 0.0)
        err = max(err, float(np.max(np.abs(np.asarray(a) - np.asarray(b)))))
    return err


def limit_convergence(
    grid: LimitGrid,
    classical_name: str,
    r_grid: Sequence[float] = (0.5, 1.0, 1.5),
) -> ConvergenceResult:
    """Max-error table of D_{q=e^h} f versus the classical operator on a grid.

    ``grid`` (from :func:`limit_grid`) holds the deformed images and the xi
    samples.  No rescaling is applied: the deformed operators as written
    converge directly.  Domain errors from evaluating outside a rule's
    recorded xi-interval propagate to the caller.
    """
    r = np.asarray(list(r_grid), dtype=float)
    r_mesh, xi_mesh = np.meshgrid(r, grid.xi, indexing="ij")
    fcl = classical_apply(classical_name, grid.f)
    cl_values: dict[int, np.ndarray] = {}
    rows: list[tuple[float, float, float]] = []
    prev: tuple[float, float] | None = None
    for h, fq in zip(grid.h_values, grid.images):
        err = _max_mode_error(fq, fcl, r_mesh, xi_mesh, cl_values)
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
        deformed=grid.deformed,
        classical=classical_name,
        theta_phase=complex(grid.theta_phase),
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


def deformed_images(
    deformed_name: str,
    f: SmoothFunction,
    h_values: Sequence[float],
    theta_phase: complex = -1.0,
) -> list[SmoothFunction]:
    """D_{q=e^h} f for each h in order, one rule application per h."""
    if any(float(h) <= 0.0 for h in h_values):
        raise ValueError("h values must be positive")
    return [
        smooth_apply(
            deformed_name,
            f,
            DeformationParams(q=math.exp(float(h)), r0=1.0, theta_phase=theta_phase),
        )
        for h in h_values
    ]


def common_xi_interval(images: Sequence[SmoothFunction]) -> tuple[float, float]:
    """Intersection of recorded output xi-domains over all modes and images."""
    lo, hi = 0.0, 1.0
    for fq in images:
        for m in fq.mode_indices():
            mlo, mhi = fq.modes[m].xi_domain
            lo, hi = max(lo, mlo), min(hi, mhi)
    return (lo, hi)


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
    deformed_name: str,
    f: SmoothFunction,
    h_values: Sequence[float],
    n: int = 25,
    lo: float = 0.1,
    hi: float = 0.9,
    margin: float = 0.75,
    theta_phase: complex = -1.0,
) -> LimitGrid:
    """Apply the deformed rule per h and sample xi inside their common domain.

    The samples lie inside [lo, hi] shrunk to the feasible common
    xi-interval.  When a square-root domain bound cuts below ``hi``, the top
    is pulled in by ``margin`` so the grid stays clear of the degenerate edge
    where the deformed/classical comparison loses its cancellation structure.
    """
    images = deformed_images(deformed_name, f, h_values, theta_phase)
    dlo, dhi = common_xi_interval(images)
    top = hi if dhi >= hi else margin * dhi
    bottom = max(lo, dlo)
    if not (bottom < top):
        raise DomainError(
            f"no feasible xi interval: [{bottom}, {top}] is empty for "
            f"{deformed_name} over h = {list(h_values)}",
            factor=deformed_name,
        )
    return LimitGrid(
        deformed=deformed_name,
        f=f,
        theta_phase=theta_phase,
        h_values=tuple(float(h) for h in h_values),
        images=tuple(images),
        xi=np.linspace(bottom, top, n),
    )
