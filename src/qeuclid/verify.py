"""Executable verification suites over the lattice operator catalogue.

Each suite turns one family of operator identities into numbers: relation
words are evaluated over a truncation window, restricted to the columns on
which truncation is invisible, and reduced to a single relative Frobenius
residual per identity.  Reports serialize to byte-stable JSON so CI can diff
them.

Truncation policy
-----------------
Composing shift rules over a finite window drops any amplitude that a step
carries to a valid index outside the window; the squared magnitude of every
dropped amplitude is accumulated as ``leakage``.  A window column is
*interior* for a relation when no prefix of any word in the relation can
move it outside the window (computed from the branch shift signatures, never
from hard-coded margins); residuals are measured on interior columns only
and the number of excluded columns is reported.

Two evaluation paths
--------------------
A check materializes each distinct letter once and composes every word as
a chain of sparse products of those matrices (sparse path).  On windows of
at most 2^9 states the same letters are also multiplied as dense arrays and
the two products must agree to 1e-13; disagreement raises, since it can only
mean an implementation defect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import norm as sparse_norm

from .core import (
    BasisIndex,
    DeformationParams,
    QeuclidError,
    TruncationWindow,
)
from .lattice import build_window
from .operators import (
    OperatorMatrix,
    adjoint_matrix,
    get_operator,
    materialize,
    operator_action,
    spectrum_diagonal,
)

__all__ = [
    "Term",
    "RelationSpec",
    "ResidualReport",
    "SuiteReport",
    "X_RELATIONS",
    "K_RELATIONS",
    "CASIMIR",
    "COMMUTANT",
    "T_TEMPLATE",
    "TORB_TEMPLATE",
    "ADJOINT_PAIRS",
    "window_label",
    "word_matrix",
    "interior_positions",
    "check_relations",
    "check_adjointness",
    "check_homomorphism",
    "check_tensor_torb",
    "check_recursions",
    "check_lowest_weight",
    "phi_solution",
    "j_solution",
    "j_recursion_residual",
    "SUITE_NAMES",
    "run_suite",
    "run_all_suites",
]

#: Window size up to which the dense second evaluation path is enforced.
DENSE_ORACLE_LIMIT = 2**9

#: Fixed tolerance of the two recursion identities and the closed-form checks.
RECURSION_TOL = 1e-13

Coeff = Callable[[DeformationParams], complex]


@dataclass(frozen=True)
class Term:
    """One scalar-weighted operator word; the word applies rightmost first."""

    coeff: Coeff
    word: tuple[str, ...]


@dataclass(frozen=True)
class RelationSpec:
    """An identity sum(lhs) = sum(rhs) between operator words."""

    id: str
    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]

    def words(self) -> list[tuple[str, ...]]:
        return [t.word for t in self.lhs + self.rhs]


@dataclass
class ResidualReport:
    """Outcome of one check: relative interior residual against a tolerance."""

    id: str
    window: TruncationWindow
    q: float
    max_interior_residual: float
    boundary_rows_excluded: int
    leakage_norm: float
    tolerance: float
    asserted: bool = True

    @property
    def passed(self) -> bool:
        return self.max_interior_residual <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "window": window_label(self.window),
            "q": self.q,
            "residual": self.max_interior_residual,
            "pass": self.passed,
            "leakage": self.leakage_norm,
            "excluded_rows": self.boundary_rows_excluded,
        }


@dataclass
class SuiteReport:
    """All checks of one suite plus the resolved run configuration."""

    suite: str
    config: dict
    checks: list[ResidualReport]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.asserted)

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "config": self.config,
            "checks": [c.to_json_dict() for c in self.checks],
            "pass": self.passed,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def window_label(w: TruncationWindow) -> str:
    return f"{w.M_min}:{w.M_max},{w.mt_min},{w.k_max}"


def config_dict(w: TruncationWindow, p: DeformationParams, tol: float) -> dict:
    return {
        "q": p.q,
        "r0": p.r0,
        "theta_phase": [p.theta_phase.real, p.theta_phase.imag],
        "window": window_label(w),
        "tolerance": tol,
    }


# --- relation catalogues ------------------------------------------------------

def _one(p: DeformationParams) -> complex:
    return 1.0


X_RELATIONS: tuple[RelationSpec, ...] = (
    RelationSpec(
        "x_raise_exchange",
        (Term(_one, ("X3", "Xplus")),),
        (Term(lambda p: p.qpow(2), ("Xplus", "X3")),),
    ),
    RelationSpec(
        "x_lower_exchange",
        (Term(_one, ("X3", "Xminus")),),
        (Term(lambda p: p.qpow(-2), ("Xminus", "X3")),),
    ),
    RelationSpec(
        "x_ladder_commutator",
        (Term(_one, ("Xminus", "Xplus")), Term(lambda p: -1.0, ("Xplus", "Xminus"))),
        (Term(lambda p: p.lam, ("X3", "X3")),),
    ),
)


def _ladder_triple(prefix: str, e3: str, ep: str, em: str) -> tuple[RelationSpec, ...]:
    """The three-generator ladder relations shared by the K-type algebras."""
    return (
        RelationSpec(
            f"{prefix}_raise",
            (
                Term(lambda p: p.qpow(2), (e3, ep)),
                Term(lambda p: -p.qpow(-2), (ep, e3)),
            ),
            (Term(lambda p: p.q + p.qpow(-1), (ep,)),),
        ),
        RelationSpec(
            f"{prefix}_lower",
            (
                Term(lambda p: -p.qpow(-2), (e3, em)),
                Term(lambda p: p.qpow(2), (em, e3)),
            ),
            (Term(lambda p: p.q + p.qpow(-1), (em,)),),
        ),
        RelationSpec(
            f"{prefix}_exchange",
            (
                Term(lambda p: p.qpow(-1), (ep, em)),
                Term(lambda p: -p.q, (em, ep)),
            ),
            (Term(_one, (e3,)),),
        ),
    )


K_RELATIONS: tuple[RelationSpec, ...] = _ladder_triple("k", "K3", "Kplus", "Kminus")

#: The ladder template applied to the polar hopping operators; the defining
#: relations of that family are not part of the asserted contract, so these
#: run report-only.
T_TEMPLATE: tuple[RelationSpec, ...] = _ladder_triple(
    "t_template", "t3", "tplus", "tminus"
)

#: Same template for the orbital operators, also report-only.
TORB_TEMPLATE: tuple[RelationSpec, ...] = _ladder_triple(
    "torb_template", "Torb3", "Torbplus", "Torbminus"
)


CASIMIR: tuple[RelationSpec, ...] = (
    RelationSpec(
        "casimir_radius_squared",
        (
            Term(_one, ("X3", "X3")),
            Term(lambda p: -p.q, ("Xplus", "Xminus")),
            Term(lambda p: -p.qpow(-1), ("Xminus", "Xplus")),
        ),
        (Term(_one, ("R2",)),),
    ),
)

COMMUTANT: tuple[RelationSpec, ...] = tuple(
    RelationSpec(
        f"xihat_commutes_{name}",
        (Term(_one, ("xihat", name)),),
        (Term(_one, (name, "xihat")),),
    )
    for name in ("X3", "Xplus", "Xminus", "t3", "tplus", "tminus", "R2")
)

#: Adjoint pairs (A, c, B): the Jackson adjoint of A must equal c(p) * B.
ADJOINT_PAIRS: tuple[tuple[str, Coeff, str], ...] = (
    ("X3", _one, "X3"),
    ("Xplus", lambda p: -p.q, "Xminus"),
    ("t3", _one, "t3"),
    ("tplus", lambda p: p.qpow(-2), "tminus"),
    ("K3", _one, "K3"),
    ("Kplus", lambda p: -p.qpow(-2), "Kminus"),
    ("Torb3", _one, "Torb3"),
    ("Torbplus", lambda p: p.qpow(-2), "Torbminus"),
    ("xihat", _one, "xihat"),
    ("Lambda", _one, "Lambda_inv"),
)


# --- word evaluation ----------------------------------------------------------

def word_matrix(
    word: Sequence[str],
    w: TruncationWindow,
    p: DeformationParams,
    letters: dict[str, OperatorMatrix] | None = None,
    capacity: int | None = None,
) -> tuple[sp.csr_matrix, float]:
    """Windowed matrix of an operator word plus the squared leakage it drops.

    The word is the product of its letters' materialized matrices, applied
    rightmost first; the leakage sums the squared magnitude of every
    amplitude a step carries to a valid index outside the window.
    ``letters`` caches materialized letters of this (w, p) by name.
    """
    if letters is None:
        letters = {}
    for name in word:
        if name not in letters:
            letters[name] = materialize(name, w, p, capacity)
    *rest, first = [letters[name] for name in word]
    prod, leak = first.entries, float(first.leakage.sum())
    for letter in reversed(rest):
        # What a letter drops from source j scales with the squared norm of
        # row j of the product so far.  Squares may overflow to inf; only
        # rows that are reached and leak count, so no inf meets a 0 (NaN).
        with np.errstate(over="ignore"):
            reach = np.asarray(abs(prod).power(2).sum(axis=1)).ravel()
            hit = (reach != 0.0) & (letter.leakage != 0.0)
            leak += float(reach[hit] @ letter.leakage[hit])
        prod = letter.entries @ prod
    return prod, leak


def _shift_prefixes(word: Sequence[str]) -> set[tuple[int, int, int]]:
    """All partial composite shifts of a word over every branch choice."""
    prefixes: set[tuple[int, int, int]] = set()
    cur: set[tuple[int, int, int]] = {(0, 0, 0)}
    for name in reversed(tuple(word)):
        op = get_operator(name)
        nxt: set[tuple[int, int, int]] = set()
        for s in cur:
            for br in op.branches:
                nxt.add((s[0] + br.dM, s[1] + br.dmt, s[2] + br.dm))
        prefixes |= nxt
        cur = nxt
    return prefixes


def interior_positions(
    words: Iterable[Sequence[str]], w: TruncationWindow, order: list[BasisIndex]
) -> list[int]:
    """Columns that no prefix of any word can carry outside the window.

    Prefix images on invalid indices do not disqualify: the rules carry
    exact zeros there, so truncation drops nothing.
    """
    shifts: set[tuple[int, int, int]] = set()
    for word in words:
        shifts |= _shift_prefixes(word)
    out = []
    for k, idx in enumerate(order):
        ok = True
        for dM, dmt, dm in shifts:
            tgt = idx.shifted(dM, dmt, dm)
            if tgt.is_valid() and not w.contains(tgt):
                ok = False
                break
        if ok:
            out.append(k)
    return out


def _frob(a) -> float:
    return float(sparse_norm(a)) if sp.issparse(a) else float(np.linalg.norm(a))


def _balanced_residual(L: sp.csr_matrix, R: sp.csr_matrix, cols: list[int]) -> float:
    """Frobenius norm of (L-R) on the given columns over max(1, |L|, |R|)."""
    if not cols:
        return 0.0
    Ls = L[:, cols]
    Rs = R[:, cols]
    return _frob(Ls - Rs) / max(1.0, _frob(Ls), _frob(Rs))


def _require_dense_agreement(
    spec_id: str,
    word: tuple[str, ...],
    sparse_mat: sp.csr_matrix,
    letters: dict[str, OperatorMatrix],
    dense_cache: dict[str, np.ndarray],
) -> None:
    """Recompute a word as a dense matrix product and require 1e-13 agreement."""
    for name in word:
        if name not in dense_cache:
            dense_cache[name] = letters[name].entries.toarray()
    dense_mat = reduce(np.matmul, [dense_cache[name] for name in word])
    scale = max(1.0, float(np.linalg.norm(dense_mat)))
    diff = float(np.linalg.norm(sparse_mat.toarray() - dense_mat)) / scale
    if diff > 1e-13:
        raise QeuclidError(
            f"evaluation paths disagree on word {word} of {spec_id}: "
            f"sparse composition vs dense product differ by {diff:.3e}"
        )


def check_relations(
    specs: Sequence[RelationSpec],
    w: TruncationWindow,
    p: DeformationParams,
    tol: float,
    capacity: int | None = None,
    asserted: bool = True,
) -> list[ResidualReport]:
    """Interior relative residual of each relation over the window.

    Each distinct letter is materialized once and every word is composed
    once from those matrices; on windows of at most DENSE_ORACLE_LIMIT
    states that same word matrix is also checked against the dense product.
    """
    order = build_window(w, capacity)
    n = len(order)
    use_dense = n <= DENSE_ORACLE_LIMIT
    letters: dict[str, OperatorMatrix] = {}
    dense_cache: dict[str, np.ndarray] = {}
    reports = []
    for spec in specs:
        sums: list[sp.csr_matrix] = []
        leaks: list[float] = []
        for terms in (spec.lhs, spec.rhs):
            total = sp.csr_matrix((n, n), dtype=np.complex128)
            leak = 0.0
            for t in terms:
                mat, lk = word_matrix(t.word, w, p, letters, capacity)
                if use_dense:
                    _require_dense_agreement(spec.id, t.word, mat, letters, dense_cache)
                c = complex(t.coeff(p))
                total = total + c * mat
                leak += abs(c) ** 2 * lk
            sums.append(total.tocsr())
            leaks.append(leak)
        interior = interior_positions(spec.words(), w, order)
        residual = _balanced_residual(sums[0], sums[1], interior)
        reports.append(
            ResidualReport(
                id=spec.id,
                window=w,
                q=p.q,
                max_interior_residual=residual,
                boundary_rows_excluded=n - len(interior),
                leakage_norm=math.sqrt(leaks[0] + leaks[1]),
                tolerance=tol if asserted else math.inf,
                asserted=asserted,
            )
        )
    return reports


def check_adjointness(
    pairs: Sequence[tuple[str, Coeff, str]],
    w: TruncationWindow,
    p: DeformationParams,
    tol: float,
    capacity: int | None = None,
) -> list[ResidualReport]:
    """Verify adjoint(A) = c * B entrywise over the window for each pair.

    Windowed entries of single catalogue operators are exact, so the
    comparison holds on every entry and nothing is excluded.
    """
    reports = []
    for a_name, coeff, b_name in pairs:
        A = materialize(a_name, w, p, capacity)
        B = materialize(b_name, w, p, capacity)
        adj = adjoint_matrix(A, p)
        c = complex(coeff(p))
        target = c * B.entries
        residual = _frob(adj.entries - target) / max(
            1.0, _frob(adj.entries), _frob(target)
        )
        reports.append(
            ResidualReport(
                id=f"adjoint_{a_name}_vs_{b_name}",
                window=w,
                q=p.q,
                max_interior_residual=residual,
                boundary_rows_excluded=0,
                leakage_norm=0.0,
                tolerance=tol,
            )
        )
    return reports


def check_homomorphism(
    w: TruncationWindow,
    p: DeformationParams,
    tol: float,
    capacity: int | None = None,
) -> list[ResidualReport]:
    """Hopping operators assembled from the coordinate ladder vs the catalogue.

    Assembles tplus = -(1/(lam*q^3)) * sqrt(1+q^2) * Xplus (X3)^-1,
    tminus = (q^2/lam) * sqrt(1+q^2) * Xminus (X3)^-1, and
    t3 = (1/lam) * (1 + R2 (X3)^-2), with (X3)^-1 the spectral (diagonal)
    inverse, and compares them entrywise to the direct catalogue rules.
    The ladder-template relations for the hopping and orbital families are
    appended report-only.
    """
    x3_inv = sp.diags(
        [1.0 / complex(val) for _, val in spectrum_diagonal("X3", w, p, capacity)],
        format="csr",
        dtype=np.complex128,
    )
    q, lam = p.q, p.lam
    root = math.sqrt(1.0 + p.qpow(2))
    assembled = {
        "tplus": (-root / (lam * p.qpow(3)))
        * (materialize("Xplus", w, p, capacity).entries @ x3_inv),
        "tminus": (p.qpow(2) * root / lam)
        * (materialize("Xminus", w, p, capacity).entries @ x3_inv),
        "t3": (
            sp.identity(x3_inv.shape[0], dtype=np.complex128, format="csr")
            + materialize("R2", w, p, capacity).entries @ x3_inv @ x3_inv
        )
        / lam,
    }
    residuals = []
    for name, mat in assembled.items():
        direct = materialize(name, w, p, capacity).entries
        residuals.append(_frob(mat - direct) / max(1.0, _frob(mat), _frob(direct)))
    # np.max, unlike the builtin max, propagates a NaN residual.
    worst = float(np.max(residuals))
    reports = [
        ResidualReport(
            id="hopping_from_coordinate_ladder",
            window=w,
            q=p.q,
            max_interior_residual=worst,
            boundary_rows_excluded=0,
            leakage_norm=0.0,
            tolerance=tol,
        )
    ]
    reports.extend(
        check_relations(
            T_TEMPLATE + TORB_TEMPLATE, w, p, tol, capacity, asserted=False
        )
    )
    return reports


def check_tensor_torb(
    w: TruncationWindow,
    p: DeformationParams,
    tol: float,
    capacity: int | None = None,
) -> list[ResidualReport]:
    """Orbital operators assembled as hopping + |xi|^-1 * mode ladder.

    The assembly Torb3 = t3 + tau_t*K3, Torb+ = t+ + |xi|^-1*K+,
    Torb- = t- - |xi|^-1*K- uses the caller's phase; the direct catalogue
    operators are fixed at the determined phase -1 (the only one with a
    classical limit), so running with phase +1 makes the ladder checks fail,
    as they must.  The positive-sector comparison is asserted; the mirror
    sector, where the direct rules carry a signed 1/xi, is reported only.
    """
    p_det = DeformationParams(q=p.q, r0=p.r0, theta_phase=-1.0 + 0.0j)
    order = build_window(w, capacity)
    abs_inv = materialize("abs_xi_inv", w, p, capacity).entries
    assembled = {
        "Torb3": materialize("t3", w, p, capacity).entries
        + materialize("tau_t", w, p, capacity).entries
        @ materialize("K3", w, p, capacity).entries,
        "Torbplus": materialize("tplus", w, p, capacity).entries
        + abs_inv @ materialize("Kplus", w, p, capacity).entries,
        "Torbminus": materialize("tminus", w, p, capacity).entries
        - abs_inv @ materialize("Kminus", w, p, capacity).entries,
    }
    plus_cols = [k for k, idx in enumerate(order) if idx.sigma > 0]
    minus_cols = [k for k, idx in enumerate(order) if idx.sigma < 0]
    reports = []
    for name, mat in assembled.items():
        direct = materialize(name, w, p_det, capacity).entries
        diff = (mat - direct).tocsr()
        for label, cols, asserted in (
            ("sector_plus", plus_cols, True),
            ("sector_minus", minus_cols, False),
        ):
            sub = diff[:, cols]
            a = mat.tocsr()[:, cols]
            b = direct[:, cols]
            residual = _frob(sub) / max(1.0, _frob(a), _frob(b))
            reports.append(
                ResidualReport(
                    id=f"tensor_{name}_{label}",
                    window=w,
                    q=p.q,
                    max_interior_residual=residual,
                    boundary_rows_excluded=0,
                    leakage_norm=0.0,
                    tolerance=tol if asserted else math.inf,
                    asserted=asserted,
                )
            )
    return reports


# --- recursion closed forms ----------------------------------------------------

def phi_solution(x, p: DeformationParams):
    """Closed form phi(x) = (q/(1+q^2)) * (q^2 x^2 - 1) solving the phi-recursion."""
    x = np.asarray(x, dtype=float)
    return (p.q / (1.0 + p.qpow(2))) * (p.qpow(2) * x * x - 1.0)


def j_solution(x, p: DeformationParams, beta: float = 0.0):
    """Closed form J(x) = -(1 + beta*x - q^2 x^2) / lam^2 of the J-recursion.

    The linear coefficient beta lies in the kernel of the recursion; the
    orbital annihilation condition is what fixes beta = 0.
    """
    x = np.asarray(x, dtype=float)
    return -(1.0 + beta * x - p.qpow(2) * x * x) / (p.lam * p.lam)


def _midpoints(n: int = 64) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def _balanced_max(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def j_recursion_residual(p: DeformationParams, beta: float = 0.0, n: int = 64) -> float:
    """Residual of J(x) - q^2 J(q^-2 x) = (q/lam)(1 + x^2) at n midpoints."""
    x = _midpoints(n)
    lhs = j_solution(x, p, beta) - p.qpow(2) * j_solution(p.qpow(-2) * x, p, beta)
    rhs = (p.q / p.lam) * (1.0 + x * x)
    return _balanced_max(lhs, rhs)


def check_recursions(
    p: DeformationParams,
    w: TruncationWindow | None = None,
    tol: float = RECURSION_TOL,
) -> list[ResidualReport]:
    """Verify both first-order q-difference recursions and the phi sign facts.

    Checks at 64 interval midpoints: the phi-recursion
    phi(x) - phi(q^-2 x) = lam * x^2 against its closed form, the exact value
    phi(0) = -q/(1+q^2), nonpositivity of phi on (0, 1/q], and the J-recursion
    with beta = 0.
    """
    if w is None:
        w = TruncationWindow(0, 0, 0, 0)
    x = _midpoints()
    phi_lhs = phi_solution(x, p) - phi_solution(p.qpow(-2) * x, p)
    phi_rhs = p.lam * x * x
    phi_res = _balanced_max(phi_lhs, phi_rhs)
    zero_res = abs(float(phi_solution(0.0, p)) - (-p.q / (1.0 + p.qpow(2))))
    sign_pts = phi_solution(x * p.qpow(-1), p)
    sign_res = max(0.0, float(np.max(sign_pts)))
    j_res = j_recursion_residual(p, beta=0.0)
    mk = lambda cid, res, t: ResidualReport(
        id=cid,
        window=w,
        q=p.q,
        max_interior_residual=res,
        boundary_rows_excluded=0,
        leakage_norm=0.0,
        tolerance=t,
    )
    return [
        mk("phi_recursion_midpoints", phi_res, tol),
        mk("phi_value_at_zero", zero_res, 0.0),
        mk("phi_nonpositive_on_core", sign_res, 0.0),
        mk("j_recursion_midpoints", j_res, tol),
    ]


def check_lowest_weight(
    w: TruncationWindow,
    p: DeformationParams,
    capacity: int | None = None,
) -> list[ResidualReport]:
    """The mode-lowering ladder must kill every m = mt state exactly.

    The residual is the total magnitude the rule emits from those states:
    it must be identically zero (the rule produces no targets at all), not
    merely small.
    """
    worst = 0.0
    for idx in build_window(w, capacity):
        if idx.mk == 0:
            emitted = operator_action("Kminus", idx, p)
            worst = max(worst, sum(abs(c) for _, c in emitted))
    return [
        ResidualReport(
            id="lowest_weight_annihilation",
            window=w,
            q=p.q,
            max_interior_residual=worst,
            boundary_rows_excluded=0,
            leakage_norm=0.0,
            tolerance=0.0,
        )
    ]


# --- suite driver ---------------------------------------------------------------

#: Suite name -> check of (window, params, tol, capacity), in run order.
#: Each entry looks its check function up in this module at call time, so a
#: wrapper installed on the module attribute sees every call.
_SUITES: dict[str, Callable[..., list[ResidualReport]]] = {
    "x_relations": lambda w, p, tol, cap: check_relations(X_RELATIONS, w, p, tol, cap),
    "k_relations": lambda w, p, tol, cap: check_relations(K_RELATIONS, w, p, tol, cap),
    "adjointness": lambda w, p, tol, cap: check_adjointness(ADJOINT_PAIRS, w, p, tol, cap),
    "casimir": lambda w, p, tol, cap: check_relations(CASIMIR, w, p, tol, cap),
    "commutant": lambda w, p, tol, cap: check_relations(COMMUTANT, w, p, tol, cap),
    "homomorphism": lambda w, p, tol, cap: check_homomorphism(w, p, tol, cap),
    "tensor": lambda w, p, tol, cap: check_tensor_torb(w, p, tol, cap),
    "recursions": lambda w, p, tol, cap: check_recursions(p, w),
    "lowest_weight": lambda w, p, tol, cap: check_lowest_weight(w, p, cap),
}

SUITE_NAMES: tuple[str, ...] = tuple(_SUITES)


def run_suite(
    name: str,
    w: TruncationWindow,
    p: DeformationParams,
    tol: float,
    capacity: int | None = None,
) -> SuiteReport:
    check = _SUITES.get(name)
    if check is None:
        raise QeuclidError(f"unknown suite {name!r}; have: {', '.join(SUITE_NAMES)}")
    return SuiteReport(
        suite=name, config=config_dict(w, p, tol), checks=check(w, p, tol, capacity)
    )


def run_all_suites(
    w: TruncationWindow,
    p: DeformationParams,
    tol: float,
    capacity: int | None = None,
) -> dict[str, SuiteReport]:
    """Run every suite, one after another, in SUITE_NAMES order."""
    return {name: run_suite(name, w, p, tol, capacity) for name in SUITE_NAMES}
