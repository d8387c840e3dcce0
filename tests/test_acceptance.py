"""Acceptance gate: eleven end-to-end properties of the operator realization.

Each test prints one ``criterion NN [PASS|FAIL]`` line (visible with ``-s``
or in failure reports) and asserts the stated tolerance, so the suite doubles
as a human-readable scorecard of the library's defining guarantees.
"""

import time

import numpy as np
import pytest

from dense import to_dense
from qeuclid.core import (
    BasisIndex,
    DeformationParams,
    TruncationWindow,
)
from qeuclid.lattice import build_window
from qeuclid.operators import (
    adjoint_matrix,
    materialize,
    operator_action,
    spectrum_diagonal,
)
from qeuclid.smooth import limit_convergence, limit_grid, probe_function
from qeuclid.verify import (
    COMMUTANT,
    K_RELATIONS,
    LetterTable,
    RelationSpec,
    Term,
    X_RELATIONS,
    check_adjointness,
    check_homomorphism,
    check_recursions,
    check_relations,
    check_tensor_torb,
    interior_positions,
    phi_solution,
)

Q_SWEEP = (1.1, 1.5, 2.0, 3.0)
WINDOW = TruncationWindow(-1, 1, -8, 8)  # 486 states
TOL = 1e-12
H_LIST = (0.1, 0.05, 0.025, 0.0125)


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_criterion_01_coordinate_algebra_relations():
    t0 = time.perf_counter()
    worst = 0.0
    for q in Q_SWEEP:
        p = DeformationParams(q=q)
        for report in check_relations(X_RELATIONS, LetterTable(WINDOW, p), TOL):
            worst = max(worst, report.max_interior_residual)
    elapsed = time.perf_counter() - t0
    ok = worst <= TOL and elapsed <= 10.0
    _line(1, ok, f"coordinate algebra residual {worst:.3e} in {elapsed:.2f} s")
    assert worst <= TOL
    assert elapsed <= 10.0


def test_criterion_02_mode_ladder_algebra_relations():
    t0 = time.perf_counter()
    worst = 0.0
    for q in Q_SWEEP:
        p = DeformationParams(q=q)
        for report in check_relations(K_RELATIONS, LetterTable(WINDOW, p), TOL):
            worst = max(worst, report.max_interior_residual)
    elapsed = time.perf_counter() - t0
    ok = worst <= TOL and elapsed <= 10.0
    _line(2, ok, f"mode ladder algebra residual {worst:.3e} in {elapsed:.2f} s")
    assert worst <= TOL
    assert elapsed <= 10.0


def test_criterion_03_adjointness_under_weighted_inner_product():
    pairs = (
        ("X3", lambda p: 1.0, "X3"),
        ("Xplus", lambda p: -p.q, "Xminus"),
        ("tplus", lambda p: p.qpow(-2), "tminus"),
        ("Kplus", lambda p: -p.qpow(-2), "Kminus"),
    )
    worst = 0.0
    for q in Q_SWEEP:
        p = DeformationParams(q=q)
        for a_name, coeff, b_name in pairs:
            adj = to_dense(adjoint_matrix(materialize(a_name, WINDOW, p), p).entries)
            target = complex(coeff(p)) * to_dense(materialize(b_name, WINDOW, p).entries)
            scale = max(1.0, float(np.max(np.abs(target))))
            worst = max(worst, float(np.max(np.abs(adj - target))) / scale)
    ok = worst <= TOL
    _line(3, ok, f"adjoint pairs entrywise residual {worst:.3e}")
    assert worst <= TOL


def test_criterion_04_central_length_is_diagonal_radius_squared():
    words = [("X3", "X3"), ("Xplus", "Xminus"), ("Xminus", "Xplus")]
    worst_diag = 0.0
    worst_off = 0.0
    r0 = 1.25
    for q in Q_SWEEP:
        p = DeformationParams(q=q, r0=r0)
        order = build_window(WINDOW)
        x3 = to_dense(materialize("X3", WINDOW, p).entries)
        xp = to_dense(materialize("Xplus", WINDOW, p).entries)
        xm = to_dense(materialize("Xminus", WINDOW, p).entries)
        cas = x3 @ x3 - q * (xp @ xm) - (1.0 / q) * (xm @ xp)
        interior = interior_positions(words, WINDOW)
        for col in interior:
            idx = order[col]
            expected = r0 * r0 * q ** (8 * idx.M + 4)
            got = cas[col, col]
            worst_diag = max(worst_diag, abs(got - expected) / abs(expected))
            off = np.abs(cas[:, col]).sum() - abs(got)
            worst_off = max(worst_off, off / abs(expected))
    ok = worst_diag <= TOL and worst_off <= TOL
    _line(4, ok, f"central length diagonal residual {worst_diag:.3e}, "
                 f"off-diagonal {worst_off:.3e}")
    assert worst_diag <= TOL
    assert worst_off <= TOL


def test_criterion_05_spectra_match_closed_forms():
    worst = 0.0
    r0 = 0.7
    for q in Q_SWEEP:
        p = DeformationParams(q=q, r0=r0)
        lam = q - 1.0 / q
        for idx, val in spectrum_diagonal("X3", WINDOW, p):
            expected = idx.sigma * r0 * q ** (4 * idx.M + 2) * q ** (2 * idx.mt - 1)
            worst = max(worst, abs(val - expected) / abs(expected))
        for idx, val in spectrum_diagonal("t3", WINDOW, p):
            expected = (1.0 + q * q * q ** (-4 * idx.mt)) / lam
            worst = max(worst, abs(val - expected) / abs(expected))
        for idx, val in spectrum_diagonal("tau_k", WINDOW, p):
            expected = -(q ** (-4 * idx.mk - 2))
            worst = max(worst, abs(val - expected) / abs(expected))
    ok = worst <= 1e-13
    _line(5, ok, f"diagonal spectra relative deviation {worst:.3e}")
    assert worst <= 1e-13


def test_criterion_06_lowest_weight_annihilation_is_exact():
    emitted = 0
    states = 0
    for q in Q_SWEEP:
        p = DeformationParams(q=q)
        seen = set()
        for idx in build_window(WINDOW):
            key = (idx.M, idx.sigma, idx.mt)
            if key in seen:
                continue
            seen.add(key)
            lowest = BasisIndex(idx.M, idx.sigma, idx.mt, idx.mt)
            states += 1
            emitted += len(operator_action("Kminus", lowest, p))
    ok = emitted == 0
    _line(6, ok, f"mode lowering emits nothing from {states} lowest-mode states")
    assert emitted == 0


def test_criterion_07_assembled_operators_match_catalogue():
    worst = 0.0
    for q in Q_SWEEP:
        letters = LetterTable(WINDOW, DeformationParams(q=q))
        for report in check_homomorphism(letters, TOL):
            if report.asserted:
                worst = max(worst, report.max_interior_residual)
        for report in check_tensor_torb(letters, TOL):
            if report.asserted:
                worst = max(worst, report.max_interior_residual)
    ok = worst <= TOL
    _line(7, ok, f"hopping and orbital assembly residual {worst:.3e}")
    assert worst <= TOL


def test_criterion_08_difference_recursions_and_exact_zero_value():
    worst = 0.0
    exact = True
    for q in Q_SWEEP:
        p = DeformationParams(q=q)
        for report in check_recursions(p):
            assert report.passed, report.id
            worst = max(worst, report.max_interior_residual)
        exact = exact and (
            float(phi_solution(0.0, p)) == -p.q / (1.0 + p.qpow(2))
        )
    ok = worst <= 1e-13 and exact
    _line(8, ok, f"recursion residual {worst:.3e}, zero value exact: {exact}")
    assert worst <= 1e-13
    assert exact


def test_criterion_09_classical_limits_of_the_orbital_family():
    t0 = time.perf_counter()
    f = probe_function(range(-3, 4))
    slopes = {}
    for deformed, classical in (
        ("Torb3", "L3"),
        ("Torbplus", "Lplus"),
        ("Torbminus", "Lminus"),
    ):
        res = limit_convergence(limit_grid(deformed, f, H_LIST), classical)
        slopes[deformed] = res.slope
    grows = {}
    for deformed, classical in (("Torbplus", "Lplus"), ("Torbminus", "Lminus")):
        grid = limit_grid(deformed, f, H_LIST, theta_phase=1.0)
        res = limit_convergence(grid, classical)
        errs = [e for _, e, _ in res.rows]
        grows[deformed] = all(errs[i] < errs[i + 1] for i in range(len(errs) - 1))
    elapsed = time.perf_counter() - t0
    in_band = all(s is not None and 0.8 <= s <= 1.2 for s in slopes.values())
    ok = in_band and all(grows.values()) and elapsed <= 5.0
    shown = ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
    _line(9, ok, f"slopes {shown}; wrong-phase errors grow: "
                 f"{all(grows.values())}; {elapsed:.2f} s")
    assert in_band, slopes
    assert all(grows.values()), grows
    assert elapsed <= 5.0


def test_criterion_10_negative_controls_fail():
    p = DeformationParams(q=2.0)
    wrong_relation = RelationSpec(
        id="perturbed_exchange",
        lhs=(Term(lambda p: 1.0, ("X3", "Xplus")),),
        rhs=(Term(lambda p: p.q, ("Xplus", "X3")),),
    )
    letters = LetterTable(WINDOW, p)
    (bad_rel,) = check_relations([wrong_relation], letters, TOL)
    (bad_adj,) = check_adjointness(
        [("Kplus", lambda p: p.qpow(-2), "Kminus")], letters, TOL
    )
    p_plus = DeformationParams(q=2.0, theta_phase=1.0 + 0.0j)
    bad_phase = [
        c
        for c in check_tensor_torb(LetterTable(WINDOW, p_plus), TOL)
        if c.asserted and c.id != "tensor_Torb3_sector_plus"
    ]
    all_fail = (
        not bad_rel.passed
        and not bad_adj.passed
        and all(not c.passed for c in bad_phase)
    )
    _line(10, all_fail, "perturbed relation, wrong adjoint sign, and wrong "
                        "phase all detected")
    assert bad_rel.max_interior_residual >= 0.1
    assert not bad_rel.passed
    assert not bad_adj.passed
    assert bad_phase and all(not c.passed for c in bad_phase)


def test_criterion_11_twisted_coordinate_commutes():
    worst = 0.0
    count = 0
    for q in Q_SWEEP:
        p = DeformationParams(q=q)
        for report in check_relations(COMMUTANT, LetterTable(WINDOW, p), TOL):
            worst = max(worst, report.max_interior_residual)
            count += 1
    ok = worst <= TOL
    _line(11, ok, f"twisted-coordinate commutators ({count} checks) "
                  f"residual {worst:.3e}")
    assert worst <= TOL
