"""Tests for the operator catalogue: pointwise rules, matrices, adjoints, spectra.

The pointwise sweep compares every catalogue rule against an independent
plain-arithmetic evaluation of the defining formulas (``tests/oracle.py``)
over a grid of indices, deformation parameters, and ladder phases.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuclid.core import (
    BasisIndex,
    CapacityError,
    DeformationParams,
    NotDiagonalError,
    TruncationWindow,
    UnknownOperatorError,
)
from qeuclid import lattice
from qeuclid.lattice import LatticeState, load_state, save_state
from qeuclid.operators import (
    ALIASES,
    adjoint_matrix,
    apply,
    catalogue_names,
    materialize,
    operator_action,
    resolve_name,
    spectrum_diagonal,
)

from oracle import ORACLE_NAMES, oracle_action

P2 = DeformationParams(q=2.0)
ORIGIN = BasisIndex(0, 1, 0, 0)

SAMPLE_INDICES = [
    (M, sigma, mt, mt + mk)
    for M in (-2, 0, 1)
    for sigma in (1, -1)
    for mt in (0, -1, -3, -6)
    for mk in (0, 1, 2, 5)
]


class TestPointwiseRulesAgainstOracle:
    @pytest.mark.parametrize("name", ORACLE_NAMES)
    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0])
    def test_action_matches_plain_arithmetic(self, name, q):
        for theta in (-1.0 + 0.0j, 1.0 + 0.0j, cmath.exp(0.7j)):
            p = DeformationParams(q=q, r0=1.25, theta_phase=theta)
            for raw in SAMPLE_INDICES:
                got = {
                    tuple(tgt): c
                    for tgt, c in operator_action(name, BasisIndex(*raw), p)
                }
                want = oracle_action(name, raw, q, r0=1.25, theta=theta)
                assert set(got) == set(want), f"{name} at {raw}"
                for key, val in want.items():
                    assert got[key] == pytest.approx(val, rel=1e-14, abs=1e-300), (
                        f"{name} at {raw} -> {key}"
                    )

    def test_catalogue_covered_by_sweep(self):
        assert set(ORACLE_NAMES) == set(catalogue_names())


class TestFrozenValues:
    def test_mode_raise_at_origin(self):
        # sqrt(1 - 2^-4) / (2^2 - 1) = sqrt(15)/12, with phase theta = -1
        action = operator_action("Kplus", ORIGIN, P2)
        assert action == [
            (BasisIndex(0, 1, 0, 1), pytest.approx(-0.32274861218395141 + 0.0j))
        ]

    def test_mode_casimir_at_origin(self):
        out = apply("tau_k", LatticeState.basis_state(ORIGIN), P2)
        assert out[ORIGIN] == pytest.approx(-0.25 + 0.0j)
        assert len(out) == 1

    def test_radius_squared_at_origin(self):
        out = apply("R2", LatticeState.basis_state(ORIGIN), P2)
        assert out[ORIGIN] == pytest.approx(16.0 + 0.0j)

    def test_zero_state_maps_to_zero(self):
        assert apply("X3", LatticeState(), P2) == LatticeState()

    def test_polar_raise_annihilates_mt_zero(self):
        assert operator_action("Xplus", ORIGIN, P2) == []
        assert operator_action("tplus", ORIGIN, P2) == []

    def test_mode_lower_annihilates_lowest_mode(self):
        for mt in (0, -2, -5):
            idx = BasisIndex(0, 1, mt, mt)
            assert operator_action("Kminus", idx, P2) == []

    def test_mode_lower_acts_above_lowest_mode(self):
        out = apply("Kminus", LatticeState.basis_state(BasisIndex(0, 1, 0, 1)), P2)
        assert len(out) == 1
        assert abs(out[ORIGIN]) > 0.1


class TestApplyLinearity:
    @given(
        a=st.complex_numbers(max_magnitude=5, allow_nan=False),
        b=st.complex_numbers(max_magnitude=5, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_apply_is_linear(self, a, b):
        s1 = LatticeState.basis_state(BasisIndex(0, 1, -1, 0))
        s2 = LatticeState.basis_state(BasisIndex(0, -1, -2, 1))
        for name in ("Xplus", "Torbminus", "Lambda"):
            lhs = apply(name, a * s1 + b * s2, P2)
            rhs = a * apply(name, s1, P2) + b * apply(name, s2, P2)
            for idx in set(lhs.amplitudes) | set(rhs.amplitudes):
                assert lhs[idx] == pytest.approx(rhs[idx], abs=1e-12)


class TestNameResolution:
    @pytest.mark.parametrize("alias, canonical", sorted(ALIASES.items()))
    def test_aliases_resolve(self, alias, canonical):
        assert resolve_name(alias) == canonical

    def test_unknown_operator_lists_catalogue(self):
        with pytest.raises(UnknownOperatorError, match="catalogue:.*Xplus"):
            resolve_name("Xbogus")

    def test_catalogue_is_sorted_and_complete(self):
        names = catalogue_names()
        assert names == tuple(sorted(names))
        assert len(names) == 28


class TestMaterialize:
    def test_diagonal_operator_yields_diagonal_matrix(self):
        w = TruncationWindow(0, 1, -2, 3)
        A = materialize("X3", w, P2)
        dense = A.to_dense()
        assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0
        assert A.boundary_mask == frozenset()
        assert not A.leakage.any()

    def test_mode_raise_on_degenerate_window_is_all_boundary(self):
        w = TruncationWindow(0, 0, 0, 0)  # two states, both at the mode top
        A = materialize("Kplus", w, P2)
        assert A.entries.nnz == 0
        assert A.boundary_mask == frozenset({0, 1})
        want = [abs(c) ** 2 for i in w.iter_indices() for _, c in operator_action("Kplus", i, P2)]
        assert np.allclose(A.leakage, want, rtol=1e-15, atol=0.0)

    def test_default_capacity_is_enforced(self, monkeypatch):
        monkeypatch.setattr(lattice, "DEFAULT_WINDOW_CAPACITY", 100)
        w = TruncationWindow(0, 0, -8, 8)
        with pytest.raises(CapacityError):
            materialize("Xplus", w, P2)
        assert materialize("Xplus", w, P2, capacity=w.size).entries.shape == (162, 162)

    def test_matrix_agrees_with_pointwise_action(self):
        w = TruncationWindow(-1, 1, -3, 3)
        from qeuclid.lattice import build_window

        order = build_window(w)
        pos = {idx: k for k, idx in enumerate(order)}
        for name in ("Xplus", "Torbminus", "Lambda_xi", "K3"):
            A = materialize(name, w, P2).to_dense()
            for col, idx in enumerate(order):
                seen = np.zeros(len(order), dtype=complex)
                for tgt, c in operator_action(name, idx, P2):
                    if tgt in pos:
                        seen[pos[tgt]] = c
                assert np.array_equal(A[:, col], seen), f"{name} column {idx}"

    def test_radial_scaling_commutation(self):
        # r scales by q^4 under the radial shift: r Lambda = q^4 Lambda r
        w = TruncationWindow(-2, 2, -1, 1)
        R = materialize("r", w, P2).entries
        L = materialize("Lambda", w, P2).entries
        lhs = (R @ L).toarray()
        rhs = (P2.qpow(4) * (L @ R)).toarray()
        assert np.allclose(lhs, rhs, rtol=1e-14, atol=0.0)
        assert np.any(lhs != 0.0)


class TestAdjoint:
    @pytest.mark.parametrize(
        "name_a, factor, name_b",
        [
            ("X3", 1.0, "X3"),
            ("Xplus", -2.0, "Xminus"),
            ("tplus", 0.25, "tminus"),
            ("Kplus", -0.25, "Kminus"),
            ("Torbplus", 0.25, "Torbminus"),
            ("R2", 1.0, "R2"),
            ("Lambda", 1.0, "Lambda_inv"),
            ("Lambda_xi", 1.0, "Lambda_xi_inv"),
        ],
    )
    def test_adjoint_pairs_at_q2(self, name_a, factor, name_b):
        w = TruncationWindow(-1, 1, -3, 3)
        A = materialize(name_a, w, P2)
        expected = factor * materialize(name_b, w, P2).entries.toarray()
        got = adjoint_matrix(A, P2).entries.toarray()
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-300)

    def test_adjoint_is_involutive(self):
        w = TruncationWindow(0, 1, -2, 2)
        for name in ("Xplus", "Kminus", "Lambda", "Torbplus"):
            A = materialize(name, w, P2)
            back = adjoint_matrix(adjoint_matrix(A, P2), P2)
            assert np.allclose(
                back.entries.toarray(), A.entries.toarray(), rtol=1e-14, atol=0.0
            )

    def test_jackson_shift_is_unitary(self):
        # adjoint(Lambda) = Lambda^-1 is the weighted-measure unitarity of
        # the radial shift; same for the polar shift.
        w = TruncationWindow(-2, 2, -2, 2)
        for name, inv in (("Lambda", "Lambda_inv"), ("Lambda_xi", "Lambda_xi_inv")):
            got = adjoint_matrix(materialize(name, w, P2), P2).entries.toarray()
            want = materialize(inv, w, P2).entries.toarray()
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_adjoint_keeps_caller_capacity(self, monkeypatch):
        # A matrix built under a raised cap must not be re-checked against
        # the default cap when its adjoint is taken.
        monkeypatch.setattr(lattice, "DEFAULT_WINDOW_CAPACITY", 100)
        w = TruncationWindow(0, 0, -8, 8)
        A = materialize("Xplus", w, P2, capacity=1000)
        got = adjoint_matrix(A, P2).entries.toarray()
        want = -2.0 * materialize("Xminus", w, P2, capacity=1000).entries.toarray()
        assert np.allclose(got, want, rtol=1e-13, atol=1e-300)

    def test_mode_raise_adjoint_conjugates_phase(self):
        # (K+)* = -q^-2 K- for every unit phase, because the lowering rule
        # carries the conjugated phase.
        phase = cmath.exp(1.3j)
        p = DeformationParams(q=2.0, theta_phase=phase)
        w = TruncationWindow(0, 0, -2, 3)
        got = adjoint_matrix(materialize("Kplus", w, p), p).entries.toarray()
        want = -0.25 * materialize("Kminus", w, p).entries.toarray()
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


class TestSpectra:
    def test_coordinate_spectrum_at_origin_window(self):
        w = TruncationWindow(0, 0, 0, 0)
        vals = {idx.sigma: v for idx, v in spectrum_diagonal("X3", w, P2)}
        assert vals[1] == pytest.approx(2.0, rel=1e-15)
        assert vals[-1] == pytest.approx(-2.0, rel=1e-15)

    def test_polar_diagonal_spectrum(self):
        w = TruncationWindow(0, 0, -1, 0)
        vals = sorted({v for _, v in spectrum_diagonal("t3", w, P2)})
        assert vals[0] == pytest.approx(10.0 / 3.0, rel=1e-15)
        assert vals[1] == pytest.approx(65.0 / 1.5, rel=1e-15)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_radius_squared_depends_only_on_radial_index(self, q):
        p = DeformationParams(q=q, r0=0.7)
        w = TruncationWindow(-1, 1, -2, 2)
        for idx, v in spectrum_diagonal("R2", w, p):
            assert v == pytest.approx(0.49 * q ** (8 * idx.M + 4), rel=1e-13)

    def test_mode_casimir_spectrum(self):
        w = TruncationWindow(0, 0, -2, 2)
        for idx, v in spectrum_diagonal("tau_k", w, P2):
            assert v == pytest.approx(-(2.0 ** (-4 * idx.mk - 2)), rel=1e-15)

    def test_non_diagonal_operator_has_no_spectrum(self):
        w = TruncationWindow(0, 0, -1, 1)
        with pytest.raises(NotDiagonalError):
            spectrum_diagonal("Kplus", w, P2)


class TestStateRoundTripThroughOperators:
    def test_apply_then_save_then_load(self, tmp_path):
        s = LatticeState(
            {BasisIndex(0, 1, -1, 0): 1.0, BasisIndex(0, -1, -2, 1): 0.5j}
        )
        out = apply("Torbplus", s, P2)
        path = tmp_path / "out.txt"
        save_state(str(path), out)
        assert load_state(str(path)) == out
