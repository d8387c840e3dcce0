"""Tests for the operator catalogue: pointwise rules, matrices, adjoints, spectra.

The pointwise sweep compares every catalogue rule against an independent
plain-arithmetic evaluation of the defining formulas (``tests/oracle.py``)
over a grid of indices, deformation parameters, and ladder phases.
"""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuclid.core import (
    BasisIndex,
    CapacityError,
    DeformationParams,
    NotDiagonalError,
    TruncationWindow,
    UnknownOperatorError,
    _times,
)
from qeuclid import lattice
from qeuclid.lattice import LatticeState, build_window, load_state, save_state
from qeuclid.operators import (
    ALIASES,
    Diagonals,
    adjoint_matrix,
    apply,
    catalogue_names,
    images,
    materialize,
    operator_action,
    resolve_name,
    spectrum_arrays,
    spectrum_diagonal,
)

from dense import outside_slots, random_diagonals, to_dense
from oracle import ORACLE_NAMES, oracle_action

P2 = DeformationParams(q=2.0)
PHASES = (-1.0 + 0.0j, 1.0 + 0.0j, cmath.exp(0.7j))
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
        for theta in PHASES:
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
    @pytest.mark.parametrize("name", ["Torbplus", "Torbminus"])
    def test_branches_sum_on_shared_targets(self, name):
        # Both branches of the orbital ladders reach the same targets from
        # different sources of a block state; apply must add the two terms.
        p = DeformationParams(q=1.5, r0=1.25, theta_phase=cmath.exp(0.7j))
        rng = np.random.default_rng(7)
        block = build_window(TruncationWindow(0, 1, -3, 3))
        amps = rng.uniform(-1, 1, len(block)) + 1j * rng.uniform(-1, 1, len(block))
        state = LatticeState(dict(zip(block, amps)))
        want: dict = {}
        terms: dict = {}
        for idx, amp in state.amplitudes.items():
            for tgt, c in oracle_action(name, tuple(idx), p.q, 1.25, p.theta_phase).items():
                want[tgt] = want.get(tgt, 0.0) + amp * c
                terms[tgt] = terms.get(tgt, 0) + 1
        assert max(terms.values()) == 2
        got = apply(name, state, p)
        assert {tuple(idx) for idx in got.amplitudes} == set(want)
        for tgt, val in want.items():
            assert got[BasisIndex(*tgt)] == pytest.approx(val, rel=1e-14), tgt


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


def _textbook(a: complex, c: complex) -> complex:
    """a * c with each part formed in Python floats, every operation rounded
    on its own."""
    return complex(a.real * c.real - a.imag * c.imag, a.real * c.imag + a.imag * c.real)


class TestComplexPhaseProducts:
    # At a complex phase both factors of each amplitude product are complex;
    # numpy's complex loop may fuse its multiply-adds, the package's one
    # product rule does not.
    P = DeformationParams(q=1.5, theta_phase=cmath.exp(0.7j))

    @pytest.fixture(scope="class")
    def state(self):
        block = TruncationWindow(-2, 2, -8, 8).index_arrays()
        rng = np.random.default_rng(28)
        amps = rng.standard_normal(len(block.M)) + 1j * rng.standard_normal(len(block.M))
        return LatticeState.from_arrays(block, amps)

    @staticmethod
    def _bits(s: LatticeState) -> tuple:
        return (*(a.tolist() for a in s.index), s.values.view(float).tolist())

    @pytest.mark.parametrize("name", ["Kplus", "Kminus", "Torbplus", "Torbminus"])
    def test_apply_forms_each_product_part_by_part(self, state, name):
        tgts, amps = [], []
        for pos, tgt, c in images(name, state.index, self.P):
            tgts.append(tgt)
            for a, cc in zip(state.values[pos].tolist(), c.tolist()):
                z = _textbook(a, cc)
                amps.append(complex(z.real + 0.0, z.imag + 0.0))
        want = LatticeState.from_arrays(BasisIndex(*map(np.concatenate, zip(*tgts))), amps)
        assert self._bits(apply(name, state, self.P)) == self._bits(want)

    def test_scaling_forms_each_product_part_by_part(self, state):
        z = self.P.theta_phase
        want = LatticeState.from_arrays(
            state.index, [_textbook(a, z) for a in state.values.tolist()]
        )
        assert self._bits(z * state) == self._bits(want)


#: Zeros, subnormals, the ends of the float range, inf and nan.
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-320, 2.2250738585072014e-308, -1e-160,
    0.5, -1.0, 3.0, 1e160, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
]


def _part_bits(z: complex) -> tuple[str, str]:
    """Both parts with the sign of a zero; every NaN reads alike."""
    return tuple("nan" if math.isnan(x) else x.hex() for x in (z.real, z.imag))


class TestRealOperandProducts:
    def test_a_real_operand_takes_the_part_by_part_rule(self):
        # _times with one float64 operand forms the textbook product with
        # that operand's imaginary part 0.0.  numpy's complex-by-real loop
        # skips the zero terms and so differs in the sign of some zeros:
        # (-1e-320 - 0j) * 5e-324 has real part +0.0 here, -0.0 from numpy
        # on x86-64.  A faster path for a real operand must keep these bits.
        z = np.array([complex(x, y) for x in SPECIAL for y in SPECIAL])
        r = np.array(SPECIAL)
        Z, R = (a.ravel() for a in np.meshgrid(z, r, indexing="ij"))
        with np.errstate(all="ignore"):
            pairs = ((_times(Z, R), Z, R), (_times(R, Z), R, Z))
        for got, a, b in pairs:
            want = [_textbook(complex(x), complex(y)) for x, y in zip(a.tolist(), b.tolist())]
            assert list(map(_part_bits, got.tolist())) == list(map(_part_bits, want))
        one = _times(np.array([complex(-1e-320, -0.0)]), np.array([5e-324]))
        assert _part_bits(complex(one[0])) == ("0x0.0p+0", "-0x0.0p+0")


#: The aliases that name a lattice operator; the other four name classical rules.
LATTICE_ALIASES = sorted((a, c) for a, c in ALIASES.items() if c in catalogue_names())


class TestNameResolution:
    @pytest.mark.parametrize("alias, canonical", LATTICE_ALIASES)
    def test_aliases_resolve(self, alias, canonical):
        assert resolve_name(alias) == canonical

    @pytest.mark.parametrize("alias", ["L+", "L-", "X+_cl", "X-_cl"])
    def test_classical_spellings_are_unknown_operators(self, alias):
        msg = rf"^unknown operator '{re.escape(alias)}'; catalogue: K3, "
        with pytest.raises(UnknownOperatorError, match=msg):
            resolve_name(alias)

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
        dense = to_dense(A.entries)
        assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0
        assert A.boundary_columns.tolist() == []
        assert A.boundary_leakage.tolist() == []
        assert A.total_leakage == 0.0

    def test_mode_raise_on_degenerate_window_is_all_boundary(self):
        w = TruncationWindow(0, 0, 0, 0)  # two states, both at the mode top
        A = materialize("Kplus", w, P2)
        assert A.entries.nnz == 0
        assert A.boundary_columns.tolist() == [0, 1]
        assert A.boundary_columns.dtype == np.int64
        want = [abs(c) ** 2 for i in build_window(w) for _, c in operator_action("Kplus", i, P2)]
        assert np.allclose(A.boundary_leakage, want, rtol=1e-15, atol=0.0)
        assert A.total_leakage == np.sum(A.boundary_leakage)

    def test_default_capacity_is_enforced(self, monkeypatch):
        monkeypatch.setattr(lattice, "DEFAULT_WINDOW_CAPACITY", 100)
        w = TruncationWindow(0, 0, -8, 8)
        with pytest.raises(CapacityError):
            materialize("Xplus", w, P2)
        assert materialize("Xplus", w, P2, capacity=w.size).entries.shape == (162, 162)

    @pytest.mark.parametrize("name", ORACLE_NAMES)
    @pytest.mark.parametrize("q", [1.1, 2.0, 3.0])
    def test_matrix_agrees_with_pointwise_action(self, name, q):
        # Every shift leaves this window through one of its four edges
        # (M_min, M_max, mt_min, k_max), so entries, boundary columns and
        # leakage are all exercised against the oracle's pointwise rules.
        w = TruncationWindow(-1, 1, -3, 3)
        order = [tuple(idx) for idx in build_window(w)]
        pos = {idx: k for k, idx in enumerate(order)}
        for theta in PHASES:
            p = DeformationParams(q=q, r0=1.25, theta_phase=theta)
            want = np.zeros((len(order), len(order)), dtype=complex)
            leakage = np.zeros(len(order))
            mask = set()
            for col, idx in enumerate(order):
                for tgt, c in oracle_action(name, idx, q, r0=1.25, theta=theta).items():
                    if tgt in pos:
                        want[pos[tgt], col] = c
                    else:
                        leakage[col] += abs(c) ** 2
                        mask.add(col)
            A = materialize(name, w, p)
            got = to_dense(A.entries)
            assert np.array_equal(got != 0, want != 0), name
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), name
            cols = A.boundary_columns
            assert cols.tolist() == sorted(mask), name
            assert len(A.boundary_leakage) == len(cols), name
            assert np.all(np.abs(A.boundary_leakage - leakage[cols]) <= 1e-14 * leakage[cols]), name
            assert abs(A.total_leakage - leakage.sum()) <= 1e-14 * leakage.sum(), name

    @pytest.mark.parametrize("theta", [-1.0, 1.0])
    def test_real_phase_stores_real_values(self, theta):
        # At a real phase the values are float64 (so are the exported
        # triples), and a coefficient that overflows reads inf, not an
        # entry with a NaN imaginary part.
        p = DeformationParams(q=40.0, theta_phase=theta)
        w = TruncationWindow(0, 0, -120, 4)
        for name in ("Kplus", "Torbplus", "Torbminus"):
            A = materialize(name, w, p).entries
            assert A.values.dtype == A.triples()[2].dtype == np.float64
            assert not np.isnan(A.values).any()
        # The orbital ladder branch overflows on this window.
        assert np.isinf(A.values).any()
        assert spectrum_arrays("X3", w, p)[1].dtype == np.float64

    @pytest.mark.parametrize("name, q", [("tminus", 400.0), ("Torbminus", 400.0), ("Lambda_xi", 1e154)])
    def test_overflowing_leakage_total_reads_inf_without_a_warning(self, name, q):
        # Each boundary loss is finite, but their sum overflows; the total,
        # like the squares it adds, reads inf silently.
        A = materialize(name, TruncationWindow(0, 9, -28, 9), DeformationParams(q=q))
        assert np.isfinite(A.boundary_leakage).all()
        assert A.total_leakage == math.inf

    def test_radial_scaling_commutation(self):
        # r scales by q^4 under the radial shift: r Lambda = q^4 Lambda r
        w = TruncationWindow(-2, 2, -1, 1)
        R = materialize("r", w, P2).entries
        L = materialize("Lambda", w, P2).entries
        lhs = to_dense(R @ L)
        rhs = to_dense(P2.qpow(4) * (L @ R))
        assert np.allclose(lhs, rhs, rtol=1e-14, atol=0.0)
        assert np.any(lhs != 0.0)


def _clip(v, o):
    """Column values of offset o with the positions outside the matrix zeroed."""
    cols = np.arange(len(v))
    return np.where((cols + o >= 0) & (cols + o < len(v)), v, 0)


def _scaled(c: complex, M: sp.csr_matrix) -> sp.csr_matrix:
    """c * M, each entry formed part by part in Python floats."""
    out = sp.csr_matrix(M, dtype=complex, copy=True)
    out.data = np.array([_textbook(c, v) for v in M.data.tolist()], dtype=complex)
    return out


class TestDiagonals:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_matches_compressed_rows_bit_for_bit(self, data):
        # scipy's CSR arithmetic is the reference: the same stored entries,
        # in the same row-major order, with the same bits and dtype.  Each
        # operand and scalar is real or complex, so real, mixed and complex
        # pairs are all drawn.  The complex multiple's reference forms each
        # entry part by part, since scipy scales by numpy's complex loop,
        # which may fuse a multiply and an add.
        n = data.draw(st.integers(1, 8))
        A, B = data.draw(random_diagonals(n)), data.draw(random_diagonals(n))
        r = data.draw(st.floats(-8, 8))
        c = complex(r, data.draw(st.floats(-8, 8)))
        csr_a, csr_b = (sp.csr_matrix(to_dense(M)) for M in (A, B))
        # The kernels write into arrays of their own, never into an operand.
        kept = [M.values.copy() for M in (A, B)]
        for got, want in (
            (A @ B, csr_a @ csr_b),
            (A + B, csr_a + csr_b),
            (A - B, csr_a - csr_b),
            (c * A, _scaled(c, csr_a)),
            (r * A, r * csr_a),
            (r * B, r * csr_b),
        ):
            want = sp.csr_matrix(want)
            want.sum_duplicates()
            want.eliminate_zeros()
            if got.values.dtype != want.dtype:
                # An operand without diagonals holds no values to promote.
                assert got.values.dtype == np.float64
                assert 0 in (A.offsets.size, B.offsets.size)
                want = want.real
            rows, cols, vals = got.triples()
            assert np.array_equal(rows, np.repeat(np.arange(n), np.diff(want.indptr)))
            assert np.array_equal(cols, want.indices)
            assert np.array_equal(vals.view(float), want.data.view(float))
            assert got.nnz == want.nnz and got.shape == (n, n)
            # The residual norms read every slot of a masked column.
            assert not outside_slots(got).any()
            for M, values in zip((A, B), kept):
                assert np.array_equal(M.values.view(float), values.view(float))
        # A product diagonal whose offset leaves (-n, n) holds no entry.
        assert np.all(np.abs((A @ B).offsets) < n)
        if not (np.iscomplexobj(A.values) or np.iscomplexobj(B.values)):
            for got in (A @ B, A + B, A - B, r * A):
                assert got.values.dtype == np.float64


    def test_difference_holds_its_result_once(self):
        # A sum or difference writes each diagonal once into the array it
        # returns; it keeps no second copy of its diagonals.
        n = 200_000
        rng = np.random.default_rng(5)
        A, B = (
            Diagonals.of({o: _clip(rng.uniform(1, 2, n), o) for o in offsets}, n)
            for offsets in ((-2, -1, 0, 1), (0, 1, 2))
        )
        tracemalloc.start()
        try:
            D = A - B
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert D.offsets.tolist() == [-2, -1, 0, 1, 2]
        assert D.values.nbytes == 8_000_000
        assert peak <= 1.1 * D.values.nbytes

    def test_product_adds_terms_in_ascending_inner_index(self):
        # Three terms meet on every inner entry of the product of two
        # tridiagonal matrices, so the bits of the sum depend on its order.
        rng = np.random.default_rng(3)
        n = 40
        A, B = (
            Diagonals.of(
                {o: _clip(rng.standard_normal(n) + 1j * rng.standard_normal(n), o) for o in (-1, 0, 1)},
                n,
            )
            for _ in range(2)
        )
        want = sp.csr_matrix(to_dense(A)) @ sp.csr_matrix(to_dense(B))
        want.sum_duplicates()
        assert np.array_equal(to_dense(A @ B).view(float), want.toarray().view(float))


    def test_absent_entries_never_meet_an_infinity(self):
        # 0 * inf reads NaN, but compressed rows never form a term of an
        # absent entry: A[1, 1] and every entry of column 1 are absent.
        A = Diagonals.of({0: np.array([1.0, 0.0]), 1: np.array([2.0, 0.0])}, 2)
        B = Diagonals.of({0: np.array([math.inf, math.inf])}, 2)
        for M in (A @ B, B @ A, math.inf * A):
            rows, cols, vals = M.triples()
            assert (rows.tolist(), cols.tolist()) == ([0, 1], [0, 0])
            assert np.all(vals.real == math.inf)


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
        expected = factor * to_dense(materialize(name_b, w, P2).entries)
        got = to_dense(adjoint_matrix(A, P2).entries)
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-300)

    def test_adjoint_is_involutive(self):
        w = TruncationWindow(0, 1, -2, 2)
        for name in ("Xplus", "Kminus", "Lambda", "Torbplus"):
            A = materialize(name, w, P2)
            back = adjoint_matrix(adjoint_matrix(A, P2), P2)
            assert np.allclose(
                to_dense(back.entries), to_dense(A.entries), rtol=1e-14, atol=0.0
            )

    def test_jackson_shift_is_unitary(self):
        # adjoint(Lambda) = Lambda^-1 is the weighted-measure unitarity of
        # the radial shift; same for the polar shift.
        w = TruncationWindow(-2, 2, -2, 2)
        for name, inv in (("Lambda", "Lambda_inv"), ("Lambda_xi", "Lambda_xi_inv")):
            got = to_dense(adjoint_matrix(materialize(name, w, P2), P2).entries)
            want = to_dense(materialize(inv, w, P2).entries)
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_adjoint_keeps_caller_capacity(self, monkeypatch):
        # A matrix built under a raised cap must not be re-checked against
        # the default cap when its adjoint is taken.
        monkeypatch.setattr(lattice, "DEFAULT_WINDOW_CAPACITY", 100)
        w = TruncationWindow(0, 0, -8, 8)
        A = materialize("Xplus", w, P2, capacity=1000)
        got = to_dense(adjoint_matrix(A, P2).entries)
        want = -2.0 * to_dense(materialize("Xminus", w, P2, capacity=1000).entries)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-300)

    def test_mode_raise_adjoint_conjugates_phase(self):
        # (K+)* = -q^-2 K- for every unit phase, because the lowering rule
        # carries the conjugated phase.
        phase = cmath.exp(1.3j)
        p = DeformationParams(q=2.0, theta_phase=phase)
        w = TruncationWindow(0, 0, -2, 3)
        got = to_dense(adjoint_matrix(materialize("Kplus", w, p), p).entries)
        want = -0.25 * to_dense(materialize("Kminus", w, p).entries)
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
