"""Tests for deformation parameters, lattice indexing, coordinates and weights."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuclid import core
from qeuclid.core import (
    BasisIndex,
    DeformationParams,
    TruncationWindow,
    canonical_key,
    jackson_weight,
    lattice_coordinates,
    qpow,
    qpow_array,
    validate_index,
)
from qeuclid.lattice import build_window
from qeuclid.operators import spectrum_diagonal


class TestQpow:
    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [-37, -8, -1, 0, 1, 2, 17, 40])
    def test_matches_float_power(self, q, n):
        assert qpow(q, n) == pytest.approx(q**n, rel=1e-14)

    def test_zero_power_is_exact_one(self):
        assert qpow(1.7, 0) == 1.0

    @given(
        q=st.floats(min_value=1.05, max_value=4.0),
        n=st.integers(min_value=-60, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_inverse_symmetry(self, q, n):
        assert qpow(q, -n) == pytest.approx(1.0 / qpow(q, n), rel=1e-13)

    @pytest.mark.parametrize(
        "n",
        [
            # Dense: a table over min..max.
            np.arange(-61, 62, 2).repeat(300).reshape(-1, 3),
            # Sparse: few entries spread wider than the table would pay off.
            np.array([-900, -3, 0, 7, 512, 1200]),
            # Far apart: labels may reach 2^59.
            np.array([-(2**61), -(2**59), -1, 0, 1, 2**59, 2**61 + 3]),
            np.array([[5, 5], [5, 5]]),
            # One distinct exponent, as the smooth rules pass for every mode.
            np.full(13, -2),
            np.array(-7),
            np.zeros(0, dtype=np.int64),
        ],
    )
    @pytest.mark.parametrize("q", [1.01, 1.5, 40.0])
    def test_array_powers_are_the_scalar_powers(self, q, n):
        got = qpow_array(q, n)
        assert got.shape == n.shape and got.dtype == np.float64
        want = np.array([qpow(q, k) for k in n.ravel().tolist()], dtype=np.float64)
        assert np.array_equal(got.ravel().view(np.int64), want.view(np.int64))

    def test_short_arrays_are_not_tabled(self, monkeypatch):
        # 13 entries spanning 49 exponents: one qpow per entry, not 49.  An
        # array with at least as many entries as its span keeps the table.
        calls = []
        real = core.qpow

        def counting(q, k):
            calls.append(k)
            return real(q, k)

        monkeypatch.setattr(core, "qpow", counting)
        for n, want in (
            (-4 * np.arange(-6, 7), (-4 * np.arange(-6, 7)).tolist()),
            (np.arange(-3, 4).repeat(2), list(range(-3, 4))),
            (np.array([5, 5, 5]), [5]),
            # More than 64 entries spread wider: one qpow per distinct exponent.
            (np.arange(0, 200, 2), list(range(0, 200, 2))),
        ):
            calls.clear()
            got = qpow_array(1.3, n)
            assert calls == want
            expect = np.array([real(1.3, k) for k in n.tolist()])
            assert np.array_equal(got.view(np.int64), expect.view(np.int64))

    def test_params_take_an_int_array_of_exponents(self):
        # The smooth rules read a mode-dependent power for all modes at once.
        p = DeformationParams(q=1.7)
        n = -4 * np.arange(-6, 7).reshape(-1, 1, 1)
        got = p.qpow(n)
        assert got.shape == n.shape
        assert got.ravel().tolist() == [p.qpow(int(k)) for k in n.ravel()]
        assert isinstance(p.qpow(3), float)


def _exponents(draw_kind, lo, span, size, seed):
    """One exponent array of a kind: short (fewer entries than its span),
    long (within the span that qpow_array tables), or far (out to 2^59)."""
    rng = np.random.default_rng(seed)
    if draw_kind == "far":
        return rng.integers(-(2**59), 2**59, size, endpoint=True)
    if draw_kind == "short":
        size = min(size, 64, max(span, 1))
    else:
        span = min(span, max(size // 16, 64))
    return rng.integers(lo, lo + span, size, endpoint=True)


class TestPowerTable:
    @given(
        q=st.floats(1.0, 40.0, exclude_min=True),
        requests=st.lists(
            st.tuples(
                st.sampled_from(["short", "long", "far"]),
                st.integers(-300, 300),
                st.integers(0, 400),
                st.integers(1, 3000),
                st.integers(0, 2**32),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_table_per_params_keeps_the_scalar_bits(self, q, requests):
        # Short, long and far arrays, overlapping or disjoint, on one params
        # instance: every power has the bits of qpow, the table spans no
        # more than the widest bound of a request that qpow_array tables,
        # and the instance still equals, and hashes as, a fresh one.
        p = DeformationParams(q=q)
        points = core.Points(BasisIndex(*[np.zeros(0, dtype=np.int64)] * 4), p)
        widest = 0
        for request in requests:
            n = _exponents(*request)
            got = points.q(n)
            want = np.array([qpow(q, k) for k in n.tolist()], dtype=np.float64)
            assert got.shape == n.shape and got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            lo, hi = int(n.min()), int(n.max())
            if lo < hi and n.size > min(hi - lo, 64):  # an array that qpow_array tables
                widest = max(widest, n.size // 16, 64)
            assert (len(p._powers[1]) if p._powers else 0) <= widest + 1
        fresh = DeformationParams(q=q)
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        assert dataclasses.replace(p)._powers == []

    def test_a_covered_request_calls_no_qpow(self, monkeypatch):
        # The table grows once for a long array; a later array inside its
        # span, short or long, is read from it without a qpow call.
        calls = []
        real = core.qpow
        monkeypatch.setattr(core, "qpow", lambda q, k: calls.append(k) or real(q, k))
        p = DeformationParams(q=1.5)
        points = core.Points(BasisIndex(*[np.zeros(0, dtype=np.int64)] * 4), p)
        points.q(np.arange(-60, 61).repeat(20))
        assert calls == list(range(-60, 61))
        calls.clear()
        for n in (np.array([-60, 7, 60]), np.arange(-30, 30).repeat(40), np.array([4])):
            assert np.array_equal(points.q(n), [real(1.5, k) for k in n.tolist()])
        assert calls == []


class TestDeformationParams:
    def test_lam_value(self):
        p = DeformationParams(q=2.0)
        assert p.lam == pytest.approx(1.5)

    @pytest.mark.parametrize("bad_q", [1.0, 0.5, 0.0, -2.0])
    def test_rejects_degenerate_q(self, bad_q):
        with pytest.raises(ValueError):
            DeformationParams(q=bad_q)

    @pytest.mark.parametrize("bad_r0", [0.0, -1.0])
    def test_rejects_nonpositive_r0(self, bad_r0):
        with pytest.raises(ValueError):
            DeformationParams(q=2.0, r0=bad_r0)

    def test_accepts_any_unit_phase(self):
        phase = complex(math.cos(0.7), math.sin(0.7))
        p = DeformationParams(q=2.0, theta_phase=phase)
        assert abs(p.theta_phase) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad_theta", [0.0j, -2.0 + 0.0j, 0.5j])
    def test_rejects_non_unit_theta_phase(self, bad_theta):
        with pytest.raises(ValueError):
            DeformationParams(q=2.0, theta_phase=bad_theta)

    def test_frozen(self):
        p = DeformationParams(q=2.0)
        with pytest.raises(AttributeError):
            p.q = 3.0

    def test_qpow_method(self):
        p = DeformationParams(q=1.5)
        assert p.qpow(-3) == pytest.approx(1.5**-3, rel=1e-14)


class TestBasisIndex:
    def test_mk_is_mode_offset(self):
        assert BasisIndex(0, 1, -4, -1).mk == 3

    @pytest.mark.parametrize(
        "idx, valid",
        [
            (BasisIndex(0, 1, 0, 0), True),
            (BasisIndex(-2, -1, -3, 5), True),
            (BasisIndex(0, 1, 1, 1), False),   # mt > 0 off the lattice
            (BasisIndex(0, 1, -2, -3), False),  # m below the mode floor
            (BasisIndex(0, 2, 0, 0), False),   # sigma not a sign
        ],
    )
    def test_is_valid(self, idx, valid):
        assert idx.is_valid() is valid

    @pytest.mark.parametrize(
        "idx", [(2**59 + 1, 1, 0, 0), (0, 1, -(2**59) - 1, 0), (0, 1, 0, 2**59 + 1)]
    )
    def test_rejects_labels_beyond_the_limit(self, idx):
        # Labels this large would overflow the int64 exponents of the
        # array paths.
        with pytest.raises(ValueError, match="2\\^59"):
            validate_index(BasisIndex(*idx))

    def test_shifted(self):
        idx = BasisIndex(1, -1, -2, 0)
        assert idx.shifted(1, -1, 2) == BasisIndex(2, -1, -3, 2)

    def test_canonical_order_positive_sector_first(self):
        plus = BasisIndex(0, 1, 0, 0)
        minus = BasisIndex(0, -1, 0, 0)
        assert canonical_key(plus) < canonical_key(minus)

    def test_canonical_order_ascending_in_M_mt_m(self):
        a = BasisIndex(0, 1, -1, -1)
        b = BasisIndex(0, 1, -1, 0)
        c = BasisIndex(0, 1, 0, 0)
        d = BasisIndex(1, 1, -1, -1)
        keys = [canonical_key(x) for x in (a, b, c, d)]
        assert keys == sorted(keys)


class TestTruncationWindow:
    def test_size_formula(self):
        assert TruncationWindow(0, 0, 0, 0).size == 2
        assert TruncationWindow(0, 0, -1, 1).size == 8
        assert TruncationWindow(-1, 1, -2, 2).size == 54
        assert TruncationWindow(-1, 1, -8, 8).size == 486

    def test_iteration_matches_size_and_order(self):
        w = TruncationWindow(-1, 0, -2, 3)
        indices = build_window(w)
        assert len(indices) == w.size
        keys = [canonical_key(i) for i in indices]
        assert keys == sorted(keys)
        assert all(i.is_valid() for i in indices)
        assert all(w.contains(i) for i in indices)

    def test_index_arrays_are_built_once_and_read_only(self):
        w = TruncationWindow(-1, 0, -2, 3)
        ix = w.index_arrays()
        assert w.index_arrays() is ix
        for a in ix:
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            ix.M[0] = 5

    def test_contains_rejects_out_of_window(self):
        w = TruncationWindow(0, 0, -2, 2)
        assert not w.contains(BasisIndex(1, 1, 0, 0))
        assert not w.contains(BasisIndex(0, 1, -3, -3))
        assert not w.contains(BasisIndex(0, 1, -1, 2))  # mk = 3 > k_max

    @pytest.mark.parametrize(
        "args",
        [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1),
         (0, 2**59 + 1, 0, 0), (0, 0, -(2**59) - 1, 0), (0, 0, 0, 2**59 + 1)],
    )
    def test_rejects_malformed_bounds(self, args):
        with pytest.raises(ValueError):
            TruncationWindow(*args)


class TestLatticeCoordinates:
    @pytest.mark.parametrize("q", [1.5, 2.0])
    @pytest.mark.parametrize(
        "idx",
        [
            BasisIndex(0, 1, 0, 0),
            BasisIndex(1, -1, -2, 1),
            BasisIndex(-2, 1, -5, -3),
        ],
    )
    def test_against_literal_powers(self, q, idx):
        p = DeformationParams(q=q, r0=1.25)
        r, xi, xihat = lattice_coordinates(idx, p)
        assert r == pytest.approx(1.25 * q ** (4 * idx.M + 2), rel=1e-14)
        assert xi == pytest.approx(idx.sigma * q ** (2 * idx.mt - 1), rel=1e-14)
        assert xihat == pytest.approx(
            idx.sigma * q ** (2 * (idx.mt - idx.m) - 1), rel=1e-14
        )

    def test_jackson_weight_literal(self):
        p = DeformationParams(q=2.0)
        idx = BasisIndex(1, -1, -3, 0)
        assert jackson_weight(idx, p) == pytest.approx(
            2.0 ** (4 * 1) * 2.0 ** (2 * -3), rel=1e-14
        )

    def test_weight_is_sigma_and_mode_independent(self):
        p = DeformationParams(q=1.5)
        a = jackson_weight(BasisIndex(0, 1, -2, 0), p)
        b = jackson_weight(BasisIndex(0, -1, -2, 4), p)
        assert a == b


def _eigenvalue(name: str, idx: BasisIndex, p: DeformationParams) -> float:
    """The eigenvalue that a diagonal catalogue row gives one basis state."""
    w = TruncationWindow(idx.M, idx.M, idx.mt, idx.m - idx.mt)
    return dict(spectrum_diagonal(name, w, p))[idx]


class TestClosedFormEigenvalues:
    def test_t3_at_origin_q2(self):
        p = DeformationParams(q=2.0)
        assert _eigenvalue("t3", BasisIndex(0, 1, 0, 0), p) == pytest.approx(10.0 / 3.0, rel=1e-15)

    def test_tauk_at_origin_q2(self):
        p = DeformationParams(q=2.0)
        assert _eigenvalue("tau_k", BasisIndex(0, 1, 0, 0), p) == pytest.approx(-0.25, rel=1e-15)

    def test_torb3_vanishes_at_mode_zero(self):
        p = DeformationParams(q=2.0)
        assert _eigenvalue("Torb3", BasisIndex(0, 1, 0, 0), p) == 0.0

    @pytest.mark.parametrize("q", [1.1, 2.0, 3.0])
    def test_t3_literal_formula(self, q):
        p = DeformationParams(q=q)
        for mt in (0, -1, -4):
            expected = (1.0 + q ** (2 - 4 * mt)) / (q - 1.0 / q)
            assert _eigenvalue("t3", BasisIndex(0, 1, mt, mt), p) == pytest.approx(expected, rel=1e-13)
