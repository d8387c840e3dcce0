"""Tests for the smooth-function calculus and the q -> 1 convergence studies.

The equivariance block is the bridge between the two realizations: sampling a
single-mode smooth function on the polar lattice and pushing it through the
sparse rules must reproduce the smooth rules evaluated at the lattice points,
on every target whose full preimage stayed inside the sampled window.
"""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuclid import smooth
from qeuclid.core import (
    ALIASES,
    BasisIndex,
    DeformationParams,
    DomainError,
    QeuclidError,
    RangeError,
    TruncationWindow,
    UnknownOperatorError,
    lattice_coordinates,
)
from qeuclid.lattice import LatticeState, build_window
from qeuclid.operators import apply, catalogue_names, get_operator
from qeuclid.smooth import (
    CLASSICAL_RULES,
    DEFORMED_RULES,
    ModeFunction,
    SmoothFunction,
    classical_apply,
    classical_names,
    common_xi_interval,
    convergence_csv,
    deformed_images,
    limit_convergence,
    limit_grid,
    probe_function,
    smooth_apply,
    smooth_names,
)

P2 = DeformationParams(q=2.0)
H_LIST = [0.1, 0.05, 0.025, 0.0125]


def _const_mode():
    return ModeFunction(
        lambda r, x: np.ones_like(np.asarray(x), dtype=float),
        lambda r, x: np.zeros_like(np.asarray(x), dtype=float),
    )


def _poly_mode():
    return ModeFunction(
        lambda r, x: (1.0 + x + 0.5 * x * x) * np.exp(-((r - 1.0) ** 2)),
        lambda r, x: (1.0 + x) * np.exp(-((r - 1.0) ** 2)),
    )


class TestRuleTables:
    def test_deformed_names(self):
        names = smooth_names()
        assert len(names) == 26
        for needed in ("Xplus", "tminus", "Torbplus", "Z_xi", "Lambda_xi"):
            assert needed in names

    def test_classical_names(self):
        assert classical_names() == (
            "L3",
            "Lminus",
            "Lplus",
            "X3_cl",
            "Xminus_cl",
            "Xplus_cl",
        )

    @pytest.mark.parametrize("alias, canonical", sorted(ALIASES.items()))
    def test_aliases_resolve_to_deformed_rules(self, alias, canonical):
        f = SmoothFunction({0: _poly_mode()})
        a = smooth_apply(alias, f, P2)
        b = smooth_apply(canonical, f, P2)
        assert a.mode_indices() == b.mode_indices()
        r, x = np.float64(1.0), np.float64(0.2)
        for m in a.mode_indices():
            assert complex(a.modes[m](r, x)) == complex(b.modes[m](r, x))

    def test_unknown_names_rejected(self):
        f = SmoothFunction({0: _const_mode()})
        with pytest.raises(UnknownOperatorError):
            smooth_apply("Lambda", f, P2)  # radial shift has no smooth rule
        with pytest.raises(UnknownOperatorError):
            classical_apply("L2", f)


class TestFrozenSmoothValues:
    def test_polar_lowering_on_constant_mode(self):
        # (q/lam) * xi^-1 * sqrt(1 - q^2 xi^2) * c(q^2 xi) at q = 2, xi = 0.2
        # with c = 1: (2/1.5) * 5 * sqrt(0.84)
        f = SmoothFunction({0: _const_mode()})
        g = smooth_apply("tminus", f, P2)
        assert g.mode_indices() == [-1]
        val = g.modes[-1](np.float64(1.0), np.float64(0.2))
        assert complex(val) == pytest.approx(6.110100926607787, rel=1e-15)

    def test_polar_raising_on_constant_mode(self):
        # (1/(lam q)) * xi^-1 * sqrt(1 - q^-2 xi^2) at q = 2, xi = 0.2
        f = SmoothFunction({0: _const_mode()})
        g = smooth_apply("tplus", f, P2)
        expected = (1.0 / (1.5 * 2.0)) * 5.0 * math.sqrt(1.0 - 0.01)
        val = g.modes[1](np.float64(1.0), np.float64(0.2))
        assert complex(val) == pytest.approx(expected, rel=1e-15)

    def test_diagonal_polar_generator(self):
        # t3 multiplies every mode by (1 + 1/xi^2)/lam: at q = 2 (lam = 3/2)
        # and xi = 0.5 that is 5/(3/2) = 10/3.
        f = SmoothFunction({0: _const_mode()})
        g = smooth_apply("t3", f, P2)
        val = g.modes[0](np.float64(1.0), np.float64(0.5))
        assert complex(val) == pytest.approx(10.0 / 3.0, rel=1e-14)


class TestCompositionIdentities:
    # Composed functions re-impose the physical strip xi in (0, 1) at every
    # argument scaling, so their recorded domains are conservative; the
    # identities are checked on the surviving interval (0, q^-2) at q = 2.

    def test_polar_shift_inverse_composition(self):
        f = SmoothFunction({0: _poly_mode()})
        g = smooth_apply("Lambda_xi", smooth_apply("Lambda_xi_inv", f, P2), P2)
        xi = np.linspace(0.02, 0.24, 17)
        r = np.full_like(xi, 1.3)
        assert np.allclose(g.modes[0](r, xi), f.modes[0](r, xi), rtol=1e-14)

    def test_polar_shift_conjugates_coordinate_scaling(self):
        # Lambda_xi (xi .) Lambda_xi^-1 = q^2 (xi .)
        f = SmoothFunction({0: _poly_mode()})
        lhs = smooth_apply(
            "Lambda_xi", smooth_apply("xi", smooth_apply("Lambda_xi_inv", f, P2), P2), P2
        )
        rhs = smooth_apply("xi", f, P2)
        xi = np.linspace(0.02, 0.24, 17)
        r = np.full_like(xi, 0.8)
        assert np.allclose(
            lhs.modes[0](r, xi), 4.0 * rhs.modes[0](r, xi), rtol=1e-14
        )


class TestDomainTracking:
    def test_polar_lowering_names_the_scaled_argument(self):
        f = SmoothFunction({0: _const_mode()})
        g = smooth_apply("tminus", f, P2)
        with pytest.raises(DomainError) as exc_info:
            g.modes[-1](np.float64(1.0), np.float64(0.3))  # q^2 xi > 1
        assert "q^2*xi" in exc_info.value.factor
        assert "0.3" in str(exc_info.value)

    def test_mode_lowering_names_the_square_root_factor(self):
        f = SmoothFunction({0: _const_mode()})
        g = smooth_apply("Kminus", f, P2)
        with pytest.raises(DomainError) as exc_info:
            g.modes[-1](np.float64(1.0), np.float64(0.7))  # q^2 xi^2 > 1
        assert "sqrt" in exc_info.value.factor
        assert "0.7" in str(exc_info.value)

    def test_negative_xi_is_outside_the_smooth_sector(self):
        f = SmoothFunction({0: _const_mode()})
        g = smooth_apply("xi", f, P2)
        with pytest.raises(DomainError):
            g.modes[0](np.float64(1.0), np.float64(-0.25))

    def test_missing_derivative_blocks_classical_ladder(self):
        f = SmoothFunction({0: ModeFunction(lambda r, x: np.asarray(x))})
        with pytest.raises(QeuclidError, match="derivative"):
            classical_apply("Lplus", f).modes[1](np.float64(1.0), np.float64(0.3))

    def test_modes_with_their_own_constraints(self):
        # Mode 0 and mode 2 record different constraints: the image keeps
        # each mode's own, in order, and the interval intersects them all.
        a = smooth.XiConstraint(0.1, 0.9, "a")
        b = smooth.XiConstraint(0.0, 0.5, "b", strict=True)
        value = _const_mode().value
        f = SmoothFunction(
            {2: ModeFunction(value, None, (b, a)), 0: ModeFunction(value, None, (a,))}
        )
        g = smooth_apply("tminus", f, P2)
        base = smooth.XiConstraint(0.0, 1.0, "xi inside (0, 1)", strict=True)
        root = smooth.XiConstraint(0.0, 0.5, "sqrt(1 - q^2*xi^2)")
        scaled_a = smooth.XiConstraint(0.025, 0.225, "a at argument q^2*xi")
        scaled_b = smooth.XiConstraint(0.0, 0.125, "b at argument q^2*xi", strict=True)
        assert g.mode_indices() == [-1, 1]
        assert g.modes[-1].constraints == (scaled_a, base, root)
        assert g.modes[1].constraints == (scaled_b, scaled_a, base, root)
        assert common_xi_interval([g]) == (0.025, 0.125)
        with pytest.raises(DomainError, match="factor b at argument"):
            g.modes[1](np.float64(1.0), np.float64(0.125))  # strict bound
        assert g.modes[-1](np.float64(1.0), np.float64(0.2)).dtype == float

    def test_xi_domain_intersects_constraints(self):
        f = SmoothFunction({0: _const_mode()})
        g = smooth_apply("tminus", f, P2)
        lo, hi = g.modes[-1].xi_domain
        assert hi == pytest.approx(0.25)  # scaled-argument bound xi < q^-2
        assert lo == 0.0


class TestLatticeSmoothEquivariance:
    """Sampled single-mode functions transport identically under both rules."""

    WINDOW = TruncationWindow(-1, 1, -6, 8)

    def _sample(self, f: SmoothFunction, m0: int) -> LatticeState:
        amps = {}
        for idx in build_window(self.WINDOW):
            if idx.m != m0 or idx.sigma != 1:
                continue
            r, xi, _ = lattice_coordinates(idx, P2)
            amps[idx] = complex(f.modes[m0](np.float64(r), np.float64(xi)))
        return LatticeState(amps)

    @pytest.mark.parametrize("name", sorted(set(smooth_names()) & set(catalogue_names())))
    @pytest.mark.parametrize("m0", [0, 2])
    def test_transport_matches_smooth_rule(self, name, m0):
        f = SmoothFunction({m0: _poly_mode()})
        psi = self._sample(f, m0)
        g = smooth_apply(name, f, P2)
        out = apply(name, psi, P2)
        branches = get_operator(name).branches
        compared = 0
        for tgt, amp in out.amplitudes.items():
            interior = True
            for br in branches:
                src = tgt.shifted(-br.dM, -br.dmt, -br.dm)
                if src.is_valid() and src.m == m0 and src not in psi.amplitudes:
                    interior = False
            if not interior or tgt.m not in g.modes:
                continue
            r, xi, _ = lattice_coordinates(tgt, P2)
            lo, hi = g.modes[tgt.m].xi_domain
            if not (lo < xi < hi):
                # Boundary ring of a branch whose coefficient vanishes
                # there: the composite's recorded domain excludes the point.
                continue
            want = complex(g.modes[tgt.m](np.float64(r), np.float64(xi)))
            assert amp == pytest.approx(want, rel=1e-12, abs=1e-250), f"{name} at {tgt}"
            compared += 1
        if name == "Torb3" and m0 == 0:
            # (1 - q^0)/lam: both realizations vanish on mode 0.
            assert len(out) == 0
            r, xi = np.array([0.5, 1.0, 2.0]), np.array([0.1, 0.4, 0.8])
            assert not np.any(g.modes[0](r, xi))
        else:
            assert compared >= 4, f"{name}: vacuous comparison"


class TestProbeFunction:
    def test_mode_amplitudes_are_deterministic(self):
        f = probe_function([-2, 0, 1], degree=3)
        xi = np.float64(0.4)
        base = sum(0.4**k / (1 + k) for k in range(4))
        assert float(f.modes[0](np.float64(1.0), xi)) == pytest.approx(base, rel=1e-14)
        assert float(f.modes[-2](np.float64(1.0), xi)) == pytest.approx(
            base / 9.0, rel=1e-14
        )
        assert float(f.modes[1](np.float64(2.0), xi)) == pytest.approx(
            (base / 3.0) * math.exp(-1.0), rel=1e-14
        )

    def test_derivative_is_analytic(self):
        f = probe_function([0], degree=2)
        xi = np.float64(0.3)
        got = float(f.modes[0].derivative(np.float64(1.0), xi))
        assert got == pytest.approx(0.5 + 2.0 * 0.3 / 3.0, rel=1e-14)


class TestClassicalLimits:
    @pytest.mark.parametrize(
        "deformed, classical, low, high",
        [
            ("Torb3", "L3", 0.8, 1.2),
            ("Torbplus", "Lplus", 0.8, 1.2),
            ("Torbminus", "Lminus", 0.8, 1.2),
            ("Xminus", "Xminus_cl", 0.8, 1.2),
        ],
    )
    def test_first_order_convergence(self, deformed, classical, low, high):
        f = probe_function(range(-3, 4))
        res = limit_convergence(limit_grid(deformed, f, H_LIST), classical)
        assert res.monotone_decreasing
        assert res.slope is not None
        assert low <= res.slope <= high

    def test_raising_coordinate_converges_monotonically(self):
        # The raising-coordinate error decays but saturates the square-root
        # edge of its domain, so only monotone convergence is pinned here.
        f = probe_function(range(-3, 4))
        res = limit_convergence(limit_grid("Xplus", f, H_LIST), "Xplus_cl")
        assert res.monotone_decreasing
        assert res.rows[-1][1] < 0.25 * res.rows[0][1]

    def test_diagonal_coordinate_is_exact_at_every_h(self):
        f = probe_function(range(-3, 4))
        res = limit_convergence(limit_grid("X3", f, H_LIST), "X3_cl")
        assert res.all_zero
        assert res.slope is None

    def test_wrong_phase_diverges(self):
        f = probe_function(range(-3, 4))
        grid = limit_grid("Torbplus", f, H_LIST, theta_phase=1.0)
        res = limit_convergence(grid, "Lplus")
        errs = [e for _, e, _ in res.rows]
        assert all(errs[i] < errs[i + 1] for i in range(len(errs) - 1))
        assert not res.monotone_decreasing
        assert res.slope is not None and res.slope < 0.0

    def test_rejects_nonpositive_h(self):
        f = probe_function([0])
        with pytest.raises(ValueError):
            limit_grid("X3", f, [0.1, -0.05])

    def test_csv_is_byte_stable(self):
        f = probe_function(range(-1, 2))
        grid = limit_grid("Torb3", f, [0.1, 0.05])
        res = limit_convergence(grid, "L3")
        body = convergence_csv(res)
        assert body.splitlines()[0] == "h,error,slope"
        assert body == convergence_csv(limit_convergence(grid, "L3"))


class TestFeasibleGrid:
    def test_interval_shrinks_with_scaled_arguments(self):
        f = probe_function([0])
        lo, hi = common_xi_interval(deformed_images("tminus", f, [0.1]))
        assert hi == pytest.approx(math.exp(-0.2), rel=1e-12)

    def test_grid_respects_bounds(self):
        f = probe_function(range(-2, 3))
        grid = limit_grid("Torbminus", f, H_LIST, n=31)
        assert len(grid.xi) == 31
        assert grid.xi[0] >= 0.1
        assert grid.xi[-1] <= 0.9

    def test_infeasible_interval_raises(self):
        f = probe_function([0])
        with pytest.raises(DomainError, match="no feasible xi interval"):
            limit_grid("tminus", f, [3.0])


def _nan_mode():
    return ModeFunction(
        lambda r, x: np.full(np.broadcast_shapes(np.shape(r), np.shape(x)), np.nan)
    )


class TestStackedEvaluation:
    """An image evaluates all its modes in one pass per branch, bit for bit
    as a pass over each mode alone."""

    R_MESH = np.array([[0.5], [1.0], [1.5]])

    @pytest.mark.parametrize("table", [DEFORMED_RULES, CLASSICAL_RULES])
    def test_every_rule_has_one_mode_shift(self, table):
        for name, branches in table.items():
            assert len({br.dm for br in branches}) == 1, name

    @settings(max_examples=60, deadline=None)
    @given(
        modes=st.lists(st.integers(-6, 6), min_size=1, max_size=8, unique=True),
        samples=st.integers(1, 60),
        rule=st.sampled_from(
            [(n, False) for n in sorted(DEFORMED_RULES)]
            + [(n, True) for n in sorted(CLASSICAL_RULES)]
        ),
        q=st.sampled_from([1.05, 1.7]),
        phase=st.sampled_from([-1.0, 1.0, cmath.exp(0.7j)]),
    )
    def test_each_mode_matches_its_single_mode_image(self, modes, samples, rule, q, phase):
        name, classical = rule
        p = DeformationParams(q=q, theta_phase=phase)

        def run(g):
            return classical_apply(name, g) if classical else smooth_apply(name, g, p)

        f = probe_function(modes)
        xi = np.linspace(0.05, 0.95, samples)
        r, x = np.broadcast_arrays(self.R_MESH, xi)
        image = run(f)
        for m in f.mode_indices():
            alone = run(SmoothFunction({m: f.modes[m]}))
            (t,) = alone.mode_indices()
            for call in ("__call__", "derivative"):
                if call == "derivative" and image.modes[t].dxi is None:
                    assert alone.modes[t].dxi is None
                    continue
                try:
                    want = getattr(alone.modes[t], call)(r, x)
                except DomainError as exc:
                    with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                        getattr(image.modes[t], call)(r, x)
                    continue
                got = getattr(image.modes[t], call)(r, x)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (name, m, call)

    def test_limit_evaluates_the_probe_once_per_image_and_branch(self, monkeypatch):
        # Torbplus has two branches, Lplus one that also reads derivatives:
        # 4 deformed images x 2 branches + 1 classical value pass, and one
        # classical derivative pass, whatever the number of modes.
        calls = []
        stack = smooth._Probe._stack

        def spy(self, r, x, d):
            calls.append(d)
            return stack(self, r, x, d)

        f = probe_function(range(-6, 7))
        grid = limit_grid("Torbplus", f, H_LIST)
        monkeypatch.setattr(smooth._Probe, "_stack", spy)
        limit_convergence(grid, "Lplus")
        assert calls.count(False) == 9
        assert calls.count(True) == 1

    @pytest.mark.parametrize(
        "deformed, classical", [("Torbplus", "L3"), ("Xminus", "Lplus"), ("Torb3", "L3")]
    )
    def test_error_is_the_largest_mode_by_mode_difference(self, deformed, classical):
        # Reference: the mode-by-mode fold, a mode missing on one side read
        # as 0 (the first two pairs shift the modes differently).
        f = probe_function(range(-3, 4))
        grid = limit_grid(deformed, f, H_LIST)
        res = limit_convergence(grid, classical)
        r_mesh, xi_mesh = np.meshgrid(np.array([0.5, 1.0, 1.5]), grid.xi, indexing="ij")
        fcl = classical_apply(classical, f)
        for (h, err, _), fq in zip(res.rows, grid.images):
            want = 0.0
            for m in sorted(set(fq.mode_indices()) | set(fcl.mode_indices())):
                a = fq.modes[m](r_mesh, xi_mesh) if m in fq else 0.0
                b = fcl.modes[m](r_mesh, xi_mesh) if m in fcl else 0.0
                want = max(want, float(np.max(np.abs(np.asarray(a) - np.asarray(b)))))
            assert err == want, h

    def test_domain_error_names_the_deformed_mode_first(self):
        # Xplus_cl reads no derivative and records no constraint of its own:
        # a grid outside (0, 1) trips every mode, and the deformed one of
        # the lowest mode is reported.
        f = probe_function([0, 1])
        grid = limit_grid("Xplus", f, [0.1])
        bad = smooth.LimitGrid(
            grid.deformed, f, grid.theta_phase, grid.h_values, grid.images,
            np.array([0.5, 1.5]),
        )
        with pytest.raises(DomainError, match="xi = 1.5") as exc_info:
            limit_convergence(bad, "Xplus_cl")
        assert "q^-2*xi" in exc_info.value.factor

    @pytest.mark.parametrize(
        "modes, deformed, classical, xi, factor, text",
        [
            # The classical image's mode -1 lies below the deformed modes 1, 2.
            ([0, 1], "Xplus", "Lminus", [0.5, 1.5], "xi inside (0, 1)",
             "xi = 1.5 is outside [0.0, 1.0] required by factor xi inside (0, 1)"),
            # The deformed mode -1 breaks its square root, recorded after (0, 1).
            ([-2, -1], "Kplus", "Lplus", [0.2, 0.8], "sqrt(1 - q^6*xi^2)",
             "xi = 0.8 is outside [0.0, 0.7408182206817175] required by factor "
             "sqrt(1 - q^6*xi^2)"),
            # Both break (0, 1) at mode -1, which Kplus records first.
            ([-2, -1], "Kplus", "Lplus", [0.2, 1.0], "xi inside (0, 1)",
             "xi = 1.0 is outside [0.0, 1.0] required by factor xi inside (0, 1)"),
        ],
    )
    def test_domain_error_names_the_first_offender(
        self, modes, deformed, classical, xi, factor, text
    ):
        # Texts recorded from the per-mode constraint check this table replaced.
        f = probe_function(modes)
        grid = limit_grid(deformed, f, [0.1, 0.05])
        bad = smooth.LimitGrid(
            grid.deformed, f, grid.theta_phase, grid.h_values, grid.images, np.array(xi)
        )
        with pytest.raises(DomainError) as exc_info:
            limit_convergence(bad, classical)
        assert str(exc_info.value) == text
        assert exc_info.value.factor == factor


class TestNonFiniteAndRange:
    def test_non_finite_mode_error_is_not_a_pass(self):
        f = SmoothFunction({0: probe_function([0])[0], 1: _nan_mode()})
        res = limit_convergence(limit_grid("X3", f, (0.1, 0.05)), "X3_cl")
        assert not res.all_zero
        assert all(math.isnan(e) for _, e, _ in res.rows)
        assert res.slope is None
        assert not res.monotone_decreasing

    @pytest.mark.parametrize("h", [800.0, 400.0, 100.0, 1e-20])
    def test_out_of_range_h_is_a_range_error(self, h):
        with pytest.raises(RangeError, match=f"h = {h!r} is out of range"):
            limit_grid("Torb3", probe_function(range(-3, 4)), [0.05, h])

    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan])
    def test_non_positive_h_is_refused(self, h):
        # A NaN h fails the positivity test too, before any power of q is read.
        with pytest.raises(ValueError, match="h values must be positive"):
            deformed_images("Torb3", probe_function([0]), [0.05, h])

    def test_range_follows_the_modes(self):
        # q^(4|m| + 2) must stay normal: h = 50 passes on |m| <= 3 only.
        limit_grid("Torb3", probe_function(range(-3, 4)), [50.0])
        with pytest.raises(RangeError, match=re.escape("q^18,")):
            limit_grid("Torb3", probe_function(range(-4, 5)), [50.0])

    def test_vanishing_argument_scale_is_a_range_error(self):
        # q^-2 underflows to 0: no division by zero while recording domains.
        with pytest.raises(RangeError, match=re.escape("q^-2 = 0.0")):
            smooth_apply("tplus", probe_function([0]), DeformationParams(q=1e200))
