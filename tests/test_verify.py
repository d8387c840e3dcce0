"""Tests for the verification engine: residuals, suites, reports, controls.

The negative controls are as important as the positive runs: a perturbed
relation, a wrong adjoint sign, and the wrong ladder phase must all FAIL,
otherwise the residual machinery is vacuous.
"""

import json
import math

import pytest

from oracle import oracle_action
from qeuclid import lattice, operators, verify
from qeuclid.core import DeformationParams, QeuclidError, TruncationWindow
from qeuclid.lattice import build_window
from qeuclid.verify import (
    ADJOINT_PAIRS,
    K_RELATIONS,
    RelationSpec,
    SUITE_NAMES,
    Term,
    X_RELATIONS,
    check_adjointness,
    check_recursions,
    check_relations,
    check_tensor_torb,
    interior_positions,
    j_recursion_residual,
    j_solution,
    phi_solution,
    run_all_suites,
    run_suite,
    window_label,
    word_matrix,
)

P2 = DeformationParams(q=2.0)
W = TruncationWindow(0, 0, -6, 6)
#: 578 states: above DENSE_ORACLE_LIMIT, so the dense second path is off.
W_SPARSE = TruncationWindow(0, 0, -16, 16)
TOL = 1e-12


@pytest.fixture(scope="module")
def suites():
    return run_all_suites(W, P2, TOL)


class TestAllSuitesPass:
    def test_every_suite_passes(self, suites):
        assert tuple(suites) == SUITE_NAMES
        for name, report in suites.items():
            assert report.passed, f"suite {name} failed"

    def test_asserted_residuals_are_tiny(self, suites):
        for report in suites.values():
            for check in report.checks:
                if check.asserted:
                    assert check.max_interior_residual <= TOL, check.id

    def test_adjointness_is_exact(self, suites):
        for check in suites["adjointness"].checks:
            assert check.max_interior_residual == 0.0

    def test_commutant_is_exact(self, suites):
        for check in suites["commutant"].checks:
            assert check.max_interior_residual == 0.0

    def test_lowest_weight_is_exact(self, suites):
        (check,) = suites["lowest_weight"].checks
        assert check.max_interior_residual == 0.0
        assert check.tolerance == 0.0

    def test_homomorphism_has_one_asserted_check(self, suites):
        checks = suites["homomorphism"].checks
        asserted = [c for c in checks if c.asserted]
        assert [c.id for c in asserted] == ["hopping_from_coordinate_ladder"]
        assert len(checks) == 7  # plus six report-only ladder templates

    def test_tensor_positive_sector_is_exact_at_determined_phase(self, suites):
        for check in suites["tensor"].checks:
            if check.id.endswith("sector_plus"):
                assert check.asserted
                assert check.max_interior_residual == 0.0

    def test_mirror_sector_discrepancy_is_reported_not_asserted(self, suites):
        minus = [c for c in suites["tensor"].checks if c.id.endswith("sector_minus")]
        assert len(minus) == 3
        assert all(not c.asserted for c in minus)
        assert all(c.passed for c in minus)  # report-only: tolerance is inf


class TestNegativeControls:
    def test_perturbed_exchange_relation_fails(self):
        wrong = RelationSpec(
            id="x_raise_exchange_wrong_power",
            lhs=(Term(lambda p: 1.0, ("X3", "Xplus")),),
            rhs=(Term(lambda p: p.q, ("Xplus", "X3")),),
        )
        (report,) = check_relations([wrong], W, P2, TOL)
        assert report.max_interior_residual >= 0.1
        assert not report.passed

    def test_wrong_adjoint_sign_fails(self):
        wrong_pair = ("Kplus", lambda p: p.qpow(-2), "Kminus")
        (report,) = check_adjointness([wrong_pair], W, P2, TOL)
        assert report.max_interior_residual > 0.1
        assert not report.passed

    def test_wrong_ladder_phase_fails_tensor_assembly(self):
        p_plus = DeformationParams(q=2.0, theta_phase=1.0 + 0.0j)
        checks = check_tensor_torb(W, p_plus, TOL)
        by_id = {c.id: c for c in checks}
        assert not by_id["tensor_Torbplus_sector_plus"].passed
        assert not by_id["tensor_Torbminus_sector_plus"].passed
        # the diagonal assembly carries no phase and must still pass
        assert by_id["tensor_Torb3_sector_plus"].passed

    def test_wrong_phase_fails_the_whole_suite(self):
        p_plus = DeformationParams(q=2.0, theta_phase=1.0 + 0.0j)
        report = run_suite("tensor", W, p_plus, TOL)
        assert not report.passed


class TestWordMatrices:
    def test_leakage_counts_window_escapes(self):
        letters = {}
        _, leak = word_matrix(("Xminus",), W, P2, letters)
        assert leak > 0.0  # the bottom polar row exits the window
        _, leak_diag = word_matrix(("X3",), W, P2, letters)
        assert leak_diag == 0.0

    @pytest.mark.parametrize("w", [W, W_SPARSE], ids=["98", "578"])
    @pytest.mark.parametrize(
        "word", [("Xminus",), ("Xminus", "Xplus"), ("Torbplus", "Torbminus")]
    )
    def test_leakage_matches_oracle_walk(self, word, w):
        # Walk every column through the oracle rules one letter at a time,
        # summing |amp * c|^2 of each amplitude that lands outside the window.
        def inside(idx):
            M, _, mt, m = idx
            return (
                w.M_min <= M <= w.M_max
                and w.mt_min <= mt <= 0
                and 0 <= m - mt <= w.k_max
            )

        expected = 0.0
        for col in w.iter_indices():
            cur = {tuple(col): 1.0 + 0.0j}
            for name in reversed(word):
                nxt = {}
                for src, amp in cur.items():
                    for tgt, c in oracle_action(name, src, P2.q).items():
                        if inside(tgt):
                            nxt[tgt] = nxt.get(tgt, 0.0) + amp * c
                        else:
                            expected += abs(amp * c) ** 2
                cur = nxt
        _, leak = word_matrix(word, w, P2)
        assert leak == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_overflowed_leakage_meets_no_zero(self):
        # At q = 40 and M = 24 the squared ladder coefficients overflow to
        # inf.  X- leaks inf from the bottom row, which X+ never reaches,
        # and X+ reaches the top row with inf weight, where X- leaks
        # nothing: no amplitude is dropped, and no 0 * inf may read NaN.
        w = TruncationWindow(24, 24, -1, 0)
        _, leak = word_matrix(("Xminus", "Xplus"), w, DeformationParams(q=40.0))
        assert leak == 0.0

    def test_interior_positions_match_reported_exclusions(self):
        order = build_window(W)
        reports = {r.id: r for r in check_relations(X_RELATIONS, W, P2, TOL)}
        lower = reports["x_lower_exchange"]
        words = [t.word for spec in X_RELATIONS if spec.id == "x_lower_exchange"
                 for t in spec.lhs + spec.rhs]
        interior = interior_positions(words, W, order)
        assert len(order) - len(interior) == lower.boundary_rows_excluded
        assert lower.boundary_rows_excluded == 14  # both mt = mt_min rows

    def test_raise_exchange_needs_no_exclusions(self):
        reports = {r.id: r for r in check_relations(X_RELATIONS, W, P2, TOL)}
        assert reports["x_raise_exchange"].boundary_rows_excluded == 0

    def test_relation_catalogue_ids(self):
        assert [s.id for s in X_RELATIONS] == [
            "x_raise_exchange",
            "x_lower_exchange",
            "x_ladder_commutator",
        ]
        assert [s.id for s in K_RELATIONS] == [
            "k_raise",
            "k_lower",
            "k_exchange",
        ]

    def test_adjoint_pair_catalogue_is_complete(self):
        names = [(a, b) for a, _, b in ADJOINT_PAIRS]
        assert ("Xplus", "Xminus") in names
        assert ("tplus", "tminus") in names
        assert ("Kplus", "Kminus") in names
        assert ("Lambda", "Lambda_inv") in names
        assert len(ADJOINT_PAIRS) == 10


class TestRecursions:
    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0])
    def test_recursion_checks_pass(self, q):
        p = DeformationParams(q=q)
        for report in check_recursions(p):
            assert report.passed, report.id

    def test_phi_value_at_zero_is_exact(self):
        assert float(phi_solution(0.0, P2)) == -0.4  # -q/(1+q^2) at q = 2

    def test_phi_nonpositive_on_core_interval(self):
        import numpy as np

        x = np.linspace(0.0, 0.5, 101)  # (0, 1/q] at q = 2
        assert float(np.max(phi_solution(x, P2))) <= 0.0

    def test_j_recursion_beta_is_kernel_freedom(self):
        for beta in (0.0, 1.0, -2.5):
            assert j_recursion_residual(P2, beta=beta) <= 1e-13

    def test_j_solution_closed_form(self):
        # J(x) = -(1 + beta x - q^2 x^2)/lam^2 at q = 2, x = 0.5, beta = 0
        assert float(j_solution(0.5, P2)) == pytest.approx(0.0, abs=1e-15)
        assert float(j_solution(0.0, P2)) == pytest.approx(-1.0 / 1.5**2)


class TestReports:
    def test_check_json_key_set(self):
        report = run_suite("x_relations", W, P2, TOL)
        for check in report.checks:
            d = check.to_json_dict()
            assert set(d) == {
                "id",
                "window",
                "q",
                "residual",
                "pass",
                "leakage",
                "excluded_rows",
            }

    def test_window_label_format(self):
        assert window_label(W) == "0:0,-6,6"
        assert window_label(TruncationWindow(-1, 1, -8, 8)) == "-1:1,-8,8"

    def test_suite_json_is_byte_stable(self):
        a = run_suite("casimir", W, P2, TOL).to_json()
        b = run_suite("casimir", W, P2, TOL).to_json()
        assert a == b
        doc = json.loads(a)
        assert set(doc) == {"suite", "config", "checks", "pass"}
        assert doc["pass"] is True
        assert doc["config"]["window"] == "0:0,-6,6"
        assert doc["config"]["theta_phase"] == [-1.0, 0.0]

    def test_unknown_suite_rejected(self):
        with pytest.raises(QeuclidError, match="unknown suite"):
            run_suite("bogus", W, P2, TOL)


class TestSuiteDriver:
    def test_suites_look_up_checks_at_call_time(self, monkeypatch):
        # A wrapper installed on the module attribute sees the suite's call.
        seen = []
        real = verify.check_relations

        def spy(specs, *args, **kwargs):
            seen.append(specs)
            return real(specs, *args, **kwargs)

        monkeypatch.setattr(verify, "check_relations", spy)
        run_suite("casimir", W, P2, TOL)
        assert seen == [verify.CASIMIR]

    @pytest.mark.parametrize("q", [1.1, 1.5, 3.0])
    def test_other_deformation_values(self, q):
        p = DeformationParams(q=q)
        w = TruncationWindow(0, 0, -4, 4)
        suites = run_all_suites(w, p, TOL)
        for name, report in suites.items():
            assert report.passed, f"suite {name} failed at q = {q}"


class TestSinglePass:
    def test_each_word_is_composed_once(self, monkeypatch):
        # The dense second path reuses the composed word instead of
        # composing it again.
        calls = []

        def counting(word, *args, **kwargs):
            calls.append(tuple(word))
            return word_matrix(word, *args, **kwargs)

        monkeypatch.setattr(verify, "word_matrix", counting)
        assert len(build_window(W)) <= verify.DENSE_ORACLE_LIMIT
        check_relations(X_RELATIONS, W, P2, TOL)
        terms = [t.word for spec in X_RELATIONS for t in spec.lhs + spec.rhs]
        assert len(terms) == 7
        assert calls == terms


class TestLetterMatrices:
    @pytest.mark.parametrize("w", [W, W_SPARSE], ids=["dense", "sparse"])
    def test_each_letter_is_materialized_once(self, monkeypatch, w):
        # Words are products of the letters' matrices: no letter is built
        # twice, and no basis state is walked through the scalar rules.
        made, walked = [], []
        materialize = operators.materialize
        operator_action = operators.operator_action

        def materialize_spy(name, *args, **kwargs):
            made.append(name)
            return materialize(name, *args, **kwargs)

        def action_spy(*args, **kwargs):
            walked.append(args)
            return operator_action(*args, **kwargs)

        for mod in (operators, verify):
            monkeypatch.setattr(mod, "materialize", materialize_spy)
            monkeypatch.setattr(mod, "operator_action", action_spy)
        check_relations(X_RELATIONS, w, P2, TOL)
        assert sorted(made) == ["X3", "Xminus", "Xplus"]
        assert walked == []
        assert W.size <= verify.DENSE_ORACLE_LIMIT < W_SPARSE.size


class TestNonFiniteResiduals:
    def test_nan_residual_fails_homomorphism(self):
        # At q = 40 and M = 24, R2 overflows to inf, so the assembled t3 is
        # NaN; the NaN must reach the report rather than vanish in a max().
        report = run_suite(
            "homomorphism", TruncationWindow(24, 24, 0, 0), DeformationParams(q=40.0), TOL
        )
        check = report.checks[0]
        assert check.id == "hopping_from_coordinate_ladder"
        assert math.isnan(check.max_interior_residual)
        assert not check.passed
        assert not report.passed


class TestCallerCapacity:
    def test_adjointness_honours_caller_capacity(self, monkeypatch):
        monkeypatch.setattr(lattice, "DEFAULT_WINDOW_CAPACITY", 100)
        w = TruncationWindow(0, 0, -8, 8)
        assert w.size > 100
        report = run_suite("adjointness", w, P2, TOL, capacity=1000)
        assert report.passed
