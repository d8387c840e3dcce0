"""Tests for the verification engine: residuals, suites, reports, controls.

The negative controls are as important as the positive runs: a perturbed
relation, a wrong adjoint sign, and the wrong ladder phase must all FAIL,
otherwise the residual machinery is vacuous.
"""

import cmath
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import norm as sparse_norm

from dense import outside_slots, random_diagonals, to_dense
from oracle import oracle_action
from qeuclid import cli, lattice, operators, smooth, verify
from qeuclid.core import DeformationParams, QeuclidError, TruncationWindow
from qeuclid.lattice import build_window
from qeuclid.operators import Diagonals, apply, catalogue_names, get_operator
from qeuclid.verify import (
    ADJOINT_PAIRS,
    CASIMIR,
    COMMUTANT,
    K_RELATIONS,
    LetterTable,
    RelationSpec,
    SUITE_NAMES,
    TORB_TEMPLATE,
    T_TEMPLATE,
    Term,
    X_RELATIONS,
    check_adjointness,
    check_homomorphism,
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
#: 578 states: above DENSE_ORACLE_LIMIT, so the entrywise second path is off.
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
        (report,) = check_relations([wrong], LetterTable(W, P2), TOL)
        assert report.max_interior_residual >= 0.1
        assert not report.passed

    def test_wrong_adjoint_sign_fails(self):
        wrong_pair = ("Kplus", lambda p: p.qpow(-2), "Kminus")
        (report,) = check_adjointness([wrong_pair], LetterTable(W, P2), TOL)
        assert report.max_interior_residual > 0.1
        assert not report.passed

    def test_wrong_ladder_phase_fails_tensor_assembly(self):
        p_plus = DeformationParams(q=2.0, theta_phase=1.0 + 0.0j)
        checks = check_tensor_torb(LetterTable(W, p_plus), TOL)
        by_id = {c.id: c for c in checks}
        assert not by_id["tensor_Torbplus_sector_plus"].passed
        assert not by_id["tensor_Torbminus_sector_plus"].passed
        # the diagonal assembly carries no phase and must still pass
        assert by_id["tensor_Torb3_sector_plus"].passed

    def test_wrong_phase_fails_the_whole_suite(self):
        p_plus = DeformationParams(q=2.0, theta_phase=1.0 + 0.0j)
        report = run_suite("tensor", LetterTable(W, p_plus), TOL)
        assert not report.passed


class TestWordMatrices:
    def test_leakage_counts_window_escapes(self):
        letters = LetterTable(W, P2)
        _, leak = word_matrix(("Xminus",), letters)
        assert leak > 0.0  # the bottom polar row exits the window
        _, leak_diag = word_matrix(("X3",), letters)
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
        _, leak = word_matrix(word, LetterTable(w, P2))
        assert leak == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_overflowed_leakage_meets_no_zero(self):
        # At q = 40 and M = 24 the squared ladder coefficients overflow to
        # inf.  X- leaks inf from the bottom row, which X+ never reaches,
        # and X+ reaches the top row with inf weight, where X- leaks
        # nothing: no amplitude is dropped, and no 0 * inf may read NaN.
        w = TruncationWindow(24, 24, -1, 0)
        _, leak = word_matrix(("Xminus", "Xplus"), LetterTable(w, DeformationParams(q=40.0)))
        assert leak == 0.0

    def test_interior_positions_match_reported_exclusions(self):
        order = build_window(W)
        reports = {r.id: r for r in check_relations(X_RELATIONS, LetterTable(W, P2), TOL)}
        lower = reports["x_lower_exchange"]
        words = [t.word for spec in X_RELATIONS if spec.id == "x_lower_exchange"
                 for t in spec.lhs + spec.rhs]
        interior = interior_positions(words, W)
        assert len(order) - len(interior) == lower.boundary_rows_excluded
        assert lower.boundary_rows_excluded == 14  # both mt = mt_min rows

    @pytest.mark.parametrize(
        "specs", [X_RELATIONS, COMMUTANT, T_TEMPLATE + TORB_TEMPLATE],
        ids=["x", "commutant", "templates"],
    )
    @pytest.mark.parametrize(
        "w",
        [W, TruncationWindow(-1, 1, 0, 3), TruncationWindow(-1, 0, -3, 0),
         TruncationWindow(0, 0, 0, 0)],
        ids=["98", "mt_min=0", "k_max=0", "2"],
    )
    def test_interior_positions_match_per_index_reference(self, specs, w):
        # Reference: walk every column through every prefix shift of every
        # branch choice, one basis index at a time.
        shifts = set()
        for word in (word for spec in specs for word in spec.words()):
            cur = {(0, 0, 0)}
            for name in reversed(word):
                cur = {
                    (a + br.dM, b + br.dmt, c + br.dm)
                    for a, b, c in cur
                    for br in get_operator(name).branches
                }
                shifts |= cur
        want = [
            k
            for k, idx in enumerate(w.iter_indices())
            if all(
                not idx.shifted(*s).is_valid() or w.contains(idx.shifted(*s))
                for s in shifts
            )
        ]
        words = [word for spec in specs for word in spec.words()]
        assert interior_positions(words, w) == want

    @pytest.mark.parametrize(
        "case",
        [spec.id for spec in X_RELATIONS + COMMUTANT] + ["sector_plus", "sector_minus"],
    )
    def test_masked_residual_matches_column_slices(self, case):
        # Reference: the residual of the masked columns sliced out of both
        # sides, as sparse matrices.  The relations mask their interior
        # columns, on real words at phase -1; the tensor sectors mask one
        # sign of sigma, here on Torb+ assembled at the phase e^{0.7i}, so
        # that both sectors differ and the values are complex.
        if case.startswith("sector_"):
            letters = LetterTable(W, DeformationParams(q=2.0, theta_phase=cmath.exp(0.7j)))
            assembled = (
                letters["tplus"].entries
                + letters["abs_xi_inv"].entries @ letters["Kplus"].entries
            )
            sides = [assembled, letters.at("Torbplus", -1.0).entries]
            sigma = W.index_arrays().sigma
            mask = sigma > 0 if case == "sector_plus" else sigma < 0
        else:
            (spec,) = [s for s in X_RELATIONS + COMMUTANT if s.id == case]
            letters = LetterTable(W, P2)
            sides = []
            for terms in (spec.lhs, spec.rhs):
                total = Diagonals.of({}, letters.n)
                for t in terms:
                    total = total + float(t.coeff(P2)) * word_matrix(t.word, letters)[0]
                sides.append(total)
            mask = verify._interior_mask(spec.words(), W)
            assert np.flatnonzero(mask).tolist() == interior_positions(spec.words(), W)
        cols = np.flatnonzero(mask)
        L, R = (_csr(side)[:, cols] for side in sides)
        want = sparse_norm(L - R) / max(1.0, sparse_norm(L), sparse_norm(R))
        assert want > 0.0 or not case.startswith("sector_")
        got = verify._balanced_residual(*sides, mask)
        assert got == want
        # The bits do not depend on how the values are laid out in memory.
        for order in "CF":
            copies = [Diagonals(s.offsets, np.array(s.values, order=order)) for s in sides]
            assert verify._balanced_residual(*copies, mask) == got
        # A second reference adds the squares with one rounding, in any order.
        exact = lambda M: math.sqrt(math.fsum(np.square(M.data.view(float)).tolist()))
        ref = exact(L - R) / max(1.0, exact(L), exact(R))
        assert abs(got - ref) <= 1e-14 * ref

    def test_raise_exchange_needs_no_exclusions(self):
        reports = {r.id: r for r in check_relations(X_RELATIONS, LetterTable(W, P2), TOL)}
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


def _same_bits(a, b):
    """Whether two arrays hold the same bits, every NaN taken as one value
    (the sign of a NaN depends on which operand a compiled sum reads first)."""
    a, b = a.view(float), b.view(float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.int64), b[~nan].view(np.int64)
    )


class TestProbeKernel:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_apply_matches_compressed_rows_bit_for_bit(self, data):
        # scipy's CSR product with a vector is the reference: each row adds
        # the terms of its stored entries from 0 in ascending column, and an
        # absent entry forms no term, so an inf or NaN of x beside it stays
        # out of its row.  A and x are each real or complex.
        n = data.draw(st.integers(1, 8))
        A = data.draw(random_diagonals(n))
        part = st.one_of(
            st.floats(-1e3, 1e3), st.sampled_from([math.inf, -math.inf, math.nan])
        )
        x = np.array([data.draw(part) for _ in range(n)])
        if data.draw(st.booleans()):
            x = x.astype(complex)
            x.imag = [data.draw(part) for _ in range(n)]
        kept = A.values.copy(), x.copy()
        # The probe runs under the same errstate.
        with np.errstate(all="ignore"):
            got = verify._apply(A, x)
        want = sp.csr_matrix(to_dense(A)) @ x
        assert got.dtype == want.dtype
        assert _same_bits(got, want)
        assert np.array_equal(A.values.view(float), kept[0].view(float))
        assert np.array_equal(x.view(float), kept[1].view(float), equal_nan=True)

    def test_rows_add_terms_in_ascending_column(self):
        # Four terms meet in most rows, so the bits of each sum depend on
        # its order, and complex terms on an unfused multiply.
        rng = np.random.default_rng(5)
        n = 40
        c = np.arange(n)
        gauss = lambda: np.array([1, 1j]) @ rng.standard_normal((2, n))  # noqa: E731
        inside = lambda o: (c + o >= 0) & (c + o < n)  # noqa: E731
        A = Diagonals.of({o: np.where(inside(o), gauss(), 0) for o in (-2, -1, 0, 3)}, n)
        x = gauss()
        assert _same_bits(verify._apply(A, x), sp.csr_matrix(to_dense(A)) @ x)

    @pytest.mark.parametrize("x", [math.inf, math.nan, complex(math.inf, math.nan)])
    def test_one_state_with_an_absent_entry(self, x):
        # n = 1: a stored diagonal whose one entry is absent keeps y = 0
        # whatever x holds; a present entry meets it.
        absent = Diagonals(np.array([0]), np.array([[0.0]]))
        present = Diagonals(np.array([0]), np.array([[2.0]]))
        with np.errstate(all="ignore"):
            for A in (absent, present):
                got = verify._apply(A, np.array([x]))
                want = sp.csr_matrix(to_dense(A)) @ np.array([x])
                assert _same_bits(got, want)
            assert verify._apply(absent, np.array([x])).tolist() == [0.0]


class TestInteriorMasks:
    @pytest.mark.parametrize(
        "w", [W, TruncationWindow(-1, 0, -3, 0), TruncationWindow(0, 0, 0, 0)],
        ids=["98", "k_max=0", "2"],
    )
    def test_shared_table_masks_match_fresh_positions(self, w):
        # One table serves every relation set of every suite in run order;
        # each mask it gives equals the interior columns computed afresh.
        letters = LetterTable(w, P2)
        for specs in (X_RELATIONS, K_RELATIONS, CASIMIR, COMMUTANT, T_TEMPLATE + TORB_TEMPLATE):
            for spec in specs:
                mask = verify._interior_mask(spec.words(), w, letters.masks)
                assert np.flatnonzero(mask).tolist() == interior_positions(spec.words(), w)
        assert letters.masks

    def test_each_table_has_its_own_masks(self):
        # Masks belong to one run's table: another table, over the same
        # window or another, starts from none.
        a, b = LetterTable(W, P2), LetterTable(W, P2)
        assert a.masks is not b.masks
        run_suite("x_relations", a, TOL)
        assert a.masks and not b.masks
        c = LetterTable(W_SPARSE, P2)
        run_suite("x_relations", c, TOL)
        assert c.masks.keys() == a.masks.keys()
        assert all(len(c.masks[s]) == W_SPARSE.size for s in c.masks)


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
        report = run_suite("x_relations", LetterTable(W, P2), TOL)
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
        a = run_suite("casimir", LetterTable(W, P2), TOL).to_json()
        b = run_suite("casimir", LetterTable(W, P2), TOL).to_json()
        assert a == b
        doc = json.loads(a)
        assert set(doc) == {"suite", "config", "checks", "pass"}
        assert doc["pass"] is True
        assert doc["config"]["window"] == "0:0,-6,6"
        assert doc["config"]["theta_phase"] == [-1.0, 0.0]

    def test_unknown_suite_rejected(self):
        with pytest.raises(QeuclidError, match="unknown suite"):
            run_suite("bogus", LetterTable(W, P2), TOL)


class TestSuiteDriver:
    def test_suites_look_up_checks_at_call_time(self, monkeypatch):
        # A wrapper installed on the module attribute sees the suite's call.
        seen = []
        real = verify.check_relations

        def spy(specs, *args, **kwargs):
            seen.append(specs)
            return real(specs, *args, **kwargs)

        monkeypatch.setattr(verify, "check_relations", spy)
        run_suite("casimir", LetterTable(W, P2), TOL)
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
        # The entrywise second path reuses the composed word instead of
        # composing it again.
        calls = []

        def counting(word, *args, **kwargs):
            calls.append(tuple(word))
            return word_matrix(word, *args, **kwargs)

        monkeypatch.setattr(verify, "word_matrix", counting)
        assert len(build_window(W)) <= verify.DENSE_ORACLE_LIMIT
        check_relations(X_RELATIONS, LetterTable(W, P2), TOL)
        terms = [t.word for spec in X_RELATIONS for t in spec.lhs + spec.rhs]
        assert len(terms) == 7
        assert calls == terms


#: Windows of 162 and 486 states (entrywise path on) and 17,298 states (off).
W_162 = TruncationWindow(0, 0, -8, 8)
W_486 = TruncationWindow(0, 2, -8, 8)
W_17298 = TruncationWindow(-4, 4, -30, 30)
P_COMPLEX = DeformationParams(q=2.0, theta_phase=cmath.exp(0.7j))
MUTATIONS = ["reversed", "dropped_letter", "perturbed_entry", "imaginary_entry"]


def _mutated(kind):
    """A word_matrix that returns a wrongly composed word.

    The true word is composed first, so the letter table still holds every
    letter of the word.
    """

    def wrong(word, letters):
        mat, leak = word_matrix(word, letters)
        if kind == "reversed":
            mat = word_matrix(word[::-1], letters)[0]
        elif kind == "dropped_letter":
            mat = word_matrix(word[1:] or word, letters)[0]
        else:
            # A real word is upcast, so that it can hold the imaginary step.
            vals = mat.values.astype(complex if kind == "imaginary_entry" else mat.values.dtype)
            # Frobenius norm, scaled so that words beyond 1e154 do not
            # overflow its squares.
            big = np.abs(vals).max()
            step = 1e-10 * big * np.linalg.norm(vals / big)
            first = tuple(np.argwhere(vals)[0])
            vals[first] += step if kind == "perturbed_entry" else 1j * step
            mat = Diagonals(mat.offsets, vals)
        return mat, leak

    return wrong


class TestSecondPathsCatchMutations:
    """Each second path on its own must reject a wrongly composed word."""

    @pytest.mark.parametrize("kind", MUTATIONS)
    @pytest.mark.parametrize("w", [W_162, W_486], ids=["162", "486"])
    @pytest.mark.parametrize(
        "specs, p", [(X_RELATIONS, P2), (K_RELATIONS, P_COMPLEX)], ids=["real", "complex"]
    )
    def test_entrywise_path_raises(self, monkeypatch, specs, p, w, kind):
        assert w.size <= verify.DENSE_ORACLE_LIMIT
        monkeypatch.setattr(verify, "word_matrix", _mutated(kind))
        with pytest.raises(QeuclidError, match="entrywise product"):
            check_relations(specs, LetterTable(w, p), TOL)

    @pytest.mark.parametrize("kind", MUTATIONS)
    @pytest.mark.parametrize("w", [W_SPARSE, W_17298], ids=["578", "17298"])
    @pytest.mark.parametrize(
        "specs, p", [(X_RELATIONS, P2), (K_RELATIONS, P_COMPLEX)], ids=["real", "complex"]
    )
    def test_probe_raises(self, monkeypatch, specs, p, w, kind):
        assert w.size > verify.DENSE_ORACLE_LIMIT
        monkeypatch.setattr(verify, "word_matrix", _mutated(kind))
        with pytest.raises(QeuclidError, match="probe"):
            check_relations(specs, LetterTable(w, p), TOL)

    @pytest.mark.parametrize("kind", MUTATIONS)
    @pytest.mark.parametrize("w", [W_162, W_486], ids=["162", "486"])
    @pytest.mark.parametrize(
        "specs, p", [(X_RELATIONS, P2), (K_RELATIONS, P_COMPLEX)], ids=["real", "complex"]
    )
    def test_probe_raises_on_small_windows(self, specs, p, w, kind):
        # check_relations runs the entrywise join here; the probe, called on
        # its own, must still reject every word that the mutation changes
        # and accept every word that it leaves as it is.
        letters = LetterTable(w, p)
        for spec in specs:
            for word in spec.words():
                mat, wrong = word_matrix(word, letters)[0], _mutated(kind)(word, letters)[0]
                if mat.offsets.tolist() == wrong.offsets.tolist() and np.array_equal(
                    mat.values, wrong.values
                ):
                    # Only reversing a palindrome, or dropping the one letter
                    # of a word, leaves the word as it is.
                    assert word == word[::-1] if kind == "reversed" else len(word) == 1
                    verify._require_probe_agreement(spec.id, word, wrong, letters)
                    continue
                with pytest.raises(QeuclidError, match="probe"):
                    verify._require_probe_agreement(spec.id, word, wrong, letters)

    def test_second_paths_do_not_call_the_diagonal_product(self, monkeypatch):
        # Both second paths recompute the word without the product kernel
        # that composed it.
        letters = LetterTable(W_162, P_COMPLEX)
        word = ("Kminus", "Kplus")
        mat, _ = word_matrix(word, letters)

        def refuse(*args):
            raise AssertionError("diagonal product called")

        monkeypatch.setattr(Diagonals, "__matmul__", refuse)
        verify._require_probe_agreement("k_exchange", word, mat, letters)
        verify._require_entrywise_agreement([("k_exchange", word, mat)], letters)

    def test_probe_scales_before_taking_norms(self, monkeypatch):
        # At q = 3 on mt >= -60 both words send the probe to about 1e170,
        # whose square overflows: unscaled, the comparison would read
        # inf/inf = NaN and let a perturbed word through.
        one = lambda p: 1.0
        spec = RelationSpec(
            "t_order", (Term(one, ("t3", "tplus")),), (Term(one, ("tplus", "t3")),)
        )
        letters = LetterTable(TruncationWindow(0, 0, -60, 60), DeformationParams(q=3.0))
        check_relations([spec], letters, TOL, asserted=False)
        monkeypatch.setattr(verify, "word_matrix", _mutated("perturbed_entry"))
        with pytest.raises(QeuclidError, match="probe"):
            check_relations([spec], letters, TOL, asserted=False)

    @pytest.mark.parametrize("kind", MUTATIONS)
    @pytest.mark.parametrize(
        "message, check",
        [("entrywise product", lambda spec_id, word, mat, letters:
          verify._require_entrywise_agreement([(spec_id, word, mat)], letters)),
         ("probe", verify._require_probe_agreement)],
        ids=["entrywise", "probe"],
    )
    def test_overflowing_words_are_compared(self, message, check, kind):
        # At q = 3 on 0:0,-60,1 (244 states) the word t3 tplus holds entries
        # near 1e170, so the squares in an unscaled product norm overflow:
        # the bound max(1, |product|) would read inf and let any word
        # through.  Each path's check is called on its own.
        letters = LetterTable(TruncationWindow(0, 0, -60, 1), DeformationParams(q=3.0))
        word = ("t3", "tplus")
        check("t_order", word, word_matrix(word, letters)[0], letters)
        with pytest.raises(QeuclidError, match=message):
            check("t_order", word, _mutated(kind)(word, letters)[0], letters)


def _sparse_letter(draw, n):
    """A random n x n CSR letter, real or complex, possibly with empty rows
    and columns, or no stored entry at all."""
    nnz = draw(st.integers(0, 2 * n))
    ij = st.integers(0, n - 1)
    part = st.floats(-1e3, 1e3, allow_nan=False)
    real = draw(st.booleans())
    value = part if real else st.builds(complex, part, part)
    rows = draw(st.lists(ij, min_size=nnz, max_size=nnz))
    cols = draw(st.lists(ij, min_size=nnz, max_size=nnz))
    vals = draw(st.lists(value, min_size=nnz, max_size=nnz))
    return sp.csr_matrix(
        (np.array(vals, dtype=np.float64 if real else np.complex128), (rows, cols)), shape=(n, n)
    )


def _triples(m):
    """The (rows, cols, values) of the stored entries of a CSR matrix,
    row-major and distinct."""
    coo = sp.csr_matrix(m).tocoo()
    return coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data


def _csr(A):
    """A matrix with a ``triples()`` export, as a scipy CSR matrix."""
    rows, cols, vals = A.triples()
    return sp.csr_matrix((vals, (rows, cols)), shape=A.shape)


def _diagonals(m):
    """A scipy matrix as Diagonals: offset o holds the entries (c + o, c)."""
    a = m.toarray()
    n = len(a)
    c = np.arange(n)
    inside = lambda o: (c + o >= 0) & (c + o < n)
    return Diagonals.of({o: np.where(inside(o), a[(c + o) % n, c], 0) for o in range(1 - n, n)}, n)


@st.composite
def _batches(draw):
    """n and 1-6 words of 1-4 random n x n letters each."""
    n = draw(st.integers(1, 9))
    words = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    return n, [[_sparse_letter(draw, n) for _ in range(length)] for length in words]


def _product(mats):
    word = mats[0]
    for m in mats[1:]:
        word = word @ m
    return sp.csr_matrix(word)


class TestBatchedJoin:
    @given(case=_batches(), k=st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_each_word_has_its_own_gap(self, case, k):
        # Every word matches the scipy product of its letters; one entry
        # added to word k, where the product may store nothing, fails word k
        # and no other; and word k alone has the gap it has in the batch.
        n, words = case
        k %= len(words)
        letters = [[_triples(m) for m in mats] for mats in words]
        products = [_product(mats) for mats in words]
        batch = [(ls, _diagonals(word)) for ls, word in zip(letters, products)]
        gaps = verify._entrywise_gaps(batch, n)
        assert (gaps <= 1e-13).all(), gaps
        assert verify._entrywise_gaps([batch[k]], n)[0] == gaps[k]
        step = 1e-10 * max(1.0, sparse_norm(products[k]))
        extra = products[k] + sp.csr_matrix(([step], ([n - 1], [0])), shape=(n, n))
        batch[k] = (letters[k], _diagonals(extra))
        marked = verify._entrywise_gaps(batch, n)
        assert (marked > 1e-13).tolist() == [j == k for j in range(len(words))]
        assert np.array_equal(np.delete(marked, k), np.delete(gaps, k))

    def test_a_non_finite_word_leaves_the_others_scaled(self):
        # Word 0 holds entries near 1e170, whose squares overflow unless
        # scaled, and one wrong entry; word 1 holds inf.  A scale shared by
        # the batch would read inf, leave word 0 unscaled and its gap NaN,
        # and let the wrong entry through.
        n = 3
        big = sp.csr_matrix(np.diag([1e85, 2e85, 3e85]))
        inf = sp.csr_matrix(np.diag([np.inf, 1.0, 1.0]))
        wrong = big @ big + sp.csr_matrix(([1e160], ([0], [1])), shape=(n, n))
        batch = [([_triples(m)] * 2, _diagonals(w)) for m, w in [(big, wrong), (inf, inf @ inf)]]
        assert verify._entrywise_gaps(batch, n)[0] > 1e-13

    @pytest.mark.parametrize(
        "specs", [X_RELATIONS, K_RELATIONS, COMMUTANT, T_TEMPLATE + TORB_TEMPLATE],
        ids=["x", "k", "commutant", "templates"],
    )
    @pytest.mark.parametrize("w", [W_162, W_SPARSE], ids=["162", "578"])
    def test_one_join_per_word_length(self, monkeypatch, specs, w):
        join, lengths = verify._join_gaps, []

        def spy(words, composed, n):
            lengths.append([len(word) for word in words])
            return join(words, composed, n)

        monkeypatch.setattr(verify, "_join_gaps", spy)
        check_relations(specs, LetterTable(w, P2), TOL, asserted=False)
        words = [t.word for spec in specs for t in spec.lhs + spec.rhs]
        if w.size > verify.DENSE_ORACLE_LIMIT:
            assert lengths == []
            return
        # One join per distinct length, over every word of that length.
        assert all(len(set(group)) == 1 for group in lengths)
        assert sorted(group[0] for group in lengths) == sorted(set(map(len, words)))
        assert sorted(sum(lengths, [])) == sorted(map(len, words))

    def test_each_letter_is_exported_once(self, monkeypatch):
        exports = []
        triples = Diagonals.triples

        def counting(self):
            exports.append(self)
            return triples(self)

        monkeypatch.setattr(Diagonals, "triples", counting)
        letters = LetterTable(W_162, P2)
        check_relations(X_RELATIONS + K_RELATIONS, letters, TOL)
        check_relations(COMMUTANT, letters, TOL)
        specs = X_RELATIONS + K_RELATIONS + COMMUTANT
        names = {name for spec in specs for word in spec.words() for name in word}
        assert len(exports) == len(names)


#: The words of X_RELATIONS in spec, side and term order, with their spec ids.
X_WORDS = [(spec.id, t.word) for spec in X_RELATIONS for t in spec.lhs + spec.rhs]


def _mutated_at(k, kind):
    """A word_matrix that composes the k-th word of a call wrongly and every
    other word right."""
    wrong, calls = _mutated(kind), []

    def compose(word, letters):
        calls.append(word)
        return (wrong if len(calls) == k + 1 else word_matrix)(word, letters)

    return compose


def _names(k, path):
    """A pattern of the error that names the k-th X_RELATIONS word and a path."""
    spec_id, word = X_WORDS[k]
    return re.escape(f"on word {word} of {spec_id}: sparse composition vs ") + f".*{path}"


class TestFirstError:
    """Each window has one second path, and the first failing word, in
    spec, side and term order, names its error."""

    @pytest.mark.parametrize("kind", MUTATIONS)
    @pytest.mark.parametrize("k", range(len(X_WORDS)))
    @pytest.mark.parametrize(
        "path, w", [("entrywise product", W_162), ("probe", W_SPARSE)],
        ids=["entrywise", "probe"],
    )
    def test_error_names_the_mutated_word(self, monkeypatch, path, w, k, kind):
        monkeypatch.setattr(verify, "word_matrix", _mutated_at(k, kind))
        letters = LetterTable(w, P2)
        word = X_WORDS[k][1]
        if kind == "reversed" and word == word[::-1]:
            # Reversing X3 X3 leaves it as it is.
            check_relations(X_RELATIONS, letters, TOL)
            return
        with pytest.raises(QeuclidError, match=_names(k, path)):
            check_relations(X_RELATIONS, letters, TOL)

    @pytest.mark.parametrize("w", [W_162, W_486, W_SPARSE], ids=["162", "486", "578"])
    def test_one_second_path_per_window(self, monkeypatch, w):
        # The probe runs only above DENSE_ORACLE_LIMIT, once per word in
        # spec, side and term order; the entrywise join only up to it.
        probed, joins = [], []
        probe, join = verify._require_probe_agreement, verify._join_gaps

        def probe_spy(spec_id, word, mat, letters):
            probed.append((spec_id, word))
            probe(spec_id, word, mat, letters)

        def join_spy(*args):
            joins.append(args)
            return join(*args)

        monkeypatch.setattr(verify, "_require_probe_agreement", probe_spy)
        monkeypatch.setattr(verify, "_join_gaps", join_spy)
        check_relations(X_RELATIONS, LetterTable(w, P2), TOL)
        if w.size <= verify.DENSE_ORACLE_LIMIT:
            assert probed == [] and joins
        else:
            assert joins == [] and probed == X_WORDS


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
            monkeypatch.setattr(mod, "operator_action", action_spy, raising=False)
        check_relations(X_RELATIONS, LetterTable(w, P2), TOL)
        assert sorted(made) == ["X3", "Xminus", "Xplus"]
        assert walked == []
        assert W.size <= verify.DENSE_ORACLE_LIMIT < W_SPARSE.size

    @pytest.mark.parametrize(
        "phase, count",
        [(-1.0, 18), (1.0, 21), (cmath.exp(0.7j), 21)],
        ids=["phase-1", "phase+1", "phase0.7"],
    )
    def test_one_table_per_run(self, monkeypatch, phase, count):
        # run_all_suites materializes each distinct (name, phase) once; away
        # from phase -1 the tensor suite adds its three direct Torb operators
        # at -1.  No suite changes an entry of the shared table.
        made = []
        materialize = operators.materialize

        def materialize_spy(name, w, p, capacity=None):
            made.append((name, p, materialize(name, w, p, capacity)))
            return made[-1][2]

        for mod in (operators, verify):
            monkeypatch.setattr(mod, "materialize", materialize_spy)
        p = DeformationParams(q=1.5, theta_phase=phase)
        assert all(r.passed for r in run_all_suites(W, p, TOL).values()) == (phase == -1.0)
        keys = [(name, q.theta_phase) for name, q, _ in made]
        assert len(keys) == len(set(keys)) == count
        assert {key for key in keys if key[1] != p.theta_phase} == (
            set() if phase == -1.0 else {(n, -1.0) for n in ("Torb3", "Torbplus", "Torbminus")}
        )
        for name, q, entry in made:
            fresh = materialize(name, W, q).entries
            for field in ("offsets", "values"):
                assert np.array_equal(getattr(entry.entries, field), getattr(fresh, field))

    def test_slots_outside_the_matrix_hold_exact_zeros(self, monkeypatch):
        # The residual norms read the masked columns of every diagonal as
        # stored, so every matrix a run builds (letters, words, their sums
        # and adjoints) must hold an exact 0 where its row falls outside.
        built = 0
        of = Diagonals.of.__func__

        def of_spy(cls, diags, n):
            nonlocal built
            built += 1
            made = of(cls, diags, n)
            assert not outside_slots(made).any()
            return made

        monkeypatch.setattr(Diagonals, "of", classmethod(of_spy))
        letters = LetterTable(TruncationWindow(-2, 2, -16, 16), DeformationParams(q=1.5))
        for name in SUITE_NAMES:
            run_suite(name, letters, TOL)
        assert built > len(letters._made) == 18

    def test_real_phase_keeps_every_matrix_real(self, monkeypatch):
        # At phase -1 every letter is real, so every word, sum, adjoint and
        # assembled matrix of the nine suites stays float64.
        dtypes = set()
        of = Diagonals.of.__func__

        def of_spy(cls, diags, n):
            made = of(cls, diags, n)
            dtypes.add(made.values.dtype)
            return made

        monkeypatch.setattr(Diagonals, "of", classmethod(of_spy))
        letters = LetterTable(TruncationWindow(-2, 2, -16, 16), DeformationParams(q=1.5))
        for name in SUITE_NAMES:
            run_suite(name, letters, TOL)
        assert dtypes == {np.dtype(np.float64)}

    @pytest.mark.parametrize(
        "phase", [-1.0, 1.0, cmath.exp(0.7j)], ids=["phase-1", "phase+1", "phase0.7"]
    )
    def test_letters_are_complex_only_where_a_complex_phase_enters(self, phase):
        # At a real phase every catalogue letter is float64; at a complex
        # one exactly the letters that carry the ladder phase are complex.
        letters = LetterTable(W_17298, DeformationParams(q=1.5, theta_phase=phase))
        complex_letters = {
            name for name in catalogue_names() if np.iscomplexobj(letters[name].entries.values)
        }
        phased = {"Kplus", "Kminus", "Torbplus", "Torbminus"}
        assert complex_letters == (set() if phase.imag == 0.0 else phased)
        assert letters["X3"].entries.values.dtype == np.float64


class TestNoBlas:
    @pytest.mark.parametrize("module", [verify, operators], ids=["verify", "operators"])
    def test_sums_never_go_through_blas(self, module):
        # A BLAS dot splits a long sum across its threads, so its bits would
        # follow the host's thread count; numpy's own reductions do not.
        source = Path(module.__file__).read_text()
        assert "np.linalg" not in source
        assert ".dot(" not in source


class TestNoScalarWalk:
    def test_suites_and_apply_make_no_scalar_calls(self, monkeypatch):
        # The suites and apply evaluate whole arrays; the per-index
        # operator_action is never called, through any module's reference.
        calls = []
        real = operators.operator_action

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod in (cli, lattice, operators, smooth, verify):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, spy)
        run_all_suites(TruncationWindow(0, 0, -3, 3), P2, TOL)
        state = lattice.LatticeState(
            {idx: 1.0 + 0.5j for idx in TruncationWindow(0, 0, -2, 2).iter_indices()}
        )
        apply("Torbplus", state, P2)
        assert calls == []


class TestNonFiniteResiduals:
    def test_nan_residual_fails_homomorphism(self):
        # At q = 40 and M = 24, R2 overflows to inf, so the assembled t3 is
        # NaN; the NaN must reach the report rather than vanish in a max().
        letters = LetterTable(TruncationWindow(24, 24, 0, 0), DeformationParams(q=40.0))
        report = run_suite("homomorphism", letters, TOL)
        check = report.checks[0]
        assert check.id == "hopping_from_coordinate_ladder"
        assert math.isnan(check.max_interior_residual)
        assert not check.passed
        assert not report.passed

    def test_nan_sign_residual_fails_recursions(self):
        # At q = 1e155 the squares of q overflow, so phi reads NaN on the
        # core interval; the NaN must fail the sign check, not read 0.
        with np.errstate(all="ignore"):
            reports = {r.id: r for r in check_recursions(DeformationParams(q=1e155))}
        check = reports["phi_nonpositive_on_core"]
        assert math.isnan(check.max_interior_residual)
        assert not check.passed


    def test_large_finite_words_keep_finite_residuals(self):
        # At q = 3 on mt >= -60 the ladder template words hold finite entries
        # above 1e154, whose squares overflow an unscaled Frobenius norm.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports = check_relations(
                T_TEMPLATE + TORB_TEMPLATE,
                LetterTable(TruncationWindow(0, 0, -60, 60), DeformationParams(q=3.0)),
                TOL,
                asserted=False,
            )
        residuals = {r.id: r.max_interior_residual for r in reports}
        for family in ("t", "torb"):
            for kind in ("raise", "lower"):
                assert math.isfinite(residuals[f"{family}_template_{kind}"])

    @pytest.mark.parametrize(
        "check",
        [
            "adjoint_t3_vs_t3",
            "hopping_from_coordinate_ladder",
            "tensor_Torb3_sector_plus",
            "tensor_Torb3_sector_minus",
        ],
    )
    def test_overflowing_squares_of_finite_entries_keep_finite_residuals(self, check):
        # At q = 40 on M = 4, mt >= -30 these matrices hold finite entries
        # whose squares overflow an unscaled Frobenius norm to inf, and the
        # quotient inf/inf read NaN.  Every matrix check scales its norms.
        letters = LetterTable(TruncationWindow(4, 4, -30, 0), DeformationParams(q=40.0))
        assert letters.n == 62
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports = {
                r.id: r
                for r in check_adjointness(ADJOINT_PAIRS, letters, TOL)
                + check_homomorphism(letters, TOL)
                + check_tensor_torb(letters, TOL)
            }
        assert math.isfinite(reports[check].max_interior_residual)
        assert reports[check].passed


class TestCallerCapacity:
    def test_adjointness_honours_caller_capacity(self, monkeypatch):
        monkeypatch.setattr(lattice, "DEFAULT_WINDOW_CAPACITY", 100)
        w = TruncationWindow(0, 0, -8, 8)
        assert w.size > 100
        report = run_suite("adjointness", LetterTable(w, P2, capacity=1000), TOL)
        assert report.passed
