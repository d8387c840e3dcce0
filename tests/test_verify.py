"""Tests for the verification engine: residuals, suites, reports, controls.

The negative controls are as important as the positive runs: a perturbed
relation, a wrong adjoint sign, and the wrong ladder phase must all FAIL,
otherwise the residual machinery is vacuous.
"""

import cmath
import collections
import dataclasses
import functools
import itertools
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
#: 578 states.
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

    def test_lowering_that_spares_the_lowest_mode_fails(self, monkeypatch):
        # A Kminus whose coefficient is 1.0 everywhere does not kill the
        # m = mt states.  Its targets there, m - 1 < mt, are invalid indices,
        # so a check that walked the images would never see the coefficient.
        spare = operators.LatticeOperator(
            "Kminus", (operators.Branch(0, 0, -1, lambda s: 1.0, -1),)
        )
        monkeypatch.setitem(operators.CATALOGUE, "Kminus", spare)
        (report,) = run_suite("lowest_weight", LetterTable(W, P2), TOL).checks
        assert report.max_interior_residual == 1.0
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
        for col in build_window(w):
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
            for k, idx in enumerate(build_window(w))
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
            mask = verify._interior_mask(spec.words(), W, {})
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
        # The second path reuses the composed word instead of composing it
        # again.
        calls = []

        def counting(word, *args, **kwargs):
            calls.append(tuple(word))
            return word_matrix(word, *args, **kwargs)

        monkeypatch.setattr(verify, "word_matrix", counting)
        check_relations(X_RELATIONS, LetterTable(W, P2), TOL)
        terms = [t.word for spec in X_RELATIONS for t in spec.lhs + spec.rhs]
        assert len(terms) == 7
        assert calls == terms


#: Windows of 162, 486 and 17,298 states.
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


class TestSecondPathCatchesMutations:
    """The path sum must reject a wrongly composed word at every window size."""

    @pytest.mark.parametrize("kind", MUTATIONS)
    @pytest.mark.parametrize(
        "w", [W_162, W_486, W_SPARSE, W_17298], ids=["162", "486", "578", "17298"]
    )
    @pytest.mark.parametrize(
        "specs, p", [(X_RELATIONS, P2), (K_RELATIONS, P_COMPLEX)], ids=["real", "complex"]
    )
    def test_path_sum_raises(self, monkeypatch, specs, p, w, kind):
        monkeypatch.setattr(verify, "word_matrix", _mutated(kind))
        with pytest.raises(QeuclidError, match="path sum"):
            check_relations(specs, LetterTable(w, p), TOL)

    @pytest.mark.parametrize("kind", MUTATIONS)
    @pytest.mark.parametrize("w", [W_162, W_486], ids=["162", "486"])
    @pytest.mark.parametrize(
        "specs, p", [(X_RELATIONS, P2), (K_RELATIONS, P_COMPLEX)], ids=["real", "complex"]
    )
    def test_path_sum_judges_each_word(self, specs, p, w, kind):
        # Called on each word on its own, the path sum must reject every
        # word that the mutation changes and accept every word that it
        # leaves as it is.
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
                    verify._require_path_agreement(spec.id, word, wrong, letters)
                    continue
                with pytest.raises(QeuclidError, match="path sum"):
                    verify._require_path_agreement(spec.id, word, wrong, letters)

    def test_path_sum_does_not_call_the_diagonal_product(self, monkeypatch):
        # The path sum recomputes the word without the product kernel that
        # composed it.
        letters = LetterTable(W_162, P_COMPLEX)
        word = ("Kminus", "Kplus")
        mat, _ = word_matrix(word, letters)

        def refuse(*args):
            raise AssertionError("diagonal product called")

        monkeypatch.setattr(Diagonals, "__matmul__", refuse)
        verify._require_path_agreement("k_exchange", word, mat, letters)

    def test_relation_of_overflowing_words_raises(self, monkeypatch):
        # At q = 3 on mt >= -60 both words hold entries near 1e170, whose
        # squares overflow: a comparison of norms would read inf/inf = NaN,
        # but entries compare one by one, so a perturbed word raises.
        one = lambda p: 1.0
        spec = RelationSpec(
            "t_order", (Term(one, ("t3", "tplus")),), (Term(one, ("tplus", "t3")),)
        )
        letters = LetterTable(TruncationWindow(0, 0, -60, 60), DeformationParams(q=3.0))
        check_relations([spec], letters, TOL, asserted=False)
        monkeypatch.setattr(verify, "word_matrix", _mutated("perturbed_entry"))
        with pytest.raises(QeuclidError, match="path sum"):
            check_relations([spec], letters, TOL, asserted=False)

    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_overflowing_words_are_compared(self, kind):
        # At q = 3 on 0:0,-60,1 (244 states) the word t3 tplus holds entries
        # near 1e170, whose squares overflow: a bound of norms such as
        # max(1, |path sum|, |word|) would read inf and let any word through.
        letters = LetterTable(TruncationWindow(0, 0, -60, 1), DeformationParams(q=3.0))
        word = ("t3", "tplus")
        verify._require_path_agreement("t_order", word, word_matrix(word, letters)[0], letters)
        with pytest.raises(QeuclidError, match="path sum"):
            verify._require_path_agreement(
                "t_order", word, _mutated(kind)(word, letters)[0], letters
            )

    @pytest.mark.parametrize("w", [W_162, W_486, W_17298], ids=["162", "486", "17298"])
    @pytest.mark.parametrize(
        "p",
        [DeformationParams(q=q, theta_phase=phase) for q in (1.5, 3.0)
         for phase in (-1.0, 1.0, cmath.exp(0.7j))],
        ids=[f"q{q}-{label}" for q in (1.5, 3.0) for label in ("minus", "plus", "0.7")],
    )
    def test_catalogue_words_equal_their_path_sums_bit_for_bit(self, w, p):
        # The path sum adds each offset's terms in the product's order and
        # multiplies complex values as the product does, so every word of
        # every relation table matches it exactly, at a complex phase too.
        letters = LetterTable(w, p)
        specs = X_RELATIONS + K_RELATIONS + CASIMIR + COMMUTANT + T_TEMPLATE + TORB_TEMPLATE
        for word in {word for spec in specs for word in spec.words()}:
            mat, _ = word_matrix(word, letters)
            ref = verify._path_sum([letters[name].entries for name in word])
            assert ref.offsets.tolist() == mat.offsets.tolist(), word
            assert _same_bits(ref.values, mat.values), word


class TestExactAgreement:
    """A word passes only if it equals its path sum entry for entry."""

    @pytest.mark.parametrize("word", [("Kplus", "Kminus"), ("X3", "Xplus"), ("Xminus", "Xplus")])
    @pytest.mark.parametrize(
        "w, scale",
        [(W_162, 1e-12), (W_17298, 1e-12), (W_17298, 1e-11)],
        ids=["162-1e-12", "17298-1e-12", "17298-1e-11"],
    )
    @pytest.mark.parametrize("phase", [-1.0, cmath.exp(0.7j)], ids=["minus", "0.7"])
    def test_one_scaled_entry_raises(self, word, w, scale, phase):
        # A relative change far below any residual tolerance still raises,
        # and the error names the entry's offset and column.
        letters = LetterTable(w, DeformationParams(q=1.5, theta_phase=phase))
        mat, _ = word_matrix(word, letters)
        verify._require_path_agreement("id", word, mat, letters)
        stored = np.argwhere(mat.values)
        d, c = stored[len(stored) // 2]
        values = mat.values.copy()
        values[d, c] *= 1 + scale
        pattern = re.escape(f"path sum differ at offset {mat.offsets[d]}, column {c}")
        with pytest.raises(QeuclidError, match=pattern):
            verify._require_path_agreement("id", word, Diagonals(mat.offsets, values), letters)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_nan_matches_only_nan_in_the_same_slot(self, monkeypatch, dtype):
        # The path sum is stubbed to hold a NaN; the word passes with a NaN
        # in the same part of the same slot, and raises with it elsewhere.
        values = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]], dtype=dtype)
        ref = values.copy()
        ref[1, 1] = math.nan
        offsets = np.array([0, 1])
        monkeypatch.setattr(verify, "_path_sum", lambda mats: Diagonals(offsets, ref))
        letters = LetterTable(TruncationWindow(0, 0, -1, 0), P2)
        check = functools.partial(verify._require_path_agreement, "id", ("X3",))
        check(Diagonals(offsets, ref.copy()), letters)
        moved = values.copy()
        moved[1, 2] = math.nan
        with pytest.raises(QeuclidError, match="differ at offset 1, column 1"):
            check(Diagonals(offsets, moved), letters)
        if dtype is complex:
            other_part = values.copy()
            other_part[1, 1] = complex(4.0, math.nan)
            with pytest.raises(QeuclidError, match="differ at offset 1, column 1"):
                check(Diagonals(offsets, other_part), letters)

    def test_a_diagonal_one_side_lacks_differs_at_its_first_entry(self, monkeypatch):
        ref = Diagonals(np.array([0]), np.array([[1.0, 2.0, 3.0]]))
        monkeypatch.setattr(verify, "_path_sum", lambda mats: ref)
        letters = LetterTable(TruncationWindow(0, 0, -1, 0), P2)
        extra = Diagonals(np.array([-1, 0]), np.array([[0.0, 7.0, 0.0], [1.0, 2.0, 3.0]]))
        with pytest.raises(QeuclidError, match="differ at offset -1, column 1"):
            verify._require_path_agreement("id", ("X3",), extra, letters)

    def test_no_masked_column_reads_zero(self):
        A = Diagonals.of({0: np.array([1.0, math.inf])}, 2)
        assert verify._balanced_residual(A, 2.0 * A, np.zeros(2, dtype=bool)) == 0.0


@st.composite
def _words(draw):
    """A word of 1-3 random n x n letters, each real or complex, with absent
    entries, present ones that may be +-inf, and possibly a nonzero value
    in the slots whose row falls outside the matrix, which stay absent."""
    n = draw(st.integers(1, 8))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        A = draw(random_diagonals(n))
        values = A.values.copy()
        present = np.argwhere(values)
        if len(present):
            picks = draw(st.lists(st.integers(0, len(present) - 1), max_size=2))
            for d, c in present[picks]:
                values[d, c] = draw(st.sampled_from([math.inf, -math.inf]))
        if draw(st.booleans()):
            rows = np.arange(n) + A.offsets[:, None]
            values[(rows < 0) | (rows >= n)] = draw(st.sampled_from([1.5, math.inf]))
        mats.append(Diagonals(A.offsets, values))
    return mats


class TestPathSum:
    @given(mats=_words())
    @settings(max_examples=300, deadline=None)
    def test_matches_compressed_rows_bit_for_bit(self, mats):
        # scipy's CSR product is the reference: each entry adds the terms of
        # present entries only, from 0 in ascending inner index, and forms a
        # complex term as (ac - bd) + (ad + bc)i; an absent entry next to an
        # inf forms no term, so it reads no NaN.  The word applies
        # rightmost first.
        kept = [A.values.copy() for A in mats]
        got = verify._path_sum(mats)
        want = sp.csr_matrix(to_dense(mats[-1]))
        for A in reversed(mats[:-1]):
            want = sp.csr_matrix(to_dense(A)) @ want
        # Compared entry by entry, not as dense arrays, whose zero fill
        # would turn a stored -0.0 into +0.0.
        want.sort_indices()
        rows, cols, vals = got.triples()
        n = got.shape[0]
        assert np.array_equal(rows, np.repeat(np.arange(n), np.diff(want.indptr)))
        assert np.array_equal(cols, want.indices)
        # A product without diagonals holds no values to promote.
        assert vals.dtype == want.dtype or got.offsets.size == 0
        assert _same_bits(vals.astype(want.dtype), want.data)
        # A one-letter word is the letter as stored; a product holds 0 there.
        assert len(mats) == 1 or not outside_slots(got).any()
        for A, values in zip(mats, kept):
            assert np.array_equal(A.values.view(float), values.view(float))

    def test_terms_add_in_the_products_order(self):
        # Three terms meet on every inner entry of each step of a word of
        # three complex tridiagonal letters, so the bits of each sum depend
        # on its order, and on an unfused complex multiply.
        rng = np.random.default_rng(3)
        n = 40
        c = np.arange(n)
        inside = lambda o: (c + o >= 0) & (c + o < n)  # noqa: E731
        mats = [
            Diagonals.of(
                {o: np.where(inside(o), rng.standard_normal(n) + 1j * rng.standard_normal(n), 0)
                 for o in (-1, 0, 1)},
                n,
            )
            for _ in range(3)
        ]
        want = sp.csr_matrix(to_dense(mats[2]))
        for A in (mats[1], mats[0]):
            want = sp.csr_matrix(to_dense(A)) @ want
        assert _same_bits(to_dense(verify._path_sum(mats)), want.toarray())


def _csr(A):
    """A matrix with a ``triples()`` export, as a scipy CSR matrix."""
    rows, cols, vals = A.triples()
    return sp.csr_matrix((vals, (rows, cols)), shape=A.shape)


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


def _names(k):
    """A pattern of the error that names the k-th X_RELATIONS word."""
    spec_id, word = X_WORDS[k]
    return re.escape(f"on word {word} of {spec_id}: sparse composition vs path sum")


class TestFirstError:
    """The first failing word, in spec, side and term order, names the
    error."""

    @pytest.mark.parametrize("kind", MUTATIONS)
    @pytest.mark.parametrize("k", range(len(X_WORDS)))
    @pytest.mark.parametrize("w", [W_162, W_SPARSE], ids=["162", "578"])
    def test_error_names_the_mutated_word(self, monkeypatch, w, k, kind):
        monkeypatch.setattr(verify, "word_matrix", _mutated_at(k, kind))
        letters = LetterTable(w, P2)
        word = X_WORDS[k][1]
        if kind == "reversed" and word == word[::-1]:
            # Reversing X3 X3 leaves it as it is.
            check_relations(X_RELATIONS, letters, TOL)
            return
        with pytest.raises(QeuclidError, match=_names(k)):
            check_relations(X_RELATIONS, letters, TOL)

    @pytest.mark.parametrize("w", [W_162, W_486, W_SPARSE], ids=["162", "486", "578"])
    def test_one_second_path_at_every_size(self, monkeypatch, w):
        # The path sum sees each word once, in spec, side and term order,
        # as it is composed, at every window size.
        checked = []
        check = verify._require_path_agreement

        def spy(spec_id, word, mat, letters):
            checked.append((spec_id, word))
            check(spec_id, word, mat, letters)

        monkeypatch.setattr(verify, "_require_path_agreement", spy)
        check_relations(X_RELATIONS, LetterTable(w, P2), TOL)
        assert checked == X_WORDS


def _dense_word_leakage(word, letters):
    """A word's leakage by whole-slab arrays: each letter's loss spread
    over every column, the squared row norms of the product so far over
    every row, the rows that are reached and leak, then ``np.add.reduce``,
    each term scaled to the window by s_d^2, d the r-degree of the word up
    to and including the letter that drops it."""
    n = letters.n

    def spread(leak, d):
        return leak * letters.scale(d, squared=True) if leak else leak

    def per_column(letter):
        lost = np.zeros(n)
        lost[letter.boundary_columns] = letter.boundary_leakage
        return lost

    degrees = list(itertools.accumulate(get_operator(name).r_degree for name in word[::-1]))
    *rest, first = [letters[name] for name in word]
    prod, leak = first.entries, spread(float(per_column(first).sum()), degrees[0])
    for letter, d in zip(reversed(rest), degrees[1:]):
        with np.errstate(over="ignore"):
            reach = np.zeros(n)
            for o, v in zip(prod.offsets.tolist(), prod.values):
                lo, hi = max(-o, 0), min(n, n - o)
                x = v[lo:hi]
                reach[lo + o : hi + o] += x.real * x.real + x.imag * x.imag
            lost = per_column(letter)
            hit = (reach != 0.0) & (lost != 0.0)
            leak += spread(float(np.add.reduce(reach[hit] * lost[hit])), d)
        prod = letter.entries @ prod
    return leak


@functools.cache
def _table(w, q, phase):
    return LetterTable(w, DeformationParams(q=q, theta_phase=phase))


class TestWordLeakage:
    @given(
        word=st.lists(st.sampled_from(catalogue_names()), min_size=1, max_size=3),
        w=st.sampled_from([W_162, W_486, W_SPARSE]),
        q=st.sampled_from([1.1, 1.5, 2.0, 3.0, 1.2e77]),
        phase=st.sampled_from([-1.0, 1.0, cmath.exp(0.7j)]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_whole_window_sum_bit_for_bit(self, word, w, q, phase):
        # Gathering the row norms at the boundary columns only adds the same
        # squares, in the same order, into the same compacted array.
        letters = _table(w, q, phase)
        _, leak = word_matrix(word, letters)
        assert _same_bits(np.array([leak]), np.array([_dense_word_leakage(word, letters)]))

    @pytest.mark.parametrize("w", [W_162, W_486, W_SPARSE], ids=["162", "486", "578"])
    @pytest.mark.parametrize("q", [1.1, 2.0])
    @pytest.mark.parametrize("phase", [-1.0, 1.0, cmath.exp(0.7j)], ids=["-1", "+1", "0.7"])
    def test_three_entry_rows_add_in_offset_order(self, w, q, phase):
        # A product of two orbital letters holds three entries in some rows
        # where these letters leak, so a row norm's bits may depend on the
        # order its squares add in (at q 1.1 and 2.0 they do for a few of
        # these words).
        letters = _table(w, q, phase)
        for pair in itertools.product(("Torbplus", "Torbminus"), repeat=2):
            for left in ("Lambda", "Lambda_inv", "Xminus", "tminus"):
                word = (left, *pair)
                _, leak = word_matrix(word, letters)
                want = _dense_word_leakage(word, letters)
                assert _same_bits(np.array([leak]), np.array([want])), word

    def test_a_loss_that_underflows_keeps_its_column(self):
        # At q = 1.1e81 each of Lambda's losses, q^-4, underflows to 0, and
        # R2 reaches those rows with an infinite square: the column stays on
        # the boundary, and 0 * inf reads no NaN.
        letters = _table(W_162, 1.1e81, -1.0)
        assert letters["Lambda"].boundary_columns.tolist() == list(range(W_162.size))
        assert not letters["Lambda"].boundary_leakage.any()
        _, leak = word_matrix(("Lambda", "R2"), letters)
        assert leak == _dense_word_leakage(("Lambda", "R2"), letters) == 0.0

    @pytest.mark.parametrize("word", [("Torbplus",), ("K3", "Lambda_inv"), ("K3", "Torbminus")])
    def test_overflowing_leakage_reads_inf_on_both_paths(self, word):
        # At q = 1.2e77 (the window of the CLI default) the square of a
        # letter's loss overflows, and the word's leakage reads inf.
        letters = _table(W_162, 1.2e77, -1.0)
        _, leak = word_matrix(word, letters)
        assert leak == _dense_word_leakage(word, letters) == math.inf

    def test_a_letter_that_leaks_nowhere_stores_nothing_per_column(self):
        letters = _table(W_486, 1.5, -1.0)
        for name in ("X3", "xihat", "R2", "t3", "K3", "Torb3"):
            letter = letters[name]
            assert letter.boundary_columns.size == letter.boundary_leakage.size == 0, name
            assert letter.total_leakage == 0.0, name


def _held_bytes(obj):
    """Bytes of the arrays a letter holds, through its nested dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(_held_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def _slab_bytes(w):
    """Bytes that each letter of a verify run over ``w`` holds, by (name,
    window the letter lives on)."""
    letters = LetterTable(w, DeformationParams(q=1.5))
    for name in SUITE_NAMES:
        run_suite(name, letters, TOL)
    return letters, {(name, on): _held_bytes(m) for (name, _, on), m in letters._made.items()}


class TestLetterMemory:
    def test_letters_hold_at_most_220_bytes_per_slab_state(self):
        # The 16 letters on the slab store their diagonals (8 bytes a slab
        # state each, 147 bytes a slab state in all) and their boundary
        # columns; Lambda and Lambda_inv live on two slabs, 32 bytes a slab
        # state each.  One per-column array in every letter, even of bools,
        # would break this budget.
        letters, held = _slab_bytes(W_17298)
        assert len(held) == 18
        assert sum(held.values()) <= 220 * letters.n

    def test_nine_slabs_hold_what_one_slab_holds(self):
        # Letters live on the slab nearest M = 0, whatever the M range;
        # Lambda and Lambda_inv, which shift M, live on that slab and its
        # neighbour and are counted apart.
        many, held_many = _slab_bytes(W_17298)
        one, held_one = _slab_bytes(TruncationWindow(0, 0, -30, 30))
        assert many.slab == one.slab == one.w and many.slabs == 9
        pair = TruncationWindow(0, 1, -30, 30)
        assert {key[1] for key in held_many} == {many.slab, pair}
        shifts = {"Lambda", "Lambda_inv"}
        on_slab = {name: b for (name, on), b in held_many.items() if on == many.slab}
        assert on_slab == {name: b for (name, _), b in held_one.items() if name not in shifts}
        assert {name for name, on in held_many if on == pair} == shifts


def _spy_on_matrices(monkeypatch, check):
    """Call ``check`` on every matrix that ``Diagonals.of`` or
    ``Diagonals.nonempty`` makes, and on both sides of every residual (a
    relation's sums are added into in place)."""
    for name in ("of", "nonempty"):
        make = getattr(Diagonals, name).__func__

        def spy(cls, *args, make=make):
            made = make(cls, *args)
            check(made)
            return made

        monkeypatch.setattr(Diagonals, name, classmethod(spy))
    residual = verify._balanced_residual

    def residual_spy(L, R, mask, *scale):
        check(L)
        check(R)
        return residual(L, R, mask, *scale)

    monkeypatch.setattr(verify, "_balanced_residual", residual_spy)


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

    @pytest.mark.parametrize("w", [W, W_486], ids=["one-slab", "three-slabs"])
    @pytest.mark.parametrize(
        "phase, count",
        [(-1.0, 18), (1.0, 21), (cmath.exp(0.7j), 21)],
        ids=["phase-1", "phase+1", "phase0.7"],
    )
    def test_one_table_per_run(self, monkeypatch, w, phase, count):
        # run_all_suites builds each distinct (name, phase) once; away from
        # phase -1 the tensor suite adds its three direct Torb operators at
        # -1.  Every letter lives on the slab nearest M = 0, save Lambda and
        # Lambda_inv, which on a window of several slabs live on that slab
        # and its neighbour.  Each equals the public materialize bit for
        # bit, and no suite changes an entry of the shared table.
        made = []
        build = LetterTable._letter

        def letter_spy(self, name, p, on):
            made.append((name, on, p, build(self, name, p, on)))
            return made[-1][3]

        monkeypatch.setattr(LetterTable, "_letter", letter_spy)
        p = DeformationParams(q=1.5, theta_phase=phase)
        assert all(r.passed for r in run_all_suites(w, p, TOL).values()) == (phase == -1.0)
        keys = [(name, q.theta_phase) for name, _, q, _ in made]
        assert len(keys) == len(set(keys)) == count
        # One params instance, and so one power table, per phase.
        assert len({id(q) for _, _, q, _ in made}) == len({phase for _, phase in keys})
        assert {key for key in keys if key[1] != p.theta_phase} == (
            set() if phase == -1.0 else {(n, -1.0) for n in ("Torb3", "Torbplus", "Torbminus")}
        )
        slab = dataclasses.replace(w, M_max=w.M_min)
        pair = dataclasses.replace(w, M_max=w.M_min + 1) if w.M_max > w.M_min else slab
        for name, on, q, entry in made:
            assert on == (pair if name in ("Lambda", "Lambda_inv") else slab), name
            # A fresh params instance starts a fresh power table.
            fresh = operators.materialize(name, on, dataclasses.replace(q))
            for field in ("offsets", "values"):
                assert np.array_equal(getattr(entry.entries, field), getattr(fresh.entries, field))
            for field in ("boundary_columns", "boundary_leakage", "total_leakage"):
                assert np.array_equal(getattr(entry, field), getattr(fresh, field)), name

    @pytest.mark.parametrize("phase", [-1.0, cmath.exp(0.7j)], ids=["phase-1", "phase0.7"])
    def test_each_branch_is_evaluated_once_per_letter(self, monkeypatch, phase):
        # On a window of several slabs one evaluation of a branch serves
        # both its letter and the letter's end-slab check.  Only
        # lowest_weight evaluates the Kminus branch once more, on the
        # window's m = mt states.
        calls = collections.Counter()
        values = operators.Branch.values

        def values_spy(br, src, p):
            calls[id(br)] += 1
            return values(br, src, p)

        monkeypatch.setattr(operators.Branch, "values", values_spy)
        letters = LetterTable(W_486, DeformationParams(q=1.5, theta_phase=phase))
        for name in SUITE_NAMES:
            run_suite(name, letters, TOL)
        want = collections.Counter(
            id(br) for name, _, _ in letters._made for br in get_operator(name).branches
        )
        want[id(get_operator("Kminus").branches[0])] += 1
        assert letters.slabs == 3 and calls == want

    def test_slots_outside_the_matrix_hold_exact_zeros(self, monkeypatch):
        # The residual norms read the masked columns of every diagonal as
        # stored, so every matrix a run builds (letters, words, their sums
        # and adjoints) must hold an exact 0 where its row falls outside.
        built = []
        _spy_on_matrices(monkeypatch, lambda A: built.append(not outside_slots(A).any()))
        letters = LetterTable(TruncationWindow(-2, 2, -16, 16), DeformationParams(q=1.5))
        for name in SUITE_NAMES:
            run_suite(name, letters, TOL)
        assert all(built)
        assert len(built) > len(letters._made) == 18

    def test_real_phase_keeps_every_matrix_real(self, monkeypatch):
        # At phase -1 every letter is real, so every word, sum, adjoint and
        # assembled matrix of the nine suites stays float64.
        dtypes = set()
        _spy_on_matrices(monkeypatch, lambda A: dtypes.add(A.values.dtype))
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
            {idx: 1.0 + 0.5j for idx in build_window(TruncationWindow(0, 0, -2, 2))}
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

    def test_nan_coefficient_fails_lowest_weight(self):
        # At q = 1e160, q^2 overflows, so the Kminus coefficient on m = mt
        # meets 0 * inf and reads NaN rather than an exact zero.
        letters = LetterTable(TruncationWindow(0, 0, -6, 6), DeformationParams(q=1e160))
        (check,) = run_suite("lowest_weight", letters, TOL).checks
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


#: 2,366 states: seven slabs of 338.
W_SEVEN = TruncationWindow(-3, 3, -12, 12)
SHIFTS_M = ("Lambda", "Lambda_inv")


def _slab_block(A, w, rows_at, cols_at):
    """The dense block of a windowed matrix from the columns of slab
    ``cols_at`` to the rows of slab ``rows_at``, in the slab's own order."""
    rows, cols, vals = A.entries.triples()
    M = w.index_arrays().M
    pos = {at: np.flatnonzero(M == at) for at in (rows_at, cols_at)}
    rank = {at: np.cumsum(M == at) - 1 for at in (rows_at, cols_at)}
    keep = (M[rows] == rows_at) & (M[cols] == cols_at)
    out = np.zeros((len(pos[rows_at]), len(pos[cols_at])), dtype=vals.dtype)
    out[rank[rows_at][rows[keep]], rank[cols_at][cols[keep]]] = vals[keep]
    return out


class TestSlabFactorization:
    """Each slab of a window is the slab nearest M = 0 times q^(4k dM)."""

    @pytest.mark.parametrize("q", [1.1, 1.5, 3.0])
    @pytest.mark.parametrize("phase", [-1.0, cmath.exp(0.7j)], ids=["-1", "0.7"])
    @pytest.mark.parametrize("name", catalogue_names())
    def test_every_slab_is_the_middle_slab_scaled_by_its_degree(self, name, q, phase):
        p = DeformationParams(q=q, theta_phase=phase)
        A = operators.materialize(name, W_SEVEN, p)
        rows, cols, _ = A.entries.triples()
        M = W_SEVEN.index_arrays().M
        k = get_operator(name).r_degree
        if name in SHIFTS_M:
            # Every block between neighbouring slabs is the same.
            step = 1 if name == "Lambda" else -1
            assert (M[rows] == M[cols] + step).all()
            blocks = [_slab_block(A, W_SEVEN, at + step, at) for at in range(-3, 4)
                      if -3 <= at + step <= 3]
            assert all(np.array_equal(b, blocks[0]) for b in blocks)
            return
        assert (M[rows] == M[cols]).all()
        middle = _slab_block(A, W_SEVEN, 0, 0)
        for at in range(-3, 4):
            want = middle * p.qpow(4 * k * at)
            got = _slab_block(A, W_SEVEN, at, at)
            assert np.array_equal(got != 0, want != 0), (name, at)
            assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all(), (name, at)

    @pytest.mark.parametrize("end", ["M_min", "M_max"])
    @pytest.mark.parametrize(
        "name", [n for n in catalogue_names() if n not in ("identity", "r", "xi", "xi_inv",
                                                        "tau_k", "tau_orb", "Lambda_xi",
                                                        "Lambda_xi_inv", "exp_iphi",
                                                        "exp_minus_iphi")]
    )
    def test_a_coefficient_off_at_one_end_fails_a_check(self, monkeypatch, name, end):
        # The first branch of a letter that some check reads, scaled by
        # 1 + 1e-9 on one end slab only: the letter no longer factors, and
        # a check that reads it fails with a NaN residual.
        w = TruncationWindow(-2, 2, -8, 8)
        at = getattr(w, end)
        op = get_operator(name)
        br = op.branches[0]
        off = dataclasses.replace(
            br, coeff=lambda s, c=br.coeff: c(s) * np.where(s.M == at, 1 + 1e-9, 1.0)
        )
        monkeypatch.setitem(
            operators.CATALOGUE, name, dataclasses.replace(op, branches=(off, *op.branches[1:]))
        )
        reports = run_all_suites(w, DeformationParams(q=1.5), TOL)
        failed = [c for r in reports.values() for c in r.checks if c.asserted and not c.passed]
        assert failed and all(math.isnan(c.max_interior_residual) for c in failed), name

    def test_a_wrong_degree_fails_a_check(self, monkeypatch):
        # X3 scales as r, not r^2: declared with degree 2, its end slabs do
        # not match the middle one scaled by q^(8 dM).
        w = TruncationWindow(-2, 2, -8, 8)
        x3 = dataclasses.replace(get_operator("X3"), r_degree=2)
        monkeypatch.setitem(operators.CATALOGUE, "X3", x3)
        reports = run_all_suites(w, DeformationParams(q=1.5), TOL)
        assert not reports["x_relations"].passed
        assert not reports["homomorphism"].passed
        residual = reports["x_relations"].checks[0].max_interior_residual
        assert math.isnan(residual)

    def test_a_single_slab_has_no_ends_to_check(self, monkeypatch):
        # On one slab, the window is the slab: nothing is scaled, and a
        # letter is never compared with another slab.
        calls = []
        monkeypatch.setattr(LetterTable, "_factors", lambda *args: calls.append(args))
        letters = LetterTable(W, P2)
        assert letters.slab is W and letters.slabs == 1
        assert letters.scale(0) == letters.scale(2) == letters.scale(1, squared=True) == 1.0
        run_all_suites(W, P2, TOL)
        assert calls == []

    @pytest.mark.parametrize(
        "w, mid",
        [(TruncationWindow(-3, 3, 0, 0), 0), (TruncationWindow(2, 5, 0, 0), 2),
         (TruncationWindow(-6, -2, 0, 0), -2)],
    )
    def test_the_slab_is_the_one_nearest_m_zero(self, w, mid):
        letters = LetterTable(w, P2)
        assert letters.slab == TruncationWindow(mid, mid, 0, 0)
        assert letters.slabs == w.M_max - w.M_min + 1
        assert letters.n * letters.slabs == w.size

    @pytest.mark.parametrize("q", [1.1, 1.5, 40.0])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_scale_is_the_root_of_the_slab_sum(self, q, k):
        w = TruncationWindow(-4, 3, 0, 0)
        letters = LetterTable(w, DeformationParams(q=q))
        terms = [q ** (8 * k * (M - 0)) for M in range(-4, 4)]
        want = math.sqrt(math.fsum(terms))
        assert letters.scale(k) == pytest.approx(want, rel=1e-14)
        assert letters.scale(k, squared=True) == pytest.approx(want * want, rel=1e-14)
        assert letters.scale(0, squared=True) == 8.0

    def test_scale_overflows_only_with_its_largest_term(self):
        # q^(4k dM) at dM = 60 and q = 40 is 40^480, past the double range:
        # s_2 overflows; s_1 (40^240 = 1.8e384) too; at dM = 20, 40^160
        # (1.5e256) stays finite while its square does not.
        far = LetterTable(TruncationWindow(0, 60, 0, 0), DeformationParams(q=40.0))
        near = LetterTable(TruncationWindow(0, 20, 0, 0), DeformationParams(q=40.0))
        assert far.scale(1) == far.scale(2) == math.inf
        assert math.isfinite(near.scale(2)) and near.scale(2, squared=True) == math.inf


@given(
    lo=st.integers(-80, 80),
    span=st.integers(0, 160),
    mt_min=st.integers(-3, 0),
    k_max=st.integers(0, 2),
    q=st.floats(1.01, 40.0),
    phase=st.sampled_from([-1.0, cmath.exp(0.7j)]),
)
@settings(max_examples=60, deadline=None)
def test_far_m_ranges_end_in_finite_or_failing_nan_residuals(lo, span, mt_min, k_max, q, phase):
    # Far slabs overflow or underflow where near ones do not: every check
    # still ends in a finite residual or a NaN that fails, with no
    # exception and no library warning.
    w = TruncationWindow(lo, min(lo + span, 80), mt_min, k_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        reports = run_all_suites(w, DeformationParams(q=q, theta_phase=phase), TOL)
    for report in reports.values():
        for c in report.checks:
            r = c.max_interior_residual
            assert math.isfinite(r) or (math.isnan(r) and not c.passed), (c.id, r)
            assert not (c.passed and c.asserted) or math.isfinite(c.leakage_norm), c.id


class _WholeWindow:
    """Letters materialized on a whole window, not on one slab."""

    def __init__(self, w, p):
        self.w, self.p, self.n = w, p, w.size

    @functools.cache
    def at(self, name, phase):
        return operators.materialize(name, self.w, dataclasses.replace(self.p, theta_phase=phase))

    def __getitem__(self, name):
        return self.at(name, self.p.theta_phase)

    def scale(self, k, squared=False):
        return 1.0


def _fsum_residual(L, R, mask):
    """|L - R| over max(1, |L|, |R|) on the masked columns, each norm one
    correctly rounded sum of squares."""
    norm = lambda A: math.sqrt(math.fsum(  # noqa: E731
        np.square(np.compress(mask, A.values, axis=1).view(float)).ravel().tolist()
    ))
    return norm(L - R) / max(1.0, norm(L), norm(R))


def _whole_window_checks(w, p):
    """Every matrix check of a run over ``w``, recomputed from letters on
    the whole window: id -> (residual, leakage, excluded columns, asserted)."""
    full = _WholeWindow(w, p)
    n, every = w.size, np.ones(w.size, dtype=bool)
    out = {}

    def relations(specs, asserted=True):
        for spec in specs:
            sides, leak = [], 0.0
            for terms in (spec.lhs, spec.rhs):
                total = Diagonals.of({}, n)
                for t in terms:
                    c = float(t.coeff(p))
                    word = functools.reduce(
                        lambda prod, name: full[name].entries @ prod,
                        t.word[-2::-1], full[t.word[-1]].entries,
                    )
                    total = total + c * word
                    leak += c * c * _dense_word_leakage(t.word, full)
                sides.append(total)
            interior = np.zeros(n, dtype=bool)
            interior[interior_positions(spec.words(), w)] = True
            out[spec.id] = (_fsum_residual(*sides, interior), math.sqrt(leak),
                            n - int(interior.sum()), asserted)

    relations(X_RELATIONS)
    relations(K_RELATIONS)
    for a, coeff, b in ADJOINT_PAIRS:
        adj = operators.adjoint_matrix(full[a], p).entries
        out[f"adjoint_{a}_vs_{b}"] = (
            _fsum_residual(adj, float(coeff(p)) * full[b].entries, every), 0.0, 0, True
        )
    relations(CASIMIR)
    relations(COMMUTANT)
    x3 = Diagonals.of({0: 1.0 / full["X3"].entries.values[0]}, n)
    one = Diagonals.of({0: np.ones(n)}, n)
    lam, root = p.lam, math.sqrt(1.0 + p.q**2)
    hopping = [
        (-root / (lam * p.q**3)) * (full["Xplus"].entries @ x3),
        (p.q**2 * root / lam) * (full["Xminus"].entries @ x3),
        (1 / lam) * (one + full["R2"].entries @ x3 @ x3),
    ]
    out["hopping_from_coordinate_ladder"] = (max(
        _fsum_residual(mat, full[name].entries, every)
        for name, mat in zip(("tplus", "tminus", "t3"), hopping)
    ), 0.0, 0, True)
    relations(T_TEMPLATE + TORB_TEMPLATE, asserted=False)
    abs_inv = full["abs_xi_inv"].entries
    assembled = {
        "Torb3": full["t3"].entries + full["tau_t"].entries @ full["K3"].entries,
        "Torbplus": full["tplus"].entries + abs_inv @ full["Kplus"].entries,
        "Torbminus": full["tminus"].entries - abs_inv @ full["Kminus"].entries,
    }
    sigma = w.index_arrays().sigma
    for name, mat in assembled.items():
        for label, sector, asserted in (("plus", sigma > 0, True), ("minus", sigma < 0, False)):
            out[f"tensor_{name}_sector_{label}"] = (
                _fsum_residual(mat, full.at(name, -1.0).entries, sector), 0.0, 0, asserted
            )
    return out


class TestSecondPathForTheReduction:
    """The slab's scaled norms against the whole window's own."""

    @pytest.mark.parametrize(
        "w, p",
        [(TruncationWindow(-2, 2, -16, 16), DeformationParams(q=1.5)),
         (TruncationWindow(0, 2, -8, 8), DeformationParams(q=1.1, theta_phase=cmath.exp(0.7j)))],
        ids=["2890-q1.5", "486-q1.1-phase0.7"],
    )
    def test_slab_reports_match_the_whole_window(self, w, p):
        want = _whole_window_checks(w, p)
        got = {c.id: c for r in run_all_suites(w, p, TOL).values() for c in r.checks}
        assert set(want) <= set(got) and len(want) == 37
        for cid, (residual, leakage, excluded, asserted) in want.items():
            c = got[cid]
            assert c.asserted == asserted, cid
            assert c.passed == (not asserted or (residual <= TOL and math.isfinite(leakage))), cid
            assert c.boundary_rows_excluded == excluded, cid
            assert c.leakage_norm == pytest.approx(leakage, rel=1e-14, abs=0.0), cid
            if residual < 1e-3:
                assert abs(c.max_interior_residual - residual) <= 1e-14, cid
            else:
                assert c.max_interior_residual == pytest.approx(residual, rel=1e-13), cid
