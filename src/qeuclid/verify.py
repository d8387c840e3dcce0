"""Executable verification suites over the lattice operator catalogue.

Each suite turns one family of operator identities into numbers: relation
words are evaluated over a truncation window, restricted to the columns on
which truncation is invisible, and reduced to a single relative Frobenius
residual per identity.  Every matrix check takes that residual in one
balanced form (``_balanced_residual``), in which finite entries never read
NaN.  ``run_all_suites`` checks the capacity once and builds one
:class:`LetterTable` for the run, which materializes each distinct
(operator, phase) once and is handed to every check.  Norms and dot
products sum with ``np.add.reduce`` (never BLAS), in a named order, so
report bytes depend neither on the BLAS thread count nor on memory layout.
At a real ladder phase every letter, word and residual is float64; a
complex phase makes the letters that carry it complex128.

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
Every word is composed by multiplying the shifted diagonals of the table's
letters (:class:`operators.Diagonals`).  One second path, the same at every
window size, recomputes each word from the same letters without that
product.  With the same term order and the same complex multiply, a
correct word equals its path sum bit for bit, so any difference, in an
offset or in an entry that does not compare equal, can only mean a defect
in the composition (order, association, a lost letter or entry), and
raises; the first failing word, in spec, side and term order, names the
error.

The second path is a per-column path sum.  A letter stores at most two
diagonals, so a word of k letters has at most 2^k paths from each column.
Starting from the rightmost letter's diagonals, each next letter's stored
value is gathered at every path's current row by index arrays, multiplied
into the path's value, and paths that reach the same total offset add, in
the product's term order.  It needs no sort, no random vector and no n x n
array, and it checks the product kernel's indexing and slice bounds with
different code.

One M-slab
----------
Each identity is homogeneous in r, and a letter of ``r_degree`` k on slab M
is q^(4k(M - M*)) times the letter on M*, the slab nearest M = 0.  Letters
live on M* only: norms scale by s_k (``LetterTable.scale``), excluded
columns count once per slab, and ``Lambda``/``Lambda_inv`` are checked on
two slabs.  One evaluation of each branch, on M* stacked with M_min and
M_max, builds the letter and checks that it scales as r^k; a letter that
does not reads NaN.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    DeformationParams,
    QeuclidError,
    TruncationWindow,
    _times,
    qpow,
    window_label,
)
from .lattice import check_capacity
from .operators import (
    Diagonals,
    OperatorMatrix,
    _materialize,
    _pair_rows,
    adjoint_matrix,
    get_operator,
    materialize,
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

#: Fixed tolerance of the two recursion identities and the closed-form checks.
RECURSION_TOL = 1e-13

#: Relative gap allowed between an end slab's coefficients and q^(4k dM) times the slab's.
FACTOR_RTOL = 1e-13

Coeff = Callable[[DeformationParams], float]


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
    tolerance: float
    boundary_rows_excluded: int = 0
    leakage_norm: float = 0.0
    asserted: bool = True

    @property
    def passed(self) -> bool:
        """The residual is within tolerance and the leakage is finite."""
        return self.max_interior_residual <= self.tolerance and math.isfinite(self.leakage_norm)

    def to_json_dict(self) -> dict:
        doc = {
            "id": self.id,
            "window": window_label(self.window),
            "q": self.q,
            "residual": self.max_interior_residual,
            "pass": self.passed,
            "leakage": self.leakage_norm,
            "excluded_rows": self.boundary_rows_excluded,
        }
        # Strict JSON has no NaN or Infinity: such a value reads null, and
        # "non_finite" spells it out.
        keys = ("leakage", "residual")
        bad = {k: repr(float(doc[k])) for k in keys if not math.isfinite(doc[k])}
        if bad:
            doc.update(dict.fromkeys(bad))
            doc["non_finite"] = bad
        return doc


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


def config_dict(w: TruncationWindow, p: DeformationParams, tol: float) -> dict:
    return {
        "q": p.q,
        "r0": p.r0,
        "theta_phase": [p.theta_phase.real, p.theta_phase.imag],
        "window": window_label(w),
        "tolerance": tol,
    }


# --- relation catalogues ------------------------------------------------------

def _one(p: DeformationParams) -> float:
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


# --- letter table -------------------------------------------------------------

class LetterTable:
    """The catalogue operators of one verify run, on one M-slab of its window.

    The capacity bounds the window ``w`` of ``slabs`` slabs.  ``letters[name]``
    is the operator on ``slab`` (``n`` states) at the run's phase, and
    ``letters.at(name, phase, on)`` at another phase or window; each is
    built once, on first read, from ``params(phase)`` (one per phase), and
    only read after.  ``masks`` keeps each shift's ``_interior_mask`` mask.
    """

    def __init__(self, w: TruncationWindow, p: DeformationParams, capacity: int | None = None):
        self.w, self.p = w, p
        check_capacity(w, capacity)
        mid = min(max(0, w.M_min), w.M_max)
        self.slab = w if w.M_min == w.M_max else replace(w, M_min=mid, M_max=mid)
        self.n, self.slabs = self.slab.size, w.M_max - w.M_min + 1
        self._made: dict[tuple[str, complex, TruncationWindow], OperatorMatrix] = {}
        self._params: dict[complex, DeformationParams] = {}
        self.masks: dict[tuple[int, int, int], np.ndarray] = {}

    def __getitem__(self, name: str) -> OperatorMatrix:
        return self.at(name, self.p.theta_phase)

    def params(self, phase: complex) -> DeformationParams:
        return self._params.setdefault(complex(phase), replace(self.p, theta_phase=phase))

    def at(self, name: str, phase: complex, on: TruncationWindow | None = None) -> OperatorMatrix:
        w = on or self.slab
        key = (name, complex(phase), w)
        if key not in self._made:
            self._made[key] = self._letter(name, self.params(phase), w)
        return self._made[key]

    def _letter(self, name: str, p: DeformationParams, on: TruncationWindow) -> OperatorMatrix:
        """The letter on ``on``; on several slabs, each branch is evaluated
        once on the points of ``on`` stacked with them moved to end on M_min
        and on M_max, and the letter reads NaN unless those ``_factors``."""
        if self.slabs == 1:
            return materialize(name, on, p, on.size)  # capacity checked above
        op, ok = get_operator(name), []
        moves = [0, *{self.w.M_min - on.M_min, self.w.M_max - on.M_max} - {0}]

        def values(br, at):
            M, *rest = at
            src = [np.concatenate([M + d for d in moves])] + [np.tile(a, len(moves)) for a in rest]
            here, *ends = br.values(at._make(src), p).reshape(len(moves), -1)
            ok.extend(self._factors(here, x, op.r_degree * d) for d, x in zip(moves[1:], ends))
            return here

        letter = _materialize(op, on, p, values)
        if all(ok):
            return letter
        # Every check that reads the letter reads NaN.
        return replace(letter, entries=Diagonals.of({0: np.full(on.size, math.nan)}, on.size))

    def _factors(self, here: np.ndarray, there: np.ndarray, kd: int) -> bool:
        """Whether an end slab's coefficients are finite, nonzero where the
        slab's are, and the slab's times q^(4k dM)."""
        with np.errstate(over="ignore", invalid="ignore"):
            want = here * qpow(self.p.q, 4 * kd)
            gap = np.abs(there - want)
        ok = (gap <= FACTOR_RTOL * np.abs(want)) & np.isfinite(gap)
        return bool((ok & ((there != 0) | (here == 0))).all())

    def scale(self, k: int, squared: bool = False) -> float:
        """s_k = sqrt(sum over the window's M of q^(8k(M - M*))), or s_k^2, the
        term at M_max factored out: it overflows only where that term does."""
        x = -8 * k * math.log(self.p.q)
        # The geometric sum of q^(-8kj), j < slabs, in log space.
        total = math.expm1(self.slabs * x) / math.expm1(x) if k else self.slabs
        top = 4 * k * (self.w.M_max - self.slab.M_min) * (2 if squared else 1)
        return qpow(self.p.q, top) * (total if squared else math.sqrt(total))


def _report(
    letters: LetterTable, cid: str, residual: float, tol: float, asserted: bool = True, **extra
) -> ResidualReport:
    """One check's report; a report-only check has an infinite tolerance."""
    tolerance = tol if asserted else math.inf
    w, q = letters.w, letters.p.q
    return ResidualReport(cid, w, q, residual, tolerance, asserted=asserted, **extra)


# --- word evaluation ----------------------------------------------------------

def word_matrix(word: Sequence[str], letters: LetterTable) -> tuple[Diagonals, float]:
    """An operator word's matrix on the table's slab plus the squared
    leakage it drops over the window, each term ``_spread`` at the r-degree
    of the word up to and including the letter that drops it.

    The word is the product of its letters' materialized matrices, applied
    rightmost first; the leakage sums the squared magnitude of every
    amplitude a step carries to a valid index outside the slab.  The
    first letter adds its stored total.  What a later letter drops from
    column j scales with the squared norm of row j of the product so far,
    which is formed only at the letter's boundary columns: a letter that
    leaks nowhere costs nothing, and no array of length n is made.
    """
    n, d = letters.n, get_operator(word[-1]).r_degree
    *rest, first = [letters[name] for name in word]
    prod, leak = first.entries, _spread(first.total_leakage, d, letters)
    for name, letter in zip(word[-2::-1], reversed(rest)):
        d += get_operator(name).r_degree
        cols, lost = letter.boundary_columns, letter.boundary_leakage
        if len(cols):
            # Row j holds, on offset o, the entry of column j - o; each
            # row's squares add in ascending offset, as a whole-window sum
            # would.  Squares may overflow to inf; only rows that are
            # reached and leak count, so no inf meets a 0 (NaN).
            reach = np.zeros(len(cols))
            with np.errstate(over="ignore"):
                for o, v in zip(prod.offsets.tolist(), prod.values):
                    src = cols - o
                    row = (src >= 0) & (src < n)
                    x = v[src[row]]
                    reach[row] += x.real * x.real + x.imag * x.imag
                hit = (reach != 0.0) & (lost != 0.0)
                leak += _spread(float(np.add.reduce(reach[hit] * lost[hit])), d, letters)
        prod = letter.entries @ prod
    return prod, leak


def _spread(leak: float, d: int, letters: LetterTable) -> float:
    """A slab's leakage term at r-degree d over the window; 0 stays 0 (no 0 * inf)."""
    return leak * letters.scale(d, squared=True) if leak else leak


def _shift_prefixes(word: Sequence[str]) -> set[tuple[int, int, int]]:
    """All partial composite shifts of a word over every branch choice."""
    prefixes: set[tuple[int, int, int]] = set()
    cur = {(0, 0, 0)}
    for name in reversed(tuple(word)):
        branches = get_operator(name).branches
        cur = {(a + br.dM, b + br.dmt, c + br.dm) for a, b, c in cur for br in branches}
        prefixes |= cur
    return prefixes


def _interior_mask(
    words: Iterable[Sequence[str]],
    w: TruncationWindow,
    masks: dict[tuple[int, int, int], np.ndarray],
) -> np.ndarray:
    """Boolean mask over canonical positions of the interior columns: the
    AND over every prefix shift of the columns that the shift keeps in the
    window or sends to an invalid index.  ``masks`` keeps each shift's
    columns for later calls over the same window."""
    ok = np.ones(w.size, dtype=bool)
    for shift in set().union(*(_shift_prefixes(word) for word in words)):
        if shift not in masks:
            tgt = w.index_arrays().shifted(*shift)
            masks[shift] = w.contains(tgt) | ~tgt.is_valid()
        ok &= masks[shift]
    return ok


def interior_positions(words: Iterable[Sequence[str]], w: TruncationWindow) -> list[int]:
    """Columns (canonical positions) that no prefix of any word can carry
    outside the window to a valid index (invalid ones carry exact zeros)."""
    return np.flatnonzero(_interior_mask(words, w, {})).tolist()


def _norm(v: np.ndarray, e: int) -> float:
    """Frobenius norm of 2^-e * v: ``np.add.reduce`` of squared parts (a
    real array has no imaginary part to add)."""
    total = 0
    for x in (v.real, v.imag) if np.iscomplexobj(v) else (v,):
        # Squared in place: one scratch array per part.
        y = np.ldexp(x, -e)
        total += float(np.add.reduce(np.square(y, out=y), axis=None))
    return math.sqrt(total)


def _relative_norm(gap: np.ndarray, *refs: np.ndarray, scale: float = 1.0) -> float:
    """Frobenius norm of ``gap`` over max(1, the norm of each of ``refs``),
    each norm multiplied by ``scale`` (the norm over every slab).

    When every entry is finite, all arrays are scaled by 2^-e with 2^e just
    above the largest entry (e >= 0), so no square overflows and the floor 1
    becomes 2^-e / scale; a power of two scales exactly.  A non-finite
    entry leaves them unscaled, and the quotient reads inf or NaN; so does a
    non-finite ``scale``.  Zeros add nothing.
    """
    parts = (gap, *refs)
    big = max((float(np.max(np.abs(d))) for d in parts if d.size), default=0.0)
    e = max(math.frexp(big)[1], 0) if math.isfinite(big) else 0
    # Unscaled, the squares of finite entries beside a non-finite one overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [_norm(d, e) for d in parts]
    floor = max(math.ldexp(1.0, -e) / scale, *norms[1:])
    # Past an infinite scale the far slabs overflow; a floor that underflows
    # to 0 meets only a gap of 0 or a non-finite one.
    return math.nan if not scale < math.inf else norms[0] / floor if floor else norms[0]


def _balanced_residual(L: Diagonals, R: Diagonals, mask: np.ndarray, scale=1.0) -> float:
    """Frobenius norm of (L-R) on the masked columns over max(1, |L|, |R|),
    each ``scale`` times the slab's, taken by ``_relative_norm`` (finite
    entries never read NaN) over those columns of the stored diagonal
    values; an absent entry, and every slot whose row falls outside the
    matrix, is an exact 0.

    The entries are gathered in a named order, whatever the layout of
    ``values``: column by column, ascending offset within a column, by one
    ``np.compress`` of the masked columns (no gather at all when every
    column is masked) and a C-order ravel of its transpose.  That order
    fixes the bits of each sum.  With no masked column the gather is empty,
    and the residual reads 0.0.
    """
    every = mask.all()

    def columns(A: Diagonals) -> np.ndarray:
        return (A.values if every else np.compress(mask, A.values, axis=1)).T.ravel()

    # L - R is freed once its columns are gathered.
    return _relative_norm(columns(L - R), columns(L), columns(R), scale=scale)


def _path_sum(mats: Sequence[Diagonals]) -> Diagonals:
    """The product of ``mats``, rightmost first, summed path by path from
    their stored values.

    Starting from the rightmost matrix's diagonals, each next matrix's value
    is gathered at each path's current row by index arrays (``np.take``
    under a mask of the rows that exist), not by the slice bounds of the
    diagonal product, and multiplied into the path's value by ``_times``.
    Paths that reach the same total offset add, in the product's term
    order: ascending right offset, then ascending left offset.  An absent
    entry on either side contributes nothing, so no 0 * inf appears.
    """
    *rest, prod = mats
    n = prod.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for A in reversed(rest):
            offsets, out = _pair_rows(A, prod)
            sums = dict(zip(offsets.tolist(), out))
            for ob, x in zip(prod.offsets.tolist(), prod.values):
                # Column c's path stands at row c + ob of the product so far.
                inner = np.arange(ob, n + ob)
                x_absent = x == 0
                for oa, a in zip(A.offsets.tolist(), A.values):
                    gathered = np.take(a, inner, mode="clip")
                    term = _times(gathered, x)
                    # No term unless both rows c + ob and c + ob + oa exist
                    # and both entries are present.
                    absent = (inner < max(0, -oa)) | (inner >= min(n, n - oa)) | x_absent
                    absent |= gathered == 0
                    np.copyto(term, 0, where=absent)
                    # Each total offset's sum starts at +0.0, as the product's does.
                    sums[oa + ob] += term
            prod = Diagonals.nonempty(offsets, out)
    return prod


def _require_path_agreement(
    spec_id: str, word: tuple[str, ...], mat: Diagonals, letters: LetterTable
) -> None:
    """Require the composed word ``mat`` to be the path sum of its letters:
    the same offsets, and entries that compare equal, a NaN matching only a
    NaN in the same part of the same slot.  The error names the first
    offset and column, ascending, at which the two differ."""
    ref = _path_sum([letters[name].entries for name in word])
    # A correct word passes on one plain comparison; only a word that fails
    # it is compared again, offset by offset.
    if ref.offsets.tolist() == mat.offsets.tolist() and (ref.values == mat.values).all():
        return
    mine, theirs = (dict(zip(D.offsets.tolist(), D.values)) for D in (mat, ref))
    for o in sorted(mine.keys() | theirs.keys()):
        if o in mine and o in theirs:
            a, b = mine[o], theirs[o]
            differ = np.zeros(len(a), dtype=bool)
            for x, y in ((a.real, b.real), (a.imag, b.imag)):
                differ |= (x != y) & ~(np.isnan(x) & np.isnan(y))
            if not differ.any():
                continue
        else:
            # A diagonal that one side lacks differs at its first stored entry.
            differ = mine.get(o, theirs.get(o)) != 0
        raise QeuclidError(
            f"evaluation paths disagree on word {word} of {spec_id}: sparse composition "
            f"vs path sum differ at offset {o}, column {int(np.argmax(differ))}"
        )


def check_relations(
    specs: Sequence[RelationSpec], letters: LetterTable, tol: float, asserted: bool = True
) -> list[ResidualReport]:
    """Interior relative residual of each relation over the table's window.

    Every word is composed once from the table's letters and required, as
    it is composed, to equal the path sum of the same letters
    (``_require_path_agreement``), so the first failing word, in spec, side
    and term order, raises.  Each side sums its words as ``total + c * mat``
    in term order, and the residual of the two sums is taken by
    ``_balanced_residual`` on the relation's interior columns, at the
    relation's r-degree.
    """
    w, p, n = letters.slab, letters.p, letters.n
    reports = []
    for spec in specs:
        # Words of unequal r-degree, or that move M, do not factor over the
        # slabs: on several, their residual reads NaN.
        degrees = {sum(get_operator(name).r_degree for name in word) for word in spec.words()}
        moves = any(s[0] for word in spec.words() for s in _shift_prefixes(word))
        one = len(degrees) == 1 and not moves or letters.slabs == 1
        scale = letters.scale(max(degrees)) if one else math.nan
        sums, leaks = [], []
        for terms in (spec.lhs, spec.rhs):
            total = Diagonals.of({}, n)
            leak = 0.0
            for t in terms:
                mat, lk = word_matrix(t.word, letters)
                _require_path_agreement(spec.id, t.word, mat, letters)
                # An overflowing word reads inf or NaN and fails the residual.
                c = float(t.coeff(p))
                total = total + c * mat
                # The next word is composed while this name is still bound.
                del mat
                # A word that leaks nothing adds nothing (no inf * 0).  From
                # |c| = 2^512, where a float's ** raises, |c|^2 reads inf.
                if lk:
                    leak += (math.inf if abs(c) >= 2.0**512 else abs(c) ** 2) * lk
            sums.append(total)
            leaks.append(leak)
        interior = _interior_mask(spec.words(), w, letters.masks)
        reports.append(_report(
            letters, spec.id, _balanced_residual(*sums, interior, scale), tol, asserted,
            boundary_rows_excluded=(n - int(interior.sum())) * letters.slabs,
            leakage_norm=math.sqrt(sum(leaks)),
        ))
    return reports


def check_adjointness(
    pairs: Sequence[tuple[str, Coeff, str]], letters: LetterTable, tol: float
) -> list[ResidualReport]:
    """Verify adjoint(A) = c * B entrywise over the window for each pair.

    Windowed entries of single catalogue operators are exact, so the
    comparison holds on every entry and nothing is excluded.  A pair that
    shifts M is compared on the slab pair, one block for the window's n_M - 1.
    """
    p = letters.params(letters.p.theta_phase)
    reports = []
    for a_name, coeff, b_name in pairs:
        op = get_operator(a_name)
        on, scale = letters.slab, letters.scale(op.r_degree)
        if letters.slabs > 1 and any(br.dM for br in op.branches):
            low = min(on.M_min, letters.w.M_max - 1)
            on, scale = replace(on, M_min=low, M_max=low + 1), math.sqrt(letters.slabs - 1)
        adj = adjoint_matrix(letters.at(a_name, p.theta_phase, on), p).entries
        target = float(coeff(p)) * letters.at(b_name, p.theta_phase, on).entries
        residual = _balanced_residual(adj, target, np.ones(on.size, dtype=bool), scale)
        reports.append(_report(letters, f"adjoint_{a_name}_vs_{b_name}", residual, tol))
    return reports


def check_homomorphism(letters: LetterTable, tol: float) -> list[ResidualReport]:
    """Hopping operators assembled from the coordinate ladder vs the catalogue.

    Assembles tplus = -(1/(lam*q^3)) * sqrt(1+q^2) * Xplus (X3)^-1,
    tminus = (q^2/lam) * sqrt(1+q^2) * Xminus (X3)^-1, and
    t3 = (1/lam) * (1 + R2 (X3)^-2), with (X3)^-1 the spectral (diagonal)
    inverse, and compares them entrywise to the direct catalogue rules.
    The ladder-template relations for the hopping and orbital families are
    appended report-only, once the assembly is freed.
    """
    worst = _hopping_residual(letters)
    templates = check_relations(T_TEMPLATE + TORB_TEMPLATE, letters, tol, asserted=False)
    return [_report(letters, "hopping_from_coordinate_ladder", worst, tol), *templates]


def _hopping_residual(letters: LetterTable) -> float:
    """The worst residual of the three assembled hopping operators (r-degree 0)."""
    p, X3 = letters.p, letters["X3"].entries
    x3 = dict(zip(X3.offsets.tolist(), X3.values)).get(0, np.zeros(letters.n))
    lam, root = p.lam, math.sqrt(1.0 + p.qpow(2))
    # Where X3 underflows to 0 its inverse reads inf and the residual NaN.
    with np.errstate(all="ignore"):
        x3_inv = Diagonals.of({0: 1.0 / x3}, letters.n)
    one = Diagonals.of({0: np.ones(letters.n)}, letters.n)
    assembled = {
        "tplus": (-root / (lam * p.qpow(3))) * (letters["Xplus"].entries @ x3_inv),
        "tminus": (p.qpow(2) * root / lam) * (letters["Xminus"].entries @ x3_inv),
        "t3": (1 / lam) * (one + letters["R2"].entries @ x3_inv @ x3_inv),
    }
    every_column = np.ones(letters.n, dtype=bool)
    residuals = [
        _balanced_residual(mat, letters[name].entries, every_column, letters.scale(0))
        for name, mat in assembled.items()
    ]
    # np.max, unlike the builtin max, propagates a NaN residual.
    return float(np.max(residuals))


def check_tensor_torb(letters: LetterTable, tol: float) -> list[ResidualReport]:
    """Orbital operators assembled as hopping + |xi|^-1 * mode ladder.

    The assembly Torb3 = t3 + tau_t*K3, Torb+ = t+ + |xi|^-1*K+,
    Torb- = t- - |xi|^-1*K- uses the run's phase; the direct catalogue
    operators are read at the determined phase -1 (the only one with a
    classical limit), so running with phase +1 makes the ladder checks fail,
    as they must.  The positive-sector comparison is asserted; the mirror
    sector, where the direct rules carry a signed 1/xi, is reported only.
    """
    abs_inv = letters["abs_xi_inv"].entries
    assembled = {
        "Torb3": letters["t3"].entries + letters["tau_t"].entries @ letters["K3"].entries,
        "Torbplus": letters["tplus"].entries + abs_inv @ letters["Kplus"].entries,
        "Torbminus": letters["tminus"].entries - abs_inv @ letters["Kminus"].entries,
    }
    sigma = letters.slab.index_arrays().sigma
    sectors = (("sector_plus", sigma > 0, True), ("sector_minus", sigma < 0, False))
    return [
        _report(letters, f"tensor_{name}_{label}", _balanced_residual(
            mat, letters.at(name, -1.0).entries, sector, letters.scale(0)), tol, asserted)
        for name, mat in assembled.items()
        for label, sector, asserted in sectors
    ]


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


def _midpoints() -> np.ndarray:
    return (np.arange(64) + 0.5) / 64


def _balanced_max(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def j_recursion_residual(p: DeformationParams, beta: float = 0.0) -> float:
    """Residual of J(x) - q^2 J(q^-2 x) = (q/lam)(1 + x^2) at 64 midpoints."""
    x = _midpoints()
    lhs = j_solution(x, p, beta) - p.qpow(2) * j_solution(p.qpow(-2) * x, p, beta)
    rhs = (p.q / p.lam) * (1.0 + x * x)
    return _balanced_max(lhs, rhs)


def check_recursions(
    p: DeformationParams, w: TruncationWindow | None = None
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
    # Where q^2 overflows, the closed forms and their residuals read inf or NaN.
    with np.errstate(all="ignore"):
        phi_lhs = phi_solution(x, p) - phi_solution(p.qpow(-2) * x, p)
        phi_rhs = p.lam * x * x
        phi_res = _balanced_max(phi_lhs, phi_rhs)
        zero_res = abs(float(phi_solution(0.0, p)) - (-p.q / (1.0 + p.qpow(2))))
        sign_pts = phi_solution(x * p.qpow(-1), p)
        # np.max, unlike the builtin max, propagates a NaN.
        sign_res = float(np.max(sign_pts, initial=0.0))
        j_res = j_recursion_residual(p, beta=0.0)
    return [
        ResidualReport("phi_recursion_midpoints", w, p.q, phi_res, RECURSION_TOL),
        ResidualReport("phi_value_at_zero", w, p.q, zero_res, 0.0),
        ResidualReport("phi_nonpositive_on_core", w, p.q, sign_res, 0.0),
        ResidualReport("j_recursion_midpoints", w, p.q, j_res, RECURSION_TOL),
    ]


def check_lowest_weight(letters: LetterTable) -> list[ResidualReport]:
    """The mode-lowering ladder must kill every m = mt state exactly.

    The residual is the largest magnitude of the ``Kminus`` coefficient
    evaluated on the window's m = mt labels themselves (their targets
    m - 1 < mt are invalid, so ``operators.images`` never evaluates it
    there, and the window of depth 0 holds just them); it must be
    identically zero, not merely small.
    """
    lowest = replace(letters.w, k_max=0).index_arrays()
    (branch,) = get_operator("Kminus").branches
    # np.max, unlike the builtin max, propagates a NaN.
    worst = float(np.max(np.abs(branch.values(lowest, letters.p))))
    return [_report(letters, "lowest_weight_annihilation", worst, 0.0)]


# --- suite driver ---------------------------------------------------------------

#: Suite name -> check of (letter table, tol), in run order.
#: Each entry looks its check function up in this module at call time, so a
#: wrapper installed on the module attribute sees every call.
_SUITES: dict[str, Callable[[LetterTable, float], list[ResidualReport]]] = {
    "x_relations": lambda letters, tol: check_relations(X_RELATIONS, letters, tol),
    "k_relations": lambda letters, tol: check_relations(K_RELATIONS, letters, tol),
    "adjointness": lambda letters, tol: check_adjointness(ADJOINT_PAIRS, letters, tol),
    "casimir": lambda letters, tol: check_relations(CASIMIR, letters, tol),
    "commutant": lambda letters, tol: check_relations(COMMUTANT, letters, tol),
    "homomorphism": lambda letters, tol: check_homomorphism(letters, tol),
    "tensor": lambda letters, tol: check_tensor_torb(letters, tol),
    "recursions": lambda letters, tol: check_recursions(letters.p, letters.w),
    "lowest_weight": lambda letters, tol: check_lowest_weight(letters),
}

SUITE_NAMES: tuple[str, ...] = tuple(_SUITES)


def run_suite(name: str, letters: LetterTable, tol: float) -> SuiteReport:
    check = _SUITES.get(name)
    if check is None:
        raise QeuclidError(f"unknown suite {name!r}; have: {', '.join(SUITE_NAMES)}")
    return SuiteReport(
        suite=name, config=config_dict(letters.w, letters.p, tol), checks=check(letters, tol)
    )


def run_all_suites(
    w: TruncationWindow, p: DeformationParams, tol: float, capacity: int | None = None
) -> dict[str, SuiteReport]:
    """Run every suite, one after another, in SUITE_NAMES order, on one
    letter table built for the run."""
    letters = LetterTable(w, p, capacity)
    return {name: run_suite(name, letters, tol) for name in SUITE_NAMES}
