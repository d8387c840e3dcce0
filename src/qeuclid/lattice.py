"""Sparse states over the lattice basis and the Jackson inner product.

A :class:`LatticeState` is a finitely supported complex amplitude map over
valid basis indices, stored as int64 label arrays in canonical order and one
complex128 amplitude array; the inner product weights each index with
``jackson_weight`` and is conjugate-linear in its first argument.  States
and truncation windows serialize to plain text so CLI runs can be chained.
"""

from __future__ import annotations

import io
from array import array
from typing import Iterable, Mapping

import numpy as np

from .core import (
    BasisIndex,
    CapacityError,
    DEFAULT_WINDOW_CAPACITY,
    DeformationParams,
    TruncationWindow,
    invalid_indices,
    qpow_array,
    stack_indices,
    unstack_indices,
    validate_index,
)

__all__ = [
    "LatticeState",
    "build_window",
    "inner_product",
    "save_state",
    "load_state",
]


def _sort(ix: BasisIndex) -> tuple[np.ndarray, BasisIndex, np.ndarray]:
    """Stable argsort into canonical order (sigma=+1 block first, then M, mt,
    m), the sorted labels, and the mask of those unequal to their predecessor.
    Labels already strictly in that order skip the sort."""
    n, keys = len(ix.m), (ix.sigma < 0, ix.M, ix.mt, ix.m)
    # Row i + 1 follows row i where it is greater at the first key that differs.
    after, tied = np.zeros(max(n - 1, 0), dtype=bool), np.ones(max(n - 1, 0), dtype=bool)
    for a in keys:
        after |= tied & (a[1:] > a[:-1])
        tied &= a[1:] == a[:-1]
    if after.all():
        return np.arange(n), ix, np.ones(n, dtype=bool)
    order = np.lexsort(keys[::-1])
    ix = BasisIndex(*(a[order] for a in ix))
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any([a[1:] != a[:-1] for a in ix], axis=0)
    return order, ix, new


def _canonical(index: BasisIndex, amplitudes, floor: float) -> tuple[BasisIndex, np.ndarray]:
    """Validated labels in canonical order and their amplitudes: those of a
    repeated label summed in input order, magnitudes <= floor dropped."""
    ix = BasisIndex(*(np.asarray(a, dtype=np.int64) for a in index))
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or any(a.shape != amps.shape for a in ix):
        raise ValueError("labels and amplitudes must be 1-d arrays of one length")
    for k in invalid_indices(ix)[:1]:
        validate_index(BasisIndex(*(int(a[k]) for a in ix)))
    order, ix, new = _sort(ix)
    amps = amps[order]
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=len(amps))
    acc = amps[starts]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, sizes.max(initial=1)):  # the k-th repeat of every label
            sel = np.flatnonzero(sizes > k)
            acc[sel] += amps[starts[sel] + k]
        keep = np.hypot(acc.real, acc.imag) > floor  # a magnitude past 1.8e308 reads inf
    return BasisIndex(*(a[starts[keep]] for a in ix)), acc[keep]


class LatticeState:
    """Finitely supported amplitude map ``{BasisIndex: complex}``.

    ``index`` holds the supporting labels as int64 arrays in canonical order
    and ``values`` their complex128 amplitudes.  Both constructors validate
    the labels, sum the amplitudes of a repeated label in input order and
    prune amplitudes with magnitude <= ``floor`` (default 0.0: exact zeros
    only), so boundary zeros produced by the operator rules never linger.
    """

    __slots__ = ("index", "values", "_amplitudes")

    def __init__(
        self,
        amplitudes: Mapping[BasisIndex, complex] | Iterable[tuple[BasisIndex, complex]] = (),
        floor: float = 0.0,
    ):
        items = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        pairs = list(items)
        amps = [complex(amp) for _, amp in pairs]
        self.index, self.values = _canonical(stack_indices(i for i, _ in pairs), amps, floor)
        self._amplitudes = None

    @classmethod
    def from_arrays(
        cls, index: BasisIndex, amplitudes: np.ndarray, floor: float = 0.0
    ) -> "LatticeState":
        """State from equal-length label arrays and amplitudes in any order."""
        state = cls()
        state.index, state.values = _canonical(index, amplitudes, floor)
        return state

    @property
    def amplitudes(self) -> dict[BasisIndex, complex]:
        """The amplitudes as a dict in canonical order, built on first use."""
        if self._amplitudes is None:
            self._amplitudes = dict(zip(self.support(), self.values.tolist()))
        return self._amplitudes

    @classmethod
    def basis_state(cls, idx: BasisIndex) -> "LatticeState":
        """Unit point mass on one basis index."""
        return cls({validate_index(idx): 1.0 + 0.0j})

    def support(self) -> list[BasisIndex]:
        """Supporting indices in canonical order."""
        return list(unstack_indices(self.index))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx: BasisIndex) -> complex:
        return self.amplitudes.get(validate_index(idx), 0.0 + 0.0j)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeState):
            return NotImplemented
        return len(self) == len(other) and all(
            np.array_equal(a, b)
            for a, b in zip((*self.index, self.values), (*other.index, other.values))
        )

    def __add__(self, other: "LatticeState") -> "LatticeState":
        return LatticeState.from_arrays(
            BasisIndex(*map(np.concatenate, zip(self.index, other.index))),
            np.concatenate((self.values, other.values)),
        )

    def __sub__(self, other: "LatticeState") -> "LatticeState":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "LatticeState":
        return LatticeState.from_arrays(self.index, complex(scalar) * self.values)

    def __repr__(self) -> str:
        return f"LatticeState({len(self)} amplitudes)"

    def norm(self, p: DeformationParams) -> float:
        return abs(inner_product(self, self, p)) ** 0.5


def check_capacity(w: TruncationWindow, capacity: int | None = None) -> int:
    """Return w.size; raise CapacityError above ``capacity`` (default DEFAULT_WINDOW_CAPACITY)."""
    cap = DEFAULT_WINDOW_CAPACITY if capacity is None else capacity
    if w.size > cap:
        raise CapacityError(f"window holds {w.size} states, exceeding the cap {cap}")
    return w.size


def build_window(
    w: TruncationWindow, capacity: int | None = None
) -> list[BasisIndex]:
    """Ordered basis of a capacity-checked window (sigma=+1 block first, then M, mt, m)."""
    check_capacity(w, capacity)
    return list(w.iter_indices())


def inner_product(a: LatticeState, b: LatticeState, p: DeformationParams) -> complex:
    """Jackson-weighted inner product, conjugate-linear in the first argument.

    <a, b> = sum over idx of q^(4M) q^(2 mt) conj(a[idx]) b[idx], added to
    0 term by term in canonical index order, so results are bit-stable.
    """
    # Both supports are sorted and distinct, so after a stable sort of the two
    # together a shared label is an adjacent pair, a's entry first.
    order, _, new = _sort(BasisIndex(*map(np.concatenate, zip(a.index, b.index))))
    first = np.flatnonzero(~new) - 1
    ia, ib = order[first], order[first + 1] - len(a)
    w = qpow_array(p.q, 4 * a.index.M[ia]) * qpow_array(p.q, 2 * a.index.mt[ia])
    ar, ai, br, bi = a.values[ia].real, a.values[ia].imag, b.values[ib].real, b.values[ib].imag
    with np.errstate(over="ignore", invalid="ignore"):
        # complex(w, 0.0) * conj(a) * b in real arithmetic, rounded as Python's
        # complex multiply rounds it (numpy's may fuse terms).
        wr, wi = w * ar - 0.0 * -ai, w * -ai + 0.0 * ar
        re, im = wr * br - wi * bi, wr * bi + wi * br
        # cumsum adds in order from 0.0; np.sum would add pairwise.
        return complex(*(np.cumsum(np.append(0.0, x))[-1] for x in (re, im)))


_STATE_HEADER = "# qeuclid state: M sigma mt m re im"
#: One state-file row: four int64 labels, then the real and imaginary parts.
_ROW = np.dtype([("labels", np.int64, (4,)), ("parts", np.float64, (2,))])


def format_rows(fmt: str, columns) -> str:
    """One line ``fmt % row``, ending in a newline, per row of the
    equal-length arrays ``columns``, in one ``%`` pass over the interleaved
    columns (``%d``, ``%+d`` and ``%r`` write what ``str``, ``{:+d}`` and
    ``repr`` write)."""
    cols = [c.tolist() for c in columns]
    n = len(cols[0]) if cols else 0
    flat = [None] * (n * len(cols))
    for k, col in enumerate(cols):
        flat[k :: len(cols)] = col
    return ((fmt + "\n") * n) % tuple(flat)


def write_rows(path: str, header: Iterable[str], fmt: str, columns) -> None:
    """Write the header lines, then the rows of :func:`format_rows`, as
    UTF-8 text; a file with neither is one empty line."""
    text = "".join(f"{line}\n" for line in header) + format_rows(fmt, columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text or "\n")


def save_state(path: str, state: LatticeState) -> None:
    """Write a state as text lines ``M sigma mt m re im`` in canonical order."""
    columns = (*state.index, state.values.real, state.values.imag)
    write_rows(path, (_STATE_HEADER,), "%d %+d %d %d %r %r", columns)


def load_state(path: str) -> LatticeState:
    """Read a state written by :func:`save_state`.

    A line whose first field starts with '#' is a comment.  Rows may come in
    any order; a repeated index sums its amplitudes.  A malformed row, an
    invalid index, a label beyond 2^59 or a non-finite amplitude raises
    ValueError naming ``path:line``.  The file is parsed in one array pass;
    a file that pass declines is read again row by row, which names the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    parsed = _parse_bulk(data)
    ix, amps = parsed if parsed is not None else _parse_rows(path, data)
    return LatticeState.from_arrays(ix, amps)


def _parse_bulk(data: bytes) -> tuple[BasisIndex, np.ndarray] | None:
    """Labels and amplitudes of a well-formed state file in one ``np.loadtxt``
    pass, or None where the row reader must decide (and name the line)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if "\r" in text and text.count("\r") != text.count("\r\n"):  # the row reader ends a line there
        return None
    # Cut out the comment lines; a '#' after a row's fields is left to the
    # row reader.  Lines end at \n, so every \r left sits before one.
    body, start = [], 0
    while (pos := text.find("#", start)) >= 0:
        head = text.rfind("\n", start, pos) + 1 or start
        if text[head:pos].strip():
            return None
        body.append(text[start:head])
        start = text.find("\n", pos) + 1 or len(text)
    body.append(text[start:])
    body = "".join(body)
    if body.isspace() or not body:  # np.loadtxt warns on an empty body
        rows = np.zeros(0, dtype=_ROW)
    else:
        try:
            rows = np.loadtxt(io.StringIO(body), dtype=_ROW, comments=None, ndmin=1)
        except ValueError:
            return None
    ix = BasisIndex(*rows["labels"].T.copy())
    amps = rows["parts"].copy().view(np.complex128).ravel()
    if len(invalid_indices(ix)) or not np.isfinite(amps).all():
        return None
    return ix, amps


def _parse_rows(path: str, data: bytes) -> tuple[BasisIndex, np.ndarray]:
    """Labels and amplitudes read one row at a time; the first bad row
    raises ValueError naming ``path:line``."""
    labels, parts, lines = array("q"), array("d"), []
    # Rows are decoded one at a time so that bytes which are not UTF-8 are
    # reported with their line; bytes.splitlines() breaks lines where text
    # mode does (\n, \r\n and \r).
    for ln, raw in enumerate(data.splitlines(), start=1):
        try:
            text = raw.decode("utf-8")
            row = text.split()
            if not row or row[0].startswith("#"):
                continue
            if len(row) != 6:
                raise ValueError(f"expected 'M sigma mt m re im', got {text.strip()!r}")
            labels.extend(map(int, row[:4]))
            parts.extend(map(float, row[4:]))
        except OverflowError:  # beyond int64, so beyond 2^59 too
            raise ValueError(f"{path}:{ln}: a label is beyond 2^59 in magnitude") from None
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        lines.append(ln)
    ix = BasisIndex(*np.array(labels, dtype=np.int64).reshape(-1, 4).T.copy())
    amps = np.array(parts, dtype=np.float64).view(np.complex128)
    bad = np.union1d(invalid_indices(ix), np.flatnonzero(~np.isfinite(amps)))
    for k in bad[:1]:  # name the first bad row
        try:
            validate_index(BasisIndex(*(int(a[k]) for a in ix)))
            raise ValueError(f"amplitude {amps[k]} is not finite")
        except ValueError as exc:
            raise ValueError(f"{path}:{lines[k]}: {exc}") from None
    return ix, amps
