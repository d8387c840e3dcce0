"""Sparse states over the lattice basis and the Jackson inner product.

A :class:`LatticeState` is a finitely supported complex amplitude map over
valid basis indices, stored as int64 label arrays in canonical order and one
complex128 amplitude array; the inner product weights each index with
``jackson_weight`` and is conjugate-linear in its first argument.  States
and truncation windows serialize to plain text so CLI runs can be chained.
"""

from __future__ import annotations

import io
import math
import os
import re
import warnings
from array import array
from typing import Iterable, Mapping

import numpy as np

from .core import (
    BasisIndex,
    CapacityError,
    DEFAULT_WINDOW_CAPACITY,
    DeformationParams,
    Points,
    TruncationWindow,
    _times,
    canonical_key,
    invalid_indices,
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


def _packed_key(keys) -> np.ndarray | None:
    """One int64 per entry that orders as the tuples of ``keys`` (most
    significant first) order: each key less its least value, scaled by the
    spans of the keys after it.  None where the spans multiply past the
    int64 range (labels reach 2^59)."""
    if not len(keys[0]):
        return np.zeros(0, dtype=np.int64)
    lows = [int(a.min()) for a in keys]
    spans = [int(a.max()) - lo + 1 for a, lo in zip(keys, lows)]
    if math.prod(spans) > 2**63:
        return None
    key = np.zeros(len(keys[0]), dtype=np.int64)
    for a, lo, span in zip(keys, lows, spans):
        key *= span
        key += np.subtract(a, lo, dtype=np.int64)
    return key


def _sort(ix: BasisIndex) -> tuple[np.ndarray, np.ndarray]:
    """Stable argsort of the labels by :func:`canonical_key`, on one packed
    int64 key where the label spans allow it, and the mask of the sorted
    labels unequal to their predecessor."""
    keys = canonical_key(ix)
    new = np.ones(len(ix.m), dtype=bool)
    key = _packed_key(keys)
    if key is None:
        order = np.lexsort(keys[::-1])
        new[1:] = False
        for a in ix:
            a = a[order]
            new[1:] |= a[1:] != a[:-1]
        return order, new
    order = np.argsort(key, kind="stable")
    key = key[order]
    new[1:] = key[1:] != key[:-1]
    return order, new


def _canonical(index: BasisIndex, amplitudes) -> tuple[BasisIndex, np.ndarray]:
    """Validated labels in canonical order and their amplitudes: those of a
    repeated label summed in input order, exact zeros dropped.  The labels
    are gathered once, at the first entry of each label kept."""
    ix = BasisIndex(*(np.asarray(a, dtype=np.int64) for a in index))
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or any(a.shape != amps.shape for a in ix):
        raise ValueError("labels and amplitudes must be 1-d arrays of one length")
    for k in invalid_indices(ix)[:1]:
        validate_index(BasisIndex(*(int(a[k]) for a in ix)))
    order, new = _sort(ix)
    amps = amps[order]
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=len(amps))
    acc = amps[starts]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, sizes.max(initial=1)):  # the k-th repeat of every label
            sel = np.flatnonzero(sizes > k)
            acc[sel] += amps[starts[sel] + k]
        keep = np.hypot(acc.real, acc.imag) > 0.0  # a magnitude past 1.8e308 reads inf
    at = order[starts[keep]]
    return BasisIndex(*(a[at] for a in ix)), acc[keep]


class LatticeState:
    """Finitely supported amplitude map ``{BasisIndex: complex}``.

    ``index`` holds the supporting labels as int64 arrays in canonical order
    and ``values`` their complex128 amplitudes.  Both constructors validate
    the labels, sum the amplitudes of a repeated label in input order and
    prune exact zeros, so boundary zeros produced by the operator rules
    never linger.
    """

    __slots__ = ("index", "values", "_amplitudes")

    def __init__(
        self,
        amplitudes: Mapping[BasisIndex, complex] | Iterable[tuple[BasisIndex, complex]] = (),
    ):
        items = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        pairs = list(items)
        amps = [complex(amp) for _, amp in pairs]
        self.index, self.values = _canonical(stack_indices(i for i, _ in pairs), amps)
        self._amplitudes = None

    @classmethod
    def from_arrays(cls, index: BasisIndex, amplitudes: np.ndarray) -> "LatticeState":
        """State from equal-length label arrays and amplitudes in any order."""
        state = cls.__new__(cls)
        state.index, state.values = _canonical(index, amplitudes)
        state._amplitudes = None
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
        return LatticeState.from_arrays(self.index, _times(complex(scalar), self.values))

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
    return list(unstack_indices(w.index_arrays()))


def inner_product(a: LatticeState, b: LatticeState, p: DeformationParams) -> complex:
    """Jackson-weighted inner product, conjugate-linear in the first argument.

    <a, b> = sum over idx of q^(4M) q^(2 mt) conj(a[idx]) b[idx], added to
    0 term by term in canonical index order, so results are bit-stable.
    """
    # Both supports are sorted and distinct, so after a stable sort of the two
    # together a shared label is an adjacent pair, a's entry first.
    order, new = _sort(BasisIndex(*map(np.concatenate, zip(a.index, b.index))))
    first = np.flatnonzero(~new) - 1
    ia, ib = order[first], order[first + 1] - len(a)
    w = Points(BasisIndex(*(x[ia] for x in a.index)), p).weight
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _times(_times(w, np.conj(a.values[ia])), b.values[ib])
        # cumsum adds in order from 0.0; np.sum would add pairwise.
        return complex(*(np.cumsum(np.append(0.0, x))[-1] for x in (terms.real, terms.imag)))


_STATE_HEADER = "# qeuclid state: M sigma mt m re im"
#: One state-file row: four int64 labels, then the real and imaginary parts.
_ROW = np.dtype([("labels", np.int64, (4,)), ("parts", np.float64, (2,))])
#: Rows that :func:`write_rows` formats and writes at a time, so that the
#: text it holds does not grow with the file.
ROW_BLOCK = 1024
#: A byte that ``bytes.split()`` does not split at: part of a field.
_FIELD_BYTE = re.compile(rb"[^ \t\n\x0b\x0c\r]")


def format_rows(fmt: str, columns) -> str:
    """One line ``fmt % row``, ending in a newline, per row of the
    equal-length arrays ``columns``, all in one ``%`` pass over the
    interleaved columns (``%d``, ``%+d`` and ``%r`` write what ``str``,
    ``{:+d}`` and ``repr`` write).  :func:`write_rows` calls it once per
    block of rows."""
    cols = [c.tolist() for c in columns]
    n = len(cols[0]) if cols else 0
    flat = [None] * (n * len(cols))
    for k, col in enumerate(cols):
        flat[k :: len(cols)] = col
    return ((fmt + "\n") * n) % tuple(flat)


def write_rows(dest, header: Iterable[str], fmt: str, columns) -> None:
    """Write the header lines, then the rows of :func:`format_rows`
    formatted and written ``ROW_BLOCK`` rows at a time, as UTF-8 text to
    the path or the open text stream ``dest``; a file with neither header
    nor rows is one empty line."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8") as fh:
            return write_rows(fh, header, fmt, columns)
    n = len(columns[0]) if len(columns) else 0
    head = "".join(f"{line}\n" for line in header)
    dest.write(head if head or n else "\n")
    for lo in range(0, n, ROW_BLOCK):
        dest.write(format_rows(fmt, [c[lo : lo + ROW_BLOCK] for c in columns]))


def save_state(path: str, state: LatticeState) -> None:
    """Write a state as text lines ``M sigma mt m re im`` in canonical order."""
    columns = (*state.index, state.values.real, state.values.imag)
    write_rows(path, (_STATE_HEADER,), "%d %+d %d %d %r %r", columns)


def load_state(path: str) -> LatticeState:
    """Read a state written by :func:`save_state`.

    A line whose first field starts with '#' is a comment.  Rows may come in
    any order; a repeated index sums its amplitudes.  A malformed row, an
    invalid index, a label beyond 2^59 or a non-finite amplitude raises
    ValueError naming ``path:line``.  The file's bytes are parsed in one
    ``np.loadtxt`` pass, with no decoded copy of the text; a file that pass
    declines is read again row by row, which names the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    ix, amps = _parse_bulk(data) or _parse_rows(path, data)
    del data  # the labels and amplitudes are all that is left to sort
    return LatticeState.from_arrays(ix, amps)


def _parse_bulk(data: bytes) -> tuple[BasisIndex, np.ndarray] | None:
    """Labels and amplitudes of a well-formed state file, parsed from its
    bytes in one ``np.loadtxt`` pass that decodes one line at a time, or
    None where the row reader must decide (and name the line): a lone
    ``\r``, a ``#`` after a row's fields, or a line the pass refuses, such
    as one that is not UTF-8 (``UnicodeDecodeError`` is a ValueError)."""
    if data.count(b"\r") != data.count(b"\r\n"):  # the row reader ends a line there
        return None
    # np.loadtxt cuts a comment from '#' to the line's end: every '#' must
    # start a line's first field, as it does for the row reader.
    start = 0
    while (pos := data.find(b"#", start)) >= 0:
        if _FIELD_BYTE.search(data, data.rfind(b"\n", 0, pos) + 1, pos):
            return None
        start = data.find(b"\n", pos) + 1 or len(data)
    try:
        with warnings.catch_warnings():
            # A file of comments and blank lines has no rows; that is no fault.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            parsed = np.loadtxt(
                io.BytesIO(data), dtype=_ROW, comments="#", ndmin=1, encoding="utf-8"
            )
    except ValueError:
        return None
    ix = BasisIndex(*parsed["labels"].T.copy())
    amps = parsed["parts"].copy().view(np.complex128).ravel()
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
