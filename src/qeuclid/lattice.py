"""Sparse states over the lattice basis and the Jackson inner product.

A :class:`LatticeState` is a finitely supported complex amplitude map over
valid basis indices; the inner product weights each index with
``jackson_weight`` and is conjugate-linear in its first argument.  States
and truncation windows serialize to plain text so CLI runs can be chained.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .core import (
    BasisIndex,
    CapacityError,
    DEFAULT_WINDOW_CAPACITY,
    DeformationParams,
    TruncationWindow,
    canonical_key,
    jackson_weight,
    validate_index,
)

__all__ = [
    "LatticeState",
    "build_window",
    "check_capacity",
    "inner_product",
    "save_state",
    "load_state",
]


class LatticeState:
    """Finitely supported amplitude map ``{BasisIndex: complex}``.

    Amplitudes with magnitude <= ``floor`` are pruned at construction
    (default 0.0: exact zeros only), so boundary zeros produced by the
    operator rules never linger as explicit entries.
    """

    __slots__ = ("amplitudes",)

    def __init__(
        self,
        amplitudes: Mapping[BasisIndex, complex] | Iterable[tuple[BasisIndex, complex]] = (),
        floor: float = 0.0,
    ):
        items = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        acc: dict[BasisIndex, complex] = {}
        for idx, amp in items:
            idx = validate_index(idx)
            amp = complex(amp)
            if idx in acc:
                amp += acc[idx]
            acc[idx] = amp
        self.amplitudes = {i: a for i, a in acc.items() if abs(a) > floor}

    @classmethod
    def basis_state(cls, idx: BasisIndex) -> "LatticeState":
        """Unit point mass on one basis index."""
        return cls({validate_index(idx): 1.0 + 0.0j})

    def support(self) -> list[BasisIndex]:
        """Supporting indices in canonical order."""
        return sorted(self.amplitudes, key=canonical_key)

    def __len__(self) -> int:
        return len(self.amplitudes)

    def __getitem__(self, idx: BasisIndex) -> complex:
        return self.amplitudes.get(validate_index(idx), 0.0 + 0.0j)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeState):
            return NotImplemented
        return self.amplitudes == other.amplitudes

    def __add__(self, other: "LatticeState") -> "LatticeState":
        acc = dict(self.amplitudes)
        for idx, amp in other.amplitudes.items():
            acc[idx] = acc.get(idx, 0.0) + amp
        return LatticeState(acc)

    def __sub__(self, other: "LatticeState") -> "LatticeState":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "LatticeState":
        return LatticeState({i: complex(scalar) * a for i, a in self.amplitudes.items()})

    def __repr__(self) -> str:
        return f"LatticeState({len(self.amplitudes)} amplitudes)"

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

    <a, b> = sum over idx of q^(4M) q^(2 mt) conj(a[idx]) b[idx], summed in
    canonical index order so results are bit-stable.
    """
    common = sorted(set(a.amplitudes) & set(b.amplitudes), key=canonical_key)
    out = 0.0 + 0.0j
    for idx in common:
        out += jackson_weight(idx, p) * a.amplitudes[idx].conjugate() * b.amplitudes[idx]
    return out


_STATE_HEADER = "# qeuclid state: M sigma mt m re im"


def save_state(path: str, state: LatticeState) -> None:
    """Write a state as text lines ``M sigma mt m re im`` in canonical order."""
    lines = [_STATE_HEADER]
    for idx in state.support():
        amp = state.amplitudes[idx]
        lines.append(
            f"{idx.M} {idx.sigma:+d} {idx.mt} {idx.m} {amp.real!r} {amp.imag!r}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_state(path: str) -> LatticeState:
    """Read a state written by :func:`save_state` ('#' lines are comments)."""
    entries: list[tuple[BasisIndex, complex]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(f"{path}:{ln}: expected 'M sigma mt m re im', got {line!r}")
            M, sigma, mt, m = (int(x) for x in parts[:4])
            re, im = float(parts[4]), float(parts[5])
            entries.append((BasisIndex(M, sigma, mt, m), complex(re, im)))
    return LatticeState(entries)
