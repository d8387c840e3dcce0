"""Scalar-loop references for the array-backed lattice states.

Each function restates one Python object at a time what a LatticeState
computes on arrays: the builder sums the amplitudes of a repeated index in
input order and drops those that sum to exactly 0, the inner product
sums Jackson-weighted terms from 0 in canonical order, and the state-file
reader parses one row at a time.  Indices are plain ``(M, sigma, mt, m)``
tuples.
"""

import math
import struct

import numpy as np

from qeuclid.core import BasisIndex, canonical_key, validate_index


def bits(z: complex) -> bytes:
    """The bit pattern of a complex, so -0.0 and 0.0 differ; every NaN
    reads as one pattern."""
    return struct.pack("<dd", *(x if x == x else math.nan for x in (z.real, z.imag)))


def reference_amplitudes(entries) -> dict[tuple, complex]:
    """{index: amplitude} in canonical order, summed and pruned entry by entry."""
    acc: dict[tuple, complex] = {}
    for idx, amp in entries:
        idx, amp = tuple(idx), complex(amp)
        if idx in acc:
            amp += acc[idx]
        acc[idx] = amp
    kept = [(i, a) for i, a in acc.items() if math.hypot(a.real, a.imag) > 0.0]
    return dict(sorted(kept, key=lambda item: canonical_key(BasisIndex(*item[0]))))


def reference_inner_product(a: dict, b: dict, p) -> complex:
    """sum of q^(4M) q^(2 mt) conj(a[idx]) b[idx] over shared indices, from 0
    and in canonical order."""
    out = 0.0 + 0.0j
    for idx in sorted(set(a) & set(b), key=lambda i: canonical_key(BasisIndex(*i))):
        weight = p.qpow(4 * idx[0]) * p.qpow(2 * idx[2])
        out += weight * a[idx].conjugate() * b[idx]
    return out


def reference_load_state(path: str) -> dict[tuple, complex]:
    """{index: amplitude} of a state file, read row by row as
    ``lattice.load_state`` specifies it, or its ValueError naming
    ``path:line``.

    Lines end where ``bytes.splitlines`` ends them.  A line that is not
    UTF-8, has other than six fields, or holds a label that ``int`` rejects
    or that is beyond int64, or an amplitude part that ``float`` rejects,
    fails at once, the labels checked left to right before the parts.  Only
    after every row parsed is the first row with an invalid index or a
    non-finite amplitude named.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    rows = []
    for ln, raw in enumerate(data.splitlines(), start=1):
        try:
            text = raw.decode("utf-8")
            fields = text.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != 6:
                raise ValueError(f"expected 'M sigma mt m re im', got {text.strip()!r}")
            labels = []
            for x in fields[:4]:
                labels.append(int(x))
                if not -(2**63) <= labels[-1] < 2**63:
                    raise ValueError("a label is beyond 2^59 in magnitude")
            re, im = (float(x) for x in fields[4:])
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        rows.append((ln, tuple(labels), complex(re, im)))
    for ln, labels, amp in rows:
        try:
            validate_index(BasisIndex(*labels))
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError(f"amplitude {np.complex128(amp)} is not finite")
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
    return reference_amplitudes((labels, amp) for _, labels, amp in rows)
