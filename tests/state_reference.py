"""Scalar-loop references for the array-backed lattice states.

Each function restates one Python object at a time what a LatticeState
computes on arrays: the builder sums the amplitudes of a repeated index in
input order and drops those with magnitude <= floor, and the inner product
sums Jackson-weighted terms from 0 in canonical order.  Indices are plain
``(M, sigma, mt, m)`` tuples.
"""

import math
import struct

from qeuclid.core import BasisIndex, canonical_key, jackson_weight


def bits(z: complex) -> bytes:
    """The bit pattern of a complex, so -0.0 and 0.0 differ; every NaN
    reads as one pattern."""
    return struct.pack("<dd", *(x if x == x else math.nan for x in (z.real, z.imag)))


def reference_amplitudes(entries, floor: float = 0.0) -> dict[tuple, complex]:
    """{index: amplitude} in canonical order, summed and pruned entry by entry."""
    acc: dict[tuple, complex] = {}
    for idx, amp in entries:
        idx, amp = tuple(idx), complex(amp)
        if idx in acc:
            amp += acc[idx]
        acc[idx] = amp
    kept = [(i, a) for i, a in acc.items() if abs(a) > floor]
    return dict(sorted(kept, key=lambda item: canonical_key(BasisIndex(*item[0]))))


def reference_inner_product(a: dict, b: dict, p) -> complex:
    """sum of q^(4M) q^(2 mt) conj(a[idx]) b[idx] over shared indices, from 0
    and in canonical order."""
    out = 0.0 + 0.0j
    for idx in sorted(set(a) & set(b), key=lambda i: canonical_key(BasisIndex(*i))):
        out += jackson_weight(BasisIndex(*idx), p) * a[idx].conjugate() * b[idx]
    return out
