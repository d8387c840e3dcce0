"""Tests for sparse lattice states, the Jackson inner product, and state files."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qeuclid.core import (
    BasisIndex,
    CapacityError,
    DeformationParams,
    TruncationWindow,
    canonical_key,
    jackson_weight,
)
from qeuclid import lattice
from qeuclid.operators import apply
from qeuclid.lattice import (
    LatticeState,
    build_window,
    inner_product,
    load_state,
    save_state,
    write_rows,
)
from state_reference import (
    bits,
    reference_amplitudes,
    reference_inner_product,
    reference_load_state,
)


IDX = BasisIndex(0, 1, 0, 0)
IDX2 = BasisIndex(0, -1, -2, 1)


def _indices():
    return st.builds(
        BasisIndex,
        st.integers(-2, 2),
        st.sampled_from([1, -1]),
        st.integers(-4, 0),
        st.integers(-4, 4),
    ).filter(lambda i: i.is_valid())


class TestLatticeState:
    def test_basis_state_is_unit_point_mass(self):
        s = LatticeState.basis_state(IDX)
        assert len(s) == 1
        assert s[IDX] == 1.0 + 0.0j
        assert s[IDX2] == 0.0 + 0.0j

    def test_duplicate_entries_merge(self):
        s = LatticeState([(IDX, 1.0), (IDX, 2.5j)])
        assert len(s) == 1
        assert s[IDX] == 1.0 + 2.5j

    def test_exact_zeros_pruned(self):
        s = LatticeState([(IDX, 1.0), (IDX2, 0.0)])
        assert len(s) == 1
        assert IDX2 not in s.amplitudes

    def test_rejects_invalid_index(self):
        with pytest.raises(ValueError):
            LatticeState([(BasisIndex(0, 1, 1, 1), 1.0)])

    def test_addition_and_subtraction(self):
        a = LatticeState({IDX: 1.0, IDX2: 2.0})
        b = LatticeState({IDX: -1.0, IDX2: 1.0j})
        assert (a + b)[IDX2] == 2.0 + 1.0j
        assert len(a + b) == 1  # IDX amplitudes cancel exactly
        assert (a - a) == LatticeState()

    def test_scalar_multiplication(self):
        a = LatticeState({IDX: 2.0})
        assert (0.5j * a)[IDX] == 1.0j
        assert (0.0 * a) == LatticeState()

    def test_support_canonical_order(self):
        s = LatticeState({IDX2: 1.0, IDX: 1.0, BasisIndex(-1, 1, -1, 0): 1.0})
        keys = [canonical_key(i) for i in s.support()]
        assert keys == sorted(keys)

    @given(
        entries=st.lists(
            st.tuples(_indices(), st.complex_numbers(max_magnitude=10, allow_nan=False)),
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_linearity_of_construction(self, entries):
        s = LatticeState(entries)
        manual: dict[BasisIndex, complex] = {}
        for idx, amp in entries:
            manual[idx] = manual.get(idx, 0.0) + complex(amp)
        for idx, amp in manual.items():
            assert s[idx] == amp or (abs(amp) == 0.0 and s[idx] == 0.0)


#: A small pool of indices, so that random entries repeat an index often.
POOL = [
    BasisIndex(0, 1, 0, 0),
    BasisIndex(0, -1, -2, 1),
    BasisIndex(-1, 1, -3, 2),
    BasisIndex(1, 1, -1, -1),
    BasisIndex(1, -1, 0, 0),
    BasisIndex(-2, -1, -4, -4),
]

#: Signed zeros, values that cancel, and ordinary floats.
_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, 1e300]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
_entries = st.lists(
    st.tuples(st.sampled_from(POOL), st.builds(complex, _parts, _parts)), max_size=24
)


#: Up to 54 shared indices with amplitudes of one scale, so that the order
#: of the additions shows in the last bits; numpy's pairwise summation adds
#: fewer than 8 terms in order anyway.
_wide_entries = st.lists(
    st.tuples(
        st.sampled_from(build_window(TruncationWindow(-1, 1, -2, 2))),
        st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    ),
    min_size=20,
    max_size=80,
)


def _state_bits(s: LatticeState) -> list:
    return [(tuple(idx), bits(amp)) for idx, amp in zip(s.support(), s.values.tolist())]


def _reference_bits(ref: dict) -> list:
    return [(idx, bits(amp)) for idx, amp in ref.items()]


class TestStateConstruction:
    def test_three_repeats_sum_in_input_order(self):
        amps = [0.1, 0.2, 0.3j, -0.3, 1e-17]
        s = LatticeState([(IDX, a) for a in amps])
        assert s[IDX] == (((0.1 + 0.2) + 0.3j) - 0.3) + 1e-17
        assert _state_bits(s) == _reference_bits(reference_amplitudes((IDX, a) for a in amps))

    def test_cancelling_sum_is_pruned(self):
        s = LatticeState([(IDX, 1.5j), (IDX2, 2.0), (IDX, -1.0j), (IDX, -0.5j)])
        assert s.support() == [IDX2]

    @given(entries=_entries)
    @settings(max_examples=300, deadline=None)
    def test_array_and_dict_constructors_match_the_scalar_loop(self, entries):
        want = _reference_bits(reference_amplitudes(entries))
        ix = BasisIndex(*(np.array([idx[k] for idx, _ in entries], dtype=np.int64)
                          for k in range(4)))
        amps = np.array([a for _, a in entries], dtype=np.complex128)
        from_arrays = LatticeState.from_arrays(ix, amps)
        assert _state_bits(from_arrays) == want
        assert _state_bits(LatticeState(entries)) == want
        assert from_arrays == LatticeState(entries)
        assert from_arrays.amplitudes == reference_amplitudes(entries)

    @given(entries=_entries, scalar=st.complex_numbers(max_magnitude=1e3))
    @settings(max_examples=100, deadline=None)
    def test_scalar_multiple_matches_python_products(self, entries, scalar):
        # numpy's complex multiply may round differently from Python's; the
        # two differ by at most a few ulp of |scalar| * |amplitude|.
        s = LatticeState(entries)
        want = reference_amplitudes((i, scalar * a) for i, a in s.amplitudes.items())
        got = (scalar * s).amplitudes
        for idx in got.keys() | want.keys():
            tol = 4 * np.finfo(float).eps * abs(scalar) * abs(s[idx])
            assert abs(got.get(idx, 0.0) - want.get(idx, 0.0)) <= tol

    @given(entries=_entries)
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_file_round_trip_keeps_every_bit(self, entries, tmp_path):
        s = LatticeState(entries)
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        save_state(str(first), s)
        loaded = load_state(str(first))
        save_state(str(second), loaded)
        assert _state_bits(loaded) == _state_bits(s)
        assert second.read_bytes() == first.read_bytes()

    def test_negative_zero_survives_the_file_round_trip(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("0 +1 0 0 -0.0 1.0\n0 -1 -2 1 2.0 -0.0\n")
        save_state(str(tmp_path / "out.txt"), load_state(str(path)))
        assert (tmp_path / "out.txt").read_text().splitlines()[1:] == [
            "0 +1 0 0 -0.0 1.0",
            "0 -1 -2 1 2.0 -0.0",
        ]


def _reference_sort(ix: BasisIndex):
    """Canonical order by a stable lexsort, as the sort always ran."""
    order = np.lexsort((ix.m, ix.mt, ix.M, ix.sigma < 0))
    ix = BasisIndex(*(a[order] for a in ix))
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any([a[1:] != a[:-1] for a in ix], axis=0)
    return order, ix, new


def _far_indices():
    """Valid labels out to 2^59, whose spans overflow one int64 key."""
    lim = 2**59
    far = st.sampled_from([-lim, -lim + 1, -1, 0, 1, lim - 1, lim])
    return st.builds(BasisIndex, far, st.sampled_from([1, -1]), far, far).filter(
        lambda i: i.is_valid()
    )


class TestCanonicalSort:
    @given(labels=st.lists(st.one_of(_indices(), _indices(), _far_indices()), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_one_key_sorts_as_the_lexsort(self, labels):
        # The packed int64 key, and the lexsort where the label spans
        # overflow it, give the order and the repeats of a stable lexsort:
        # for the labels as drawn, sorted, and sorted with repeats dropped.
        ix = BasisIndex(*(np.array([i[k] for i in labels], dtype=np.int64) for k in range(4)))
        _, srt, new = _reference_sort(ix)
        for case in (ix, srt, BasisIndex(*(a[new] for a in srt))):
            (order, repeats), want = lattice._sort(case), _reference_sort(case)
            assert np.array_equal(order, want[0])
            assert np.array_equal(repeats, want[2])

    @given(
        labels=st.lists(st.one_of(_indices(), _far_indices()), max_size=12),
        amps=st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0 + 0.5j, 1e308 + 1e308j]), max_size=12),
        order=st.sampled_from(["sorted", "reversed", "repeated", "as drawn"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_canonical_labels_skip_the_sort_with_the_same_result(self, labels, amps, order):
        # Sorted, reversed and repeated labels, near and far (no packed
        # key): only distinct labels in canonical order under one packed
        # key skip the sort, and every state has the bits of the
        # entry-by-entry reference and holds no view of the caller's arrays.
        labels = sorted(set(labels), key=canonical_key) if order != "as drawn" else labels
        labels = {"reversed": labels[::-1], "repeated": labels + labels[:2]}.get(order, labels)
        amps = (amps + [1.0] * len(labels))[: len(labels)]
        ix = BasisIndex(*(np.array([i[k] for i in labels], dtype=np.int64) for k in range(4)))
        want, _, new = _reference_sort(ix)
        canonical = np.array_equal(want, np.arange(len(labels))) and new.all()
        packed = lattice._packed_key(canonical_key(ix)) is not None
        assert (lattice._sort(ix, skip=True)[0] is None) == (canonical and packed)
        values = np.array(amps, dtype=np.complex128)
        s = LatticeState.from_arrays(ix, values)
        assert _state_bits(s) == _reference_bits(reference_amplitudes(zip(labels, amps)))
        for mine, theirs in zip((*s.index, s.values), (*ix, values)):
            assert not np.shares_memory(mine, theirs)

    def test_both_sorts_are_taken(self):
        near = BasisIndex(*map(np.array, ([2, 0], [1, -1], [-3, 0], [0, 1])))
        far = BasisIndex(*map(np.array, ([2**59, 0], [1, -1], [-(2**59), 0], [0, 2**59])))
        assert lattice._packed_key(canonical_key(near)) is not None
        assert lattice._packed_key(canonical_key(far)) is None


class TestBuildWindow:
    def test_returns_canonical_basis(self):
        w = TruncationWindow(0, 1, -2, 2)
        basis = build_window(w)
        assert len(basis) == w.size
        assert basis == sorted(basis, key=canonical_key)
        assert basis[0].sigma == 1

    def test_capacity_guard(self):
        w = TruncationWindow(0, 0, -3, 3)  # 32 states
        with pytest.raises(CapacityError):
            build_window(w, capacity=31)
        assert len(build_window(w, capacity=32)) == 32


class TestInnerProduct:
    def test_weights_by_jackson_measure(self):
        p = DeformationParams(q=2.0)
        idx = BasisIndex(1, 1, -2, 0)
        s = LatticeState.basis_state(idx)
        assert inner_product(s, s, p) == pytest.approx(jackson_weight(idx, p))

    def test_conjugate_linear_in_first_argument(self):
        p = DeformationParams(q=1.5)
        a = LatticeState({IDX: 1.0 + 1.0j})
        b = LatticeState({IDX: 2.0})
        lhs = inner_product(2.0j * a, b, p)
        assert lhs == pytest.approx(-2.0j * inner_product(a, b, p))
        rhs = inner_product(a, 2.0j * b, p)
        assert rhs == pytest.approx(2.0j * inner_product(a, b, p))

    def test_hermitian_symmetry(self):
        p = DeformationParams(q=2.0)
        a = LatticeState({IDX: 1.0 + 0.5j, IDX2: -2.0j})
        b = LatticeState({IDX: 0.25, IDX2: 1.0 + 1.0j})
        assert inner_product(a, b, p) == pytest.approx(
            inner_product(b, a, p).conjugate()
        )

    @given(
        a=_wide_entries,
        b=_wide_entries,
        q=st.sampled_from([1.1, 1.5, 2.0, 7.0]),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_the_scalar_loop_bit_for_bit(self, a, b, q):
        p = DeformationParams(q=q)
        want = reference_inner_product(reference_amplitudes(a), reference_amplitudes(b), p)
        assert bits(inner_product(LatticeState(a), LatticeState(b), p)) == bits(want)

    def test_infinite_amplitudes_match_the_scalar_loop(self):
        p = DeformationParams(q=1.5)
        a = {IDX: complex(math.inf, 1.0), IDX2: 2.0 + 0j}
        b = {IDX: 1.0 + 0j, IDX2: complex(1.0, -math.inf)}
        for x, y in ((a, b), (b, a), (a, a)):
            want = reference_inner_product(x, y, p)
            assert bits(inner_product(LatticeState(x), LatticeState(y), p)) == bits(want)

    def test_norm_positive(self):
        p = DeformationParams(q=2.0)
        s = LatticeState({IDX: 3.0j, IDX2: 1.0})
        expected = (
            9.0 * jackson_weight(IDX, p) + 1.0 * jackson_weight(IDX2, p)
        ) ** 0.5
        assert s.norm(p) == pytest.approx(expected)


class TestStateFiles:
    def test_round_trip_exact(self, tmp_path):
        s = LatticeState(
            {
                IDX: 0.1 + 0.2j,
                IDX2: -1.0 / 3.0,
                BasisIndex(-1, 1, -3, 2): 7.25e-13j,
            }
        )
        path = tmp_path / "state.txt"
        save_state(str(path), s)
        assert load_state(str(path)) == s

    def test_file_format(self, tmp_path):
        path = tmp_path / "state.txt"
        save_state(str(path), LatticeState({IDX2: 1.5}))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "0 -1 -2 1 1.5 0.0"

    def test_rows_have_the_bytes_of_the_format_template(self, tmp_path):
        # The % row template, written in blocks of ROW_BLOCK rows, against
        # the str.format template it replaced, at row counts on both sides
        # of a block's edge; neither header nor rows is one empty line.
        parts = [-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf, 0.1, -2.5e-300]
        big = 2**59
        B = lattice.ROW_BLOCK
        counts = (0, 1, B - 1, B, B + 1, 2 * B + 1)
        reps = -(-counts[-1] // 8)
        cols = tuple(
            np.tile(np.array(c), reps)[: counts[-1]]
            for c in (
                [big, -big, 0, 1, -1, big - 1, 3, -7],
                [1, -1] * 4,
                [-big, 0, -3, big, 0, -1, 2, -big + 1],
                [big, -big, 7, 0, -2, 1, -big, 5],
                parts,
                parts[::-1],
            )
        )
        cols[0][8::8] = np.arange(1, reps)  # no two blocks alike
        old = "{} {:+d} {} {} {!r} {!r}".format
        for header in (("# a", "# b"), ()):
            for n in counts:
                path = tmp_path / "rows.txt"
                write_rows(str(path), header, "%d %+d %d %d %r %r", [c[:n] for c in cols])
                rows = map(old, *(c[:n].tolist() for c in cols))
                assert path.read_bytes() == ("\n".join((*header, *rows)) + "\n").encode()

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("# comment\n\n0 +1 0 0 1.0 0.0\n")
        s = load_state(str(path))
        assert s == LatticeState.basis_state(IDX)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("0 +1 0 0 1.0\n")
        with pytest.raises(ValueError, match="expected 'M sigma mt m re im'"):
            load_state(str(path))


def _row(idx: BasisIndex, re: str, im: str, plus: bool) -> list[str]:
    sigma = f"{idx.sigma:+d}" if plus or idx.sigma < 0 else "1"
    return [str(idx.M), sigma, str(idx.mt), str(idx.m), re, im]


#: Amplitude parts as save_state writes them, and other spellings both
#: readers take.
_part_text = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "0", ".5", "5.", "1E5", "+.5e-3", "1e-400", "4.9e-324", "007"]),
)
#: Tokens that one reader or both may refuse, or that name a bad value.
_ODD_TOKENS = [
    "1_0.5", "1_0", "\u0663", "+1", "nan", "-nan", "inf", "-inf", "1e400", "0x10",
    "x", "0.5", "1e3", "#", "#x", "1.0#",
    str(2**59), str(-(2**59)), str(2**59 + 1), str(-(2**59) - 1),
    str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), str(10**20),
]
_good_row = st.builds(_row, st.sampled_from(POOL), _part_text, _part_text, st.booleans())
_odd_row = st.builds(
    lambda fields, k, token: fields[:k] + [token] + fields[k + 1 :],
    _good_row,
    st.integers(0, 5),
    st.sampled_from(_ODD_TOKENS),
)
_row_line = st.builds(
    lambda fields, sep, pad: (pad + sep.join(fields) + pad).encode(),
    st.one_of(_good_row, _good_row, _good_row, _odd_row),
    st.sampled_from([" ", " ", "\t", "  ", " \x0c"]),
    st.sampled_from(["", "", " ", "\t"]),
)
_other_line = st.sampled_from(
    [
        b"", b"   ", b"\t", b"# comment", b"  # indented # comment", b"#",
        b"0 +1 0 0 1.0 0.0 # tail", b"0 +1 0 0 1.0 0.0#tail", b"0 +1 0 0 1.0",
        b"0 +1 0 0 1.0 0.0 2.0", b"\xff", b"# \xff", b"0 +1 0 0 \xff 0.0",
        b"0 +1 0 0 \xd9\xa3 0.0", b"\x0c", b"\xc2\x85", b"\x00",
        # Rows that parse but name an invalid index or a non-finite part.
        b"0 +1 1 0 1.0 0.0", b"0 0 0 0 1.0 0.0", b"0 -1 -1 -2 1.0 0.0",
        b"576460752303423489 +1 0 0 1.0 0.0", b"0 +1 0 0 1.0 -inf",
    ]
)
#: State files: rows in any order with repeated indices, blank and comment
#: lines anywhere, mixed line ends, and odd tokens and bytes.
def _join(lines: list[bytes], ends: list[bytes], final_end: bool) -> bytes:
    ends = ends + [b"\n"] * len(lines)
    text = b"".join(line + end for line, end in zip(lines, ends))
    return text if final_end or not lines else text[: -len(ends[len(lines) - 1])]


_state_files = st.builds(
    _join,
    st.lists(st.one_of(_row_line, _row_line, _row_line, _other_line), max_size=12),
    st.lists(st.sampled_from([b"\n", b"\n", b"\n", b"\r\n", b"\r"]), max_size=12),
    st.booleans(),
)


class TestStateLoader:
    @given(data=_state_files)
    # A row behind a lone \r on a comment line, a '#' after a row, no rows.
    @example(data=b"# c\r0 +1 0 0 1.0 0.0\n")
    @example(data=b"0 +1 0 0 1.0 0.0 # tail\n")
    @example(data=b"# header only\n")
    # The bytes reader decodes each line as UTF-8 and keeps a BOM as text.
    @example(data=b"# \xc3\xa9tat\n0 +1 0 0 1.0 0.0\n")
    @example(data=b"# header only\r\n")
    @example(data=b"\xef\xbb\xbf0 +1 0 0 1.0 0.0\n")
    @example(data=b"\xef\xbb\xbf# header\n0 +1 0 0 1.0 0.0\n")
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_the_row_reader(self, data, tmp_path):
        # The same state bits, or the same ValueError text with path:line.
        path = tmp_path / "state.txt"
        path.write_bytes(data)
        try:
            want = reference_load_state(str(path))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_state(str(path))
            assert str(got.value) == str(exc)
        else:
            assert _state_bits(load_state(str(path))) == _reference_bits(want)

    def test_a_magnitude_beyond_the_float_range_loads_without_warning(self, tmp_path):
        # |1.5e308 + 1.5e308j| overflows to inf: kept, and no RuntimeWarning.
        path = tmp_path / "state.txt"
        path.write_text("0 +1 0 0 1.5e308 1.5e308\n")
        assert load_state(str(path))[IDX] == complex(1.5e308, 1.5e308)

    @pytest.fixture
    def bulk_only(self, monkeypatch):
        """Fail any read that falls back to the row reader."""

        def refuse(path, data):
            raise AssertionError(f"{path} was read row by row")

        monkeypatch.setattr(lattice, "_parse_rows", refuse)

    @given(entries=_entries)
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_saved_files_take_the_bulk_path(self, entries, bulk_only, tmp_path):
        s = LatticeState(entries)
        save_state(str(tmp_path / "s.txt"), s)
        assert _state_bits(load_state(str(tmp_path / "s.txt"))) == _state_bits(s)

    def test_the_largest_benchmark_state_takes_the_bulk_path(self, bulk_only, tmp_path):
        # Every state of the 17,298-state window, with extreme labels and parts.
        ix = TruncationWindow(-4, 4, -30, 30).index_arrays()
        rng = np.random.default_rng(7)
        amps = rng.standard_normal(len(ix.M)) + 1j * rng.standard_normal(len(ix.M))
        amps[:6] = [-0.0 + 3.0j, 5e-324, -1.7976931348623157e308, 1e-300j, -0.0 - 2.5j, 1 - 0.0j]
        lim = 2**59
        extra = BasisIndex(*map(np.array, ([lim, -lim], [1, -1], [-lim, -lim], [lim, -lim])))
        s = LatticeState.from_arrays(
            BasisIndex(*map(np.concatenate, zip(ix, extra))),
            np.concatenate((amps, [1.0, -1.0j])),
        )
        assert len(s) == 17_300
        for state in (s, LatticeState()):
            path = tmp_path / "s.txt"
            save_state(str(path), state)
            assert _state_bits(load_state(str(path))) == _state_bits(state)


def _peak_bytes(run) -> int:
    """tracemalloc's peak while ``run()`` runs, above what was traced before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestStateMemory:
    @pytest.mark.parametrize(
        "step, budget", [("load_state", 250), ("save_state", 100), ("apply Torb+", 280)]
    )
    def test_state_io_holds_at_most_its_budget_per_state(self, tmp_path, step, budget):
        # The peak of each step in bytes per state of the 17,298-state
        # window: rows are formatted a block at a time, the file is parsed
        # as bytes and the labels are sorted on one key.  A step that held
        # the whole text (save_state once held 306 bytes a state, and
        # load_state 415 with a decoded copy) or a sorted copy of every
        # label (apply held 385) breaks its budget.
        ix = TruncationWindow(-4, 4, -30, 30).index_arrays()
        rng = np.random.default_rng(3)
        n = len(ix.M)
        amps = rng.uniform(0.1, 1.0, n) * rng.choice([-1.0, 1.0], n) + 1j * rng.uniform(-1, 1, n)
        state = LatticeState.from_arrays(ix, amps)
        path = str(tmp_path / "state.txt")
        save_state(path, state)
        run = {
            "load_state": lambda: load_state(path),
            "save_state": lambda: save_state(path, state),
            "apply Torb+": lambda: apply("Torb+", state, DeformationParams(q=1.5)),
        }[step]
        assert _peak_bytes(run) <= budget * n
