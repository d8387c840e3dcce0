"""Command-line driver: run suites, dump spectra and matrices, fit limits.

The command line is a thin batch layer over the library: it parses the options,
dispatches one subcommand, and maps library errors onto a fixed exit-code
contract.  Each subcommand imports the library modules it runs when it
runs, so importing this module loads only :mod:`qeuclid.core` of the
package.

Exit codes
----------
0   all asserted checks pass / command succeeded
1   a check failed (residual above tolerance, no classical limit, or a
    limit error that is not finite)
2   usage error (bad flag, malformed window, q <= 1, unreadable state file,
    an h whose powers of q = e^h leave the double range)
3   window capacity exceeded
4   operator misuse (unknown name, or non-diagonal name given to spectrum)
5   evaluation outside a rule's domain (the offending factor is named)

Output bodies contain no timestamps; rerunning a command reproduces them
byte for byte.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import (
    BasisIndex,
    CapacityError,
    DeformationParams,
    DomainError,
    NotDiagonalError,
    QeuclidError,
    RangeError,
    TruncationWindow,
    UnknownOperatorError,
    window_label,
)

__all__ = [
    "EXIT_PASS",
    "EXIT_CHECK_FAILURE",
    "EXIT_USAGE",
    "EXIT_CAPACITY",
    "EXIT_OPERATOR_MISUSE",
    "EXIT_DOMAIN",
    "SLOPE_BAND",
    "main",
]

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_OPERATOR_MISUSE = 4
EXIT_DOMAIN = 5

#: Acceptance band for the fitted log-log convergence slope.
SLOPE_BAND = (0.8, 1.2)

DEFAULT_WINDOW = "0:0,-8,8"
DEFAULT_H_LIST = "0.1,0.05,0.025,0.0125"


# --- argument parsing ----------------------------------------------------------

def _number_arg(name: str, kind: type, bound=0.0, rule="positive", finite=False):
    """An argparse type: text read as ``kind`` that must exceed ``bound``
    (and, if asked, be finite); each error message names ``name``."""
    noun = "an integer" if kind is int else "a real number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be {noun}, got {text!r}")
        if not value > bound:
            raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {text}")
        if finite and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{name} must be {rule} and finite, got {text}")
        return value

    return parse


def _window_arg(text: str) -> TruncationWindow:
    try:
        head, mt_str, k_str = text.split(",")
        lo_str, hi_str = head.split(":")
        return TruncationWindow(int(lo_str), int(hi_str), int(mt_str), int(k_str))
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"window must look like 'Mmin:Mmax,mtmin,kmax' (e.g. '0:0,-8,8'), "
            f"got {text!r}: {exc}"
        ) from exc


def _theta_arg(text: str) -> complex:
    choice = text.strip()
    if choice in ("-1", "minus_one"):
        return complex(-1.0)
    if choice in ("+1", "1", "plus_one"):
        return complex(1.0)
    try:
        angle = float(choice)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "theta-phase must be '-1', '+1', or a real angle in radians, "
            f"got {text!r}"
        )
    return cmath.exp(1j * angle)


def _h_list_arg(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--h takes a comma-separated list of scales, got {text!r}"
        )
    if not values:
        raise argparse.ArgumentTypeError("--h needs at least one scale")
    if any(not h > 0 for h in values):
        raise argparse.ArgumentTypeError("every h must be positive")
    return tuple(sorted(values, reverse=True))


def _modes_arg(text: str) -> tuple[int, ...]:
    try:
        lo_str, hi_str = text.split(":")
        lo, hi = int(lo_str), int(hi_str)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--modes takes 'lo:hi' (e.g. '-3:3'), got {text!r}"
        )
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty mode range {text!r}")
    return tuple(range(lo, hi + 1))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of a process and then reused."""
    # The options several subcommands share.  Each subcommand takes only
    # those it reads, so an option it would ignore is a usage error.
    options = {
        "--q": dict(
            type=_number_arg("q", float, 1.0, "> 1 (q = 1 is degenerate: lam = q - 1/q vanishes)"),
            default=1.5,
            help="deformation parameter, must be > 1",
        ),
        "--r0": dict(
            type=_number_arg("r0", float), default=1.0, help="radial scale of the lattice"
        ),
        "--theta-phase": dict(
            type=_theta_arg,
            default="-1",
            metavar="PHASE",
            help="unit phase of the mode ladder: '-1' (default), '+1', "
            "or a real angle in radians",
        ),
        "--window": dict(
            type=_window_arg,
            default=_window_arg(DEFAULT_WINDOW),
            metavar="SPEC",
            help=f"truncation window 'Mmin:Mmax,mtmin,kmax' (default {DEFAULT_WINDOW})",
        ),
        "--tolerance": dict(
            type=_number_arg("tolerance", float, finite=True),
            default=1e-12,
            help="asserted residual bound",
        ),
        "--output-dir": dict(
            type=Path, default=Path("."), metavar="DIR", help="directory for report files"
        ),
        "--format": dict(choices=("json", "csv"), default="csv", help="format of the table"),
        "--capacity": dict(
            type=_number_arg("capacity", int),
            default=None,
            metavar="N",
            help="override the window state-count limit",
        ),
    }

    parser = argparse.ArgumentParser(
        prog="qeuclid",
        description="Operators on the q-deformed radial lattice: "
        "verify relations, dump spectra, fit classical limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, func, takes: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag in takes.split():
            p.add_argument(flag, **options[flag])
        p.set_defaults(func=func)
        return p

    command(
        "verify",
        cmd_verify,
        "--q --r0 --theta-phase --window --tolerance --output-dir --capacity",
        help="run every verification suite and write one JSON report per suite",
    )

    p_spectrum = command(
        "spectrum",
        cmd_spectrum,
        "--q --r0 --theta-phase --window --format --capacity",
        help="tabulate the eigenvalues of a diagonal operator over the window",
    )
    p_spectrum.add_argument("operator", help="diagonal catalogue operator name")
    p_spectrum.add_argument(
        "--output", type=Path, default=None, help="write the table here (default stdout)"
    )

    p_limit = command(
        "limit",
        cmd_limit,
        "--theta-phase --format",
        help="compare a deformed rule against its classical counterpart as q -> 1",
    )
    p_limit.add_argument("deformed", help="deformed smooth-rule name")
    p_limit.add_argument("classical", help="classical generator name")
    p_limit.add_argument(
        "--h",
        type=_h_list_arg,
        default=_h_list_arg(DEFAULT_H_LIST),
        metavar="LIST",
        help=f"comma-separated scales, q = e^h (default {DEFAULT_H_LIST})",
    )
    p_limit.add_argument(
        "--modes",
        type=_modes_arg,
        default=_modes_arg("-3:3"),
        metavar="LO:HI",
        help="angular modes of the probe function (default -3:3)",
    )
    p_limit.add_argument(
        "--samples",
        type=_number_arg("samples", int),
        default=25,
        help="number of xi grid points (default 25); r is fixed at 0.5, 1.0, 1.5",
    )
    p_limit.add_argument(
        "--output", type=Path, default=None, help="write the table here (default stdout)"
    )

    p_apply = command(
        "apply",
        cmd_apply,
        "--q --r0 --theta-phase",
        help="apply a catalogue operator to a state file",
    )
    p_apply.add_argument("operator", help="catalogue operator name")
    p_apply.add_argument("--input", type=Path, required=True, help="state file to read")
    p_apply.add_argument(
        "--output", type=Path, required=True, help="state file to write"
    )

    p_matrix = command(
        "matrix",
        cmd_matrix,
        "--q --r0 --theta-phase --window --capacity",
        help="materialize an operator over the window and dump its entries",
    )
    p_matrix.add_argument("operator", help="catalogue operator name")
    p_matrix.add_argument(
        "--output", type=Path, required=True, help="matrix file to write"
    )

    return parser


# --- subcommands ----------------------------------------------------------------

def _params(args: argparse.Namespace) -> DeformationParams:
    return DeformationParams(q=args.q, r0=args.r0, theta_phase=args.theta_phase)


@contextlib.contextmanager
def _output(path: Path | None):
    """The text stream a command writes its body to: the file at path,
    its directory made, or stdout without one."""
    if path is None:
        yield sys.stdout
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SUITE_NAMES, run_all_suites

    p = _params(args)
    reports = run_all_suites(args.window, p, args.tolerance, capacity=args.capacity)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    all_pass = True
    for name in SUITE_NAMES:
        report = reports[name]
        path = args.output_dir / f"{name}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        asserted = [c for c in report.checks if c.asserted]
        # np.max, unlike the builtin max, propagates a NaN residual.
        worst = float(np.max([c.max_interior_residual for c in asserted], initial=0.0))
        status = "pass" if report.passed else "FAIL"
        all_pass = all_pass and report.passed
        print(f"{name:<14} {status:<4}  worst asserted residual {worst:.3e}  {path}")
    print(
        f"verify: {'all suites pass' if all_pass else 'FAILURES detected'} "
        f"(q={p.q}, window={window_label(args.window)}, tol={args.tolerance})"
    )
    return EXIT_PASS if all_pass else EXIT_CHECK_FAILURE


def _eigenvalue_texts(vals: np.ndarray, text) -> np.ndarray:
    """``text(v)`` for each eigenvalue, v a float where the imaginary part is
    zero, else a complex.  Spectra repeat a few values many times, so each
    distinct float bit pattern is formatted once (``-0.0`` and ``0.0``, and
    NaN payloads, stay apart)."""
    real = np.ascontiguousarray(vals.real)
    bits, inv = np.unique(real.view(np.int64), return_inverse=True)
    out = np.array([text(v) for v in bits.view(np.float64).tolist()], dtype=object)[inv]
    for k in np.flatnonzero(vals.imag != 0.0).tolist():
        out[k] = text(complex(vals[k]))
    return out


def _write_spectrum_csv(out, ix: BasisIndex, vals: np.ndarray) -> None:
    """Write the CSV of ``qeuclid spectrum`` to the text stream ``out``:
    one ``M,sigma,mt,m,eigenvalue`` row per index, the value as ``repr``
    writes it (a float where the imaginary part is zero, else a complex)."""
    from .lattice import write_rows

    eig = _eigenvalue_texts(vals, repr)
    write_rows(out, ["M,sigma,mt,m,eigenvalue"], "%d,%d,%d,%d,%s", (*ix, eig))


def _json_number(x: float) -> str:
    return json.dumps(x) if math.isfinite(x) else "null"


def _json_eigenvalue(v: float | complex) -> str:
    if isinstance(v, complex):
        return "[\n      %s,\n      %s\n    ]" % (_json_number(v.real), _json_number(v.imag))
    return _json_number(v)


def _write_spectrum_json(out, ix: BasisIndex, vals: np.ndarray) -> None:
    """Write the JSON of ``qeuclid spectrum`` to the text stream ``out``:
    the bytes of ``json.dumps(rows, sort_keys=True, indent=2)`` over one
    object per index, a real eigenvalue as a float and any other as
    ``[re, im]``, written from a fixed row template.

    Strict JSON has no NaN or Infinity: a non-finite value, or a non-finite
    part of one, reads null, and the row gains ``"non_finite"``, the
    eigenvalue as ``repr`` writes it (as in the CSV)."""
    from .lattice import write_rows

    if not len(vals):
        out.write("[]\n")
        return
    eig = _eigenvalue_texts(vals, _json_eigenvalue)
    off = ~np.isfinite(vals)
    bad = np.full(len(vals), "", dtype=object)
    bad[off] = [
        '\n    "non_finite": %s,' % json.dumps(text) for text in _eigenvalue_texts(vals[off], repr)
    ]
    comma = np.full(len(vals), ",", dtype=object)
    comma[-1] = ""  # the encoder puts a comma between rows, not after the last
    row = (
        '  {\n    "M": %d,\n    "eigenvalue": %s,\n    "m": %d,\n    "mt": %d,%s\n'
        '    "sigma": %d\n  }%s'
    )
    write_rows(out, ["["], row, (ix.M, eig, ix.m, ix.mt, bad, ix.sigma, comma))
    out.write("]\n")


def _text(write, ix: BasisIndex, vals: np.ndarray) -> str:
    buf = io.StringIO()
    write(buf, ix, vals)
    return buf.getvalue()


def spectrum_csv(ix: BasisIndex, vals: np.ndarray) -> str:
    """The CSV of ``qeuclid spectrum`` as one string (see
    :func:`_write_spectrum_csv`)."""
    return _text(_write_spectrum_csv, ix, vals)


def spectrum_json(ix: BasisIndex, vals: np.ndarray) -> str:
    """The JSON of ``qeuclid spectrum`` as one string (see
    :func:`_write_spectrum_json`)."""
    return _text(_write_spectrum_json, ix, vals)


def cmd_spectrum(args: argparse.Namespace) -> int:
    from .operators import spectrum_arrays

    p = _params(args)
    ix, vals = spectrum_arrays(args.operator, args.window, p, capacity=args.capacity)
    write = _write_spectrum_json if args.format == "json" else _write_spectrum_csv
    with _output(args.output) as out:
        write(out, ix, vals)
    if args.output is not None:
        print(f"wrote {len(vals)} eigenvalues to {args.output}")
    return EXIT_PASS


def cmd_limit(args: argparse.Namespace) -> int:
    from .smooth import convergence_csv, limit_convergence, limit_grid, probe_function

    theta = args.theta_phase
    f = probe_function(args.modes)
    grid = limit_grid(args.deformed, f, args.h, n=args.samples, theta_phase=theta)
    result = limit_convergence(grid, args.classical)
    bad = [(h, err) for h, err, _ in result.rows if not math.isfinite(err)]
    if args.format == "json":
        # Strict JSON has no NaN or Infinity: such an error reads null in
        # rows, and "non_finite" spells it out.
        doc = {
            "deformed": result.deformed,
            "classical": result.classical,
            "theta_phase": [theta.real, theta.imag],
            "rows": [
                [h, err if math.isfinite(err) else None, None if s is None or s != s else s]
                for h, err, s in result.rows
            ],
            "slope": result.slope,
            "all_zero": result.all_zero,
        }
        if bad:
            doc["non_finite"] = [[h, repr(err)] for h, err in bad]
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = convergence_csv(result)
    with _output(args.output) as out:
        out.write(text)

    if bad:
        print(
            f"{result.deformed} vs {result.classical}: error is not finite at "
            f"h = {', '.join(repr(h) for h, _ in bad)}"
        )
        return EXIT_CHECK_FAILURE
    if result.all_zero:
        print(f"{result.deformed} vs {result.classical}: error identically zero")
        return EXIT_PASS
    if result.slope is None:
        print(
            f"{result.deformed} vs {result.classical}: "
            "not enough nonzero points to fit a slope"
        )
        return EXIT_CHECK_FAILURE
    lo, hi = SLOPE_BAND
    print(
        f"{result.deformed} vs {result.classical}: fitted log-log slope "
        f"{result.slope:.4f} (band [{lo}, {hi}])"
    )
    if lo <= result.slope <= hi:
        return EXIT_PASS
    if result.slope < 0 or not result.monotone_decreasing:
        print("error grows as h decreases: no classical limit at this phase")
    return EXIT_CHECK_FAILURE


def cmd_apply(args: argparse.Namespace) -> int:
    from .lattice import load_state, save_state
    from .operators import apply

    p = _params(args)
    state = load_state(args.input)
    image = apply(args.operator, state, p)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    save_state(args.output, image)
    print(
        f"applied {args.operator}: {len(state)} -> {len(image)} "
        f"basis amplitudes, wrote {args.output}"
    )
    return EXIT_PASS


def cmd_matrix(args: argparse.Namespace) -> int:
    from .operators import materialize, save_matrix

    p = _params(args)
    mat = materialize(args.operator, args.window, p, capacity=args.capacity)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    save_matrix(args.output, mat)
    n = mat.entries.shape[0]
    print(
        f"{args.operator} on window {window_label(args.window)}: "
        f"{n}x{n}, {mat.entries.nnz} entries, "
        f"{len(mat.boundary_columns)} boundary columns, wrote {args.output}"
    )
    return EXIT_PASS


# --- entry point -----------------------------------------------------------------

#: Exit code of each error a command may raise; the first matching row wins.
_ERROR_EXITS = (
    (CapacityError, EXIT_CAPACITY),
    (UnknownOperatorError, EXIT_OPERATOR_MISUSE),
    (NotDiagonalError, EXIT_OPERATOR_MISUSE),
    (DomainError, EXIT_DOMAIN),
    (RangeError, EXIT_USAGE),
    (QeuclidError, EXIT_CHECK_FAILURE),
    (OSError, EXIT_USAGE),
    (ValueError, EXIT_USAGE),
)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except tuple(kind for kind, _ in _ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
