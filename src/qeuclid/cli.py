"""Command-line driver: run suites, dump spectra and matrices, fit limits.

The driver is a thin batch layer over the library: it parses a run
configuration, dispatches one subcommand, and maps library errors onto a
fixed exit-code contract.

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
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    CapacityError,
    DeformationParams,
    DomainError,
    NotDiagonalError,
    QeuclidError,
    RangeError,
    TruncationWindow,
    UnknownOperatorError,
)
from .lattice import load_state, save_state
from .operators import apply, materialize, save_matrix, spectrum_arrays
from .smooth import (
    convergence_csv,
    limit_convergence,
    limit_grid,
    probe_function,
)
from .verify import SUITE_NAMES, run_all_suites, window_label

__all__ = [
    "RunConfig",
    "EXIT_PASS",
    "EXIT_CHECK_FAILURE",
    "EXIT_USAGE",
    "EXIT_CAPACITY",
    "EXIT_OPERATOR_MISUSE",
    "EXIT_DOMAIN",
    "SLOPE_BAND",
    "build_parser",
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


@dataclass
class RunConfig:
    """Resolved run configuration shared by every subcommand."""

    q: float = 1.5
    r0: float = 1.0
    theta_phase_choice: str = "-1"
    window: TruncationWindow = field(
        default_factory=lambda: _window_arg(DEFAULT_WINDOW)
    )
    tolerance: float = 1e-12
    output_dir: Path = field(default_factory=lambda: Path("."))
    format: str = "json"

    def theta_phase(self) -> complex:
        return _resolve_theta(self.theta_phase_choice)

    def params(self) -> DeformationParams:
        return DeformationParams(
            q=self.q, r0=self.r0, theta_phase=self.theta_phase()
        )


# --- argument parsing ----------------------------------------------------------

def _q_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"q must be a real number, got {text!r}")
    if not value > 1.0:
        raise argparse.ArgumentTypeError(
            f"q must be > 1 (q = 1 is degenerate: lam = q - 1/q vanishes), got {text}"
        )
    return value


def _r0_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"r0 must be a real number, got {text!r}")
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"r0 must be positive, got {text}")
    return value


def _tol_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"tolerance must be a real number, got {text!r}"
        )
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {text}")
    return value


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


def _theta_arg(text: str) -> str:
    choice = text.strip()
    if choice in ("-1", "minus_one", "+1", "1", "plus_one"):
        return choice
    try:
        float(choice)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "theta-phase must be '-1', '+1', or a real angle in radians, "
            f"got {text!r}"
        )
    return choice


def _resolve_theta(choice: str) -> complex:
    if choice in ("-1", "minus_one"):
        return complex(-1.0)
    if choice in ("+1", "1", "plus_one"):
        return complex(1.0)
    return cmath.exp(1j * float(choice))


def _h_list_arg(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--h takes a comma-separated list of scales, got {text!r}"
        )
    if not values:
        raise argparse.ArgumentTypeError("--h needs at least one scale")
    if any(h <= 0 for h in values):
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


def _capacity_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"capacity must be an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"capacity must be positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--q", type=_q_arg, default=1.5, help="deformation parameter, must be > 1"
    )
    common.add_argument(
        "--r0", type=_r0_arg, default=1.0, help="radial scale of the lattice"
    )
    common.add_argument(
        "--theta-phase",
        type=_theta_arg,
        default="-1",
        metavar="PHASE",
        help="unit phase of the mode ladder: '-1' (default), '+1', "
        "or a real angle in radians",
    )
    common.add_argument(
        "--window",
        type=_window_arg,
        default=_window_arg(DEFAULT_WINDOW),
        metavar="SPEC",
        help=f"truncation window 'Mmin:Mmax,mtmin,kmax' (default {DEFAULT_WINDOW})",
    )
    common.add_argument(
        "--tolerance", type=_tol_arg, default=1e-12, help="asserted residual bound"
    )
    common.add_argument(
        "--output-dir",
        type=Path,
        default=Path("."),
        metavar="DIR",
        help="directory for report files",
    )
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="table format where a command writes tabular data",
    )
    common.add_argument(
        "--capacity",
        type=_capacity_arg,
        default=None,
        metavar="N",
        help="override the window state-count limit",
    )

    parser = argparse.ArgumentParser(
        prog="qeuclid",
        description="Operators on the q-deformed radial lattice: "
        "verify relations, dump spectra, fit classical limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_verify = sub.add_parser(
        "verify",
        parents=[common],
        help="run every verification suite and write one JSON report per suite",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_spectrum = sub.add_parser(
        "spectrum",
        parents=[common],
        help="tabulate the eigenvalues of a diagonal operator over the window",
    )
    p_spectrum.add_argument("operator", help="diagonal catalogue operator name")
    p_spectrum.add_argument(
        "--output", type=Path, default=None, help="write the table here (default stdout)"
    )
    p_spectrum.set_defaults(func=cmd_spectrum, format="csv")

    p_limit = sub.add_parser(
        "limit",
        parents=[common],
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
        type=_capacity_arg,
        default=25,
        help="number of xi grid points (default 25); r is fixed at 0.5, 1.0, 1.5",
    )
    p_limit.add_argument(
        "--output", type=Path, default=None, help="write the table here (default stdout)"
    )
    p_limit.set_defaults(func=cmd_limit, format="csv")

    p_apply = sub.add_parser(
        "apply",
        parents=[common],
        help="apply a catalogue operator to a state file",
    )
    p_apply.add_argument("operator", help="catalogue operator name")
    p_apply.add_argument("--input", type=Path, required=True, help="state file to read")
    p_apply.add_argument(
        "--output", type=Path, required=True, help="state file to write"
    )
    p_apply.set_defaults(func=cmd_apply)

    p_matrix = sub.add_parser(
        "matrix",
        parents=[common],
        help="materialize an operator over the window and dump its entries",
    )
    p_matrix.add_argument("operator", help="catalogue operator name")
    p_matrix.add_argument(
        "--output", type=Path, required=True, help="matrix file to write"
    )
    p_matrix.set_defaults(func=cmd_matrix)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        q=args.q,
        r0=args.r0,
        theta_phase_choice=args.theta_phase,
        window=args.window,
        tolerance=args.tolerance,
        output_dir=args.output_dir,
        format=args.format,
    )


# --- subcommands ----------------------------------------------------------------

def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    p = cfg.params()
    reports = run_all_suites(
        cfg.window, p, cfg.tolerance, capacity=args.capacity
    )
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    all_pass = True
    for name in SUITE_NAMES:
        report = reports[name]
        path = cfg.output_dir / f"{name}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        asserted = [c for c in report.checks if c.asserted]
        # np.max, unlike the builtin max, propagates a NaN residual.
        worst = float(np.max([c.max_interior_residual for c in asserted], initial=0.0))
        status = "pass" if report.passed else "FAIL"
        all_pass = all_pass and report.passed
        print(f"{name:<14} {status:<4}  worst asserted residual {worst:.3e}  {path}")
    print(
        f"verify: {'all suites pass' if all_pass else 'FAILURES detected'} "
        f"(q={p.q}, window={window_label(cfg.window)}, tol={cfg.tolerance})"
    )
    return EXIT_PASS if all_pass else EXIT_CHECK_FAILURE


def cmd_spectrum(cfg: RunConfig, args: argparse.Namespace) -> int:
    p = cfg.params()
    ix, vals = spectrum_arrays(args.operator, cfg.window, p, capacity=args.capacity)
    # A real eigenvalue prints as a float, any other as a complex.
    eig = vals.real.tolist()
    for k in np.flatnonzero(vals.imag != 0.0).tolist():
        eig[k] = complex(vals[k])
    columns = (*(a.tolist() for a in ix), eig)
    if cfg.format == "json":
        rows = [
            {
                "M": M,
                "sigma": sigma,
                "mt": mt,
                "m": m,
                "eigenvalue": [e.real, e.imag] if isinstance(e, complex) else e,
            }
            for M, sigma, mt, m, e in zip(*columns)
        ]
        text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    else:
        rows = map("{},{},{},{},{!r}".format, *columns)
        text = "\n".join(("M,sigma,mt,m,eigenvalue", *rows)) + "\n"
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text, encoding="utf-8")
        print(f"wrote {len(eig)} eigenvalues to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def cmd_limit(cfg: RunConfig, args: argparse.Namespace) -> int:
    theta = cfg.theta_phase()
    f = probe_function(args.modes)
    grid = limit_grid(args.deformed, f, args.h, n=args.samples, theta_phase=theta)
    result = limit_convergence(grid, args.classical)
    if cfg.format == "json":
        doc = {
            "deformed": result.deformed,
            "classical": result.classical,
            "theta_phase": [theta.real, theta.imag],
            "rows": [
                [h, err, None if s is None or s != s else s]
                for h, err, s in result.rows
            ],
            "slope": result.slope,
            "all_zero": result.all_zero,
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        text = convergence_csv(result)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)

    bad = [h for h, err, _ in result.rows if not math.isfinite(err)]
    if bad:
        print(
            f"{result.deformed} vs {result.classical}: error is not finite at "
            f"h = {', '.join(map(repr, bad))}"
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


def cmd_apply(cfg: RunConfig, args: argparse.Namespace) -> int:
    p = cfg.params()
    state = load_state(args.input)
    image = apply(args.operator, state, p)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    save_state(args.output, image)
    print(
        f"applied {args.operator}: {len(state)} -> {len(image)} "
        f"basis amplitudes, wrote {args.output}"
    )
    return EXIT_PASS


def cmd_matrix(cfg: RunConfig, args: argparse.Namespace) -> int:
    p = cfg.params()
    mat = materialize(args.operator, cfg.window, p, capacity=args.capacity)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    save_matrix(args.output, mat)
    n = mat.entries.shape[0]
    print(
        f"{args.operator} on window {window_label(cfg.window)}: "
        f"{n}x{n}, {mat.entries.nnz} entries, "
        f"{int(mat.boundary.sum())} boundary columns, wrote {args.output}"
    )
    return EXIT_PASS


# --- entry point -----------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of a process and then reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    cfg = _config_from_args(args)
    try:
        return args.func(cfg, args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (UnknownOperatorError, NotDiagonalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPERATOR_MISUSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QeuclidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
