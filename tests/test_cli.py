"""End-to-end tests of the command-line driver and its exit-code contract."""

import argparse
import ast
import cmath
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qeuclid
from qeuclid import cli, lattice, smooth
from qeuclid.cli import (
    EXIT_CAPACITY,
    EXIT_CHECK_FAILURE,
    EXIT_DOMAIN,
    EXIT_OPERATOR_MISUSE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)
from qeuclid.core import BasisIndex, DeformationParams, TruncationWindow
from qeuclid.lattice import LatticeState, build_window, load_state, save_state
from qeuclid.operators import apply, spectrum_arrays
from qeuclid.verify import SUITE_NAMES

from oracle import oracle_action


def _refuse(name):
    """A ``parse_constant`` for ``json.loads`` that refuses NaN and Infinity."""
    raise ValueError(f"{name} is not strict JSON")


def _fresh_python(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter that imports this checkout's
    package, with ``env`` added to the environment."""
    src = str(Path(qeuclid.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        **env,
    }
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestVerifyCommand:
    def test_default_configuration_passes(self, tmp_path, capsys):
        code = main(["verify", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        assert "all suites pass" in out
        for name in SUITE_NAMES:
            path = tmp_path / f"{name}.json"
            assert path.is_file(), name
            doc = json.loads(path.read_text())
            assert doc["suite"] == name
            assert doc["pass"] is True
        assert len(list(tmp_path.iterdir())) == len(SUITE_NAMES)

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        assert main(["verify", "--q", "2.0", "--output-dir", str(dir_a)]) == EXIT_PASS
        assert main(["verify", "--q", "2.0", "--output-dir", str(dir_b)]) == EXIT_PASS
        for name in SUITE_NAMES:
            assert (dir_a / f"{name}.json").read_bytes() == (
                dir_b / f"{name}.json"
            ).read_bytes()

    def test_non_finite_reports_are_strict_json(self, tmp_path, capsys):
        # At q = 40 and M = 24 some words overflow: their residual or
        # leakage reads null, and "non_finite" names the value.
        code = main(["verify", "--q", "40", "--window=24:24,0,0", "--output-dir", str(tmp_path)])
        assert code == EXIT_CHECK_FAILURE

        flagged, leaky = [], {}
        for name in SUITE_NAMES:
            doc = json.loads((tmp_path / f"{name}.json").read_text(), parse_constant=_refuse)
            for check in doc["checks"]:
                bad = check.get("non_finite", {})
                assert set(bad) <= {"residual", "leakage"} and set(bad.values()) <= {"nan", "inf"}
                for key in ("residual", "leakage"):
                    assert (check[key] is None) == (key in bad), check["id"]
                flagged += [(name, key) for key in bad]
                if "leakage" in bad:
                    leaky[check["id"]] = check["pass"]
        assert ("casimir", "leakage") in flagged
        assert ("commutant", "residual") in flagged
        # A non-finite leakage fails its check, as a non-finite residual does.
        ids = ("casimir_radius_squared", "x_lower_exchange", "x_ladder_commutator",
               "xihat_commutes_Xminus")
        assert leaky == dict.fromkeys(ids, False)

    def test_degenerate_q_is_a_usage_error(self, tmp_path):
        code = main(["verify", "--q", "1.0", "--output-dir", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_malformed_window_is_a_usage_error(self, tmp_path):
        code = main(["verify", "--window", "nope", "--output-dir", str(tmp_path)])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("tol", ["inf", "1e999"])
    def test_infinite_tolerance_is_a_usage_error(self, tol, tmp_path, capsys):
        # An infinite bound would make every residual pass and write a bare
        # Infinity into reports that must be strict JSON.
        args = ["verify", "--q", "40", "--window=24:24,0,0", "--tolerance", tol]
        assert main([*args, "--output-dir", str(tmp_path)]) == EXIT_USAGE
        assert f"tolerance must be positive and finite, got {tol}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_window_beyond_label_limit_is_a_usage_error(self, tmp_path):
        window = "--window=10000000000000000000:10000000000000000000,0,0"
        assert main(["verify", window, "--output-dir", str(tmp_path)]) == EXIT_USAGE

    def test_wrong_ladder_phase_fails(self, tmp_path, capsys):
        code = main(
            ["verify", "--theta-phase", "+1", "--output-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_FAILURE
        assert "FAIL" in out
        doc = json.loads((tmp_path / "tensor.json").read_text())
        assert doc["pass"] is False

    def test_capacity_cap_is_enforced(self, tmp_path, capsys):
        code = main(
            ["verify", "--capacity", "10", "--output-dir", str(tmp_path)]
        )
        assert code == EXIT_CAPACITY
        assert "exceeding the cap" in capsys.readouterr().err

    def test_overflowing_q_ends_in_a_verdict(self, tmp_path, capsys):
        # At q = 40 the X3 spectrum underflows to 0 and R2 overflows: the
        # run must end in failing NaN residuals, not in a traceback, and
        # print no library warning about the values it expects.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(
                ["verify", "--q", "40", "--window=-60:60,-3,2", "--output-dir", str(tmp_path)]
            )
        assert code == EXIT_CHECK_FAILURE
        assert "FAILURES detected" in capsys.readouterr().out
        doc = json.loads((tmp_path / "homomorphism.json").read_text())
        (check,) = [c for c in doc["checks"] if c["id"] == "hopping_from_coordinate_ladder"]
        assert check["residual"] is None and check["non_finite"]["residual"] == "nan"
        assert check["pass"] is False

    @pytest.mark.parametrize("q", ["1.2e77", "1.7e308"])
    def test_astronomical_q_ends_in_strict_reports(self, q, tmp_path, capsys):
        # From q = 1.16e77 the square of the q^2 coefficient overflows, and
        # beyond 1.34e154 q^2 itself: the run must end in failing reports
        # that are strict JSON, not in a traceback or a library warning.
        # Below q^2 overflowing, such a square reads inf, and a word that
        # leaks nothing adds nothing, so no leakage reads NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["verify", "--q", q, "--output-dir", str(tmp_path)])
        assert code == EXIT_CHECK_FAILURE
        assert "FAILURES detected" in capsys.readouterr().out
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"{name}.json" for name in SUITE_NAMES
        )
        for name in SUITE_NAMES:
            doc = json.loads((tmp_path / f"{name}.json").read_text(), parse_constant=_refuse)
            assert doc["suite"] == name
            if q == "1.2e77":
                assert all(c.get("non_finite", {}).get("leakage") != "nan" for c in doc["checks"])

    def test_nan_residual_reaches_the_stdout_verdict(self, tmp_path, capsys):
        # At q = 40 on M = 24 the commutant words overflow and a residual
        # reads NaN; the printed worst residual must say so, with no library
        # warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(
                ["verify", "--q", "40", "--window=24:24,0,0", "--output-dir", str(tmp_path)]
            )
        assert code == EXIT_CHECK_FAILURE
        lines = capsys.readouterr().out.splitlines()
        (line,) = [l for l in lines if l.startswith("commutant ")]
        assert line.split()[1:5] == ["FAIL", "worst", "asserted", "residual"]
        assert line.split()[5] == "nan"
        doc = json.loads((tmp_path / "commutant.json").read_text())
        assert any(c.get("non_finite", {}).get("residual") == "nan" for c in doc["checks"])

    def test_cli_import_leaves_sparse_linalg_out(self):
        # scipy.sparse.linalg costs import time and memory in every command;
        # no command needs it, and no module of the package imports scipy.
        code = (
            "import sys, qeuclid.cli; print('scipy.sparse.linalg' in sys.modules); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = _fresh_python(["-c", code])
        assert out.returncode == 0, out.stderr
        assert out.stdout == "False\n[]\n"

    def test_package_draws_no_random_numbers(self):
        # Every check is deterministic, so verify needs no seed: no module
        # of the package imports a random module or reads an attribute
        # ``random`` (``np.random``, ``numpy.random``).
        root = Path(qeuclid.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = (node.module or "").split(".") + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [part for a in node.names for part in a.name.split(".")]
                else:
                    continue
                assert "random" not in names, f"{path.name}:{node.lineno}"

    def test_reports_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # A BLAS dot splits a long vector across its threads and so changes
        # the order of the sum; at 17,298 states the reports must not move.
        args = ["verify", "--q", "1.5", "--window=-4:4,-30,30", "--output-dir"]
        for threads in ("1", "2"):
            out = tmp_path / threads
            cmd = ["-m", "qeuclid.cli", *args, str(out)]
            assert _fresh_python(cmd, OPENBLAS_NUM_THREADS=threads).returncode == EXIT_PASS
        for name in SUITE_NAMES:
            assert (tmp_path / "1" / f"{name}.json").read_bytes() == (
                tmp_path / "2" / f"{name}.json"
            ).read_bytes(), name


class TestCommandImports:
    """Each command imports only the package modules it runs."""

    #: Runs ``main`` on the arguments (none: the import alone), then prints
    #: the exit code and the package modules loaded.
    CODE = (
        "import sys, qeuclid.cli\n"
        "code = qeuclid.cli.main(sys.argv[1:]) if sys.argv[1:] else None\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'qeuclid'))\n"
    )
    BASE = ["qeuclid", "qeuclid.cli", "qeuclid.core"]

    def loaded(self, *args: str) -> tuple[int | None, list[str]]:
        run = _fresh_python(["-c", self.CODE, *args])
        assert run.returncode == 0, run.stderr
        code, modules = run.stdout.splitlines()[-1].split(" ", 1)
        return (None if code == "None" else int(code)), ast.literal_eval(modules)

    @pytest.mark.parametrize(
        "args, code",
        [
            ((), None),
            (("--help",), EXIT_PASS),
            (("limit", "Torb3", "L3", "--tolerance", "1"), EXIT_USAGE),
        ],
        ids=["import", "help", "usage-error"],
    )
    def test_parsing_loads_only_core(self, args, code):
        assert self.loaded(*args) == (code, self.BASE)

    def test_limit_adds_smooth(self):
        assert self.loaded("limit", "Torb3", "L3") == (EXIT_PASS, [*self.BASE, "qeuclid.smooth"])

    def test_lattice_commands_add_lattice_and_operators(self, tmp_path):
        state = tmp_path / "in.txt"
        save_state(str(state), LatticeState({BasisIndex(0, 1, -1, 0): 1.0}))
        expected = (EXIT_PASS, [*self.BASE, "qeuclid.lattice", "qeuclid.operators"])
        out = str(tmp_path / "out.txt")
        assert self.loaded("apply", "X3", "--input", str(state), "--output", out) == expected
        assert self.loaded("spectrum", "X3") == expected
        assert self.loaded("matrix", "X3", "--output", out) == expected

    def test_verify_adds_lattice_operators_and_verify(self, tmp_path):
        modules = ["qeuclid.lattice", "qeuclid.operators", "qeuclid.verify"]
        got = self.loaded("verify", "--output-dir", str(tmp_path))
        assert got == (EXIT_PASS, [*self.BASE, *modules])


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenReports:
    """Reports and stdout must match checked-in bytes, not only themselves.

    q3.0-sparse holds 2,890 states.
    q1.1-phase0.7 runs at a complex phase, while the direct operators of
    the tensor suite stay at phase -1.  Every stdout.txt was written by the
    code that still materialized every letter once per check; the reports
    were last rewritten when the residual norms became fixed-order sums,
    which moved some residuals in their last bits and no verdict.  They
    kept their bytes when the values at a real phase became float64.
    q1.5-window17298 is the 17,298-state window of the benchmark; it was
    written by the code whose diagonal kernels still built a shifted,
    zero-filled copy of every diagonal.
    """

    @pytest.mark.parametrize(
        "golden, extra, rc",
        [
            ("q1.5", ["--q", "1.5", "--window=0:2,-8,8"], EXIT_PASS),
            (
                "q1.5-phase+1",
                ["--q", "1.5", "--window=0:2,-8,8", "--theta-phase", "+1"],
                EXIT_CHECK_FAILURE,
            ),
            ("q3.0-sparse", ["--q", "3.0", "--window=-2:2,-16,16"], EXIT_PASS),
            ("q1.5-window17298", ["--q", "1.5", "--window=-4:4,-30,30"], EXIT_PASS),
            (
                "q1.1-phase0.7",
                ["--q", "1.1", "--theta-phase", "0.7", "--window=0:2,-8,8"],
                EXIT_CHECK_FAILURE,
            ),
        ],
    )
    def test_reports_match_golden_bytes(self, golden, extra, rc, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["verify", *extra, "--output-dir", "out"])
        assert code == rc
        assert capsys.readouterr().out == (GOLDEN / golden / "stdout.txt").read_text()
        for name in SUITE_NAMES:
            want = (GOLDEN / golden / f"{name}.json").read_bytes()
            assert (tmp_path / "out" / f"{name}.json").read_bytes() == want, name


POINTWISE = GOLDEN / "pointwise"


class TestPointwiseGoldens:
    # commands.json lists the apply, spectrum, limit and matrix commands
    # with their exit codes; the output files beside it were written by the
    # code that still kept states as dicts, the limit files other than
    # limit-Torbplus-Lplus.csv by the hand-written smooth rule closures, and
    # the matrix files, at phases -1 and 0.7, by the code that stored every
    # matrix value as complex128, and the limit files with "-m" in their
    # names (the benchmark's mode ranges and sample counts) by the code
    # that still evaluated each mode through its own closure chain.  A
    # command that is refused names its error in "stderr" and writes no
    # file.  state.txt is a seeded state on 0:0,-8,8 with shuffled rows, a
    # repeated index, a label given three times, a -0.0 real part and an
    # exact zero.
    COMMANDS = json.loads((POINTWISE / "commands.json").read_text())

    @pytest.mark.parametrize("cmd", COMMANDS, ids=[c["output"] for c in COMMANDS])
    def test_outputs_match_golden_bytes(self, cmd, tmp_path, capsys):
        out = tmp_path / cmd["output"]
        argv = [
            a.replace("{input}", str(POINTWISE / "state.txt")).replace("{output}", str(out))
            for a in cmd["args"]
        ]
        assert main(argv) == cmd["rc"]
        if "stderr" in cmd:
            assert cmd["stderr"] in capsys.readouterr().err
            assert not out.exists()
        else:
            assert out.read_bytes() == (POINTWISE / cmd["output"]).read_bytes()


def _spectrum_rows(ix, vals) -> list[dict]:
    """The rows ``qeuclid spectrum --format json`` writes, built one by one:
    a non-finite value, or part of one, reads null, and "non_finite" holds
    the value as ``repr`` writes it."""
    finite = lambda x: x if math.isfinite(x) else None
    rows = []
    for M, sigma, mt, m, v in zip(*(a.tolist() for a in ix), vals.tolist()):
        row = {"M": M, "sigma": sigma, "mt": mt, "m": m}
        if isinstance(v, complex) and v.imag == 0.0:
            v = v.real
        row["eigenvalue"] = (
            [finite(v.real), finite(v.imag)] if isinstance(v, complex) else finite(v)
        )
        if not cmath.isfinite(v):
            row["non_finite"] = repr(v)
        rows.append(row)
    return rows


class TestSpectrumCommand:
    def test_coordinate_spectrum_csv(self, capsys):
        code = main(["spectrum", "X3", "--q", "2.0", "--window", "0:0,0,0"])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        lines = out.splitlines()
        assert lines[0] == "M,sigma,mt,m,eigenvalue"
        assert lines[1] == "0,1,0,0,2.0"
        assert lines[2] == "0,-1,0,0,-2.0"

    def test_polar_spectrum_values(self, capsys):
        code = main(["spectrum", "t3", "--q", "2.0", "--window", "0:0,-1,0"])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        values = sorted({float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]})
        assert values == pytest.approx([10.0 / 3.0, 65.0 / 1.5])

    def test_non_diagonal_operator_is_misuse(self, capsys):
        code = main(["spectrum", "Kplus"])
        assert code == EXIT_OPERATOR_MISUSE
        assert "not diagonal" in capsys.readouterr().err

    def test_unknown_operator_is_misuse(self, capsys):
        code = main(["spectrum", "Xbogus"])
        assert code == EXIT_OPERATOR_MISUSE
        assert "catalogue" in capsys.readouterr().err

    def test_json_format_and_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "spec.json"
        code = main(
            [
                "spectrum",
                "tau_k",
                "--q",
                "2.0",
                "--window",
                "0:0,0,1",
                "--format",
                "json",
                "--output",
                str(out_file),
            ]
        )
        assert code == EXIT_PASS
        rows = json.loads(out_file.read_text())
        assert {row["eigenvalue"] for row in rows} == {-0.25, -0.015625}

    def test_csv_writes_each_value_as_repr_writes_it(self):
        # Values are formatted once per bit pattern: -0.0 and 0.0 stay apart,
        # and every NaN payload reads nan.
        payload = np.array([0x7FF8000000000001, -1], dtype=np.int64).view(np.float64)
        vals = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, *payload])
        ix = BasisIndex(*(np.arange(len(vals)) - k for k in range(4)))
        want = [
            f"{M},{sigma},{mt},{m},{v!r}"
            for M, sigma, mt, m, v in zip(*(a.tolist() for a in ix), vals.tolist())
        ]
        assert cli.spectrum_csv(ix, vals).splitlines() == ["M,sigma,mt,m,eigenvalue", *want]
        # A value with a nonzero imaginary part prints as a complex.
        z = vals.astype(np.complex128)
        z[1] = complex(-0.0, 2.0)
        assert cli.spectrum_csv(ix, z).splitlines()[1:] == [
            *want[:1], "1,0,-1,-2,(-0+2j)", *want[2:]
        ]

    @pytest.mark.parametrize(
        "case", ["real", "complex", "non-finite", "complex-non-finite", "empty"]
    )
    def test_json_has_the_bytes_of_the_json_encoder(self, case):
        # A non-finite value, or part of one, reads null, and the row's
        # "non_finite" holds the value as the CSV writes it.
        ix, vals = spectrum_arrays(
            "K3", TruncationWindow(-1, 1, -3, 3), DeformationParams(q=1.7, r0=0.8)
        )
        if case.startswith("complex"):
            vals = vals * np.exp(0.3j)
            vals[::5] = vals[::5].real  # some rows stay real
        if case.endswith("non-finite"):
            vals = vals.copy()
            vals[:6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16]
        if case == "complex-non-finite":
            vals[6:9] = [complex(1.5, np.inf), complex(np.nan, -2.0), complex(-np.inf, np.nan)]
        elif case == "empty":
            ix, vals = BasisIndex(*(a[:0] for a in ix)), vals[:0]
        rows = _spectrum_rows(ix, vals)
        text = cli.spectrum_json(ix, vals)
        assert text == json.dumps(rows, sort_keys=True, indent=2) + "\n"
        assert json.loads(text, parse_constant=_refuse) == rows

    def test_blocks_have_the_bytes_of_the_reference(self):
        # Rows are written ROW_BLOCK at a time: at row counts on both sides
        # of a block's edge, with complex and non-finite values at the
        # edges, the CSV and the JSON equal references built row by row.
        B = lattice.ROW_BLOCK
        ix, vals = spectrum_arrays(
            "K3", TruncationWindow(-1, 1, -20, 20), DeformationParams(q=1.7, r0=0.8)
        )
        vals = vals * np.exp(0.3j)
        vals[::3] = vals[::3].real
        vals[[0, B - 1, B, 2 * B]] = [complex(np.inf, 0.0), np.nan, complex(1.5, -np.inf), -0.0]
        for n in (0, 1, B - 1, B, B + 1, 2 * B + 1):
            part, v = BasisIndex(*(a[:n] for a in ix)), vals[:n]
            csv = [
                f"{M},{sigma},{mt},{m},{x.real if x.imag == 0.0 else x!r}"
                for M, sigma, mt, m, x in zip(*(a.tolist() for a in part), v.tolist())
            ]
            assert cli.spectrum_csv(part, v) == "\n".join(["M,sigma,mt,m,eigenvalue", *csv]) + "\n"
            rows = _spectrum_rows(part, v)
            assert cli.spectrum_json(part, v) == json.dumps(rows, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "args",
        [
            ["R2", "--q", "40", "--window=24:24,0,0"],  # inf eigenvalues
            ["K3", "--theta-phase", "0.7", "--window=0:0,0,1024"],  # 2,050 rows
        ],
        ids=["non-finite", "blocks"],
    )
    def test_output_file_has_the_bytes_of_stdout(self, tmp_path, capsys, fmt, args):
        # The file, stdout and the one-string writer carry the same bytes.
        args = ["spectrum", *args, "--format", fmt]
        assert main(args) == EXIT_PASS
        printed = capsys.readouterr().out
        out_file = tmp_path / "sub" / f"spec.{fmt}"
        assert main([*args, "--output", str(out_file)]) == EXIT_PASS
        ns = cli._parser().parse_args(args)
        ix, vals = spectrum_arrays(ns.operator, ns.window, cli._params(ns))
        text = (cli.spectrum_json if fmt == "json" else cli.spectrum_csv)(ix, vals)
        assert out_file.read_bytes() == printed.encode() == text.encode()

    def test_non_finite_json_is_strict(self, capsys):
        # At q = 40 on M = 24 the R2 spectrum overflows to inf.
        code = main(["spectrum", "R2", "--q", "40", "--window=24:24,0,0", "--format", "json"])
        assert code == EXIT_PASS
        rows = json.loads(capsys.readouterr().out, parse_constant=_refuse)
        bad = [row for row in rows if "non_finite" in row]
        assert bad and all(row["eigenvalue"] is None and row["non_finite"] == "inf" for row in bad)
        assert all(math.isfinite(row["eigenvalue"]) for row in rows if "non_finite" not in row)

    def test_output_is_stable_across_runs(self, capsys):
        main(["spectrum", "R2", "--q", "1.5", "--window", "-1:1,0,0"])
        first = capsys.readouterr().out
        main(["spectrum", "R2", "--q", "1.5", "--window", "-1:1,0,0"])
        assert capsys.readouterr().out == first


class TestLimitCommand:
    def test_diagonal_coordinate_is_exactly_classical(self, capsys):
        code = main(["limit", "X3", "X3_cl", "--h", "0.1"])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        assert "error identically zero" in out

    @pytest.mark.parametrize(
        "deformed, classical",
        [("Torb3", "L3"), ("Torb+", "L+"), ("Torb-", "L-")],
    )
    def test_orbital_family_slopes_in_band(self, deformed, classical, capsys):
        code = main(["limit", deformed, classical])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        assert "fitted log-log slope" in out

    def test_wrong_phase_has_no_limit(self, capsys):
        code = main(
            ["limit", "Torb+", "L+", "--theta-phase", "+1", "--h", "0.1,0.05"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_FAILURE
        assert "no classical limit at this phase" in out

    def test_infeasible_grid_is_a_domain_error(self, capsys):
        code = main(["limit", "t-", "L-", "--h", "3.0"])
        assert code == EXIT_DOMAIN
        assert "no feasible xi interval" in capsys.readouterr().err

    def test_csv_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "limit.csv"
        code = main(
            ["limit", "Torb3", "L3", "--h", "0.05,0.025", "--output", str(out_file)]
        )
        assert code == EXIT_PASS
        lines = out_file.read_text().splitlines()
        assert lines[0] == "h,error,slope"
        assert len(lines) == 3

    def test_empty_mode_range_is_a_usage_error(self):
        assert main(["limit", "Torb3", "L3", "--modes", "3:-3"]) == EXIT_USAGE

    def test_nonpositive_h_is_a_usage_error(self):
        assert main(["limit", "Torb3", "L3", "--h", "0.1,-0.1"]) == EXIT_USAGE

    @pytest.mark.parametrize("h", ["0.5,0.5", "0.05,0.05,0.05"])
    def test_repeated_h_is_a_usage_error(self, h, capsys):
        assert main(["limit", "Torb3", "L3", "--h", h]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: h values must be distinct")
        assert captured.out == ""

    def test_nan_h_is_a_usage_error_naming_h(self, capsys):
        assert main(["limit", "Torb3", "L3", "--h", "0.1,nan"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --h: every h must be positive" in err
        assert "q must be" not in err

    @pytest.mark.parametrize(
        "value, message",
        [("0", "samples must be positive, got 0"), ("x", "samples must be an integer, got 'x'")],
    )
    def test_bad_samples_names_samples(self, value, message, capsys):
        assert main(["limit", "X3", "X3_cl", "--samples", value]) == EXIT_USAGE
        assert f"argument --samples: {message}" in capsys.readouterr().err

    def test_rule_is_applied_once_per_h(self, monkeypatch, capsys):
        # The xi grid and the error table read the same per-h applications.
        calls = []
        real = smooth.smooth_apply

        def counting(name, f, p):
            calls.append(p.q)
            return real(name, f, p)

        monkeypatch.setattr(smooth, "smooth_apply", counting)
        assert main(["limit", "Torb3", "L3"]) == EXIT_PASS
        assert calls == [math.exp(h) for h in (0.1, 0.05, 0.025, 0.0125)]

    @pytest.fixture
    def nan_probe(self, monkeypatch):
        """A probe function with one mode that is NaN everywhere."""
        nan = smooth.ModeFunction(
            lambda r, x: np.full(np.broadcast_shapes(np.shape(r), np.shape(x)), np.nan)
        )
        probe = smooth.probe_function([0])
        monkeypatch.setattr(
            smooth, "probe_function", lambda modes: smooth.SmoothFunction({0: probe[0], 1: nan})
        )

    def test_non_finite_error_is_a_failure_naming_h(self, nan_probe, capsys):
        # A NaN mode must not read as "error identically zero".
        code = main(["limit", "X3", "X3_cl", "--h", "0.1,0.05"])
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_FAILURE
        assert "X3 vs X3_cl: error is not finite at h = 0.1, 0.05" in out
        assert "identically zero" not in out

    def test_non_finite_error_is_null_in_strict_json(self, nan_probe, tmp_path):
        out = tmp_path / "limit.json"
        args = ["limit", "X3", "X3_cl", "--h", "0.1,0.05", "--format", "json"]
        assert main([*args, "--output", str(out)]) == EXIT_CHECK_FAILURE
        doc = json.loads(out.read_text(), parse_constant=_refuse)
        assert doc["rows"] == [[0.1, None, None], [0.05, None, None]]
        assert doc["non_finite"] == [[0.1, "nan"], [0.05, "nan"]]

    def test_finite_json_has_no_non_finite_field(self, tmp_path):
        out = tmp_path / "limit.json"
        args = ["limit", "Torb3", "L3", "--format", "json", "--output", str(out)]
        assert main(args) == EXIT_PASS
        assert "non_finite" not in json.loads(out.read_text())

    def test_out_of_range_h_is_a_usage_error(self, capsys):
        assert main(["limit", "Torb3", "L3", "--h", "1e-20"]) == EXIT_USAGE
        assert "h = 1e-20 is out of range: q = e^h rounds to 1" in capsys.readouterr().err

    def test_samples_sets_the_xi_grid(self, capsys):
        assert main(["limit", "--help"]) == EXIT_PASS
        assert "number of xi grid points" in capsys.readouterr().out


class TestApplyCommand:
    def test_round_trip_matches_library_action(self, tmp_path):
        p = DeformationParams(q=2.0)
        state = LatticeState(
            {BasisIndex(0, 1, -1, 0): 1.0, BasisIndex(0, -1, -2, 1): 0.5j}
        )
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        save_state(str(src), state)
        code = main(
            ["apply", "Torb+", "--q", "2.0", "--input", str(src), "--output", str(dst)]
        )
        assert code == EXIT_PASS
        assert load_state(str(dst)) == apply("Torbplus", state, p)

    def test_missing_input_is_a_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "apply",
                "X3",
                "--input",
                str(tmp_path / "absent.txt"),
                "--output",
                str(tmp_path / "out.txt"),
            ]
        )
        assert code == EXIT_USAGE

    def test_malformed_state_file_is_a_usage_error(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("0 +1 0 0 1.0\n")
        code = main(
            ["apply", "X3", "--input", str(src), "--output", str(tmp_path / "o.txt")]
        )
        assert code == EXIT_USAGE
        assert "expected" in capsys.readouterr().err

    @pytest.mark.parametrize("amp", ["nan", "inf", "-inf"])
    def test_non_finite_amplitude_is_a_usage_error(self, amp, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text(f"0 +1 0 0 1.0 0.0\n0 +1 0 0 {amp} 0.0\n")
        dst = tmp_path / "o.txt"
        code = main(["apply", "X3", "--input", str(src), "--output", str(dst)])
        assert code == EXIT_USAGE
        assert f"{src}:2: amplitude" in capsys.readouterr().err
        assert not dst.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            (b"0 +1 0 0 1.0", "expected 'M sigma mt m re im'"),
            (b"0 +1 0.5 0 1.0 0.0", "invalid literal for int"),
            (b"0 +1 0 0 x 0.0", "could not convert string to float: 'x'"),
            (b"0 +1 1 0 1.0 0.0", "invalid basis index"),
            (b"0 +1 0 1152921504606846977 1.0 0.0", "beyond 2^59"),
            (b"0 +1 0 100000000000000000000 1.0 0.0", "beyond 2^59"),
            (b"0 +1 0 0 \xff\xfe 0.0", "'utf-8' codec can't decode byte 0xff"),
        ],
    )
    def test_bad_row_names_its_line(self, row, message, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_bytes(b"# header\n0 -1 -1 0 1.0 0.0\n\n" + row + b"\n0 +1 0 0 1.0 0.0\n")
        code = main(
            ["apply", "X3", "--input", str(src), "--output", str(tmp_path / "o.txt")]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{src}:4: " in err
        assert message in err

    def test_unknown_operator_is_misuse(self, tmp_path):
        src = tmp_path / "in.txt"
        save_state(str(src), LatticeState.basis_state(BasisIndex(0, 1, 0, 0)))
        code = main(
            ["apply", "Qfoo", "--input", str(src), "--output", str(tmp_path / "o.txt")]
        )
        assert code == EXIT_OPERATOR_MISUSE


class TestMatrixCommand:
    def test_dump_and_summary(self, tmp_path, capsys):
        out_file = tmp_path / "mat.txt"
        code = main(
            [
                "matrix",
                "Kplus",
                "--q",
                "2.0",
                "--window",
                "0:0,-1,1",
                "--output",
                str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        assert "8x8" in out
        lines = out_file.read_text().splitlines()
        assert lines[0] == "# row col re im"
        assert len(lines) > 1

    @pytest.mark.parametrize(
        "name, window", [("Kplus", "0:0,-2,2"), ("Xminus", "0:0,-2,2"), ("Kplus", "0:0,0,0")]
    )
    def test_summary_counts_columns_that_leak(self, name, window, tmp_path, capsys):
        # The entry and boundary counts come from the pointwise oracle: a
        # column is on the boundary when some target it reaches is valid
        # but outside the window.  On 0:0,0,0 every Kplus column leaks.
        w = TruncationWindow(*(int(x) for x in window.replace(":", ",").split(",")))
        order = {tuple(idx) for idx in build_window(w)}
        targets = [oracle_action(name, idx, 1.7, r0=1.3) for idx in sorted(order)]
        entries = sum(t in order for out in targets for t in out)
        boundary = sum(any(t not in order for t in out) for out in targets)
        out = tmp_path / "m.txt"
        argv = ["matrix", name, "--q", "1.7", "--r0", "1.3", f"--window={window}"]
        assert main([*argv, "--output", str(out)]) == EXIT_PASS
        n = len(order)
        assert capsys.readouterr().out == (
            f"{name} on window {window}: {n}x{n}, {entries} entries, "
            f"{boundary} boundary columns, wrote {out}\n"
        )

    def test_capacity_override(self, tmp_path, capsys):
        code = main(
            [
                "matrix",
                "X3",
                "--window",
                "0:0,-3,3",
                "--capacity",
                "8",
                "--output",
                str(tmp_path / "m.txt"),
            ]
        )
        assert code == EXIT_CAPACITY


#: The options several subcommands share, and which of them each reads.
SHARED_OPTIONS = {
    "--q": "2.0", "--r0": "1.0", "--theta-phase": "+1", "--window": "0:0,-1,1",
    "--tolerance": "1", "--output-dir": "d", "--format": "json", "--capacity": "5",
}
OPTIONS_READ = {
    "verify": {"--q", "--r0", "--theta-phase", "--window", "--tolerance", "--output-dir",
               "--capacity"},
    "spectrum": {"--q", "--r0", "--theta-phase", "--window", "--format", "--capacity"},
    "limit": {"--theta-phase", "--format"},
    "apply": {"--q", "--r0", "--theta-phase"},
    "matrix": {"--q", "--r0", "--theta-phase", "--window", "--capacity"},
}


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c, read in OPTIONS_READ.items() for f in SHARED_OPTIONS if f not in read],
    )
    def test_an_option_the_command_ignores_is_an_error(
        self, command, flag, tmp_path, monkeypatch, capsys
    ):
        # Each subcommand takes only the options it reads, so a flag that
        # would change nothing stops the run before it writes anything.
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.txt"
        state = POINTWISE / "state.txt"
        argv = {
            "verify": ["verify"],
            "spectrum": ["spectrum", "X3"],
            "limit": ["limit", "Torb3", "L3", "--output", str(out)],
            "apply": ["apply", "X3", "--input", str(state), "--output", str(out)],
            "matrix": ["matrix", "X3", "--output", str(out)],
        }[command]
        assert main([*argv, flag, SHARED_OPTIONS[flag]]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} {SHARED_OPTIONS[flag]}" in err
        assert list(tmp_path.iterdir()) == []

    def test_each_command_takes_the_options_it_reads(self):
        sub = next(
            a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command, read in OPTIONS_READ.items():
            flags = {s for a in sub.choices[command]._actions for s in a.option_strings}
            assert flags & SHARED_OPTIONS.keys() == read, command

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_theta_phase(self):
        assert main(["verify", "--theta-phase", "maybe"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--q", "x", "q must be a real number, got 'x'"),
            ("--q", "1", "q must be > 1 (q = 1 is degenerate: lam = q - 1/q vanishes), got 1"),
            ("--r0", "x", "r0 must be a real number, got 'x'"),
            ("--r0", "0", "r0 must be positive, got 0"),
            ("--tolerance", "x", "tolerance must be a real number, got 'x'"),
            ("--tolerance", "nan", "tolerance must be positive, got nan"),
            ("--capacity", "1.5", "capacity must be an integer, got '1.5'"),
            ("--capacity", "0", "capacity must be positive, got 0"),
        ],
    )
    def test_number_errors_name_the_option(self, flag, value, message, capsys):
        assert main(["verify", flag, value]) == EXIT_USAGE
        assert f"argument {flag}: {message}\n" in capsys.readouterr().err
