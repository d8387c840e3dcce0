"""Each output check accepts the program's real output and rejects a corrupted copy.

Run from the root of a checkout::

    python3 perfbench/test_checks.py

The test produces small outputs with ``qeuclid.cli.main`` (a 162-state
window), checks that every check passes on them, then corrupts one thing at
a time and checks that the matching check reports it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WINDOW = "0:0,-8,8"
WORK = HERE / "runs" / "test-checks"


def _run(op: dict, out: Path) -> str:
    from qeuclid.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        rc = main([a.replace("{out}", str(out)) for a in op["args"]])
    assert rc == op["rc"], (op["args"], rc)
    return stdout.getvalue()


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        clean = WORK / "clean"
        clean.mkdir(parents=True)
        state = WORK / "state.txt"
        workloads.write_state(state, workloads.window_indices(WINDOW), random.Random(7))
        q, r0 = 1.7, 0.8
        cls.ops = {
            "verify": workloads.verify_op(1.5, WINDOW, "verify", "pass"),
            "control": workloads.verify_op(1.5, WINDOW, "control", "tensor-fails", "+1"),
            "apply": {"args": ["apply", "Torb+", "--q", repr(q), "--r0", repr(r0),
                               "--input", str(state), "--output", "{out}/apply.txt"],
                      "rc": 0, "op": "Torb+", "q": q, "r0": r0, "out": "apply.txt"},
            "spectrum": {"args": ["spectrum", "X3", "--q", repr(q), "--r0", repr(r0),
                                  f"--window={WINDOW}", "--output", "{out}/spectrum.csv"],
                         "rc": 0, "op": "X3", "q": q, "r0": r0, "window": WINDOW,
                         "out": "spectrum.csv"},
        }
        h = "0.1,0.05,0.025,0.0125"
        for key, deformed, classical, phase, expect, rc in (
            ("limit", "Torbplus", "Lplus", "-1", "converges", 0),
            ("limit-zero", "X3", "X3_cl", "-1", "zero", 0),
            ("limit-control", "Torbplus", "Lplus", "+1", "no-limit", 1),
        ):
            cls.ops[key] = {
                "args": ["limit", deformed, classical, "--theta-phase", phase, "--h", h,
                         "--output", f"{{out}}/{key}.csv"],
                "rc": rc, "h": [float(x) for x in h.split(",")], "expect": expect,
                "out": f"{key}.csv",
            }
        cls.stdout = {key: _run(op, clean) for key, op in cls.ops.items()}
        state_rows = checks.read_state(state)
        cls.oracle = checks.load_oracle(ROOT)
        cls.expected_apply = checks.expected_apply(cls.oracle, cls.ops["apply"], state_rows)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def setUp(self):
        self.out = WORK / self.id().rsplit(".", 1)[-1]
        shutil.rmtree(self.out, ignore_errors=True)
        shutil.copytree(WORK / "clean", self.out)

    def problems(self, key: str, stdout: str | None = None, op: dict | None = None) -> list[str]:
        op = op or self.ops[key]
        stdout = self.stdout[key] if stdout is None else stdout
        if key in ("verify", "control"):
            return checks.check_verify(op, self.out, stdout)
        if key == "apply":
            return checks.check_apply(op, self.out, self.expected_apply)
        if key == "spectrum":
            return checks.check_spectrum(op, self.out)
        return checks.check_limit(op, self.out, stdout)

    def edit_report(self, suite: str, edit) -> None:
        path = self.out / "verify" / f"{suite}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")

    def edit_lines(self, name: str, edit) -> None:
        path = self.out / name
        lines = path.read_text(encoding="utf-8").splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    # --- the real outputs pass ----------------------------------------------

    def test_real_outputs_pass(self):
        for key in self.ops:
            self.assertEqual(self.problems(key), [], key)
        for q in (1.1, 3.0):
            self.assertEqual(checks.identity_problems(self.oracle, "0:2,-8,8", q, 1), [])

    # --- verify reports -------------------------------------------------------

    def test_verify_rejects_pass_false(self):
        self.edit_report("casimir", lambda d: d.update({"pass": False}))
        self.assertTrue(self.problems("verify"))

    def test_verify_rejects_check_pass_false(self):
        self.edit_report("x_relations", lambda d: d["checks"][0].update({"pass": False}))
        self.assertTrue(self.problems("verify"))

    def test_verify_rejects_residual_over_tolerance(self):
        self.edit_report("adjointness", lambda d: d["checks"][3].update({"residual": 1e-9}))
        self.assertTrue(self.problems("verify"))

    def test_verify_rejects_nan_residual(self):
        self.edit_report("commutant", lambda d: d["checks"][1].update({"residual": math.nan}))
        self.assertTrue(self.problems("verify"))

    def test_verify_rejects_inexact_zero(self):
        self.edit_report("lowest_weight", lambda d: d["checks"][0].update({"residual": 1e-300}))
        self.assertTrue(self.problems("verify"))

    def test_verify_rejects_missing_check(self):
        self.edit_report("tensor", lambda d: d["checks"].pop())
        self.assertTrue(self.problems("verify"))

    def test_verify_rejects_wrong_config(self):
        self.edit_report("recursions", lambda d: d["config"].update({"q": 2.0}))
        self.assertTrue(self.problems("verify"))

    def test_verify_rejects_missing_report(self):
        (self.out / "verify" / "homomorphism.json").unlink()
        self.assertTrue(self.problems("verify"))

    def test_control_must_fail_tensor_only(self):
        passing = dict(self.ops["verify"], out="control")
        self.assertTrue(self.problems("control", op=passing))
        failing = dict(self.ops["control"], out="verify")
        self.assertTrue(self.problems("control", stdout=self.stdout["verify"], op=failing))

    def test_identities_reject_a_wrong_relation(self):
        real = checks._identities

        def wrong(q):
            rel = real(q)
            lhs, rhs = rel["x_raise_exchange"]
            rel["x_raise_exchange"] = (lhs, [(q, rhs[0][1])])
            return rel

        checks._identities = wrong
        try:
            self.assertTrue(checks.identity_problems(self.oracle, WINDOW, 1.5, 1))
        finally:
            checks._identities = real

    # --- apply and spectrum -----------------------------------------------------

    def test_apply_rejects_flipped_amplitude(self):
        def flip(lines):
            parts = lines[5].split()
            parts[4] = repr(-float(parts[4]))
            lines[5] = " ".join(parts)

        self.edit_lines("apply.txt", flip)
        self.assertTrue(self.problems("apply"))

    def test_apply_rejects_last_digit_change(self):
        def nudge(lines):
            parts = lines[9].split()
            parts[5] = repr(float(parts[5]) * (1 + 1e-10))
            lines[9] = " ".join(parts)

        self.edit_lines("apply.txt", nudge)
        self.assertTrue(self.problems("apply"))

    def test_apply_rejects_dropped_amplitude(self):
        self.edit_lines("apply.txt", lambda lines: lines.pop(3))
        self.assertTrue(self.problems("apply"))

    def test_apply_rejects_reordered_amplitudes(self):
        def swap(lines):
            lines[2], lines[3] = lines[3], lines[2]

        self.edit_lines("apply.txt", swap)
        self.assertTrue(self.problems("apply"))

    def test_spectrum_rejects_changed_eigenvalue(self):
        def change(lines):
            head, value = lines[7].rsplit(",", 1)
            lines[7] = f"{head},{float(value) * (1 + 1e-9)!r}"

        self.edit_lines("spectrum.csv", change)
        self.assertTrue(self.problems("spectrum"))

    def test_spectrum_rejects_missing_row(self):
        self.edit_lines("spectrum.csv", lambda lines: lines.pop())
        self.assertTrue(self.problems("spectrum"))

    # --- limit --------------------------------------------------------------------

    def test_limit_rejects_non_monotone_errors(self):
        def bump(lines):
            h, err, slope = lines[-1].split(",")
            lines[-1] = f"{h},{float(err) * 3.0!r},{slope}"

        self.edit_lines("limit.csv", bump)
        self.assertTrue(self.problems("limit"))

    def test_limit_rejects_slope_outside_band(self):
        stdout = self.stdout["limit"]

        def flatten(lines):
            for k in range(1, len(lines)):
                h, err, _ = lines[k].split(",")
                lines[k] = f"{h},{0.5 - 0.01 * k!r},nan"

        self.edit_lines("limit.csv", flatten)
        self.assertTrue(any("outside" in p for p in self.problems("limit", stdout=stdout)))

    def test_limit_rejects_nonzero_error_for_exact_pair(self):
        def nonzero(lines):
            h, _, slope = lines[2].split(",")
            lines[2] = f"{h},1e-17,{slope}"

        self.edit_lines("limit-zero.csv", nonzero)
        self.assertTrue(self.problems("limit-zero"))

    def test_limit_control_must_report_no_limit(self):
        stdout = self.stdout["limit-control"].replace("no classical limit", "")
        self.assertTrue(self.problems("limit-control", stdout=stdout))
        converging = dict(self.ops["limit"], out="limit-control.csv")
        self.assertTrue(self.problems("limit", stdout=self.stdout["limit-control"], op=converging))

    # --- operation outcome and repeat rounds ------------------------------------

    def test_wrong_exit_code_or_exception_is_a_failed_operation(self):
        op = self.ops["control"]
        self.assertFalse(run.failed_op(op, {"rc": 1, "error": None}))
        self.assertTrue(run.failed_op(op, {"rc": 0, "error": None}))
        self.assertTrue(run.failed_op(op, {"rc": None, "error": "OverflowError: x"}))

    def test_repeat_round_must_match_byte_for_byte(self):
        other = WORK / "other"
        shutil.rmtree(other, ignore_errors=True)
        shutil.copytree(self.out, other)
        self.assertEqual(run.same_outputs(self.out, other), [])
        self.edit_lines("spectrum.csv", lambda lines: lines.append(""))
        self.assertTrue(run.same_outputs(self.out, other))


class TraceDerivation(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        WORK.parent.mkdir(parents=True, exist_ok=True)
        path = WORK.parent / "spans-test.jsonl"
        spans = [
            (1, "verify.run_all_suites", None, 0.0, 10.0, None, 1),
            (2, "verify.run_suite", "casimir", 1.0, 6.0, 1, 2),
            (3, "verify.run_suite", "tensor", 4.0, 9.0, 1, 3),
            (4, "verify.check_relations", None, 2.0, 5.0, 2, 2),
            (5, "verify.check_relations", None, 3.0, 4.0, 4, 2),
        ]
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, arg, start, end, parent, thread in spans:
                fh.write(json.dumps({"id": sid, "name": name, "arg": arg, "start": start,
                                     "end": end, "parent": parent, "thread": thread}) + "\n")
            fh.write(json.dumps({"counters": {"core.qpow.calls": 42}}) + "\n")
        try:
            m = tracer.layer_metrics(path, 0.5)
        finally:
            path.unlink()
        self.assertEqual(m["verify.run_all_suites.self_s"], 2.0)
        self.assertEqual(m["verify.suite.casimir.s"], 5.0)
        self.assertEqual(m["verify.suite.tensor.s"], 5.0)
        self.assertEqual(m["verify.check_relations.calls"], 2)
        self.assertEqual(m["verify.check_relations.s"], 3.0)
        self.assertEqual(m["verify.check_relations.self_s"], 3.0)
        self.assertEqual(m["core.qpow.calls"], 42)
        self.assertEqual(m["operators.apply.calls"], 0)
        self.assertEqual(m["trace.overhead_s"], 0.5)

    def test_benchmark_lists_every_layer_metric(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        listed = [(m["name"], m["unit"]) for m in doc["per_layer"]]
        self.assertEqual(listed, tracer.metric_names())


if __name__ == "__main__":
    unittest.main()
