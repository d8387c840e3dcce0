"""The test configuration itself: under ``filterwarnings = ["error"]`` a
failing property test must still report its counterexample and leave the
rest of the run going."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    # Explaining a failure, hypothesis imports modules that warn on import;
    # as an error, such a warning would abort the run (INTERNALERROR, exit 3).
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
