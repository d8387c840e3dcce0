"""The README's Python examples and the package docstring's run as written."""

import doctest
import re
from pathlib import Path

import pytest

import qeuclid

README = Path(__file__).resolve().parents[1] / "README.md"
_TEXT = README.read_text(encoding="utf-8")
#: Each block padded with newlines so tracebacks give README line numbers.
BLOCKS = [
    "\n" * _TEXT.count("\n", 0, m.start(1)) + m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", _TEXT, re.M | re.S)
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})


def test_package_doctest_passes():
    result = doctest.testmod(qeuclid)
    assert result.failed == 0
    assert result.attempted >= 1
