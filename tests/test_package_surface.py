"""The package's public surface as a fresh interpreter sees it.

``test_public_api`` imports every submodule first, so it cannot tell a
package that loads them on import from one that loads them on access.
"""

import ast

import qeuclid

from test_cli import _fresh_python
from test_public_api import PUBLIC


def fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    run = _fresh_python(["-c", code])
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_import_loads_only_core():
    code = "import sys, qeuclid; print(sorted(m for m in sys.modules if m.startswith('qeuclid')))"
    assert ast.literal_eval(fresh(code)) == ["qeuclid", "qeuclid.core"]


def test_every_name_is_the_object_of_its_home_module():
    code = (
        "import qeuclid\n"
        "values = {name: getattr(qeuclid, name) for name in qeuclid.__all__}\n"
        "from qeuclid import core, lattice, operators, smooth, verify\n"
        "homes = {n: m for m in (core, lattice, operators, smooth, verify) for n in m.__all__}\n"
        "print(sorted(values), values.pop('__version__'))\n"
        "print([n for n, v in values.items() if v is not getattr(homes[n], n)])\n"
    )
    assert fresh(code) == f"{PUBLIC} {qeuclid.__version__}\n[]\n"


def test_star_import_binds_every_name_and_dir_lists_them():
    code = (
        "import qeuclid\n"
        "listed = set(dir(qeuclid))\n"
        "scope = {}\n"
        "exec('from qeuclid import *', scope)\n"
        "print(sorted(set(qeuclid.__all__) - set(scope)), sorted(set(qeuclid.__all__) - listed))\n"
        "print(sorted({'lattice', 'operators', 'smooth', 'verify'} - listed))\n"
    )
    assert fresh(code) == "[] []\n[]\n"


def test_unknown_attribute_names_itself():
    code = (
        "import qeuclid\n"
        "try:\n"
        "    qeuclid.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert fresh(code) == "module 'qeuclid' has no attribute 'no_such_name'\n"
