"""The reference oracles stay apart from the package's chain.

``relbargmann.reference`` holds the F5 double series and integral and Appell
F1, which verify checks the closed forms against; only ``verification``
(and the tests and demos) may import it.
"""

import ast
from pathlib import Path

import pytest

import relbargmann
from relbargmann import hypergeom, orthopoly

PACKAGE = Path(relbargmann.__file__).parent
ORACLE_READERS = {"verification.py", "reference.py"}

#: names that left the package's chain: moved to ``reference`` or the
#: tests, or deleted
GONE = ("F5Args", "kdf_f5", "kdf_f5_series", "kdf_f5_integral", "appell_f1",
        "hyp3f2_terminating_unit", "ln_gamma", "reciprocal_gamma", "cdhahn_s",
        "jacobi_connection")


def _imports_reference(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "relbargmann.reference"
                   for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level and module == "reference":
                return True
            if module == "relbargmann.reference":
                return True
            if ((node.level and not module) or module == "relbargmann") \
                    and any(alias.name == "reference" for alias in node.names):
                return True
    return False


@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.glob("*.py") if p.name not in ORACLE_READERS),
    ids=lambda p: p.name)
def test_chain_does_not_import_reference(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not _imports_reference(tree)


def test_import_check_sees_every_form():
    for source in ("from .reference import F5Args",
                   "from . import reference",
                   "from relbargmann.reference import appell_f1",
                   "from relbargmann import reference",
                   "import relbargmann.reference"):
        assert _imports_reference(ast.parse(source)), source
    assert not _imports_reference(ast.parse("from .hypergeom import gauss_2f1"))


@pytest.mark.parametrize("name", GONE)
def test_name_left_the_chain(name):
    assert name not in relbargmann.__all__
    assert not hasattr(hypergeom, name)
    assert not hasattr(orthopoly, name)


def test_export_count():
    assert len(relbargmann.__all__) == 49
