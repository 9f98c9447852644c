"""Every name a library module imports is used in that module, and only
``spectral`` reaches LAPACK.

The package ``__init__`` is left out of the import check: its imports are the
public API it re-exports.  Names are read with the standard ``ast`` module,
so no linter is needed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "specbound"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau\nsys.exit(pi)\n") == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def references_linalg(source: str) -> bool:
    """Whether the module names ``linalg`` anywhere: attribute, name or import."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            return True
        if isinstance(node, ast.Name) and node.id == "linalg":
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any("linalg" in name.split(".") for name in names + [a.name for a in node.names]):
                return True
    return False


@pytest.mark.parametrize(
    "source",
    [
        "np.linalg.eigh(a)\n",
        "from numpy import linalg\n",
        "import numpy.linalg as la\n",
        "from numpy.linalg import eigh\n",
    ],
)
def test_checker_flags_a_linalg_reference(source):
    assert references_linalg(source)


def test_checker_passes_other_names():
    assert not references_linalg("np.eigh(a)\nlinalg_notes = 1\n")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_spectral_reaches_lapack(path):
    # One production eigensolver: every LAPACK call goes through spectral.
    assert references_linalg(path.read_text(encoding="utf-8")) == (path.name == "spectral.py")
