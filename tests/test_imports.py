"""Every name a library module imports is used in that module, each module
imports only package modules below it in one layer order, only
``spectral`` reaches LAPACK, and only ``graphs`` past it solves for the
initial index ``lambda_I``.

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


def mentioned_names(source: str) -> set[str]:
    """The names a module's code mentions: names, attributes and imports,
    but not its strings or comments."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_checker_finds_mentioned_names():
    source = 'from .spectral import perron_components as pc\nx = s.spectral_radius(a)\n'
    assert mentioned_names(source) >= {"perron_components", "s", "spectral_radius"}
    assert "perron_components" not in mentioned_names('"""perron_components"""\n')


# One lambda_I code path: each instance's starting pair comes from the one
# path solve of ``spectral`` that ``graphs`` calls; no later layer solves A_I
# itself.
SOLVER_MODULES = {
    "perron_components": {"spectral.py", "graphs.py"},
    "spectral_radius": {"spectral.py"},
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_graphs_solves_for_lambda_i(path):
    found = mentioned_names(path.read_text(encoding="utf-8"))
    strays = {name for name, owners in SOLVER_MODULES.items() if path.name not in owners}
    assert found & strays == set()


# Each module may import only the package modules listed before it, so no
# import cycle can form.
LAYERS = ("spectral", "graphs", "bounds", "pathsim", "report", "rng", "verify", "cli")


def package_imports(source: str) -> set[str]:
    """The package modules a module imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("specbound."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("specbound."))
    return found


def test_checker_reads_package_imports():
    source = (
        "from .graphs import Graph\nfrom . import bounds\nimport specbound.rng\n"
        "from specbound.cli import main\nimport numpy as np\nfrom math import pi\n"
    )
    assert package_imports(source) == {"graphs", "bounds", "rng", "cli"}


def test_layers_name_every_module():
    assert sorted(LAYERS) == [p.stem for p in MODULES]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_earlier_layers(path):
    below = set(LAYERS[: LAYERS.index(path.stem)])
    assert package_imports(path.read_text(encoding="utf-8")) <= below


# One owner per decision of the instance pipeline: ``spectral`` picks the
# starting pair and solves the path, ``graphs`` lays out its points, and the
# per-kind data, the equality path included, lives in two tables.
PATH_OWNERS = {"spectral.py", "graphs.py"}


@pytest.mark.parametrize("name", ["_solve_paths", "tops"])
def test_only_graphs_and_spectral_see_the_path_solve(name):
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    mentioning = {file for file, source in sources.items() if name in mentioned_names(source)}
    assert mentioning == PATH_OWNERS


# The path's numerics live in ``spectral``, the one module that reaches
# ``numpy.linalg``: its secular root finder, its eigenbasis vectors, its
# shifted solves and its matrix search.  ``graphs`` takes the host's
# components from the edge set.
SPECTRAL_ONLY = [
    "_secular_roots", "_eigenbasis_pairs", "_shifted_pairs", "_final_tops", "is_connected_matrix"
]


@pytest.mark.parametrize("name", SPECTRAL_ONLY)
def test_only_spectral_sees_the_path_numerics(name):
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert {file for file, source in sources.items() if name in mentioned_names(source)} == {"spectral.py"}


def test_graphs_runs_no_matrix_search():
    found = mentioned_names((SRC / "graphs.py").read_text(encoding="utf-8"))
    assert found & {"is_connected_matrix", "connected_components"} == set()


def test_report_imports_only_bounds_and_graphs():
    assert package_imports((SRC / "report.py").read_text(encoding="utf-8")) == {"bounds", "graphs"}


def kind_tables(source: str) -> set[str]:
    """The module-level names bound to a dict literal keyed by
    ``PerturbationKind`` members."""
    found = set()
    for node in ast.parse(source).body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        keys = value.keys if isinstance(value, ast.Dict) else []
        members = [k for k in keys if isinstance(k, ast.Attribute) and isinstance(k.value, ast.Name)]
        if any(k.value.id == "PerturbationKind" for k in members):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(t.id for t in targets if isinstance(t, ast.Name))
    return found


def test_checker_finds_kind_tables():
    source = (
        "A = {PerturbationKind.EDGE_ADDITION: 1}\nB: dict = {PerturbationKind.PENDANT_EDGE: 2}\n"
        "C = {'edge': 3}\ndef f():\n    D = {PerturbationKind.EDGE_ADDITION: 4}\n"
    )
    assert kind_tables(source) == {"A", "B"}


def test_per_kind_data_lives_in_two_tables():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    tables = {(module, name) for module, source in sources.items() for name in kind_tables(source)}
    assert tables == {("graphs", "_SHAPES"), ("bounds", "KIND_SPECS")}
