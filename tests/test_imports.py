"""Every name a library module imports is used in that module, each module
imports only package modules below it in one layer order, only
``spectral`` reaches LAPACK, only ``graphs`` past it solves for the
initial index ``lambda_I``, and one table in ``bounds`` holds the per-kind
data.

The package ``__init__`` is left out of the import check: its imports are the
public API it re-exports.  Names are read with the standard ``ast`` module,
so no linter is needed.
"""

import ast
import inspect
from pathlib import Path

import pytest

import specbound
from specbound import bounds, graphs, pathsim, verify

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
LAYERS = ("spectral", "bounds", "graphs", "pathsim", "report", "rng", "verify", "cli")


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
# per-kind data, the equality path included, lives in one table.
PATH_OWNERS = {"spectral.py", "graphs.py"}


@pytest.mark.parametrize("name", ["_solve_paths", "slopes"])
def test_only_graphs_and_spectral_see_the_path_solve(name):
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    mentioning = {file for file, source in sources.items() if name in mentioned_names(source)}
    assert mentioning == PATH_OWNERS


# The path's numerics live in ``spectral``, the one module that reaches
# ``numpy.linalg``: its grid points' secular roots (the Newton solve) and
# eigenbasis pairs (the pass loop around it), its shifted solves, its stacks
# by matrix size, the only matrices ``A(t)`` it builds, and its matrix
# search.  ``graphs`` takes the host's components from the edge set.
SPECTRAL_ONLY = [
    pytest.param("_secular_newton", id="_secular_roots"),
    pytest.param("_grid_points", id="_eigenbasis_pairs"),
    "_shifted_pairs", "_final_tops", "_by_size", "_point", "is_connected_matrix",
]


@pytest.mark.parametrize("name", SPECTRAL_ONLY)
def test_only_spectral_sees_the_path_numerics(name):
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert {file for file, source in sources.items() if name in mentioned_names(source)} == {"spectral.py"}


def readers(source: str, name: str) -> list[str]:
    """The module-level function around each read of ``name`` in a module's
    code, as a name or an attribute, and ``""`` for a read outside any
    function; a binding of ``name`` is not a read."""
    found = []
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else ""
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load):
                if (sub.id if isinstance(sub, ast.Name) else sub.attr) == name:
                    found.append(owner)
    return found


def test_checker_finds_the_readers_of_a_name():
    source = 'X = 1\nY = X\ndef f():\n    return X\ndef g(m):\n    """X"""\n    return m.X + X\n'
    assert readers(source, "X") == ["", "f", "g", "g"]


def test_one_function_splits_the_grid_into_passes():
    # The memory budget of a pass is one decision: ``_passes`` alone reads
    # ``_ROOT_ENTRIES``, and the grid-point solve alone asks it for passes,
    # so a second chunker of the same points fails here.
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    for name, owner in (("_ROOT_ENTRIES", "_passes"), ("_passes", "_grid_points")):
        found = {file: readers(source, name) for file, source in sources.items()}
        assert {file: owners for file, owners in found.items() if owners} == {"spectral.py": [owner]}


def test_one_attempt_loop_and_one_word_source_draw_the_hosts():
    # A trial's connected part is one generator, fed by one array pass:
    # ``_connected_part`` alone reads ``_components`` and ``_connect`` alone
    # reads ``_words``, so a second attempt loop or word source fails here.
    source = (SRC / "rng.py").read_text(encoding="utf-8")
    assert readers(source, "_components") == ["_connected_part"]
    assert readers(source, "_words") == ["_connect"]


def test_one_constant_is_the_dominance_tolerance():
    # ``pathsim`` alone binds the tolerance of comparison dominance: the
    # public check defaults to it, and ``verify`` and the CLI import it.
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    binders = {
        file
        for file, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "COMPARISON_TOL" for t in node.targets)
    }
    assert binders == {"pathsim.py"}
    for check in (pathsim.check_comparison, verify.run_verification):
        assert inspect.signature(check).parameters["tolerance"].default is pathsim.COMPARISON_TOL


def lone_row_pads(source: str) -> list[str]:
    """The module-level function around each ``+ [0]`` or ``+ [0] * (...)``
    in a module's code: a zero row appended to bit rows."""
    zero = "[0]"
    found = []
    for node in ast.parse(source).body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Add):
                right = sub.right.left if isinstance(sub.right, ast.BinOp) else sub.right
                if ast.unparse(right) == zero:
                    found.append(node.name)
    return found


def test_checker_finds_the_lone_row_pads():
    source = "def f(r):\n    return r + [0]\ndef g(r, p):\n    return [0] * 3, r + [0] * (not p)\n"
    assert lone_row_pads(source) == ["f", "g"]


def test_one_function_adds_the_lone_vertex():
    # The vertex that ``A_I`` holds alone past a host's rows, a pendant
    # edge's new vertex or a drawn vertex connection's isolated ``u``, is
    # added by ``_with_lone_vertex`` alone: the set-up and the draw read it,
    # and no other function appends a zero row.
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    found = {file: readers(source, "_with_lone_vertex") for file, source in sources.items()}
    assert {file: owners for file, owners in found.items() if owners} == {
        "graphs.py": ["_solve_stacks"],
        "rng.py": ["_draw"],
    }
    pads = {file: lone_row_pads(source) for file, source in sources.items()}
    assert {file: owners for file, owners in pads.items() if owners} == {"graphs.py": ["_with_lone_vertex"]}


def test_one_function_builds_the_stacks():
    # Every instance is set up from bit rows in one place: ``_solve_stacks``
    # alone unpacks them into ``A_I`` stacks and builds the ``W`` stacks,
    # ``connected_components`` alone packs a matrix into rows, and ``rng``
    # hands its draw over as trial records.
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    for name, module, owner in (
        ("_unpack_rows", "graphs.py", "_solve_stacks"),
        ("_w_stack", "graphs.py", "_solve_stacks"),
        ("_row_bits", "spectral.py", "connected_components"),
    ):
        found = {file: readers(source, name) for file, source in sources.items()}
        assert {file: owners for file, owners in found.items() if owners} == {module: [owner]}
        assert name not in mentioned_names(sources["rng.py"])


def test_no_module_builds_the_dense_perturbation():
    # The solve carries P = W S W^T only as W: the dense matrix is public API
    # and the tests' reference, and no library module calls for it.
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    mentioning = {file for file, source in sources.items() if "perturbation_matrix" in mentioned_names(source)}
    assert mentioning == {"__init__.py"}


def test_graphs_runs_no_matrix_search():
    found = mentioned_names((SRC / "graphs.py").read_text(encoding="utf-8"))
    assert found & {"is_connected_matrix", "connected_components"} == set()


def test_report_imports_only_bounds_and_graphs():
    # and, from spectral, only the default tolerance of a Perron certificate
    source = (SRC / "report.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"bounds", "graphs", "spectral"}
    imports = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)]
    assert [a.name for node in imports if node.module == "spectral" for a in node.names] == ["PERRON_TOL"]


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


def test_per_kind_data_lives_in_one_table():
    # ``bounds`` defines the kinds and describes each in ``KIND_SPECS``, the
    # only table keyed by them; the package re-exports that one enum.
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    tables = {(module, name) for module, source in sources.items() for name in kind_tables(source)}
    assert tables == {("bounds", "KIND_SPECS")}
    defining = {module for module, source in sources.items() if "class PerturbationKind(" in source}
    assert defining == {"bounds"}
    assert specbound.PerturbationKind is graphs.PerturbationKind is bounds.PerturbationKind
