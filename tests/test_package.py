"""The package's own shape: where its names live and what its modules import.

Every public name has one address, in its module; `import eframes` loads
the six modules that hold them. The modules import each other without a
cycle, each library and test module uses every name it imports, only
`hilbert` compares against a tolerance outside a short allow-list or calls
numpy.linalg.norm, and no tolerance reaches numpy or scipy (no linter is
assumed, so the checks read the source with ast).
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import eframes

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eframes"
MODULES = ["controlled", "eframe", "gallery", "hilbert", "mapping", "neumann"]
SOURCES = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


@pytest.mark.parametrize("name", MODULES)
def test_import_loads_each_module_as_an_attribute(name):
    assert getattr(eframes, name) is importlib.import_module(f"eframes.{name}")


def test_version_is_set():
    assert re.fullmatch(r"\d+\.\d+\.\d+", eframes.__version__)


def sibling_imports() -> tuple[dict, set]:
    """Each module's module-level imports of sibling modules, and every import
    of a sibling inside a function, as (module, function, sibling)."""

    def siblings(node) -> list:
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            return []
        return [a.name for a in node.names] if node.module is None else [node.module]

    graph, local = {}, set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {name for node in tree.body for name in siblings(node)}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                local |= {(path.stem, fn.name, name)
                          for node in ast.walk(fn) for name in siblings(node)}
    return graph, local


def test_module_imports_form_a_dag():
    """Peel off modules that import no remaining sibling; a cycle is left over."""
    remaining, _ = sibling_imports()
    while remaining:
        leaves = {name for name, deps in remaining.items() if not deps & remaining.keys()}
        assert leaves, f"import cycle among {sorted(remaining)}"
        remaining = {name: deps for name, deps in remaining.items() if name not in leaves}


def test_the_one_function_level_sibling_import():
    """e_frame_bounds reads the prepared record, whose module imports eframe."""
    graph, local = sibling_imports()
    assert local == {("eframe", "e_frame_bounds", "controlled")}
    assert "eframe" in graph["controlled"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no other expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


#: (module, function) of each tolerance comparison outside hilbert, with its reason
TOL_COMPARISONS = {
    ("cli", "cmd_dual"),  # null_map_roundtrip, relative to ||E phi||_F
    ("cli", "cmd_neumann"),  # the certificate's tol, widened by the series' eps
    ("cli", "cmd_paper_example"),  # the worked example's sums are exact
    ("controlled", "riesz_equivalence"),  # two routes' bounds agree
}


def reads_tol(node) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == "tol"
        or isinstance(n, ast.Attribute) and n.attr == "tol"
        for n in ast.walk(node)
    )


def tol_comparisons(module: str, source: str) -> set:
    """(module, function) of each <, <=, >, >=, max or min that reads tol or .tol."""
    found = set()

    def visit(node, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        ordered = isinstance(node, ast.Compare) and all(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
        )
        extreme = isinstance(node, ast.Call) and getattr(node.func, "id", "") in ("max", "min")
        if (ordered or extreme) and reads_tol(node):
            found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_only_hilbert_states_tolerance_rules():
    """Equality, the Hermitian precondition and singularity are hilbert.close,
    hilbert.hermitian_bounds and hilbert.require_nonsingular."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "hilbert.py":
            found |= tol_comparisons(path.stem, path.read_text(encoding="utf-8"))
    assert found == TOL_COMPARISONS


def numeric_names(tree) -> dict:
    """Each name that an import of numpy or scipy binds, with the dotted path
    it stands for: np -> numpy, la -> numpy.linalg, norm -> numpy.linalg.norm."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".")[0]
                if root in ("numpy", "scipy"):
                    bound[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in ("numpy", "scipy"):
                bound |= {a.asname or a.name: f"{node.module}.{a.name}" for a in node.names}
    return bound


def numeric_calls(source: str):
    """(call node, dotted path) of each call into numpy or scipy through a name
    that numeric_names binds."""
    tree = ast.parse(source)
    bound = numeric_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in bound:
            yield node, ".".join([bound[func.id], *reversed(parts)])


def numpy_calls_given_tol(source: str) -> list[int]:
    """Lines of each call into numpy or scipy with an argument that reads tol or .tol."""
    return [
        node.lineno for node, _ in numeric_calls(source)
        if any(map(reads_tol, node.args + [k.value for k in node.keywords]))
    ]


def norm_calls(source: str) -> list[int]:
    """Lines of each call of numpy.linalg.norm, under whatever name."""
    return [node.lineno for node, path in numeric_calls(source) if path == "numpy.linalg.norm"]


def test_no_tolerance_reaches_numpy():
    """A tol handed to numpy or scipy (a pinv cutoff, an allclose) would be a
    rule outside hilbert's five: the controlled verdict decides T_u's rank."""
    found = {
        f"{path.name}:{line}"
        for path in PACKAGE.glob("*.py")
        for line in numpy_calls_given_tol(path.read_text(encoding="utf-8"))
    }
    assert found == set()


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nnp.linalg.norm(x)",
        "import numpy\nnumpy.linalg.norm(x)",
        "import numpy.linalg as la\nla.norm(x)",
        "from numpy import linalg\nlinalg.norm(x)",
        "from numpy.linalg import norm as n\nn(x)",
    ],
)
def test_norm_scan_sees_every_spelling(source):
    assert norm_calls(source) == [2]


def test_only_hilbert_takes_norms():
    """Every norm is hilbert's: frobenius (scale-safe), operator_norm and
    the 1-norms of invert_operator. A plain numpy norm elsewhere would be a
    second norm path, one that overflows past about 1e154."""
    found = {
        f"{path.name}:{line}"
        for path in PACKAGE.glob("*.py")
        if path.name != "hilbert.py"
        for line in norm_calls(path.read_text(encoding="utf-8"))
    }
    assert found == set()
