"""The package's own shape: where its names live and what its modules import.

Every public name has one address, in its module; `import eframes` loads
the six modules that hold them. The modules import each other without a
cycle, each library and test module uses every name it imports, only
`hilbert` compares against a tolerance outside a short allow-list or
calls numpy.linalg.norm, one validator raises every array shape error,
no tolerance reaches numpy or scipy, each rule that two modules could
state has one owner (the plain inverses, the contraction test and the
CLI's handlers), each CLI command is declared once, a problem's settings
are set on its record or Neumann pair and never on their methods, and no
linter is assumed, so the checks read the
source with ast.
"""

import argparse
import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

import pytest

import eframes
from eframes import cli, controlled, neumann

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


def test_no_function_level_sibling_import():
    """Every sibling import is at module level: eframe builds on the prepared
    record, so controlled imports nothing from eframe."""
    graph, local = sibling_imports()
    assert local == set()
    assert "eframe" not in graph["controlled"]


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
    ("eframe", "riesz_equivalence"),  # two routes' bounds agree
}


def reads(node, name: str = "tol") -> bool:
    """Whether node reads a name or an attribute called name."""
    return any(
        isinstance(n, ast.Name) and n.id == name
        or isinstance(n, ast.Attribute) and n.attr == name
        for n in ast.walk(node)
    )


def sites(module: str, source: str, hit) -> set:
    """(module, function) of each node of the source for which hit(node) holds."""
    found = set()

    def visit(node, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if hit(node):
            found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def tol_comparison(node) -> bool:
    """A <, <=, >, >=, max or min that reads tol or .tol."""
    ordered = isinstance(node, ast.Compare) and all(
        isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
    )
    extreme = isinstance(node, ast.Call) and getattr(node.func, "id", "") in ("max", "min")
    return (ordered or extreme) and reads(node)


def test_only_hilbert_states_tolerance_rules():
    """Equality, the Hermitian precondition and singularity are hilbert.close,
    hilbert.hermitian_bounds and hilbert.require_nonsingular."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "hilbert.py":
            found |= sites(path.stem, path.read_text(encoding="utf-8"), tol_comparison)
    assert found == TOL_COMPARISONS


def shape_error(node) -> bool:
    """A raise DimensionMismatchError(...)."""
    return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", "") == "DimensionMismatchError")


def test_one_validator_raises_every_shape_error():
    """Array shapes are checked by hilbert.validated alone; the banded
    mapping's offset checks are the one other shape error."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= sites(path.stem, path.read_text(encoding="utf-8"), shape_error)
    assert found == {("hilbert", "validated"), ("mapping", "_Banded.__init__")}


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
        if any(map(reads, node.args + [k.value for k in node.keywords]))
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


def inverse_sites() -> tuple[set, int]:
    """(module, function) of each call of numpy.linalg.inv, and the number of calls."""
    found, calls = set(), 0
    for path in PACKAGE.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        at = {(node.lineno, node.col_offset)
              for node, dotted in numeric_calls(source) if dotted == "numpy.linalg.inv"}
        calls += len(at)
        found |= sites(path.stem, source, lambda node: isinstance(node, ast.Call)
                       and (node.lineno, node.col_offset) in at)
    return found, calls


def test_only_two_plain_inverses():
    """invert_operator is the one checked inverse and the record's s_inv the one
    inverse of S: the E-frame canonical dual is the record's at U = id."""
    found, calls = inverse_sites()
    assert found == {("hilbert", "invert_operator"), ("controlled", "ControlledEFrame.s_inv")}
    assert calls == 2


def test_only_neumann_compares_the_contraction_ratio():
    """The series' divergence test is neumann's; cli catches its ConvergenceError."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        found |= sites(path.stem, source,
                       lambda node: isinstance(node, ast.Compare) and reads(node, "ratio"))
    assert {module for module, _ in found} == {"neumann"}


def unreachable_handlers(tree) -> list[str]:
    """Each class that an except clause lists beside one of its bases, or after
    a handler of the same try that catches one of its bases."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        earlier = []
        for handler in node.handlers:
            names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            classes = [vars(cli).get(n.id) or getattr(builtins, n.id) for n in names]
            for cls in classes:
                bases = earlier + [other for other in classes if other is not cls]
                found += [f"{cls.__name__} under {base.__name__}"
                          for base in bases if issubclass(cls, base)]
            earlier += classes
    return found


def test_main_catches_each_error_once():
    """A handler that lists ConfigError beside ValueError, of which it is a
    subclass, states the input-error rule twice."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    assert unreachable_handlers(main) == []


def test_each_command_is_declared_once():
    """Each command's parser names the function that runs it, as its run default,
    and main calls that: nothing in cli compares the command's name."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    compares = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Compare) and reads(node, "command")]
    assert compares == []
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"analyze", "dual", "verify", "neumann", "paper-example"}
    assert all(callable(p.get_default("run")) for p in sub.choices.values())


#: the module-level functions of controlled that still take a setting: cli passes
#: its config through these two, and a generator's seed picks the member it draws
SETTINGS_KEPT = {
    "controlled_bounds": {"tol", "trials", "seed"},
    "verify_dual": {"tol", "trials", "seed"},
    "random_null_map": {"seed"},
    "random_right_inverse": {"seed"},
}

#: every setting of a prepared object: the record's three and the Neumann pair's two
SETTINGS = {"tol", "trials", "seed", "eps", "max_terms"}


def test_settings_live_on_the_record():
    """A tol, trials or seed set on a one-shot function would be a second path to
    what ControlledEFrame(e, psi, u, tol, trials, seed) sets; the functions in
    SETTINGS_KEPT pass theirs to that constructor."""
    found = {}
    for name, fn in vars(controlled).items():
        if inspect.isfunction(fn) and fn.__module__ == controlled.__name__:
            settings = SETTINGS & set(inspect.signature(fn).parameters)
            if settings:
                found[name] = settings
    assert found == SETTINGS_KEPT


def test_methods_of_the_prepared_objects_take_data_only():
    """ControlledEFrame and ApproximateDual take their settings at construction
    and check them once there, so no method takes a tol, trials, seed, eps or
    max_terms: a method's own would be a second value of a setting on one object.
    certify alone keeps a tol, which cli's neumann derives from --eps and the ratio."""
    found = {}
    for cls in (controlled.ControlledEFrame, neumann.ApproximateDual):
        for name, fn in vars(cls).items():
            fn = getattr(fn, "func", fn)  # a cached_property's function
            if inspect.isfunction(fn) and name != "__init__":
                settings = SETTINGS & set(inspect.signature(fn).parameters)
                if settings:
                    found[f"{cls.__name__}.{name}"] = settings
    assert found == {"ControlledEFrame.certify": {"tol"}}
    for cls, fields in ((controlled.ControlledEFrame, ["tol", "trials", "seed"]),
                        (neumann.ApproximateDual, ["eps", "max_terms"])):
        init = inspect.signature(cls.__init__).parameters
        assert [name for name in init if name in SETTINGS] == fields
