"""The package's own shape: where its names live and what its modules import.

Every public name has one address, in its module; `import eframes` loads
the six modules that hold them. Each library and test module uses every
name it imports (no linter is assumed, so the check reads the source with
ast).
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import eframes

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["controlled", "eframe", "gallery", "hilbert", "mapping", "neumann"]
SOURCES = sorted(
    [p for p in (ROOT / "src" / "eframes").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


@pytest.mark.parametrize("name", MODULES)
def test_import_loads_each_module_as_an_attribute(name):
    assert getattr(eframes, name) is importlib.import_module(f"eframes.{name}")


def test_version_is_set():
    assert re.fullmatch(r"\d+\.\d+\.\d+", eframes.__version__)


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
