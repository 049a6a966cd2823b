"""The package's module layering, as README states it: each module imports
only from the modules above it in the order model, waterfill, analysis,
dynamics, cli, and ``riwfa.oracle`` from model, waterfill and dynamics."""
import ast
from pathlib import Path

import riwfa

ORDER = ("model", "waterfill", "analysis", "dynamics", "cli")
ALLOWED = {name: set(ORDER[:i]) for i, name in enumerate(ORDER)}
ALLOWED["oracle"] = {"model", "waterfill", "dynamics"}
ALLOWED["__main__"] = {"cli"}
ALLOWED["__init__"] = set(ORDER) | {"oracle"}  # the package re-exports every layer


def relative_imports(path: Path) -> set[str]:
    """The sibling modules ``path`` imports with ``from .x import ...`` or
    ``from . import x``, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= ({node.module.split(".")[0]} if node.module
                      else {alias.name for alias in node.names})
    return found


def test_modules_import_only_the_layers_above_them():
    sources = sorted(Path(riwfa.__file__).parent.glob("*.py"))
    assert {path.stem for path in sources} == set(ALLOWED)  # a new module needs a place
    for path in sources:
        assert relative_imports(path) <= ALLOWED[path.stem], path.name
