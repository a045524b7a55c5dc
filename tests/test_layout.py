"""Source layout rules for the spdmeans package, checked on its syntax tree."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdmeans"


def private_imports(path):
    """``from <package module> import _name`` statements in one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} imports {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "spdmeans")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 5
    found = [hit for path in modules for hit in private_imports(path)]
    assert not found, found
