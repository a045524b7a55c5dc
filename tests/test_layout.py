"""Source layout rules for the spdmeans package, checked on its syntax tree."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdmeans"


def package_imports(tree):
    """``from <package module> import ...`` statements of one module."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "spdmeans")
    ]


def is_private_attribute(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(path):
    """Another package module's private names used in one file.

    Both ``from <package module> import _name`` and ``Name._attr`` (not a
    dunder) where ``Name`` was imported from another package module count.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = package_imports(tree)
    imported = {alias.asname or alias.name for node in imports for alias in node.names}
    return [
        f"{path.name}:{node.lineno} imports {alias.name}"
        for node in imports
        for alias in node.names
        if alias.name.startswith("_")
    ] + [
        f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in imported
        and is_private_attribute(node.attr)
    ]


FACTORIZATIONS = {"eigh", "eigvalsh", "cholesky", "inv"}


def linalg_factorizations(path):
    """Calls of ``<...>.linalg.<factorization>`` and imports from a linalg module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} calls linalg.{node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in FACTORIZATIONS
        and (getattr(node.func.value, "attr", None) == "linalg"
             or getattr(node.func.value, "id", None) == "linalg")
    ] + [
        f"{path.name}:{node.lineno} imports from {node.module}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")
    ]


def test_factorizations_are_called_only_in_the_kernel():
    modules = sorted(PACKAGE.glob("*.py"))
    kernel = PACKAGE / "kernel.py"
    assert kernel in modules
    # the rule sees the kernel's own calls, so it would see them elsewhere
    assert {hit.split()[-1] for hit in linalg_factorizations(kernel)} == {
        f"linalg.{name}" for name in FACTORIZATIONS}
    found = [hit for path in modules if path != kernel
             for hit in linalg_factorizations(path)]
    assert not found, found


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 5
    found = [hit for path in modules for hit in private_uses(path)]
    assert not found, found


def test_every_exported_name_is_bound_and_listed_once():
    modules = [
        importlib.import_module("spdmeans" if path.stem == "__init__" else f"spdmeans.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
    ]
    exported = [m for m in modules if hasattr(m, "__all__")]
    assert len(exported) >= 5
    for module in exported:
        names = module.__all__
        repeated = sorted({n for n in names if names.count(n) > 1})
        assert not repeated, f"{module.__name__}.__all__ repeats {repeated}"
        unbound = [n for n in names if not hasattr(module, n)]
        assert not unbound, f"{module.__name__}.__all__ lists unbound {unbound}"


def new_calls(path):
    """Calls of ``<...>.__new__``, the way around a class's checked constructor.

    Each hit names the qualified function or method that makes the call.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__new__"):
                where = scope or "<module>"
                hits.append(f"{path.name}:{child.lineno} calls __new__ in {where}")
            visit(child, scope)

    visit(tree, "")
    return hits


def test_trusted_construction_stays_in_the_kernel():
    modules = sorted(PACKAGE.glob("*.py"))
    kernel = PACKAGE / "kernel.py"
    # the rule sees the kernel's own trusted constructors, one per class
    assert new_calls(kernel)
    assert {hit.split(" in ")[-1] for hit in new_calls(kernel)} == {
        "SymMatrix._wrap", "certify"}
    found = [hit for path in modules if path != kernel for hit in new_calls(path)]
    assert not found, found
