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


# The one attribute of a linalg module allowed outside the kernel, and the
# kernel's own factorizations, which the rule must see to be seen working.
LINALG_ALLOWED = {"norm"}
KERNEL_FACTORIZATIONS = {"eigh", "eigvalsh", "cholesky", "inv", "qr"}


def is_linalg(node):
    return (isinstance(node, ast.Attribute) and node.attr == "linalg") or (
        isinstance(node, ast.Name) and node.id == "linalg")


def linalg_uses(source, filename="<source>"):
    """Uses of a linalg module other than ``<...>.linalg.norm``.

    A hit is ``<...>.linalg.<name>`` for any other name (``LinAlgError``
    included), a ``linalg`` reference that is not the base of an attribute
    (an alias, say), or an import of or from a linalg module.
    """
    hits = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        for child in ast.iter_child_nodes(node):
            if not is_linalg(child):
                continue
            if isinstance(node, ast.Attribute):
                if node.attr not in LINALG_ALLOWED:
                    hits.append(f"{filename}:{node.lineno} uses linalg.{node.attr}")
            else:
                hits.append(f"{filename}:{child.lineno} refers to linalg")
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "linalg" in name for name in
                [getattr(node, "module", None) or ""] + [a.name for a in node.names]):
            hits.append(f"{filename}:{node.lineno} imports linalg")
    return hits


def test_factorizations_are_called_only_in_the_kernel():
    # Outside the kernel the package may use numpy.linalg for norm only.
    planted = ("import numpy.linalg as la\n"
               "from numpy import linalg\n"
               "from numpy.linalg import det\n"
               "def f(x):\n"
               "    m = np.linalg\n"
               "    try:\n"
               "        return np.linalg.qr(x), np.linalg.norm(x), linalg.svd(x)\n"
               "    except np.linalg.LinAlgError:\n"
               "        return None\n")
    assert sorted(linalg_uses(planted)) == [
        "<source>:1 imports linalg", "<source>:2 imports linalg",
        "<source>:3 imports linalg", "<source>:5 refers to linalg",
        "<source>:7 uses linalg.qr", "<source>:7 uses linalg.svd",
        "<source>:8 uses linalg.LinAlgError"]
    modules = sorted(PACKAGE.glob("*.py"))
    kernel = PACKAGE / "kernel.py"
    assert kernel in modules
    found = [hit for path in modules if path != kernel
             for hit in linalg_uses(path.read_text(), path.name)]
    assert not found, found
    # the rule sees the kernel's own calls, so it would see them elsewhere
    assert {hit.split()[-1] for hit in linalg_uses(kernel.read_text())} >= {
        f"linalg.{name}" for name in KERNEL_FACTORIZATIONS}


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


def scoped_nodes(tree):
    """Each node of a syntax tree with the qualified name of the enclosing
    function or class (``<module>`` at top level)."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            yield child, scope or "<module>"
            yield from visit(child, scope)

    return visit(tree, "")


def new_calls(path):
    """Calls of ``<...>.__new__``, the way around a class's checked constructor.

    Each hit names the qualified function or method that makes the call.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} calls __new__ in {scope}"
        for node, scope in scoped_nodes(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
    ]


def test_trusted_construction_stays_in_the_kernel():
    modules = sorted(PACKAGE.glob("*.py"))
    kernel = PACKAGE / "kernel.py"
    # the rule sees the kernel's one trusted builder, of tuples and items
    assert new_calls(kernel)
    assert {hit.split(" in ")[-1] for hit in new_calls(kernel)} == {"_held"}
    found = [hit for path in modules if path != kernel for hit in new_calls(path)]
    assert not found, found


def calls_of(node, name):
    """Whether ``node`` calls ``name`` or ``<...>.name``."""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def certify_rewraps(source, filename="<source>"):
    """``SpdTuple(...)`` calls on a ``certify(...)`` result: the call itself,
    or a name bound to one in the same scope."""
    nodes = list(scoped_nodes(ast.parse(source, filename=filename)))
    bound = {
        (scope, target.id)
        for node, scope in nodes
        if isinstance(node, ast.Assign) and calls_of(node.value, "certify")
        for target in node.targets if isinstance(target, ast.Name)
    }
    return [
        f"{filename}:{node.lineno} wraps a certify result in {scope}"
        for node, scope in nodes
        if calls_of(node, "SpdTuple")
        and any(calls_of(arg, "certify")
                or (isinstance(arg, ast.Name) and (scope, arg.id) in bound)
                for arg in node.args)
    ]


def test_certified_tuples_are_not_wrapped_again():
    # certify returns the tuple; wrapping it again re-checks and restacks it
    planted = ("def f(s):\n"
               "    a = SpdTuple(certify(s))\n"
               "    t = kernel.certify(s)\n"
               "    return SpdTuple(t), SpdTuple(list(s))\n")
    assert len(certify_rewraps(planted)) == 2
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in certify_rewraps(path.read_text(), path.name)]
    assert not found, found


SEEDING = {"SeedSequence", "Philox", "default_rng"}


def seeding_uses(path):
    """Names, attributes and imports of NumPy's seeding constructors, by scope."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node, scope in scoped_nodes(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in SEEDING:
            hits.append(f"{path.name}:{node.lineno} uses {name} in {scope}")
    return hits


def test_random_streams_are_seeded_only_in_harness_stream():
    # Every draw goes through the one stream layout; a second seeding site
    # could re-seed the acceptance tuples by accident.
    modules = sorted(PACKAGE.glob("*.py"))
    harness = PACKAGE / "harness.py"
    assert harness in modules
    # the rule sees the stream constructor's own seeding
    assert {hit.split()[2] for hit in seeding_uses(harness)
            if hit.endswith(" in _stream")} == {"SeedSequence", "Philox"}
    found = [hit for path in modules for hit in seeding_uses(path)
             if not (path == harness and hit.endswith(" in _stream"))]
    assert not found, found


def harness_plumbing(source, filename="<source>"):
    """Scopes that call ``_sweep`` and scopes that write ``_REGISTRY``.

    A write is an item store, any attribute of the dict (``update`` and
    the other methods), or a binding of the name to anything but an empty
    dict.
    """
    sweeps, writes = [], []
    for node, scope in scoped_nodes(ast.parse(source, filename=filename)):
        if calls_of(node, "_sweep"):
            sweeps.append(scope)
        if (isinstance(node, (ast.Subscript, ast.Attribute))
                and getattr(node.value, "id", None) == "_REGISTRY"
                and (isinstance(node, ast.Attribute)
                     or isinstance(node.ctx, ast.Store))):
            writes.append(scope)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if (any(getattr(t, "id", None) == "_REGISTRY" for t in targets)
                    and not (isinstance(node.value, ast.Dict) and not node.value.keys)):
                writes.append(scope)
    return sweeps, writes


def test_each_check_is_swept_and_registered_in_one_place():
    # A check's head gate (kind or map arity), sweep and suite entry are
    # written once, by the registering decorator, for every check.
    planted = ("_REGISTRY: dict = {'a': 1}\n"
               "def f():\n"
               "    _REGISTRY['b'] = 2\n"
               "    _REGISTRY.update(c=3)\n"
               "    return _sweep('f', None, 1, 0.0, _REGISTRY['a'])\n")
    assert harness_plumbing(planted) == (["f"], ["<module>", "f", "f"])
    harness = PACKAGE / "harness.py"
    sweeps, writes = harness_plumbing(harness.read_text(), harness.name)
    assert {scope.split(".")[0] for scope in sweeps} == {"_check"}, sweeps
    assert {scope.split(".")[0] for scope in writes} == {"_check"}, writes
