"""The package's module layering: imports sit at module level, form the pinned layer stack with no cycle, and
need only the standard library."""

import ast
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import fpforge

PACKAGE = Path(fpforge.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_import_inside_a_function():
    found = [
        f"{name}.py:{node.lineno} in {func.name}"
        for name, tree in MODULES.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not found


GRAPH = {
    name: {
        module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for module in ([node.module] if node.module else [alias.name for alias in node.names])
    }
    for name, tree in MODULES.items()
}
LIBRARY = {"complex_core", "covers", "groups", "homology", "sigma", "spectrum", "spherical_double"}


def test_module_imports_are_acyclic():
    assert set().union(*GRAPH.values()) <= set(MODULES)
    tuple(TopologicalSorter(GRAPH).static_order())  # raises CycleError on a cycle


def test_module_imports_are_the_layer_stack():
    """Each module imports exactly the layers below it that it uses; a new edge is a deliberate edit here."""
    assert GRAPH == {
        "complex_core": set(),
        "homology": {"complex_core"},
        "spherical_double": {"complex_core"},
        "groups": {"complex_core", "homology"},
        "covers": {"complex_core", "spherical_double"},
        "spectrum": {"complex_core", "groups", "homology"},
        "sigma": {"complex_core", "covers", "groups", "homology"},
        "cli": LIBRARY,
        "__init__": LIBRARY,
    }


def test_imports_are_standard_library():
    """No numpy and no new dependency: every absolute import is a standard-library module."""
    found = {
        name.split(".")[0]
        for tree in MODULES.values()
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
    }
    assert found and found <= sys.stdlib_module_names
