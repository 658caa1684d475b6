"""The package's module layering: imports sit at module level, form no cycle and need only the standard library."""

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


def test_module_imports_are_acyclic():
    graph = {}
    for name, tree in MODULES.items():
        graph[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[name].update([node.module] if node.module else [alias.name for alias in node.names])
    assert set().union(*graph.values()) <= set(MODULES)
    tuple(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


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
