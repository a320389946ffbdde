"""Every name a module imports is used in that module, and no module reads
the environment."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(
    path
    for path in (Path(__file__).parent.parent / "src" / "pgaplab").glob("*.py")
    if path.name != "__init__.py"
)


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _referenced(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(_imported(tree)) - _referenced(tree))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _environment_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in ("environ", "getenv", "environb"):
                yield f"line {node.lineno}: os.{node.attr}"
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv", "environb"):
                    yield f"line {node.lineno}: from os import {alias.name}"


@pytest.mark.parametrize("path", sorted(MODULES[0].parent.glob("*.py")), ids=lambda path: path.name)
def test_no_environment_reads(path):
    reads = list(_environment_reads(ast.parse(path.read_text())))
    assert not reads, f"{path.name} reads the environment: {reads}"
