"""The runtime needs the standard library only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "rebac").glob("*.py"))


def imported_modules(path: Path):
    """Each module ``path`` imports, by absolute name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # the package is flat: a relative import names a rebac module
            yield f"rebac.{node.module or ''}".rstrip(".") if node.level else node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_package_imports_only_the_standard_library(path):
    top_level = {name.partition(".")[0] for name in imported_modules(path)}
    assert top_level - {"rebac"} <= sys.stdlib_module_names


def test_the_fixtures_are_built_through_the_workspace_loader():
    (path,) = [path for path in SOURCES if path.name == "fixtures.py"]
    assert {name for name in imported_modules(path) if name.startswith("rebac")} == {"rebac.workspace"}
