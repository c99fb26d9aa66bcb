"""Guarantees in the package are explicit checks, never ``assert``
statements, so they still run under ``python -O``."""

import ast
import pathlib

import tracezero

PACKAGE = pathlib.Path(tracezero.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
