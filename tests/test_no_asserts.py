"""Package invariants are raised errors, never asserts: python -O strips asserts."""

from __future__ import annotations

import ast
from pathlib import Path

import chromatic_bracket as cb


def test_package_source_has_no_assert_statements():
    found = []
    for path in sorted(Path(cb.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
