"""A diagram is built and checked in one place, the Diagram constructor, as a
graph is in the CubicGraph constructor. A private builder beside it, or a
dataclasses.replace that copies a diagram past the check, fails here."""

from __future__ import annotations

import ast
from pathlib import Path

import chromatic_bracket as cb

PACKAGE = Path(cb.__file__).parent


def second_paths() -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "_diagram":
                found.append(f"{path.name}:{node.lineno} defines _diagram")
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses" \
                    and any(alias.name == "replace" for alias in node.names):
                found.append(f"{path.name}:{node.lineno} imports dataclasses.replace")
            elif isinstance(node, ast.Attribute) and node.attr == "replace" \
                    and getattr(node.value, "id", None) == "dataclasses":
                found.append(f"{path.name}:{node.lineno} calls dataclasses.replace")
    return found


def test_no_module_builds_a_diagram_past_the_constructor():
    assert second_paths() == []
