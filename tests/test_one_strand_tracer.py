"""Strands are walked in one place: only diagram.py calls trace_strand, so a
second strand walker elsewhere in the package fails here."""

from __future__ import annotations

import ast
from pathlib import Path

import chromatic_bracket as cb


def test_only_diagram_calls_trace_strand():
    found = []
    for path in sorted(Path(cb.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name == "trace_strand" and path.name != "diagram.py":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"strands walked outside diagram.py: {found}"
