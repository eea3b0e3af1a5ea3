"""Strands are walked in one place, diagram.trace_strands: a function named
trace_strand, or a pass-through (slot + 2) % 4 outside trace_strands, in any
module of the package fails here."""

from __future__ import annotations

import ast
from pathlib import Path

import chromatic_bracket as cb


def passes_through(node: ast.AST) -> bool:
    """(... + 2) % 4: the step from a crossing slot to the opposite one."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            and isinstance(node.right, ast.Constant) and node.right.value == 4
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
            and isinstance(node.left.right, ast.Constant) and node.left.right.value == 2)


def test_only_trace_strands_walks_strands():
    defined, walkers = [], []
    for path in sorted(Path(cb.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.FunctionDef) and node.name == "trace_strand":
                    defined.append(f"{path.name}:{node.lineno}")
                if passes_through(node):
                    walkers.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert not defined, f"trace_strand defined again: {defined}"
    assert walkers == ["diagram.trace_strands"], f"strands walked in: {walkers}"
