"""Half-edge cycles are walked in one place: matching.trace_cycles. Complement
cycles and state loops both call it, and a second walk (a while loop that
steps to the other half of an edge) in matching, state_calculus or formation
fails here."""

from __future__ import annotations

import ast
from pathlib import Path

import chromatic_bracket as cb

MODULES = ("matching", "state_calculus", "formation")


def parse(module: str) -> ast.Module:
    path = Path(cb.__file__).parent / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def steps_to_other_half(node: ast.AST) -> bool:
    """h ^ 1, h ^= 1 or other_end(h) somewhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.BitXor):
            operand = sub.right if isinstance(sub, ast.BinOp) else sub.value
            if isinstance(operand, ast.Constant) and operand.value == 1:
                return True
        if isinstance(sub, ast.Call):
            fn = sub.func
            if (fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)) == "other_end":
                return True
    return False


def calls(node: ast.AST, name: str) -> bool:
    return any(isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == name
               for sub in ast.walk(node))


def test_only_trace_cycles_walks_half_edge_cycles():
    walks = [f"{module}.{getattr(top, 'name', '<module>')}"
             for module in MODULES for top in parse(module).body
             for loop in ast.walk(top) if isinstance(loop, ast.While) and steps_to_other_half(loop)]
    assert walks == ["matching.trace_cycles"], f"half-edge walks: {walks}"


def test_complement_cycles_and_state_loops_call_the_tracer():
    fns = {f.name: f for f in ast.walk(parse("matching")) if isinstance(f, ast.FunctionDef)}
    assert calls(fns["complement_cycles"], "trace_cycles")
    assert calls(parse("state_calculus"), "trace_cycles")


def test_trace_cycles_walks_from_the_lowest_edge():
    from chromatic_bracket.matching import trace_cycles

    # edges 0 and 2 form one cycle, edge 1 is a loop, edge 3 is on none
    link = [5, 4, 3, 2, 1, 0, -1, -1]
    walks, cycle_of = trace_cycles(link)
    assert walks == [[0, 4], [2]]
    assert cycle_of == [0, 0, 1, 1, 0, 0, -1, -1]
