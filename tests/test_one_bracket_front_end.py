"""The bracket has one front end: penrose._couplings traces the strands,
merges the crossing factors and weighs the free loops, and both contraction
and skein start from it. A second front end in penrose fails here."""

from __future__ import annotations

import ast
from pathlib import Path

import chromatic_bracket as cb

PENROSE = Path(cb.__file__).parent / "penrose.py"


def top_level_functions() -> dict[str, ast.FunctionDef]:
    tree = ast.parse(PENROSE.read_text(encoding="utf-8"), str(PENROSE))
    return {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}


def called_names(fn: ast.AST) -> set[str]:
    out = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            out.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
    return out


def free_loop_weighings(fn: ast.AST) -> list[int]:
    """Lines reading free_loops other than to hand it on to build_diagram or
    the Diagram constructor."""
    passed = {id(arg) for node in ast.walk(fn)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("build_diagram", "Diagram")
              for arg in [*node.args, *(k.value for k in node.keywords)]}
    return [node.lineno for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr == "free_loops"
            and id(node) not in passed]


def test_only_the_front_end_and_weight_tables_trace_strands():
    found = sorted(name for name, fn in top_level_functions().items()
                   if "trace_strands" in called_names(fn))
    assert found == ["_couplings", "weight_tables"]


def test_only_the_front_end_weighs_free_loops():
    found = {name: lines for name, fn in top_level_functions().items()
             if (lines := free_loop_weighings(fn))}
    assert list(found) == ["_couplings"], found


def test_contraction_and_skein_start_from_the_front_end():
    fns = top_level_functions()
    for name in ("_contract", "skein_evaluate"):
        assert "_couplings" in called_names(fns[name]), name
