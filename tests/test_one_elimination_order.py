"""Elimination orders are computed in one place: graph_core.min_fill_order.
Skein ranks its nodes with it, and an order built inside penrose or
state_calculus (a heap, or a function that orders or ranks by fill or
degree) fails here, so a later elimination engine reuses the same order."""

from __future__ import annotations

import ast
from pathlib import Path

import chromatic_bracket as cb

MODULES = ("penrose", "state_calculus")
RANKING_WORDS = ("order", "rank", "fill", "elimin", "degree")


def parse(module: str) -> ast.Module:
    path = Path(cb.__file__).parent / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_no_module_keeps_its_own_heap():
    found = []
    for module in MODULES:
        for node in ast.walk(parse(module)):
            if isinstance(node, ast.Import):
                found += [f"{module}: import {a.name}" for a in node.names if a.name == "heapq"]
            elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
                found.append(f"{module}: from heapq")
    assert not found, f"heaps outside graph_core: {found}"


def test_no_module_defines_its_own_ranking():
    found = [f"{module}.{f.name}" for module in MODULES for f in ast.walk(parse(module))
             if isinstance(f, ast.FunctionDef)
             and any(word in f.name.lower() for word in RANKING_WORDS)]
    assert not found, f"node rankings outside graph_core.min_fill_order: {found}"


def test_skein_ranks_its_nodes_with_min_fill_order():
    tree = parse("penrose")
    imports = {(node.module, a.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names}
    assert ("graph_core", "min_fill_order") in imports
    skein = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "skein_evaluate")
    assert any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "min_fill_order"
               for c in ast.walk(skein))
