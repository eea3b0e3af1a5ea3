"""Backtracking order is computed in one place: graph_core.tightest_first.
Brute force takes its edges and the strand sum its strands in that order, a
`*tightest*` function defined anywhere else fails here, and on plane
diagrams large enough for the order to matter the two contractions still
equal the brute-force count."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import chromatic_bracket as cb
from chromatic_bracket import generators as gen

PACKAGE = Path(cb.__file__).parent


def parse(module: str) -> ast.Module:
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


@pytest.mark.parametrize("module, function",
                         [("coloring", "count_colorings"), ("penrose", "_strand_sum")])
def test_search_calls_tightest_first(module, function):
    tree = parse(module)
    imports = {(node.module, a.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names}
    assert ("graph_core", "tightest_first") in imports
    fn = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == function)
    assert any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "tightest_first"
               for c in ast.walk(fn))


def test_no_module_but_graph_core_defines_a_search_order():
    found = [f"{path.stem}.{f.name}" for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "graph_core" for f in ast.walk(parse(path.stem))
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and "tightest" in f.name.lower()]
    assert not found, f"search orders outside graph_core.tightest_first: {found}"


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", range(32, 41, 2))
def test_contractions_equal_brute_force_on_larger_plane_diagrams(n, seed):
    d = gen.random_plane_cubic(n, seed)
    count = cb.count_colorings(cb.underlying_graph(d))
    assert cb.contract_plain(d) == cb.contract_extended(d) == count
