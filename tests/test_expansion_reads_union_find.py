"""The state expansion keeps one loop structure, its path ends and node
masks: sites are read from the incidence, each link joins or closes paths,
and a leaf's loops are the node masks of the closed paths. Orienting sites
along complement cycles and tracing loops serve the State constructor only;
a call to either from logical_expansion_count, directly or through a helper
of state_calculus, fails here. Every name in TRACERS must still be defined in
the package, so a renamed tracer cannot leave the guard checking nothing."""

from __future__ import annotations

import ast
from pathlib import Path

import chromatic_bracket as cb

TRACERS = {"complement_cycles", "_complement_link", "trace_cycles"}
PACKAGE = Path(cb.__file__).parent


def called_names(fn: ast.AST) -> set[str]:
    return {sub.func.id for sub in ast.walk(fn)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}


def test_expansion_calls_no_tracer():
    path = PACKAGE / "state_calculus.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    fns = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    reached, todo = set(), ["logical_expansion_count"]
    while todo:  # the expansion and every module function it calls
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += [n for n in called_names(fns[name]) if n in fns]
    found = sorted(n for f in reached for n in called_names(fns[f]) & TRACERS)
    assert not found, f"logical_expansion_count reaches {found}"


def test_every_tracer_is_defined():
    defined = {f.name for path in PACKAGE.glob("*.py")
               for f in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if isinstance(f, ast.FunctionDef)}
    assert TRACERS <= defined, f"not defined in the package: {sorted(TRACERS - defined)}"
