"""The counting methods stay independent: a bug in brute force must not leak
into the contraction, matching or state counts, the matching and state
methods must not lean on the bracket, and brute force uses no other method."""

from __future__ import annotations

import ast
from pathlib import Path

import chromatic_bracket as cb

BRUTE_FORCE = {"count_colorings", "enumerate_colorings", "iter_colorings"}
FORBIDDEN = {
    "penrose": BRUTE_FORCE,
    "matching": BRUTE_FORCE | {"penrose"},
    "state_calculus": BRUTE_FORCE | {"penrose"},
    "coloring": {"penrose", "matching", "state_calculus", "formation", "diagram"},
}


def imported_names(module: str) -> set[str]:
    """Every module path segment and every name the module imports."""
    path = Path(cb.__file__).parent / f"{module}.py"
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_methods_do_not_import_each_other():
    found = {m: sorted(imported_names(m) & bad) for m, bad in FORBIDDEN.items()}
    assert not any(found.values()), f"cross-method imports: {found}"
