"""No command and no search leaves a reference cycle behind: everything a run
allocates is freed by reference counting, so the cyclic garbage collector
finds nothing to collect. A nested function that calls itself by name holds
itself through its closure cell, a function <-> cell cycle that keeps its
lists alive unless it is let go on every exit; no package function defines
one, and each search is a loop over an explicit stack or a module-level
function."""

from __future__ import annotations

import ast
import gc
import json
from pathlib import Path

import pytest

import chromatic_bracket as cb
from chromatic_bracket import generators as gen
from chromatic_bracket import state_calculus
from chromatic_bracket.cli import main
from chromatic_bracket.errors import RecursionBudgetExceeded

K33 = gen.k33()
K33_DIAGRAM = cb.chord_immersion(K33)


@pytest.fixture(scope="module", autouse=True)
def warm_up():
    # the first call builds the cached parser, whose own cycles stay alive
    main(["gen", "k33", "--json-only"])


def unreachable_after(call) -> int:
    """Objects that only the cyclic collector can free after call()."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


# argparse's usage-error path (`count --bogus`) leaves a few cycles inside
# argparse itself, so it is not listed
COMMANDS = {
    "count brute": ["count", "k33"],
    "count states": ["count", "k33", "--method", "states", "--matching-index", "3"],
    "count states, index out of range": ["count", "k33", "--method", "states",
                                         "--matching-index", "99"],
    "count states, no perfect matching": ["count", "double_dumbbell", "--method", "states"],
    "count penrose plain": ["count", "theta", "--as", "diagram", "--method", "penrose", "--plain"],
    "count penrose extended": ["count", "k33", "--as", "diagram", "--method", "penrose"],
    "count penrose per coloring": ["count", "k33", "--as", "diagram", "--method", "penrose",
                                   "--per-coloring"],
    "count penrose auto-immerse": ["count", "petersen", "--method", "penrose", "--auto-immerse"],
    "count penrose-skein": ["count", "petersen", "--as", "diagram", "--method", "penrose-skein"],
    "crosscheck graph": ["crosscheck", "petersen"],
    "crosscheck plane diagram": ["crosscheck", "random_plane_cubic", "--n", "12", "--seed", "1",
                                 "--as", "diagram"],
    "matchings": ["matchings", "k33"],
    "formation": ["formation", "theta", "--as", "diagram", "--coloring-index", "2"],
    "formation, index out of range": ["formation", "k33", "--coloring-index", "999"],
    "validate graph": ["validate", "k33"],
    "validate diagram": ["validate", "random_plane_cubic", "--n", "12", "--as", "diagram"],
    "gen": ["gen", "random_plane_cubic", "--n", "12", "--format", "diagram"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_command_leaves_no_cycle(argv, capsys):
    assert unreachable_after(lambda: main(argv)) == 0
    capsys.readouterr()


def test_malformed_graph_file_leaves_no_cycle(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": 2, "edges": [[0, 1], [0, 1], [0, 1.5]]}))
    codes = []
    assert unreachable_after(lambda: codes.append(main(["count", str(path)]))) == 0
    assert codes == [1]
    assert "error:" in capsys.readouterr().err


def drop_partly_consumed_matchings() -> None:
    it = cb.iter_perfect_matchings(gen.petersen())
    next(it)
    del it  # closed here by reference counting


def refuse_mid_sweep() -> None:
    # the 2400-rung ladder matched on every other ring edge, as in
    # test_too_many_loops_fail_typed: the sweep is refused deep in its search
    k = 2400
    g = cb.build_graph(2 * k, [(i, (i + 1) % k) for i in range(k)]
                       + [(k + i, k + (i + 1) % k) for i in range(k)] + [(i, k + i) for i in range(k)])
    m = {2 * i for i in range(k // 2)} | {k + 2 * i for i in range(k // 2)}
    with pytest.raises(RecursionBudgetExceeded):
        state_calculus._expansion_counts(g, [m])


DIRECT_CALLS = {
    "count_colorings": lambda: cb.count_colorings(gen.petersen()),
    "iter_colorings": lambda: list(cb.iter_colorings(K33)),
    "iter_perfect_matchings dropped": drop_partly_consumed_matchings,
    "contract_extended": lambda: cb.contract_extended(K33_DIAGRAM),
    "skein_evaluate": lambda: cb.skein_evaluate(K33_DIAGRAM),
    "logical_expansion_count": lambda: cb.logical_expansion_count(
        K33, cb.enumerate_perfect_matchings(K33)[0]),
    "state sweep refused partway": refuse_mid_sweep,
}


@pytest.mark.parametrize("call", DIRECT_CALLS.values(), ids=DIRECT_CALLS.keys())
def test_search_leaves_no_cycle(call):
    assert unreachable_after(call) == 0


def self_calling_closures() -> list[str]:
    """module.function.nested for each function nested in a package function
    that calls itself by name."""
    found = []
    for path in sorted(Path(cb.__file__).parent.glob("*.py")):
        stack = [(path.stem, node, False) for node in ast.parse(path.read_text()).body]
        while stack:
            where, node, nested = stack.pop()
            if isinstance(node, ast.ClassDef):
                where = f"{where}.{node.name}"
            elif isinstance(node, ast.FunctionDef):
                where = f"{where}.{node.name}"
                if nested and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                                  and n.func.id == node.name for n in ast.walk(node)):
                    found.append(where)
                nested = True
            stack += [(where, child, nested) for child in ast.iter_child_nodes(node)]
    return sorted(found)


def test_no_package_function_defines_a_closure_that_calls_itself():
    assert self_calling_closures() == []
