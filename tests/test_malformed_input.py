"""Malformed input: the JSON readers and the builders give a graph or a diagram
or raise a ChromaticBracketError, and nothing else. The builders are the one
place a value is checked, so a reader and the builder it hands its values to
accept the same values: the reader's refusal is the builder's, as a ParseError."""

from __future__ import annotations

import copy

from hypothesis import example, given, settings, strategies as st

import chromatic_bracket as cb
from chromatic_bracket import generators as gen
from chromatic_bracket.errors import ChromaticBracketError, InvalidArgument, ParseError, UnmatchedPort

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

GRAPHS = [gen.theta(), gen.dumbbell(), gen.k4(), gen.k33(), gen.petersen()]
DIAGRAMS = [
    gen.theta_diagram(),
    gen.k33_diagram(),
    cb.encircle_arc(gen.theta_diagram(), 0),
    cb.Diagram(2, (), gen.theta_diagram().code_arcs, free_loops=2),
    cb.chord_immersion(gen.k4()),
]
GRAPH_JSON = [cb.graph_to_json_dict(g) for g in GRAPHS]
DIAGRAM_JSON = [cb.diagram_to_json_dict(d) for d in DIAGRAMS]
# build_graph's and build_diagram's arguments as JSON values
GRAPH_ARGS = [[g["nodes"], g["edges"]] for g in GRAPH_JSON]
DIAGRAM_ARGS = [[len(d["nodes"]), [c["kind"] for c in d["crossings"]], d["arcs"], d.get("free_loops", 0)]
                for d in DIAGRAM_JSON]
THETA_ARGS = DIAGRAM_ARGS[0]


def spots(value: object, path: tuple = ()) -> list[tuple]:
    """The path of every value nested in value, value itself first."""
    found = [path]
    if isinstance(value, (list, dict)):
        for key, inner in (value.items() if isinstance(value, dict) else enumerate(value)):
            found += spots(inner, path + (key,))
    return found


def replacements(old: object) -> st.SearchStrategy:
    """What a mutation puts in place of old: a scalar or any JSON value, and
    for an int its neighbours and look-alikes, for a list a cut or a longer
    copy, for an object the object less one key."""
    options = [SCALARS, JSON]
    if type(old) is int:
        options.append(st.sampled_from([True, False, float(old), old + 0.5, str(old), None,
                                        old - 1, old + 1, -1 - old, 10**12]))
    if isinstance(old, list):
        options.append(st.integers(0, len(old)).map(lambda k: old[:k]))
        options.append(JSON.map(lambda extra: old + [extra]))
        if old:
            options.append(st.sampled_from(old).map(lambda twin: old + [twin]))
    if isinstance(old, dict) and old:
        options.append(st.sampled_from(sorted(old)).map(lambda k: {a: b for a, b in old.items() if a != k}))
    return st.one_of(options)


@st.composite
def mutated(draw, bases: list) -> object:
    """A copy of one of bases with one to three of its values replaced."""
    data = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(spots(data)))
        if not path:
            data = draw(replacements(data))
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(replacements(parent[path[-1]]))
    return data


def outcome(call):
    """What call returns, or the package error it raises; any other error propagates."""
    try:
        return call()
    except ChromaticBracketError as exc:
        return exc


def as_tuples(value: object) -> object:
    """value with every list, at any depth, made a tuple."""
    return tuple(as_tuples(v) for v in value) if isinstance(value, list) else value


def reading(result: object, by_reader: bool = False) -> object:
    """An outcome up to what a caller can tell apart: an object itself, an
    error by its type; by_reader, the builders' bad-value errors are read as
    the ParseError a reader turns them into."""
    if by_reader and isinstance(result, (InvalidArgument, UnmatchedPort)):
        return ParseError
    return type(result) if isinstance(result, ChromaticBracketError) else result


@settings(max_examples=300, deadline=None)
@given(JSON | st.fixed_dictionaries({"nodes": JSON, "edges": JSON}) | mutated(GRAPH_JSON))
def test_graph_reader_gives_a_graph_or_the_package_error(data):
    assert isinstance(outcome(lambda: cb.graph_from_json_dict(data)), (cb.CubicGraph, ChromaticBracketError))


@settings(max_examples=300, deadline=None)
@given(JSON | st.fixed_dictionaries({"nodes": JSON, "crossings": JSON, "arcs": JSON, "free_loops": JSON})
       | mutated(DIAGRAM_JSON))
def test_diagram_reader_gives_a_diagram_or_the_package_error(data):
    assert isinstance(outcome(lambda: cb.diagram_from_json_dict(data)), (cb.Diagram, ChromaticBracketError))


@settings(max_examples=300, deadline=None)
@given(st.tuples(JSON, JSON).map(list) | mutated(GRAPH_ARGS))
@example([2, [[0, 1], [0, 1], [0.0, True]]])  # read as a theta if coerced with int()
@example([2, [[0, 1], [0, 1], [0, 1, 2]]])
@example([2, [[0, 1], [0, 1], 5]])
@example([2.0, [[0, 1], [0, 1], [0, 1]]])
def test_build_graph_gives_a_graph_or_the_package_error(args):
    if not (isinstance(args, list) and len(args) == 2):
        args = [args, args]
    direct = outcome(lambda: cb.build_graph(*args))
    assert isinstance(direct, (cb.CubicGraph, ChromaticBracketError))
    if isinstance(direct, cb.CubicGraph):
        assert all(type(u) is int and type(v) is int for u, v in direct.edges)
    assert reading(outcome(lambda: cb.build_graph(*as_tuples(args)))) == reading(direct)
    if isinstance(args[1], list):
        via_json = outcome(lambda: cb.graph_from_json_dict({"nodes": args[0], "edges": args[1]}))
        assert reading(via_json, by_reader=True) == reading(direct, by_reader=True)


@settings(max_examples=300, deadline=None)
@given(st.tuples(JSON, JSON, JSON, JSON).map(list) | mutated(DIAGRAM_ARGS))
@example(THETA_ARGS[:3] + [1.5])  # contract_extended read 1.5 free loops as 3**1.5
@example(THETA_ARGS[:2] + [[THETA_ARGS[2][0][:1]] + THETA_ARGS[2][1:], 0])
@example(THETA_ARGS[:2] + [[5] + THETA_ARGS[2][1:], 0])
@example([2.0] + THETA_ARGS[1:])
@example(["2"] + THETA_ARGS[1:])
def test_build_diagram_gives_a_diagram_or_the_package_error(args):
    if not (isinstance(args, list) and len(args) == 4):
        args = [args] * 4
    direct = outcome(lambda: cb.build_diagram(*args))
    assert isinstance(direct, (cb.Diagram, ChromaticBracketError))
    if isinstance(direct, cb.Diagram):
        assert type(direct.node_count) is int and type(direct.free_loops) is int
        assert all(type(k) is str for k in direct.crossing_kinds)
    assert reading(outcome(lambda: cb.build_diagram(*as_tuples(args)))) == reading(direct)
    node_count, kinds, arcs, free_loops = args
    # the JSON's node list is a real allocation, so only small counts get one
    if type(node_count) is int and 0 <= node_count <= 64 and isinstance(kinds, list) and isinstance(arcs, list):
        data = {"nodes": [{"id": n} for n in range(node_count)],
                "crossings": [{"id": x, "kind": k} for x, k in enumerate(kinds)],
                "arcs": arcs, "free_loops": free_loops}
        via_json = outcome(lambda: cb.diagram_from_json_dict(data))
        assert reading(via_json, by_reader=True) == reading(direct, by_reader=True)
