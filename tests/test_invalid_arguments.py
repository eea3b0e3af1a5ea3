"""Bad arguments to the public functions raise the package's own error type,
which is also a ValueError for callers that catch that."""

from __future__ import annotations

import inspect
from collections import namedtuple
from collections.abc import Iterator

import pytest
from hypothesis import given, settings, strategies as st

import chromatic_bracket as cb
from chromatic_bracket import generators as gen
from chromatic_bracket import CIRCLED, DOTTED, PURPLE, RED
from chromatic_bracket.diagram import NODE
from chromatic_bracket.errors import (
    ChromaticBracketError,
    DegreeViolation,
    InvalidArgument,
    NotAMatching,
    NotCircled,
    PartialColoring,
    UnmatchedPort,
    shown,
)

K33 = gen.k33()
K33_MATCHING = cb.enumerate_perfect_matchings(K33)[0]
K33_COLORING = next(cb.iter_colorings(K33))
THETA_ARCS = [((NODE, 0, 0), (NODE, 1, 0)), ((NODE, 0, 1), (NODE, 1, 2)), ((NODE, 0, 2), (NODE, 1, 1))]  # theta's arcs
HUGE = 10**5000  # past the default int-to-str limit of 4300 digits


def theta_with_first_port(port: object):
    """Build theta with port in place of its first arc's node-0 port."""
    return cb.build_diagram(2, (), [(port, THETA_ARCS[0][1])] + THETA_ARCS[1:])

NOT_GRAPHS = (("a diagram", gen.theta_diagram()), ("None", None))

BAD_CALLS = {
    "unknown crossing kind": lambda: cb.build_diagram(0, ("wavy",), []),
    "negative node count": lambda: cb.build_diagram(-1, (), []),
    "negative free loops": lambda: cb.build_diagram(0, (), [], free_loops=-1),
    "node order not a permutation": lambda: cb.chord_immersion(K33, [0] * 6),
    "isaacs_j too small": lambda: gen.isaacs_j(2),
    "random_cubic odd n": lambda: gen.random_cubic(5, 0),
    "random_plane_cubic odd n": lambda: gen.random_plane_cubic(3, 0),
    "unknown generator": lambda: gen.named_graph("nope"),
    "generator without n": lambda: gen.named_graph("isaacs_j"),
    "edge endpoint out of range": lambda: cb.build_graph(2, [(0, 1), (0, 1), (0, 2)]),
    "unknown crossing weight kind": lambda: cb.crossing_weight("wavy", 0, 0),
    "too few switches": lambda: cb.make_state(K33, K33_MATCHING, []),
    "unknown switch": lambda: cb.make_state(K33, K33_MATCHING, ["sideways"] * 3),
    "switches None": lambda: cb.make_state(K33, K33_MATCHING, None),
    # None where a state or a formation is expected
    **{f"{f.__name__} of None": (lambda f=f: f(None))
       for f in (cb.squeeze, cb.state_has_isthmus, cb.count_state_colorings)},
    "formation None": lambda: cb.coloring_from_formation(K33, None),
    # a color is an int 0-2 by type(), as is_proper checks it
    "node_weight of None": lambda: cb.node_weight(None),
    "node_weight of a bool": lambda: cb.node_weight((True, PURPLE, RED)),
    "coloring_names of None": lambda: cb.coloring_names(None),
    "coloring_names past the colors": lambda: cb.coloring_names([5]),
    "coloring_names of a negative color": lambda: cb.coloring_names([-1]),
    **{f"matching_from_coloring of the color {c!r}": (lambda c=c: cb.matching_from_coloring(K33, K33_COLORING, c))
       for c in (True, 1.0, 2.0, 5, "R")},
    "CubicGraph of None edges": lambda: cb.CubicGraph(2, None),
    "node_weight of two colors": lambda: cb.node_weight((0, 1)),
    "node_weight of no colors": lambda: cb.node_weight(()),
    "node_weight of four colors": lambda: cb.node_weight((0, 1, 2, 0)),
    "port with two fields": lambda: theta_with_first_port((NODE, 0)),
    "port with four fields": lambda: theta_with_first_port((NODE, 0, 0, 0)),
    "port that is a number": lambda: theta_with_first_port(0),
    # the builders type every argument, so none is coerced or fails bare
    "graph node count a float": lambda: cb.build_graph(2.0, [(0, 1)] * 3),
    "graph edges not iterable": lambda: cb.build_graph(2, None),
    "edge of a float and a bool": lambda: cb.build_graph(2, [(0, 1), (0, 1), (0.0, True)]),
    "edge of three ints": lambda: cb.build_graph(2, [(0, 1), (0, 1), (0, 1, 2)]),
    "edge that is a number": lambda: cb.build_graph(2, [(0, 1), (0, 1), 5]),
    "diagram node count a float": lambda: cb.build_diagram(2.0, (), THETA_ARCS),
    "diagram node count a str": lambda: cb.build_diagram("2", (), THETA_ARCS),
    "free loops a float": lambda: cb.build_diagram(2, (), THETA_ARCS, free_loops=1.5),
    "crossing kinds not iterable": lambda: cb.build_diagram(2, None, THETA_ARCS),
    "arcs not iterable": lambda: cb.build_diagram(2, (), 5),
    "arc with one port": lambda: cb.build_diagram(2, (), [THETA_ARCS[0][:1]] + THETA_ARCS[1:]),
    "arc that is a number": lambda: cb.build_diagram(2, (), [5] + THETA_ARCS[1:]),
    "edge endpoint past the digit limit": lambda: cb.build_graph(2, [(0, HUGE)]),
    # typed refusals, not a bare TypeError, AttributeError or exhausted budget
    "node order that is a number": lambda: cb.chord_immersion(gen.theta(), 5),
    "arc index a str": lambda: cb.encircle_arc(gen.theta_diagram(), "0"),
    "arc index a bool": lambda: cb.encircle_arc(gen.theta_diagram(), True),
    "twist arc index a str": lambda: cb.insert_twist(gen.theta_diagram(), "0"),
    "skein budget a float": lambda: cb.skein_evaluate(gen.theta_diagram(), 1.5),
    "skein budget negative": lambda: cb.skein_evaluate(gen.theta_diagram(), -1),
    "crossing kind a list": lambda: cb.crossing_weight([], 0, 0),
    "crossing color a str": lambda: cb.crossing_weight(CIRCLED, "R", None),
    "crossing color a bool": lambda: cb.crossing_weight(DOTTED, True, 1),
    "crossing index a str": lambda: cb.expand_circled(cb.chord_immersion(K33), "0"),
    "crossing index a bool": lambda: cb.expand_circled(cb.chord_immersion(K33), True),
    "random_cubic size a str": lambda: gen.random_cubic("4", 0),
    "random_plane_cubic size a float": lambda: gen.random_plane_cubic(4.0, 0),
    "isaacs_j size a str": lambda: gen.isaacs_j("5"),
    "isaacs_j size a float": lambda: gen.isaacs_j(5.0),
    "random_cubic seed a list": lambda: gen.random_cubic(4, [1]),
    "random_plane_cubic seed a list": lambda: gen.random_plane_cubic(4, [1]),
    # a graph or None where a diagram is expected
    **{f"{f.__name__} of {name}": (lambda f=f, value=value: f(value))
       for f in (cb.genus, cb.trace_faces, cb.trace_strands, cb.underlying_graph, cb.diagram_to_json_dict,
                 cb.contract_plain, cb.contract_extended, cb.skein_evaluate)
       for name, value in (("a graph", gen.theta()), ("None", None))},
    **{f"{f.__name__} of a graph": (lambda f=f, arg=arg: f(gen.theta(), arg))
       for f, arg in ((cb.expand_circled, 0), (cb.encircle_arc, 0), (cb.insert_twist, 0),
                      (cb.classify_meetings, (0, 1, 2)), (cb.crossing_parity, (0, 1, 2)))},
    # a diagram or None where a graph is expected; iter_colorings reads it on its first next()
    **{f"{f.__name__} of {name}": (lambda f=f, value=value: f(value))
       for f in (cb.count_colorings, cb.enumerate_perfect_matchings, cb.chord_immersion,
                 cb.graph_to_json_dict, cb.bridges_per_component,
                 cb.connected_components, cb.is_connected)
       for name, value in NOT_GRAPHS},
    **{f"iter_colorings of {name}": (lambda value=value: next(cb.iter_colorings(value)))
       for name, value in NOT_GRAPHS},
    # the same with valid further arguments, so the graph is the only thing wrong
    **{f"{f.__name__} of {name}": (lambda f=f, value=value, args=args: f(value, *args))
       for f, args in ((cb.validate_matching, (K33_MATCHING,)), (cb.complement_cycles, (K33_MATCHING,)),
                       (cb.is_even_matching, (K33_MATCHING,)),
                       (cb.colorings_from_even_matching, (K33_MATCHING,)),
                       (cb.make_state, (K33_MATCHING, [cb.PARALLEL] * 3)),
                       (cb.logical_expansion_count, (K33_MATCHING,)),
                       (cb.is_proper, (K33_COLORING,)), (cb.formation_from_coloring, (K33_COLORING,)),
                       (cb.matching_from_coloring, (K33_COLORING, cb.PURPLE)),
                       (cb.coloring_from_formation, (cb.formation_from_coloring(K33, K33_COLORING),)))
       for name, value in NOT_GRAPHS},
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_arguments_raise_the_package_error(call):
    with pytest.raises(ChromaticBracketError) as info:
        call()
    assert isinstance(info.value, InvalidArgument) and isinstance(info.value, ValueError)


# direct CubicGraph calls, which BAD_CALLS cannot hold: some raise DegreeViolation
BAD_GRAPHS = {
    "bool endpoint": ((2, ((0, True),) * 3), InvalidArgument, "edge (0, True) is not a pair of ints"),
    "negative endpoint": ((2, ((0, -1),) * 3), InvalidArgument, "edge endpoint out of range: (0, -1)"),
    "negative node count": ((-1, ()), InvalidArgument, "node_count must be a nonnegative int and edges iterable"),
    "one edge on three nodes": ((3, ((0, 1),)), DegreeViolation, "node 0 has degree 1, expected 3"),
    "a million bare nodes": ((10**6, ()), DegreeViolation, "node 0 has degree 0, expected 3"),
}


@pytest.mark.parametrize("args, error, message", BAD_GRAPHS.values(), ids=BAD_GRAPHS.keys())
def test_a_direct_cubic_graph_call_is_checked_as_build_graph_is(args, error, message):
    for construct in (cb.build_graph, cb.CubicGraph):
        with pytest.raises(error) as info:
            construct(*args)
        assert type(info.value) is error and str(info.value) == message


THETA_CODES = [(0, 3), (1, 5), (2, 4)]  # theta's arcs as pairs of port codes
COUNTS_MESSAGE = "node_count and free_loops must be nonnegative ints, and crossing_kinds and arcs iterable"
# a direct Diagram call: the first four failed bare or answered at the parent commit, whose
# constructor checked nothing, and the rest returned an unchecked diagram there
BAD_DIAGRAMS = {
    "genus of a one-code table": (lambda: cb.genus(cb.Diagram(2, (), (1,))),
                                  InvalidArgument, "arc 1 is not a pair of port codes below 6"),
    "skein of a bogus kind": (lambda: cb.skein_evaluate(cb.Diagram(2, ("bogus",), (1, 0, 3, 2, 5, 4, 7, 6, 9, 8))),
                              InvalidArgument, "unknown crossing kind 'bogus'"),
    "extended bracket of -1 nodes": (lambda: cb.contract_extended(cb.Diagram(-1, (), ())),
                                     InvalidArgument, COUNTS_MESSAGE),
    "strands of six zeros": (lambda: cb.trace_strands(cb.Diagram(2, (), (0,) * 6)),
                             InvalidArgument, "arc 0 is not a pair of port codes below 6"),
    "negative code": (lambda: cb.Diagram(2, (), [(0, 3), (1, 5), (-4, 4)]),
                      InvalidArgument, "arc (-4, 4) is not a pair of port codes below 6"),
    "True code": (lambda: cb.Diagram(2, (), [(0, 3), (True, 5), (2, 4)]),
                  InvalidArgument, "arc (True, 5) is not a pair of port codes below 6"),
    "float code": (lambda: cb.Diagram(2, (), [(0, 3), (1, 5), (2.0, 4)]),
                   InvalidArgument, "arc (2.0, 4) is not a pair of port codes below 6"),
    "port paired with itself": (lambda: cb.Diagram(2, (), [(0, 3), (1, 5), (2, 2)]), UnmatchedPort,
                                "port ['n', 0, 2] is covered 2 times, expected 1"),
    "uncovered port": (lambda: cb.Diagram(2, (), THETA_CODES[:2]), UnmatchedPort,
                       "port ['n', 0, 2] is covered 0 times, expected 1"),
    "node_count -1": (lambda: cb.Diagram(-1, (), THETA_CODES), InvalidArgument, COUNTS_MESSAGE),
    "unknown kind": (lambda: cb.Diagram(2, ("wavy",), THETA_CODES), InvalidArgument, "unknown crossing kind 'wavy'"),
}


@pytest.mark.parametrize("call, error, message", BAD_DIAGRAMS.values(), ids=BAD_DIAGRAMS.keys())
def test_a_direct_diagram_call_is_checked(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_the_constructor_builds_what_build_diagram_does():
    d = cb.Diagram(2, (), THETA_CODES)
    assert d == gen.theta_diagram() and hash(d) == hash(gen.theta_diagram())


SWITCH_COUNT_MESSAGE = "need a sequence of 3 switch settings"
# a direct State call: at the parent commit State took its sites, loops and site graph
# as given and checked nothing, so none of these was refused there
BAD_STATES = {
    "non-matching": ((K33, [0, 1], [cb.PARALLEL] * 3), NotAMatching, "node 0 is covered 2 times"),
    "too many switches": ((K33, K33_MATCHING, [cb.PARALLEL] * 4), InvalidArgument, SWITCH_COUNT_MESSAGE),
    "unknown switch": ((K33, K33_MATCHING, [cb.PARALLEL, "diagonal", cb.CROSSED]), InvalidArgument,
                       "unknown switch setting 'diagonal'"),
    "switches None": ((K33, K33_MATCHING, None), InvalidArgument, SWITCH_COUNT_MESSAGE),
}


@pytest.mark.parametrize("args, error, message", BAD_STATES.values(), ids=BAD_STATES.keys())
def test_a_direct_state_call_is_checked_as_make_state_is(args, error, message):
    for construct in (cb.make_state, cb.State):
        with pytest.raises(error) as info:
            construct(*args)
        assert type(info.value) is error and str(info.value) == message


NO_PORT = (InvalidArgument, "does not have three fields")
ABSENT = (UnmatchedPort, "does not exist")
MISTYPED_PORTS = {
    "str owner": ((NODE, "0", 0), *ABSENT),
    "None owner": ((NODE, None, 0), *ABSENT),
    "float owner": ((NODE, 0.0, 0), *ABSENT),
    "bool owner": ((NODE, False, 0), *ABSENT),
    # a port is a list or tuple by type(), so none of these is unpacked
    "str port": ("n01", *NO_PORT),
    "dict port": ({"kind": NODE, "owner": 0, "slot": 0}, *NO_PORT),
    "named tuple port": (namedtuple("UserPort", "kind owner slot")(NODE, 0, 0), *NO_PORT),
    "float slot": ((NODE, 0, 0.0), *ABSENT),
    "bool slot": ((NODE, 0, False), *ABSENT),
    "unknown kind": (("q", 0, 0), *ABSENT),
    "None kind": ((None, 0, 0), *ABSENT),
}


@pytest.mark.parametrize("port, error, message", MISTYPED_PORTS.values(), ids=MISTYPED_PORTS.keys())
def test_mistyped_ports_do_not_exist(port, error, message):
    # each matches n0.0 only by value, or does not sort with it: ports are
    # checked by type, so none is read as n0.0 and none raises a bare TypeError
    assert theta_with_first_port((NODE, 0, 0)) == gen.theta_diagram()
    with pytest.raises(error) as info:
        theta_with_first_port(port)
    assert type(info.value) is error and str(info.value) == f"port {shown(port)} {message}"


HUGE_INT_CALLS = {
    "graph edge endpoint": (lambda: cb.build_graph(2, [(0, HUGE)]), InvalidArgument),
    "diagram port owner": (lambda: cb.build_diagram(2, (), [((NODE, HUGE, 0), (NODE, 0, 0))]),
                           UnmatchedPort),
    "matching edge id": (lambda: cb.validate_matching(K33, [HUGE]), NotAMatching),
    "crossing to expand": (lambda: cb.expand_circled(cb.chord_immersion(K33), HUGE), NotCircled),
}


@pytest.mark.parametrize("call, error", HUGE_INT_CALLS.values(), ids=HUGE_INT_CALLS.keys())
def test_huge_ints_get_bounded_messages(call, error):
    # the message names the int by its size; formatting it in decimal would
    # raise a bare ValueError past the digit limit
    with pytest.raises(error, match="<int of 16610 bits>") as info:
        call()
    assert len(str(info.value)) < 100


def test_coloring_that_is_not_a_sequence_is_partial():
    with pytest.raises(PartialColoring, match="not a sequence"):
        cb.is_proper(gen.theta(), None)


# valid arguments for every exported callable; the fuzz below mistypes one at a time
IMMERSED = gen.k33_diagram()  # one circled crossing
IMMERSED_COLORING = next(cb.iter_colorings(cb.underlying_graph(IMMERSED)))
K33_FORMATION = cb.formation_from_coloring(K33, K33_COLORING)
K33_STATE = cb.make_state(K33, K33_MATCHING, [cb.PARALLEL] * 3)
VALID_ARGS = {
    "coloring_names": (K33_COLORING,), "is_proper": (K33, K33_COLORING),
    **dict.fromkeys(["count_colorings", "enumerate_colorings", "iter_colorings", "has_loop", "is_connected",
                     "connected_components", "bridges_per_component", "graph_to_json_dict",
                     "enumerate_perfect_matchings", "iter_perfect_matchings", "count_from_even_matchings"], (K33,)),
    **dict.fromkeys(["CubicGraph", "build_graph"], (2, [(0, 1)] * 3)),
    "graph_from_json_dict": (cb.graph_to_json_dict(K33),),
    **dict.fromkeys(["validate_matching", "complement_cycles", "is_even_matching", "colorings_from_even_matching",
                     "logical_expansion_count"], (K33, K33_MATCHING)),
    "matching_from_coloring": (K33, K33_COLORING, PURPLE),
    "Diagram": (2, (), THETA_CODES, 0), "build_diagram": (2, (), THETA_ARCS, 0),
    "chord_immersion": (K33, list(range(6))),
    **dict.fromkeys(["genus", "trace_faces", "trace_strands", "underlying_graph", "diagram_to_json_dict",
                     "contract_plain", "contract_extended"], (IMMERSED,)),
    "diagram_from_json_dict": (cb.diagram_to_json_dict(IMMERSED),),
    "Formation": tuple(vars(K33_FORMATION).values()), "formation_from_coloring": (K33, K33_COLORING),
    "coloring_from_formation": (K33, K33_FORMATION),
    **dict.fromkeys(["classify_meetings", "crossing_parity"], (IMMERSED, IMMERSED_COLORING)),
    "Site": tuple(vars(K33_STATE.sites[0]).values()), "State": (K33, K33_MATCHING, [cb.PARALLEL] * 3),
    "make_state": (K33, K33_MATCHING, [cb.PARALLEL] * 3),
    **dict.fromkeys(["count_state_colorings", "squeeze", "state_has_isthmus"], (K33_STATE,)),
    "node_weight": ((0, 1, 2),), "crossing_weight": (CIRCLED, 0, 1),
    "per_coloring_weight": (IMMERSED, IMMERSED_COLORING, True), "skein_evaluate": (IMMERSED, 1000),
    **dict.fromkeys(["expand_circled", "insert_twist", "encircle_arc"], (IMMERSED, 0)),
}
ERROR_CALLS = [(obj, ("x", 3) if obj is DegreeViolation else ("x",)) for name, obj in vars(cb.errors).items()
               if callable(obj) and not name.startswith("_") and getattr(obj, "__module__", None) == cb.errors.__name__]
MISTYPED = (None, True, False, 0.5, float("nan"), "", "0", HUGE, -HUGE, gen.theta(), gen.theta_diagram())


def mistyped(valid: object) -> list:
    # a graph is mistyped where a diagram or anything else is expected, but not in place of a graph
    return [v for v in MISTYPED if not (type(v) is type(valid) and type(v) in (cb.CubicGraph, cb.Diagram))]


def test_the_fuzz_has_valid_arguments_for_every_export():
    exported = {name for name in cb.__all__ if callable(getattr(cb, name))}
    assert exported == set(VALID_ARGS)
    for name, args in VALID_ARGS.items():
        inspect.signature(getattr(cb, name)).bind(*args)


CALLS = [(getattr(cb, name), args) for name, args in VALID_ARGS.items()] + ERROR_CALLS


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(CALLS), st.data())
def test_every_export_returns_or_raises_the_package_error_on_a_mistyped_argument(call, data):
    f, args = call
    args = list(args)
    i = data.draw(st.integers(0, len(args) - 1))
    args[i] = data.draw(st.sampled_from(mistyped(args[i])))
    try:
        out = f(*args)
        if isinstance(out, Iterator):  # a lazy search reads its arguments on the first next()
            next(out, None)
    except ChromaticBracketError:
        pass
