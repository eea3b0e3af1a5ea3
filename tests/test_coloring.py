"""Backtracking count of proper 3-edge-colorings."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

import chromatic_bracket as cb
from chromatic_bracket import generators as gen
from chromatic_bracket.errors import PartialColoring, RecursionBudgetExceeded
from chromatic_bracket.graph_core import connected_components, has_loop
from chromatic_bracket.matching import even_matching_sum

# frozen reference counts, checked against an independent brute-force pass
FIXTURE_COUNTS = {
    "theta": 6,
    "dumbbell": 0,
    "double_dumbbell": 0,
    "k4": 6,
    "prism": 6,
    "k33": 12,
    "petersen": 0,
    "truncated_tetrahedron": 6,
}


def test_fixture_counts():
    for name, want in FIXTURE_COUNTS.items():
        g = getattr(gen, name)()
        assert cb.count_colorings(g) == want, name


def test_flower_snark_counts():
    assert cb.count_colorings(gen.isaacs_j(3)) == 0
    assert cb.count_colorings(gen.isaacs_j(4)) == 96
    assert cb.count_colorings(gen.isaacs_j(5)) == 0


def test_enumeration_matches_count_and_is_sorted():
    for name in ("theta", "k4", "prism", "k33"):
        g = getattr(gen, name)()
        cs = cb.enumerate_colorings(g)
        assert len(cs) == FIXTURE_COUNTS[name]
        assert cs == cb.enumerate_colorings(g)
        assert len(set(cs)) == len(cs)
        for c in cs:
            assert cb.is_proper(g, c)


def test_theta_colorings_are_color_permutations():
    g = gen.theta()
    cs = cb.enumerate_colorings(g)
    assert sorted(cs) == [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]


def test_loop_forces_zero():
    assert cb.count_colorings(gen.dumbbell()) == 0
    assert cb.enumerate_colorings(gen.dumbbell()) == []


def test_is_proper_rejects_bad_input():
    g = gen.theta()
    assert not cb.is_proper(g, (0, 0, 1))
    assert not cb.is_proper(g, (0, 1, 1))
    with pytest.raises(PartialColoring):
        cb.is_proper(g, (0, 1))
    with pytest.raises(PartialColoring):
        cb.is_proper(g, (0, 1, 5))
    for not_ints in ((0, True, 2), (0, 1, 2.0)):  # True == 1 and 2.0 == 2, but neither is a color
        with pytest.raises(PartialColoring):
            cb.is_proper(g, not_ints)


def test_color_constants_and_names():
    assert cb.COLORS == (cb.RED, cb.BLUE, cb.PURPLE) == (0, 1, 2)
    assert [cb.COLOR_NAMES[c] for c in cb.COLORS] == ["R", "B", "P"]
    assert cb.coloring_names((2, 0, 1)) == ["P", "R", "B"]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=5).map(lambda k: 2 * k), st.integers(0, 10_000))
def test_count_is_a_multiple_of_six(n: int, seed: int) -> None:
    # color permutations act freely on proper colorings
    g = gen.random_cubic(n, seed)
    assert cb.count_colorings(g) % 6 == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_enumeration_consistent_on_random_graphs(seed: int) -> None:
    g = gen.random_cubic(8, seed)
    cs = cb.enumerate_colorings(g)
    assert len(cs) == cb.count_colorings(g)
    assert all(cb.is_proper(g, c) for c in cs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6).map(lambda k: 2 * k), st.integers(0, 10_000))
def test_count_agrees_with_enumeration(n: int, seed: int) -> None:
    # iter_colorings lists every coloring and uses no color symmetry
    g = gen.random_cubic(n, seed)
    assert cb.count_colorings(g) == sum(1 for _ in cb.iter_colorings(g))


def disjoint_union(*graphs: cb.CubicGraph) -> cb.CubicGraph:
    edges: list[tuple[int, int]] = []
    offset = 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.node_count
    return cb.build_graph(offset, edges)


def loop_free_cubic(n: int, seed: int = 0) -> cb.CubicGraph:
    while cb.has_loop(g := gen.random_cubic(n, seed)):
        seed += 1
    return g


def test_count_multiplies_over_components():
    theta, k33, petersen, j3 = gen.theta(), gen.k33(), gen.petersen(), gen.isaacs_j(3)
    r8, r10 = loop_free_cubic(8), loop_free_cubic(10)
    for parts in [
        (theta, k33), (k33, r8), (r8, r10, theta), (theta, theta, k33), (r10, k33, theta),
        (petersen, theta, k33), (theta, j3, r8), (k33, r10, petersen), (r8, j3),
    ]:
        want = math.prod(sum(1 for _ in cb.iter_colorings(g)) for g in parts)
        assert cb.count_colorings(disjoint_union(*parts)) == want, parts


def relabelled(g: cb.CubicGraph, rng) -> cb.CubicGraph:
    """g with its nodes renamed, each edge's ends swapped at random and the
    edge list shuffled, so the search meets its edges in another order."""
    name = list(range(g.node_count))
    rng.shuffle(name)
    edges = [(name[u], name[v]) if rng.random() < 0.5 else (name[v], name[u])
             for u, v in g.edges]
    rng.shuffle(edges)
    return cb.build_graph(g.node_count, edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8).map(lambda k: 2 * k), st.integers(0, 10_000),
       st.sampled_from([(), ("theta",), ("k33",), ("petersen",), ("theta", "k33")]),
       st.randoms(use_true_random=False))
def test_count_does_not_depend_on_labels(n: int, seed: int, extra: tuple[str, ...], rng) -> None:
    # random_cubic may draw parallel edges and loops
    g = disjoint_union(gen.random_cubic(n, seed), *(getattr(gen, name)() for name in extra))
    assert cb.count_colorings(relabelled(g, rng)) == cb.count_colorings(g)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=9, max_value=12).map(lambda k: 2 * k), st.integers(0, 10_000))
def test_count_agrees_with_matchings_and_states_past_enumeration(n: int, seed: int) -> None:
    g = loop_free_cubic(n, seed)
    want = cb.count_colorings(g)
    assert even_matching_sum(g, cb.iter_perfect_matchings(g)) == want
    m = next(cb.iter_perfect_matchings(g), None)
    assert want == (0 if m is None else cb.logical_expansion_count(g, m))


def prism_ladder(k: int) -> cb.CubicGraph:
    """C_k x K2, 3k edges: outer cycle 0..k-1, inner cycle k..2k-1."""
    edges = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    return cb.build_graph(2 * k, edges + [(i, k + i) for i in range(k)])


def test_deep_search_fails_typed_and_is_skipped_after_a_zero_component():
    deep = prism_ladder(400)  # 1200 edges: past the default recursion limit of 1000
    with pytest.raises(RecursionBudgetExceeded):
        cb.count_colorings(disjoint_union(gen.k33(), deep))
    with pytest.raises(RecursionBudgetExceeded):
        next(cb.iter_colorings(deep))
    # a component without colorings ends the count before the deep one
    assert cb.count_colorings(disjoint_union(gen.petersen(), deep)) == 0


def test_only_a_search_that_overflows_is_refused():
    # a K4 with edge 2-3 subdivided by node 4, bridged to a 500-rung ladder
    # with rung 5-505 subdivided by node 1005: 1509 edges, past the recursion
    # limit, but the search starts on the K4 side and fails there within a few
    # edges (no cubic graph with a bridge is colorable), so it answers 0
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (4, 3)]
    ladder = [(5 + a, 5 + b) for a, b in prism_ladder(500).edges if (a, b) != (0, 500)]
    bridged = cb.build_graph(1006, k4 + ladder + [(5, 1005), (1005, 505), (4, 1005)])
    assert bridged.edge_count == 1509
    assert cb.count_colorings(bridged) == 0
    # 1200 and 15000 edges, where the search does reach edge 1000
    g = next(g for g in map(gen.random_cubic, [10000] * 10, range(10)) if not has_loop(g))
    for deep in (prism_ladder(400), g):
        with pytest.raises(RecursionBudgetExceeded):
            cb.count_colorings(deep)


def python_calls(call) -> tuple[object, int]:
    """call()'s result and the number of Python call events it made."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, calls


def test_the_search_makes_no_python_call_per_edge():
    g = gen.isaacs_j(9)  # 54 edges; the recursive search made 9 920 calls of itself here
    cb.count_colorings(g)  # the first count imports heapq
    # 102 on Python 3.11, none from the search: has_loop's generator steps
    # once per edge and tightest_first runs a comprehension per node
    count, calls = python_calls(lambda: cb.count_colorings(g))
    assert count == 0 and calls < 200
    # 175 on Python 3.11 (146 024 with one generator frame per edge), none
    # from the search: has_loop's generator and the BFS order's generator
    # step once per edge and per half-edge
    listed, calls = python_calls(lambda: cb.enumerate_colorings(g))
    assert listed == [] and calls < 200


def test_the_depth_bound_is_the_recursion_limit_not_the_callers_stack():
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    # room for this test's frames, but not for one more per edge of isaacs_j(13) (78)
    limit = max(depth + 20, 80)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        with pytest.raises(RecursionBudgetExceeded):
            cb.count_colorings(prism_ladder(limit))  # 3 * limit edges, all colorable
        # a recursion of one frame per edge would overflow here
        assert cb.count_colorings(gen.isaacs_j(13)) == 0
        # listing too: a lister with one frame per edge would overflow on the 60-edge ladder
        ladder = prism_ladder(20)
        assert cb.is_proper(ladder, next(cb.iter_colorings(ladder)))
        with pytest.raises(RecursionBudgetExceeded):
            next(cb.iter_colorings(prism_ladder(limit)))
    finally:
        sys.setrecursionlimit(old)


# the lists iter_colorings gave before the count used the color symmetry
PRISM_COLORINGS = [
    (0, 2, 1, 0, 2, 1, 2, 1, 0), (0, 1, 2, 0, 1, 2, 1, 2, 0), (1, 2, 0, 1, 2, 0, 2, 0, 1),
    (1, 0, 2, 1, 0, 2, 0, 2, 1), (2, 1, 0, 2, 1, 0, 1, 0, 2), (2, 0, 1, 2, 0, 1, 0, 1, 2),
]
K33_COLORINGS = [
    (0, 1, 2, 1, 2, 0, 2, 0, 1), (0, 1, 2, 2, 0, 1, 1, 2, 0), (0, 2, 1, 1, 0, 2, 2, 1, 0),
    (0, 2, 1, 2, 1, 0, 1, 0, 2), (1, 0, 2, 0, 2, 1, 2, 1, 0), (1, 0, 2, 2, 1, 0, 0, 2, 1),
    (1, 2, 0, 0, 1, 2, 2, 0, 1), (1, 2, 0, 2, 0, 1, 0, 1, 2), (2, 0, 1, 0, 1, 2, 1, 2, 0),
    (2, 0, 1, 1, 2, 0, 0, 1, 2), (2, 1, 0, 0, 2, 1, 1, 0, 2), (2, 1, 0, 1, 0, 2, 0, 2, 1),
]


def reference_colorings(g: cb.CubicGraph) -> list[tuple[int, ...]]:
    """The recursive lister iter_colorings replaced: the edges of each component
    in BFS order from its lowest node, each tried R, B, then P."""
    if cb.has_loop(g):
        return []
    order = [e for nodes in connected_components(g)
             for e in dict.fromkeys(h // 2 for n in nodes for h in g.incidence[n])]
    found: list[tuple[int, ...]] = []
    list_from(g, order, 0, [0] * g.node_count, [0] * g.edge_count, found)
    return found


def list_from(g, order, i, used, colors, found) -> None:
    if i == len(order):
        found.append(tuple(colors))
        return
    u, v = g.edges[order[i]]
    for c in cb.COLORS:
        if not (used[u] | used[v]) >> c & 1:
            used[u] |= 1 << c
            used[v] |= 1 << c
            colors[order[i]] = c
            list_from(g, order, i + 1, used, colors, found)
            used[u] ^= 1 << c
            used[v] ^= 1 << c


def test_enumeration_order_is_pinned():
    # formation --coloring-index k names a coloring by its place in this order
    assert cb.enumerate_colorings(gen.prism()) == PRISM_COLORINGS
    assert cb.enumerate_colorings(gen.k33()) == K33_COLORINGS
    # random_cubic may draw parallel edges and loops
    graphs = [gen.random_cubic(n, seed) for n in range(2, 13, 2) for seed in range(40)]
    graphs += [gen.isaacs_j(n) for n in (3, 4, 5)] + [getattr(gen, name)() for name in FIXTURE_COUNTS]
    graphs += [disjoint_union(gen.k33(), gen.prism()), disjoint_union(gen.petersen(), gen.theta()),
               disjoint_union(gen.theta(), loop_free_cubic(6, 3), gen.k4())]
    listed = 0
    for g in graphs:
        want = reference_colorings(g)
        assert list(cb.iter_colorings(g)) == want, g
        listed += len(want)
    assert listed > 1000
