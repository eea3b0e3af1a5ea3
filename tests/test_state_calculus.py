"""States from matchings: switches, loop tracing, and the expansion total."""

from __future__ import annotations

import dataclasses
import itertools
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import chromatic_bracket as cb
from chromatic_bracket import generators as gen
from chromatic_bracket import state_calculus
from chromatic_bracket.errors import NotAMatching, RecursionBudgetExceeded
from chromatic_bracket.state_calculus import (
    CROSSED,
    PARALLEL,
    SWITCH_SETTINGS,
    State,
    count_state_colorings,
    logical_expansion_count,
    make_state,
    squeeze,
    state_has_isthmus,
)


def test_theta_parallel_splits_into_two_loops():
    g = gen.theta()
    s = make_state(g, {0}, [PARALLEL])
    assert s.loop_count == 2
    assert s.site_graph == ((0, 1),)
    assert count_state_colorings(s) == 6
    assert sorted(map(sorted, s.loops)) == [[1], [2]]


def test_theta_crossed_merges_into_one_loop():
    g = gen.theta()
    s = make_state(g, {0}, [CROSSED])
    assert s.loop_count == 1
    # a site joining a loop to itself can never be colored
    assert s.site_graph == ((0, 0),)
    assert count_state_colorings(s) == 0


def test_theta_expansion_totals_the_coloring_count():
    g = gen.theta()
    for m in cb.enumerate_perfect_matchings(g):
        assert logical_expansion_count(g, m) == 6


def test_every_site_appears_once_in_site_graph():
    g = gen.prism()
    for m in cb.enumerate_perfect_matchings(g):
        for vec in itertools.product(SWITCH_SETTINGS, repeat=len(m)):
            s = make_state(g, m, vec)
            assert len(s.site_graph) == len(m)
            assert len(s.sites) == len(m)
            covered = sorted(e for loop in s.loops for e in loop)
            assert covered == sorted(set(range(g.edge_count)) - set(m))


def test_switch_vector_is_recorded_in_order():
    g = gen.k4()
    m = sorted(cb.enumerate_perfect_matchings(g)[0])
    vec = [PARALLEL, CROSSED][: len(m)] * (len(m) // 2) or [PARALLEL] * len(m)
    vec = vec[: len(m)]
    s = make_state(g, m, vec)
    assert list(s.switches) == list(vec)


def test_dumbbell_state_keeps_its_isthmus():
    g = gen.dumbbell()
    for vec in ([PARALLEL], [CROSSED]):
        s = make_state(g, {1}, vec)
        assert state_has_isthmus(s)
        assert count_state_colorings(s) == 0
        assert squeeze(s) == g
    assert logical_expansion_count(g, {1}) == 0


def test_bridgeless_states_have_no_isthmus():
    for g in (gen.theta(), gen.k4(), gen.petersen()):
        for m in cb.enumerate_perfect_matchings(g):
            for vec in itertools.product(SWITCH_SETTINGS, repeat=len(m)):
                assert not state_has_isthmus(make_state(g, m, vec))


def test_squeeze_returns_the_source_graph_for_every_vector():
    for g in (gen.theta(), gen.k4(), gen.prism(), gen.petersen()):
        for m in cb.enumerate_perfect_matchings(g):
            for vec in itertools.product(SWITCH_SETTINGS, repeat=len(m)):
                assert squeeze(make_state(g, m, vec)) == g


def test_four_touching_fixture_colorable_only_when_all_crossed():
    g, m = gen.four_touching_fixture()
    order = len(m)
    colorable = {}
    for vec in itertools.product(SWITCH_SETTINGS, repeat=order):
        n = count_state_colorings(make_state(g, m, vec))
        if n:
            colorable[vec] = n
    assert colorable == {(CROSSED,) * order: 6}


def test_four_touching_all_parallel_is_the_four_loop_obstruction():
    # four loops, each pair joined by a site: a 3-coloring cannot exist
    g, m = gen.four_touching_fixture()
    s = make_state(g, m, [PARALLEL] * len(m))
    assert s.loop_count == 4
    assert sorted(tuple(sorted(p)) for p in s.site_graph) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    assert count_state_colorings(s) == 0


def test_make_state_validates_input():
    g = gen.k4()
    m = cb.enumerate_perfect_matchings(g)[0]
    with pytest.raises(ValueError):
        make_state(g, m, [PARALLEL])
    with pytest.raises(ValueError):
        make_state(g, m, ["diagonal", PARALLEL])
    with pytest.raises(NotAMatching):
        make_state(g, {0, 1}, [PARALLEL, PARALLEL])


def first_loop_free_random_cubic(n: int) -> cb.CubicGraph:
    return next(g for g in (gen.random_cubic(n, seed) for seed in itertools.count())
                if not cb.has_loop(g))


def test_site_ends_follow_the_complement_walk():
    # a complement walk leaves its first edge from endpoint 0 and departs each
    # node along the half-edge after the one it arrived by; a site end is
    # (departing, arriving) on that walk, whatever the switches
    graphs = [gen.truncated_tetrahedron(), gen.k33(), gen.prism(),
              *(first_loop_free_random_cubic(n) for n in range(4, 14, 2))]
    for g in graphs:
        for m in cb.enumerate_perfect_matchings(g):
            walked = {}  # node -> (departing, arriving)
            for cyc in cb.complement_cycles(g, m):
                x, departs = g.edges[cyc[0]][0], []
                for e in cyc:
                    departs.append(2 * e if g.edges[e][0] == x else 2 * e + 1)
                    x = g.half_edge_node(departs[-1] ^ 1)
                assert x == g.edges[cyc[0]][0]
                for before, h in zip(departs[-1:] + departs[:-1], departs):
                    walked[g.half_edge_node(h)] = (h, before ^ 1)
            for switches in ([PARALLEL] * len(m), [CROSSED] * len(m)):
                for site in make_state(g, m, switches).sites:
                    u, v = g.edges[site.edge]
                    assert (site.ends_u, site.ends_v) == (walked[u], walked[v]), (g, m, site)


def test_expansion_matches_brute_force_on_fixtures():
    for name in ("theta", "k4", "prism", "k33", "petersen", "truncated_tetrahedron"):
        g = getattr(gen, name)()
        want = cb.count_colorings(g)
        for m in cb.enumerate_perfect_matchings(g):
            assert logical_expansion_count(g, m) == want, name


def test_expansion_on_flower_snarks():
    # j(4) is colorable (96), j(5) is a snark; every matching must say so
    for n, want in ((4, 96), (5, 0)):
        g = gen.isaacs_j(n)
        ms = cb.enumerate_perfect_matchings(g)
        assert ms
        assert {logical_expansion_count(g, m) for m in ms} == {want}, n


def ladder(k: int) -> cb.CubicGraph:
    """The prism ladder C_k x K2: two k-cycles joined node by node."""
    return cb.build_graph(2 * k, [(i, (i + 1) % k) for i in range(k)]
                          + [(k + i, k + (i + 1) % k) for i in range(k)]
                          + [(i, k + i) for i in range(k)])


def test_too_many_loops_fail_typed():
    # a 2400-rung prism ladder matched on every other ring edge: the
    # all-parallel state (the first switch vector) has 1202 loops, and the
    # loop-coloring count recurses once per loop
    k = 2400
    g = ladder(k)
    m = {2 * i for i in range(k // 2)} | {k + 2 * i for i in range(k // 2)}
    s = make_state(g, m, [PARALLEL] * len(m))
    assert s.loop_count == 1202
    with pytest.raises(RecursionBudgetExceeded):
        count_state_colorings(s)
    with pytest.raises(RecursionBudgetExceeded):
        logical_expansion_count(g, m)


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.tuples(st.integers(1, 7), st.integers(0, 10_000))
                 .map(lambda a: gen.random_cubic(2 * a[0], a[1])),
                 st.integers(3, 5).map(gen.isaacs_j)))
@example(gen.isaacs_j(5))
@example(gen.dumbbell())
@example(gen.double_dumbbell())
def test_the_sweep_equals_each_matching_expanded_alone(g: cb.CubicGraph) -> None:
    # one sweep undoes every link on the way back, so no path state leaks into
    # the next matching: the reversed matchings give the reversed counts (and
    # double_dumbbell, with no perfect matching, gives [])
    ms = cb.enumerate_perfect_matchings(g)
    alone = [logical_expansion_count(g, m) for m in ms]
    assert state_calculus._expansion_counts(g, ms) == alone
    assert state_calculus._expansion_counts(g, ms[::-1]) == alone[::-1]
    assert alone == [cb.count_colorings(g)] * len(ms)


def test_the_constructor_rebuilds_a_state_from_its_graph_matching_and_switches():
    for g in (gen.theta(), gen.k4(), gen.k33(), gen.dumbbell()):
        for m in cb.enumerate_perfect_matchings(g):
            for vec in itertools.product(SWITCH_SETTINGS, repeat=len(m)):
                s = make_state(g, m, vec)
                assert s == State(g, list(m), list(vec)) and hash(s) == hash(State(g, m, vec))
                assert State(s.graph, s.matching, s.switches) == s
                assert (s.matching, s.switches) == (frozenset(m), vec)


def test_the_derived_fields_cannot_be_set():
    # sites, loops and site_graph follow from the graph, matching and switches
    s = make_state(gen.k33(), cb.enumerate_perfect_matchings(gen.k33())[0], [PARALLEL] * 3)
    for field, value in (("loops", s.loops[1:]), ("site_graph", ((0, -1),) * 3), ("sites", ())):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(s, **{field: value})
        with pytest.raises(TypeError):
            State(s.graph, s.matching, s.switches, **{field: value})


def test_only_vectors_without_a_zeroing_site_are_traced(monkeypatch):
    # a vector with a site whose two strands share a loop is cut and never
    # reaches a leaf, where the loops are counted
    graphs = [getattr(gen, name)() for name in ("theta", "k4", "prism", "k33", "petersen")]
    graphs.append(gen.isaacs_j(4))
    want = [[sum(all(a != b for a, b in make_state(g, m, vec).site_graph)
                 for vec in itertools.product(SWITCH_SETTINGS, repeat=len(m)))
             for m in cb.enumerate_perfect_matchings(g)] for g in graphs]
    assert not any(want[4])  # on petersen every vector has a zeroing site
    real, traced = state_calculus._count_loop_colorings, []

    def counted(*args):
        traced.append(args)
        return real(*args)

    def traces(g, m) -> int:
        traced.clear()
        logical_expansion_count(g, m)
        return len(traced)

    monkeypatch.setattr(state_calculus, "_count_loop_colorings", counted)
    assert [[traces(g, m) for m in cb.enumerate_perfect_matchings(g)] for g in graphs] == want


# two disjoint copies of K4: the expansion runs over several components
K4_PAIR = cb.build_graph(8, list(gen.k4().edges) + [(u + 4, v + 4) for u, v in gen.k4().edges])
# K4 with every edge's endpoints swapped: the incidence read from u and v trades places
K4_REVERSED = cb.build_graph(4, [(v, u) for u, v in gen.k4().edges])
# two digons joined by two edges: matched edge 0 has the parallel twin 1
DIGON_RING = cb.build_graph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])
# a snark beside the prism: 8 vectors reach a leaf, whose loops lie on two
# components that share no node, and each counts 0 there
J3_PRISM = cb.build_graph(18, list(gen.isaacs_j(3).edges)
                          + [(u + 12, v + 12) for u, v in gen.prism().edges])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000).map(lambda seed: gen.random_cubic(10, seed)))
@example(gen.theta())
@example(gen.dumbbell())
@example(K4_PAIR)
@example(K4_REVERSED)
@example(DIGON_RING)
@example(J3_PRISM)
def test_expansion_is_the_sum_over_built_states(g: cb.CubicGraph) -> None:
    # the definition: one make_state per switch vector, summed
    for m in cb.enumerate_perfect_matchings(g):
        by_definition = sum(
            count_state_colorings(make_state(g, m, vec))
            for vec in itertools.product(SWITCH_SETTINGS, repeat=len(m))
        )
        assert logical_expansion_count(g, m) == by_definition


def leaf_calls(g: cb.CubicGraph) -> int:
    """How often the expansion reaches a leaf over every perfect matching of g."""
    real, traced = state_calculus._count_loop_colorings, []

    def counted(*args):
        traced.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:  # not the fixture: hypothesis reruns the body
        mp.setattr(state_calculus, "_count_loop_colorings", counted)
        for m in cb.enumerate_perfect_matchings(g):
            logical_expansion_count(g, m)
    return len(traced)


def test_isaacs_j5_reaches_182_leaves():
    # the README's figure: over the 32 matchings, 182 of the 32 768 switch
    # vectors have no zeroing site; a weaker cut counts the same but reaches more
    g = gen.isaacs_j(5)
    assert len(cb.enumerate_perfect_matchings(g)) == 32
    assert leaf_calls(g) == 182


@settings(max_examples=15, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(0, 10_000))
       .map(lambda a: gen.random_cubic(2 * a[0], a[1])))
@example(DIGON_RING)
@example(K4_PAIR)
def test_leaves_are_the_vectors_without_a_zeroing_site(g: cb.CubicGraph) -> None:
    # loops and parallel edges included: the cut fires exactly when a site's
    # two strands would share a loop, so every other vector reaches a leaf
    want = sum(all(a != b for a, b in make_state(g, m, vec).site_graph)
               for m in cb.enumerate_perfect_matchings(g)
               for vec in itertools.product(SWITCH_SETTINGS, repeat=len(m)))
    assert leaf_calls(g) == want


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_expansion_matches_brute_force_on_random_graphs(seed: int) -> None:
    g = gen.random_cubic(8, seed)
    want = cb.count_colorings(g)
    for m in cb.enumerate_perfect_matchings(g):
        assert logical_expansion_count(g, m) == want


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_squeeze_round_trip_on_random_graphs(seed: int) -> None:
    g = gen.random_cubic(8, seed)
    for m in cb.enumerate_perfect_matchings(g):
        vec = [PARALLEL if i % 2 else CROSSED for i in range(len(m))]
        assert squeeze(make_state(g, m, vec)) == g


def masks_of(k: int, pairs: list[tuple[int, int]]) -> list[int]:
    """The node masks of k loops where pair i is one fresh node on both of its loops."""
    masks = [0] * k
    for i, (a, b) in enumerate(pairs):
        masks[a] |= 1 << i
        masks[b] |= 1 << i
    return masks


def product_count(masks: list[int]) -> int:
    met = [(a, b) for a, b in itertools.combinations(range(len(masks)), 2) if masks[a] & masks[b]]
    return sum(all(c[a] != c[b] for a, b in met) for c in itertools.product(range(3), repeat=len(masks)))


@st.composite
def loop_masks(draw) -> list[int]:
    k = draw(st.integers(0, 6))
    loop = st.integers(0, k - 1)
    return masks_of(k, draw(st.lists(st.tuples(loop, loop), max_size=8)) if k else [])


@settings(max_examples=300, deadline=None)
@given(loop_masks())
@example(masks_of(0, []))  # no loops, no pairs: 1
@example(masks_of(4, []))  # isolated loops only
@example(masks_of(3, [(2, 2)]))  # a node on one loop only constrains nothing
@example(masks_of(4, [(1, 2), (2, 1), (1, 2)]))  # repeated pairs, loops 0 and 3 isolated
@example(masks_of(5, [(3, 1), (0, 2), (2, 4)]))  # disconnected; the first pair is not (0, 1)
@example(masks_of(4, [(2, 3), (0, 1), (1, 2), (0, 2)]))  # the first pair's loops come last
@example([1, 2, 2])  # the first loop meets no other: 3 times 6
@example([0, 3, 1])  # a loop without nodes
@example([5])  # one loop: 3
def test_loop_colorings_match_a_product_count(masks: list[int]) -> None:
    assert state_calculus._count_loop_colorings(masks) == product_count(masks)


def test_a_site_on_one_loop_counts_zero(monkeypatch):
    # a node bit cannot say that a site's two strands are one loop, so
    # count_state_colorings answers 0 before counting; the loops' masks alone
    # would count 6 here
    monkeypatch.setattr(state_calculus, "_count_loop_colorings", None)
    g = gen.k33()
    s = make_state(g, cb.enumerate_perfect_matchings(g)[0], [PARALLEL, CROSSED, CROSSED])
    assert s.site_graph == ((0, 0), (1, 0), (0, 1))
    assert count_state_colorings(s) == 0


def test_a_loop_path_past_the_recursion_limit_fails_typed():
    # a strip where loop i meets loops i + 1 and i + 2 has 6 colorings and one
    # branch, so a search that went on past the limit would answer at once
    k = sys.getrecursionlimit() + 2
    strip = [0b110110 << 2 * i for i in range(k)]  # i meets i + 1 at bit 2i + 4, i + 2 at 2i + 5
    with pytest.raises(RecursionBudgetExceeded):
        state_calculus._count_loop_colorings(strip)
    assert state_calculus._count_loop_colorings(strip[:12]) == 6
    # a path of loops has 3 * 2^(k-1) colorings; the search goes straight down
    # its first branch and is refused at loop sys.getrecursionlimit()
    path = [1 << i | 1 << i + 1 for i in range(k)]
    start = time.perf_counter()
    with pytest.raises(RecursionBudgetExceeded):
        state_calculus._count_loop_colorings(path)
    assert time.perf_counter() - start < 1
    assert state_calculus._count_loop_colorings(path[:12]) == 3 * 2**11


def test_states_and_the_expansion_share_one_leaf_counter(monkeypatch):
    # the leaf summation is written once: a single state and every expansion leaf reach it
    real, seen = state_calculus._count_loop_colorings, []

    def counted(loops):
        seen.append(list(loops))
        return real(loops)

    monkeypatch.setattr(state_calculus, "_count_loop_colorings", counted)
    g = gen.k33()
    m = cb.enumerate_perfect_matchings(g)[0]
    assert count_state_colorings(make_state(g, m, [PARALLEL] * 3)) == real(seen[-1])
    assert len(seen) == 1
    assert logical_expansion_count(g, m) == cb.count_colorings(g)
    assert len(seen) > 1


@settings(max_examples=10, deadline=None)
@given(st.tuples(st.sampled_from([4, 6, 8]), st.integers(0, 10_000))
       .map(lambda a: gen.random_cubic(*a))
       .filter(lambda g: cb.has_loop(g) and cb.enumerate_perfect_matchings(g)))
@example(gen.random_cubic(6, 0))
@example(gen.dumbbell())
def test_a_loop_at_a_site_end_is_cut_at_the_root(g: cb.CubicGraph) -> None:
    # a loop's node is matched along its other edge, so every perfect matching
    # has a site whose end pair is the loop itself: 0 before any union
    real, traced = state_calculus._count_loop_colorings, []

    def counted(*args):
        traced.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:  # not the fixture: hypothesis reruns the body
        mp.setattr(state_calculus, "_count_loop_colorings", counted)
        assert {logical_expansion_count(g, m) for m in cb.enumerate_perfect_matchings(g)} == {0}
    assert traced == []


def test_expansion_on_the_twenty_rung_ladder():
    # the first matching takes every other ring edge; 1048584 is count_colorings
    g = ladder(20)
    assert logical_expansion_count(g, next(cb.iter_perfect_matchings(g))) == 1_048_584


@settings(max_examples=2, deadline=None)
@given(st.integers(0, 10_000).map(lambda seed: gen.random_cubic(16, seed))
       .filter(lambda g: not cb.has_loop(g)))
def test_first_expansion_matches_brute_force_at_sixteen_nodes(g: cb.CubicGraph) -> None:
    # no perfect matching leaves no color class, so brute force gives 0 there too
    m = next(cb.iter_perfect_matchings(g), None)
    assert (0 if m is None else logical_expansion_count(g, m)) == cb.count_colorings(g)
