"""Perfect matchings, complement cycles, and the even-matching count."""

from __future__ import annotations

import itertools
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import chromatic_bracket as cb
from chromatic_bracket import generators as gen
from chromatic_bracket import matching, state_calculus
from chromatic_bracket.errors import NotAMatching, RecursionBudgetExceeded

# frozen reference: (perfect matchings, even matchings, sum of 2**cycles)
MATCHING_TABLE = {
    "theta": (3, 3, 6),
    "dumbbell": (1, 0, 0),
    "double_dumbbell": (0, 0, 0),
    "k4": (3, 3, 6),
    "prism": (4, 3, 6),
    "k33": (6, 6, 12),
    "petersen": (6, 0, 0),
    "truncated_tetrahedron": (8, 3, 6),
}


def test_fixture_matching_table():
    for name, (n_perfect, n_even, total) in MATCHING_TABLE.items():
        g = getattr(gen, name)()
        ms = cb.enumerate_perfect_matchings(g)
        assert len(ms) == n_perfect, name
        evens = [m for m in ms if cb.is_even_matching(g, m)]
        assert len(evens) == n_even, name
        assert cb.count_from_even_matchings(g) == total, name
        assert total == cb.count_colorings(g), name


def test_matchings_are_deterministic_and_valid():
    g = gen.petersen()
    ms = cb.enumerate_perfect_matchings(g)
    assert ms == cb.enumerate_perfect_matchings(g)
    for m in ms:
        assert cb.validate_matching(g, m) == m
        covered = [0] * g.node_count
        for e in m:
            u, v = g.edges[e]
            covered[u] += 1
            covered[v] += 1
        assert covered == [1] * g.node_count


def test_matchings_are_all_found_in_sorted_order():
    # against every edge subset of the right size, listed by sorted edge ids
    for n in range(2, 12, 2):
        for seed in range(6):
            g = gen.random_cubic(n, seed)
            want = []
            for es in itertools.combinations(range(g.edge_count), n // 2):
                ends = [x for e in es for x in g.edges[e]]
                if sorted(ends) == list(range(n)):
                    want.append(frozenset(es))
            assert cb.enumerate_perfect_matchings(g) == want, (n, seed)
            assert list(cb.iter_perfect_matchings(g)) == want, (n, seed)


def assert_found_in_sorted_order(g: cb.CubicGraph) -> None:
    n = g.node_count
    want = [frozenset(es) for es in itertools.combinations(range(g.edge_count), n // 2)
            if sorted([x for e in es for x in g.edges[e]]) == list(range(n))]
    got = list(cb.iter_perfect_matchings(g))
    assert got == want
    keys = [sorted(m) for m in got]
    assert all(a < b for a, b in zip(keys, keys[1:]))  # strictly increasing: no duplicates


@settings(max_examples=60, deadline=None)
@given(st.builds(gen.random_cubic, st.integers(1, 6).map(lambda half: 2 * half), st.integers(0, 2**64)))
def test_matchings_on_multigraphs_are_all_found_in_sorted_order(g: cb.CubicGraph) -> None:
    # loops and parallel pairs included: a parallel pair is one partner, not two
    assert_found_in_sorted_order(g)


def test_fixture_matchings_are_all_found_in_sorted_order():
    for g in [getattr(gen, name)() for name in MATCHING_TABLE] + [gen.isaacs_j(3), gen.isaacs_j(4)]:
        assert_found_in_sorted_order(g)


def prism_ladder(k: int) -> cb.CubicGraph:
    """C_k x K2, 3k edges: outer cycle 0..k-1, inner cycle k..2k-1."""
    edges = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    return cb.build_graph(2 * k, edges + [(i, k + i) for i in range(k)])


def test_an_edge_that_strands_a_neighbour_is_not_taken():
    # node 0 is joined to node 1 by a parallel pair and to node 2, so taking
    # edge 0, 1-2, leaves node 0 no partner. Node 2's third edge goes to node
    # 3, which subdivides a ring edge of a 20-rung ladder with the higher ids.
    # A search that took edge 0 would walk about 2^20 partial matchings of the
    # ladder (seconds) before leaving edge 0 out.
    ring = [(4 + a, 4 + b) for a, b in prism_ladder(20).edges if (a, b) != (0, 1)]
    g = cb.build_graph(44, [(1, 2), (0, 1), (0, 1), (0, 2), (2, 3)] + ring + [(4, 3), (3, 5)])
    start = time.perf_counter()
    first = next(cb.iter_perfect_matchings(g))
    assert time.perf_counter() - start < 1
    assert {1, 4} <= first and 0 not in first


def test_the_matching_search_makes_no_python_call_per_edge():
    g = gen.isaacs_j(9)  # 54 edges; the recursive search made 79 219 calls here
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        ms = list(cb.iter_perfect_matchings(g))
    finally:
        sys.setprofile(None)
    assert len(ms) == 512
    # one call per resume of the generator, and the set-up's comprehensions
    assert calls < len(ms) + 20 * g.edge_count


def test_the_matching_depth_bound_is_the_recursion_limit_not_the_callers_stack():
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = max(depth + 20, 80)
    over, under = prism_ladder(limit + 1), prism_ladder(limit - 1)  # one matched edge per rung

    def first_from(frames: int) -> frozenset[int]:  # the first matching, asked `frames` calls down
        return first_from(frames - 1) if frames else next(cb.iter_perfect_matchings(under))

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        start = time.perf_counter()
        with pytest.raises(RecursionBudgetExceeded):
            next(cb.iter_perfect_matchings(over))
        assert time.perf_counter() - start < 1
        # a recursion of one frame per matched edge would overflow here
        assert len(first_from(limit - depth - 10)) == limit - 1
    finally:
        sys.setrecursionlimit(old)


def test_loops_never_appear_in_matchings():
    g = gen.dumbbell()
    assert cb.enumerate_perfect_matchings(g) == [frozenset({1})]


def test_validate_matching_rejects_bad_sets():
    g = gen.k4()
    with pytest.raises(NotAMatching):
        cb.validate_matching(g, {0, 1})  # shares a node
    with pytest.raises(NotAMatching):
        cb.validate_matching(g, {0})  # leaves nodes uncovered
    with pytest.raises(NotAMatching):
        cb.validate_matching(gen.dumbbell(), {0, 2})  # loops are not matchable
    with pytest.raises(NotAMatching):
        cb.validate_matching(g, {0, 99})
    # {0, 5} is a perfect matching of k4; ids are typed, not coerced with int()
    for not_ints in ([0.0, 5], ["5", 0], ["x"], None, [True, 4], [[0]]):
        with pytest.raises(NotAMatching):
            cb.validate_matching(g, not_ints)


@pytest.mark.parametrize("check", [cb.validate_matching, cb.complement_cycles, cb.is_even_matching,
                                   cb.colorings_from_even_matching, cb.logical_expansion_count,
                                   lambda g, m: cb.make_state(g, m, [cb.PARALLEL])])
def test_a_bare_int_is_not_a_matching(check):
    # on theta the set {0} is a perfect matching, but the int 0 is not a set
    g = gen.theta()
    check(g, {0})
    for bare in (0, None):
        with pytest.raises(NotAMatching):
            check(g, bare)


@pytest.mark.parametrize("check", [cb.complement_cycles, cb.is_even_matching,
                                   cb.colorings_from_even_matching, cb.logical_expansion_count])
def test_matching_entry_points_reject_bad_sets(check):
    g = gen.k4()
    for bad in ({0, 1}, {0}, {0, 99}):
        with pytest.raises(NotAMatching):
            check(g, bad)
    with pytest.raises(NotAMatching):
        check(gen.dumbbell(), {0, 2})


def test_each_matching_is_validated_at_most_once(monkeypatch):
    # matchings from the search are valid by construction; a public entry
    # validates the set it is given once
    real, seen = matching.validate_matching, []

    def counted(g, edge_ids):
        m = real(g, edge_ids)
        seen.append(m)
        return m

    for module in (matching, state_calculus):
        monkeypatch.setattr(module, "validate_matching", counted)
    g = gen.k33()
    assert cb.count_from_even_matchings(g) == 12 and seen == []
    m = cb.enumerate_perfect_matchings(g)[0]
    for check in (lambda: cb.make_state(g, m, [cb.PARALLEL] * 3),
                  lambda: cb.logical_expansion_count(g, m),
                  lambda: cb.complement_cycles(g, m)):
        seen.clear()
        check()
        assert seen == [m]


def test_complement_cycles_on_theta():
    g = gen.theta()
    cycles = cb.complement_cycles(g, {0})
    assert [len(c) for c in cycles] == [2]
    assert sorted(cycles[0]) == [1, 2]
    # both nodes sit on the single cycle, one arrival and one departure each
    (site,) = cb.make_state(g, {0}, [cb.PARALLEL]).sites
    for n, (depart, arrive) in zip(g.edges[0], (site.ends_u, site.ends_v)):
        assert depart != arrive
        assert g.half_edge_node(arrive) == n
        assert g.half_edge_node(depart) == n


def test_complement_cycles_are_node_disjoint_and_cover():
    g = gen.truncated_tetrahedron()
    for m in cb.enumerate_perfect_matchings(g):
        cycles = cb.complement_cycles(g, m)
        edges_seen = [e for cyc in cycles for e in cyc]
        assert sorted(edges_seen) == sorted(set(range(g.edge_count)) - set(m))
        # every node lies on exactly one cycle
        on = [0] * g.node_count
        for cyc in cycles:
            for n in {n for e in cyc for n in g.edges[e]}:
                on[n] += 1
        assert on == [1] * g.node_count


def test_petersen_complements_are_five_five():
    g = gen.petersen()
    for m in cb.enumerate_perfect_matchings(g):
        cycles = cb.complement_cycles(g, m)
        assert sorted(len(c) for c in cycles) == [5, 5]
        assert not cb.is_even_matching(g, m)


def test_dumbbell_complement_is_two_odd_loops():
    g = gen.dumbbell()
    cycles = cb.complement_cycles(g, {1})
    assert sorted(len(c) for c in cycles) == [1, 1]
    # each loop edge leaves from endpoint 0 and arrives back at endpoint 1
    assert cycles == ((0,), (2,))
    (site,) = cb.make_state(g, {1}, [cb.PARALLEL]).sites
    assert (site.ends_u, site.ends_v) == ((0, 1), (4, 5))
    assert not cb.is_even_matching(g, {1})


def test_even_matching_expands_to_proper_colorings():
    for name in ("theta", "k4", "prism", "k33"):
        g = getattr(gen, name)()
        for m in cb.enumerate_perfect_matchings(g):
            if not cb.is_even_matching(g, m):
                continue
            cycles = cb.complement_cycles(g, m)
            cs = cb.colorings_from_even_matching(g, m)
            assert len(cs) == 2 ** len(cycles)
            assert len(set(cs)) == len(cs)
            for c in cs:
                assert cb.is_proper(g, c)
                assert all(c[e] == cb.PURPLE for e in m)


def test_expansion_is_empty_exactly_on_odd_matchings():
    # a matching with an odd complement cycle is the purple class of no coloring
    graphs = [getattr(gen, name)() for name in MATCHING_TABLE]
    graphs += [gen.isaacs_j(j) for j in (3, 4, 5)]
    draws = (gen.random_cubic(n, seed) for n in (8, 10, 12) for seed in range(10))
    graphs += [g for g in draws if not cb.has_loop(g)][:6]
    for g in graphs:
        for m in cb.enumerate_perfect_matchings(g):
            cs = cb.colorings_from_even_matching(g, m)
            even = cb.is_even_matching(g, m)
            assert len(cs) == (2 ** len(cb.complement_cycles(g, m)) if even else 0), g
            assert all(cb.is_proper(g, c) for c in cs)


def test_expansions_partition_all_colorings():
    # each proper coloring appears under exactly one perfect matching, and an
    # odd one expands to none
    for name in ("theta", "k4", "prism", "k33", "truncated_tetrahedron", "petersen", "dumbbell"):
        g = getattr(gen, name)()
        collected: list[tuple[int, ...]] = []
        for m in cb.enumerate_perfect_matchings(g):
            collected.extend(cb.colorings_from_even_matching(g, m))
        assert sorted(collected) == sorted(cb.enumerate_colorings(g)), name


def test_matching_from_coloring_inverts_expansion():
    g = gen.k33()
    for c in cb.enumerate_colorings(g):
        m = cb.matching_from_coloring(g, c, cb.PURPLE)
        assert cb.is_even_matching(g, m)
        assert all(c[e] == cb.PURPLE for e in m)
        assert c in cb.colorings_from_even_matching(g, m)


def test_no_perfect_matching_cases():
    assert cb.enumerate_perfect_matchings(gen.double_dumbbell()) == []
    assert cb.count_from_even_matchings(gen.double_dumbbell()) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_even_matching_count_equals_backtracking(seed: int) -> None:
    g = gen.random_cubic(10, seed)
    assert cb.count_from_even_matchings(g) == cb.count_colorings(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_coloring_purple_class_is_even_matching(seed: int) -> None:
    g = gen.random_cubic(8, seed)
    for c in cb.enumerate_colorings(g):
        m = cb.matching_from_coloring(g, c, cb.PURPLE)
        assert cb.is_even_matching(g, m)
