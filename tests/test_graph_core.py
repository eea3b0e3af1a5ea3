"""Half-edge graph construction, traversal helpers, and JSON wire format."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

import chromatic_bracket as cb
from chromatic_bracket import generators as gen
from chromatic_bracket import penrose
from chromatic_bracket.cli import _load_file
from chromatic_bracket.errors import DegreeViolation, ParseError, UnmatchedPort
from chromatic_bracket.graph_core import components, connected_components, min_fill_order, tightest_first


def test_build_graph_theta():
    g = cb.build_graph(2, [(0, 1), (0, 1), (0, 1)])
    assert g.node_count == 2
    assert g.edges == ((0, 1), (0, 1), (0, 1))


def test_the_constructor_normalizes_edges_as_build_graph_does():
    g = cb.CubicGraph(2, [[0, 1]] * 3)
    assert g == cb.build_graph(2, [(0, 1)] * 3) and g.edges == ((0, 1),) * 3
    assert hash(g) == hash(cb.build_graph(2, [(0, 1)] * 3))


def test_half_edge_endpoints():
    g = gen.k4()
    for e, (u, v) in enumerate(g.edges):
        assert g.half_edge_node(2 * e) == u
        assert g.half_edge_node(2 * e + 1) == v


def test_loops_count_twice_toward_degree():
    # dumbbell: loop, bridge, loop
    g = cb.build_graph(2, [(0, 0), (0, 1), (1, 1)])
    assert g.edges[0] == (0, 0)
    assert cb.has_loop(g)
    assert not cb.has_loop(gen.k4())


def test_degree_must_be_exactly_three():
    with pytest.raises(DegreeViolation):
        cb.build_graph(2, [(0, 1), (0, 1)])
    with pytest.raises(DegreeViolation):
        cb.build_graph(2, [(0, 1), (0, 1), (0, 1), (0, 1)])
    with pytest.raises(DegreeViolation):
        cb.build_graph(3, [(0, 1), (0, 1), (0, 1)])


def test_the_empty_graph_answers_every_method():
    # no node and no edge: one coloring, the empty one, and one empty perfect matching
    g = cb.build_graph(0, [])
    assert cb.count_colorings(g) == cb.count_from_even_matchings(g) == cb.logical_expansion_count(g, []) == 1
    assert cb.enumerate_colorings(g) == [()] and cb.enumerate_perfect_matchings(g) == [frozenset()]
    assert not cb.is_connected(g)  # connected means one component, and it has none
    d = cb.chord_immersion(g)
    assert d == cb.Diagram(0, (), ()) and cb.genus(d) == 0
    assert cb.contract_plain(d) == cb.contract_extended(d) == cb.skein_evaluate(d) == 1
    for k in range(4):  # each free loop weighs 3 in the bracket, and none in the graph
        nodeless = cb.Diagram(0, (), (), k)
        assert cb.count_colorings(cb.underlying_graph(nodeless)) == 1
        assert cb.contract_plain(nodeless) == cb.contract_extended(nodeless) == cb.skein_evaluate(nodeless) == 3**k


def test_node_ids_validated():
    with pytest.raises(ValueError):
        cb.build_graph(2, [(0, 1), (0, 1), (0, 2)])
    with pytest.raises(ValueError):
        cb.build_graph(2, [(0, 1), (0, 1), (0, -1)])


def test_connectivity_helpers():
    assert cb.is_connected(gen.petersen())
    two_thetas = cb.build_graph(4, [(0, 1)] * 3 + [(2, 3)] * 3)
    assert not cb.is_connected(two_thetas)
    comps = cb.connected_components(two_thetas)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3]]
    # BFS order, which the brute-force edge order is read from
    assert cb.connected_components(gen.petersen()) == [[0, 1, 4, 5, 2, 6, 3, 9, 7, 8]]


def test_bridges_on_fixtures():
    assert cb.bridges_per_component(gen.theta()) == frozenset()
    assert cb.bridges_per_component(gen.k4()) == frozenset()
    assert cb.bridges_per_component(gen.petersen()) == frozenset()
    # dumbbell's middle edge is its only bridge
    g = gen.dumbbell()
    assert cb.bridges_per_component(g) == frozenset({1})
    assert g.edges[1] == (0, 1)


def test_bridges_per_component_handles_disconnection():
    two = cb.build_graph(4, [(0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3)])
    assert cb.bridges_per_component(two) == frozenset({1, 4})


def test_double_dumbbell_bridges_are_all_non_loop_edges():
    g = gen.double_dumbbell()
    non_loops = frozenset(e for e, (u, v) in enumerate(g.edges) if u != v)
    assert cb.bridges_per_component(g) == non_loops
    assert len(non_loops) == 5


def bridges_by_definition(g: cb.CubicGraph) -> frozenset[int]:
    """The non-loop edges whose endpoints fall into different components once
    that edge is removed."""
    out = set()
    for e, (u, v) in enumerate(g.edges):
        neighbours: list[list[int]] = [[] for _ in range(g.node_count)]
        for f, (a, b) in enumerate(g.edges):
            if f != e:
                neighbours[a].append(b)
                neighbours[b].append(a)
        if u != v and not any(u in part and v in part for part in components(neighbours)):
            out.add(e)
    return frozenset(out)


def open_ladder(rungs: int) -> cb.CubicGraph:
    """A ladder whose end rungs are doubled, rungs listed before rails: a BFS
    tree from node 0 runs down both rails, so each later rung's tree path
    climbs back to the first rung."""
    ends = [(0, 1), (2 * rungs - 2, 2 * rungs - 1)]
    rails = [(2 * i + s, 2 * i + 2 + s) for i in range(rungs - 1) for s in (0, 1)]
    return cb.build_graph(2 * rungs, [(2 * i, 2 * i + 1) for i in range(rungs)] + ends + rails)


cubic_draws = st.builds(gen.random_cubic, st.integers(1, 12).map(lambda k: 2 * k), st.integers(0, 10**6))


@settings(deadline=None)
@given(cubic_draws)
def test_bridges_are_the_edges_whose_removal_splits_a_component(g):
    # random_cubic keeps its loops and parallel twins
    want = bridges_by_definition(g)
    assert cb.bridges_per_component(g) == want


@settings(deadline=None)
@given(cubic_draws, cubic_draws)
def test_bridges_per_component_on_disjoint_unions(a, b):
    shifted = [(u + a.node_count, v + a.node_count) for u, v in b.edges]
    g = cb.build_graph(a.node_count + b.node_count, list(a.edges) + shifted)
    assert cb.bridges_per_component(g) == bridges_by_definition(g)


def test_an_open_ladder_has_no_bridges():
    assert bridges_by_definition(open_ladder(6)) == frozenset()
    g = open_ladder(8000)
    assert cb.bridges_per_component(g) == frozenset()


def test_graph_json_round_trip_bit_exact():
    for g in (gen.theta(), gen.dumbbell(), gen.k33(), gen.petersen()):
        text = json.dumps(cb.graph_to_json_dict(g))
        again = cb.graph_from_json_dict(json.loads(text))
        assert again == g
        assert json.dumps(cb.graph_to_json_dict(again)) == text


def test_graph_json_parse_errors():
    with pytest.raises(ParseError):
        cb.graph_from_json_dict({"nodes": 2})
    with pytest.raises(ParseError):
        cb.graph_from_json_dict({"nodes": 2, "edges": [[0, "a"], [0, 1]]})
    with pytest.raises(ParseError):
        cb.graph_from_json_dict([1, 2, 3])
    # semantic failures keep their specific types
    with pytest.raises(DegreeViolation):
        cb.graph_from_json_dict({"nodes": 2, "edges": [[0, 1], [0, 1]]})
    with pytest.raises(ParseError):
        cb.graph_from_json_dict({"nodes": 2, "edges": [[0, 1], [0, 1], [0, 5]]})


def test_graph_json_rejects_bools_as_ints():
    # true/false would otherwise be read as node 1/0 (the first is a theta)
    with pytest.raises(ParseError):
        cb.graph_from_json_dict(json.loads('{"nodes": 2, "edges": [[0, 1], [0, 1], [false, true]]}'))
    with pytest.raises(ParseError):
        cb.graph_from_json_dict({"nodes": 2, "edges": [[0, 1], [0, 1], [True, 1]]})
    with pytest.raises(ParseError):
        cb.graph_from_json_dict({"nodes": True, "edges": [[0, 0], [0, 0]]})


def test_graph_json_dict_form():
    g = gen.prism()
    d = cb.graph_to_json_dict(g)
    assert d["nodes"] == 6
    assert len(d["edges"]) == 9
    assert cb.graph_from_json_dict(d) == g


def test_huge_node_count_is_a_degree_violation_not_an_allocation():
    # the degree table is bounded by what the edges can reach, so a node
    # count far past any memory still reports the lowest bad node
    with pytest.raises(DegreeViolation) as info:
        cb.graph_from_json_dict({"nodes": 10**15, "edges": []})
    assert (info.value.node, info.value.degree) == (0, 0)
    with pytest.raises(DegreeViolation) as info:
        cb.build_graph(10**15, [(0, 1), (0, 1), (0, 1)])
    assert (info.value.node, info.value.degree) == (2, 0)
    with pytest.raises(DegreeViolation) as info:
        cb.build_graph(10**15, [(0, 1), (0, 1), (0, 2)])
    assert (info.value.node, info.value.degree) == (1, 2)


def test_huge_diagram_node_count_is_an_unmatched_port_not_an_allocation():
    # the coverage table is bounded by the arcs, as the degree table is by the edges
    with pytest.raises(UnmatchedPort) as info:
        cb.build_diagram(10**9, (), [])
    assert str(info.value) == "port ['n', 0, 0] is covered 0 times, expected 1"


def test_graph_json_integer_past_the_digit_limit_is_a_parse_error(tmp_path):
    # JSON text is decoded in one place, the CLI's file reader
    path = tmp_path / "long.json"
    for text in ('{"nodes": 1' + "0" * 5000 + ', "edges": []}',
                 '{"nodes": [], "crossings": [], "arcs": [], "free_loops": 1' + "0" * 5000 + "}"):
        path.write_text(text)
        with pytest.raises(ParseError):
            _load_file(str(path))


@st.composite
def neighbour_lists(draw) -> list[list[int]]:
    """An undirected graph on at most 12 vertices as neighbour lists: isolated
    vertices, self-references and repeated neighbours included, in any order."""
    n = draw(st.integers(0, 12))
    lists: list[list[int]] = [[] for _ in range(n)]
    if n:
        for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
            lists[u].append(v)
            lists[v].append(u)
    return [draw(st.permutations(ns)) for ns in lists]


def greedy_min_fill(neighbours: list[list[int]]) -> list[int]:
    """The same greedy rule, every live vertex rescored at every step."""
    adj = {v: set(ns) - {v} for v, ns in enumerate(neighbours)}
    order = []
    while adj:
        def key(v):
            return sum(b not in adj[a] for a, b in itertools.combinations(adj[v], 2)), len(adj[v]), v
        v = min(adj, key=key)
        ns = adj.pop(v)
        for a in ns:
            adj[a] |= ns
            adj[a] -= {a, v}
        order.append(v)
    return order


@settings(max_examples=200, deadline=None)
@given(neighbour_lists())
def test_min_fill_order_is_the_greedy_permutation(neighbours):
    order = min_fill_order(neighbours)
    assert sorted(order) == list(range(len(neighbours)))
    assert order == greedy_min_fill(neighbours)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 10**6), max_size=30))
def test_min_fill_order_eliminates_a_tree_without_fill(draws):
    # vertex i + 1 hangs from an earlier vertex; a tree vertex with two live
    # neighbours would need a fill edge, so every step takes a leaf
    neighbours: list[list[int]] = [[] for _ in range(len(draws) + 1)]
    for i, r in enumerate(draws):
        neighbours[i + 1].append(r % (i + 1))
        neighbours[r % (i + 1)].append(i + 1)
    order = min_fill_order(neighbours)
    rank = {v: i for i, v in enumerate(order)}
    assert all(sum(rank[w] > rank[v] for w in neighbours[v]) <= 1 for v in order)


def test_min_fill_order_keeps_its_orders():
    # a digest over the orders the skein ranks its nodes by: node adjacency
    # (nodes sharing a strand) of plane diagrams and of chord immersions
    diagrams = [gen.random_plane_cubic(n, seed) for n in range(2, 81, 2) for seed in range(5)]
    diagrams += [cb.chord_immersion(gen.random_cubic(n, seed)) for n in range(4, 15, 2) for seed in range(5)]
    digest = hashlib.sha256()
    for d in diagrams:
        k, nodes, _ = cb.trace_strands(d)
        digest.update(str(min_fill_order(penrose._node_adjacency(k, nodes)[1])).encode())
    assert digest.hexdigest() == "2327af30000ff002b96319169d209ca382da5bf5726eb6691bb7d74ad1f82c5a"


def test_min_fill_order_breaks_ties_by_degree_then_vertex():
    # path 0-1-2 and isolated 3: fill 0 at 0, 2 and 3; 3 has the lowest degree
    assert min_fill_order([[1], [0, 2], [1], []]) == [3, 0, 1, 2]
    # 4-cycle: every vertex misses one edge at degree 2, then a triangle
    cycle = [[1, 3], [0, 2], [1, 3], [2, 0]]
    assert min_fill_order(cycle) == [0, 1, 2, 3]
    assert min_fill_order([list(reversed(ns)) for ns in cycle]) == [0, 1, 2, 3]


@st.composite
def grouped_parts(draw) -> tuple[list[list[int]], list[list[int]]]:
    """Items 0..n-1 shuffled into parts, and groups of distinct items, each
    within one part (repeated and single-item groups included)."""
    items = draw(st.permutations(range(draw(st.integers(0, 14)))))
    cuts = sorted(draw(st.lists(st.integers(0, len(items)), max_size=3)))
    parts = [list(items[a:b]) for a, b in zip([0, *cuts], [*cuts, len(items)])]
    groups = [draw(st.lists(st.sampled_from(part), min_size=1, max_size=4, unique=True))
              for part in parts if part for _ in range(draw(st.integers(0, 6)))]
    return groups, parts


def greedy_tightest(groups: list[list[int]], parts: list[list[int]]) -> list[list[int]]:
    """The same rule, every unplaced item recounted at every step."""
    orders = []
    for part in parts:
        order = list(part[:3])
        rest = list(part[3:])
        while rest:
            def key(x):
                return sum(len(set(g) & set(order)) for g in groups if x in g), -part.index(x)
            x = max(rest, key=key)
            rest.remove(x)
            order.append(x)
        orders.append(order)
    return orders


@settings(max_examples=200, deadline=None)
@given(grouped_parts())
def test_tightest_first_is_the_greedy_permutation(case):
    groups, parts = case
    orders = tightest_first(groups, parts)
    assert [sorted(o) for o in orders] == [sorted(p) for p in parts]
    assert [o[:3] for o in orders] == [p[:3] for p in parts]
    assert orders == greedy_tightest(groups, parts)


def test_tightest_first_counts_per_shared_group_and_breaks_ties_by_position():
    # 4 shares two groups with 0, 3 one group with 1
    assert tightest_first([[0, 4], [0, 4], [1, 3]], [[0, 1, 2, 3, 4]]) == [[0, 1, 2, 4, 3]]
    # 9 and 8 both share one group with 5: 9 sits earlier in the part
    assert tightest_first([[5, 8], [5, 9]], [[5, 6, 7, 9, 8]]) == [[5, 6, 7, 9, 8]]
    assert tightest_first([[5, 8], [5, 9]], [[5, 6, 7, 8, 9]]) == [[5, 6, 7, 8, 9]]


def test_tightest_first_falls_back_to_the_earliest_unplaced_item():
    assert tightest_first([[2, 5]], [[0, 1, 2, 3, 4, 5]]) == [[0, 1, 2, 5, 3, 4]]
    assert tightest_first([], [[4, 3, 2, 1, 0], [], [7, 6]]) == [[4, 3, 2, 1, 0], [], [7, 6]]


def test_tightest_first_is_pinned_on_petersen_and_isaacs_j5():
    # the brute-force edge orders from before the helper moved to graph_core
    def order(g):
        bfs = [list(dict.fromkeys(h // 2 for n in nodes for h in g.incidence[n]))
               for nodes in connected_components(g)]  # each component's edges in BFS order
        return tightest_first([[h // 2 for h in hs] for hs in g.incidence], bfs)
    assert order(gen.petersen()) == [[0, 4, 5, 1, 6, 3, 9, 2, 7, 10, 12, 14, 13, 11, 8]]
    assert order(gen.isaacs_j(5)) == [[0, 4, 5, 1, 6, 3, 9, 2, 7, 8, 10, 15, 11, 16, 20, 29,
                                       19, 14, 24, 25, 21, 12, 17, 26, 23, 22, 13, 18, 28, 27]]
