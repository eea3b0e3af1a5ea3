"""Immersed diagrams: ports, strands, faces, genus, and chord layouts."""

from __future__ import annotations

import copy
import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.vendor.pretty import pretty

import chromatic_bracket as cb
from chromatic_bracket import CIRCLED, DOTTED, PLAIN
from chromatic_bracket import diagram as diagram_module
from chromatic_bracket import generators as gen
from chromatic_bracket.errors import ChromaticBracketError, NotPlane, ParseError, StrandClosesWithoutNode, UnmatchedPort

N = lambda o, s: ("n", o, s)
X = lambda o, s: ("x", o, s)


def edge_multiset(g: cb.CubicGraph) -> Counter:
    return Counter(tuple(sorted(e)) for e in g.edges)


def port_arcs(d: cb.Diagram) -> list[tuple[tuple, tuple]]:
    """The arcs of d as pairs of (kind, owner, slot) tuples, read off its JSON."""
    return [(tuple(p), tuple(q)) for p, q in cb.diagram_to_json_dict(d)["arcs"]]


def code_port(d: cb.Diagram, c: int) -> tuple:
    """The (kind, owner, slot) tuple of port code c of d."""
    base = 3 * d.node_count
    return ("n", *divmod(c, 3)) if c < base else ("x", *divmod(c - base, 4))


def port_code(d: cb.Diagram, p: tuple) -> int:
    """The port code of port p = (kind, owner, slot) of d."""
    kind, owner, slot = p
    return 3 * owner + slot if kind == "n" else 3 * d.node_count + 4 * owner + slot


def test_build_diagram_canonicalizes_arc_order():
    a = gen.theta_diagram()
    shuffled = cb.build_diagram(
        a.node_count, a.crossing_kinds, list(reversed([tuple(reversed(arc)) for arc in port_arcs(a)]))
    )
    assert shuffled == a
    assert cb.diagram_to_json_dict(shuffled) == cb.diagram_to_json_dict(a)


def test_build_diagram_validates_port_coverage():
    with pytest.raises(UnmatchedPort):
        cb.build_diagram(2, (), [(N(0, 0), N(1, 0)), (N(0, 1), N(1, 1))])
    with pytest.raises(UnmatchedPort):
        cb.build_diagram(
            2, (), [(N(0, 0), N(1, 0)), (N(0, 1), N(1, 1)), (N(0, 2), N(1, 2)), (N(0, 0), N(1, 2))]
        )
    with pytest.raises(UnmatchedPort):
        cb.build_diagram(2, (), [(N(0, 0), N(0, 0)), (N(0, 1), N(1, 1)), (N(0, 2), N(1, 2))])


THETA_ARCS = [(N(0, 0), N(1, 0)), (N(0, 1), N(1, 2)), (N(0, 2), N(1, 1))]


@pytest.mark.parametrize(
    "node_count, kinds, arcs, message",
    [
        (2, (), [(N(0, 0), N(0, 0))] + THETA_ARCS[1:],
         "arc joins port ['n', 0, 0] to itself"),
        # the first missing port in sorted arc order, not the lowest missing port
        (2, (), THETA_ARCS[:2] + [(N(0, 2), N(1, 3)), (N(0, 3), N(1, 1))],
         "port ['n', 1, 3] does not exist"),
        (2, (), THETA_ARCS + [(N(1, 3), N(2, 0))],
         "port ['n', 1, 3] does not exist"),
        (2, (), THETA_ARCS + [(N(0, 0), X(0, 0))],
         "port ['x', 0, 0] does not exist"),
        (2, (PLAIN,), THETA_ARCS + [(X(0, 4), X(0, 0))],
         "port ['x', 0, 4] does not exist"),
        (2, (), THETA_ARCS[:2], "port ['n', 0, 2] is covered 0 times, expected 1"),
        (2, (), THETA_ARCS + [(N(0, 0), N(1, 1))],
         "port ['n', 0, 0] is covered 2 times, expected 1"),
        # node ports are checked before crossing ports
        (2, (PLAIN,), [(X(0, 0), X(0, 1))] + THETA_ARCS[1:],
         "port ['n', 0, 0] is covered 0 times, expected 1"),
        (2, (PLAIN,), THETA_ARCS + [(X(0, 0), X(0, 1)), (X(0, 2), X(0, 1))],
         "port ['x', 0, 1] is covered 2 times, expected 1"),
    ],
    ids=["joins itself", "first in sorted arc order", "first in its arc", "no crossing", "no slot 4", "uncovered",
         "covered twice", "node ports first", "crossing port covered twice"],
)
def test_build_diagram_error_messages(node_count, kinds, arcs, message):
    # the ports given as lists, as a diagram JSON gives them, and the JSON reader reports the same port
    data = {"nodes": [{"id": n} for n in range(node_count)],
            "crossings": [{"id": x, "kind": k} for x, k in enumerate(kinds)],
            "arcs": [[list(p), list(q)] for p, q in arcs]}
    with pytest.raises(UnmatchedPort) as info:
        cb.build_diagram(node_count, kinds, data["arcs"])
    assert str(info.value) == message
    with pytest.raises(ParseError) as info:
        cb.diagram_from_json_dict(data)
    assert str(info.value) == message


def test_a_refusal_shows_the_port_as_given():
    # the caller's spelling of a port that does not exist, and the JSON spelling of one not covered
    for port, spelled in ((N(1, 3), "('n', 1, 3)"), (["n", 1, 3], "['n', 1, 3]")):
        with pytest.raises(UnmatchedPort) as info:
            cb.build_diagram(2, (), THETA_ARCS[:2] + [(N(0, 2), port)])
        assert str(info.value) == f"port {spelled} does not exist"
    with pytest.raises(UnmatchedPort) as info:
        cb.build_diagram(2, (), THETA_ARCS[:2])
    assert str(info.value) == "port ['n', 0, 2] is covered 0 times, expected 1"


def test_build_diagram_validates_kinds_and_slots():
    with pytest.raises(ValueError):
        cb.build_diagram(2, ("wavy",), [(N(0, 0), N(1, 0))])
    with pytest.raises(UnmatchedPort):
        cb.build_diagram(2, (), [(N(0, 0), N(1, 0)), (N(0, 1), N(1, 1)), (N(0, 2), N(1, 3))])


def test_trace_strand_without_crossings():
    # each strand is one arc, and arcs are sorted by their lower port, by
    # which strands are numbered: strand e is arc e
    for d in (gen.theta_diagram(), gen.prism_diagram(), gen.random_plane_cubic(20, 3)):
        k, triples, axes = cb.trace_strands(d)
        assert (k, axes) == (len(d.code_arcs), [])
        for e, ((_, u, s), (_, v, t)) in enumerate(port_arcs(d)):
            assert triples[u][s] == triples[v][t] == e


def test_plane_fixture_face_counts():
    # frozen: faces checked by hand against drawings of each fixture
    assert len(cb.trace_faces(gen.theta_diagram())) == 3
    assert len(cb.trace_faces(gen.dumbbell_diagram())) == 3
    assert len(cb.trace_faces(gen.k4_diagram())) == 4
    assert len(cb.trace_faces(gen.prism_diagram())) == 5
    for d in (gen.theta_diagram(), gen.dumbbell_diagram(), gen.k4_diagram(), gen.prism_diagram()):
        assert cb.genus(d) == 0
        assert d.crossing_count == 0


def test_k33_fixture_diagram():
    d = gen.k33_diagram()
    assert d.crossing_kinds == (CIRCLED,)
    assert len(cb.trace_faces(d)) == 6
    assert cb.genus(d) == 0
    assert edge_multiset(cb.underlying_graph(d)) == edge_multiset(gen.k33())


def test_slot_swap_changes_genus():
    # rerouting one node's rotation turns the plane tetrahedron drawing
    # into a genus-1 drawing of the same multigraph
    scrambled = _scrambled_k4()
    assert len(cb.trace_faces(scrambled)) == 2
    assert cb.genus(scrambled) == 1
    assert edge_multiset(cb.underlying_graph(scrambled)) == edge_multiset(gen.k4())


def test_underlying_graph_of_theta_diagram():
    d = gen.theta_diagram()
    assert cb.underlying_graph(d) == gen.theta()
    # strand e is edge e, numbered by lowest node port
    assert cb.trace_strands(d) == (3, [(0, 1, 2), (0, 2, 1)], [])
    # the closed strand of an encircled arc comes after the node strands
    k, triples, axes = cb.trace_strands(cb.encircle_arc(d, 0))
    assert (k, triples, axes) == (4, [(0, 1, 2), (0, 2, 1)], [[0, 3]])


def test_underlying_graph_rejects_nodeless_strands():
    d = cb.build_diagram(0, (PLAIN,), [(X(0, 0), X(0, 1)), (X(0, 2), X(0, 3))])
    with pytest.raises(StrandClosesWithoutNode):
        cb.underlying_graph(d)


def test_crossing_axis_edges_on_immersion():
    d = cb.chord_immersion(gen.k4())
    k, triples, axes = cb.trace_strands(d)
    assert k == 6 and len(axes) == d.crossing_count
    walked = set()
    strand = reference_strands(d, port_mate(port_arcs(d)))[3]
    for n, triple in enumerate(triples):
        for slot, e in enumerate(triple):
            _, walk = strand(N(n, slot))
            for x, s in walk:
                assert axes[x][s % 2] == e
                walked.add((x, s % 2))
    assert len(walked) == 2 * d.crossing_count


def assert_drawn_in_order(d: cb.Diagram, g: cb.CubicGraph, order: list[int]) -> None:
    """d is a plane immersion of g whose crossing strand pairs are exactly the
    strands whose ports interleave when node v's slot s sits at 3 * order.index(v) + s."""
    assert cb.genus(d) == 0
    assert all(k == CIRCLED for k in d.crossing_kinds)
    assert edge_multiset(cb.underlying_graph(d)) == edge_multiset(g)
    k, triples, axes = cb.trace_strands(d)
    ends = [[] for _ in range(k)]
    for v, triple in enumerate(triples):
        for s, e in enumerate(triple):
            ends[e].append(3 * order.index(v) + s)
    lo, hi = zip(*(sorted(pair) for pair in ends))
    interleaving = [
        tuple(sorted((e, f))) for e in range(k) for f in range(k) if lo[e] < lo[f] < hi[e] < hi[f]
    ]
    assert sorted(tuple(sorted(axis)) for axis in axes) == sorted(interleaving)


def test_chord_immersion_round_trips_every_fixture():
    fixtures = [
        gen.theta(), gen.dumbbell(), gen.double_dumbbell(), gen.k4(), gen.prism(),
        gen.k33(), gen.petersen(), gen.truncated_tetrahedron(), gen.isaacs_j(3),
        gen.random_cubic(26, 1),
    ]
    for g in fixtures:
        assert_drawn_in_order(cb.chord_immersion(g), g, list(range(g.node_count)))
    assert cb.chord_immersion(gen.random_cubic(26, 1)).crossing_count == 289


def test_chord_immersion_is_deterministic():
    a = cb.chord_immersion(gen.petersen())
    b = cb.chord_immersion(gen.petersen())
    assert a == b


def test_chord_immersion_respects_node_order():
    g = gen.k4()
    a = cb.chord_immersion(g)
    b = cb.chord_immersion(g, node_order=[3, 2, 1, 0])
    assert_drawn_in_order(b, g, [3, 2, 1, 0])
    assert a != b
    g = gen.random_cubic(26, 1)
    order = [(7 * v) % 26 for v in range(26)]
    assert_drawn_in_order(cb.chord_immersion(g, node_order=order), g, order)


def test_theta_chord_immersion_crossing_count():
    # three mutually crossing chords over the spine
    d = cb.chord_immersion(gen.theta())
    assert d.crossing_count == 3
    assert len(cb.trace_faces(d)) == 6


def test_diagram_json_round_trip_bit_exact():
    for d in (
        gen.theta_diagram(),
        gen.k33_diagram(),
        cb.chord_immersion(gen.prism()),
        cb.build_diagram(0, (), [], free_loops=2),
    ):
        text = json.dumps(cb.diagram_to_json_dict(d))
        again = cb.diagram_from_json_dict(json.loads(text))
        assert again == d
        assert json.dumps(cb.diagram_to_json_dict(again)) == text


def test_diagram_json_parse_errors():
    with pytest.raises(ParseError):
        cb.diagram_from_json_dict([])
    with pytest.raises(ParseError):
        cb.diagram_from_json_dict({"nodes": [], "crossings": []})
    with pytest.raises(ParseError):
        cb.diagram_from_json_dict({"nodes": [], "crossings": [], "arcs": [[["n", 0, 0]]]})


def test_diagram_json_rejects_bools_as_ints():
    # true/false would otherwise be read as 1/0; k33 has nodes and a crossing
    base = cb.diagram_to_json_dict(gen.k33_diagram())
    ports = [p for arc in base["arcs"] for p in arc]
    owner = next(i for i, p in enumerate(ports) if p[1] == 1)
    slot = next(i for i, p in enumerate(ports) if p[2] in (0, 1))

    def node_id(data):
        data["nodes"][1]["id"] = True

    def crossing_id(data):
        data["crossings"][0]["id"] = False

    def port_owner(data):
        data["arcs"][owner // 2][owner % 2][1] = True

    def port_slot(data):
        port = data["arcs"][slot // 2][slot % 2]
        port[2] = bool(port[2])

    def free_loops(data):
        data["free_loops"] = True

    assert cb.diagram_from_json_dict(copy.deepcopy(base)) == gen.k33_diagram()
    for mutate in (node_id, crossing_id, port_owner, port_slot, free_loops):
        data = copy.deepcopy(base)
        mutate(data)
        with pytest.raises(ParseError):
            cb.diagram_from_json_dict(data)


def _k33_with_a_repeated_crossing() -> dict:
    """k33's diagram JSON with its one crossing listed again, as plain."""
    data = cb.diagram_to_json_dict(gen.k33_diagram())
    data["crossings"].append({**data["crossings"][0], "kind": PLAIN})
    return data


def test_diagram_json_rejects_a_repeated_crossing_id():
    # a dict keyed by id would keep the last entry's kind, and the extended
    # bracket would read 0 in place of 12
    with pytest.raises(ParseError, match="crossing ids"):
        cb.diagram_from_json_dict(_k33_with_a_repeated_crossing())


def test_free_loops_survive_json():
    base = gen.theta_diagram()
    d = cb.Diagram(base.node_count, (), base.code_arcs, free_loops=3)
    assert cb.diagram_from_json_dict(json.loads(json.dumps(cb.diagram_to_json_dict(d)))).free_loops == 3


def test_dotted_kind_accepted():
    d = cb.build_diagram(
        0, (DOTTED,), [(X(0, 0), X(0, 1)), (X(0, 2), X(0, 3))]
    )
    assert d.crossing_kinds == (DOTTED,)


def _scrambled_k4() -> cb.Diagram:
    """The genus-1 drawing of K4: node 3's slots 0 and 1 swapped."""
    k4d = gen.k4_diagram()
    swap = {N(3, 0): N(3, 1), N(3, 1): N(3, 0)}
    return cb.build_diagram(
        k4d.node_count, k4d.crossing_kinds, [tuple(swap.get(p, p) for p in arc) for arc in port_arcs(k4d)]
    )


def _disjoint_union(a: cb.Diagram, b: cb.Diagram) -> cb.Diagram:
    def shift(p: tuple) -> tuple:
        kind, owner, slot = p
        return kind, owner + (a.node_count if kind == "n" else a.crossing_count), slot

    arcs = port_arcs(a) + [(shift(p), shift(q)) for p, q in port_arcs(b)]
    return cb.build_diagram(
        a.node_count + b.node_count, a.crossing_kinds + b.crossing_kinds, arcs
    )


def test_genus_adds_up_over_components():
    torus = _scrambled_k4()
    assert cb.genus(torus) == 1
    assert cb.genus(_disjoint_union(torus, gen.theta_diagram())) == 1
    assert cb.genus(_disjoint_union(gen.theta_diagram(), torus)) == 1
    assert cb.genus(_disjoint_union(torus, torus)) == 2
    assert cb.genus(_disjoint_union(gen.k33_diagram(), torus)) == 1
    assert cb.genus(_disjoint_union(gen.theta_diagram(), gen.k4_diagram())) == 0
    # crossings join the two copies of K4 into one diagram component
    k4 = gen.k4()
    g = cb.build_graph(8, list(k4.edges) + [(u + 4, v + 4) for u, v in k4.edges])
    d = cb.chord_immersion(g, node_order=[0, 4, 1, 5, 2, 6, 3, 7])
    assert d.crossing_count == 38 and len(cb.connected_components(g)) == 2
    assert cb.genus(d) == 0
    assert cb.count_colorings(g) == cb.contract_extended(d) == cb.skein_evaluate(d) == 36


def test_chord_immersion_refuses_a_layout_of_positive_genus(monkeypatch):
    # the genus check is a raise, not an assert, so it holds under python -O
    monkeypatch.setattr(diagram_module, "_chord_layout", lambda g, order: _scrambled_k4())
    with pytest.raises(NotPlane):
        cb.chord_immersion(gen.k4())


# ---------------------------------------------------------------------------
# the walks on port codes against walks on (kind, owner, slot) ports


def port_mate(arcs) -> dict[tuple, tuple]:
    """The pairing of ports that arcs make, built here so that the reference
    walks do not depend on the port-code table."""
    mate = {}
    for p, q in arcs:
        mate[p], mate[q] = q, p
    return mate


def reference_faces(mate: dict[tuple, tuple]) -> list[list[tuple]]:
    """Face walks stepping port by port: over the arc, then one slot clockwise."""
    faces, seen = [], set()
    for start in sorted(mate):
        walk, p = [], start
        while p not in seen:
            seen.add(p)
            walk.append(p)
            kind, owner, slot = mate[p]
            p = kind, owner, (slot + 1) % (3 if kind == "n" else 4)
        if walk:
            faces.append(walk)
    return faces


def reference_genus(d: cb.Diagram, mate: dict[tuple, tuple]) -> int:
    vertex = lambda p: p[1] if p[0] == "n" else d.node_count + p[1]
    root = list(range(d.node_count + d.crossing_count))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for p, q in mate.items():
        root[find(vertex(p))] = find(vertex(q))
    c = sum(1 for v in range(len(root)) if find(v) == v)
    return (2 * c - len(root) + len(mate) // 2 - len(reference_faces(mate))) // 2


def reference_strands(d: cb.Diagram, mate: dict[tuple, tuple]):
    """trace_strands through mate on ports: a strand leaves crossing slot s at s + 2."""
    def strand(start):
        walk, cur = [], mate[start]
        while cur[0] == "x":
            walk.append(cur[1:])
            cur = mate[X(cur[1], (cur[2] + 2) % 4)]
        return cur, walk

    triples = [[-1, -1, -1] for _ in range(d.node_count)]
    axes = [[-1, -1] for _ in range(d.crossing_count)]
    k = 0
    for n, triple in enumerate(triples):
        for s in range(3):
            if triple[s] < 0:
                end, walk = strand(N(n, s))
                triple[s] = triples[end[1]][end[2]] = k
                for x, slot in walk:
                    axes[x][slot % 2] = k
                k += 1
    for x, pair in enumerate(axes):
        for axis in (0, 1):
            if pair[axis] < 0:
                _, y, slot = X(x, axis)
                while axes[y][slot % 2] < 0:
                    axes[y][slot % 2] = k
                    _, y, slot = mate[X(y, (slot + 2) % 4)]
                k += 1
    return k, [tuple(t) for t in triples], axes, strand


@st.composite
def walk_diagrams(draw) -> tuple[cb.Diagram, list[tuple[tuple, tuple]]]:
    """A plane diagram, a chord immersion in input or reversed node order, a
    nodeless ring of crossings, or any pairing of the ports of a few nodes and
    crossings (of any genus); maybe with arcs encircled or twisted, crossings
    of mixed kinds and free loops. Returned with the arcs build_diagram was
    given, in a drawn order, each maybe reversed."""
    source = draw(st.sampled_from(("plane", "chord", "reversed chord", "ring", "pairing")))
    if source == "plane":
        d = gen.random_plane_cubic(draw(st.integers(1, 20)) * 2, draw(st.integers(0, 99)))
    elif source.endswith("chord"):
        g = gen.random_cubic(draw(st.integers(1, 8)) * 2, draw(st.integers(0, 99)))
        order = list(range(g.node_count))
        d = cb.chord_immersion(g, order[::-1] if source == "reversed chord" else order)
    elif source == "ring":
        k = draw(st.integers(1, 5))
        arcs = [(X(x, 2 + a), X((x + 1) % k, a)) for x in range(k) for a in (0, 1)]
        d = cb.build_diagram(0, (PLAIN,) * k, arcs)
    else:
        nodes = 2 * draw(st.integers(0, 2))
        crossings = draw(st.integers(0 if nodes else 1, 4))
        ports = [N(n, s) for n in range(nodes) for s in range(3)]
        ports += [X(x, s) for x in range(crossings) for s in range(4)]
        ports = draw(st.permutations(ports))
        d = cb.build_diagram(nodes, (PLAIN,) * crossings, list(zip(ports[::2], ports[1::2])))
    for _ in range(draw(st.integers(0, 2))):
        surgery = draw(st.sampled_from((cb.encircle_arc, cb.insert_twist)))
        d = surgery(d, draw(st.integers(0, len(d.code_arcs) - 1)))
    kinds = draw(st.lists(st.sampled_from((PLAIN, CIRCLED, DOTTED)),
                          min_size=d.crossing_count, max_size=d.crossing_count))
    flips = draw(st.lists(st.booleans(), min_size=len(d.code_arcs), max_size=len(d.code_arcs)))
    arcs = draw(st.permutations([(q, p) if flip else (p, q) for (p, q), flip in zip(port_arcs(d), flips)]))
    return cb.build_diagram(d.node_count, kinds, arcs, free_loops=draw(st.integers(0, 2))), arcs


@settings(max_examples=150, deadline=None)
@given(walk_diagrams())
def test_code_walks_match_the_port_walks(drawn):
    d, arcs = drawn
    mate = port_mate(arcs)
    faces = cb.trace_faces(d)
    assert all(type(c) is int for walk in faces for c in walk)
    assert [[code_port(d, c) for c in walk] for walk in faces] == reference_faces(mate)
    assert cb.genus(d) == reference_genus(d, mate)
    k, triples, axes, _ = reference_strands(d, mate)
    assert cb.trace_strands(d) == (k, triples, axes)
    text = json.dumps(cb.diagram_to_json_dict(d))
    again = cb.diagram_from_json_dict(json.loads(text))
    assert again == d
    assert json.dumps(cb.diagram_to_json_dict(again)) == text


@settings(max_examples=100, deadline=None)
@given(walk_diagrams())
def test_port_views_are_the_arcs_given(drawn):
    d, arcs = drawn
    codes = (sorted(port_code(d, p) for p in arc) for arc in arcs)
    assert d.code_arcs == tuple(sorted(map(tuple, codes)))
    assert cb.Diagram(d.node_count, d.crossing_kinds, d.code_arcs, d.free_loops) == d


def valid_diagrams() -> list[cb.Diagram]:
    """Every named diagram, plane growths, chord immersions with circled,
    plain and dotted crossings, free loops and a surgery's output."""
    immersed = [cb.chord_immersion(g) for g in (gen.k33(), gen.petersen(), gen.random_cubic(10, 4))]
    return ([gen.named_diagram(name) for name in ("theta", "dumbbell", "k4", "prism", "k33")]
            + [gen.random_plane_cubic(n, seed) for n, seed in ((2, 0), (12, 3), (24, 523522211))]
            + immersed
            + [cb.Diagram(d.node_count, [diagram_module.CROSSING_KINDS[x % 3] for x in range(d.crossing_count)],
                          d.code_arcs) for d in immersed]
            + [cb.Diagram(2, (), gen.theta_diagram().code_arcs, free_loops=2),
               cb.encircle_arc(gen.k4_diagram(), 3)])


def test_every_value_type_prints_as_its_constructor_call():
    # hypothesis reports a falsifying value by reading each __init__ argument
    # back off it, so every argument must be kept; eval of the repr rebuilds it
    g = gen.k33()
    state = cb.make_state(g, cb.enumerate_perfect_matchings(g)[0], [cb.PARALLEL, cb.CROSSED, cb.PARALLEL])
    formation = cb.formation_from_coloring(g, cb.enumerate_colorings(g)[0])
    values = [*valid_diagrams(), state, state.sites[0], formation, g]
    ns = {name: getattr(cb, name) for name in cb.__all__}
    for x in values:
        assert eval(repr(x), ns) == x
        assert pretty(x)


def mutated_diagram_json(rng: random.Random, data: dict) -> dict:
    """A copy of diagram JSON with one or two of its ports, in "arcs" or in
    "cw", given a look-alike or out-of-range field, cut short or swapped."""
    data = copy.deepcopy(data)
    for _ in range(rng.randint(1, 2)):
        spots = {"arcs": [(arc, j) for arc in data["arcs"] for j in (0, 1)],
                 "cw": [(e["cw"], s) for key in ("nodes", "crossings") for e in data[key] for s in range(len(e["cw"]))]}
        holder, i = rng.choice(spots[rng.choice(("arcs", "cw"))])
        how = rng.choice(("field", "field", "cut", "swap"))
        if how == "swap":
            other, j = rng.choice(spots["arcs"] + spots["cw"])
            holder[i], other[j] = other[j], holder[i]
        elif how == "cut" or len(holder[i]) != 3:
            holder[i] = holder[i][:rng.randrange(3)]
        else:
            holder[i] = list(holder[i])
            holder[i][rng.randrange(3)] = rng.choice([True, False, 1.0, "1", None, -1, 10**12, "q", "x", 0, 1])
    return data


def test_the_json_reader_outcomes_are_pinned():
    # each outcome is the diagram's table or the refusal's type and message,
    # so a change to how ports are read keeps every message and which bad port
    # is reported first; this digest is that of the reader that typed ports as
    # named tuples, with each Port(kind=K, owner=O, slot=S) in a message spelled
    # [K, O, S], the port as the file gives it
    rng = random.Random(0)
    bases = [cb.diagram_to_json_dict(d) for d in valid_diagrams()]
    corpus = bases + [mutated_diagram_json(rng, data) for data in bases for _ in range(40)]
    outcomes = []
    for data in corpus:
        try:
            d = cb.diagram_from_json_dict(data)
            outcomes.append((d.peer, d.crossing_kinds, d.free_loops))
        except ChromaticBracketError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "8217c6542633e560012490812208db8ca87906f5fe3d1c3ecc2e299eb68fa4f8"


def test_cw_lists_must_agree_with_the_arcs():
    data = cb.diagram_to_json_dict(gen.k33_diagram())
    assert data["nodes"][0]["cw"][0] == ["n", 3, 0]
    assert cb.diagram_from_json_dict(data) == gen.k33_diagram()
    for key, owner, slot, port, message in (
        ("nodes", 0, 0, ["n", 3, 1], "cw entry of n0 slot 0 disagrees with arcs"),
        ("crossings", 0, 2, ["x", 0, 0], "cw entry of x0 slot 2 disagrees with arcs"),
        ("nodes", 5, 1, ["x", 1, 3], "cw entry of n5 slot 1 disagrees with arcs"),  # no crossing 1
        # equal to the right port by value, but a float owner is no port
        ("nodes", 0, 0, ["n", 3.0, 0], "port ['n', 3.0, 0] does not exist"),
    ):
        bad = copy.deepcopy(data)
        bad[key][owner]["cw"][slot] = port
        with pytest.raises(ParseError) as info:
            cb.diagram_from_json_dict(bad)
        assert str(info.value) == message
