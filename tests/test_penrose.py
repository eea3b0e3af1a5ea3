"""Bracket evaluation: node weights, contraction, and skein rewriting."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import chromatic_bracket as cb
from chromatic_bracket import BLUE, CIRCLED, DOTTED, PLAIN, PURPLE, RED
from chromatic_bracket import generators as gen
from chromatic_bracket import diagram, penrose
from chromatic_bracket.cli import main
from chromatic_bracket.errors import (
    ImproperColoring,
    IndexOutOfRange,
    NotCircled,
    RecursionBudgetExceeded,
    StrandClosesWithoutNode,
)
from chromatic_bracket.graph_core import components

N = lambda o, s: ("n", o, s)
X = lambda o, s: ("x", o, s)


def two_strand_fixture() -> cb.Diagram:
    """Two closed strands sharing one circled and one plain crossing."""
    return cb.build_diagram(
        0,
        (CIRCLED, PLAIN),
        [
            (X(0, 2), X(1, 0)),
            (X(1, 2), X(0, 0)),
            (X(0, 3), X(1, 1)),
            (X(1, 3), X(0, 1)),
        ],
    )


def test_node_weight_permutation_table():
    plus = [(RED, BLUE, PURPLE), (BLUE, PURPLE, RED), (PURPLE, RED, BLUE)]
    minus = [(RED, PURPLE, BLUE), (PURPLE, BLUE, RED), (BLUE, RED, PURPLE)]
    for colors in plus:
        assert cb.node_weight(colors) == 1
    for colors in minus:
        assert cb.node_weight(colors) == -1
    for colors in [(RED, RED, BLUE), (BLUE, BLUE, BLUE), (RED, BLUE, BLUE)]:
        assert cb.node_weight(colors) == 0


def test_two_nodes_of_opposite_sign_weigh_one():
    # one node weighs +-i; a cubic graph has an even number of nodes
    assert penrose.coloring_weight((RED, BLUE, PURPLE), [(0, 1, 2), (0, 2, 1)]) == 1  # i * -i


def test_crossing_weight_table():
    for a, b in itertools.product((RED, BLUE, PURPLE), repeat=2):
        assert cb.crossing_weight(PLAIN, a, b) == 1
        assert cb.crossing_weight(CIRCLED, a, b) == (1 if a == b else -1)
        assert cb.crossing_weight(DOTTED, a, b) == (1 if a == b else 0)


def test_plane_contraction_equals_backtracking():
    for d, want in [
        (gen.theta_diagram(), 6),
        (gen.dumbbell_diagram(), 0),
        (gen.k4_diagram(), 6),
        (gen.prism_diagram(), 6),
    ]:
        assert cb.contract_plain(d) == want
        assert cb.contract_extended(d) == want
        assert cb.skein_evaluate(d) == want


def test_plane_per_coloring_weights_are_plus_one():
    d = gen.prism_diagram()
    g = cb.underlying_graph(d)
    for c in cb.enumerate_colorings(g):
        assert cb.per_coloring_weight(d, c) == 1
        assert cb.per_coloring_weight(d, c, include_crossings=False) == 1


def test_one_crossing_k33_diagram_plain_vs_extended():
    d = gen.k33_diagram()
    assert cb.contract_plain(d) == 0
    assert cb.contract_extended(d) == 12
    assert cb.skein_evaluate(d) == 12
    g = cb.underlying_graph(d)
    weights = [cb.per_coloring_weight(d, c, include_crossings=False) for c in cb.enumerate_colorings(g)]
    assert sorted(weights) == [-1] * 6 + [1] * 6
    extended = [cb.per_coloring_weight(d, c) for c in cb.enumerate_colorings(g)]
    assert extended == [1] * 12


def test_per_coloring_weight_rejects_improper():
    d = gen.theta_diagram()
    with pytest.raises(ImproperColoring):
        cb.per_coloring_weight(d, (RED, RED, PURPLE))


def test_extended_contraction_matches_brute_on_immersions():
    for g in (gen.theta(), gen.k4(), gen.prism(), gen.k33(), gen.petersen(), gen.isaacs_j(3)):
        d = cb.chord_immersion(g)
        want = cb.count_colorings(g)
        assert cb.contract_extended(d) == want
        assert cb.skein_evaluate(d) == want


def test_free_loops_multiply_by_three():
    circle = cb.build_diagram(0, (), [], free_loops=1)
    assert cb.contract_extended(circle) == 3
    assert cb.skein_evaluate(circle) == 3
    base = gen.theta_diagram()
    lifted = cb.Diagram(base.node_count, (), base.code_arcs, free_loops=2)
    assert cb.contract_extended(lifted) == 9 * 6
    assert cb.skein_evaluate(lifted) == 9 * 6


def test_disjoint_union_multiplies_values():
    a = gen.theta_diagram()
    b = gen.k4_diagram()
    shift = 3 * a.node_count  # both are crossing-free, so b's port codes move past a's node ports
    arcs = list(a.code_arcs) + [(c + shift, m + shift) for c, m in b.code_arcs]
    union = cb.Diagram(a.node_count + b.node_count, (), arcs)
    assert cb.contract_extended(union) == 36
    assert cb.skein_evaluate(union) == 36


def test_skein_expansion_on_theta_is_nine_minus_three():
    # parallel branch leaves two free loops, crossed branch leaves one
    assert cb.skein_evaluate(gen.theta_diagram()) == 9 - 3


def test_skein_matches_state_expansion_on_theta():
    g = gen.theta()
    per_matching = cb.logical_expansion_count(g, {0})
    assert cb.skein_evaluate(gen.theta_diagram()) == per_matching


def test_two_strand_fixture_value():
    # 3 equal-color terms at +1 and 6 unequal at -1
    assert cb.skein_evaluate(two_strand_fixture()) == -3


def test_twist_leaves_extended_value_unchanged():
    for d in (gen.theta_diagram(), gen.k33_diagram(), cb.chord_immersion(gen.k4())):
        base = cb.contract_extended(d)
        for i in range(len(d.code_arcs)):
            tw = cb.insert_twist(d, i)
            assert cb.contract_extended(tw) == base
            assert cb.skein_evaluate(tw) == base


def test_encircling_an_arc_flips_the_sign():
    for d in (gen.theta_diagram(), gen.k33_diagram()):
        base = cb.skein_evaluate(d)
        for i in range(len(d.code_arcs)):
            assert cb.skein_evaluate(cb.encircle_arc(d, i)) == -base


def test_arc_surgery_refuses_a_missing_arc():
    d = gen.theta_diagram()
    for surgery in (cb.insert_twist, cb.encircle_arc):
        for i in (99, -1):
            with pytest.raises(IndexOutOfRange):
                surgery(d, i)


def test_encircled_diagram_has_no_graph_reading():
    # no underlying graph, but contraction sums the closed strand like skein
    d = cb.encircle_arc(gen.theta_diagram(), 0)
    with pytest.raises(StrandClosesWithoutNode):
        cb.underlying_graph(d)
    with pytest.raises(StrandClosesWithoutNode):
        penrose.weight_tables(d, include_crossings=True)
    assert cb.contract_extended(d) == cb.skein_evaluate(d) == -6


def test_weight_tables_trace_the_strands_once(monkeypatch):
    d = gen.k33_diagram()
    g = cb.underlying_graph(d)
    real, calls = diagram.trace_strands, []

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(diagram, "trace_strands", counted)
    monkeypatch.setattr(penrose, "trace_strands", counted)
    got, nodes, crossings = penrose.weight_tables(d, include_crossings=True)
    assert calls == [d]
    assert got == g
    assert len(nodes) == d.node_count and len(crossings) == d.crossing_count


def test_expand_circled_identity():
    d = gen.k33_diagram()
    dotted, plain = cb.expand_circled(d, 0)
    assert dotted.crossing_kinds == (DOTTED,)
    assert plain.crossing_kinds == (PLAIN,)
    assert dotted.peer == plain.peer == d.peer  # the same port-code table
    assert cb.contract_extended(d) == 2 * cb.contract_extended(dotted) - cb.contract_extended(plain)
    assert cb.skein_evaluate(d) == 2 * cb.skein_evaluate(dotted) - cb.skein_evaluate(plain)


def test_expand_circled_on_terminal_strands():
    d = two_strand_fixture()
    dotted, plain = cb.expand_circled(d, 0)
    assert cb.skein_evaluate(dotted) == 3
    assert cb.skein_evaluate(plain) == 9
    assert cb.skein_evaluate(d) == 2 * 3 - 9


def test_circled_self_crossing_evaluates_directly():
    d = cb.build_diagram(0, (CIRCLED,), [(X(0, 0), X(0, 1)), (X(0, 2), X(0, 3))])
    assert cb.skein_evaluate(d) == 3
    dotted, plain = cb.expand_circled(d, 0)
    assert 2 * cb.skein_evaluate(dotted) - cb.skein_evaluate(plain) == 3


def test_expand_circled_requires_circled():
    d = two_strand_fixture()
    with pytest.raises(NotCircled):
        cb.expand_circled(d, 1)
    with pytest.raises(NotCircled):
        cb.expand_circled(d, 7)


def test_crossing_order_along_strands_does_not_matter():
    # sliding the circled crossing past the plain one along both strands
    slid = cb.build_diagram(
        0,
        (PLAIN, CIRCLED),
        [
            (X(0, 2), X(1, 0)),
            (X(1, 2), X(0, 0)),
            (X(0, 3), X(1, 1)),
            (X(1, 3), X(0, 1)),
        ],
    )
    assert cb.skein_evaluate(slid) == cb.skein_evaluate(two_strand_fixture())


def test_skein_budget_is_enforced():
    with pytest.raises(RecursionBudgetExceeded):
        cb.skein_evaluate(gen.prism_diagram(), budget=2)
    assert cb.skein_evaluate(gen.prism_diagram(), budget=10) == 6


def test_nodeless_plain_crossing_unknots_to_a_loop():
    d = cb.build_diagram(0, (PLAIN,), [(X(0, 0), X(0, 1)), (X(0, 2), X(0, 3))])
    assert cb.contract_extended(d) == cb.skein_evaluate(d) == 3


def circle_system(n: int, crossings: list[tuple[int, int]]) -> cb.Diagram:
    """n closed strands (no nodes); crossing x is circled between the two
    strands crossings[x], on axis 0 of the first and axis 1 of the second."""
    passes: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x, (i, j) in enumerate(crossings):
        passes[i].append((x, 0))
        passes[j].append((x, 1))
    arcs = []
    for walk in passes:
        for (x, a), (y, b) in zip(walk, walk[1:] + walk[:1]):
            arcs.append((X(x, a + 2), X(y, b)))
    return cb.build_diagram(0, (CIRCLED,) * len(crossings), arcs)


def test_closed_strand_chain_and_ring_reduce_exactly():
    # each link weighs -1 + 2*[agree]: a path of 40 strands sums to 3*(-1)^39,
    # a ring to the trace of (2I - J)^40, eigenvalues -1, 2, 2
    chain = circle_system(40, [(i, i + 1) for i in range(39)])
    assert cb.skein_evaluate(chain) == -3
    ring = circle_system(40, [(i, (i + 1) % 40) for i in range(40)])
    assert cb.skein_evaluate(ring) == 1 + 2**41


def test_closed_strand_core_past_fourteen_is_refused():
    clique = circle_system(15, list(itertools.combinations(range(15), 2)))
    with pytest.raises(RecursionBudgetExceeded):
        cb.skein_evaluate(clique)
    # with one strand fewer the core is summed outright: the clique of k
    # strands sums (-1 + 2*[agree]) over every pair
    small = circle_system(4, list(itertools.combinations(range(4), 2)))
    want = sum(
        (-1) ** sum(c[i] != c[j] for i, j in itertools.combinations(range(4), 2))
        for c in itertools.product(range(3), repeat=4)
    )
    assert cb.skein_evaluate(small) == want


def test_skein_matches_contraction_on_mixed_crossing_kinds():
    # expansions merge strands coupled by crossings of every kind, and two
    # strands that cross and are then identified leave a self coupling
    rng = random.Random(5)
    for n in range(4, 14, 2):
        graphs = (gen.random_cubic(n, seed) for seed in itertools.count())
        for g in itertools.islice((g for g in graphs if not cb.has_loop(g)), 15):
            d = cb.chord_immersion(g)
            kinds = [rng.choice((PLAIN, CIRCLED, DOTTED)) for _ in d.crossing_kinds]
            mixed = cb.Diagram(d.node_count, kinds, d.code_arcs)
            assert cb.skein_evaluate(mixed) == cb.contract_extended(mixed), (n, kinds)


def test_skein_traces_each_node_strand_once(monkeypatch):
    real, calls = diagram.trace_strands, []

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(diagram, "trace_strands", counted)
    monkeypatch.setattr(penrose, "trace_strands", counted)
    for n, seed in ((22, 1), (16, 3)):
        d = gen.random_plane_cubic(n, seed)
        want = cb.contract_plain(d)
        calls.clear()
        assert cb.skein_evaluate(d) == want
        assert calls == [d]


def test_deep_contraction_fails_typed():
    # plane prism ladder with 1200 edges: outer cycle 0..k-1, inner k..2k-1
    k = 400
    arcs = []
    for i in range(k):
        j = (i + 1) % k
        arcs += [(N(i, 0), N(j, 1)), (N(k + i, 1), N(k + j, 0)), (N(i, 2), N(k + i, 2))]
    d = cb.build_diagram(2 * k, (), arcs)
    assert cb.genus(d) == 0
    with pytest.raises(RecursionBudgetExceeded):
        cb.contract_plain(d)


def test_skein_answers_past_the_old_budget():
    # a sub-diagram met again is read back, not expanded again: these need
    # at most 21 new states
    for n in range(30, 42, 2):
        for seed in (1, 2):
            d = gen.random_plane_cubic(n, seed)
            assert cb.skein_evaluate(d) == cb.contract_extended(d), (n, seed)
    assert cb.skein_evaluate(gen.random_plane_cubic(40, 1)) == 12288


def test_skein_budget_counts_new_states_only():
    # 12 and 15 distinct states; re-expanding them takes 243 and 3455 steps
    for n, seed in ((22, 1), (28, 2)):
        d = gen.random_plane_cubic(n, seed)
        assert cb.skein_evaluate(d, budget=100) == cb.contract_plain(d)


def test_skein_expands_along_the_min_fill_rank():
    # in input node order these need 3447 and 71 109 new states
    assert cb.skein_evaluate(gen.random_plane_cubic(40, 1), budget=1_000) == 12288
    assert cb.skein_evaluate(gen.random_plane_cubic(60, 3), budget=2_000) == 98304


@pytest.mark.parametrize("n, seed, value, states", [(28, 488396908, 48, 18), (60, 3, 98304, 33)])
def test_skein_expands_the_strand_between_the_earliest_ranked_nodes(n, seed, value, states):
    # the least sum of the two nodes' places; a strand at the first node,
    # wherever its other node sits, took 102 and 516 states
    d = gen.random_plane_cubic(n, seed)
    assert cb.skein_evaluate(d, budget=states) == value
    with pytest.raises(RecursionBudgetExceeded, match="budget exhausted"):
        cb.skein_evaluate(d, budget=states - 1)


def test_skein_answers_large_plane_diagrams():
    # values from perfbench/reference.py, a frontier DP over the edges; the
    # strand at the first node took 30 956 states and over 100k
    assert cb.skein_evaluate(gen.random_plane_cubic(100, 1), budget=1_000) == 805306368
    assert cb.skein_evaluate(gen.random_plane_cubic(200, 2)) == 13510798882111488


@st.composite
def ranked_diagrams(draw) -> tuple[cb.Diagram, list[int]]:
    """A small plane diagram or loop-free chord immersion, maybe with an arc
    encircled, its crossings of mixed kinds, with 0 to 2 free loops; and an
    order of its nodes."""
    if draw(st.booleans()):
        d = gen.random_plane_cubic(draw(st.sampled_from((2, 4, 6, 8, 10))), draw(st.integers(0, 99)))
    else:
        g = gen.random_cubic(draw(st.sampled_from((4, 6, 8))), draw(st.integers(0, 99)))
        assume(not cb.has_loop(g))
        d = cb.chord_immersion(g)
    if draw(st.booleans()):
        d = cb.encircle_arc(d, draw(st.integers(0, len(d.code_arcs) - 1)))
    kinds = draw(st.lists(st.sampled_from((PLAIN, CIRCLED, DOTTED)),
                          min_size=d.crossing_count, max_size=d.crossing_count))
    d = cb.Diagram(d.node_count, kinds, d.code_arcs, free_loops=draw(st.integers(0, 2)))
    return d, draw(st.permutations(range(d.node_count)))


@settings(max_examples=60, deadline=None)
@given(ranked_diagrams())
def test_skein_value_does_not_depend_on_the_node_order(case):
    d, rank = case
    nodes, adj, mult = penrose._couplings(d, include_crossings=True)
    at = {s: tuple(ns) for s, ns in enumerate(penrose._node_adjacency(len(adj), nodes)[0]) if ns}
    got = mult * penrose._skein({n: nodes[n] for n in rank}, dict(enumerate(adj)), at, [100_000], {})
    assert got == cb.skein_evaluate(d) == cb.contract_extended(d)


@st.composite
def surgered_diagrams(draw) -> cb.Diagram:
    """A diagram from ranked_diagrams with up to two more arcs encircled or twisted."""
    d, _ = draw(ranked_diagrams())
    for _ in range(draw(st.integers(0, 2))):
        surgery = draw(st.sampled_from((cb.encircle_arc, cb.insert_twist)))
        d = surgery(d, draw(st.integers(0, len(d.code_arcs) - 1)))
    return d


@settings(max_examples=60, deadline=None)
@given(surgered_diagrams())
def test_every_summed_node_component_has_an_even_node_count(d):
    # the parity argument behind the integer node product: contraction and
    # every skein leaf sum node sets whose components are cubic, so even
    sizes = []
    strand_sum = penrose._strand_sum

    def recording(nodes, adj):
        sizes.extend(map(len, components(penrose._node_adjacency(len(adj), nodes)[1])))
        return strand_sum(nodes, adj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(penrose, "_strand_sum", recording)
        assert cb.skein_evaluate(d) == cb.contract_extended(d)
    assert all(n % 2 == 0 for n in sizes)


@settings(max_examples=60, deadline=None)
@given(surgered_diagrams().map(cb.diagram_to_json_dict))  # as JSON, the input crosscheck reads
@example(cb.diagram_to_json_dict(cb.Diagram(6, (PLAIN,), gen.k33_diagram().code_arcs)))  # exit 2 without the refusal
def test_crosscheck_refuses_or_agrees_on_every_surgered_diagram(data):
    # exit 2 means the methods disagree; a diagram the bracket does not count is refused
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["crosscheck", str(path)])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


def test_components_are_summed_apart(monkeypatch):
    # one search over all components multiplies their search steps, about
    # 10x more per prism; summed apart, they add up. Each step that completes
    # a node reads its epsilon sign once.
    reads = []

    class CountingTable(dict):
        def __getitem__(self, key):
            reads.append(key)
            if len(reads) > budget:
                raise RecursionBudgetExceeded("epsilon read budget spent")
            return super().__getitem__(key)

    monkeypatch.setattr(penrose, "_EPSILON", CountingTable(penrose._EPSILON))
    prism = gen.prism_diagram()
    budget = 10**6
    assert cb.contract_extended(prism) == 6
    budget, reads[:] = 8 * len(reads), []
    shift = 3 * prism.node_count  # the prism is crossing-free: copy c's port codes start at c * shift
    arcs = [(a + c * shift, b + c * shift) for c in range(8) for a, b in prism.code_arcs]
    assert cb.contract_extended(cb.Diagram(8 * prism.node_count, (), arcs)) == 6**8


def test_state_key_is_blind_to_names_only():
    # four nodes on six strands, closed strand 6 circled against strand 0,
    # strands 1 and 4 dotted together, strand 7 merged away
    tri = {0: (0, 1, 2), 1: (0, 3, 4), 2: (1, 5, 3), 3: (2, 4, 5)}
    adj = [{6: (-1, 2)}, {4: (0, 1)}, {}, {}, {1: (0, 1)}, {}, {0: (-1, 2)}, None]

    def state_key(tri, adj):  # the live strands' couplings by strand
        return penrose._state_key(tri, {s: c for s, c in enumerate(adj) if c is not None})

    key = state_key(tri, adj)

    rename = [3, 7, 0, 5, 1, 6, 2, 4]
    renamed_adj: list = [None] * len(adj)
    for s, c in enumerate(adj):
        renamed_adj[rename[s]] = None if c is None else {rename[w]: f for w, f in c.items()}
    renamed_tri = {10 + 3 * n: tuple(rename[s] for s in t) for n, t in tri.items()}
    assert state_key(renamed_tri, renamed_adj) == key

    circled = [dict(c) if c is not None else None for c in adj]
    circled[1][4] = circled[4][1] = (-1, 2)
    assert state_key(tri, circled) != key
    assert state_key(tri, adj + [{}]) != key


def mixed_k33_immersion() -> cb.Diagram:
    """The chord immersion of K3,3 with plain, circled and one dotted crossing."""
    d = cb.chord_immersion(gen.k33())
    rng = random.Random(0)
    kinds = [rng.choice((PLAIN, CIRCLED)) for _ in d.crossing_kinds]
    kinds[3] = DOTTED
    return cb.Diagram(d.node_count, kinds, d.code_arcs)


@pytest.mark.parametrize("d", [gen.prism_diagram(), gen.k33_diagram(), mixed_k33_immersion()],
                         ids=["prism", "k33", "mixed-immersion"])
def test_each_color_pair_on_the_first_node_carries_a_sixth(d):
    # the symmetry behind fixing node 0's first two strands to (R, B) and taking 6 times
    g, nodes, crossings = penrose.weight_tables(d, include_crossings=True)
    first, second = nodes[0][:2]
    sums = dict.fromkeys(itertools.permutations((RED, BLUE, PURPLE), 2), 0)
    for c in cb.enumerate_colorings(g):
        sums[c[first], c[second]] += penrose.coloring_weight(c, nodes, crossings)
    total = cb.contract_extended(d)
    assert total != 0 and len(set(sums.values())) == 1
    assert 6 * sums[RED, BLUE] == total


@st.composite
def strand_sum_inputs(draw) -> tuple[int, list, list]:
    """At most 7 strands: 0, 2 or 4 nodes, whose slots are paired into strands
    so that no node holds a strand twice, the other strands closed; pairs of
    every factor kind, self pairs and repeats included."""
    m = draw(st.sampled_from((0, 2, 4)))
    k = draw(st.integers(max(1, 3 * m // 2), 7))
    names = draw(st.permutations(range(k)))
    slots = draw(st.permutations(range(3 * m)).filter(
        lambda p: all(p[i] // 3 != p[i + 1] // 3 for i in range(0, len(p), 2))))
    strand_at = [0] * (3 * m)
    for i in range(0, 3 * m, 2):
        strand_at[slots[i]] = strand_at[slots[i + 1]] = names[i // 2]
    nodes = [tuple(strand_at[3 * n:3 * n + 3]) for n in range(m)]
    factor = st.sampled_from(((-1, 2), (0, 1), (1, 0), (-1, 4), (3, -1)))
    ends = st.integers(0, k - 1)
    pairs = draw(st.lists(st.tuples(ends, ends, factor).map(lambda t: (t[0], t[1], *t[2])),
                          max_size=10))
    return k, nodes, pairs


@settings(max_examples=60, deadline=None)
@given(strand_sum_inputs())
@example((4, [], [(i, j, -1, 2) for i, j in itertools.combinations(range(4), 2)]))
def test_strand_sum_equals_the_direct_sum(case):
    k, nodes, pairs = case
    # each node weighs i times its epsilon sign, in complex arithmetic here:
    # the reference checks on its own that the i's cancel
    want = 0j
    for c in itertools.product(range(3), repeat=k):
        term = 1j ** len(nodes)
        for t in nodes:
            term *= cb.node_weight([c[s] for s in t])
        for i, j, a, b in pairs:
            term *= a + b if c[i] == c[j] else a
        want += term
    assert want.imag == 0
    adj: list = [{} for _ in range(k)]
    mult = 1
    for i, j, a, b in pairs:
        mult *= penrose._link(adj, i, j, a, b)
    assert mult * penrose._strand_sum(nodes, adj) == want
