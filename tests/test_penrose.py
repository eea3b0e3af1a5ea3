"""Bracket evaluation: node weights, contraction, and skein rewriting."""

from __future__ import annotations

import itertools
import random

import pytest

import chromatic_bracket as cb
from chromatic_bracket import BLUE, CIRCLED, DOTTED, PLAIN, PURPLE, RED, Port
from chromatic_bracket import generators as gen
from chromatic_bracket import penrose
from chromatic_bracket.diagram import trace_strand
from chromatic_bracket.errors import (
    ImproperColoring,
    NotCircled,
    RecursionBudgetExceeded,
    StrandClosesWithoutNode,
)

N = lambda o, s: Port("n", o, s)
X = lambda o, s: Port("x", o, s)


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
        w = cb.node_weight(colors)
        assert (w.zero, w.i_power) == (False, 1)
    for colors in minus:
        w = cb.node_weight(colors)
        assert (w.zero, w.i_power) == (False, 3)
    for colors in [(RED, RED, BLUE), (BLUE, BLUE, BLUE), (RED, BLUE, BLUE)]:
        assert cb.node_weight(colors).zero


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
    g = cb.underlying_graph(d).graph
    for c in cb.enumerate_colorings(g):
        assert cb.per_coloring_weight(d, c) == 1
        assert cb.per_coloring_weight(d, c, include_crossings=False) == 1


def test_one_crossing_k33_diagram_plain_vs_extended():
    d = gen.k33_diagram()
    assert cb.contract_plain(d) == 0
    assert cb.contract_extended(d) == 12
    assert cb.skein_evaluate(d) == 12
    g = cb.underlying_graph(d).graph
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
    lifted = cb.build_diagram(base.node_count, (), base.arcs, free_loops=2)
    assert cb.contract_extended(lifted) == 9 * 6
    assert cb.skein_evaluate(lifted) == 9 * 6


def test_disjoint_union_multiplies_values():
    a = gen.theta_diagram()
    b = gen.k4_diagram()
    shift = a.node_count
    arcs = list(a.arcs) + [
        tuple(Port("n", p.owner + shift, p.slot) for p in arc) for arc in b.arcs
    ]
    union = cb.build_diagram(a.node_count + b.node_count, (), arcs)
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
        for i in range(len(d.arcs)):
            tw = cb.insert_twist(d, i)
            assert cb.contract_extended(tw) == base
            assert cb.skein_evaluate(tw) == base


def test_encircling_an_arc_flips_the_sign():
    for d in (gen.theta_diagram(), gen.k33_diagram()):
        base = cb.skein_evaluate(d)
        for i in range(len(d.arcs)):
            assert cb.skein_evaluate(cb.encircle_arc(d, i)) == -base


def test_encircled_diagram_has_no_graph_reading():
    d = cb.encircle_arc(gen.theta_diagram(), 0)
    with pytest.raises(StrandClosesWithoutNode):
        cb.contract_extended(d)


def test_expand_circled_identity():
    d = gen.k33_diagram()
    dotted, plain = cb.expand_circled(d, 0)
    assert dotted.crossing_kinds == (DOTTED,)
    assert plain.crossing_kinds == (PLAIN,)
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
    assert cb.skein_evaluate(d) == 3
    with pytest.raises(StrandClosesWithoutNode):
        cb.contract_extended(d)


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
            mixed = cb.build_diagram(d.node_count, kinds, d.arcs)
            assert cb.skein_evaluate(mixed) == cb.contract_extended(mixed), (n, kinds)


def test_skein_traces_each_node_strand_once(monkeypatch):
    calls = []

    def counting(d, start):
        calls.append(start)
        return trace_strand(d, start)

    monkeypatch.setattr(penrose, "trace_strand", counting)
    for n, seed in ((22, 1), (16, 3)):
        calls.clear()
        d = gen.random_plane_cubic(n, seed)
        assert cb.skein_evaluate(d) == cb.contract_plain(d)
        assert len(calls) == 3 * n // 2
