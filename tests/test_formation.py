"""Red/blue curve systems extracted from colorings, and their meetings."""

from __future__ import annotations

import pytest

import chromatic_bracket as cb
from chromatic_bracket import BLUE, BOUNCE, CROSS, PURPLE, RED
from chromatic_bracket import generators as gen
from chromatic_bracket.errors import ImproperColoring, InvalidArgument, NotPlane


def test_theta_formation_shape():
    g = gen.theta()
    f = cb.formation_from_coloring(g, (RED, BLUE, PURPLE))
    assert f.red_curves == ((0, 2),)
    assert f.blue_curves == ((1, 2),)
    assert f.shared_segments == frozenset({2})


def test_curves_cover_their_color_classes():
    g = gen.truncated_tetrahedron()
    for c in cb.enumerate_colorings(g):
        f = cb.formation_from_coloring(g, c)
        red_edges = sorted(e for curve in f.red_curves for e in curve)
        blue_edges = sorted(e for curve in f.blue_curves for e in curve)
        assert red_edges == sorted(e for e, col in enumerate(c) if col != BLUE)
        assert blue_edges == sorted(e for e, col in enumerate(c) if col != RED)
        assert f.shared_segments == frozenset(e for e, col in enumerate(c) if col == PURPLE)


def test_round_trip_on_fixtures():
    for name in ("theta", "k4", "prism", "k33", "truncated_tetrahedron"):
        g = getattr(gen, name)()
        for c in cb.enumerate_colorings(g):
            f = cb.formation_from_coloring(g, c)
            assert cb.coloring_from_formation(g, f) == c


def test_coloring_from_formation_refuses_an_edge_id_outside_the_graph():
    # at the parent commit True colored edge 1, -1 the last edge, -2 made edge 4
    # purple, and 99 raised a bare IndexError; the check reads every field
    g = gen.k4()
    f = cb.formation_from_coloring(g, next(cb.iter_colorings(g)))
    for bad in (cb.Formation(((True,),), (), frozenset()), cb.Formation(((-1,),), (), frozenset()),
                cb.Formation(f.red_curves, f.blue_curves, f.shared_segments | {-2}),
                cb.Formation(((99,),), (), frozenset()), cb.Formation((), ((0, 99),), frozenset())):
        with pytest.raises(InvalidArgument, match="is not an edge of the graph"):
            cb.coloring_from_formation(g, bad)


def test_coloring_from_formation_refuses_what_is_not_a_coloring_s_curve_system():
    # unchecked, the first two raise a bare TypeError and the third paints
    # (0, 0, 1, 2, 1, 1), which is not proper
    g = gen.k4()
    for bad, message in ((cb.Formation(None, (), frozenset()), "tuples of curve tuples"),
                         (cb.Formation((5,), (), frozenset()), "tuples of curve tuples"),
                         (cb.Formation(((0, 1),), ((2,),), frozenset({3})), "not the curve system")):
        with pytest.raises(InvalidArgument, match=message):
            cb.coloring_from_formation(g, bad)


def test_formations_are_in_bijection_with_colorings():
    for name in ("theta", "k4", "prism", "k33"):
        g = getattr(gen, name)()
        cs = cb.enumerate_colorings(g)
        fs = {cb.formation_from_coloring(g, c) for c in cs}
        assert len(fs) == len(cs), name


def test_improper_coloring_rejected():
    g = gen.theta()
    with pytest.raises(ImproperColoring):
        cb.formation_from_coloring(g, (RED, RED, PURPLE))


def test_theta_purple_edge_bounces():
    d = gen.theta_diagram()
    ug = cb.underlying_graph(d)
    for c in cb.enumerate_colorings(ug):
        meetings = cb.classify_meetings(d, c)
        purple = {e for e, col in enumerate(c) if col == PURPLE}
        assert set(meetings) == purple
        assert all(kind == BOUNCE for kind in meetings.values())
        assert cb.crossing_parity(d, c) == 0


def test_plane_fixtures_have_even_crossing_parity():
    for d in (gen.theta_diagram(), gen.k4_diagram(), gen.prism_diagram()):
        ug = cb.underlying_graph(d)
        for c in cb.enumerate_colorings(ug):
            meetings = cb.classify_meetings(d, c)
            assert set(meetings.values()) <= {BOUNCE, CROSS}
            n_cross = sum(1 for kind in meetings.values() if kind == CROSS)
            assert cb.crossing_parity(d, c) == n_cross % 2 == 0


def test_meetings_refuse_non_plane_input():
    d = gen.k33_diagram()
    ug = cb.underlying_graph(d)
    c = cb.enumerate_colorings(ug)[0]
    with pytest.raises(NotPlane):
        cb.classify_meetings(d, c)
    with pytest.raises(NotPlane):
        cb.crossing_parity(d, c)


def test_meetings_refuse_positive_genus():
    swap = {9: 10, 10: 9}  # node 3's slots 0 and 1, as port codes
    torus = cb.Diagram(4, (), [tuple(swap.get(c, c) for c in arc) for arc in gen.k4_diagram().code_arcs])
    assert cb.genus(torus) == 1
    ug = cb.underlying_graph(torus)
    c = cb.enumerate_colorings(ug)[0]
    with pytest.raises(NotPlane):
        cb.classify_meetings(torus, c)


def test_random_plane_parity_is_even():
    for seed in range(6):
        d = gen.random_plane_cubic(10, seed)
        ug = cb.underlying_graph(d)
        for c in cb.enumerate_colorings(ug)[:20]:
            assert cb.crossing_parity(d, c) == 0
