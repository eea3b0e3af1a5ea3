"""Curve systems of a proper coloring and their meeting classes.

A proper coloring splits the edges into three perfect-matching classes
R, B, P. The R|P edges form disjoint cycles (the red curves), as do the
B|P edges (blue curves); every P edge lies on one curve of each color.
On a plane diagram the two curves through a P edge either bounce apart or
cross; the class is read off the endpoint node weights.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from .coloring import BLUE, PURPLE, RED, is_proper
from .diagram import Diagram, genus
from .errors import ImproperColoring, InvalidArgument, NotPlane, shown
from .graph_core import CubicGraph, _edges
from .matching import complement_cycles
from .penrose import coloring_weight, weight_tables

BOUNCE = "bounce"
CROSS = "cross"


@dataclass(frozen=True)
class Formation:
    red_curves: tuple[tuple[int, ...], ...]
    blue_curves: tuple[tuple[int, ...], ...]
    shared_segments: frozenset[int]


def formation_from_coloring(g: CubicGraph, c: Sequence[int]) -> Formation:
    if not is_proper(g, c):
        raise ImproperColoring("formations exist only for proper colorings")
    red = complement_cycles(g, (e for e in range(g.edge_count) if c[e] == BLUE))
    blue = complement_cycles(g, (e for e in range(g.edge_count) if c[e] == RED))
    shared = frozenset(e for e in range(g.edge_count) if c[e] == PURPLE)
    return Formation(red, blue, shared)


def coloring_from_formation(g: CubicGraph, f: Formation) -> tuple[int, ...]:
    """Inverse of formation_from_coloring; the bijection's other half."""
    colors = [BLUE] * len(_edges(g))  # refuses a non-CubicGraph
    if type(f) is not Formation:
        raise InvalidArgument(f"expected a Formation, not {type(f).__name__}")
    if type(f.shared_segments) is not frozenset or not all(  # the types formation_from_coloring returns
            type(cs) is tuple and all(type(c) is tuple for c in cs) for cs in (f.red_curves, f.blue_curves)):
        raise InvalidArgument("a Formation holds two tuples of curve tuples and a frozenset of edge ids")
    for e in chain(*f.red_curves, *f.blue_curves, f.shared_segments):
        if type(e) is not int or not 0 <= e < len(colors):  # type(): True is not edge 1
            raise InvalidArgument(f"edge id {shown(e)} is not an edge of the graph")
    for curve in f.red_curves:
        for e in curve:
            colors[e] = RED
    for e in f.shared_segments:
        colors[e] = PURPLE
    if not is_proper(g, colors) or formation_from_coloring(g, colors) != f:
        raise InvalidArgument("the formation is not the curve system of a proper coloring")
    return tuple(colors)


def classify_meetings(d: Diagram, c: Sequence[int]) -> dict[int, str]:
    """Per P edge: do its red and blue curves cross or bounce?

    A P edge crosses exactly when its two endpoint node weights multiply
    to -1. Defined only for plane crossing-free diagrams; the classes have
    no meaning elsewhere.
    """
    if genus(d) != 0 or d.crossing_count:  # genus refuses a non-Diagram
        raise NotPlane("meeting classes need a plane, crossing-free diagram")
    g, nodes, _ = weight_tables(d, include_crossings=False)
    if not is_proper(g, c):
        raise ImproperColoring("meeting classes need a proper coloring")
    out: dict[int, str] = {}
    for e, (u, v) in enumerate(g.edges):
        if c[e] == PURPLE:
            out[e] = BOUNCE if coloring_weight(c, (nodes[u], nodes[v])) == 1 else CROSS
    return out


def meeting_parity(classes: dict[int, str]) -> int:
    """Number of Cross meetings mod 2, from classify_meetings' classes."""
    return sum(1 for kind in classes.values() if kind == CROSS) % 2


def crossing_parity(d: Diagram, c: Sequence[int]) -> int:
    """Number of Cross meetings mod 2; zero on every plane diagram."""
    return meeting_parity(classify_meetings(d, c))
