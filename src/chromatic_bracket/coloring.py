"""Proper 3-edge-colorings by exhaustive backtracking.

Ground truth for the whole package: every other counting method is checked
against these counts. Edges are assigned in BFS order from node 0 so the
colored frontier stays connected and clashes surface early.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

from .errors import PartialColoring
from .graph_core import CubicGraph, has_loop

RED, BLUE, PURPLE = 0, 1, 2
COLORS = (RED, BLUE, PURPLE)
COLOR_NAMES = ("R", "B", "P")

# Total assignment edge id -> color, as a tuple indexed by edge id.
EdgeColoring = tuple[int, ...]


def color_name(color: int) -> str:
    return COLOR_NAMES[color]


def coloring_names(coloring: Sequence[int]) -> list[str]:
    return [COLOR_NAMES[c] for c in coloring]


def is_proper(g: CubicGraph, coloring: Sequence[int]) -> bool:
    """True iff all three colors appear at every node.

    A loop contributes the same color twice at its node, so a graph with a
    loop never has a proper coloring.
    """
    if len(coloring) != g.edge_count:
        raise PartialColoring(f"coloring covers {len(coloring)} of {g.edge_count} edges")
    for c in coloring:
        if c not in COLORS:
            raise PartialColoring(f"not a color: {c!r}")
    for stubs in g.incidence:
        if len({coloring[h // 2] for h in stubs}) != 3:
            return False
    return True


def _bfs_edge_order(g: CubicGraph) -> list[int]:
    order: list[int] = []
    seen_edge = [False] * g.edge_count
    seen_node = [False] * g.node_count
    for start in range(g.node_count):
        if seen_node[start]:
            continue
        seen_node[start] = True
        queue = deque([start])
        while queue:
            n = queue.popleft()
            for h in g.incidence[n]:
                e = h // 2
                if not seen_edge[e]:
                    seen_edge[e] = True
                    order.append(e)
                m = g.half_edge_node(g.other_end(h))
                if not seen_node[m]:
                    seen_node[m] = True
                    queue.append(m)
    return order


def count_colorings(g: CubicGraph) -> int:
    """Exact number of proper 3-edge-colorings."""
    if has_loop(g):
        return 0
    order = _bfs_edge_order(g)
    if not order:
        return 0
    ends = [g.edges[e] for e in order]
    used = [0] * g.node_count

    def rec(i: int) -> int:
        if i == len(order):
            return 1
        u, v = ends[i]
        avail = ~(used[u] | used[v]) & 0b111
        total = 0
        while avail:
            bit = avail & -avail
            avail ^= bit
            used[u] |= bit
            used[v] |= bit
            total += rec(i + 1)
            used[u] ^= bit
            used[v] ^= bit
        return total

    return rec(0)


def iter_colorings(g: CubicGraph) -> Iterator[EdgeColoring]:
    """Yield every proper coloring, in deterministic backtracking order."""
    if has_loop(g):
        return
    order = _bfs_edge_order(g)
    ends = [g.edges[e] for e in order]
    used = [0] * g.node_count
    colors = [0] * g.edge_count

    def rec(i: int) -> Iterator[EdgeColoring]:
        if i == len(order):
            yield tuple(colors)
            return
        u, v = ends[i]
        taken = used[u] | used[v]
        for c in COLORS:
            bit = 1 << c
            if taken & bit:
                continue
            used[u] |= bit
            used[v] |= bit
            colors[order[i]] = c
            yield from rec(i + 1)
            used[u] ^= bit
            used[v] ^= bit

    yield from rec(0)


def enumerate_colorings(g: CubicGraph) -> list[EdgeColoring]:
    """All proper colorings, in the order iter_colorings yields them."""
    return list(iter_colorings(g))
