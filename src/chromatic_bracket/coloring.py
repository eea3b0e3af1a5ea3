"""Proper 3-edge-colorings by exhaustive backtracking.

Ground truth for the whole package: every other counting method is checked
against these counts. The count searches each component once, in the one
search order (graph_core.tightest_first): after its first node's three
edges, always the edge with the most colored edges at its two ends, so a
clash shows at the edge that causes it. The two edges at the first node are
fixed to R and B and the result multiplied by 6: those edges differ in every
proper coloring, and each color permutation maps the colorings with (R, B)
there one-to-one onto those with another of the 6 ordered pairs. Listing
keeps plain BFS order from each component's lowest node, because
`formation --coloring-index k` names a coloring by its place in that order.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import PartialColoring, refuse_deep_recursion, shown
from .graph_core import CubicGraph, connected_components, has_loop, tightest_first

RED, BLUE, PURPLE = 0, 1, 2
COLORS = (RED, BLUE, PURPLE)
COLOR_NAMES = ("R", "B", "P")

# Total assignment edge id -> color, as a tuple indexed by edge id.
EdgeColoring = tuple[int, ...]


def coloring_names(coloring: Sequence[int]) -> list[str]:
    return [COLOR_NAMES[c] for c in coloring]


def is_proper(g: CubicGraph, coloring: Sequence[int]) -> bool:
    """True iff all three colors appear at every node.

    A loop contributes the same color twice at its node, so a graph with a
    loop never has a proper coloring.
    """
    if not isinstance(coloring, Sequence):
        raise PartialColoring(f"coloring {shown(coloring)} is not a sequence")
    if len(coloring) != g.edge_count:
        raise PartialColoring(f"coloring covers {len(coloring)} of {g.edge_count} edges")
    for c in coloring:
        if type(c) is not int or c not in COLORS:  # type(): True is not BLUE
            raise PartialColoring(f"not a color: {shown(c)}")
    for stubs in g.incidence:
        if len({coloring[h // 2] for h in stubs}) != 3:
            return False
    return True


def _bfs_components(g: CubicGraph) -> list[list[int]]:
    """Edge ids of each component, in the order its BFS meets them."""
    return [list(dict.fromkeys(h // 2 for n in nodes for h in g.incidence[n]))
            for nodes in connected_components(g)]


def count_colorings(g: CubicGraph) -> int:
    """Exact number of proper 3-edge-colorings (one class per component, times 6),
    searched tightest edge first; iter_colorings keeps BFS order."""
    if has_loop(g):
        return 0
    used = [0] * g.node_count
    ends: list[tuple[int, int]] = []  # rebound per component; rec reads the current one

    def rec(i: int) -> int:
        if i == len(ends):
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

    count = 1
    try:
        with refuse_deep_recursion("brute-force search"):
            for nodes in connected_components(g):
                groups = [[h // 2 for h in g.incidence[n]] for n in nodes]
                [order] = tightest_first(groups, [list(dict.fromkeys(e for es in groups for e in es))])
                ends = [g.edges[e] for e in order]
                for (u, v), bit in zip(ends, (1 << RED, 1 << BLUE)):
                    used[u] |= bit
                    used[v] |= bit
                count *= 6 * rec(2)
                if not count:
                    break
    finally:
        del rec  # rec holds itself; let go so refcounting frees it
    return count


def iter_colorings(g: CubicGraph) -> Iterator[EdgeColoring]:
    """Yield every proper coloring, in deterministic backtracking order."""
    if has_loop(g):
        return
    order = [e for component in _bfs_components(g) for e in component]
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

    try:
        with refuse_deep_recursion("coloring enumeration"):
            yield from rec(0)
    finally:  # on close() too
        del rec  # rec holds itself; let go so refcounting frees it


def enumerate_colorings(g: CubicGraph) -> list[EdgeColoring]:
    """All proper colorings, in the order iter_colorings yields them."""
    return list(iter_colorings(g))
