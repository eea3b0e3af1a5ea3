"""Proper 3-edge-colorings by exhaustive backtracking.

Ground truth for the whole package: every other counting method is checked
against these counts. The count searches each component once, in the one
search order (graph_core.tightest_first): after its first node's three
edges, always the edge with the most colored edges at its two ends, so a
clash shows at the edge that causes it. The two edges at the first node are
fixed to R and B and the result multiplied by 6: those edges differ in every
proper coloring, and each color permutation maps the colorings with (R, B)
there one-to-one onto those with another of the 6 ordered pairs. Listing
keeps plain BFS order from each component's lowest node, each edge tried R,
B, then P, because `formation --coloring-index k` names a coloring by its
place in that order. Both are one loop over an explicit stack: each color is
a bitmask of the nodes that hold it, passed by value, so nothing is undone,
no Python call is made per edge, the depth bound is edge
sys.getrecursionlimit() and the time does not depend on the caller's stack.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Sequence
from itertools import chain

from .errors import InvalidArgument, PartialColoring, RecursionBudgetExceeded, shown
from .graph_core import CubicGraph, _edges, connected_components, has_loop, tightest_first

RED, BLUE, PURPLE = 0, 1, 2
COLORS = (RED, BLUE, PURPLE)
COLOR_NAMES = ("R", "B", "P")

# Total assignment edge id -> color, as a tuple indexed by edge id.
EdgeColoring = tuple[int, ...]


def _colors(colors: object) -> tuple[int, ...]:
    """colors as a tuple; InvalidArgument unless they are a sequence of ints
    0-2 by type(), as is_proper checks them, so True is not BLUE."""
    if not isinstance(colors, Sequence):
        raise InvalidArgument(f"colors {shown(colors)} are not a sequence")
    for c in colors:
        if type(c) is not int or c not in COLORS:
            raise InvalidArgument(f"not a color: {shown(c)}")
    return tuple(colors)


def coloring_names(coloring: Sequence[int]) -> list[str]:
    return [COLOR_NAMES[c] for c in _colors(coloring)]


def is_proper(g: CubicGraph, coloring: Sequence[int]) -> bool:
    """True iff all three colors appear at every node.

    A loop contributes the same color twice at its node, so a graph with a
    loop never has a proper coloring.
    """
    _edges(g)  # refuses a non-CubicGraph
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


def count_colorings(g: CubicGraph) -> int:
    """Exact number of proper 3-edge-colorings (one class per component, times 6),
    searched tightest edge first; iter_colorings keeps BFS order. Raises
    RecursionBudgetExceeded when a search reaches edge sys.getrecursionlimit()
    of a component with more edges."""
    if has_loop(g):
        return 0
    limit = sys.getrecursionlimit()
    count = 1
    for nodes in connected_components(g):
        groups = [(x >> 1, y >> 1, z >> 1) for x, y, z in map(g.incidence.__getitem__, nodes)]
        [order] = tightest_first(groups, [list(dict.fromkeys(chain.from_iterable(groups)))])
        last = len(order) - 1
        stop = min(last, limit)
        bit: dict[int, int] = {}  # node -> its bit, in the order the search meets the nodes
        ends = []  # edge i -> the bits of its two ends
        for e in order[:stop + 1]:
            u, v = g.edges[e]
            ends.append(bit.setdefault(u, 1 << len(bit)) | bit.setdefault(v, 1 << len(bit)))
        leaves = 0
        # (edge i, then the nodes holding R, B and P): edge i is next to color,
        # and edges 0 and 1 are R and B
        stack = [(2, ends[0], ends[1], 0)]
        push, pop = stack.append, stack.pop
        while stack:
            i, r, b, p = pop()
            m = ends[i]
            while i < stop:  # carry on with the first free color, push the others
                if not r & m:
                    if not b & m:
                        push((i + 1, r, b | m, p))
                    if not p & m:
                        push((i + 1, r, b, p | m))
                    r |= m
                elif not b & m:
                    if not p & m:
                        push((i + 1, r, b, p | m))
                    b |= m
                elif not p & m:
                    p |= m
                else:
                    break
                i += 1
                m = ends[i]
            else:  # at edge stop: the last edge, or the recursion limit
                if i < last:
                    raise RecursionBudgetExceeded(f"brute-force search of a {last + 1}-edge "
                                                  f"component reached the recursion limit, {limit}")
                leaves += (not r & m) + (not b & m) + (not p & m)
        count *= 6 * leaves
        if not count:
            break
    return count


def iter_colorings(g: CubicGraph) -> Iterator[EdgeColoring]:
    """Yield every proper coloring, edges in BFS order, each tried R, B, then P. Raises
    RecursionBudgetExceeded at edge sys.getrecursionlimit() when edges remain."""
    if has_loop(g):
        return
    order = list(dict.fromkeys(h >> 1 for nodes in connected_components(g)
                               for n in nodes for h in g.incidence[n]))
    ends = [1 << u | 1 << v for u, v in map(g.edges.__getitem__, order)]
    limit = sys.getrecursionlimit()
    stop = min(len(order), limit)
    colors = [0] * g.edge_count  # a popped frame's earlier edges were colored by its ancestors
    stack = [(0, 0, 0, 0, 0)]  # (edge i, then the nodes holding R, B and P, then edge i - 1's color)
    push, pop = stack.append, stack.pop
    while stack:
        i, r, b, p, c = pop()
        if i:
            colors[order[i - 1]] = c
        while i < stop:  # carry on with the first free color, push the others
            m = ends[i]
            if not r & m:
                if not p & m:
                    push((i + 1, r, b, p | m, PURPLE))
                if not b & m:
                    push((i + 1, r, b | m, p, BLUE))
                r |= m
                colors[order[i]] = RED
            elif not b & m:
                if not p & m:
                    push((i + 1, r, b, p | m, PURPLE))
                b |= m
                colors[order[i]] = BLUE
            elif not p & m:
                p |= m
                colors[order[i]] = PURPLE
            else:
                break
            i += 1
        else:  # every edge colored, or the recursion limit
            if i < len(order):
                raise RecursionBudgetExceeded(f"coloring enumeration reached the recursion limit, {limit}")
            yield tuple(colors)


def enumerate_colorings(g: CubicGraph) -> list[EdgeColoring]:
    """All proper colorings, in the order iter_colorings yields them."""
    return list(iter_colorings(g))
