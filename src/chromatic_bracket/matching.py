"""Perfect matchings and the cycles they leave behind.

Removing a perfect matching's edges from a cubic graph leaves every node
with degree 2, so the remainder splits into edge-disjoint cycles. A loop of
the graph survives as a cycle of length 1 and a parallel pair as a cycle of
length 2. A matching is even when every such cycle has even length; those
are exactly the matchings that extend to proper colorings with the matched
edges all purple.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterable, Iterator, Sequence

from .coloring import BLUE, PURPLE, RED, EdgeColoring, _colors, is_proper
from .errors import ImproperColoring, NotAMatching, RecursionBudgetExceeded, shown
from .graph_core import CubicGraph, _edges

PerfectMatching = frozenset[int]


def validate_matching(g: CubicGraph, edge_ids: Iterable[int]) -> PerfectMatching:
    _edges(g)  # refuses a non-CubicGraph
    if not isinstance(edge_ids, Iterable):  # a bare int is not the set of one edge
        raise NotAMatching(f"matching {shown(edge_ids)} is not an iterable of edge ids")
    ids = list(edge_ids)
    for e in ids:
        if type(e) is not int:  # type(): True is not edge 1
            raise NotAMatching(f"edge id {shown(e)} is not an int")
    m = frozenset(ids)
    cover = [0] * g.node_count
    for e in m:
        if not 0 <= e < g.edge_count:
            raise NotAMatching(f"edge id {shown(e)} out of range")
        u, v = g.edges[e]
        if u == v:
            raise NotAMatching(f"edge {e} is a loop")
        cover[u] += 1
        cover[v] += 1
    for n, k in enumerate(cover):
        if k != 1:
            raise NotAMatching(f"node {n} is covered {k} times")
    return m


def iter_perfect_matchings(g: CubicGraph) -> Iterator[PerfectMatching]:
    """Yield every perfect matching, in increasing order of its sorted edge ids:
    the next matched edge is taken in id order, before the branch leaving it out.
    One explicit stack over masks of the uncovered nodes, refused with
    RecursionBudgetExceeded at matched edge sys.getrecursionlimit() if nodes are left."""
    pairs = _edges(g)  # refuses a non-CubicGraph before node_count is read
    later = [0] * g.node_count  # node -> its partners on the edges after the one at hand
    edges = []  # non-loop edge -> (id, its ends, their later partners, (1 << y, later[y]) per later neighbour y)
    for e in range(len(pairs) - 1, -1, -1):
        u, v = pairs[e]
        if u != v:
            ys = {g.half_edge_node(h ^ 1) for x in (u, v) for h in g.incidence[x] if h >> 1 > e} - {u, v}
            edges.append((e, 1 << u | 1 << v, later[u], later[v], [(1 << y, later[y]) for y in ys]))
            later[u], later[v] = later[u] | 1 << v, later[v] | 1 << u
    edges.reverse()
    limit = sys.getrecursionlimit()
    chosen: list[int] = []  # the matched edges of the frame at hand, cut back on each pop
    stack = [(0, (1 << g.node_count) - 1, 0)]  # (next edge, uncovered nodes, matched edges)
    push, pop = stack.append, stack.pop
    while stack:
        k, free, depth = pop()
        del chosen[depth:]
        for k in range(k, len(edges)):
            e, ends, later_u, later_v, near = edges[k]
            if free & ends != ends:
                continue
            rest = free ^ ends
            keep = later_u & free and later_v & free  # both ends can still be covered without e
            for y, later_y in near:
                if y & rest and not later_y & rest:  # taking e would strand y
                    break
            else:  # take e, and carry on in that branch
                if keep:
                    push((k + 1, free, depth))
                chosen.append(e)
                free, depth = rest, depth + 1
                if not free:
                    break
                if depth == limit:
                    raise RecursionBudgetExceeded(f"perfect-matching search reached the recursion limit, {limit}")
                continue
            if not keep:
                break
        if not free:
            yield frozenset(chosen)


def enumerate_perfect_matchings(g: CubicGraph) -> list[PerfectMatching]:
    """All perfect matchings, in the order iter_perfect_matchings yields them."""
    return list(iter_perfect_matchings(g))


def trace_cycles(link: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """The cycles of a half-edge link table, and per half-edge its cycle.

    link[h] is the half-edge that h is joined to at a node or site, -1 when h
    lies on no cycle. Each cycle is its departing half-edges in walking order:
    it starts at the lowest edge not yet walked, leaves it from endpoint 0 and
    goes on along link[h ^ 1]. cycle_of[h] is -1 for a half-edge on none.
    """
    cycle_of = [-1] * len(link)
    walks: list[list[int]] = []
    for start in range(0, len(link), 2):
        if link[start] < 0 or cycle_of[start] >= 0:
            continue
        idx = len(walks)
        walk: list[int] = []
        h = start
        while True:
            cycle_of[h] = cycle_of[h ^ 1] = idx
            walk.append(h)
            h = link[h ^ 1]
            if h == start:
                break
        walks.append(walk)
    return walks, cycle_of


def _complement_link(g: CubicGraph, m: PerfectMatching) -> list[int]:
    """A perfect matching uses one half-edge per node; link the other two."""
    link = [-1] * (2 * g.edge_count)
    for x, y, z in g.incidence:
        a, b = (y, z) if x >> 1 in m else (x, z) if y >> 1 in m else (x, y)
        link[a], link[b] = b, a
    return link


def complement_cycles(g: CubicGraph, matching: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of g minus a perfect matching, each its edge ids in walking
    order (trace_cycles: from the lowest edge not yet walked, leaving it from
    endpoint 0), so the decomposition is deterministic."""
    walks, _ = trace_cycles(_complement_link(g, validate_matching(g, matching)))
    return tuple([tuple([h >> 1 for h in w]) for w in walks])


def is_even_matching(g: CubicGraph, matching: Iterable[int]) -> bool:
    return all(len(c) % 2 == 0 for c in complement_cycles(g, matching))


def colorings_from_even_matching(g: CubicGraph, matching: Iterable[int]) -> list[EdgeColoring]:
    """All proper colorings whose purple class is the given perfect matching.

    Matched edges get purple; each complement cycle alternates red/blue and
    contributes an independent factor of 2, so an even matching gives
    2^(#cycles) colorings and a matching with an odd cycle gives none: [].
    """
    cycles = complement_cycles(g, matching)
    if any(len(cyc) % 2 for cyc in cycles):
        return []
    template = [PURPLE] * g.edge_count
    out: list[EdgeColoring] = []
    for firsts in itertools.product((RED, BLUE), repeat=len(cycles)):
        colors = list(template)
        for cyc, first in zip(cycles, firsts):
            second = BLUE if first == RED else RED
            for i, e in enumerate(cyc):
                colors[e] = first if i % 2 == 0 else second
        out.append(tuple(colors))
    return out


def matching_from_coloring(g: CubicGraph, coloring: Sequence[int], color: int) -> PerfectMatching:
    """The edges carrying one color of a proper coloring; always a perfect matching."""
    _colors((color,))  # refuses a non-color by type(), so True is not BLUE
    if not is_proper(g, coloring):
        raise ImproperColoring("matching extraction needs a proper coloring")
    return validate_matching(g, (e for e, c in enumerate(coloring) if c == color))


def count_from_even_matchings(g: CubicGraph) -> int:
    """Coloring count as a sum of 2^(#cycles) over the even perfect matchings."""
    return even_matching_sum(g, iter_perfect_matchings(g))


def even_matching_sum(g: CubicGraph, matchings: Iterable[PerfectMatching]) -> int:
    """Sum 2^(#cycles) over the even ones of the given perfect matchings of g,
    which are not validated. Each proper coloring has exactly one purple
    class, so over all perfect matchings the classes partition the colorings."""
    total = 0
    for m in matchings:
        walks, _ = trace_cycles(_complement_link(g, m))
        if all(len(w) % 2 == 0 for w in walks):
            total += 2 ** len(walks)
    return total
