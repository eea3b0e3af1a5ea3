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
from collections.abc import Iterable, Iterator, Sequence

from .coloring import BLUE, PURPLE, RED, EdgeColoring, _colors, is_proper
from .errors import ImproperColoring, NotAMatching, refuse_deep_recursion, shown
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
    free[n] counts n's undecided edges to other uncovered nodes; a branch stops
    when an uncovered node has none left."""
    # each non-loop edge: its id, its ends, and the far ends of the later edges there
    edges = [(e, u, v, [g.half_edge_node(h ^ 1) for x in (u, v) for h in g.incidence[x]
                        if h // 2 > e]) for e, (u, v) in enumerate(_edges(g)) if u != v]
    free = [sum(u != v for u, v in (g.edges[h // 2] for h in hs)) for hs in g.incidence]
    covered = [False] * g.node_count

    def rec(i: int, chosen: tuple[int, ...]) -> Iterator[PerfectMatching]:
        if 2 * len(chosen) == g.node_count:
            yield frozenset(chosen)
            return
        passed: list[int] = []  # ends of the edges this frame left out
        for k in range(i, len(edges)):
            e, u, v, later = edges[k]
            if covered[u] or covered[v]:
                continue
            covered[u] = covered[v] = True
            lost = [y for y in later if not covered[y]]
            for y in lost:
                free[y] -= 1
            if all(free[y] for y in lost):
                yield from rec(k + 1, chosen + (e,))
            for y in lost:
                free[y] += 1
            covered[u] = covered[v] = False
            passed += (u, v)
            free[u] -= 1
            free[v] -= 1
            if not (free[u] and free[v]):
                break
        for x in passed:
            free[x] += 1

    try:
        with refuse_deep_recursion("perfect-matching search"):
            yield from rec(0, ())
    finally:  # on close() too
        del rec  # rec holds itself; let go so refcounting frees it


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
