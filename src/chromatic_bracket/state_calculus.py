"""States of a graph with a perfect matching: sites, loops, and the expansion.

Every matched edge becomes a site. Removing the edge and its two endpoints
leaves four loose complement half-edges; the site links them in one of two
ways. Loops are the closed curves obtained by alternating complement edges
with site links, and a state coloring assigns one of three colors per loop
so that the two loops meeting at every site differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import IncompleteState, refuse_deep_recursion
from .graph_core import CubicGraph, bridges_per_component, build_graph
from .matching import PerfectMatching, complement_cycles, trace_cycles, validate_matching

PARALLEL = "parallel"
CROSSED = "crossed"
SWITCH_SETTINGS = (PARALLEL, CROSSED)

Pair = tuple[int, int]
Links = tuple[Pair, Pair]


def _links(ends_u: Pair, ends_v: Pair, switch: str) -> Links:
    """Parallel links departing-at-u with arriving-at-v (and vice versa);
    crossed links departing with departing and arriving with arriving."""
    (out_u, in_u), (out_v, in_v) = ends_u, ends_v
    if switch == PARALLEL:
        return (out_u, in_v), (in_u, out_v)
    return (out_u, out_v), (in_u, in_v)


@dataclass(frozen=True)
class Site:
    """One matched edge turned into a strand junction.

    ends_u / ends_v hold the complement half-edges at the two removed
    endpoints as (departing, arriving) with respect to the complement-cycle
    traversal; _links says how the switch joins them.
    """

    edge: int
    ends_u: Pair
    ends_v: Pair
    switch: str

    def links(self) -> Links:
        return _links(self.ends_u, self.ends_v, self.switch)


@dataclass(frozen=True)
class State:
    graph: CubicGraph
    matching: PerfectMatching
    sites: tuple[Site, ...]
    loops: tuple[tuple[int, ...], ...]
    # per site, the loop indices of its two strands (its two links)
    site_graph: tuple[tuple[int, int], ...]

    @property
    def loop_count(self) -> int:
        return len(self.loops)

    @property
    def switches(self) -> tuple[str, ...]:
        return tuple(s.switch for s in self.sites)


def _site_ends(g: CubicGraph, m: PerfectMatching) -> list[tuple[Pair, Pair]]:
    """(ends_u, ends_v) of every site, in edge-id order."""
    passages = complement_cycles(g, m).passages
    ends = []
    for e in sorted(m):
        (in_u, out_u), (in_v, out_v) = (passages[n] for n in g.edges[e])
        ends.append(((out_u, in_u), (out_v, in_v)))
    return ends


def _trace_loops(half_edges: int, site_links: Sequence[Links]) -> tuple[list[list[int]], list[Pair]]:
    """Loops as departing half-edges (trace_cycles order), plus per site the
    loops of its two strands."""
    link = [-1] * half_edges
    for (a, b), (c, d) in site_links:
        link[a], link[b], link[c], link[d] = b, a, d, c
    walks, loop_of = trace_cycles(link)
    return walks, [(loop_of[p[0]], loop_of[q[0]]) for p, q in site_links]


def _count_loop_colorings(k: int, site_pairs: Iterable[Pair]) -> int:
    """Proper 3-colorings of k loops; 0 as soon as a site pair is one loop."""
    earlier: list[list[int]] = [[] for _ in range(k)]
    for a, b in site_pairs:
        if a == b:
            return 0
        earlier[max(a, b)].append(min(a, b))

    colors = [0] * k

    def rec(v: int) -> int:
        if v == k:
            return 1
        total = 0
        for c in range(3):
            if all(colors[w] != c for w in earlier[v]):
                colors[v] = c
                total += rec(v + 1)
        return total

    return rec(0)


def make_state(g: CubicGraph, matching: Iterable[int], switches: Sequence[str]) -> State:
    m = validate_matching(g, matching)
    ordered = sorted(m)
    if len(switches) != len(ordered):
        raise ValueError(f"need {len(ordered)} switch settings, got {len(switches)}")
    for s in switches:
        if s not in SWITCH_SETTINGS:
            raise ValueError(f"unknown switch setting {s!r}")
    ends = _site_ends(g, m)
    sites = tuple(Site(e, eu, ev, sw) for e, (eu, ev), sw in zip(ordered, ends, switches))
    walks, site_graph = _trace_loops(2 * g.edge_count, [s.links() for s in sites])
    loops = tuple(tuple(h >> 1 for h in w) for w in walks)
    return State(g, m, sites, loops, tuple(site_graph))


def count_state_colorings(s: State) -> int:
    """Maps loops -> {R,B,P} with the two loops at every site distinct.

    This is the number of proper 3-colorings of the site multigraph; a site
    whose strands lie on one loop makes it zero.
    """
    with refuse_deep_recursion("loop-coloring count"):
        return _count_loop_colorings(s.loop_count, s.site_graph)


def logical_expansion_count(g: CubicGraph, matching: Iterable[int]) -> int:
    """Sum count_state_colorings over the switch vectors, searched site by site.

    Sites are set in edge-id order, and each chosen link joins the components
    of its two complement edges (a union-find that relabels the smaller
    component, undone on the way back). The two edges at either end of a
    site lie on its two strands under both switches, and components only
    grow; so once they share a component, set site or not, every completion
    of the branch has a site with both strands on one loop, which counts 0,
    and the branch is cut. Only the switch vectors with no such site reach a
    leaf, where their loops are traced and colored.

    Equals count_colorings(g) for every perfect matching: each proper
    coloring selects exactly one switch per site (the pairing whose linked
    edges it colors equally) and then colors the loops of that state.
    """
    ends = _site_ends(g, validate_matching(g, matching))
    half_edges = 2 * g.edge_count
    choices = [[_links(eu, ev, sw) for sw in SWITCH_SETTINGS] for eu, ev in ends]
    apart = [(a >> 1, b >> 1) for site in ends for a, b in site]  # must not share a loop
    label = list(range(g.edge_count))  # component of each edge
    members = [[e] for e in range(g.edge_count)]
    chosen: list[Links] = []

    def rec(i: int) -> int:
        if any(label[a] == label[b] for a, b in apart):
            return 0
        if i == len(choices):
            walks, site_graph = _trace_loops(half_edges, chosen)
            return _count_loop_colorings(len(walks), site_graph)
        total = 0
        for links in choices[i]:
            joined = []
            for a, b in links:
                small, big = label[a >> 1], label[b >> 1]
                if small != big:
                    if len(members[small]) > len(members[big]):
                        small, big = big, small
                    for e in members[small]:
                        label[e] = big
                    members[big] += members[small]
                    joined.append((small, big))
            chosen.append(links)
            total += rec(i + 1)
            chosen.pop()
            for small, big in reversed(joined):
                del members[big][-len(members[small]):]
                for e in members[small]:
                    label[e] = small
        return total

    with refuse_deep_recursion("state expansion"):
        return rec(0)


def squeeze(s: State) -> CubicGraph:
    """Rebuild the cubic graph by pinching every site back into an edge.

    Reconstructed from the state's own data (loop segments and site ends),
    not by returning the stored source; the switch settings do not enter,
    which is why every state of (g, m) squeezes to g.
    """
    g = s.graph
    edge_list: list[tuple[int, int] | None] = [None] * g.edge_count
    for loop in s.loops:
        for e in loop:
            edge_list[e] = (g.half_edge_node(2 * e), g.half_edge_node(2 * e + 1))
    for site in s.sites:
        u = g.half_edge_node(site.ends_u[0])
        v = g.half_edge_node(site.ends_v[0])
        edge_list[site.edge] = (u, v)
    filled = [pair for pair in edge_list if pair is not None]
    if len(filled) != g.edge_count:
        raise IncompleteState(f"loops and sites cover {len(filled)} of {g.edge_count} edges")
    return build_graph(g.node_count, filled)


def state_has_isthmus(s: State) -> bool:
    """True when some site sits on a bridge of the squeezed graph."""
    site_edges = {site.edge for site in s.sites}
    return bool(bridges_per_component(squeeze(s)) & site_edges)
