"""States of a graph with a perfect matching: sites, loops, and the expansion.

Every matched edge becomes a site. Removing the edge and its two endpoints
leaves four loose complement half-edges; the site links them in one of two
ways. Loops are the closed curves obtained by alternating complement edges
with site links, and a state coloring assigns one of three colors per loop
so that the two loops meeting at every site differ.

The State constructor orients sites along the complement cycles and traces
loops; the expansion builds no state and keeps only the ends and node masks
of paths.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .errors import InvalidArgument, RecursionBudgetExceeded, refuse_deep_recursion, shown
from .graph_core import CubicGraph, bridges_per_component, build_graph
from .matching import PerfectMatching, _complement_link, trace_cycles, validate_matching

PARALLEL = "parallel"
CROSSED = "crossed"
SWITCH_SETTINGS = (PARALLEL, CROSSED)

Pair = tuple[int, int]
Links = tuple[Pair, Pair]


@dataclass(frozen=True)
class Site:
    """One matched edge turned into a strand junction.

    ends_u / ends_v hold the complement half-edges at the two removed
    endpoints as (departing, arriving) with respect to the complement-cycle
    traversal; links() says how the switch joins them.
    """

    edge: int
    ends_u: Pair
    ends_v: Pair
    switch: str

    def links(self) -> Links:
        """Parallel links departing-at-u with arriving-at-v (and vice versa);
        crossed links departing with departing and arriving with arriving."""
        (out_u, in_u), (out_v, in_v) = self.ends_u, self.ends_v
        if self.switch == PARALLEL:
            return (out_u, in_v), (in_u, out_v)
        return (out_u, out_v), (in_u, in_v)


@dataclass(frozen=True)
class State:
    """The state of one switch vector (in edge-id order of the sites); the one
    place a state is built and checked. Raises NotAMatching for a matching that
    is not perfect, InvalidArgument for switches that are not a sequence of one
    setting per site. Stores the matching as a frozenset and the switches as a
    tuple, orients site ends along the complement cycles and traces the loops."""

    graph: CubicGraph
    matching: PerfectMatching
    switches: tuple[str, ...]
    sites: tuple[Site, ...] = field(init=False, repr=False, compare=False)
    loops: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # per site, the loop indices of its two strands (its two links)
    site_graph: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g, switches = self.graph, self.switches
        m = validate_matching(g, self.matching)
        ordered = sorted(m)
        if not isinstance(switches, Sequence) or len(switches) != len(ordered):
            raise InvalidArgument(f"need a sequence of {len(ordered)} switch settings")
        for s in switches:
            if s not in SWITCH_SETTINGS:
                raise InvalidArgument(f"unknown switch setting {shown(s)}")
        cycle_link = _complement_link(g, m)
        # a complement walk departs each node along some h and arrives there along cycle_link[h]
        ends = {g.half_edge_node(h): (h, cycle_link[h]) for w in trace_cycles(cycle_link)[0] for h in w}
        sites = tuple(Site(e, *(ends[n] for n in g.edges[e]), sw) for e, sw in zip(ordered, switches))
        site_links = [s.links() for s in sites]
        link = [-1] * (2 * g.edge_count)
        for (a, b), (c, d) in site_links:
            link[a], link[b], link[c], link[d] = b, a, d, c
        walks, loop_of = trace_cycles(link)
        for name, value in (("matching", m), ("switches", tuple(switches)), ("sites", sites),
                            ("loops", tuple(tuple(h >> 1 for h in w) for w in walks)),
                            ("site_graph", tuple((loop_of[p[0]], loop_of[q[0]]) for p, q in site_links))):
            object.__setattr__(self, name, value)

    @property
    def loop_count(self) -> int:
        return len(self.loops)


def _count_loop_colorings(loops: Sequence[int]) -> int:
    """Proper 3-colorings of loops as node masks, loops whose masks meet differing; a loop that
    meets none is a factor of 3. The rest go largest first, the largest and the first loop meeting
    it fixed to R and B (times 6), in count_colorings's search, refused at loop sys.getrecursionlimit()."""
    once = twice = 0  # the nodes on at least one and on at least two loops
    for x in loops:
        twice, once = twice | once & x, once | x
    met = list(filter(twice.__and__, loops))
    if len(met) < 3:
        return 3 ** (len(loops) - len(met)) * (6 if met else 1)
    met.sort(key=int.bit_count, reverse=True)
    j = 1
    while not met[j] & met[0]:  # met[0] meets some loop
        j += 1
    met.insert(1, met.pop(j))
    stop = min(last := len(met) - 1, sys.getrecursionlimit())
    leaves = 0
    stack = [(2, met[0], met[1], 0)]  # (loop i, then the nodes on R, B and P)
    push, pop = stack.append, stack.pop
    while stack:
        i, r, b, p = pop()
        m = met[i]
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
            m = met[i]
        else:  # at loop stop: the last loop, or the recursion limit
            if i < last:
                raise RecursionBudgetExceeded(f"loop-coloring search reached the recursion limit, {stop}")
            leaves += (not r & m) + (not b & m) + (not p & m)
    return 6 * 3 ** (len(loops) - len(met)) * leaves


def make_state(g: CubicGraph, matching: Iterable[int], switches: Sequence[str]) -> State:
    """The State constructor under its public name, which builds and checks the state."""
    return State(g, matching, switches)


def _state(s: State) -> State:
    """s, which must be a State."""
    if type(s) is not State:
        raise InvalidArgument(f"expected a State, not {type(s).__name__}")
    return s


def count_state_colorings(s: State) -> int:
    """Maps loops -> {R,B,P} with the two loops at every site distinct: 0 when a
    site's two strands are one loop, else the count of masks where site i is node i."""
    masks = [0] * _state(s).loop_count
    for i, (a, b) in enumerate(s.site_graph):
        masks[a], masks[b] = masks[a] | 1 << i, masks[b] | 1 << i
    return 0 if any(a == b for a, b in s.site_graph) else _count_loop_colorings(masks)


def logical_expansion_count(g: CubicGraph, matching: Iterable[int]) -> int:
    """Sum count_state_colorings over the switch vectors, searched site by site.

    A site's ends are its edge's other half-edges at u, (a, b), and at v,
    (c, d); its switches are the two pairings (a-c, b-d) and (a-d, b-c), and a
    sum over both never reads which one make_state calls parallel. Sites are
    set in edge-id order, and each complement half-edge is linked once, at its
    own site; so until it closes, every component is a path, kept as the far
    end of each free end and the mask of the nodes it touches. A link closes a
    loop when its two ends are one path's ends and otherwise joins two paths;
    both are O(1) and undone on the way back. a and b lie on the site's two
    strands under both switches, as do c and d, and components only grow; so
    once a node's two half-edges share a component, every completion of the
    branch has a zero site and the branch is cut. That happens exactly when a
    join's two paths touch a common node; a pair that is one edge (a loop at
    a site's end) is cut at the root. At a leaf every path has closed into a
    loop, and two loops meet at a site when their node masks meet.

    Equals count_colorings(g) for every perfect matching: each proper
    coloring selects exactly one switch per site (the pairing whose linked
    edges it colors equally) and then colors the loops of that state.
    """
    return _expansion_counts(g, [validate_matching(g, matching)])[0]


def _expansion_counts(g: CubicGraph, matchings: Iterable[PerfectMatching]) -> list[int]:
    """logical_expansion_count of each perfect matching, none validated, in one sweep: each
    edge's switches and the path tables are built once, as every link is undone on the way back."""
    others = [()] * (2 * g.edge_count)  # per half-edge, the other two at its node, in increasing order
    for p, q, r in g.incidence:
        others[p], others[q], others[r] = (q, r), (p, r), (p, q)
    # per edge, its site's two switches; () when an end pair is one edge, a loop
    switch = [() if a ^ 1 == b or c ^ 1 == d else (((a, c), (b, d)), ((a, d), (b, c)))
              for (a, b), (c, d) in zip(others[::2], others[1::2])]
    far = [h ^ 1 for h in range(2 * g.edge_count)]  # the other free end of h's path
    mask = [1 << u | 1 << v for u, v in g.edges for _ in (0, 1)]  # the nodes h's path touches
    with refuse_deep_recursion("state expansion"):
        return [_expand(0, choices, far, mask, []) if all(choices) else 0
                for choices in ([switch[e] for e in sorted(m)] for m in matchings)]  # sites in edge-id order


def _expand(i: int, choices: list, far: list[int], mask: list[int], loops: list[int]) -> int:
    """Colorings summed over the leaves below site i, each site linking its end pairs by a
    switch; far and mask as in _expansion_counts, loops the node masks of the closed loops."""
    if i == len(choices):
        return _count_loop_colorings(loops)
    total = 0
    for (a, b), (c, d) in choices[i]:
        x, y = far[a], far[b]
        if x == b:  # a and b are one path's ends: it closes
            loops.append(mask[a])
        elif mask[a] & mask[b]:
            continue  # the join would put a pair on one loop
        else:
            far[x], far[y] = y, x
            mask[x] = mask[y] = mask[a] | mask[b]
        z, w = far[c], far[d]
        if z == d:
            loops.append(mask[c])
            total += _expand(i + 1, choices, far, mask, loops)
            loops.pop()
        elif not mask[c] & mask[d]:
            far[z], far[w] = w, z
            mask[z] = mask[w] = mask[c] | mask[d]
            total += _expand(i + 1, choices, far, mask, loops)
            far[z], far[w], mask[z], mask[w] = c, d, mask[c], mask[d]
        if x == b:  # undo the first link
            loops.pop()
        else:
            far[x], far[y], mask[x], mask[y] = a, b, mask[a], mask[b]
    return total


def squeeze(s: State) -> CubicGraph:
    """Rebuild the cubic graph by pinching every site back into an edge.

    Reconstructed from the state's own data (loop segments and site ends),
    not by returning the stored source; the switch settings do not enter,
    which is why every state of (g, m) squeezes to g.
    """
    g = _state(s).graph
    endpoints = {e: (g.half_edge_node(2 * e), g.half_edge_node(2 * e + 1)) for loop in s.loops for e in loop}
    for site in s.sites:
        endpoints[site.edge] = (g.half_edge_node(site.ends_u[0]), g.half_edge_node(site.ends_v[0]))
    return build_graph(g.node_count, [endpoints[e] for e in range(g.edge_count)])


def state_has_isthmus(s: State) -> bool:
    """True when some site sits on a bridge of the squeezed graph."""
    g = squeeze(s)  # refuses a non-State
    return bool(bridges_per_component(g) & {site.edge for site in s.sites})
