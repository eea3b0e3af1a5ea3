"""Bracket evaluation of diagrams: direct tensor contraction and skein rewriting.

Nodes carry the epsilon weight +i or -i depending on whether their clockwise
colors read as a rotation of (R, B, P) or of (R, P, B). Circled crossings
weigh +1 when their two strand colors agree and -1 otherwise; dotted
crossings demand agreement; plain crossings weigh 1 and are invisible to the
algebra. All arithmetic is exact: signs and i-exponents, never floats.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from .coloring import BLUE, PURPLE, RED, is_proper
from .diagram import (
    CIRCLED,
    CROSSING,
    DOTTED,
    NODE,
    PLAIN,
    Diagram,
    Port,
    build_diagram,
    crossing_axis_edges,
    strand_partner_slot,
    trace_strand,
    underlying_graph,
)
from .errors import (
    ImproperColoring,
    NonIntegerResult,
    NotCircled,
    RecursionBudgetExceeded,
    StrandClosesWithoutNode,
)
from .graph_core import CubicGraph


class NodeWeight(NamedTuple):
    """Epsilon weight of one node: zero flag plus the power of i (mod 4)."""

    zero: bool
    i_power: int


_PLUS_ROTATIONS = {(RED, BLUE, PURPLE), (BLUE, PURPLE, RED), (PURPLE, RED, BLUE)}
_MINUS_ROTATIONS = {(RED, PURPLE, BLUE), (PURPLE, BLUE, RED), (BLUE, RED, PURPLE)}


def node_weight(cw_colors: Sequence[int]) -> NodeWeight:
    triple = tuple(cw_colors)
    if triple in _PLUS_ROTATIONS:
        return NodeWeight(False, 1)
    if triple in _MINUS_ROTATIONS:
        return NodeWeight(False, 3)
    return NodeWeight(True, 0)


# Each crossing weighs a + b*[its two strand colors agree].
_PAIR_FACTOR = {PLAIN: (1, 0), CIRCLED: (-1, 2), DOTTED: (0, 1)}


def crossing_weight(kind: str, color_a: int, color_b: int) -> int:
    if kind not in _PAIR_FACTOR:
        raise ValueError(f"unknown crossing kind {kind!r}")
    a, b = _PAIR_FACTOR[kind]
    return a + b if color_a == color_b else a


# i-power of each proper node coloring, read by both weights below
_NODE_I_POWER = {t: node_weight(t).i_power for t in itertools.permutations((RED, BLUE, PURPLE))}


def _sign_of_i_power(exp: int, context: str) -> int:
    if exp % 2:
        raise NonIntegerResult(f"odd i-power in {context}; node convention broken")
    return 1 if exp % 4 == 0 else -1


def weight_tables(d: Diagram, include_crossings: bool) -> tuple[CubicGraph, list, list]:
    """The underlying graph of d, and the two tables the weights read:
    clockwise edge ids per node, and per crossing its axis edge ids with its
    pair factor (ea, eb, a, b), left empty unless include_crossings."""
    ug = underlying_graph(d)
    nodes = [tuple(ug.edge_of_port[Port(NODE, n, s)] for s in range(3))
             for n in range(d.node_count)]
    axes = crossing_axis_edges(ug, d.crossing_count) if include_crossings else []
    return ug.graph, nodes, [(ea, eb, *_PAIR_FACTOR[kind])
                             for kind, (ea, eb) in zip(d.crossing_kinds, axes)]


def coloring_weight(
    c: Sequence[int], nodes: Sequence[tuple[int, int, int]], crossings: Sequence = ()
) -> int:
    """Weight of one proper coloring: node weights times crossing weights.

    The node i-powers are summed first and must leave a real sign.
    """
    exp = sum(_NODE_I_POWER[c[a], c[b], c[e]] for a, b, e in nodes)
    term = _sign_of_i_power(exp, "node-weight product")
    for ea, eb, a, b in crossings:
        term *= a + b if c[ea] == c[eb] else a
        if term == 0:
            break
    return term


def _link(adj: list[dict[int, tuple[int, int]]], i: int, j: int, a: int, b: int) -> int:
    """Multiply a + b*[strands i and j agree] into their factor; return the
    constant split off: a + b on one strand, a when no coupling is left, else 1."""
    if i == j:
        return a + b
    if j in adj[i]:
        a0, b0 = adj[i].pop(j)
        del adj[j][i]
        a, b = a0 * a, a0 * b + b0 * a + b0 * b  # [agree] is idempotent
    if b == 0:
        return a
    adj[i][j] = adj[j][i] = (a, b)
    return 1


def _strand_sum(
    k: int, nodes: Sequence[tuple[int, ...]], pairs: Iterable[tuple[int, int, int, int]]
) -> int:
    """Sum over the colorings of k strands of node weights times pair factors.

    nodes holds each node's clockwise strand triple; a pair (i, j, a, b)
    weighs a + b*[strands i and j share a color]. Closed strands (on no node)
    with at most two pair neighbours are summed out first. The rest are
    backtracked with the nodes in BFS order, refusing a color a node already
    holds, and the node i-powers must leave a real sign.
    """
    if k == 0:
        return 1
    if any(len(set(t)) < 3 for t in nodes):
        return 0  # a strand meeting a node twice repeats an epsilon index
    adj: list[dict[int, tuple[int, int]]] = [{} for _ in range(k)]
    mult = 1
    for i, j, a, b in pairs:
        mult *= _link(adj, i, j, a, b)
    at: list[list[int]] = [[] for _ in range(k)]
    for n, t in enumerate(nodes):
        for s in t:
            at[s].append(n)
    todo = [s for s in range(k) if not at[s]]
    gone: set[int] = set()
    while todo:
        v = todo.pop()
        if v in gone or len(adj[v]) > 2:
            continue
        gone.add(v)
        nbrs = sorted(adj[v].items())
        for w, _ in nbrs:
            del adj[w][v]
        todo += [w for w, _ in nbrs if not at[w]]
        if len(nbrs) == 2:
            (w1, (a1, b1)), (w2, (a2, b2)) = nbrs
            mult *= _link(adj, w1, w2, 3 * a1 * a2 + a1 * b2 + a2 * b1, b1 * b2)
        else:
            a, b = nbrs[0][1] if nbrs else (1, 0)  # a lone strand sums to 3
            mult *= 3 * a + b
    if not mult:
        return 0
    core = [s for s in range(k) if not at[s] and s not in gone]
    if len(core) > 14:
        raise RecursionBudgetExceeded("closed strand core too large to sum")

    bfs: list[int] = []
    seen: set[int] = set()
    for root in range(len(nodes)):
        if root not in seen:
            seen.add(root)
            queue = [root]
            for n in queue:  # grows while it is walked
                for s in nodes[n]:
                    queue += [m for m in at[s] if m not in seen]
                    seen.update(at[s])
            bfs += queue
    order = list(dict.fromkeys(s for n in bfs for s in nodes[n])) + core
    for j, s in enumerate(core):  # two private nodes each, so no color is refused
        at[s] = [len(nodes) + 2 * j, len(nodes) + 2 * j + 1]
    pos = {s: d for d, s in enumerate(order)}
    done: list[list[list[int]]] = [[] for _ in order]
    for t in nodes:
        p = [pos[s] for s in t]
        done[max(p)].append(p)
    links = [[(pos[w], a, b) for w, (a, b) in adj[s].items() if pos[w] < d]
             for d, s in enumerate(order)]
    ends = [at[s] for s in order]
    colors = [0] * len(order)
    held = [0] * (len(nodes) + 2 * len(core))
    total = 0

    def rec(d: int, term: int, exp: int) -> None:
        nonlocal total
        if d == len(order):
            total += term * _sign_of_i_power(exp, "node-weight product")
            return
        u, v = ends[d]
        taken = held[u] | held[v]
        for c in (RED, BLUE, PURPLE):
            bit = 1 << c
            if taken & bit:
                continue
            colors[d] = c
            t, e = term, exp
            for p, a, b in links[d]:
                t *= a + b if colors[p] == c else a
            if not t:
                continue
            for x, y, z in done[d]:
                e += _NODE_I_POWER[colors[x], colors[y], colors[z]]
            held[u] |= bit
            held[v] |= bit
            rec(d + 1, t, e)
            held[u] ^= bit
            held[v] ^= bit

    rec(0, 1, 0)
    return mult * total


def _contract(d: Diagram, include_crossings: bool) -> int:
    if d.node_count == 0:
        if d.crossing_count:
            raise StrandClosesWithoutNode("contraction needs node-anchored strands")
        return 3**d.free_loops
    g, nodes, pairs = weight_tables(d, include_crossings)
    return _strand_sum(g.edge_count, nodes, pairs) * 3**d.free_loops


def contract_plain(d: Diagram) -> int:
    """Sum of per-coloring node-weight products, crossings ignored."""
    return _contract(d, include_crossings=False)


def contract_extended(d: Diagram) -> int:
    """Sum of per-coloring node-weight products times crossing weights.

    Equals the proper 3-edge-coloring count of the underlying graph for any
    diagram whose crossings are all circled.
    """
    return _contract(d, include_crossings=True)


def per_coloring_weight(d: Diagram, c: Sequence[int], include_crossings: bool = True) -> int:
    g, nodes, crossings = weight_tables(d, include_crossings)
    if not is_proper(g, c):
        raise ImproperColoring("per-coloring weight needs a proper coloring")
    return coloring_weight(c, nodes, crossings)


# ---------------------------------------------------------------------------
# diagram surgery helpers

def expand_circled(d: Diagram, crossing: int) -> tuple[Diagram, Diagram]:
    """The two diagrams with the circled crossing made dotted resp. plain.

    value(d) = 2 * value(dotted variant) - value(plain variant), pointwise in
    every strand coloring: (2*[a==b] - 1) is exactly the circled weight.
    """
    if not 0 <= crossing < d.crossing_count:
        raise NotCircled(f"no crossing {crossing}")
    if d.crossing_kinds[crossing] != CIRCLED:
        raise NotCircled(f"crossing {crossing} is {d.crossing_kinds[crossing]}, not circled")

    def with_kind(kind: str) -> Diagram:
        kinds = list(d.crossing_kinds)
        kinds[crossing] = kind
        return build_diagram(d.node_count, kinds, d.arcs, d.free_loops)

    return with_kind(DOTTED), with_kind(PLAIN)


def insert_twist(d: Diagram, arc_index: int) -> Diagram:
    """Replace an arc by a kink through a fresh circled self-crossing.

    The strand meets the new crossing on both axes, so the weight is +1 in
    every coloring and the bracket value is unchanged.
    """
    p, q = d.arcs[arc_index]
    x = d.crossing_count
    arcs = [a for i, a in enumerate(d.arcs) if i != arc_index]
    arcs += [
        (p, Port(CROSSING, x, 0)),
        (Port(CROSSING, x, 2), Port(CROSSING, x, 1)),
        (Port(CROSSING, x, 3), q),
    ]
    return build_diagram(d.node_count, d.crossing_kinds + (CIRCLED,), arcs, d.free_loops)


def encircle_arc(d: Diagram, arc_index: int) -> Diagram:
    """Add a free circle crossing the chosen arc at one circled crossing.

    Summing the circle's three colors against any fixed strand color gives
    +1 - 1 - 1, so the value flips sign.
    """
    p, q = d.arcs[arc_index]
    x = d.crossing_count
    arcs = [a for i, a in enumerate(d.arcs) if i != arc_index]
    arcs += [
        (p, Port(CROSSING, x, 0)),
        (Port(CROSSING, x, 2), q),
        (Port(CROSSING, x, 1), Port(CROSSING, x, 3)),
    ]
    return build_diagram(d.node_count, d.crossing_kinds + (CIRCLED,), arcs, d.free_loops)


# ---------------------------------------------------------------------------
# skein evaluation

def _trace_strands(d: Diagram) -> tuple[int, list[tuple[int, ...]], dict[tuple[int, int], int]]:
    """Number the strands: node strands from the lowest node port, then closed ones.

    Returns the strand count, the clockwise strand triple of each node (a
    strand from a node back to itself is in its triple twice) and the strand
    on each (crossing, axis).
    """
    triples = [[-1, -1, -1] for _ in range(d.node_count)]
    axis_strand: dict[tuple[int, int], int] = {}
    k = 0
    for n, triple in enumerate(triples):
        for s in range(3):
            if triple[s] < 0:
                end, walk = trace_strand(d, Port(NODE, n, s))
                triple[s] = triples[end.owner][end.slot] = k
                for x, slot in walk:
                    axis_strand[x, slot % 2] = k
                k += 1
    for x in range(d.crossing_count):
        for axis in (0, 1):
            if (x, axis) in axis_strand:
                continue
            cur = Port(CROSSING, x, axis)
            while (cur.owner, cur.slot % 2) not in axis_strand:
                axis_strand[cur.owner, cur.slot % 2] = k
                cur = d.mate[Port(CROSSING, cur.owner, strand_partner_slot(cur.slot))]
            k += 1
    return k, [tuple(t) for t in triples], axis_strand


def _merge(tri: dict[int, tuple[int, ...]], adj: list, x: int, y: int) -> int:
    """Give strand y the color of strand x: y's couplings move onto x and y
    leaves the node triples. Returns the constant split off, 0 when a node
    now holds one strand twice (a repeated epsilon index). Coupling dicts
    are shared between branches, so each one changed here is copied first."""
    if x == y:  # the strand closed up
        if adj[x]:
            return 1
        adj[x] = None  # a free loop sums to 3
        return 3
    mult = 1
    adj[x] = dict(adj[x])
    for w, (a, b) in adj[y].items():
        adj[w] = dict(adj[w])
        del adj[w][y]
        mult *= _link(adj, x, w, a, b)
    adj[y] = None  # merged away
    for n, t in tri.items():
        if y in t:
            if x in t:
                return 0
            tri[n] = tuple(x if s == y else s for s in t)
    return mult


def _skein(tri: dict[int, tuple[int, ...]], adj: list, steps: list[int]) -> int:
    """Expand a coupling-free strand e from node u (slot i) to node v (slot j):
    summing e out of the two epsilons leaves (parallel) - (crossed), that is,
    u's strands at slots i+1, i+2 take the colors of v's at j+2, j+1, resp.
    j+1, j+2. A leaf with no such strand is summed over strand colorings."""
    steps[0] -= 1
    if steps[0] < 0:
        raise RecursionBudgetExceeded("skein step budget exhausted")
    found = next(((u, i, e) for u, t in tri.items() for i, e in enumerate(t) if not adj[e]), None)
    if found is None:
        live = [s for s, c in enumerate(adj) if c is not None]
        pos = {s: p for p, s in enumerate(live)}
        return _strand_sum(len(live), [tuple(pos[s] for s in t) for t in tri.values()],
                           [(pos[s], pos[w], a, b) for s in live
                            for w, (a, b) in adj[s].items() if s < w])
    u, i, e = found
    v, tv = next((v, t) for v, t in tri.items() if v != u and e in t)
    j = tv.index(e)
    a, b, c, d = tri[u][(i + 1) % 3], tri[u][(i + 2) % 3], tv[(j + 1) % 3], tv[(j + 2) % 3]
    adj[e] = None  # summed out; this list is this call's own
    total = 0
    for sign, (x1, y1), (x2, y2) in ((1, (a, d), (b, c)), (-1, (a, c), (b, d))):
        branch = {n: t for n, t in tri.items() if n != u and n != v}
        badj = adj.copy()
        mult = _merge(branch, badj, x1, y1)
        if mult:
            x2, y2 = (x1 if s == y1 else s for s in (x2, y2))
            mult *= _merge(branch, badj, x2, y2)
        if mult:
            total += sign * mult * _skein(branch, badj, steps)
    return total


def skein_evaluate(d: Diagram, budget: int = 100_000) -> int:
    """Evaluate by expanding coupling-free strands between two nodes.

    The strands are traced once, and each crossing couples its two strands.
    An expansion drops both nodes and merges the colors of the strands they
    held, as (parallel) - (crossed); see _skein. One budget step is one
    expansion node. Agrees with contract_extended wherever both apply.
    """
    k, nodes, axis_strand = _trace_strands(d)
    if any(len(set(t)) < 3 for t in nodes):
        return 0  # a strand from a node back to itself repeats an epsilon index
    adj: list = [{} for _ in range(k)]
    mult = 3**d.free_loops
    for x, kind in enumerate(d.crossing_kinds):
        mult *= _link(adj, axis_strand[x, 0], axis_strand[x, 1], *_PAIR_FACTOR[kind])
    return mult * _skein(dict(enumerate(nodes)), adj, [budget])
