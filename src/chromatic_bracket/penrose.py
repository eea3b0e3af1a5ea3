"""Bracket evaluation of diagrams: direct tensor contraction and skein rewriting.

A node weighs i times the epsilon sign of its clockwise colors: +1 on a
rotation of (R, B, P), -1 on one of (R, P, B). Every node set summed here
has an even count n (each component is cubic), so a node product is the
integer (-1)^(n/2) times the product of the signs. Circled crossings weigh
+1 when their two strand colors agree and -1 otherwise; dotted crossings
demand agreement; plain crossings weigh 1 and are invisible to the algebra.
All arithmetic is exact: integer signs, never floats.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from .coloring import BLUE, PURPLE, RED, _colors, is_proper
from .diagram import (
    CIRCLED,
    DOTTED,
    PLAIN,
    Diagram,
    _strand_graph,
    _table,
    trace_strands,
)
from .errors import (
    ImproperColoring,
    IndexOutOfRange,
    InvalidArgument,
    NotCircled,
    RecursionBudgetExceeded,
    refuse_deep_recursion,
    shown,
)
from .graph_core import CubicGraph, components, min_fill_order, tightest_first


# epsilon sign of each proper node coloring: +1 on the rotations of (R, B, P), -1 on those of (R, P, B)
_EPSILON = {t: 1 if t in ((RED, BLUE, PURPLE), (BLUE, PURPLE, RED), (PURPLE, RED, BLUE)) else -1
            for t in itertools.permutations((RED, BLUE, PURPLE))}


def node_weight(cw_colors: Sequence[int]) -> int:
    """The epsilon sign of a node's clockwise colors, 0 when a color repeats;
    the node weighs i times this sign. InvalidArgument unless cw_colors are
    three colors."""
    colors = _colors(cw_colors)
    if len(colors) != 3:
        raise InvalidArgument(f"a node has three colors, not {len(colors)}")
    return _EPSILON.get(colors, 0)


# Each crossing weighs a + b*[its two strand colors agree].
_PAIR_FACTOR = {PLAIN: (1, 0), CIRCLED: (-1, 2), DOTTED: (0, 1)}


def crossing_weight(kind: str, color_a: int, color_b: int) -> int:
    """The crossing's weight; InvalidArgument for an unknown kind or a non-color (True is not BLUE)."""
    if type(kind) is not str or kind not in _PAIR_FACTOR:
        raise InvalidArgument(f"unknown crossing kind {shown(kind)}")
    color_a, color_b = _colors((color_a, color_b))
    a, b = _PAIR_FACTOR[kind]
    return a + b if color_a == color_b else a


def weight_tables(d: Diagram, include_crossings: bool) -> tuple[CubicGraph, list, list]:
    """The underlying graph of d, and the two tables the weights read:
    clockwise edge ids per node, and per crossing its axis edge ids with its
    pair factor (ea, eb, a, b), left empty unless include_crossings."""
    k, nodes, axes = trace_strands(d)
    crossings = [(i, j, *_PAIR_FACTOR[kind]) for kind, (i, j) in
                 zip(d.crossing_kinds, axes if include_crossings else ())]
    return _strand_graph(k, nodes), nodes, crossings


def coloring_weight(
    c: Sequence[int], nodes: Sequence[tuple[int, int, int]], crossings: Sequence = ()
) -> int:
    """Weight of one proper coloring: node weights times crossing weights.

    The n node weights i*epsilon multiply to (-1)^(n/2) times the epsilon
    signs. n is even: the triples are all nodes of a cubic graph (3n = 2E),
    or two of them (formation.classify_meetings).
    """
    term = -1 if len(nodes) % 4 else 1
    for a, b, e in nodes:
        term *= _EPSILON[c[a], c[b], c[e]]
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


def _couplings(d: Diagram, include_crossings: bool) -> tuple[list, list, int]:
    """The bracket's front end: the clockwise strand triple of each node, per
    strand its merged crossing factors (adj[i][j] = (a, b), none unless
    include_crossings), and the constant split off, 3 per free loop, or 0 when
    a node holds a strand twice (a repeated epsilon index)."""
    k, nodes, axes = trace_strands(d)
    adj: list[dict[int, tuple[int, int]]] = [{} for _ in range(k)]
    mult = 3**d.free_loops if all(len(set(t)) == 3 for t in nodes) else 0
    for kind, (i, j) in zip(d.crossing_kinds, axes if include_crossings else ()):
        mult *= _link(adj, i, j, *_PAIR_FACTOR[kind])
    return nodes, adj, mult


def _node_adjacency(k: int, nodes: Sequence[tuple[int, ...]]) -> tuple[list, list]:
    """The nodes on each of k strands, and per node the nodes on its strands."""
    at: list[list[int]] = [[] for _ in range(k)]
    for n, t in enumerate(nodes):
        for s in t:
            at[s].append(n)
    return at, [[m for s in t for m in at[s]] for t in nodes]


def _strand_sum(nodes: Sequence[tuple[int, ...]], adj: list[dict[int, tuple[int, int]]]) -> int:
    """Sum over the colorings of the len(adj) strands of node weights times
    pair factors; adj is consumed.

    nodes holds each node's clockwise strand triple, no strand twice, and
    adj[i][j] = (a, b), merged by _link, weighs a + b*[strands i and j share
    a color]. Closed strands (on no node) with at most two pair neighbours
    are summed out first. The rest fall into components, strands joined by a
    node or a pair factor, and the total is the product of their sums. Each
    is backtracked in tightest_first order over the node triples, closed
    strands last, refusing a color that an earlier strand on one of its nodes
    holds and multiplying in each node's epsilon sign once its strands are
    colored. The i^n = (-1)^(n/2) of the n node weights is applied once;
    every component's n is even.

    Each color keeps a bitmask of the positions holding it, and each position
    a bitmask near of the earlier positions whose strands share a node with
    it (none for a closed strand): a color is refused when the two meet. A
    circled factor (-1, 2) is the sign (-1)^[colors differ]: each position
    keeps a bitmask of its earlier circled partners, and the sign is the
    parity of the partners outside the color. Other factors are multiplied
    in one by one. These tables are set up in one pass over the node triples
    and one over the couplings of the strands in order. In a component with
    a node, the first node's first two strands are fixed to (R, B) and its
    sum taken 6 times: pair factors read only agreement, and an odd color
    permutation flips every epsilon, which an even node count leaves
    unchanged in the product.
    """
    if not adj:
        return 1
    k, mult = len(adj), -1 if len(nodes) % 4 else 1
    at, node_nbrs = _node_adjacency(k, nodes)
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

    # blocks: the strands of each node component in BFS order, then each core
    # strand; pair factors join blocks into components, then tightest first
    blocks = [list(dict.fromkeys(s for n in part for s in nodes[n]))
              for part in components(node_nbrs)] + [[s] for s in core]
    block_of = {s: b for b, block in enumerate(blocks) for s in block}
    parts = [[s for b in sorted(part) for s in blocks[b]] for part in
             components([[block_of[w] for s in block for w in adj[s]] for block in blocks])]
    parts = tightest_first(nodes, parts)
    order = [s for part in parts for s in part]
    starts = list(itertools.accumulate(map(len, parts), initial=0))
    fixed = {lo for lo in starts[:-1] if at[order[lo]]}  # the component holds a node
    pos = dict(zip(order, range(len(order))))
    near, signs = [0] * len(order), [0] * len(order)  # bitmasks of earlier positions
    done: list[list[tuple[int, ...]]] = [[] for _ in order]
    for t in nodes:
        p = tuple(map(pos.__getitem__, t))
        lo, mid, hi = sorted(p)
        done[hi].append(p)
        near[mid] |= 1 << lo
        near[hi] |= 1 << lo | 1 << mid
    links: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for d, s in enumerate(order):
        for w, f in adj[s].items():
            if pos[w] < d and f == _PAIR_FACTOR[CIRCLED]:
                signs[d] |= 1 << pos[w]
            elif pos[w] < d:
                links[d].append((pos[w], *f))
    tries = [(RED, BLUE, PURPLE)] * len(order)
    for lo in fixed:
        tries[lo], tries[lo + 1] = (RED,), (BLUE,)
    ends = set(starts[1:])  # one past each component's last position
    steps = list(zip(tries, near, links, signs, done, [d + 1 in ends for d in range(len(order))]))
    colors, by_color = [0] * len(order), [0, 0, 0]
    for lo in starts[:-1]:
        mult *= _colorings_sum(lo, 1, steps, colors, by_color) * (6 if lo in fixed else 1)
    return mult


def _colorings_sum(d: int, term: int, steps: list, colors: list[int], by_color: list[int]) -> int:
    """term times the sum, over the colorings of positions d to the end of d's component, of
    their factors, given the colors before d; steps[d] = (tries, near, links, signs, done,
    last) as _strand_sum builds them, last true at a component's last position."""
    tries, near, links, signs, done, last = steps[d]
    me, total = 1 << d, 0
    for c in tries:
        if by_color[c] & near:
            continue
        colors[d] = c
        t = term
        for p, a, b in links:
            t *= a + b if colors[p] == c else a
        if not t:
            continue
        if (signs & ~by_color[c]).bit_count() & 1:
            t = -t
        for x, y, z in done:
            t *= _EPSILON[colors[x], colors[y], colors[z]]
        by_color[c] |= me
        total += t if last else _colorings_sum(d + 1, t, steps, colors, by_color)
        by_color[c] ^= me
    return total


def _contract(d: Diagram, include_crossings: bool) -> int:
    nodes, adj, mult = _couplings(d, include_crossings)
    with refuse_deep_recursion("strand-coloring sum"):
        return mult and mult * _strand_sum(nodes, adj)


def contract_plain(d: Diagram) -> int:
    """Sum of per-coloring node-weight products, crossings ignored."""
    return _contract(d, include_crossings=False)


def contract_extended(d: Diagram) -> int:
    """Sum of per-coloring node-weight products times crossing weights.

    Equals the proper 3-edge-coloring count of the underlying graph for any
    diagram whose crossings are all circled. Closed strands (on no node) are
    summed like the others.
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
    if type(crossing) is not int:  # type(): True is not crossing 1
        raise InvalidArgument(f"crossing index {shown(crossing)} is not an int")
    _table(d)  # refuses a non-Diagram
    if not 0 <= crossing < d.crossing_count:
        raise NotCircled(f"no crossing {shown(crossing)}")
    if d.crossing_kinds[crossing] != CIRCLED:
        raise NotCircled(f"crossing {crossing} is {d.crossing_kinds[crossing]}, not circled")

    return tuple(Diagram(d.node_count, d.crossing_kinds[:crossing] + (kind,) + d.crossing_kinds[crossing + 1:],
                         d.code_arcs, d.free_loops) for kind in (DOTTED, PLAIN))  # the same port-code table


def _cut_arc(d: Diagram, arc_index: int) -> tuple[int, int, list[tuple[int, int]]]:
    """The two port codes of arc arc_index and the other arcs, as code pairs
    (c, peer[c]) with c < peer[c], numbered in the order d.code_arcs lists them."""
    if type(arc_index) is not int:  # type(): True is not arc 1
        raise InvalidArgument(f"arc index {shown(arc_index)} is not an int")
    _table(d)  # refuses a non-Diagram
    if not 0 <= arc_index < len(d.code_arcs):
        raise IndexOutOfRange(f"no arc {shown(arc_index)}")
    arcs = list(d.code_arcs)
    p, q = arcs.pop(arc_index)
    return p, q, arcs


def insert_twist(d: Diagram, arc_index: int) -> Diagram:
    """Replace an arc by a kink through a fresh circled self-crossing.

    The strand meets the new crossing on both axes, so the weight is +1 in
    every coloring and the bracket value is unchanged.
    """
    p, q, arcs = _cut_arc(d, arc_index)
    x = len(d.peer)  # slot s of the new crossing is code x + s
    arcs += [(p, x), (x + 2, x + 1), (x + 3, q)]
    return Diagram(d.node_count, d.crossing_kinds + (CIRCLED,), arcs, d.free_loops)


def encircle_arc(d: Diagram, arc_index: int) -> Diagram:
    """Add a free circle crossing the chosen arc at one circled crossing.

    Summing the circle's three colors against any fixed strand color gives
    +1 - 1 - 1, so the value flips sign.
    """
    p, q, arcs = _cut_arc(d, arc_index)
    x = len(d.peer)  # slot s of the new crossing is code x + s
    arcs += [(p, x), (x + 2, q), (x + 1, x + 3)]
    return Diagram(d.node_count, d.crossing_kinds + (CIRCLED,), arcs, d.free_loops)


# ---------------------------------------------------------------------------
# skein evaluation

_Tuples = dict[int, tuple[int, ...]]  # tri: node -> its strand triple; at: strand -> its live nodes


def _merge(tri: _Tuples, adj: dict[int, dict], at: _Tuples, x: int, y: int) -> int:
    """Give strand y the color of strand x: y's couplings move onto x, and so
    do its live nodes (at[y]), in whose triples y is renamed x. Returns the
    constant split off, 0 when a node now holds one strand twice (a repeated
    epsilon index). Coupling dicts are shared between branches, so each one
    changed here is copied first."""
    if x == y:  # the strand closed up
        at.pop(x, None)
        if adj[x]:
            return 1
        del adj[x]  # a free loop sums to 3
        return 3
    mult = 1
    adj[x] = dict(adj[x])
    for w, (a, b) in adj.pop(y).items():
        adj[w] = dict(adj[w])
        del adj[w][y]
        mult *= _link(adj, x, w, a, b)
    on_x, on_y = at.pop(x, ()), at.pop(y, ())
    if any(n in on_x for n in on_y):
        return 0
    for n in on_y:
        tri[n] = tuple(x if s == y else s for s in tri[n])
    if on_x or on_y:
        at[x] = on_x + on_y
    return mult


def _state_key(tri: _Tuples, adj: dict[int, dict]) -> tuple[int, ...]:
    """The state up to strand renaming as one flat tuple: node count, triples (strands
    numbered by first appearance, then the other live ones), live count, couplings."""
    strands = list(itertools.chain.from_iterable(tri.values()))
    names = dict.fromkeys(itertools.chain(strands, adj))
    pos = dict(zip(names, range(len(names))))
    pairs = sorted((pos[s], pos[w], *f) for s, c in adj.items() if c for w, f in c.items() if pos[s] < pos[w])
    return (len(tri), *map(pos.__getitem__, strands), len(pos), *itertools.chain.from_iterable(pairs))


def _skein(tri: _Tuples, adj: dict[int, dict], at: _Tuples, steps: list[int], memo: dict) -> int:
    """Expand a coupling-free strand e from node u (slot i) to node v (slot j):
    summing e out of the two epsilons leaves (parallel) - (crossed), that is,
    u's strands at slots i+1, i+2 take the colors of v's at j+2, j+1, resp.
    j+1, j+2. Of the coupling-free strands on two nodes (at[e] = (u, v)), e has
    the least sum of its nodes' places in tri's order, ties to the lower strand.
    A leaf with no such strand is summed over strand colorings. adj is this call's own."""
    steps[0] -= 1
    if steps[0] < 0:
        raise RecursionBudgetExceeded("skein step budget exhausted")
    place = dict(zip(tri, range(len(tri))))
    best = min(((place[u] + place[v], e) for e, (u, v) in at.items() if not adj[e]), default=None)
    if best is None:
        pos = dict(zip(adj, range(len(adj))))
        return _strand_sum([tuple(map(pos.__getitem__, t)) for t in tri.values()],
                           [{pos[w]: f for w, f in c.items()} for c in adj.values()])
    e = best[1]
    u, v = at[e]
    i, j = tri[u].index(e), tri[v].index(e)
    a, b, c, d = tri[u][(i + 1) % 3], tri[u][(i + 2) % 3], tri[v][(j + 1) % 3], tri[v][(j + 2) % 3]
    del adj[e]  # summed out
    ends = {s: tuple(n for n in at[s] if n != u and n != v) for s in (a, b, c, d)}
    total = 0
    for sign, (x1, y1), (x2, y2) in ((1, (a, d), (b, c)), (-1, (a, c), (b, d))):
        branch, badj, bat = tri.copy(), adj.copy(), at.copy()
        del branch[u], branch[v], bat[e]
        bat.update(ends)
        mult = _merge(branch, badj, bat, x1, y1)
        if mult:
            x2, y2 = (x1 if s == y1 else s for s in (x2, y2))
            mult *= _merge(branch, badj, bat, x2, y2)
        if mult:
            key = _state_key(branch, badj)
            if key not in memo:
                memo[key] = _skein(branch, badj, bat, steps, memo)
            total += sign * mult * memo[key]
    return total


def skein_evaluate(d: Diagram, budget: int = 100_000) -> int:
    """Evaluate by expanding coupling-free strands between two nodes.

    _couplings traces the strands once and couples each crossing's two strands.
    An expansion drops both nodes and merges the colors of the strands they
    held, as (parallel) - (crossed); see _skein. It takes the coupling-free
    strand whose two nodes come earliest, by the least sum of their places in
    a min-fill elimination order of the live nodes (adjacent when they share
    a strand), or in input order when at most one strand starts
    coupling-free. A sub-diagram met again up to strand renaming is reused:
    one budget step is one expansion of a state new to this evaluation.
    Agrees with contract_extended wherever both apply.
    """
    if type(budget) is not int or budget < 0:
        raise InvalidArgument(f"skein budget {shown(budget)} is not a nonnegative int")
    nodes, adj, mult = _couplings(d, include_crossings=True)
    at, node_nbrs = _node_adjacency(len(adj), nodes)
    choice = len({s for t in nodes for s in t if not adj[s]}) > 1
    rank = min_fill_order(node_nbrs) if choice else range(len(nodes))
    with refuse_deep_recursion("skein expansion"):
        return mult and mult * _skein({n: nodes[n] for n in rank}, dict(enumerate(adj)),
                                      {s: tuple(ns) for s, ns in enumerate(at) if ns}, [budget], {})
