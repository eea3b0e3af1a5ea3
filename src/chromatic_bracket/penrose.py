"""Bracket evaluation of diagrams: direct tensor contraction and skein rewriting.

Nodes carry the epsilon weight +i or -i depending on whether their clockwise
colors read as a rotation of (R, B, P) or of (R, P, B). Circled crossings
weigh +1 when their two strand colors agree and -1 otherwise; dotted
crossings demand agreement; plain crossings weigh 1 and are invisible to the
algebra. All arithmetic is exact: signs and i-exponents, never floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .coloring import BLUE, PURPLE, RED, enumerate_colorings, is_proper
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


def crossing_weight(kind: str, color_a: int, color_b: int) -> int:
    if kind == PLAIN:
        return 1
    if kind == CIRCLED:
        return 1 if color_a == color_b else -1
    if kind == DOTTED:
        return 1 if color_a == color_b else 0
    raise ValueError(f"unknown crossing kind {kind!r}")


def _sign_of_i_power(exp: int, context: str) -> int:
    if exp % 2:
        raise NonIntegerResult(f"odd i-power in {context}; node convention broken")
    return 1 if exp % 4 == 0 else -1


def weight_tables(d: Diagram, include_crossings: bool) -> tuple[CubicGraph, list, list]:
    """The underlying graph of d, and the two tables coloring_weight reads:
    clockwise edge ids per node, and (kind, axis edge ids) per crossing,
    left empty unless include_crossings."""
    ug = underlying_graph(d)
    nodes = [tuple(ug.edge_of_port[Port(NODE, n, s)] for s in range(3))
             for n in range(d.node_count)]
    axes = crossing_axis_edges(ug, d.crossing_count) if include_crossings else []
    return ug.graph, nodes, list(zip(d.crossing_kinds, axes))


def coloring_weight(
    c: Sequence[int], nodes: Sequence[tuple[int, int, int]], crossings: Sequence = ()
) -> int:
    """Weight of one proper coloring: node weights times crossing weights.

    The node i-powers are summed first and must leave a real sign.
    """
    exp = 0
    for a, b, e in nodes:
        exp += node_weight((c[a], c[b], c[e])).i_power
    term = _sign_of_i_power(exp, "node-weight product")
    for kind, (ea, eb) in crossings:
        term *= crossing_weight(kind, c[ea], c[eb])
        if term == 0:
            break
    return term


def _contract(d: Diagram, include_crossings: bool) -> int:
    if d.node_count == 0:
        if d.crossing_count:
            raise StrandClosesWithoutNode("contraction needs node-anchored strands")
        return 3**d.free_loops
    g, nodes, crossings = weight_tables(d, include_crossings)
    total = sum(coloring_weight(c, nodes, crossings) for c in enumerate_colorings(g))
    return total * 3**d.free_loops


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

@dataclass
class _Work:
    """Mutable evaluation state: port pairing, live nodes, live crossings."""

    mate: dict[Port, Port]
    nodes: set[int]
    kinds: dict[int, str]
    free_loops: int

    def copy(self) -> "_Work":
        return _Work(dict(self.mate), set(self.nodes), dict(self.kinds), self.free_loops)


class _Strand(NamedTuple):
    ends: tuple[Port, ...]  # two node ports, or () for a closed strand
    passes: tuple[tuple[int, int], ...]  # (crossing id, axis) in walk order


def _reconnect(work: _Work, wiring: dict[Port, Port]) -> None:
    """Splice strands across a removed entity.

    wiring pairs the dead ports with their continuation partners. Live
    strands entering the dead region are rejoined end to end; alternating
    arc/wiring cycles that never reach a live port become free circles.
    """
    mate = work.mate
    dead = set(wiring)
    seen: set[Port] = set()
    for live in list(mate):
        if live in dead or mate[live] not in dead:
            continue
        x = mate[live]
        while True:
            seen.add(x)
            y = wiring[x]
            seen.add(y)
            z = mate[y]
            if z not in dead:
                mate[live] = z
                mate[z] = live
                break
            x = z
    for p in wiring:
        if p in seen:
            continue
        x = p
        while x not in seen:
            seen.add(x)
            y = wiring[x]
            seen.add(y)
            x = mate[y]
        work.free_loops += 1
    for p in dead:
        mate.pop(p, None)


def _dissolve_crossing(work: _Work, x: int) -> None:
    wiring: dict[Port, Port] = {}
    for a, b in ((0, 2), (1, 3)):
        pa, pb = Port(CROSSING, x, a), Port(CROSSING, x, b)
        wiring[pa] = pb
        wiring[pb] = pa
    _reconnect(work, wiring)
    del work.kinds[x]


def _trace_strands(work: _Work) -> tuple[list[_Strand], dict[tuple[int, int], int]]:
    strands: list[_Strand] = []
    axis_strand: dict[tuple[int, int], int] = {}
    visited: set[Port] = set()

    def walk_through(entry: Port, passes: list[tuple[int, int]]) -> Port:
        visited.add(entry)
        out = Port(CROSSING, entry.owner, strand_partner_slot(entry.slot))
        visited.add(out)
        passes.append((entry.owner, entry.slot % 2))
        axis_strand[(entry.owner, entry.slot % 2)] = len(strands)
        return work.mate[out]

    for n in sorted(work.nodes):
        for s in range(3):
            start = Port(NODE, n, s)
            if start in visited:
                continue
            visited.add(start)
            passes: list[tuple[int, int]] = []
            cur = work.mate[start]
            while cur.kind == CROSSING:
                cur = walk_through(cur, passes)
            visited.add(cur)
            strands.append(_Strand((start, cur), tuple(passes)))
    for x in sorted(work.kinds):
        for slot in range(4):
            p0 = Port(CROSSING, x, slot)
            if p0 in visited:
                continue
            passes = []
            cur = p0
            while True:
                cur = walk_through(cur, passes)
                if cur == p0:
                    break
            strands.append(_Strand((), tuple(passes)))
    return strands, axis_strand


def _edge_branches(
    pu: Port, pv: Port
) -> tuple[tuple[int, dict[Port, Port]], tuple[int, dict[Port, Port]]]:
    u, s = pu.owner, pu.slot
    v, t = pv.owner, pv.slot
    p1, p2 = Port(NODE, u, (s + 1) % 3), Port(NODE, u, (s + 2) % 3)
    q1, q2 = Port(NODE, v, (t + 1) % 3), Port(NODE, v, (t + 2) % 3)
    parallel = {p1: q2, q2: p1, p2: q1, q1: p2}
    crossed = {p1: q1, q1: p1, p2: q2, q2: p2}
    return (1, parallel), (-1, crossed)


def _stuck_sum(
    work: _Work, strands: list[_Strand], axis_strand: dict[tuple[int, int], int]
) -> int:
    """Direct sum over strand colorings when nodes remain but no arc joins
    two nodes crossing-free. Node epsilon weights and crossing weights are
    both in play; backtracks on completed nodes."""
    end_strand = {p: i for i, st in enumerate(strands) for p in st.ends}
    order: list[int] = []
    pos: dict[int, int] = {}
    for n in sorted(work.nodes):
        for s in range(3):
            i = end_strand[Port(NODE, n, s)]
            if i not in pos:
                pos[i] = len(order)
                order.append(i)
    for i in range(len(strands)):
        if i not in pos:
            pos[i] = len(order)
            order.append(i)

    nodes_at: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for n in sorted(work.nodes):
        slots = tuple(pos[end_strand[Port(NODE, n, s)]] for s in range(3))
        nodes_at[max(slots)].append(slots)
    xs_at: list[list[tuple[str, int, int]]] = [[] for _ in order]
    for x in sorted(work.kinds):
        a, b = pos[axis_strand[(x, 0)]], pos[axis_strand[(x, 1)]]
        xs_at[max(a, b)].append((work.kinds[x], a, b))

    colors = [0] * len(order)
    total = 0

    def rec(depth: int, sign: int, exp: int) -> None:
        nonlocal total
        if depth == len(order):
            total += sign * _sign_of_i_power(exp, "stuck-state sum")
            return
        for c in range(3):
            colors[depth] = c
            sg, ex = sign, exp
            ok = True
            for slots in nodes_at[depth]:
                w = node_weight((colors[slots[0]], colors[slots[1]], colors[slots[2]]))
                if w.zero:
                    ok = False
                    break
                ex += w.i_power
            if not ok:
                continue
            for kind, a, b in xs_at[depth]:
                wx = crossing_weight(kind, colors[a], colors[b])
                if wx == 0:
                    ok = False
                    break
                sg *= wx
            if ok:
                rec(depth + 1, sg, ex)

    rec(0, 1, 0)
    return total


def _merge_parallel(f1: tuple[int, int], f2: tuple[int, int]) -> tuple[int, int]:
    # (a1 + b1*d)(a2 + b2*d) with d idempotent
    a1, b1 = f1
    a2, b2 = f2
    return a1 * a2, a1 * b2 + b1 * a2 + b1 * b2


def _terminal_value(
    work: _Work, strands: list[_Strand], axis_strand: dict[tuple[int, int], int]
) -> int:
    """Closed strands coupled by circled/dotted crossings, summed exactly.

    Each strand pair carries a factor a + b*[equal colors]; strands reduce by
    isolated/leaf/series elimination and a small brute-forced core.
    """
    k = len(strands)
    adj: dict[int, dict[int, tuple[int, int]]] = {i: {} for i in range(k)}

    def add_edge(i: int, j: int, f: tuple[int, int]) -> None:
        if j in adj[i]:
            f = _merge_parallel(adj[i][j], f)
        adj[i][j] = adj[j][i] = f

    for x in sorted(work.kinds):
        i, j = axis_strand[(x, 0)], axis_strand[(x, 1)]
        add_edge(i, j, (-1, 2) if work.kinds[x] == CIRCLED else (0, 1))

    mult = 1
    live = set(range(k))
    while True:
        pick: tuple[int, int] | None = None
        for v in sorted(live):
            if len(adj[v]) <= 2:
                pick = (v, len(adj[v]))
                break
        if pick is None:
            break
        v, deg = pick
        if deg == 0:
            mult *= 3
        elif deg == 1:
            ((w, (a, b)),) = adj[v].items()
            mult *= 3 * a + b
            del adj[w][v]
        else:
            (w1, (a1, b1)), (w2, (a2, b2)) = sorted(adj[v].items())
            del adj[w1][v]
            del adj[w2][v]
            add_edge(w1, w2, (3 * a1 * a2 + a1 * b2 + a2 * b1, b1 * b2))
        adj[v] = {}
        live.remove(v)

    core = sorted(live)
    if not core:
        return mult
    if len(core) > 14:
        raise RecursionBudgetExceeded("terminal strand core too large to sum")
    idx = {v: i for i, v in enumerate(core)}
    pairs = [(idx[i], idx[j], adj[i][j]) for i in core for j in adj[i] if i < j]
    total = 0
    for assign in itertools.product(range(3), repeat=len(core)):
        term = 1
        for i, j, (a, b) in pairs:
            term *= a + (b if assign[i] == assign[j] else 0)
            if term == 0:
                break
        total += term
    return mult * total


def _evaluate(work: _Work, steps: list[int]) -> int:
    while True:
        steps[0] -= 1
        if steps[0] < 0:
            raise RecursionBudgetExceeded("skein step budget exhausted")
        plains = sorted(x for x, kind in work.kinds.items() if kind == PLAIN)
        if plains:
            for x in plains:
                _dissolve_crossing(work, x)
            continue
        strands, axis_strand = _trace_strands(work)
        for st in strands:
            # a strand from a node back to itself repeats an epsilon index
            if st.ends and st.ends[0].owner == st.ends[1].owner:
                return 0
        dissolve = [
            x for x in sorted(work.kinds) if axis_strand[(x, 0)] == axis_strand[(x, 1)]
        ]
        pair_circled: dict[tuple[int, int], list[int]] = {}
        for x in sorted(work.kinds):
            if work.kinds[x] != CIRCLED:
                continue
            i, j = axis_strand[(x, 0)], axis_strand[(x, 1)]
            if i != j:
                pair_circled.setdefault((min(i, j), max(i, j)), []).append(x)
        for xs in pair_circled.values():
            # two circled crossings between the same strand pair square to +1
            dissolve += xs[: len(xs) - len(xs) % 2]
        if dissolve:
            for x in dissolve:
                _dissolve_crossing(work, x)
            continue
        break

    arc = None
    for p in sorted(work.mate):
        q = work.mate[p]
        if p < q and p.kind == NODE and q.kind == NODE:
            arc = (p, q)
            break
    if arc is not None:
        pu, pv = arc
        total = 0
        for sign, wiring in _edge_branches(pu, pv):
            branch = work.copy()
            del branch.mate[pu]
            del branch.mate[pv]
            branch.nodes.discard(pu.owner)
            branch.nodes.discard(pv.owner)
            _reconnect(branch, wiring)
            total += sign * _evaluate(branch, steps)
        return total
    if work.nodes:
        return _stuck_sum(work, strands, axis_strand) * 3**work.free_loops
    return _terminal_value(work, strands, axis_strand) * 3**work.free_loops


def skein_evaluate(d: Diagram, budget: int = 100_000) -> int:
    """Evaluate by expanding crossing-free node-to-node arcs.

    Each expansion is (parallel rewiring) - (crossed rewiring); a strand
    looping from a node to itself kills its branch. Leaves with no such arc
    are summed directly over strand colorings. Agrees with contract_extended
    wherever both apply.
    """
    work = _Work(
        dict(d.mate),
        set(range(d.node_count)),
        dict(enumerate(d.crossing_kinds)),
        d.free_loops,
    )
    return _evaluate(work, [budget])
