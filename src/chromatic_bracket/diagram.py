"""Immersed plane diagrams of cubic graphs.

A diagram is purely combinatorial: trivalent nodes with 3 ports, 4-valent
crossings with 4 ports, and arcs pairing ports. Slot order around a vertex is
the clockwise rotation; at a crossing the two strands occupy slots 0<->2 and
1<->3. Planarity is not assumed but checked, by tracing faces of the rotation
system and computing the genus. A diagram is stored as its port-code table,
the ports numbered in sorted (kind, owner, slot) order: node port (n, s) is
3n + s, crossing port (x, s) is 3N + 4x + s for N nodes, and peer[c] is the
code c's arc joins.

chord_immersion draws any abstract cubic graph as a plane immersion: node
ports on a line in a given order, edges as rectilinear chords above it, and a
circled crossing for each pair of chords whose ports interleave.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from .errors import (
    InvalidArgument,
    NotPlane,
    ParseError,
    StrandClosesWithoutNode,
    UnmatchedPort,
    shown,
)
from .graph_core import CubicGraph, _edges, build_graph, components

NODE = "n"
CROSSING = "x"

CIRCLED = "circled"
PLAIN = "plain"
DOTTED = "dotted"
CROSSING_KINDS = (CIRCLED, PLAIN, DOTTED)


@dataclass(frozen=True)
class Diagram:
    """A diagram as its port-code table; the one place a diagram is checked.

    peer is filled from code_arcs, which is kept canonical: (c, peer[c]) for
    c < peer[c], by c. Raises InvalidArgument for a node_count or free_loops
    that is not a nonnegative int, kinds or arcs not iterable, an unknown kind
    or an arc not a list or tuple of two int codes of ports (by type(), so True
    is not 1); UnmatchedPort for the lowest port not covered exactly once."""

    node_count: int
    crossing_kinds: tuple[str, ...]
    code_arcs: tuple[tuple[int, int], ...]
    free_loops: int = 0
    peer: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        node_count, free_loops, code_arcs = self.node_count, self.free_loops, self.code_arcs
        if not (type(node_count) is int and node_count >= 0 and type(free_loops) is int and free_loops >= 0
                and isinstance(self.crossing_kinds, Iterable) and isinstance(code_arcs, Iterable)):
            raise InvalidArgument("node_count and free_loops must be nonnegative ints, "
                                  "and crossing_kinds and arcs iterable")
        kinds = tuple(self.crossing_kinds)
        for k in kinds:
            if type(k) is not str or k not in CROSSING_KINDS:
                raise InvalidArgument(f"unknown crossing kind {shown(k)}")
        codes = tuple(code_arcs)  # build_diagram reads its ports only now, after the checks above
        size = 3 * node_count + 4 * len(kinds)
        peer = [-1] * size if 2 * len(codes) == size else None  # None: some port is not covered once
        for pair in codes:
            if (type(pair) is tuple or type(pair) is list) and len(pair) == 2:  # "is" beats "in" per arc
                a, b = pair
                if type(a) is int and type(b) is int and 0 <= a < size and 0 <= b < size:  # -1 would wrap
                    if peer is None or a == b or peer[a] >= 0 or peer[b] >= 0:
                        peer = None
                    else:
                        peer[a], peer[b] = b, a
                    continue
            raise InvalidArgument(f"arc {shown(pair)} is not a pair of port codes below {shown(size)}")
        if peer is None:
            covered = Counter(c for arc in codes for c in arc)
            code = next(c for c in range(size) if covered[c] != 1)  # one is below 2|A| + 1, as in CubicGraph
            raise UnmatchedPort(f"port {_port_of(code, node_count)} is covered {covered[code]} times, expected 1")
        object.__setattr__(self, "crossing_kinds", kinds)
        object.__setattr__(self, "peer", tuple(peer))
        object.__setattr__(self, "code_arcs", tuple((c, m) for c, m in enumerate(peer) if c < m))

    @property
    def crossing_count(self) -> int:
        return len(self.crossing_kinds)


def build_diagram(
    node_count: int,
    crossing_kinds: Iterable[str],
    arcs: Iterable[Sequence[Sequence[object]]],
    free_loops: int = 0,
) -> Diagram:
    """The Diagram of arcs given as pairs of ports, each read to its code.

    A port is a list or tuple (kind, owner, slot). Equal diagrams compare and
    serialize identically whatever the order of their arcs and ports, and a
    refusal shows a port as it was given. Beyond the constructor's refusals,
    raises InvalidArgument for an arc that is not a list or tuple of two ports
    or a port that is not a list or tuple of three fields; UnmatchedPort for a
    port that does not exist (the first in sorted arc order when only its range
    is wrong) or an arc that joins a port to itself.
    """
    kinds = tuple(crossing_kinds) if isinstance(crossing_kinds, Iterable) else crossing_kinds

    def codes() -> Iterator[tuple[int, int]]:  # run by the constructor once it has checked the rest
        crossings = len(kinds)
        missing = []  # each arc with a port that does not exist, its ports sorted
        for pair in arcs:
            if type(pair) not in (list, tuple) or len(pair) != 2:
                raise InvalidArgument(f"arc {shown(pair)} is not a pair of ports")
            a, b = _port_code(pair[0], node_count, crossings), _port_code(pair[1], node_count, crossings)
            if a < 0 or b < 0 or a == b:
                p, q = arc = sorted(pair, key=tuple)
                if tuple(p) == tuple(q):
                    raise UnmatchedPort(f"arc joins port {shown(p)} to itself")
                missing.append(arc)
            yield a, b
        if missing:  # the first in sorted arc order
            arc = min(missing, key=lambda pq: [*map(tuple, pq)])
            port = next(p for p in arc if _port_code(p, node_count, crossings) < 0)
            raise UnmatchedPort(f"port {shown(port)} does not exist")

    return Diagram(node_count, kinds, codes() if isinstance(arcs, Iterable) else arcs, free_loops)


def _port_code(obj: object, node_count: int, crossings: int) -> int:
    """The code of a port, a list or tuple of a kind and two ints; -1 when no
    such port exists. By type(): True is not owner 1, and a str, a dict or a
    named tuple is no port."""
    if type(obj) not in (list, tuple) or len(obj) != 3:
        raise InvalidArgument(f"port {shown(obj)} does not have three fields")
    kind, owner, slot = obj
    if type(owner) is not int or type(slot) is not int or kind not in (NODE, CROSSING):
        raise UnmatchedPort(f"port {shown(obj)} does not exist")
    if kind == NODE:
        return 3 * owner + slot if 0 <= owner < node_count and 0 <= slot < 3 else -1
    return 3 * node_count + 4 * owner + slot if 0 <= owner < crossings and 0 <= slot < 4 else -1


def _port_of(code: int, node_count: int) -> list:
    """The port of a code as its JSON spelling, [kind, owner, slot]."""
    base = 3 * node_count
    return [NODE, *divmod(code, 3)] if code < base else [CROSSING, *divmod(code - base, 4)]


def _table(d: Diagram) -> tuple[int, ...]:
    """The port-code table of d, which must be a Diagram."""
    if type(d) is not Diagram:
        raise InvalidArgument(f"expected a Diagram, not {type(d).__name__}")
    return d.peer


# ---------------------------------------------------------------------------
# faces and genus

def trace_faces(d: Diagram) -> list[list[int]]:
    """Face boundary walks of the rotation system as port codes, each from its
    lowest code: a walk leaves a port over its arc and turns clockwise."""
    peer = _table(d)
    base = 3 * d.node_count
    seen = bytearray(len(peer))
    faces = []
    for start in range(len(peer)):
        if seen[start]:
            continue
        walk, c = [], start
        while not seen[c]:
            seen[c] = 1
            walk.append(c)
            m = peer[c]  # then one slot clockwise
            if m < base:
                c = m - 2 if m % 3 == 2 else m + 1
            else:
                c = m - 3 if (m - base) % 4 == 3 else m + 1
        faces.append(walk)
    return faces


def genus(d: Diagram) -> int:
    """Total genus over connected components; 0 means the diagram is plane.

    Each component has Euler characteristic 2 - 2g = V - A + F, so summing
    over C components gives 2 * genus = 2C - V + A - F. Free loops are plain
    circles and never contribute.
    """
    peer = _table(d)
    n, base = d.node_count, 3 * d.node_count
    vertex = [m // 3 if m < base else n + (m - base) // 4 for m in peer]  # of each port's mate
    neighbours = [vertex[c:c + 3] for c in range(0, base, 3)]
    neighbours += [vertex[c:c + 4] for c in range(base, len(peer), 4)]
    return (2 * len(components(neighbours)) - len(neighbours) + len(peer) // 2 - len(trace_faces(d))) // 2


# ---------------------------------------------------------------------------
# strands and the underlying graph

def trace_strands(d: Diagram) -> tuple[int, list[tuple[int, int, int]], list[list[int]]]:
    """Number the strands: node strands by their lowest node port, then closed
    ones (on no node) by their lowest crossing port. The one strand walk: from
    each port not yet on a strand, node ports first, over arcs and straight
    through crossings (slot s to s + 2), to a node or back to the start.

    Strand e < 3 * node_count / 2 is edge e of the underlying graph. Returns
    the strand count, the clockwise strand triple of each node (a strand from
    a node back to itself is in its triple twice) and, per crossing, the
    strands on its slot 0-2 and slot 1-3 axes.
    """
    peer = _table(d)
    base = 3 * d.node_count
    on = [-1] * len(peer)  # the strand of each port; both ports of a crossing axis share one
    k = 0
    for start in range(len(peer)):  # a crossing's slots 2 and 3 are on strands by now
        if on[start] >= 0:
            continue
        c = start
        while on[c] < 0:  # a closed strand stops back at its start
            on[c] = k
            c = peer[c]
            on[c] = k
            if c < base:
                break
            slot = (c - base) % 4
            c += (slot + 2) % 4 - slot  # straight through the crossing
        k += 1
    triples = [tuple(on[c:c + 3]) for c in range(0, base, 3)]
    return k, triples, [on[c:c + 2] for c in range(base, len(peer), 4)]


def underlying_graph(d: Diagram) -> CubicGraph:
    """Dissolve crossings into strand pass-throughs and read off the graph.

    Edge e joins the two nodes of strand e. Raises StrandClosesWithoutNode
    when some strand is a closed curve through crossings only; such
    components have no graph reading.
    """
    k, triples, _ = trace_strands(d)
    return _strand_graph(k, triples)


def _strand_graph(k: int, triples: Sequence[tuple[int, int, int]]) -> CubicGraph:
    """The graph of a trace_strands result (k strands, a triple per node);
    raises StrandClosesWithoutNode when a strand is on no node."""
    if 2 * k > 3 * len(triples):
        raise StrandClosesWithoutNode(
            "a strand through crossings never reaches a trivalent node"
        )
    ends: list[list[int]] = [[] for _ in range(k)]
    for n, triple in enumerate(triples):
        for e in triple:
            ends[e].append(n)
    return build_graph(len(triples), ends)


# ---------------------------------------------------------------------------
# chord immersion

def chord_immersion(g: CubicGraph, node_order: Sequence[int] | None = None) -> Diagram:
    """Deterministic plane immersion of an abstract cubic graph, drawn in node_order.

    The nodes sit on a line in node_order (default: by id), each with its
    three ports in slot order, and every edge is a rectilinear chord above
    the line: it rises at its left port, runs right and drops at its right
    port, a nested chord running lower. Two chords meet, in one circled
    crossing, exactly when their ports interleave, and no three chords meet.
    """
    _edges(g)  # refuses a non-CubicGraph
    if node_order is None:
        node_order = range(g.node_count)
    order = list(node_order) if isinstance(node_order, Iterable) else []  # [] is no permutation
    # type(): True is not node 1, and no other type sorts with the ids
    if any(type(n) is not int for n in order) or sorted(order) != list(range(g.node_count)):
        raise InvalidArgument("node_order must be a permutation of all nodes")
    d = _chord_layout(g, order)
    if genus(d) != 0:
        raise NotPlane("chord layout came out with positive genus")
    return d


def _chord_layout(g: CubicGraph, order: Sequence[int]) -> Diagram:
    """Chord e rises at x = lo[e], runs right at height level[e], the rank of its
    span, and drops at x = hi[e]. A crossing is one chord's rise or drop meeting
    another's run; there the run takes slots 0 -> 2, a drop 1 -> 3 and a rise
    3 -> 1, so slots go clockwise. Arcs are made as pairs of port codes."""
    rank = {n: r for r, n in enumerate(order)}
    at = {h: (3 * rank[n] + s, 3 * n + s)
          for n in range(g.node_count) for s, h in enumerate(g.incidence[n])}
    edges = range(g.edge_count)
    ends = [sorted((at[2 * e], at[2 * e + 1])) for e in edges]
    lo = [left for (left, _), _ in ends]
    hi = [right for _, (right, _) in ends]
    level = {e: i for i, e in enumerate(sorted(edges, key=lambda e: (hi[e] - lo[e], e)))}
    pairs = [(e, f) for e in edges for f in edges[e + 1:]
             if lo[e] < lo[f] < hi[e] < hi[f] or lo[f] < lo[e] < hi[f] < hi[e]]
    # per chord: (0 rise / 1 run / 2 drop, place along that part, crossing, slot in, slot out)
    hits: list[list[tuple[int, int, int, int, int]]] = [[] for _ in edges]
    for x, (e, f) in enumerate(pairs):
        a, b = (e, f) if lo[e] < lo[f] else (f, e)
        if level[a] > level[b]:  # a's drop meets b's run
            hits[a].append((2, -level[b], x, 1, 3))
            hits[b].append((1, hi[a], x, 0, 2))
        else:  # b's rise meets a's run
            hits[b].append((0, level[a], x, 3, 1))
            hits[a].append((1, lo[b], x, 0, 2))
    base = 3 * g.node_count
    arcs: list[tuple[int, int]] = []
    for ((_, prev), (_, last)), on_chord in zip(ends, hits):
        for _, _, x, enter, leave in sorted(on_chord):
            arcs.append((prev, base + 4 * x + enter))
            prev = base + 4 * x + leave
        arcs.append((prev, last))
    return Diagram(g.node_count, (CIRCLED,) * len(pairs), arcs)


# ---------------------------------------------------------------------------
# JSON wire format

def diagram_to_json_dict(d: Diagram) -> dict:
    peer, n = _table(d), d.node_count
    out: dict = {
        "nodes": [
            {"id": i, "cw": [_port_of(m, n) for m in peer[3 * i:3 * i + 3]]}
            for i in range(n)
        ],
        "crossings": [
            {"id": x, "kind": kind, "cw": [_port_of(m, n) for m in peer[c:c + 4]]}
            for x, (kind, c) in enumerate(zip(d.crossing_kinds, range(3 * n, len(peer), 4)))
        ],
        "arcs": [[_port_of(c, n), _port_of(m, n)] for c, m in d.code_arcs],
    }
    if d.free_loops:
        out["free_loops"] = d.free_loops
    return out


def diagram_from_json_dict(data: object) -> Diagram:
    """Read diagram JSON. This checks the node and crossing entries, that their
    ids are dense and that "cw" lists agree with the arcs; build_diagram checks
    the arcs, kinds and free_loops, and its errors become ParseErrors."""
    if not isinstance(data, dict):
        raise ParseError("diagram JSON must be an object")
    for key in ("nodes", "crossings", "arcs"):
        if key not in data or not isinstance(data[key], list):
            raise ParseError(f"diagram JSON needs list field {key!r}")
    by_id: dict[str, dict] = {}
    for key, name in (("nodes", "node"), ("crossings", "crossing")):
        for entry in data[key]:
            if not isinstance(entry, dict) or type(entry.get("id")) is not int:
                raise ParseError(f"bad {name} entry {shown(entry)}")
        by_id[key] = {entry["id"]: entry for entry in data[key]}
        if sorted(by_id[key]) != list(range(len(data[key]))):  # a repeated id shortens by_id
            raise ParseError(f"{name} ids must be dense from 0")
    crossings = by_id["crossings"]
    try:
        d = build_diagram(len(data["nodes"]), [crossings[x].get("kind") for x in range(len(crossings))],
                          data["arcs"], data.get("free_loops", 0))
        # the arcs are authoritative; "cw" entries, when present, must agree
        for kind, key, deg in ((NODE, "nodes", 3), (CROSSING, "crossings", 4)):
            for owner, entry in by_id[key].items():
                cw = entry.get("cw")
                if cw is None:
                    continue
                if not isinstance(cw, list) or len(cw) != deg:
                    raise ParseError(f"cw list of {kind}{owner} must have {deg} ports")
                code = 3 * owner if kind == NODE else 3 * d.node_count + 4 * owner
                for s, mate_json in enumerate(cw):
                    if _port_code(mate_json, d.node_count, d.crossing_count) != d.peer[code + s]:
                        raise ParseError(f"cw entry of {kind}{owner} slot {s} disagrees with arcs")
    except (UnmatchedPort, ValueError) as exc:
        raise ParseError(str(exc)) from exc
    return d

