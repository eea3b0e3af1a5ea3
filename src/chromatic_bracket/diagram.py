"""Immersed plane diagrams of cubic graphs.

A diagram is purely combinatorial: trivalent nodes with 3 ports, 4-valent
crossings with 4 ports, and arcs pairing ports. Slot order around a vertex is
the clockwise rotation; at a crossing the two strands occupy slots 0<->2 and
1<->3. Planarity is not assumed but checked, by tracing faces of the rotation
system and computing the genus.

chord_immersion builds a plane immersion of any abstract cubic graph with
exact rational geometry: node ports sit on a parabola, edges are chords, and
interleaving chords meet in circled crossings.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DegenerateLayout,
    NotPlane,
    ParseError,
    StrandClosesWithoutNode,
    UnmatchedPort,
)
from .graph_core import CubicGraph, build_graph

NODE = "n"
CROSSING = "x"

CIRCLED = "circled"
PLAIN = "plain"
DOTTED = "dotted"
CROSSING_KINDS = (CIRCLED, PLAIN, DOTTED)


class Port(NamedTuple):
    kind: str  # NODE or CROSSING
    owner: int
    slot: int


def strand_partner_slot(slot: int) -> int:
    """The slot the strand continues to on the other side of a crossing."""
    return (slot + 2) % 4


@dataclass(frozen=True)
class Diagram:
    node_count: int
    crossing_kinds: tuple[str, ...]
    arcs: tuple[tuple[Port, Port], ...]
    free_loops: int = 0
    mate: dict[Port, Port] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mate: dict[Port, Port] = {}
        for p, q in self.arcs:
            mate[p] = q
            mate[q] = p
        object.__setattr__(self, "mate", mate)

    @property
    def crossing_count(self) -> int:
        return len(self.crossing_kinds)

    def ports(self) -> list[Port]:
        out = [Port(NODE, n, s) for n in range(self.node_count) for s in range(3)]
        out += [Port(CROSSING, x, s) for x in range(self.crossing_count) for s in range(4)]
        return out

    def degree(self, kind: str) -> int:
        return 3 if kind == NODE else 4


def build_diagram(
    node_count: int,
    crossing_kinds: Sequence[str],
    arcs: Iterable[Sequence[Port]],
    free_loops: int = 0,
) -> Diagram:
    """Validate and canonicalize a diagram.

    Arcs are normalized (smaller port first, arcs sorted) so that equal
    diagrams compare and serialize identically.
    """
    kinds = tuple(crossing_kinds)
    for k in kinds:
        if k not in CROSSING_KINDS:
            raise ValueError(f"unknown crossing kind {k!r}")
    if node_count < 0 or free_loops < 0:
        raise ValueError("node_count and free_loops must be nonnegative")
    norm: list[tuple[Port, Port]] = []
    for pair in arcs:
        p, q = (Port(*pair[0]), Port(*pair[1]))
        if p == q:
            raise UnmatchedPort(f"arc joins port {p} to itself")
        norm.append((min(p, q), max(p, q)))
    norm.sort()
    d = Diagram(node_count, kinds, tuple(norm), free_loops)
    ports = d.ports()
    valid = set(ports)
    counts: dict[Port, int] = {}
    for p, q in d.arcs:
        for port in (p, q):
            if port not in valid:
                raise UnmatchedPort(f"port {port} does not exist")
            counts[port] = counts.get(port, 0) + 1
    for port in ports:
        if counts.get(port, 0) != 1:
            raise UnmatchedPort(f"port {port} is covered {counts.get(port, 0)} times, expected 1")
    return d


# ---------------------------------------------------------------------------
# faces and genus

def _face_successor(d: Diagram, p: Port) -> Port:
    q = d.mate[p]
    return Port(q.kind, q.owner, (q.slot + 1) % d.degree(q.kind))


def trace_faces(d: Diagram) -> list[list[Port]]:
    """Face boundary walks of the rotation system, deterministic order."""
    faces: list[list[Port]] = []
    seen: set[Port] = set()
    for start in sorted(d.mate):
        if start in seen:
            continue
        walk: list[Port] = []
        p = start
        while p not in seen:
            seen.add(p)
            walk.append(p)
            p = _face_successor(d, p)
        faces.append(walk)
    return faces


def _component_count(d: Diagram) -> int:
    """Connected components of the node-and-crossing graph, by union-find."""
    parent = list(range(d.node_count + d.crossing_count))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    count = len(parent)
    for p, q in d.arcs:
        a = find(p.owner if p.kind == NODE else d.node_count + p.owner)
        b = find(q.owner if q.kind == NODE else d.node_count + q.owner)
        if a != b:
            parent[a] = b
            count -= 1
    return count


def genus(d: Diagram) -> int:
    """Total genus over connected components; 0 means the diagram is plane.

    Each component has Euler characteristic 2 - 2g = V - A + F, so summing
    over C components gives 2 * genus = 2C - V + A - F. Free loops are plain
    circles and never contribute.
    """
    v = d.node_count + d.crossing_count
    return (2 * _component_count(d) - v + len(d.arcs) - len(trace_faces(d))) // 2


# ---------------------------------------------------------------------------
# strands and the underlying graph

def trace_strand(d: Diagram, start: Port) -> tuple[Port, list[tuple[int, int]]]:
    """Walk from a node port through crossings to the far node port.

    Returns the far port and the (crossing id, entry slot) list in walk order.
    """
    if start.kind != NODE:
        raise ValueError("strand tracing starts at a node port")
    traversals: list[tuple[int, int]] = []
    cur = d.mate[start]
    while cur.kind == CROSSING:
        traversals.append((cur.owner, cur.slot))
        cur = d.mate[Port(CROSSING, cur.owner, strand_partner_slot(cur.slot))]
    return cur, traversals


@dataclass(frozen=True)
class UnderlyingGraph:
    """A diagram's abstract graph plus how each edge runs through crossings."""

    graph: CubicGraph
    # edge id -> ordered (crossing id, entry slot) pairs, walked from the
    # edge's endpoint-0 port to its endpoint-1 port
    traversals: tuple[tuple[tuple[int, int], ...], ...]
    # node port -> edge id
    edge_of_port: dict[Port, int]


def underlying_graph(d: Diagram) -> UnderlyingGraph:
    """Dissolve crossings into strand pass-throughs and read off the graph.

    Raises StrandClosesWithoutNode when some strand is a closed curve through
    crossings only; such components have no graph reading.
    """
    edge_of_port: dict[Port, int] = {}
    edges: list[tuple[int, int]] = []
    traversals: list[tuple[tuple[int, int], ...]] = []
    for n in range(d.node_count):
        for s in range(3):
            start = Port(NODE, n, s)
            if start in edge_of_port:
                continue
            end, walk = trace_strand(d, start)
            e = len(edges)
            edge_of_port[start] = e
            edge_of_port[end] = e
            edges.append((n, end.owner))
            traversals.append(tuple(walk))
    used_x = {(x, s % 2) for walk in traversals for x, s in walk}
    if len(used_x) != 2 * d.crossing_count:
        raise StrandClosesWithoutNode(
            "a strand through crossings never reaches a trivalent node"
        )
    return UnderlyingGraph(build_graph(d.node_count, edges), tuple(traversals), edge_of_port)


def crossing_axis_edges(ug: UnderlyingGraph, crossing_count: int) -> list[tuple[int, int]]:
    """Per crossing, the edge ids on the slot 0-2 axis and the 1-3 axis."""
    axes: list[list[int]] = [[-1, -1] for _ in range(crossing_count)]
    for e, walk in enumerate(ug.traversals):
        for x, s in walk:
            axes[x][s % 2] = e
    for x, pair in enumerate(axes):
        if -1 in pair:
            raise StrandClosesWithoutNode(f"crossing {x} has an axis with no graph edge")
    return [(a, b) for a, b in axes]


# ---------------------------------------------------------------------------
# chord immersion

def chord_immersion(g: CubicGraph, node_order: Sequence[int] | None = None) -> Diagram:
    """Deterministic plane immersion of an abstract cubic graph.

    Every node gets three consecutive positions on a parabola, edges become
    chords, and interleaving chords produce circled crossings. Three
    concurrent chords would be a degenerate layout; the node order is then
    cyclically shifted and, failing that, reshuffled with fixed seeds, so the
    result stays a deterministic function of (g, node_order).
    """
    base = list(node_order) if node_order is not None else list(range(g.node_count))
    if sorted(base) != list(range(g.node_count)):
        raise ValueError("node_order must be a permutation of all nodes")

    def attempts() -> Iterator[list[int]]:
        for shift in range(g.node_count):
            yield base[shift:] + base[:shift]
        for retry in range(200):
            order = list(base)
            random.Random(retry).shuffle(order)
            yield order

    last_error: DegenerateLayout | None = None
    for order in attempts():
        try:
            d = _chord_layout(g, order)
        except DegenerateLayout as exc:
            last_error = exc
            continue
        if genus(d) != 0:
            raise NotPlane("chord layout came out with positive genus")
        return d
    raise DegenerateLayout(f"all layout attempts degenerate: {last_error}")


def _chord_layout(g: CubicGraph, order: Sequence[int]) -> Diagram:
    rank = {n: r for r, n in enumerate(order)}
    pos: dict[int, int] = {}
    slot_of: dict[int, int] = {}
    for n in range(g.node_count):
        for i, h in enumerate(sorted(g.incidence[n])):
            pos[h] = 3 * rank[n] + i
            slot_of[h] = i

    lo = [min(pos[2 * e], pos[2 * e + 1]) for e in range(g.edge_count)]
    hi = [max(pos[2 * e], pos[2 * e + 1]) for e in range(g.edge_count)]
    slope = [lo[e] + hi[e] for e in range(g.edge_count)]
    prod = [lo[e] * hi[e] for e in range(g.edge_count)]

    # interleaving endpoint intervals = crossing chords
    pairs: list[tuple[int, int]] = []
    for e in range(g.edge_count):
        for f in range(e + 1, g.edge_count):
            if lo[e] < lo[f] < hi[e] < hi[f] or lo[f] < lo[e] < hi[f] < hi[e]:
                pairs.append((e, f))
    x_of: dict[tuple[int, int], Fraction] = {
        (e, f): Fraction(prod[e] - prod[f], slope[e] - slope[f]) for e, f in pairs
    }
    crossing_id = {pair: i for i, pair in enumerate(sorted(pairs))}

    on_chord: dict[int, list[tuple[Fraction, tuple[int, int]]]] = {e: [] for e in range(g.edge_count)}
    for pair, x in x_of.items():
        on_chord[pair[0]].append((x, pair))
        on_chord[pair[1]].append((x, pair))
    for e, hits in on_chord.items():
        hits.sort()
        for (x1, _), (x2, _) in zip(hits, hits[1:]):
            if x1 == x2:
                raise DegenerateLayout(f"three chords concurrent on chord {e} at x={x1}")

    def side_slots(pair: tuple[int, int], e: int) -> tuple[int, int]:
        """(left slot, right slot) of chord e at the crossing of `pair`."""
        e1, e2 = pair
        if e == e1:
            return 0, 2
        return (3, 1) if slope[e1] < slope[e2] else (1, 3)

    arcs: list[tuple[Port, Port]] = []
    for e in range(g.edge_count):
        h_lo, h_hi = (2 * e, 2 * e + 1) if pos[2 * e] < pos[2 * e + 1] else (2 * e + 1, 2 * e)
        prev = Port(NODE, g.half_edge_node(h_lo), slot_of[h_lo])
        for _, pair in on_chord[e]:
            left, right = side_slots(pair, e)
            x = crossing_id[pair]
            arcs.append((prev, Port(CROSSING, x, left)))
            prev = Port(CROSSING, x, right)
        arcs.append((prev, Port(NODE, g.half_edge_node(h_hi), slot_of[h_hi])))

    return build_diagram(g.node_count, (CIRCLED,) * len(pairs), arcs)


# ---------------------------------------------------------------------------
# JSON wire format

def _port_to_json(p: Port) -> list:
    return [p.kind, p.owner, p.slot]


def _port_from_json(obj: object) -> Port:
    # type() rather than isinstance(): JSON true/false must not pass as 1/0
    if (
        not isinstance(obj, list)
        or len(obj) != 3
        or obj[0] not in (NODE, CROSSING)
        or type(obj[1]) is not int
        or type(obj[2]) is not int
    ):
        raise ParseError(f"bad port {obj!r}")
    return Port(obj[0], obj[1], obj[2])


def diagram_to_json_dict(d: Diagram) -> dict:
    out: dict = {
        "nodes": [
            {"id": n, "cw": [_port_to_json(d.mate[Port(NODE, n, s)]) for s in range(3)]}
            for n in range(d.node_count)
        ],
        "crossings": [
            {
                "id": x,
                "kind": d.crossing_kinds[x],
                "cw": [_port_to_json(d.mate[Port(CROSSING, x, s)]) for s in range(4)],
            }
            for x in range(d.crossing_count)
        ],
        "arcs": [[_port_to_json(p), _port_to_json(q)] for p, q in d.arcs],
    }
    if d.free_loops:
        out["free_loops"] = d.free_loops
    return out


def diagram_to_json(d: Diagram) -> str:
    return json.dumps(diagram_to_json_dict(d), separators=(",", ":"))


def diagram_from_json_dict(data: object) -> Diagram:
    if not isinstance(data, dict):
        raise ParseError("diagram JSON must be an object")
    for key in ("nodes", "crossings", "arcs"):
        if key not in data or not isinstance(data[key], list):
            raise ParseError(f"diagram JSON needs list field {key!r}")
    node_ids = []
    for entry in data["nodes"]:
        if not isinstance(entry, dict) or type(entry.get("id")) is not int:
            raise ParseError(f"bad node entry {entry!r}")
        node_ids.append(entry["id"])
    if sorted(node_ids) != list(range(len(node_ids))):
        raise ParseError("node ids must be dense from 0")
    kinds: dict[int, str] = {}
    for entry in data["crossings"]:
        if (
            not isinstance(entry, dict)
            or type(entry.get("id")) is not int
            or entry.get("kind") not in CROSSING_KINDS
        ):
            raise ParseError(f"bad crossing entry {entry!r}")
        kinds[entry["id"]] = entry["kind"]
    if sorted(kinds) != list(range(len(kinds))):
        raise ParseError("crossing ids must be dense from 0")
    free_loops = data.get("free_loops", 0)
    if type(free_loops) is not int or free_loops < 0:
        raise ParseError("free_loops must be a nonnegative integer")
    arcs = []
    for entry in data["arcs"]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"bad arc entry {entry!r}")
        arcs.append((_port_from_json(entry[0]), _port_from_json(entry[1])))
    try:
        d = build_diagram(len(node_ids), [kinds[i] for i in range(len(kinds))], arcs, free_loops)
    except (UnmatchedPort, ValueError) as exc:
        raise ParseError(str(exc)) from exc
    # the arcs are authoritative; "cw" entries, when present, must agree
    for kind, entries in ((NODE, data["nodes"]), (CROSSING, data["crossings"])):
        deg = 3 if kind == NODE else 4
        for entry in entries:
            cw = entry.get("cw")
            if cw is None:
                continue
            if not isinstance(cw, list) or len(cw) != deg:
                raise ParseError(f"cw list of {kind}{entry['id']} must have {deg} ports")
            for s, mate_json in enumerate(cw):
                expect = d.mate[Port(kind, entry["id"], s)]
                if _port_from_json(mate_json) != expect:
                    raise ParseError(
                        f"cw entry of {kind}{entry['id']} slot {s} disagrees with arcs"
                    )
    return d


def diagram_from_json(text: str) -> Diagram:
    try:
        data = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer past the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    return diagram_from_json_dict(data)


def looks_like_diagram_json(data: object) -> bool:
    return isinstance(data, dict) and "arcs" in data
