"""Cubic multigraphs with half-edge incidence.

A graph is a node count plus an edge list. Loops and parallel edges are both
allowed: edge ``k`` owns the two half-edges ``2k`` and ``2k + 1``, and a loop
contributes both of its half-edges to the same node. Every node must carry
exactly three half-edges.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .errors import DegreeViolation, InvalidArgument, ParseError, shown

NodeId = int
EdgeId = int
HalfEdge = int


@dataclass(frozen=True)
class CubicGraph:
    """Immutable cubic multigraph; the one place a graph is checked.

    ``incidence[n]`` lists the half-edges at node ``n`` in increasing order,
    and ``edges`` is kept as tuples. Zero nodes is a graph, the empty one.
    Raises InvalidArgument for a node_count that is not a nonnegative int, an
    edge that is not a list or tuple of two ints (by type(), so True is not 1)
    or one out of range; DegreeViolation for the lowest node of degree not 3.
    """

    node_count: int
    edges: tuple[tuple[NodeId, NodeId], ...]
    incidence: tuple[tuple[HalfEdge, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        node_count, edges = self.node_count, self.edges
        if type(node_count) is not int or node_count < 0 or not isinstance(edges, Iterable):
            raise InvalidArgument("node_count must be a nonnegative int and edges iterable")
        edges = tuple(edges)
        for e in edges:
            if type(e) not in (list, tuple) or len(e) != 2 or type(e[0]) is not int or type(e[1]) is not int:
                raise InvalidArgument(f"edge {shown(e)} is not a pair of ints")
        # The edges touch at most 2|E| nodes, so when node_count is larger some
        # node below 2|E| + 1 has degree 0 and the lowest violation lies in range.
        size = min(node_count, 2 * len(edges) + 1)
        stubs: list[list[HalfEdge]] = [[] for _ in range(size)]
        for e, (u, v) in enumerate(edges):
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise InvalidArgument(f"edge endpoint out of range: {shown((u, v))}")
            if u < size:
                stubs[u].append(2 * e)
            if v < size:
                stubs[v].append(2 * e + 1)
        for n, s in enumerate(stubs):
            if len(s) != 3:
                raise DegreeViolation(n, len(s))
        object.__setattr__(self, "edges", tuple(map(tuple, edges)))
        object.__setattr__(self, "incidence", tuple(map(tuple, stubs)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def half_edge_node(self, h: HalfEdge) -> NodeId:
        return self.edges[h // 2][h % 2]


def build_graph(node_count: int, edges: Iterable[Sequence[int]]) -> CubicGraph:
    """The CubicGraph constructor under its public name, which checks the graph."""
    return CubicGraph(node_count, edges)


def _edges(g: CubicGraph) -> tuple[tuple[NodeId, NodeId], ...]:
    """The edge list of g, which must be a CubicGraph."""
    if type(g) is not CubicGraph:
        raise InvalidArgument(f"expected a CubicGraph, not {type(g).__name__}")
    return g.edges


def has_loop(g: CubicGraph) -> bool:
    return any(u == v for u, v in _edges(g))


def is_connected(g: CubicGraph) -> bool:
    """Exactly one component: the empty graph, with none, is not connected."""
    return len(connected_components(g)) == 1


def components(neighbours: Sequence[Sequence[int]]) -> list[list[int]]:
    """The vertices of each component of the graph with these neighbour
    lists (one per vertex), in BFS order from its lowest vertex."""
    seen = [False] * len(neighbours)
    parts: list[list[int]] = []
    for start in range(len(neighbours)):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        for v in block:  # grows while it is walked
            for w in neighbours[v]:
                if not seen[w]:
                    seen[w] = True
                    block.append(w)
        parts.append(block)
    return parts


def min_fill_order(neighbours: Sequence[Iterable[int]]) -> list[int]:
    """A greedy min-fill elimination order of the undirected graph with these
    neighbour lists (self-references and repeats are ignored). Each step takes
    the vertex whose neighbours miss the fewest edges among themselves, ties
    going to the lower degree and then the lower vertex, and joins its
    neighbours into a clique (Bodlaender & Koster 2010). Neighbour sets are
    int bitmasks; scores sit in a heap and are recomputed only within two
    steps of the vertex taken."""
    import heapq  # deferred: its C extension adds 0.3 MB of peak RSS (CPython 3.11)
    adj = [sum(1 << w for w in set(ns)) & ~(1 << v) for v, ns in enumerate(neighbours)]

    def score(v: int) -> tuple[int, int, int]:
        ns = m = adj[v]
        fill = -ns.bit_count()  # ns & ~adj[w] below holds w itself
        while m:  # each neighbour w, lowest bit first
            low = m & -m
            m ^= low
            fill += (ns & ~adj[low.bit_length() - 1]).bit_count()
        return fill // 2, ns.bit_count(), v

    scores = [score(v) for v in range(len(adj))]
    heap = sorted(scores)
    order: list[int] = []
    while heap:
        top = heapq.heappop(heap)
        v = top[2]
        if scores[v] != top:  # stale, or v is already eliminated
            continue
        scores[v] = None
        order.append(v)
        ns = m = near = adj[v]
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            adj[w] = (adj[w] | ns) & ~(low | 1 << v)
            near |= adj[w]
        while near:
            low = near & -near
            near ^= low
            x = low.bit_length() - 1
            new = score(x)
            if new != scores[x]:
                scores[x] = new
                heapq.heappush(heap, new)
    return order


def tightest_first(groups: Iterable[Sequence[int]],
                   parts: Sequence[Sequence[int]]) -> list[list[int]]:
    """The one search order, fail first (Haralick & Elliott 1980): each part
    keeps its first three items, then takes the unplaced item with the most
    placed co-members (once per shared group), ties to the earlier position,
    else the earliest unplaced item. A lazy heap: O((items + groups) log items)."""
    import heapq  # deferred, as in min_fill_order
    pos = {x: i for part in parts for i, x in enumerate(part)}  # groups must lie within one part
    co: dict[int, list[int]] = {}  # per item, the positions of its groups' members
    for group in groups:
        ps = [pos[x] for x in group]
        for x in group:
            co.setdefault(x, []).extend(ps)
    orders = []
    for part in parts:
        n = len(part)
        count = [0] * n  # placed co-members; -1 once placed
        heap = list(range(n))  # position - count * n; stale keys are skipped
        order: list[int] = []
        while len(order) < n:
            i = len(order)
            if i >= 3:
                key = heapq.heappop(heap)
                i = key % n
                if key // n != -count[i]:
                    continue
            count[i] = -1
            order.append(part[i])
            for j in co.get(part[i], ()):
                c = count[j] + 1
                if c > 0:
                    count[j] = c
                    heapq.heappush(heap, j - c * n)
        orders.append(order)
    return orders


def connected_components(g: CubicGraph) -> list[list[NodeId]]:
    """The nodes of each component, in BFS order from its lowest node."""
    edges = _edges(g)
    neighbours: list[list[NodeId]] = [[] for _ in range(g.node_count)]
    for u, v in edges:  # in edge order, as the half-edges of g.incidence
        neighbours[u].append(v)
        neighbours[v].append(u)
    return components(neighbours)


def bridges_per_component(g: CubicGraph) -> frozenset[EdgeId]:
    """Edge ids whose removal splits a component: the tree edges of the
    forest of the one BFS (a node's parent is the first node to see it) that
    no other edge closes a cycle over. A parallel twin closes one over its
    partner, a loop closes none. Each other edge climbs its tree path, and a
    union-find jump table skips edges already covered, so each is climbed once."""
    blocks = connected_components(g)
    parent = list(range(g.node_count))
    via = [-1] * g.node_count  # the tree edge to the parent
    depth = [-1] * g.node_count
    for block in blocks:
        depth[block[0]] = 0
        for v in block:
            for h in g.incidence[v]:
                w = g.half_edge_node(h ^ 1)
                if depth[w] < 0:
                    parent[w], via[w], depth[w] = v, h // 2, depth[v] + 1
    jump = list(range(g.node_count))  # towards the lowest ancestor whose tree edge is uncovered

    def find(x: NodeId) -> NodeId:
        while jump[x] != x:
            jump[x] = jump[jump[x]]
            x = jump[x]
        return x

    for e, (u, v) in enumerate(g.edges):
        if via[u] == e or via[v] == e:
            continue
        u, v = find(u), find(v)
        while u != v:  # the deeper end lies below the two ends' common ancestor
            if depth[u] < depth[v]:
                u, v = v, u
            jump[u] = parent[u]
            u = find(u)
    return frozenset(via[x] for x in range(g.node_count) if jump[x] == x and via[x] >= 0)


def graph_to_json_dict(g: CubicGraph) -> dict:
    edges = [[u, v] for u, v in _edges(g)]
    return {"nodes": g.node_count, "edges": edges}


def graph_from_json_dict(data: object) -> CubicGraph:
    """Read {"nodes": n, "edges": [[u, v], ...]}: this checks only the object's
    shape, and the CubicGraph constructor checks the values (its InvalidArgument
    becomes a ParseError; DegreeViolation passes through)."""
    if not isinstance(data, dict) or "nodes" not in data or not isinstance(data.get("edges"), list):
        raise ParseError("graph JSON must be an object with 'nodes' and an 'edges' list")
    try:
        return build_graph(data["nodes"], data["edges"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
