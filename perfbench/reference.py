"""Reference answers computed without any code from ``chromatic_bracket``.

The benchmark checks every answer the CLI gives against these. They take a
plain node count and edge list, so no counting logic is shared with the
methods being timed:

- ``count_colorings``: a frontier dynamic program over nodes, keyed by the
  colours of the edges that cross the processed/unprocessed cut;
- ``matching_counts``: perfect matchings by backtracking, with the parity of
  each complement cycle read off a union-find instead of by tracing;
- ``graph_facts``: connectivity, loops and bridges by union-find, where an
  edge is a bridge when its endpoints fall apart without it.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

Edges = Sequence[tuple[int, int]]


def _incidence(n: int, edges: Edges) -> list[list[int]]:
    inc: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        inc[u].append(e)
        inc[v].append(e)
    return inc


def _node_order(n: int, edges: Edges, inc: list[list[int]]) -> list[int]:
    """Greedy order that keeps the cut small.

    Next comes the node with the most edges into the done set; ties go to
    the node on the longest-open cut edge, so the cut advances as a front.
    """
    done = [False] * n
    into = [0] * n
    opened: dict[int, int] = {}  # open edge id -> step it was opened
    order: list[int] = []
    for step in range(n):
        def rank(v: int) -> tuple[int, int, int]:
            age = min((opened[e] for e in inc[v] if e in opened), default=n)
            return (-into[v], age, v)

        best = min((v for v in range(n) if not done[v]), key=rank)
        done[best] = True
        order.append(best)
        for e in inc[best]:
            u, v = edges[e]
            other = v if u == best else u
            if e in opened:
                del opened[e]
            elif other != best:
                opened[e] = step
                into[other] += 1
    return order


def count_colorings(n: int, edges: Edges, max_states: int = 2_000_000) -> int:
    """Exact number of proper 3-edge-colourings of a cubic multigraph.

    The three edges at the first node are pinned to colours 0, 1, 2 and the
    result multiplied by 3! = 6, which the colour symmetry makes exact.
    Raises RuntimeError when the cut table would outgrow ``max_states``.
    """
    if any(u == v for u, v in edges):
        return 0
    inc = _incidence(n, edges)
    frontier: list[int] = []  # open edge ids, in state-tuple order
    table: dict[tuple[int, ...], int] = {(): 1}
    for step, v in enumerate(_node_order(n, edges, inc)):
        closing = [e for e in inc[v] if e in frontier]
        opening = [e for e in inc[v] if e not in frontier]
        keep = [i for i, e in enumerate(frontier) if e not in closing]
        pos = [frontier.index(e) for e in closing]
        nxt: dict[tuple[int, ...], int] = {}
        for state, ways in table.items():
            seen = {state[i] for i in pos}
            if len(seen) != len(pos):
                continue
            rest = [c for c in range(3) if c not in seen]
            base = tuple(state[i] for i in keep)
            for perm in ([(0, 1, 2)] if step == 0 else permutations(rest)):
                key = base + perm
                nxt[key] = nxt.get(key, 0) + ways
        if len(nxt) > max_states:
            raise RuntimeError(f"reference cut table passed {max_states} states")
        frontier = [frontier[i] for i in keep] + opening
        table = nxt
    return 6 * table.get((), 0)


def diagram_edges(data: dict) -> tuple[int, list[tuple[int, int]]]:
    """The underlying graph of a diagram in JSON form, numbered as the CLI does.

    Edges are read in (node, slot) order from each unseen node port and
    followed straight through crossings (slot s leaves by slot s + 2 mod 4).
    """
    mate = {}
    for p, q in data["arcs"]:
        mate[tuple(p)] = tuple(q)
        mate[tuple(q)] = tuple(p)
    n = len(data["nodes"])
    seen = set()
    edges = []
    for v in range(n):
        for s in range(3):
            if ("n", v, s) in seen:
                continue
            end = mate[("n", v, s)]
            while end[0] == "x":
                end = mate[("x", end[1], (end[2] + 2) % 4)]
            seen.update({("n", v, s), end})
            edges.append((v, end[1]))
    return n, edges


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


def matching_counts(n: int, edges: Edges) -> tuple[int, int]:
    """(perfect matchings, even ones): every complement cycle of even length.

    The complement of a perfect matching is 2-regular, so each of its
    components is one cycle with as many edges as nodes.
    """
    inc = _incidence(n, edges)
    covered = [False] * n
    chosen: list[int] = []
    total = even = 0

    def complement_is_even() -> bool:
        uf = _UnionFind(n)
        taken = set(chosen)
        for e, (u, v) in enumerate(edges):
            if e not in taken:
                uf.union(u, v)
        size: dict[int, int] = {}
        for v in range(n):
            root = uf.find(v)
            size[root] = size.get(root, 0) + 1
        return all(s % 2 == 0 for s in size.values())

    def search() -> None:
        nonlocal total, even
        v = next((i for i in range(n) if not covered[i]), -1)
        if v < 0:
            total += 1
            even += complement_is_even()
            return
        for e in inc[v]:
            a, b = edges[e]
            w = b if a == v else a
            if w == v or covered[w]:
                continue
            covered[v] = covered[w] = True
            chosen.append(e)
            search()
            chosen.pop()
            covered[v] = covered[w] = False

    search()
    return total, even


def _without(n: int, edges: Edges, skip: int) -> _UnionFind:
    uf = _UnionFind(n)
    for e, (u, v) in enumerate(edges):
        if e != skip:
            uf.union(u, v)
    return uf


def graph_facts(n: int, edges: Edges) -> dict:
    """The fields ``validate`` reports for a graph."""
    whole = _without(n, edges, -1)
    bridges = []
    for e, (u, v) in enumerate(edges):
        if u != v:
            uf = _without(n, edges, e)
            if uf.find(u) != uf.find(v):
                bridges.append(e)
    return {
        "kind": "graph",
        "nodes": n,
        "edges": len(edges),
        "connected": len({whole.find(v) for v in range(n)}) == 1,
        "has_loop": any(u == v for u, v in edges),
        "bridges": bridges,
    }
