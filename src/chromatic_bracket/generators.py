"""Named graph fixtures, plane diagrams for them, and random generators.

Plane diagrams here are handcrafted rotation systems, checked plane by the
test suite (genus 0). Everything seeded is bit-reproducible.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Callable

from .diagram import CIRCLED, Diagram, build_diagram, chord_immersion, genus, underlying_graph
from .errors import InvalidArgument, NotPlane, shown
from .graph_core import CubicGraph, build_graph


def theta() -> CubicGraph:
    """Two nodes joined by three parallel edges."""
    return build_graph(2, [(0, 1), (0, 1), (0, 1)])


def dumbbell() -> CubicGraph:
    """Two loops joined by a bridge; the smallest uncolorable cubic graph."""
    return build_graph(2, [(0, 0), (0, 1), (1, 1)])


def double_dumbbell() -> CubicGraph:
    """Two dumbbell-like lobes sharing a central bar; no perfect matching.

    Nodes 1, 2, 4, 5 carry loops; 0 and 3 are the hubs of the two lobes.
    """
    return build_graph(
        6,
        [(1, 1), (2, 2), (4, 4), (5, 5), (0, 1), (0, 2), (3, 4), (3, 5), (0, 3)],
    )


def k4() -> CubicGraph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def prism() -> CubicGraph:
    """Two triangles joined by a perfect matching of rungs."""
    return build_graph(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )


def k33() -> CubicGraph:
    return build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def petersen() -> CubicGraph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i to i+5."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def isaacs_j(n: int) -> CubicGraph:
    """Flower snark layout: n hubs, an n-cycle of petals, and a 2n-cycle.

    Hub b_i joins a_i, c_i, d_i; the a's form an n-cycle; the c's and d's
    form one 2n-cycle c_0..c_{n-1} d_0..d_{n-1}. Uncolorable for odd n.
    """
    if type(n) is not int or n < 3:  # type(): neither 5.0 nor True is a size
        raise InvalidArgument("isaacs_j needs n >= 3")
    a = lambda i: i
    b = lambda i: n + i
    c = lambda i: 2 * n + i
    d = lambda i: 3 * n + i
    edges = [(a(i), a((i + 1) % n)) for i in range(n)]
    edges += [(b(i), a(i)) for i in range(n)]
    edges += [(b(i), c(i)) for i in range(n)]
    edges += [(b(i), d(i)) for i in range(n)]
    edges += [(c(i), c(i + 1)) for i in range(n - 1)] + [(c(n - 1), d(0))]
    edges += [(d(i), d(i + 1)) for i in range(n - 1)] + [(d(n - 1), c(0))]
    return build_graph(4 * n, edges)


def truncated_tetrahedron() -> CubicGraph:
    """Four triangles pairwise joined by single edges (edges 12..17)."""
    tri = [(0, 1), (1, 2), (2, 0), (3, 5), (5, 4), (4, 3), (6, 7), (7, 8), (8, 6), (9, 11), (11, 10), (10, 9)]
    joins = [(0, 3), (1, 6), (2, 9), (4, 7), (5, 10), (8, 11)]
    return build_graph(12, tri + joins)


def four_touching_fixture() -> tuple[CubicGraph, frozenset[int]]:
    """Graph plus matching whose unswitched state is four mutually touching loops.

    The loops are the four triangles of the truncated tetrahedron and the six
    sites join every pair, so the site graph of the all-parallel state is K4:
    uncolorable with three colors. Switching every site is the only way to
    color it.
    """
    return truncated_tetrahedron(), frozenset(range(12, 18))


def _rng(seed: int) -> random.Random:
    if type(seed) is not int:  # type(): neither [1] nor True is a seed
        raise InvalidArgument(f"seed {shown(seed)} is not an int")
    return random.Random(seed)


def random_cubic(n: int, seed: int) -> CubicGraph:
    """Configuration model: a uniform pairing of 3n half-edge stubs.

    Loops and parallel edges are kept; they are legal cubic multigraphs.
    """
    if type(n) is not int or n < 2 or n % 2:
        raise InvalidArgument("random_cubic needs even n >= 2")
    rng = _rng(seed)
    stubs = [v for v in range(n) for _ in range(3)]
    rng.shuffle(stubs)
    edges = [(stubs[2 * i], stubs[2 * i + 1]) for i in range(3 * n // 2)]
    return build_graph(n, edges)


# ---------------------------------------------------------------------------
# plane diagrams

def theta_diagram() -> Diagram:
    return build_diagram(
        2, (), [(("n", 0, 0), ("n", 1, 0)), (("n", 0, 1), ("n", 1, 2)), (("n", 0, 2), ("n", 1, 1))]
    )


def dumbbell_diagram() -> Diagram:
    return build_diagram(
        2, (), [(("n", 0, 1), ("n", 0, 2)), (("n", 0, 0), ("n", 1, 2)), (("n", 1, 0), ("n", 1, 1))]
    )


def k4_diagram() -> Diagram:
    """Outer triangle 0,1,2 with node 3 in the middle."""
    arcs = [
        (("n", 0, 0), ("n", 1, 0)),
        (("n", 0, 2), ("n", 2, 1)),
        (("n", 0, 1), ("n", 3, 2)),
        (("n", 1, 1), ("n", 2, 0)),
        (("n", 1, 2), ("n", 3, 0)),
        (("n", 2, 2), ("n", 3, 1)),
    ]
    return build_diagram(4, (), arcs)


def prism_diagram() -> Diagram:
    cw = {0: [2, 1, 3], 1: [0, 2, 4], 2: [1, 0, 5], 3: [5, 0, 4], 4: [1, 5, 3], 5: [4, 2, 3]}
    arcs = [
        (("n", u, cw[u].index(v)), ("n", v, cw[v].index(u)))
        for u, v in prism().edges
    ]
    return build_diagram(6, (), arcs)


def k33_diagram() -> Diagram:
    """K3,3 drawn with a single circled crossing.

    Hexagon 0,3,1,4,2,5 on the outside read with the chords 0-4 and 1-5
    crossing inside and 2-3 routed around the hexagon.
    """
    arcs = [
        (("n", 0, 0), ("n", 3, 0)),
        (("n", 5, 0), ("n", 0, 2)),
        (("n", 3, 2), ("n", 1, 1)),
        (("n", 1, 2), ("n", 4, 2)),
        (("n", 3, 1), ("n", 2, 2)),
        (("n", 4, 0), ("n", 2, 1)),
        (("n", 2, 0), ("n", 5, 2)),
        (("n", 0, 1), ("x", 0, 0)),
        (("x", 0, 2), ("n", 4, 1)),
        (("n", 1, 0), ("x", 0, 1)),
        (("x", 0, 3), ("n", 5, 1)),
    ]
    return build_diagram(6, (CIRCLED,), arcs)


def random_plane_cubic(n: int, seed: int) -> Diagram:
    """Grow a crossing-free plane diagram from the theta diagram.

    Each step replaces a random node by a triangle or a random edge by a
    digon between two new nodes; both moves preserve planarity, cubicity,
    bridgelessness, and the absence of loops, and add two nodes. It grows
    the port-code table as a dict from the code 3v + s of slot s of growth
    id v to its mate's code; new ids follow the highest, and the ids are
    renumbered densely at the end. The draws read the ids and the arcs in
    sorted order, which each step keeps by bisection rather than a sort.
    """
    if type(n) is not int or n < 2 or n % 2:
        raise InvalidArgument("random_plane_cubic needs even n >= 2")
    rng = _rng(seed)
    mate = dict(enumerate((3, 5, 4, 0, 2, 1)))  # theta_diagram().peer
    nodes, arcs = [0, 1], [(0, 3), (1, 5), (2, 4)]  # the growth ids, and the arcs as sorted code pairs
    new = 6  # slot 0 of the next id

    def link(p: int, q: int) -> None:
        mate[p], mate[q] = q, p
        insort(arcs, (p, q) if p < q else (q, p))

    def unlink(p: int) -> int:  # the caller links p's old mate again
        q = mate.pop(p)
        del arcs[bisect_left(arcs, (p, q) if p < q else (q, p))]
        return q

    for _ in range(n // 2 - 1):
        if rng.random() < 0.5:
            # node -> triangle
            v = rng.choice(nodes)
            del nodes[bisect_left(nodes, v)]
            for i in range(3):
                link(new + 3 * i, unlink(3 * v + i))
                link(new + 3 * i + 1, new + 3 * ((i + 1) % 3) + 2)
            nodes += (new // 3, new // 3 + 1, new // 3 + 2)
            new += 9
        else:
            # edge -> digon
            p, q = rng.choice(arcs)
            unlink(p)
            link(p, new)
            link(new + 3, q)
            link(new + 1, new + 5)
            link(new + 2, new + 4)
            nodes += (new // 3, new // 3 + 1)
            new += 6

    dense = {old: new for new, old in enumerate(nodes)}
    code = {c: 3 * dense[c // 3] + c % 3 for c in mate}
    d = Diagram(len(dense), (), [(code[c], code[m]) for c, m in arcs])
    if genus(d) != 0:
        raise NotPlane("plane growth came out with positive genus")
    return d


# ---------------------------------------------------------------------------
# name registry for the CLI

_PLAIN_GRAPHS: dict[str, Callable[[], CubicGraph]] = {
    "theta": theta,
    "dumbbell": dumbbell,
    "double_dumbbell": double_dumbbell,
    "k4": k4,
    "prism": prism,
    "k33": k33,
    "petersen": petersen,
    "truncated_tetrahedron": truncated_tetrahedron,
}

_PLANE_DIAGRAMS: dict[str, Callable[[], Diagram]] = {
    "theta": theta_diagram,
    "dumbbell": dumbbell_diagram,
    "k4": k4_diagram,
    "prism": prism_diagram,
    "k33": k33_diagram,
}

GENERATOR_NAMES = tuple(
    sorted(tuple(_PLAIN_GRAPHS) + ("isaacs_j", "random_cubic", "random_plane_cubic"))
)


def named_graph(name: str, n: int | None = None, seed: int = 0) -> CubicGraph:
    if name in _PLAIN_GRAPHS:
        return _PLAIN_GRAPHS[name]()
    if name not in GENERATOR_NAMES:
        raise InvalidArgument(f"unknown generator {shown(name)}; known: {', '.join(GENERATOR_NAMES)}")
    if n is None:
        raise InvalidArgument(f"{name} needs --n")
    if name == "isaacs_j":
        return isaacs_j(n)
    if name == "random_cubic":
        return random_cubic(n, seed)
    return underlying_graph(random_plane_cubic(n, seed))


def named_diagram(name: str, n: int | None = None, seed: int = 0) -> Diagram:
    if name in _PLANE_DIAGRAMS:
        return _PLANE_DIAGRAMS[name]()
    if name == "random_plane_cubic" and n is not None:
        return random_plane_cubic(n, seed)
    # named_graph reports an unknown name or a missing --n
    return chord_immersion(named_graph(name, n, seed))
