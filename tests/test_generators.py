"""Named fixtures, random families, and the generator registry."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import chromatic_bracket as cb
from chromatic_bracket import generators as gen
from chromatic_bracket.errors import NotPlane


def degrees(g: cb.CubicGraph) -> list[int]:
    out = [0] * g.node_count
    for u, v in g.edges:
        out[u] += 1
        out[v] += 1
    return out


def test_fixture_shapes():
    expect = {
        "theta": (2, 3),
        "dumbbell": (2, 3),
        "double_dumbbell": (6, 9),
        "k4": (4, 6),
        "prism": (6, 9),
        "k33": (6, 9),
        "petersen": (10, 15),
        "truncated_tetrahedron": (12, 18),
    }
    for name, (nodes, edges) in expect.items():
        g = getattr(gen, name)()
        assert (g.node_count, g.edge_count) == (nodes, edges), name
        assert degrees(g) == [3] * nodes, name


def test_flower_snark_family():
    for k, nodes in ((3, 12), (4, 16), (5, 20), (7, 28)):
        g = gen.isaacs_j(k)
        assert g.node_count == nodes
        assert degrees(g) == [3] * nodes
        assert cb.is_connected(g)
    with pytest.raises(ValueError):
        gen.isaacs_j(2)


def test_flower_snark_counts_alternate_with_parity():
    # odd members are snarks, even members are colorable
    assert cb.count_colorings(gen.isaacs_j(3)) == 0
    assert cb.count_colorings(gen.isaacs_j(5)) == 0
    assert cb.count_colorings(gen.isaacs_j(4)) == 96


def test_petersen_is_bridgeless_snark():
    g = gen.petersen()
    assert cb.bridges_per_component(g) == frozenset()
    assert cb.count_colorings(g) == 0


def test_four_touching_fixture_is_valid():
    g, m = gen.four_touching_fixture()
    assert degrees(g) == [3] * g.node_count
    assert m in set(map(frozenset, cb.enumerate_perfect_matchings(g)))
    cycles = cb.complement_cycles(g, m)
    assert sorted(len(c) for c in cycles) == [3, 3, 3, 3]


def test_plane_fixture_diagrams_match_their_graphs():
    from collections import Counter

    pairs = [
        (gen.theta_diagram(), gen.theta()),
        (gen.dumbbell_diagram(), gen.dumbbell()),
        (gen.k4_diagram(), gen.k4()),
        (gen.prism_diagram(), gen.prism()),
    ]
    for d, g in pairs:
        assert d.crossing_count == 0
        assert cb.genus(d) == 0
        ug = cb.underlying_graph(d)
        assert Counter(map(frozenset, ug.edges)) == Counter(map(frozenset, g.edges))


def test_random_cubic_is_deterministic_and_cubic():
    for seed in range(5):
        a = gen.random_cubic(12, seed)
        b = gen.random_cubic(12, seed)
        assert a == b
        assert degrees(a) == [3] * 12
    assert gen.random_cubic(12, 1) != gen.random_cubic(12, 2)
    with pytest.raises(ValueError):
        gen.random_cubic(7, 0)
    with pytest.raises(ValueError):
        gen.random_cubic(0, 0)


def test_random_plane_cubic_properties():
    for seed in range(5):
        d = gen.random_plane_cubic(10, seed)
        assert d == gen.random_plane_cubic(10, seed)
        assert d.crossing_count == 0
        assert cb.genus(d) == 0
        g = cb.underlying_graph(d)
        assert g.node_count == 10
        assert degrees(g) == [3] * 10
        assert not cb.has_loop(g)
        assert cb.bridges_per_component(g) == frozenset()
    with pytest.raises(ValueError):
        gen.random_plane_cubic(3, 0)


def test_registry_names():
    for name in ("theta", "k4", "petersen", "isaacs_j", "random_cubic", "random_plane_cubic"):
        assert name in gen.GENERATOR_NAMES
    assert gen.GENERATOR_NAMES == tuple(sorted(set(gen.GENERATOR_NAMES)))


def test_named_graph_dispatch():
    assert gen.named_graph("theta") == gen.theta()
    assert gen.named_graph("isaacs_j", n=5) == gen.isaacs_j(5)
    assert gen.named_graph("random_cubic", n=8, seed=3) == gen.random_cubic(8, 3)
    g = gen.named_graph("random_plane_cubic", n=8, seed=3)
    assert degrees(g) == [3] * 8
    with pytest.raises(ValueError):
        gen.named_graph("moebius")


def test_named_diagram_dispatch():
    assert gen.named_diagram("theta") == gen.theta_diagram()
    assert gen.named_diagram("prism") == gen.prism_diagram()
    # graphs without a stored plane drawing come back as chord immersions
    assert gen.named_diagram("petersen") == cb.chord_immersion(gen.petersen())
    d = gen.named_diagram("random_plane_cubic", n=8, seed=1)
    assert d == gen.random_plane_cubic(8, 1)
    with pytest.raises(ValueError):
        gen.named_diagram("moebius")


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=7).map(lambda k: 2 * k),
    st.integers(0, 10**6),
)
def test_random_cubic_always_cubic(n: int, seed: int) -> None:
    g = gen.random_cubic(n, seed)
    assert g.node_count == n
    assert g.edge_count == 3 * n // 2
    assert degrees(g) == [3] * n


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=3, max_value=7).map(lambda k: 2 * k),
    st.integers(0, 10**6),
)
def test_random_plane_cubic_always_plane(n: int, seed: int) -> None:
    d = gen.random_plane_cubic(n, seed)
    assert d.crossing_count == 0
    assert cb.genus(d) == 0
    g = cb.underlying_graph(d)
    assert g.node_count == n
    assert cb.is_connected(g)


@pytest.mark.parametrize("name", ["isaacs_j", "random_cubic", "random_plane_cubic"])
def test_sized_generators_need_n(name):
    for make in (gen.named_graph, gen.named_diagram):
        with pytest.raises(ValueError, match=f"{name} needs --n"):
            make(name)


def test_random_plane_cubic_growth_is_pinned():
    # the seeded growth is bit-reproducible across code changes, not only
    # within one run: this digest was taken from the Port-based generator
    digest = hashlib.sha256()
    for n in range(2, 42, 2):
        for seed in range(5):
            digest.update(repr(gen.random_plane_cubic(n, seed).peer).encode())
    assert digest.hexdigest() == "0e36e04303f8cc1f01e838e5a83e28364061c5c9a7e5763cecac839a24e1e822"


def test_large_random_plane_cubic_growth_is_pinned():
    # a long growth keeps its draws too: this digest was taken from the
    # generator that sorted every node and arc at each step
    d = gen.random_plane_cubic(3000, 7)
    assert (d.node_count, d.crossing_count) == (3000, 0)
    digest = hashlib.sha256(repr(d.peer).encode()).hexdigest()
    assert digest == "665064a963377339c2d3f9836223c3e3f7a3c6fb86db9655e746ccc6d2e44d27"


def test_random_plane_cubic_refuses_positive_genus(monkeypatch):
    # the genus check is a raise, not an assert, so it holds under python -O
    monkeypatch.setattr(gen, "genus", lambda d: 1)
    with pytest.raises(NotPlane):
        gen.random_plane_cubic(6, 0)
