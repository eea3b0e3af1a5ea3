"""Acceptance harness.

Each test checks one headline guarantee of the package at its stated
tolerance (exact integer equality throughout) and prints one PASS/FAIL line
with the elapsed time against the budget. Run with `pytest -s` to see the
lines; under plain pytest the per-test verdicts carry the same information.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache

import chromatic_bracket as cb
from chromatic_bracket import CIRCLED, generators as gen
from chromatic_bracket.state_calculus import SWITCH_SETTINGS


class _Budget:
    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"{self.label}: {verdict} ({elapsed:.2f}s / {self.seconds:.0f}s budget)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label} exceeded {self.seconds}s"
        return False


@lru_cache(maxsize=1)
def plane_corpus() -> tuple[tuple[str, cb.Diagram], ...]:
    """Plane crossing-free corpus: four fixtures plus 50 seeded drawings."""
    out: list[tuple[str, cb.Diagram]] = [
        ("theta", gen.theta_diagram()),
        ("k4", gen.k4_diagram()),
        ("prism", gen.prism_diagram()),
        ("dumbbell", gen.dumbbell_diagram()),
    ]
    sizes = itertools.cycle((6, 8, 10, 12, 14))
    for seed in range(50):
        n = next(sizes)
        out.append((f"random_plane_cubic(n={n},seed={seed})", gen.random_plane_cubic(n, seed)))
    return tuple(out)


def test_named_counts_are_exact():
    with _Budget("named-counts", 5.0):
        expected = {
            "k33": 12,
            "petersen": 0,
            "dumbbell": 0,
            "double_dumbbell": 0,
            "theta": 6,
            "k4": 6,
        }
        for name, want in expected.items():
            assert cb.count_colorings(getattr(gen, name)()) == want, name
        assert cb.count_colorings(gen.isaacs_j(3)) == 0
        assert cb.count_colorings(gen.isaacs_j(5)) == 0


def test_one_crossing_k33_and_terminal_fixture():
    with _Budget("bracket-anchors", 1.0):
        d = gen.k33_diagram()
        assert cb.contract_plain(d) == 0
        assert cb.contract_extended(d) == 12
        X = lambda o, s: ("x", o, s)
        terminal = cb.build_diagram(
            0,
            (CIRCLED, "plain"),
            [
                (X(0, 2), X(1, 0)),
                (X(1, 2), X(0, 0)),
                (X(0, 3), X(1, 1)),
                (X(1, 3), X(0, 1)),
            ],
        )
        assert cb.skein_evaluate(terminal) == -3


def test_plain_bracket_theorem_on_plane_corpus():
    with _Budget("plain-bracket-plane-corpus", 30.0):
        for label, d in plane_corpus():
            assert d.crossing_count == 0 and cb.genus(d) == 0, label
            g = cb.underlying_graph(d)
            colorings = cb.enumerate_colorings(g)
            for c in colorings:
                assert cb.per_coloring_weight(d, c) == 1, label
            assert cb.contract_plain(d) == len(colorings), label


def test_extended_bracket_at_scale():
    with _Budget("extended-bracket-200-immersions", 120.0):
        sizes = itertools.cycle((4, 6, 8, 10, 12))
        for seed in range(200):
            n = next(sizes)
            g = gen.random_cubic(n, seed)
            d = cb.chord_immersion(g)
            want = cb.count_colorings(g)
            assert cb.contract_extended(d) == want, (n, seed)
            assert cb.skein_evaluate(d) == want, (n, seed)


def test_state_expansion_totals():
    with _Budget("state-expansion-all-matchings", 120.0):
        names = (
            "theta", "dumbbell", "k4", "prism", "k33",
            "petersen", "truncated_tetrahedron",
        )
        graphs = [getattr(gen, name)() for name in names] + [gen.isaacs_j(3)]
        for g in graphs:
            assert g.node_count <= 12
            want = cb.count_colorings(g)
            for m in cb.enumerate_perfect_matchings(g):
                assert cb.logical_expansion_count(g, m) == want


def test_even_matching_equivalence():
    with _Budget("even-matching-equivalence", 60.0):
        names = (
            "theta", "dumbbell", "double_dumbbell", "k4", "prism", "k33",
            "petersen", "truncated_tetrahedron",
        )
        for name in names:
            g = getattr(gen, name)()
            colorings = cb.enumerate_colorings(g)
            matchings = cb.enumerate_perfect_matchings(g)
            evens = [m for m in matchings if cb.is_even_matching(g, m)]
            # colorable iff some even perfect matching exists
            assert (len(colorings) > 0) == (len(evens) > 0), name
            rebuilt: list[tuple[int, ...]] = []
            for m in evens:
                cs = cb.colorings_from_even_matching(g, m)
                assert len(cs) == 2 ** len(cb.complement_cycles(g, m))
                rebuilt.extend(cs)
            assert sorted(rebuilt) == sorted(colorings), name
            for c in colorings:
                assert cb.is_even_matching(g, cb.matching_from_coloring(g, c, cb.PURPLE))
        petersen = gen.petersen()
        ms = cb.enumerate_perfect_matchings(petersen)
        assert len(ms) == 6
        assert sum(cb.is_even_matching(petersen, m) for m in ms) == 0


def test_formation_bijection_and_parity():
    with _Budget("formation-bijection-and-parity", 60.0):
        for name in ("theta", "k4", "prism", "k33", "truncated_tetrahedron"):
            g = getattr(gen, name)()
            colorings = cb.enumerate_colorings(g)
            formations = {cb.formation_from_coloring(g, c) for c in colorings}
            assert len(formations) == len(colorings), name
            for c in colorings:
                f = cb.formation_from_coloring(g, c)
                assert cb.coloring_from_formation(g, f) == c, name
        for label, d in plane_corpus():
            g = cb.underlying_graph(d)
            for c in cb.enumerate_colorings(g):
                assert cb.crossing_parity(d, c) == 0, label


def test_tensor_identities():
    with _Budget("tensor-identities", 60.0):
        # twenty random immersed diagrams with at least one circled crossing
        diagrams: list[cb.Diagram] = []
        seed = 0
        while len(diagrams) < 20:
            d = cb.chord_immersion(gen.random_cubic(8, seed))
            seed += 1
            if d.crossing_count:
                diagrams.append(d)
        for d in diagrams:
            base = cb.contract_extended(d)
            assert cb.skein_evaluate(d) == base
            # twist invariance on the first arc
            tw = cb.insert_twist(d, 0)
            assert cb.contract_extended(tw) == base
            # circled = 2*dotted - plain at the first crossing
            dotted, plain = cb.expand_circled(d, 0)
            assert base == 2 * cb.contract_extended(dotted) - cb.contract_extended(plain)
            assert cb.skein_evaluate(d) == 2 * cb.skein_evaluate(dotted) - cb.skein_evaluate(plain)
            # an extra circle over one arc flips the sign
            assert cb.skein_evaluate(cb.encircle_arc(d, 0)) == -base
        circle = cb.build_diagram(0, (), [], free_loops=1)
        assert cb.contract_extended(circle) == 3
        base_theta = gen.theta_diagram()
        with_loop = cb.Diagram(2, (), base_theta.code_arcs, free_loops=1)
        assert cb.contract_extended(with_loop) == 3 * 6
        assert cb.skein_evaluate(with_loop) == 3 * 6


def test_switch_search_on_plane_corpus():
    with _Budget("colorable-switch-vectors", 120.0):
        for label, d in plane_corpus():
            g = cb.underlying_graph(d)
            if cb.bridges_per_component(g):
                continue
            for m in cb.enumerate_perfect_matchings(g):
                order = len(m)
                found = any(
                    cb.count_state_colorings(cb.make_state(g, m, vec)) > 0
                    for vec in itertools.product(SWITCH_SETTINGS, repeat=order)
                )
                assert found, (label, sorted(m))
        g, m = gen.four_touching_fixture()
        colorable = [
            vec
            for vec in itertools.product(SWITCH_SETTINGS, repeat=len(m))
            if cb.count_state_colorings(cb.make_state(g, m, vec)) > 0
        ]
        assert colorable == [("crossed",) * len(m)]
