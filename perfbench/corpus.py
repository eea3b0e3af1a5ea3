"""Workload corpora: which inputs each workload runs, which CLI calls it makes
on them, and why.

Every corpus is a function of (workload, seed, quick). Each workload has

- fixed instances: named fixtures and ``isaacs_j`` sizes;
- anchors: its largest random instances, drawn once from the fixed stream
  ``random.Random(f"{workload}:anchor")``. They carry the slow tail, so
  ``instance_ms.p90`` and most of ``verify_s`` compare like with like across
  seeds; with them seeded too, one heavy draw moved p90 by half between
  seeds;
- the body: smaller random instances drawn from
  ``random.Random(f"{workload}:{seed}")``, so the workload seed changes them;
- probes: known baseline failures, run once per run after the timed passes
  and reported on their own, outside ``attempted`` and ``failed``.

The program only ever sees the JSON files written from these.

Rules kept here, beside the workload definitions:

- A ``random_cubic`` draw that contains a loop is redrawn with the next seed
  from the same stream: a loop makes every method return 0 at once, so the
  instance would measure nothing.
- ``isaacs_j(15)`` (8.4 s by brute force) and ``isaacs_j(101)`` (more than
  10 min) are left out of ``brute-count``: no current method finishes them
  within a pass.
- The probes are kept, never dropped: ``count`` on the 1200-edge prism
  ladder raises an untyped ``RecursionError`` from the recursive search, and
  ``random_plane_cubic(40, 1)`` exhausts the 100k-step skein budget.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

from reference import diagram_edges

# Closed-form counts: the README and acceptance fixtures, and graphs with a
# loop. Odd flower snarks are handled in ``closed_form``.
CLOSED_FORM = {"k33": 12, "petersen": 0, "theta": 6, "k4": 6, "dumbbell": 0, "double_dumbbell": 0}

LADDER_RUNGS = 400  # 800 nodes, 1200 edges


def digest(data: dict) -> str:
    """sha256 of the JSON with sorted keys: the same for equal dicts."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Instance:
    key: str
    kind: str  # "graph" or "diagram"
    data: dict  # the JSON written for the CLI
    path: str = ""

    def text(self) -> str:
        return json.dumps(self.data, separators=(",", ":"))

    def digest(self) -> str:
        return digest(self.data)

    def graph(self) -> tuple[int, list[tuple[int, int]]]:
        if self.kind == "graph":
            return self.data["nodes"], [tuple(e) for e in self.data["edges"]]
        return diagram_edges(self.data)


@dataclass
class Call:
    argv: list[str]
    check: str  # which answer check applies; see run.check_answer
    key: str  # instance key, or the fixture name for ``gen``
    probe: str = ""  # why this call is a known baseline failure


@dataclass
class Corpus:
    instances: dict[str, Instance] = field(default_factory=dict)
    calls: list[Call] = field(default_factory=list)
    probes: list[Call] = field(default_factory=list)

    def add(self, key: str, kind: str, data: dict) -> str:
        self.instances[key] = Instance(key, kind, data)
        return key

    def call(self, key: str, check: str, *argv: str, probe: str = "") -> None:
        call = Call([argv[0], key, *argv[1:], "--json-only"], check, key, probe)
        (self.probes if probe else self.calls).append(call)


def closed_form(key: str) -> int | None:
    if key in CLOSED_FORM:
        return CLOSED_FORM[key]
    family, _, rest = key.partition("-")
    if family == "isaacs_j" and int(rest) % 2:
        return 0
    return None


def ladder_graph(k: int) -> dict:
    """Prism ladder C_k x K2: outer nodes 0..k-1, inner k..2k-1."""
    edges = [[i, (i + 1) % k] for i in range(k)]
    edges += [[k + i, k + (i + 1) % k] for i in range(k)]
    edges += [[i, k + i] for i in range(k)]
    return {"nodes": 2 * k, "edges": edges}


def _stream(name: str):
    rng = random.Random(name)
    return lambda: rng.randrange(1 << 30)


def _loop_free_cubic(gen: ModuleType, n: int, draw) -> tuple[int, object]:
    while True:
        s = draw()
        g = gen.random_cubic(n, s)
        if all(u != v for u, v in g.edges):
            return s, g


def _random_graphs(gen: ModuleType, draw, plane: range, cubic: range, copies: int) -> list:
    """Underlying graphs of random_plane_cubic(n) and loop-free random_cubic(n)."""
    out = []
    for n in plane:
        for _ in range(copies):
            s = draw()
            out.append((f"random_plane_cubic-{n}-{s}", gen.named_graph("random_plane_cubic", n, s)))
    for n in cubic:
        for _ in range(copies):
            s, g = _loop_free_cubic(gen, n, draw)
            out.append((f"random_cubic-{n}-{s}", g))
    return out


LADDER_PROBE = "1200-edge ladder: the recursive search raises RecursionError"
SKEIN_PROBE = "random_plane_cubic(40, 1): skein exhausts its 100k-step budget"


def brute_count(cb: ModuleType, seed: int, quick: bool) -> Corpus:
    """Snarks stress pruning (count 0, full pruned search); colorable
    random graphs, counts in the hundreds to thousands, stress leaf visits."""
    gen, c = cb.generators, Corpus()
    sizes = (5, 7, 9) if quick else (5, 7, 9, 11, 13)
    graphs = [(f"isaacs_j-{n}", gen.isaacs_j(n)) for n in sizes]
    fixtures = ("petersen", "dumbbell", "double_dumbbell", "k33", "truncated_tetrahedron")
    graphs += [(name, gen.named_graph(name)) for name in fixtures]
    anchor = range(24, 28, 2) if quick else range(32, 42, 2)
    graphs += _random_graphs(gen, _stream("brute-count:anchor"), anchor, anchor, 1)
    graphs += _random_graphs(gen, _stream(f"brute-count:{seed}"),
                             range(24, 28, 2), range(16, 22 if quick else 28, 2), 1)
    for key, g in graphs:
        c.add(key, "graph", cb.graph_to_json_dict(g))
        c.call(key, "count", "count", "--method", "brute")
        c.call(key, "validate", "validate")
    for name in fixtures:
        c.calls.append(Call(["gen", name, "--json-only"], "gen", name))
    key = c.add(f"ladder-{LADDER_RUNGS}", "graph", ladder_graph(LADDER_RUNGS))
    c.call(key, "count", "count", "--method", "brute", probe=LADDER_PROBE)
    return c


def plane_bracket(cb: ModuleType, seed: int, quick: bool) -> Corpus:
    """Crossing-free plane diagrams: contraction and skein do the work, and
    formation materializes every coloring through enumerate_colorings."""
    gen, c = cb.generators, Corpus()
    diagrams = [(name, gen.named_diagram(name)) for name in ("theta", "k4", "prism", "k33")]
    for stream, sizes, copies in (
        ("plane-bracket:anchor", range(20, 22, 2) if quick else range(22, 30, 2),
         1 if quick else 2),
        (f"plane-bracket:{seed}", range(12, 16 if quick else 18, 2), 1),
    ):
        draw = _stream(stream)
        for n in sizes:
            for _ in range(copies):
                s = draw()
                diagrams.append((f"random_plane_cubic-{n}-{s}", gen.random_plane_cubic(n, s)))
    for key, d in diagrams:
        c.add(key, "diagram", cb.diagram_to_json_dict(d))
        c.call(key, "plain", "count", "--method", "penrose", "--plain")
        c.call(key, "count", "count", "--method", "penrose")
        c.call(key, "count", "count", "--method", "penrose-skein")
        c.call(key, "formation", "formation")
    if not quick:
        key = c.add("random_plane_cubic-40-1", "diagram",
                    cb.diagram_to_json_dict(gen.random_plane_cubic(40, 1)))
        c.call(key, "count", "count", "--method", "penrose-skein", probe=SKEIN_PROBE)
    return c


def crosscheck_immersed(cb: ModuleType, seed: int, quick: bool) -> Corpus:
    """Every method on chord-immersed graphs: state expansion and perfect
    matchings dominate, and skein runs on circled crossings."""
    gen, c = cb.generators, Corpus()
    fixtures = ("petersen", "dumbbell", "double_dumbbell", "k33",
                "truncated_tetrahedron", "theta", "k4", "prism")
    graphs = [(name, gen.named_graph(name)) for name in fixtures]
    graphs += [(f"isaacs_j-{n}", gen.isaacs_j(n)) for n in ((3,) if quick else (3, 4, 5))]
    graphs += _random_graphs(gen, _stream("crosscheck-immersed:anchor"), (),
                             range(12, 14, 2) if quick else range(12, 16, 2), 1 if quick else 2)
    graphs += _random_graphs(gen, _stream(f"crosscheck-immersed:{seed}"), (),
                             range(8, 10, 2) if quick else range(8, 12, 2), 1 if quick else 2)
    for key, g in graphs:
        c.add(key, "graph", cb.graph_to_json_dict(g))
        c.call(key, "crosscheck", "crosscheck")
        c.call(key, "matchings", "matchings")
    return c


BUILDERS = {
    "brute-count": brute_count,
    "plane-bracket": plane_bracket,
    "crosscheck-immersed": crosscheck_immersed,
}


def write(corpus: Corpus, directory: Path) -> None:
    """Write every instance as JSON and point the calls at the files."""
    directory.mkdir(parents=True, exist_ok=True)
    for inst in corpus.instances.values():
        path = directory / f"{inst.key}.json"
        path.write_text(inst.text(), encoding="utf-8")
        inst.path = str(path)
    for call in corpus.calls + corpus.probes:
        if call.check != "gen":
            call.argv[1] = corpus.instances[call.key].path
