"""Command-line front end.

JSON results go to stdout, a one-line human summary to stderr. Exit codes:
0 success, 1 bad input or usage, 2 method disagreement in crosscheck.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from typing import Sequence

from . import generators
from .coloring import coloring_names, count_colorings, iter_colorings
from .diagram import (
    Diagram,
    chord_immersion,
    diagram_from_json_dict,
    diagram_to_json_dict,
    genus,
    looks_like_diagram_json,
    underlying_graph,
)
from .errors import (
    ChromaticBracketError,
    IndexOutOfRange,
    MethodDisagreement,
    NoPerfectMatching,
    NotPlane,
    ParseError,
    StrandClosesWithoutNode,
)
from .formation import classify_meetings, formation_from_coloring, meeting_parity
from .graph_core import (
    CubicGraph,
    bridges_per_component,
    graph_from_json_dict,
    graph_to_json_dict,
    has_loop,
    is_connected,
)
from .matching import (
    complement_cycles,
    count_from_even_matchings,
    enumerate_perfect_matchings,
)
from .penrose import (
    coloring_weight,
    contract_extended,
    contract_plain,
    skein_evaluate,
    weight_tables,
)
from .state_calculus import logical_expansion_count


def _load_file(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer past the digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_input(args: argparse.Namespace) -> CubicGraph | Diagram:
    name = args.input
    if os.path.exists(name):
        data = _load_file(name)
        kind = args.as_kind or ("diagram" if looks_like_diagram_json(data) else "graph")
        if kind == "diagram":
            return diagram_from_json_dict(data)
        return graph_from_json_dict(data)
    if name in generators.GENERATOR_NAMES:
        try:
            if args.as_kind == "diagram":
                return generators.named_diagram(name, args.n, args.seed)
            return generators.named_graph(name, args.n, args.seed)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(
        f"{name!r} is neither a file nor a generator name "
        f"(generators: {', '.join(generators.GENERATOR_NAMES)})"
    )


def _input_graph(obj: CubicGraph | Diagram) -> CubicGraph:
    return underlying_graph(obj).graph if isinstance(obj, Diagram) else obj


def _input_diagram(obj: CubicGraph | Diagram, args: argparse.Namespace) -> Diagram:
    if isinstance(obj, Diagram):
        return obj
    if getattr(args, "auto_immerse", False):
        return chord_immersion(obj)
    raise ParseError("this method needs a diagram input, or pass --auto-immerse")


def _emit(args: argparse.Namespace, payload: dict, summary: str) -> None:
    print(json.dumps(payload, separators=(",", ":"), sort_keys=True))
    if not args.json_only:
        print(summary, file=sys.stderr)


def cmd_count(args: argparse.Namespace, obj: CubicGraph | Diagram) -> int:
    extras: dict = {}
    t0 = time.perf_counter()
    if args.method == "brute":
        value = count_colorings(_input_graph(obj))
    elif args.method == "penrose-skein":
        value = skein_evaluate(_input_diagram(obj, args))
    elif args.method == "penrose":
        d = _input_diagram(obj, args)
        value = contract_plain(d) if args.plain else contract_extended(d)
        if args.per_coloring:
            g, nodes, crossings = weight_tables(d, include_crossings=not args.plain)
            extras["per_coloring"] = [
                {"coloring": coloring_names(c), "weight": coloring_weight(c, nodes, crossings)}
                for c in iter_colorings(g)
            ]
    else:  # states
        g = _input_graph(obj)
        ms = enumerate_perfect_matchings(g)
        if not ms:
            raise NoPerfectMatching("the states method needs a perfect matching")
        if not 0 <= args.matching_index < len(ms):
            raise IndexOutOfRange(
                f"matching index {args.matching_index} out of range 0..{len(ms) - 1}"
            )
        m = ms[args.matching_index]
        extras["matching"] = sorted(m)
        value = logical_expansion_count(g, m)
    payload = {
        "input": args.input,
        "method": args.method,
        "count": value,
        "seconds": round(time.perf_counter() - t0, 6),
        **extras,
    }
    _emit(args, payload, f"{args.input}: {args.method} count = {value}")
    return 0


def run_crosscheck(g: CubicGraph, d: Diagram) -> dict:
    """All methods on one instance; raises MethodDisagreement on any split."""
    methods: dict[str, int] = {}
    timings: dict[str, float] = {}

    def run(name: str, fn) -> None:
        t0 = time.perf_counter()
        methods[name] = fn()
        timings[name] = round(time.perf_counter() - t0, 6)

    run("brute", lambda: count_colorings(g))
    run("even_matchings", lambda: count_from_even_matchings(g))
    run("penrose_extended", lambda: contract_extended(d))
    run("penrose_skein", lambda: skein_evaluate(d))
    if d.crossing_count == 0 and genus(d) == 0:
        run("penrose_plain", lambda: contract_plain(d))
    states: dict[str, int] = {}
    t0 = time.perf_counter()
    matchings = enumerate_perfect_matchings(g)
    for i, m in enumerate(matchings):
        states[str(i)] = logical_expansion_count(g, m)
    timings["states"] = round(time.perf_counter() - t0, 6)

    count = methods["brute"]
    bracket = count * 3**d.free_loops  # each free loop weighs 3 in the bracket only
    agree = set(states.values()) <= {count} and all(
        v == (bracket if name.startswith("penrose") else count) for name, v in methods.items())
    report = {
        "methods": methods,
        "states_by_matching": states,
        "matching_count": len(matchings),
        "timings": timings,
        "agree": agree,
        "count": count,
        "free_loops": d.free_loops,
    }
    if not agree:
        raise MethodDisagreement(json.dumps(report, sort_keys=True))
    return report


def cmd_crosscheck(args: argparse.Namespace, obj: CubicGraph | Diagram) -> int:
    g = _input_graph(obj)
    d = obj if isinstance(obj, Diagram) else chord_immersion(g)
    try:
        report = run_crosscheck(g, d)
    except MethodDisagreement as exc:
        payload = {"input": args.input, **json.loads(str(exc))}
        _emit(args, payload, f"{args.input}: METHODS DISAGREE")
        return 2
    payload = {"input": args.input, **report}
    _emit(args, payload, f"{args.input}: all methods agree, count = {report['count']}")
    return 0


def cmd_matchings(args: argparse.Namespace, obj: CubicGraph | Diagram) -> int:
    g = _input_graph(obj)
    ms = enumerate_perfect_matchings(g)
    rows = []
    even_count = 0
    for m in ms:
        cc = complement_cycles(g, m)
        even = cc.all_even()
        even_count += even
        if args.even_only and not even:
            continue
        rows.append(
            {"edges": sorted(m), "cycle_lengths": list(cc.lengths), "even": even}
        )
    payload = {
        "input": args.input,
        "matching_count": len(ms),
        "even_count": even_count,
        "matchings": rows,
    }
    _emit(args, payload, f"{args.input}: {len(ms)} perfect matchings, {even_count} even")
    return 0


def cmd_formation(args: argparse.Namespace, obj: CubicGraph | Diagram) -> int:
    g = _input_graph(obj)
    k = args.coloring_index
    c = next(itertools.islice(iter_colorings(g), k, None), None) if k >= 0 else None
    if c is None:
        raise IndexOutOfRange(
            f"coloring index {k} out of range; the graph has {count_colorings(g)} colorings"
        )
    f = formation_from_coloring(g, c)
    payload = {
        "input": args.input,
        "coloring_index": k,
        "coloring": coloring_names(c),
        "red_curves": [list(curve) for curve in f.red_curves],
        "blue_curves": [list(curve) for curve in f.blue_curves],
        "shared_segments": sorted(f.shared_segments),
    }
    summary = (
        f"{args.input}: coloring {k} has {len(f.red_curves)} red and "
        f"{len(f.blue_curves)} blue curves, {len(f.shared_segments)} shared segments"
    )
    if isinstance(obj, Diagram):
        try:
            classes = classify_meetings(obj, c)
        except NotPlane:
            pass  # meeting classes exist only on plane crossing-free diagrams
        else:
            payload["meetings"] = {str(e): cls for e, cls in sorted(classes.items())}
            payload["crossing_parity"] = meeting_parity(classes)
    _emit(args, payload, summary)
    return 0


def cmd_gen(args: argparse.Namespace, _: None) -> int:
    try:
        if args.format == "diagram":
            d = generators.named_diagram(args.name, args.n, args.seed)
            payload = diagram_to_json_dict(d)
            summary = f"{args.name}: {d.node_count} nodes, {d.crossing_count} crossings"
        else:
            g = generators.named_graph(args.name, args.n, args.seed)
            payload = graph_to_json_dict(g)
            summary = f"{args.name}: {g.node_count} nodes, {g.edge_count} edges"
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    _emit(args, payload, summary)
    return 0


def cmd_validate(args: argparse.Namespace, obj: CubicGraph | Diagram) -> int:
    if isinstance(obj, Diagram):
        payload = {
            "kind": "diagram",
            "nodes": obj.node_count,
            "crossings": obj.crossing_count,
            "arcs": len(obj.arcs),
            "free_loops": obj.free_loops,
            "genus": genus(obj),
        }
        try:
            g = underlying_graph(obj).graph
            payload["underlying"] = {"nodes": g.node_count, "edges": g.edge_count}
        except StrandClosesWithoutNode:
            payload["underlying"] = None
        summary = f"{args.input}: valid diagram, genus {payload['genus']}"
    else:
        payload = {
            "kind": "graph",
            "nodes": obj.node_count,
            "edges": obj.edge_count,
            "connected": is_connected(obj),
            "has_loop": has_loop(obj),
            "bridges": sorted(bridges_per_component(obj)),
        }
        summary = f"{args.input}: valid cubic graph on {obj.node_count} nodes"
    _emit(args, payload, summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromatic-bracket",
        description="Count proper 3-edge-colorings of cubic multigraphs by "
        "four independent methods and cross-validate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--as", dest="as_kind", choices=("graph", "diagram"), default=None,
                        help="force the input schema instead of inferring it")
        sp.add_argument("--n", type=int, default=None, help="size for parameterized generators")
        sp.add_argument("--seed", type=int, default=0, help="seed for random generators")
        sp.add_argument("--json-only", action="store_true", help="suppress the stderr summary")

    p = sub.add_parser("count", help="count colorings by one method")
    p.add_argument("input", help="JSON file or generator name")
    common(p)
    p.add_argument("--method", choices=("brute", "penrose", "penrose-skein", "states"),
                   default="brute")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--plain", action="store_true", help="ignore crossing weights")
    mode.add_argument("--extended", action="store_true", help="include crossing weights (default)")
    p.add_argument("--auto-immerse", action="store_true",
                   help="turn a bare graph into a chord-immersion diagram")
    p.add_argument("--matching-index", type=int, default=0)
    p.add_argument("--per-coloring", action="store_true",
                   help="dump per-coloring weights (penrose method)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("crosscheck", help="run every method and compare")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("matchings", help="list perfect matchings and their cycles")
    p.add_argument("input")
    common(p)
    p.add_argument("--even-only", action="store_true")
    p.set_defaults(func=cmd_matchings)

    p = sub.add_parser("formation", help="curve system of one coloring")
    p.add_argument("input")
    common(p)
    p.add_argument("--coloring-index", type=int, default=0)
    p.set_defaults(func=cmd_formation)

    p = sub.add_parser("gen", help="emit a named graph or diagram as JSON")
    p.add_argument("name")
    common(p)
    p.add_argument("--format", choices=("graph", "diagram"), default="graph")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="parse and sanity-check an input")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    limit = sys.get_int_max_str_digits()
    try:
        obj = _load_input(args) if "input" in args else None
        # input is parsed under the digit limit; exact counts may print past it
        sys.set_int_max_str_digits(0)
        return args.func(args, obj)
    except ChromaticBracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


def console_main() -> None:
    raise SystemExit(main())
