"""Command-line front end.

JSON results go to stdout, a one-line human summary to stderr. Exit codes:
0 success, 1 bad input or usage, 2 method disagreement in crosscheck.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

from . import generators
from .coloring import coloring_names, count_colorings, iter_colorings
from .diagram import (
    CIRCLED,
    Diagram,
    chord_immersion,
    diagram_from_json_dict,
    diagram_to_json_dict,
    genus,
    underlying_graph,
)
from .errors import (
    ChromaticBracketError,
    IndexOutOfRange,
    NotCircled,
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
    _complement_link,
    enumerate_perfect_matchings,
    even_matching_sum,
    iter_perfect_matchings,
    trace_cycles,
)
from .penrose import (
    coloring_weight,
    contract_extended,
    contract_plain,
    skein_evaluate,
    weight_tables,
)
from .state_calculus import _expansion_counts, logical_expansion_count

T = TypeVar("T")


def _load_file(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer past the digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _generate(name: str, kind: str | None, args: argparse.Namespace) -> CubicGraph | Diagram:
    """The named generator's diagram when kind is "diagram", else its graph."""
    try:
        if kind == "diagram":
            return generators.named_diagram(name, args.n, args.seed)
        return generators.named_graph(name, args.n, args.seed)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _load_input(args: argparse.Namespace) -> CubicGraph | Diagram:
    name = args.input
    if os.path.exists(name):
        data = _load_file(name)
        kind = args.as_kind or ("diagram" if isinstance(data, dict) and "arcs" in data else "graph")
        if kind == "diagram":
            return diagram_from_json_dict(data)
        return graph_from_json_dict(data)
    if name in generators.GENERATOR_NAMES:
        return _generate(name, args.as_kind, args)
    raise ParseError(
        f"{name!r} is neither a file nor a generator name "
        f"(generators: {', '.join(generators.GENERATOR_NAMES)})"
    )


def _input_graph(obj: CubicGraph | Diagram) -> CubicGraph:
    return underlying_graph(obj) if isinstance(obj, Diagram) else obj


def _input_diagram(obj: CubicGraph | Diagram, args: argparse.Namespace) -> Diagram:
    if isinstance(obj, Diagram):
        return obj
    if args.auto_immerse:
        return chord_immersion(obj)
    raise ParseError("this method needs a diagram input, or pass --auto-immerse")


def _emit(args: argparse.Namespace, payload: dict, summary: str) -> None:
    # flushed here, so a closed stdout raises BrokenPipeError inside main
    print(json.dumps(payload, separators=(",", ":"), sort_keys=True), flush=True)
    if not args.json_only:
        print(summary, file=sys.stderr)


def _item(items: Iterable[T], k: int, out_of_range: Callable[[int], ChromaticBracketError]) -> T:
    """Item k of items; past the end, raise out_of_range(total) once the same
    pass has counted them all."""
    total = 0
    for total, item in enumerate(items, 1):
        if total == k + 1:
            return item
    raise out_of_range(total)


# the count flags each method reads; a flag given to any other method is refused
_METHOD_FLAGS = {
    "brute": (),
    "penrose": ("plain", "extended", "auto_immerse", "per_coloring"),
    "penrose-skein": ("auto_immerse",),
    "states": ("matching_index",),
}


def cmd_count(args: argparse.Namespace, obj: CubicGraph | Diagram) -> int:
    for flag in sorted({f for flags in _METHOD_FLAGS.values() for f in flags}):
        if getattr(args, flag) is not None and flag not in _METHOD_FLAGS[args.method]:
            option = "--" + flag.replace("_", "-")
            raise ParseError(f"{option} does not apply to --method {args.method}")
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
    else:  # states; with no perfect matching there is no coloring, and index 0 counts 0
        g = _input_graph(obj)
        k = args.matching_index or 0
        if k < 0:  # no matching has a negative index, so none is generated to count them
            raise IndexOutOfRange(f"matching index {k} is negative")
        ms = iter_perfect_matchings(g)
        m = next(ms, None) if k == 0 else _item(ms, k, lambda total: IndexOutOfRange(
            f"matching index {k} out of range: {total} perfect matchings"))
        extras["matching"] = None if m is None else sorted(m)
        value = 0 if m is None else logical_expansion_count(g, m)
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
    """All methods on a plane, all-circled diagram d and its graph g; "agree" is False on any split."""
    methods: dict[str, int] = {}
    timings: dict[str, float] = {}

    def run(name: str, fn) -> None:
        t0 = time.perf_counter()
        methods[name] = fn()
        timings[name] = round(time.perf_counter() - t0, 6)

    run("brute", lambda: count_colorings(g))
    matchings = enumerate_perfect_matchings(g)  # valid by construction; feeds both methods
    run("even_matchings", lambda: even_matching_sum(g, matchings))
    run("penrose_extended", lambda: contract_extended(d))
    run("penrose_skein", lambda: skein_evaluate(d))
    if d.crossing_count == 0:
        run("penrose_plain", lambda: contract_plain(d))
    t0 = time.perf_counter()
    states = {str(i): v for i, v in enumerate(_expansion_counts(g, matchings))}
    timings["states"] = round(time.perf_counter() - t0, 6)

    count = methods["brute"]
    bracket = count * 3**d.free_loops  # each free loop weighs 3 in the bracket only
    agree = set(states.values()) <= {count} and all(
        v == (bracket if name.startswith("penrose") else count) for name, v in methods.items())
    return {
        "methods": methods,
        "states_by_matching": states,
        "matching_count": len(matchings),
        "timings": timings,
        "agree": agree,
        "count": count,
        "free_loops": d.free_loops,
    }


def cmd_crosscheck(args: argparse.Namespace, obj: CubicGraph | Diagram) -> int:
    if isinstance(obj, Diagram):  # the bracket counts colorings only on plane, all-circled diagrams
        if genus(obj):
            raise NotPlane(f"crosscheck needs a plane diagram; this one has genus {genus(obj)}")
        if set(obj.crossing_kinds) - {CIRCLED}:
            raise NotCircled("crosscheck needs every crossing of a diagram to be circled")
    g = _input_graph(obj)
    d = obj if isinstance(obj, Diagram) else chord_immersion(g)
    report = run_crosscheck(g, d)
    agree = report["agree"]
    summary = f"all methods agree, count = {report['count']}" if agree else "METHODS DISAGREE"
    _emit(args, {"input": args.input, **report}, f"{args.input}: {summary}")
    return 0 if agree else 2


def cmd_matchings(args: argparse.Namespace, obj: CubicGraph | Diagram) -> int:
    g = _input_graph(obj)
    rows = []
    count = even_count = 0
    for count, m in enumerate(iter_perfect_matchings(g), 1):  # valid by construction: traced unchecked
        lengths = [len(w) for w in trace_cycles(_complement_link(g, m))[0]]
        even = all(n % 2 == 0 for n in lengths)
        even_count += even
        if args.even_only and not even:
            continue
        rows.append({"edges": sorted(m), "cycle_lengths": lengths, "even": even})
    payload = {
        "input": args.input,
        "matching_count": count,
        "even_count": even_count,
        "matchings": rows,
    }
    _emit(args, payload, f"{args.input}: {count} perfect matchings, {even_count} even")
    return 0


def cmd_formation(args: argparse.Namespace, obj: CubicGraph | Diagram) -> int:
    g = _input_graph(obj)
    k = args.coloring_index
    if k < 0:  # no coloring has a negative index, so none is generated to count them
        raise IndexOutOfRange(f"coloring index {k} is negative")
    c = _item(iter_colorings(g), k, lambda total: IndexOutOfRange(
        f"coloring index {k} out of range; the graph has {total} colorings"))
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
    obj = _generate(args.name, args.format, args)
    if isinstance(obj, Diagram):
        payload = diagram_to_json_dict(obj)
        summary = f"{args.name}: {obj.node_count} nodes, {obj.crossing_count} crossings"
    else:
        payload = graph_to_json_dict(obj)
        summary = f"{args.name}: {obj.node_count} nodes, {obj.edge_count} edges"
    _emit(args, payload, summary)
    return 0


def cmd_validate(args: argparse.Namespace, obj: CubicGraph | Diagram) -> int:
    if isinstance(obj, Diagram):
        payload = {
            "kind": "diagram",
            "nodes": obj.node_count,
            "crossings": obj.crossing_count,
            "arcs": len(obj.code_arcs),
            "free_loops": obj.free_loops,
            "genus": genus(obj),
        }
        try:
            g = underlying_graph(obj)
            payload["underlying"] = {"nodes": g.node_count, "edges": g.edge_count}
        except StrandClosesWithoutNode:  # a strand on no node has no graph reading
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


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromatic-bracket",
        description="Count proper 3-edge-colorings of cubic multigraphs by "
        "four independent methods and cross-validate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--n", type=int, default=None, help="size for parameterized generators")
        sp.add_argument("--seed", type=int, default=0, help="seed for random generators")
        sp.add_argument("--json-only", action="store_true", help="suppress the stderr summary")

    def with_input(name: str, summary: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("input", help="JSON file or generator name")
        sp.add_argument("--as", dest="as_kind", choices=("graph", "diagram"), default=None,
                        help="force the input schema instead of inferring it")
        common(sp)
        return sp

    p = with_input("count", "count colorings by one method")
    p.add_argument("--method", choices=tuple(_METHOD_FLAGS), default="brute")
    # flags default to None, so _METHOD_FLAGS can tell a given flag from an absent one
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--plain", action="store_true", default=None,
                      help="ignore crossing weights (penrose method)")
    mode.add_argument("--extended", action="store_true", default=None,
                      help="include crossing weights (penrose method, default)")
    p.add_argument("--auto-immerse", action="store_true", default=None,
                   help="turn a bare graph into a chord-immersion diagram (penrose methods)")
    p.add_argument("--matching-index", type=int, default=None,
                   help="expand the states of this perfect matching (states method, default 0)")
    p.add_argument("--per-coloring", action="store_true", default=None,
                   help="dump per-coloring weights (penrose method)")
    p.set_defaults(func=cmd_count)

    p = with_input("crosscheck", "run every method and compare")
    p.set_defaults(func=cmd_crosscheck)

    p = with_input("matchings", "list perfect matchings and their cycles")
    p.add_argument("--even-only", action="store_true")
    p.set_defaults(func=cmd_matchings)

    p = with_input("formation", "curve system of one coloring")
    p.add_argument("--coloring-index", type=int, default=0)
    p.set_defaults(func=cmd_formation)

    p = sub.add_parser("gen", help="emit a named graph or diagram as JSON")
    p.add_argument("name")
    common(p)
    p.add_argument("--format", choices=("graph", "diagram"), default="graph")
    p.set_defaults(func=cmd_gen)

    p = with_input("validate", "parse and sanity-check an input")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # Python flushes stdout again at exit; devnull keeps that flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


def console_main() -> None:
    raise SystemExit(main())
