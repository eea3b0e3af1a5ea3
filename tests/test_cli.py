"""End-to-end command-line behavior: parsing, output schema, exit codes."""

from __future__ import annotations

import json
import re
import shlex
import sys
from pathlib import Path

import pytest

import chromatic_bracket as cb
from chromatic_bracket import generators as gen
from chromatic_bracket.cli import console_main, main


def run(capsys, *argv: str) -> tuple[int, dict | None, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_count_brute_on_generator(capsys):
    code, payload, err = run(capsys, "count", "k33")
    assert code == 0
    assert payload["count"] == 12
    assert payload["method"] == "brute"
    assert "k33" in err


def test_count_penrose_plain_vs_extended(capsys):
    code, payload, _ = run(capsys, "count", "k33", "--as", "diagram", "--method", "penrose", "--plain")
    assert (code, payload["count"]) == (0, 0)
    code, payload, _ = run(capsys, "count", "k33", "--as", "diagram", "--method", "penrose", "--extended")
    assert (code, payload["count"]) == (0, 12)
    code, payload, _ = run(capsys, "count", "k33", "--as", "diagram", "--method", "penrose-skein")
    assert (code, payload["count"]) == (0, 12)


def test_count_states_method(capsys):
    code, payload, _ = run(capsys, "count", "petersen", "--method", "states")
    assert code == 0
    assert payload["count"] == 0
    assert payload["matching"] == sorted(cb.enumerate_perfect_matchings(gen.petersen())[0])
    code, payload, _ = run(capsys, "count", "k33", "--method", "states", "--matching-index", "3")
    assert (code, payload["count"]) == (0, 12)


def test_count_states_is_zero_without_a_perfect_matching(capsys):
    # each color class of a coloring is a perfect matching, so there is none
    code, payload, _ = run(capsys, "count", "double_dumbbell", "--method", "states")
    assert code == 0
    assert payload["count"] == 0 and payload["matching"] is None
    code, payload, err = run(capsys, "count", "double_dumbbell", "--method", "states", "--matching-index", "1")
    assert (code, payload) == (1, None)
    assert "out of range: 0 perfect matchings" in err


def test_count_matching_index_out_of_range(capsys):
    code, _, err = run(capsys, "count", "theta", "--method", "states", "--matching-index", "9")
    assert code == 1
    assert "out of range" in err


def test_count_penrose_needs_diagram_or_flag(capsys):
    code, _, err = run(capsys, "count", "petersen", "--method", "penrose")
    assert code == 1
    code, payload, _ = run(capsys, "count", "petersen", "--method", "penrose", "--auto-immerse")
    assert (code, payload["count"]) == (0, 0)


def test_count_per_coloring_dump(capsys):
    code, payload, _ = run(
        capsys, "count", "k33", "--as", "diagram", "--method", "penrose", "--per-coloring"
    )
    assert code == 0
    rows = payload["per_coloring"]
    assert len(rows) == 12
    assert all(row["weight"] == 1 for row in rows)
    assert all(len(row["coloring"]) == 9 for row in rows)


def test_plain_is_refused_outside_the_penrose_method(capsys):
    code, payload, err = run(
        capsys, "count", "k33", "--as", "diagram", "--method", "penrose-skein", "--plain"
    )
    assert (code, payload) == (1, None)
    assert err.startswith("error:") and "--plain" in err


def test_per_coloring_is_refused_outside_the_penrose_method(capsys):
    code, payload, err = run(capsys, "count", "k33", "--per-coloring")
    assert (code, payload) == (1, None)
    assert err.startswith("error:") and "--per-coloring" in err


@pytest.mark.parametrize("argv", [
    ("--method", "states", "--extended"),
    ("--method", "brute", "--auto-immerse"),
    ("--method", "brute", "--matching-index", "2"),
    ("--method", "penrose-skein", "--matching-index", "0", "--auto-immerse"),
])
def test_count_refuses_a_flag_its_method_ignores(capsys, argv):
    code, payload, err = run(capsys, "count", "k33", *argv)
    assert (code, payload) == (1, None)
    assert err.startswith("error:") and f"{argv[2]} does not apply to --method {argv[1]}" in err


def test_count_from_graph_file(tmp_path: Path, capsys):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(cb.graph_to_json_dict(gen.theta())))
    code, payload, _ = run(capsys, "count", str(path))
    assert (code, payload["count"]) == (0, 6)


def test_count_from_diagram_file_schema_inferred(tmp_path: Path, capsys):
    path = tmp_path / "k33d.json"
    path.write_text(json.dumps(cb.diagram_to_json_dict(gen.k33_diagram())))
    code, payload, _ = run(capsys, "count", str(path), "--method", "penrose")
    assert (code, payload["count"]) == (0, 12)
    # same file read as a graph via the underlying multigraph
    code, payload, _ = run(capsys, "count", str(path))
    assert (code, payload["count"]) == (0, 12)


def test_unknown_input_fails_cleanly(capsys):
    code, _, err = run(capsys, "count", "moebius")
    assert code == 1
    assert "generator" in err


def test_bad_json_file_fails_cleanly(tmp_path: Path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "count", str(path))
    assert code == 1
    assert "error" in err


def test_repeated_crossing_id_in_a_diagram_file_fails_cleanly(tmp_path: Path, capsys):
    data = cb.diagram_to_json_dict(gen.k33_diagram())
    data["crossings"].append({**data["crossings"][0], "kind": "plain"})
    path = tmp_path / "k33_twice.json"
    path.write_text(json.dumps(data))
    code, payload, err = run(capsys, "count", str(path), "--method", "penrose", "--extended")
    assert (code, payload) == (1, None)
    assert err.startswith("error:") and "crossing ids" in err


def test_crosscheck_agreement(capsys):
    code, payload, err = run(capsys, "crosscheck", "theta")
    assert code == 0
    assert payload["agree"] is True
    assert payload["count"] == 6
    methods = payload["methods"]
    assert methods["brute"] == methods["even_matchings"] == 6
    assert methods["penrose_extended"] == methods["penrose_skein"] == 6
    assert payload["states_by_matching"] == {"0": 6, "1": 6, "2": 6}
    assert "agree" in err or "6" in err


def test_crosscheck_includes_plain_only_for_plane_inputs(capsys):
    code, payload, _ = run(capsys, "crosscheck", "theta", "--as", "diagram")
    assert code == 0
    assert payload["methods"]["penrose_plain"] == 6
    code, payload, _ = run(capsys, "crosscheck", "petersen")
    assert code == 0
    assert "penrose_plain" not in payload["methods"]
    assert payload["count"] == 0


def test_crosscheck_random_seed_reproducible(capsys):
    code_a, payload_a, _ = run(capsys, "crosscheck", "random_cubic", "--n", "10", "--seed", "7")
    code_b, payload_b, _ = run(capsys, "crosscheck", "random_cubic", "--n", "10", "--seed", "7")
    assert code_a == code_b == 0
    assert payload_a["count"] == payload_b["count"]
    assert payload_a["methods"] == payload_b["methods"]


def test_matchings_listing(capsys):
    code, payload, _ = run(capsys, "matchings", "petersen")
    assert code == 0
    assert payload["matching_count"] == 6
    assert payload["even_count"] == 0
    assert all(row["cycle_lengths"] == [5, 5] for row in payload["matchings"])
    code, payload, _ = run(capsys, "matchings", "petersen", "--even-only")
    assert payload["matchings"] == []


def test_matchings_on_unmatchable_graph(capsys):
    code, payload, _ = run(capsys, "matchings", "double_dumbbell")
    assert code == 0
    assert payload["matching_count"] == 0


def test_formation_output(capsys):
    code, payload, _ = run(capsys, "formation", "theta")
    assert code == 0
    assert len(payload["red_curves"]) == 1
    assert len(payload["blue_curves"]) == 1
    assert len(payload["shared_segments"]) == 1
    assert len(payload["coloring"]) == 3


def test_formation_on_plane_diagram_reports_meetings(capsys):
    code, payload, _ = run(capsys, "formation", "theta", "--as", "diagram")
    assert code == 0
    assert payload["crossing_parity"] == 0
    assert set(payload["meetings"].values()) <= {"bounce", "cross"}


def test_formation_index_out_of_range(capsys, monkeypatch):
    def no_second_walk(g):
        raise AssertionError("formation counts the colorings it walks")

    monkeypatch.setattr("chromatic_bracket.cli.count_colorings", no_second_walk)
    code, _, err = run(capsys, "formation", "theta", "--coloring-index", "6")
    assert code == 1
    assert err == "error: coloring index 6 out of range; the graph has 6 colorings\n"
    code, _, err = run(capsys, "formation", "theta", "--coloring-index", "-1")
    assert code == 1
    assert err == "error: coloring index -1 is negative\n"


def test_a_negative_index_is_refused_before_any_search(capsys, monkeypatch):
    # no item has a negative index, so none is generated to count them all
    def no_search(g):
        raise AssertionError("searched for an index no item has")

    monkeypatch.setattr("chromatic_bracket.cli.iter_colorings", no_search)
    monkeypatch.setattr("chromatic_bracket.cli.iter_perfect_matchings", no_search)
    for argv, what in ((("formation", "k33", "--coloring-index", "-1"), "coloring"),
                       (("count", "k33", "--method", "states", "--matching-index", "-2"), "matching")):
        code, payload, err = run(capsys, *argv)
        assert code == 1 and payload is None
        assert err == f"error: {what} index {argv[-1]} is negative\n"


def test_gen_graph_round_trips(capsys):
    code, payload, _ = run(capsys, "gen", "prism", "--json-only")
    assert code == 0
    assert cb.graph_from_json_dict(payload) == gen.prism()


def test_gen_diagram_round_trips(capsys):
    code, payload, _ = run(capsys, "gen", "k33", "--format", "diagram", "--json-only")
    assert code == 0
    assert cb.diagram_from_json_dict(payload) == gen.k33_diagram()


def test_gen_seeded_is_reproducible(capsys):
    code, a, _ = run(capsys, "gen", "random_cubic", "--n", "8", "--seed", "5", "--json-only")
    _, b, _ = run(capsys, "gen", "random_cubic", "--n", "8", "--seed", "5", "--json-only")
    assert code == 0
    assert a == b


def test_gen_refuses_as(capsys):
    # gen picks its output schema with --format; --as belongs to commands that read an input
    code, payload, _ = run(capsys, "gen", "k33", "--as", "diagram")
    assert code == 1
    assert payload is None


def test_gen_unknown_name(capsys):
    code, _, err = run(capsys, "gen", "moebius")
    assert code == 1


def test_validate_graph(capsys):
    code, payload, _ = run(capsys, "validate", "dumbbell")
    assert code == 0
    assert payload == {
        "kind": "graph",
        "nodes": 2,
        "edges": 3,
        "connected": True,
        "has_loop": True,
        "bridges": [1],
    }


def test_validate_diagram(capsys):
    code, payload, _ = run(capsys, "validate", "k33", "--as", "diagram")
    assert code == 0
    assert payload["kind"] == "diagram"
    assert payload["genus"] == 0
    assert payload["crossings"] == 1
    assert payload["underlying"] == {"nodes": 6, "edges": 9}


def test_validate_a_diagram_without_nodes(tmp_path: Path, capsys):
    # no node reads as the empty graph, whose one coloring is the empty one
    loops = tmp_path / "loops.json"
    loops.write_text(json.dumps({"nodes": [], "crossings": [], "arcs": [], "free_loops": 2}))
    code, payload, _ = run(capsys, "validate", str(loops))
    assert code == 0
    assert payload == {"kind": "diagram", "nodes": 0, "crossings": 0, "arcs": 0, "free_loops": 2, "genus": 0,
                       "underlying": {"nodes": 0, "edges": 0}}
    code, payload, _ = run(capsys, "count", str(loops), "--method", "penrose")
    assert (code, payload["count"]) == (0, 9)
    code, payload, _ = run(capsys, "count", str(loops))
    assert (code, payload["count"]) == (0, 1)
    code, payload, _ = run(capsys, "crosscheck", str(loops))
    assert (code, payload["agree"], payload["count"]) == (0, True, 1)
    assert {v for k, v in payload["methods"].items() if k.startswith("penrose")} == {9}
    # a strand that closes on no node still has no graph reading
    crossed = tmp_path / "crossed.json"
    crossed.write_text(json.dumps({"nodes": [], "crossings": [{"id": 0, "kind": "plain"}],
                                   "arcs": [[["x", 0, 0], ["x", 0, 1]], [["x", 0, 2], ["x", 0, 3]]]}))
    code, payload, _ = run(capsys, "validate", str(crossed))
    assert code == 0
    assert (payload["crossings"], payload["genus"], payload["underlying"]) == (1, 0, None)


def test_json_only_silences_stderr(capsys):
    _, _, err = run(capsys, "count", "theta", "--json-only")
    assert err == ""


def test_usage_error_exits_one(capsys):
    assert main(["count", "theta", "--method", "sorcery"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0


def test_successive_calls_leak_no_options(capsys):
    # the parser is built once per process; each call parses from scratch
    penrose = ("count", "k33", "--as", "diagram", "--method", "penrose")
    code, payload, _ = run(capsys, *penrose, "--plain")
    assert (code, payload["count"]) == (0, 0)
    code, payload, _ = run(capsys, *penrose)
    assert (code, payload["count"]) == (0, 12)
    assert run(capsys, *penrose, "--plain", "--extended")[0] == 1
    code, _, err = run(capsys, "count", "theta", "--json-only")
    assert (code, err) == (0, "")
    code, payload, err = run(capsys, "count", "theta")
    assert (code, payload["method"]) == (0, "brute")
    assert "theta" in err


def test_python_dash_m_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "chromatic_bracket", "count", "theta", "--json-only"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 6
    assert proc.stderr == ""


def test_closed_stdout_ends_quietly():
    import subprocess
    import sys

    # the with block closes stderr too, so no pipe is left to the garbage collector
    with subprocess.Popen(
        [sys.executable, "-m", "chromatic_bracket", "matchings", "isaacs_j", "--n", "11",
         "--json-only"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10  # the payload is far past a pipe buffer
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_closed_stdout_leaks_no_descriptor():
    import subprocess

    script = """
import os, sys
from chromatic_bracket.cli import main

def open_fds():
    return len(os.listdir("/proc/self/fd"))

before = open_fds()
for _ in range(5):
    r, w = os.pipe()  # stdout becomes a pipe whose reader is gone
    os.dup2(w, sys.stdout.fileno())
    os.close(r)
    os.close(w)
    if main(["count", "k33", "--json-only"]) != 1:
        sys.exit("a closed stdout should exit 1")
print(before, open_fds(), file=sys.stderr)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stderr.split())
    assert after == before


def test_validate_huge_node_count_fails_cleanly(tmp_path: Path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"nodes": 10**15, "edges": []}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "error: node 0 has degree 0" in err


def test_input_integer_past_the_digit_limit_fails_cleanly(tmp_path: Path, capsys):
    path = tmp_path / "long.json"
    for text in ('{"nodes": 1' + "0" * 5000 + ', "edges": []}',
                 '{"nodes": [], "crossings": [], "arcs": [], "free_loops": 1' + "0" * 5000 + "}"):
        path.write_text(text)
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "error:" in err


def test_counts_past_the_int_digit_limit_print_in_full(tmp_path: Path, capsys):
    data = cb.diagram_to_json_dict(gen.theta_diagram())
    data["free_loops"] = 9100
    path = tmp_path / "theta_loops.json"
    path.write_text(json.dumps(data))
    bracket = 6 * 3**9100  # 4 345 digits, past Python's default 4 300
    limit = sys.get_int_max_str_digits()
    outcomes = []
    for argv in (["count", str(path), "--method", "penrose"], ["crosscheck", str(path)]):
        code = main(argv)
        assert sys.get_int_max_str_digits() == limit
        out = capsys.readouterr().out
        sys.set_int_max_str_digits(0)
        try:
            outcomes.append((code, json.loads(out)))
        finally:
            sys.set_int_max_str_digits(limit)
    (code, payload), (xcode, report) = outcomes
    assert (code, payload["count"]) == (0, bracket)
    # the free loops weigh 3 each in the bracket but not in the graph count
    assert (xcode, report["agree"], report["free_loops"]) == (0, True, 9100)
    assert report["methods"]["penrose_extended"] == bracket
    assert report["methods"]["brute"] == 6


def test_crosscheck_scales_the_bracket_by_free_loops(tmp_path: Path, capsys):
    data = cb.diagram_to_json_dict(gen.theta_diagram())
    data["free_loops"] = 2
    path = tmp_path / "theta_two_loops.json"
    path.write_text(json.dumps(data))
    code, report, err = run(capsys, "crosscheck", str(path))
    assert (code, report["agree"], report["free_loops"]) == (0, True, 2)
    assert report["count"] == report["methods"]["brute"] == 6
    assert report["methods"]["penrose_extended"] == report["methods"]["penrose_skein"] == 54
    assert "all methods agree" in err


def test_formation_classifies_a_plane_diagram_once(monkeypatch, capsys):
    from chromatic_bracket import cli, formation

    calls = {"genus": 0, "classify_meetings": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for mod in (cli, formation):
        for name in calls:
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    code, payload, _ = run(capsys, "formation", "prism", "--as", "diagram", "--coloring-index", "1")
    assert (code, payload["crossing_parity"]) == (0, 0)
    assert len(payload["meetings"]) == len(payload["shared_segments"])
    assert calls == {"genus": 1, "classify_meetings": 1}


def test_formation_stops_at_the_requested_coloring(monkeypatch, capsys):
    from chromatic_bracket import cli

    drawn = []

    def counting(g):
        for c in cb.iter_colorings(g):
            drawn.append(c)
            yield c

    monkeypatch.setattr(cli, "iter_colorings", counting)
    code, payload, _ = run(capsys, "formation", "prism", "--coloring-index", "1")
    assert code == 0
    assert drawn == cb.enumerate_colorings(gen.prism())[:2]
    assert payload["coloring"] == cb.coloring_names(drawn[1])
    code, _, err = run(capsys, "formation", "prism", "--coloring-index", "99")
    assert code == 1 and "has 6 colorings" in err


def test_states_stops_at_the_requested_matching(monkeypatch, capsys):
    from chromatic_bracket import cli

    drawn = []

    def counting(g):
        for m in cb.iter_perfect_matchings(g):
            drawn.append(m)
            yield m

    monkeypatch.setattr(cli, "iter_perfect_matchings", counting)
    code, payload, _ = run(capsys, "count", "k33", "--method", "states", "--matching-index", "1")
    assert (code, payload["count"]) == (0, 12)
    assert drawn == cb.enumerate_perfect_matchings(gen.k33())[:2]
    assert payload["matching"] == sorted(drawn[1])
    drawn.clear()  # an index past the end counts the matchings in the same pass
    code, _, err = run(capsys, "count", "k33", "--method", "states", "--matching-index", "99")
    assert code == 1 and "out of range: 6 perfect matchings" in err
    assert len(drawn) == 6


def ladder_file(tmp_path: Path, k: int) -> Path:
    """A prism ladder with k rungs: two k-cycles joined node by node."""
    edges = [[i, (i + 1) % k] for i in range(k)]
    edges += [[k + i, k + (i + 1) % k] for i in range(k)]
    edges += [[i, k + i] for i in range(k)]
    path = tmp_path / f"ladder{k}.json"
    path.write_text(json.dumps({"nodes": 2 * k, "edges": edges}))
    return path


def test_deep_input_fails_typed(tmp_path: Path, capsys):
    # prism ladders: a search past the recursion limit must surface as a
    # typed error, not a traceback. The 1200-edge ladder is too deep for brute
    # force and formation; the matching search is refused at matched edge
    # sys.getrecursionlimit(), and 1300 rungs need 1300.
    short, long = ladder_file(tmp_path, 400), ladder_file(tmp_path, 1300)
    cases = [(short, ["count"]), (short, ["formation"]),
             (long, ["matchings"]), (long, ["count", "--method", "states"])]
    for path, command in cases:
        code, payload, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, payload) == (1, None), command
        assert err.startswith("error:"), command


def test_crosscheck_refuses_a_diagram_the_bracket_does_not_count(tmp_path: Path, capsys):
    # without the refusal each exits 2: the torus gives a bracket of -6 against
    # 6 colorings, and a plain or dotted crossing splits k33's methods
    swap = {9: 10, 10: 9}  # node 3's slots 0 and 1, as port codes
    torus = cb.Diagram(4, (), [tuple(swap.get(c, c) for c in arc) for arc in gen.k4_diagram().code_arcs])
    assert cb.genus(torus) == 1
    k33 = cb.diagram_to_json_dict(gen.k33_diagram())
    cases = {"torus": (cb.diagram_to_json_dict(torus), "genus 1")}
    for kind in ("plain", "dotted"):
        k33["crossings"][0]["kind"] = kind
        cases[kind] = (json.loads(json.dumps(k33)), "circled")
    for name, (data, message) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        code, payload, err = run(capsys, "crosscheck", str(path))
        assert (code, payload) == (1, None), name
        assert err.startswith("error:") and message in err and err.count("\n") == 1, name


def test_crosscheck_disagreement_exits_2(monkeypatch, capsys):
    from chromatic_bracket import cli

    monkeypatch.setattr(cli, "skein_evaluate", lambda d: 13)
    code, payload, err = run(capsys, "crosscheck", "k33")
    assert (code, payload["agree"], payload["count"]) == (2, False, 12)
    assert set(payload["methods"]) == {"brute", "even_matchings", "penrose_extended", "penrose_skein"}
    assert payload["methods"]["penrose_skein"] == 13
    assert payload["states_by_matching"] == {str(i): 12 for i in range(6)}
    assert "METHODS DISAGREE" in err


def test_crosscheck_walks_the_perfect_matchings_once(monkeypatch, capsys):
    # the even-matching sum and the per-matching states read one search
    real, walks = cb.iter_perfect_matchings, []

    def counted(g):
        walks.append(g)
        return real(g)

    for module in [m for name, m in sys.modules.items() if name.startswith("chromatic_bracket")]:
        if getattr(module, "iter_perfect_matchings", None) is real:
            monkeypatch.setattr(module, "iter_perfect_matchings", counted)
    code, payload, _ = run(capsys, "crosscheck", "k33")
    assert (code, payload["matching_count"], payload["methods"]["even_matchings"]) == (0, 6, 12)
    assert len(walks) == 1


def test_crosscheck_expands_states_without_revalidating(monkeypatch, capsys):
    # the states read the matchings of crosscheck's one search unvalidated
    from chromatic_bracket import state_calculus

    real, checked = state_calculus.validate_matching, []

    def counted(g, edge_ids):
        checked.append(g)
        return real(g, edge_ids)

    monkeypatch.setattr(state_calculus, "validate_matching", counted)
    code, payload, _ = run(capsys, "crosscheck", "k33")
    assert (code, len(checked)) == (0, 0)
    assert payload["states_by_matching"] == {str(i): 12 for i in range(6)}


def test_crosscheck_expands_its_matchings_in_one_sweep(monkeypatch, capsys):
    # the switches and path tables are built once per graph, not once per matching
    from chromatic_bracket import cli

    real, sweeps = cli._expansion_counts, []

    def counted(g, matchings):
        sweeps.append(list(matchings))
        return real(g, sweeps[-1])

    monkeypatch.setattr(cli, "_expansion_counts", counted)
    code, payload, _ = run(capsys, "crosscheck", "k33")
    assert (code, len(sweeps)) == (0, 1)
    assert sweeps[0] == cb.enumerate_perfect_matchings(gen.k33()) and len(sweeps[0]) == 6
    assert payload["states_by_matching"] == {str(i): 12 for i in range(6)}


def test_matchings_reads_cycles_without_revalidating(monkeypatch, capsys):
    # the search yields valid matchings, so the command validates none of them
    real, checked = cb.validate_matching, []

    def counted(g, edge_ids):
        checked.append(g)
        return real(g, edge_ids)

    for module in [m for name, m in sys.modules.items() if name.startswith("chromatic_bracket")]:
        if getattr(module, "validate_matching", None) is real:
            monkeypatch.setattr(module, "validate_matching", counted)
    code, payload, _ = run(capsys, "matchings", "k33")
    assert (code, payload["matching_count"], len(checked)) == (0, 6, 0)
    monkeypatch.undo()
    g = gen.k33()
    rows = [{"edges": sorted(m), "cycle_lengths": [len(c) for c in cycles],
             "even": all(len(c) % 2 == 0 for c in cycles)}
            for m in cb.enumerate_perfect_matchings(g) for cycles in [cb.complement_cycles(g, m)]]
    assert payload["matchings"] == rows
    assert payload["even_count"] == sum(row["even"] for row in rows)


def test_readme_command_examples_give_their_answers(capsys):
    # the sh block under "## Command line" in README.md
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    checked = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = [*shlex.split(command)[1:], "--json-only"]
        count = re.search(r"-?\d+$", comment)
        if argv[0] == "count" and count:
            code, payload, _ = run(capsys, *argv)
            assert (code, payload["count"]) == (0, int(count[0])), line
        elif argv[0] == "matchings":
            code, payload, _ = run(capsys, *argv)
            summary = f"{payload['matching_count']} matchings, {payload['even_count']} even"
            assert (code, summary) == (0, comment.strip()), line
        else:
            continue
        checked.append(argv[0])
    assert checked == ["count"] * 5 + ["matchings"]


@pytest.mark.parametrize("name, code, count", [("k33", 0, 12), ("moebius", 1, None)])
def test_console_main_exits_with_mains_code(monkeypatch, capsys, name, code, count):
    monkeypatch.setattr(sys, "argv", ["chromatic-bracket", "count", name, "--json-only"])
    with pytest.raises(SystemExit) as exc:
        console_main()
    out = capsys.readouterr().out
    assert (exc.value.code, json.loads(out)["count"] if out else None) == (code, count)
