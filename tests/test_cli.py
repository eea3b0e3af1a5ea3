"""End-to-end command-line behavior: parsing, output schema, exit codes."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import chromatic_bracket as cb
from chromatic_bracket import generators as gen
from chromatic_bracket.cli import main


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


def test_count_states_needs_a_matching(capsys):
    code, payload, err = run(capsys, "count", "double_dumbbell", "--method", "states")
    assert code == 1
    assert "error" in err


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


def test_count_from_graph_file(tmp_path: Path, capsys):
    path = tmp_path / "theta.json"
    path.write_text(cb.graph_to_json(gen.theta()))
    code, payload, _ = run(capsys, "count", str(path))
    assert (code, payload["count"]) == (0, 6)


def test_count_from_diagram_file_schema_inferred(tmp_path: Path, capsys):
    path = tmp_path / "k33d.json"
    path.write_text(cb.diagram_to_json(gen.k33_diagram()))
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


def test_formation_index_out_of_range(capsys):
    code, _, err = run(capsys, "formation", "theta", "--coloring-index", "6")
    assert code == 1
    assert "out of range" in err


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


def test_json_only_silences_stderr(capsys):
    _, _, err = run(capsys, "count", "theta", "--json-only")
    assert err == ""


def test_usage_error_exits_one(capsys):
    assert main(["count", "theta", "--method", "sorcery"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0


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


def test_validate_huge_node_count_fails_cleanly(tmp_path: Path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"nodes": 10**15, "edges": []}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "error: node 0 has degree 0" in err


def test_input_integer_past_the_digit_limit_fails_cleanly(tmp_path: Path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"nodes": 1' + "0" * 5000 + ', "edges": []}')
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
