"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py                   # about a minute
    python3 perfbench/smoke.py --write-expected  # rebuild expected_seed0.json

For every workload it makes two quick untraced runs and one quick traced run
and checks that each run is correct, that every metric named in
BENCHMARK.json is emitted, that the two untraced runs agree on every count,
and that the traced run's spans nest: no self time and no harness remainder
is negative, and the spans cover no more than the traced pass. (The self
times plus the harness remainder add up to the traced pass by construction.)
It checks that a changed input is reported rather than recomputed, and that
the committed expected-count table holds what the closed forms and the
reference DP give on the default-seed corpora.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus as corpus_mod  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """One quick run: (last-line result, full record from .bench_out)."""
    argv = [sys.executable, str(HERE / "run.py"), "--quick", "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = run.OUT / "results" / f"{workload}-seed0-trace{trace}-quick.json"
    return result, json.loads(record.read_text())


def answers(record: dict) -> dict[int, object]:
    return {r["call"]: r["answer"] for r in record["records"] if r["pass"] == 0}


def default_seed_table() -> dict[str, dict]:
    cb = run.import_program()
    table = {}
    for workload, build in corpus_mod.BUILDERS.items():
        table[workload] = {}
        for key, inst in sorted(build(cb, 0, False).instances.items()):
            count = corpus_mod.closed_form(key)
            if count is None:
                count = reference.count_colorings(*inst.graph())
            table[workload][key] = {"count": count, "sha256": inst.digest()}
    return table


def tamper_problems() -> list[str]:
    """A fixture whose JSON changed, and gen output that no longer matches the
    committed digest, must both fail instead of being silently re-checked."""
    cb = run.import_program()
    corpus = corpus_mod.brute_count(cb, 0, True)
    petersen = corpus.instances["petersen"]
    gen = next(c for c in corpus.calls if c.check == "gen" and c.key == "truncated_tetrahedron")
    petersen.data = dict(petersen.data, edges=petersen.data["edges"][::-1])
    refs, changed = run.references(corpus, "brute-count")
    count = next(c for c in corpus.calls if c.check == "count" and c.key == "petersen")
    problems = []
    if changed != ["petersen"]:
        problems.append(f"a changed petersen was reported as {changed}")
    if run.classify(count, "exit0", '{"count": 0}', refs["petersen"]) != "wrong":
        problems.append("a count on a changed input passed")
    truncated = refs["truncated_tetrahedron"]
    bad = dict(corpus.instances["truncated_tetrahedron"].data, nodes=0)
    if run.classify(gen, "exit0", json.dumps(bad), truncated) != "wrong":
        problems.append("gen output unlike the committed digest passed")
    return problems


def main() -> int:
    if "--write-expected" in sys.argv:
        run.EXPECTED.write_text(json.dumps(default_seed_table(), indent=1) + "\n")
        print(f"wrote {run.EXPECTED}")
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        first, rec1 = bench(workload, 0)
        second, rec2 = bench(workload, 0)
        traced, rec3 = bench(workload, 1)
        for label, res, names in (("run 1", first, end_to_end), ("run 2", second, end_to_end),
                                  ("traced", traced, per_layer)):
            if not res["correct"]:
                problems.append(f"{workload} {label}: a wrong answer")
            if set(res["metrics"]) != names:
                problems.append(f"{workload} {label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(res['metrics']) ^ names)}")
        if answers(rec1) != answers(rec2):
            problems.append(f"{workload}: two quick runs disagree on a count")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        negative = [k for k, v in m.items() if k.endswith(".self_s") and v < 0]
        if negative or m["trace.harness_s"] < 0:
            problems.append(f"{workload}: negative self or harness time: {negative}")
        if m["trace.span_s"] > m["trace.verify_s"]:
            problems.append(f"{workload}: spans cover more than the traced pass")
        print(f"{workload}: {first['attempted']} + {second['attempted']} calls, "
              f"{traced['attempted']} traced")
    problems += tamper_problems()
    if default_seed_table() != json.loads(run.EXPECTED.read_text()):
        problems.append("expected_seed0.json disagrees with the reference DP")
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
