"""Benchmark of the chromatic-bracket CLI: closed loop, one client, one thread.

    python3 perfbench/run.py --workload brute-count --seed 0 --seconds 20 --trace 0

Set-up imports the package from ``src/``, writes the workload's corpus as
JSON files under ``.bench_out/`` and makes one untimed warm-up pass; it is
repeated three times and ``setup_s`` is the median. The run then calls
``chromatic_bracket.cli.main`` in-process on each file in turn, passes over
the corpus until ``--seconds`` have elapsed, and checks every answer against
a reference that does not come from the method being timed. Call times are
scaled by a calibration loop timed around each call (see ``CAL_REF_S``); the
wall-clock values are printed and recorded beside them. ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics instead
of end-to-end ones. The last stdout line is the JSON result; the full record,
with run metadata and every answer next to its time, goes to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import corpus as corpus_mod  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 3
CALL_LIMIT_S = 10.0  # per-call wall limit; a call it stops counts as failed
# On a shared machine the CPU speed can swing by tens of percent within
# seconds, and between runs. A fixed loop timed before and after every call
# tracks it, and each call's time is scaled to a machine on which that loop
# takes CAL_REF_S. The loop shares no code with the program, so a change to the
# program moves the scaled times as much as the wall times.
CAL_LOOPS = 20_000
CAL_REF_S = 0.002
EXPECTED = HERE / "expected_seed0.json"  # reference counts for the default seed
THREADS_VAR = "CHROMATIC_BRACKET_THREADS"
SPEC = ROOT / "BENCHMARK.json"


class CallLimit(BaseException):
    """Raised by SIGALRM when a call outlives CALL_LIMIT_S."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise CallLimit()


def import_program():
    """Import a fresh copy of the package from ``src/`` (no cached modules)."""
    for name in [n for n in sys.modules if n.split(".")[0] == spans.PACKAGE]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chromatic_bracket
    import chromatic_bracket.cli

    if Path(chromatic_bracket.__file__).resolve().parent != SRC / spans.PACKAGE:
        raise ImportError(f"{spans.PACKAGE} was not imported from {SRC}")
    return chromatic_bracket


def run_call(cli, call, rec=None) -> tuple[int, str, str, str]:
    """One cli.main call: (elapsed ns, outcome, stdout, stderr).

    outcome is "exit<code>", "crash:<type>" for an exception that escaped
    main, or "limit" when the per-call wall limit stopped it.
    """
    global _armed
    out, err = io.StringIO(), io.StringIO()
    if rec is not None:
        rec.stack.clear()
        rec.call_id += 1
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
        _armed = True
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(call.argv)
            outcome = f"exit{code}"
        except CallLimit:
            outcome = "limit"
        except Exception as exc:  # an untyped crash is data here, not a harness error
            outcome = f"crash:{type(exc).__name__}"
        finally:
            elapsed = time.perf_counter_ns() - t0
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, outcome, out.getvalue(), err.getvalue()


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_pass(cli, calls, rec=None) -> list[tuple[float, float, str, str]]:
    """Every call once: (wall ms, scaled ms, outcome, stdout) per call.

    The scale is CAL_REF_S over the mean of the calibrations either side.
    """
    out = []
    before = calibrate()
    for call in calls:
        ns, outcome, stdout, _ = run_call(cli, call, rec)
        after = calibrate()
        out.append((ns / 1e6, ns / 1e6 * 2 * CAL_REF_S / (before + after), outcome, stdout))
        before = after
    return out


def _proper(edges, names) -> bool:
    at: dict[int, list[str]] = {}
    for (u, v), c in zip(edges, names):
        at.setdefault(u, []).append(c)
        at.setdefault(v, []).append(c)
    return len(names) == len(edges) and all(sorted(cs) == ["B", "P", "R"] for cs in at.values())


def check_answer(call, payload: dict, ref: dict) -> bool:
    """Does the payload of a successful call hold the reference answer?"""
    if call.check in ("count", "plain"):
        return payload.get("count") == ref[call.check]
    if call.check == "validate":
        return {k: payload.get(k) for k in ref["facts"]} == ref["facts"]
    if call.check == "gen":
        return corpus_mod.digest(payload) == ref["sha256"]
    if call.check == "crosscheck":
        return (
            payload.get("agree") is True
            and payload.get("count") == ref["count"]
            and payload.get("matching_count") == ref["matchings"][0]
        )
    if call.check == "matchings":
        got = (payload.get("matching_count"), payload.get("even_count"))
        return got == tuple(ref["matchings"])
    if call.check == "formation":
        names = payload.get("coloring", [])
        purple = [e for e, c in enumerate(names) if c == "P"]
        ok = _proper(ref["edges"], names) and payload.get("shared_segments") == purple
        if ref["plane"]:
            ok = (ok and payload.get("crossing_parity") == 0
                  and len(payload.get("meetings", {})) == len(purple))
        return ok
    raise ValueError(f"unknown check {call.check!r}")


def references(corpus, workload: str) -> tuple[dict[str, dict], list[str]]:
    """Reference answers per instance key, and the keys whose input changed.

    The committed table holds, per workload, a count and a JSON digest for
    every instance of the default seed: fixtures, anchors, probes and the
    seed-0 body. (Per workload, because a fixture such as k33 is a graph in
    one workload and a diagram in another.) An instance whose key is in the
    table but whose digest is not was made differently by the program's
    generators, so it is reported as changed and every call on it fails; its
    reference is not recomputed. Counts come
    from a closed form, else from the table, else (a body instance of another
    seed) from the independent frontier DP in reference.py. A plain
    contraction equals the count only on a crossing-free plane drawing; on
    the one crossed fixture (k33) it is 0. ``gen`` output is checked against
    the fixture's committed digest.
    """
    table = json.loads(EXPECTED.read_text())[workload]
    refs: dict[str, dict] = {}
    changed = []
    for key, inst in corpus.instances.items():
        entry = table.get(key)
        if entry is not None and entry["sha256"] != inst.digest():
            changed.append(key)
            refs[key] = {"changed": True}
            continue
        n, edges = inst.graph()
        count = corpus_mod.closed_form(key)
        if count is None:
            count = entry["count"] if entry else reference.count_colorings(n, edges)
        crossings = len(inst.data.get("crossings", []))
        refs[key] = {
            "count": count,
            "plain": count if crossings == 0 else 0,
            "edges": edges,
            "plane": crossings == 0,
            "sha256": entry and entry["sha256"],
        }
        checks = {c.check for c in corpus.calls + corpus.probes if c.key == key}
        if "validate" in checks:
            refs[key]["facts"] = reference.graph_facts(n, edges)
        if checks & {"matchings", "crosscheck"}:
            refs[key]["matchings"] = reference.matching_counts(n, edges)
    return refs, changed


def setup(workload: str, seed: int, quick: bool):
    """Import, generate, write the corpus and make one untimed warm-up pass.

    Returns the scaled and the wall seconds it took, the package and the corpus.
    """
    before = calibrate()
    t0 = time.perf_counter()
    cb = import_program()
    corpus = corpus_mod.BUILDERS[workload](cb, seed, quick)
    corpus_mod.write(corpus, OUT / "corpus" / workload)
    prep = time.perf_counter() - t0
    scaled = prep * 2 * CAL_REF_S / (before + calibrate())
    warm = run_pass(cb.cli, corpus.calls)
    wall = prep + sum(r[0] for r in warm) / 1e3
    return scaled + sum(r[1] for r in warm) / 1e3, wall, cb, corpus


def classify(call, outcome: str, stdout: str, ref: dict) -> str:
    """ok | wrong | typed | crash | limit; every call on a changed input is wrong."""
    if ref.get("changed"):
        return "wrong"
    if outcome == "exit0":
        try:
            return "ok" if check_answer(call, json.loads(stdout), ref) else "wrong"
        except (ValueError, KeyError, TypeError):
            return "wrong"
    if outcome == "exit1":
        return "typed"
    if outcome.startswith("crash:") or outcome == "limit":
        return outcome.split(":")[0]
    return "wrong"  # exit 2: the methods disagreed


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def metadata(args, threads_was: str | None) -> dict:
    pkg = SRC / spans.PACKAGE
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        THREADS_VAR: "unset" if threads_was is None else f"removed (was {threads_was!r})",
        "src_lines": {p.name: len(p.read_text().splitlines()) for p in sorted(pkg.glob("*.py"))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus_mod.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="trimmed corpus, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / spans.PACKAGE / "cli.py").is_file():
        print(f"error: {SRC / spans.PACKAGE} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    threads_was = os.environ.pop(THREADS_VAR, None)
    signal.signal(signal.SIGALRM, _on_alarm)

    setups, setups_wall = [], []
    for _ in range(SETUP_REPEATS):
        scaled, wall, cb, corpus = setup(args.workload, args.seed, args.quick)
        setups.append(scaled)
        setups_wall.append(wall)
    refs, changed = references(corpus, args.workload)

    rec = spans.Recorder() if args.trace else None
    records = []
    untraced: list[float] = []  # scaled seconds per untraced pass
    untraced_wall: list[float] = []
    traced: list[tuple[int, int, float]] = []  # first span, end span, wall seconds
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or not untraced or (rec and not traced):
        tracing = rec is not None and len(traced) < len(untraced)
        lo = len(rec) if tracing else 0
        uninstall = rec.install() if tracing else None
        t0 = time.perf_counter()
        results = run_pass(cb.cli, corpus.calls, rec if tracing else None)
        wall = time.perf_counter() - t0
        for i, (call, (ms, scaled, outcome, stdout)) in enumerate(zip(corpus.calls, results)):
            verdict = classify(call, outcome, stdout, refs[call.key])
            answer = None
            if call.check in ("count", "plain", "crosscheck") and verdict in ("ok", "wrong"):
                try:
                    answer = json.loads(stdout).get("count")
                except (ValueError, AttributeError):
                    pass
            records.append({"pass": len(untraced) + len(traced), "call": i, "ms": ms,
                            "scaled_ms": scaled, "outcome": outcome, "verdict": verdict,
                            "answer": answer})
        if tracing:
            uninstall()
            traced.append((lo, len(rec), wall))
        else:
            untraced.append(sum(r[1] for r in results) / 1e3)
            untraced_wall.append(wall)

    probes = []
    for call in corpus.probes:
        ns, outcome, stdout, stderr = run_call(cb.cli, call)
        probes.append({"key": call.key, "ms": ns / 1e6, "outcome": outcome,
                       "verdict": classify(call, outcome, stdout, refs[call.key]),
                       "stderr": stderr.strip(), "known_failure": call.probe})

    attempted = len(records)
    failed = sum(r["verdict"] != "ok" for r in records)
    ratios = {
        "fail_ratio": failed / attempted,
        "crash_ratio": sum(r["verdict"] == "crash" for r in records) / attempted,
    }
    correct = not changed and not any(r["verdict"] == "wrong" for r in records + probes)
    # Percentiles are taken per untraced pass and the median over passes is
    # reported: pooling the passes would put p90 between two instances' groups
    # of samples and read the extremes of each.
    samples = [r["scaled_ms"] for r in records if r["verdict"] != "limit"]
    if rec is None:
        per_pass = [[r["scaled_ms"] for r in records
                     if r["pass"] == i and r["verdict"] != "limit"] for i in range(len(untraced))]
        p90s = [statistics.quantiles(ms, n=10)[8] for ms in per_pass]
        metrics = {
            "verify_s": (statistics.median(untraced), "s"),
            "instance_ms.p50": (statistics.median(map(statistics.median, per_pass)), "ms"),
            "instance_ms.p90": (statistics.median(p90s), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        metrics = spans.layer_metrics(rec, traced, untraced_wall)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    meta = metadata(args, threads_was)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    if rec is not None:
        rec.write(OUT / "spans" / f"{stem}.tsv.gz")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps({
        "metadata": meta,
        "metrics": metrics,
        "ratios": ratios,
        "setup_s_each": {"scaled": setups, "wall": setups_wall},
        "pass_s": {"untraced": untraced, "untraced_wall": untraced_wall,
                   "traced_wall": [p[2] for p in traced]},
        "instance_ms_samples": len(samples),
        "calls": [{"argv": c.argv, "check": c.check, "key": c.key} for c in corpus.calls],
        "records": records,
        "probes": probes,
        "corpus_changed": changed,
    }, indent=1))

    print("metadata " + json.dumps(meta, sort_keys=True))
    for key in changed:
        print(f"corpus changed: {key}")
    for i, verdict in sorted({(r["call"], r["verdict"]) for r in records if r["verdict"] != "ok"}):
        print(f"FAILED call {i} ({verdict}): {' '.join(corpus.calls[i].argv)}")
    for p in probes:
        print(f"probe {p['key']}: {p['verdict']} {p['outcome']} after {p['ms']:.1f} ms "
              f"(known baseline failure: {p['known_failure']})")
    print(f"passes untraced {len(untraced)}, traced {len(traced)}; "
          f"instance_ms samples {len(samples)}")
    for k, v in ratios.items():
        print(f"{k} {v:.6g} ratio")
    if untraced_wall:
        print(f"wall (unscaled): verify_s {statistics.median(untraced_wall):.6g} s, "
              f"setup_s {statistics.median(setups_wall):.6g} s")
    for k, v in metrics.items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
