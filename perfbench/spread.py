"""Run every workload once per seed, twice over, and report each metric's spread.

    python3 perfbench/spread.py                             # print only
    python3 perfbench/spread.py --out perfbench/baseline.json

Runs are sequential, untraced and ``run_seconds`` long, as BENCHMARK.json
sets. A set is one run per seed in ``SEEDS`` for every workload; ``SETS``
sets are made, one after the other. For each set and end-to-end metric it
prints the median over seeds and the quartile distance from
``statistics.quantiles(values, n=4)`` as a share of the median, next to the
metric's bound. Then, per metric, the worst spread of the sets and the shift
of the last set's median from the first's, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def one_set(spec: dict) -> dict[str, dict]:
    report: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--trace", "0"]
            out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            runs.append(json.loads(out.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}", flush=True)
        report[workload] = {"seeds": list(SEEDS), "correct": all(r["correct"] for r in runs),
                            "failed": sum(r["failed"] for r in runs), "metrics": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            report[workload]["metrics"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": values,
            }
            print(f"{workload:20s} {metric['name']:16s} median {median:10.4f} {metric['unit']:3s} "
                  f"spread {spread:.3f} (bound {metric['bound']})", flush=True)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write every set and the summary here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = []
    for i in range(SETS):
        print(f"set {i + 1} of {SETS}", flush=True)
        sets.append(one_set(spec))
    summary: dict[str, dict] = {}
    for workload, first in sets[0].items():
        summary[workload] = {}
        for name, m in first["metrics"].items():
            last = sets[-1][workload]["metrics"][name]
            worst = max(s[workload]["metrics"][name]["spread"] for s in sets)
            shift = (last["median"] - m["median"]) / m["median"]
            summary[workload][name] = {"worst_spread": worst, "median_shift": shift,
                                       "bound": m["bound"]}
            print(f"{workload:20s} {name:16s} worst spread {worst:.3f} "
                  f"median shift {shift:+.3f} (bound {m['bound']})", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"run_seconds": spec["run_seconds"], "summary": summary,
                                        "sets": sets}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
