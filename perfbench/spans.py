"""Span recorder for the traced run.

``install`` wraps each public function in ``LAYERS`` and rebinds it in every
``chromatic_bracket`` module that holds it (``cli.count_colorings``,
``penrose.enumerate_colorings``, ``state_calculus.make_state`` ...), so the
calls the program makes between its own modules are recorded too. A span is
(name, start, end, parent span, call id); spans stay in flat arrays in memory
and are written out once, at the end of the run. A span's self time is its
duration minus the durations of its children, which nest inside it because
the program runs on one thread.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

PACKAGE = "chromatic_bracket"

LAYERS = {
    "cli": ("main",),
    "graph_core": ("graph_from_json_dict", "build_graph"),
    "diagram": ("diagram_from_json_dict", "underlying_graph", "genus", "chord_immersion"),
    "coloring": ("count_colorings", "enumerate_colorings"),
    "matching": ("enumerate_perfect_matchings", "complement_cycles", "count_from_even_matchings"),
    "penrose": ("contract_plain", "contract_extended", "skein_evaluate"),
    "state_calculus": ("logical_expansion_count", "make_state", "count_state_colorings"),
    "formation": ("formation_from_coloring", "classify_meetings", "crossing_parity"),
}
NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# Work counted from a function's return value: (metric suffix, measure).
MEASURES: dict[str, tuple[str, Callable[[object], int]]] = {
    "diagram.chord_immersion": ("crossings", lambda d: d.crossing_count),
    "coloring.count_colorings": ("leaves", lambda count: count),
    "coloring.enumerate_colorings": ("items", len),
    "matching.enumerate_perfect_matchings": ("matchings", len),
    "state_calculus.count_state_colorings": ("nonzero", lambda count: int(count != 0)),
}

RAISED, BUDGET = 1, 2  # span flags


def _is_budget_error(exc: BaseException) -> bool:
    # Matches today's RecursionBudgetExceeded and a later BudgetExceeded.
    return "Budget" in type(exc).__name__


class Recorder:
    def __init__(self) -> None:
        self.name = array("h")
        self.parent = array("l")
        self.call = array("l")
        self.start = array("q")
        self.end = array("q")
        self.flag = array("b")
        self.stack: list[int] = []
        self.call_id = 0
        self.work = [0] * len(NAMES)

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, idx: int, fn: Callable) -> Callable:
        measure = MEASURES.get(NAMES[idx], (None, None))[1]

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(idx)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.call.append(self.call_id)
            self.flag.append(0)
            self.end.append(0)
            self.stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.flag[i] = BUDGET if _is_budget_error(exc) else RAISED
                raise
            finally:
                self.end[i] = perf_counter_ns()
                self.stack.pop()
            if measure is not None:
                self.work[idx] += measure(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> Callable[[], None]:
        """Rebind every listed function to its traced wrapper; returns undo."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == PACKAGE]
        undo: list[tuple[object, str, object]] = []
        for idx, full in enumerate(NAMES):
            layer, fn_name = full.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{layer}"], fn_name)
            traced = self.wrap(idx, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        undo.append((module, attr, original))

        def uninstall() -> None:
            for module, attr, value in undo:
                setattr(module, attr, value)

        return uninstall

    def reduce(self, lo: int, hi: int) -> tuple[list[int], list[int], list[int], int]:
        """Per name over spans [lo, hi): self ns, calls, self ns of budget
        failures; plus the ns covered by root spans."""
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        self_ns = [0] * len(NAMES)
        calls = [0] * len(NAMES)
        budget_ns = [0] * len(NAMES)
        root_ns = 0
        for i in range(lo, hi):
            k = self.name[i]
            dur = self.end[i] - self.start[i]
            own = dur - child[i - lo]
            self_ns[k] += own
            calls[k] += 1
            if self.flag[i] == BUDGET:
                budget_ns[k] += own
            if self.parent[i] < 0:
                root_ns += dur
        return self_ns, calls, budget_ns, root_ns

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: id, name, parent, call, start_ns, end_ns, flag."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tcall\tstart_ns\tend_ns\tflag\n")
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{NAMES[self.name[i]]}\t{self.parent[i]}\t{self.call[i]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{self.flag[i]}\n"
                )


def layer_metrics(
    rec: Recorder, passes: list[tuple[int, int, float]], untraced: list[float]
) -> dict:
    """Per-layer metrics as means over the traced passes.

    ``passes`` holds (first span, end span, pass seconds) per traced pass;
    ``untraced`` the pass seconds of the untraced passes of the same run.
    The self times of all names plus ``trace.harness_s`` add up to
    ``trace.verify_s``.
    """
    k = len(passes)
    self_ns = [0] * len(NAMES)
    calls = [0] * len(NAMES)
    budget_ns = [0] * len(NAMES)
    root_ns = 0
    for lo, hi, _ in passes:
        s, c, b, r = rec.reduce(lo, hi)
        self_ns = [x + y for x, y in zip(self_ns, s)]
        calls = [x + y for x, y in zip(calls, c)]
        budget_ns = [x + y for x, y in zip(budget_ns, b)]
        root_ns += r
    out: dict[str, tuple[float, str]] = {}
    for idx, full in enumerate(NAMES):
        out[f"{full}.self_s"] = (self_ns[idx] / 1e9 / k, "s")
        out[f"{full}.calls"] = (calls[idx] / k, "count")
        if full in MEASURES:
            out[f"{full}.{MEASURES[full][0]}"] = (rec.work[idx] / k, "count")
    skein = NAMES.index("penrose.skein_evaluate")
    out["penrose.skein_evaluate.budget_exhausted"] = (
        sum(1 for i in range(len(rec)) if rec.name[i] == skein and rec.flag[i] == BUDGET) / k,
        "count",
    )
    out["penrose.skein_evaluate.wasted_ratio"] = (
        budget_ns[skein] / self_ns[skein] if self_ns[skein] else 0.0, "ratio"
    )
    states = NAMES.index("state_calculus.count_state_colorings")
    out["state_calculus.count_state_colorings.useful_ratio"] = (
        rec.work[states] / calls[states] if calls[states] else 0.0, "ratio"
    )
    traced_s = sum(p[2] for p in passes) / k
    untraced_s = sum(untraced) / len(untraced)
    out["trace.verify_s"] = (traced_s, "s")
    out["trace.untraced_verify_s"] = (untraced_s, "s")
    out["trace.span_s"] = (root_ns / 1e9 / k, "s")
    out["trace.harness_s"] = (traced_s - root_ns / 1e9 / k, "s")
    out["trace.spans"] = (sum(hi - lo for lo, hi, _ in passes) / k, "count")
    out["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "ratio")
    return out
