"""Span and call-count instrument wrapped around qeuclid's public functions.

The instrument lives outside the package.  ``Tracer.install`` replaces every
reference to a traced function in the qeuclid modules with a wrapper, so a
call is seen no matter which module makes it (``verify`` holds its own
reference to ``materialize``, ``cli`` its own to ``run_all_suites``, and so
on).  ``uninstall`` puts the original objects back.

Two kinds of wrapper exist:

* span: records ``(id, name, arg, start, end, parent, thread)`` per call.
  Suites run in a thread pool, so each thread keeps its own stack of open
  spans; a span opened on a thread with an empty stack takes as parent the
  span open on the main thread at that moment (the main thread is the only
  one that starts workers).
* count: bumps a per-thread counter and records nothing else; used for
  functions called hundreds of thousands of times per run.

Spans stay in memory and are written as JSON lines by ``write``;
``layer_metrics`` derives calls, total time and self time from that file.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

#: (module, function, kind, arg) -- ``arg`` names what to keep from the
#: call: "arg0" keeps the first positional argument (the suite name of
#: ``run_suite``), "nnz" adds the result's nonzero count to a counter.
TRACED = (
    ("cli", "main", "span", None),
    ("verify", "run_all_suites", "span", None),
    ("verify", "run_suite", "span", "arg0"),
    ("verify", "check_relations", "span", None),
    ("verify", "word_matrix", "span", None),
    ("verify", "interior_positions", "span", None),
    ("operators", "materialize", "span", "nnz"),
    ("operators", "adjoint_matrix", "span", None),
    ("operators", "apply", "span", None),
    ("operators", "spectrum_diagonal", "span", None),
    ("lattice", "build_window", "span", None),
    ("lattice", "load_state", "span", None),
    ("lattice", "save_state", "span", None),
    ("smooth", "limit_convergence", "span", None),
    ("smooth", "limit_grid", "span", None),
    ("smooth", "smooth_apply", "span", None),
    ("operators", "operator_action", "count", None),
    ("core", "qpow", "count", None),
)

MODULES = ("cli", "verify", "operators", "lattice", "smooth", "core")

SUITES = (
    "x_relations",
    "k_relations",
    "adjointness",
    "casimir",
    "commutant",
    "homomorphism",
    "tensor",
    "recursions",
    "lowest_weight",
)

#: Span-traced functions that call other span-traced functions, and so
#: report a self time.
WITH_CHILDREN = (
    "cli.main",
    "verify.run_all_suites",
    "verify.check_relations",
    "operators.materialize",
    "operators.adjoint_matrix",
    "operators.spectrum_diagonal",
    "smooth.limit_convergence",
    "smooth.limit_grid",
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out: list[tuple[str, str]] = []
    for mod, fn, kind, arg in TRACED:
        name = f"{mod}.{fn}"
        if name == "verify.run_suite":
            out.extend((f"verify.suite.{s}.s", "s") for s in SUITES)
            continue
        out.append((f"{name}.calls", "count"))
        if kind == "span":
            out.append((f"{name}.s", "s"))
            if name in WITH_CHILDREN:
                out.append((f"{name}.self_s", "s"))
        if arg == "nnz":
            out.append((f"{name}.nnz", "count"))
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stacks: dict[int, list[int]] = {}
        self._counters: list[dict[str, int]] = []
        self._main = threading.main_thread().ident
        self._patched: list[tuple[object, str, object]] = []

    # --- per-thread state ------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def _count(self, key: str, n: int = 1) -> None:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            self._counters.append(counts)
        counts[key] = counts.get(key, 0) + n

    def counters(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for counts in self._counters:
            for key, n in counts.items():
                total[key] = total.get(key, 0) + n
        return total

    # --- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, arg: str | None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and stack is not main else None
            sid = next(self._ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = args[0] if arg == "arg0" and args else None
                self.spans.append(
                    (sid, name, label, start, end, parent, threading.get_ident())
                )
            if arg == "nnz":
                self._count(f"{name}.nnz", int(result.entries.nnz))
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import importlib

        mods = [importlib.import_module(f"qeuclid.{m}") for m in MODULES]
        for mod_name, fn_name, kind, arg in TRACED:
            home = importlib.import_module(f"qeuclid.{mod_name}")
            fn = getattr(home, fn_name)
            name = f"{mod_name}.{fn_name}"
            if kind == "span":
                wrapper = self._span_wrapper(name, fn, arg)
            else:
                wrapper = self._count_wrapper(name, fn)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line holding the call counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, label, start, end, parent, thread in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "arg": label,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counters": self.counters()}, sort_keys=True) + "\n")


# --- derivation from the span file ------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def read_spans(path: Path) -> tuple[list[dict], dict[str, int]]:
    spans: list[dict] = []
    counters: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            if "counters" in doc:
                counters = doc["counters"]
            else:
                spans.append(doc)
    return spans, counters


def layer_metrics(path: Path, overhead_s: float) -> dict[str, float]:
    """Calls, time and self time per traced function from a span file.

    ``.s`` sums the durations of a function's outermost spans (a call nested
    in another call of the same function is not counted twice); spans on
    different threads may overlap, so a sum can exceed the wall time.
    ``.self_s`` subtracts from each span the union of its children's
    intervals.
    """
    spans, counters = read_spans(path)
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))

    def nested_in_same(s: dict) -> bool:
        parent = by_id.get(s["parent"])
        while parent is not None:
            if parent["name"] == s["name"]:
                return True
            parent = by_id.get(parent["parent"])
        return False

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for s in spans:
        name = s["name"]
        dur = s["end"] - s["start"]
        self_s = dur - _covered(children.get(s["id"], []), s["start"], s["end"])
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + self_s
        if not nested_in_same(s):
            total[name] = total.get(name, 0.0) + dur
        if name == "verify.run_suite":
            key = f"verify.suite.{s['arg']}.s"
            total[key] = total.get(key, 0.0) + dur

    out: dict[str, float] = {}
    for metric, _unit in metric_names():
        stem, _, field = metric.rpartition(".")
        if metric == "trace.overhead_s":
            out[metric] = overhead_s
        elif metric.startswith("verify.suite."):
            out[metric] = total.get(metric, 0.0)
        elif field == "calls":
            out[metric] = calls.get(stem, counters.get(metric, 0))
        elif field == "s":
            out[metric] = total.get(stem, 0.0)
        elif field == "self_s":
            out[metric] = self_total.get(stem, 0.0)
        elif field == "nnz":
            out[metric] = counters.get(metric, 0)
    return out
