"""Runs one workload's plan in a fresh process through ``qeuclid.cli.main``.

Usage: ``python3 perfbench/worker.py PLAN.json`` with the checkout's ``src``
first on ``PYTHONPATH``.  The worker imports the CLI, runs the warm-up
operations, then whole rounds of the plan's operations until the next round
would end past the plan's ``seconds`` (at least one round).  A round during
which the host stole more than ``STEAL_LIMIT`` of the machine's CPU time is
marked noisy.  With tracing on, one more round runs under the span
instrument.  Exit codes, captured output, wall and CPU times of every
operation and round, and each round's steal go to ``result.json`` next to
the plan; the parent process checks the outputs.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


#: Share of the machine's CPU time (wall x CPUs) the host may steal during
#: a round before the round counts as noisy.
STEAL_LIMIT = 0.1


def steal_seconds() -> float | None:
    """Host-wide CPU steal time so far, from /proc/stat (None if unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def run_op(main, args: list[str], out: Path) -> dict:
    argv = [a.replace("{out}", str(out)) for a in args]
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "error": error, "wall": wall, "cpu": cpu}


def run_round(cli, ops: list[dict], out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    gc.collect()
    s0 = steal_seconds()
    t0, c0 = time.perf_counter(), time.process_time()
    results = [run_op(cli.main, op["args"], out) for op in ops]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    steal = None if s0 is None else steal_seconds() - s0
    noisy = steal is not None and steal > STEAL_LIMIT * wall * (os.cpu_count() or 1)
    return {"dir": str(out), "wall": wall, "cpu": cpu, "steal": steal, "noisy": noisy,
            "ops": results}


def measured_rounds(rounds: list[dict]) -> list[dict]:
    """The rounds the metrics come from: the quiet ones, or all if none is."""
    return [r for r in rounds if not r["noisy"]] or rounds


def main() -> int:
    plan_path = Path(sys.argv[1])
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    run_dir = plan_path.parent
    src = Path(plan["src"]).resolve()

    import qeuclid.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"qeuclid imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    for op in plan["warmup"]:
        run_op(cli.main, op["args"], run_dir / "warmup")

    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, plan["ops"], run_dir / f"round-{len(rounds)}"))
        if time.perf_counter() - start + rounds[-1]["wall"] > plan["seconds"]:
            break
    rounds_s = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced = None
    if plan["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_round(cli, plan["ops"], run_dir / "traced")
        finally:
            tracer.uninstall()
        tracer.write(run_dir / "spans.jsonl")
        traced["overhead"] = traced["wall"] - statistics.median(
            r["wall"] for r in measured_rounds(rounds)
        )

    result = {
        "rounds": rounds,
        "traced": traced,
        "peak_rss_kb": peak_rss_kb,
        "rounds_s": rounds_s,
    }
    (run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
