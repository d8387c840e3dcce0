"""qeuclid benchmark: run one workload, check every output, print metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-dense --seed 1 --seconds 20 --trace 0

A run has three phases.

1. Set-up: import ``qeuclid.cli`` (with numpy and scipy) in fresh
   processes, one discarded, then ``SETUP_SAMPLES`` timed before the rounds
   and as many after them; ``setup_s`` is the median of the timed ones.
2. Rounds: a worker process (``worker.py``) imports the CLI, runs a
   warm-up, then repeats the workload's operations through
   ``qeuclid.cli.main`` in whole rounds for about ``--seconds`` seconds.
   ``wall_s`` and ``cpu_s`` are per-round medians over the rounds the host
   did not disturb (see ``worker.STEAL_LIMIT``), ``peak_rss_mb`` the
   worker's peak resident set.  With ``--trace 1`` one more round runs
   under the span instrument (``tracer.py``) and the per-layer metrics
   come from that round instead.
3. Checks: every output of the first round is checked independently
   (``checks.py``) and later rounds must reproduce it byte for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries run
details such as the host's CPU steal time during the rounds.  An operation
*fails* when it raises or returns another exit code than the one it must
(a negative control must exit 1); ``correct`` says whether the outputs of
the operations that did not fail pass their checks.  Run files go to
``perfbench/runs/`` and are overwritten by the next run with the same
workload, seed and trace flag.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

#: Timed imports before and after the rounds (plus one discarded first);
#: spreading them over the run evens out slow drifts in host load.
SETUP_SAMPLES = 3
#: Seconds after start by which the worker must have ended, leaving room
#: for the last imports and the checks within the 180 s a run may take.
WORKER_DEADLINE_S = 150.0

SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import qeuclid.cli\n"
    "t = time.perf_counter() - t\n"
    "print(qeuclid.cli.__file__)\n"
    "print(repr(t))\n"
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict[str, str], discard: bool) -> list[float]:
    """Import times of qeuclid.cli in fresh processes.

    With ``discard`` an extra first import runs untimed: in a fresh
    checkout it compiles the bytecode.
    """
    samples = []
    for k in range(SETUP_SAMPLES + discard):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing qeuclid.cli failed:\n{proc.stderr}")
        path, seconds = proc.stdout.split()
        if Path(path).resolve().parent.parent != (ROOT / "src").resolve():
            raise BenchError(f"qeuclid imported from {path}, not from the checkout")
        if k or not discard:
            samples.append(float(seconds))
    return samples


def run_worker(plan_path: Path, env: dict[str, str], timeout: float) -> dict:
    log = plan_path.parent / "worker.log"
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path)],
            env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker exceeded {timeout:.0f} s")
    if code != 0:
        raise BenchError(f"worker exited {code}:\n{log.read_text(encoding='utf-8')[-2000:]}")
    return json.loads((plan_path.parent / "result.json").read_text(encoding="utf-8"))


def failed_op(op: dict, res: dict) -> bool:
    return res["error"] is not None or res["rc"] != op["rc"]


def check_round(plan: dict, rnd: dict, oracle) -> list[str]:
    """Independent checks of every operation that did not fail."""
    out = Path(rnd["dir"])
    problems: list[str] = []
    identities_done: set = set()
    apply_cache: dict = {}
    for op, res in zip(plan["ops"], rnd["ops"]):
        if failed_op(op, res):
            continue
        kind = op["kind"]
        if kind == "verify":
            problems += checks.check_verify(op, out, res["stdout"])
            key = (op["window"], op["q"])
            if op["expect"] == "pass" and key not in identities_done:
                identities_done.add(key)
                problems += checks.identity_problems(
                    oracle, op["window"], op["q"], plan["oracle_seed"]
                )
        elif kind == "apply":
            if op["input"] not in apply_cache:
                apply_cache[op["input"]] = checks.read_state(Path(op["input"]))
            expected = checks.expected_apply(oracle, op, apply_cache[op["input"]])
            problems += checks.check_apply(op, out, expected)
        elif kind == "spectrum":
            problems += checks.check_spectrum(op, out)
        elif kind == "limit":
            problems += checks.check_limit(op, out, res["stdout"])
    return problems


def same_outputs(first: Path, other: Path) -> list[str]:
    """Files of a later round must equal the checked first round byte for byte."""
    problems = []
    for path in sorted(p for p in first.rglob("*") if p.is_file()):
        twin = other / path.relative_to(first)
        if not twin.is_file() or twin.read_bytes() != path.read_bytes():
            problems.append(f"{twin.relative_to(other.parent)} differs from the checked round")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    for needed in (ROOT / "src" / "qeuclid" / "cli.py", ROOT / "tests" / "oracle.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a qeuclid checkout",
                  file=sys.stderr)
            return 2

    run_dir = HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    plan = workloads.build(args.workload, args.seed, run_dir / "inputs")
    plan.update(src=str(ROOT / "src"), seconds=args.seconds, trace=args.trace)
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")

    env = child_env()
    try:
        setup = measure_setup(env, discard=True)
        timeout = WORKER_DEADLINE_S - (time.perf_counter() - started)
        result = run_worker(plan_path, env, timeout)
        setup += measure_setup(env, discard=False)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    check_start = time.perf_counter()
    oracle = checks.load_oracle(ROOT)
    rounds = result["rounds"] + ([result["traced"]] if result["traced"] else [])
    attempted = len(plan["ops"]) * len(rounds)
    failed = sum(failed_op(op, res) for rnd in rounds for op, res in zip(plan["ops"], rnd["ops"]))
    problems = check_round(plan, rounds[0], oracle)
    for rnd in rounds[1:]:
        problems += same_outputs(Path(rounds[0]["dir"]), Path(rnd["dir"]))

    if args.trace:
        layers = tracer.layer_metrics(run_dir / "spans.jsonl", result["traced"]["overhead"])
        units = dict(tracer.metric_names())
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        measured = worker.measured_rounds(result["rounds"])
        walls = [r["wall"] for r in measured]
        cpus = [r["cpu"] for r in measured]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }

    failures = [
        {"round": k, "args": op["args"], "rc": res["rc"], "error": res["error"]}
        for k, rnd in enumerate(rounds)
        for op, res in zip(plan["ops"], rnd["ops"])
        if failed_op(op, res)
    ]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(result["rounds"]),
        "round_wall_s": [r["wall"] for r in result["rounds"]],
        "round_cpu_s": [r["cpu"] for r in result["rounds"]],
        "round_steal_s": [r["steal"] for r in result["rounds"]],
        "noisy_rounds": sum(r["noisy"] for r in result["rounds"]),
        "setup_samples_s": setup,
        "rounds_s": result["rounds_s"],
        "check_s": time.perf_counter() - check_start,
        "failures": failures[:5],
        "problems": problems[:20],
        "run_s": time.perf_counter() - started,
    }
    (run_dir / "run.json").write_text(json.dumps(info, indent=1), encoding="utf-8")
    for rnd in rounds:
        shutil.rmtree(rnd["dir"], ignore_errors=True)
    shutil.rmtree(run_dir / "warmup", ignore_errors=True)

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
