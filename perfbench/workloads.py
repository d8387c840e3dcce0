"""The three workloads: which CLI commands one round runs, and their inputs.

A plan is plain data.  Each operation is a ``qeuclid`` argument list in
which ``{out}`` stands for the round's output directory, the exit code it
must return, and what the checks need to know about it.  Every round of a
run repeats the same operations; the seed changes only the generated inputs
(state amplitudes, q and r0 of the pointwise commands) and the sample of
columns the checks recompute, never how many calls any layer makes.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("verify-dense", "verify-sparse", "pointwise")

DENSE_WINDOWS = ("0:0,-8,8", "0:2,-8,8")
DENSE_QS = (1.1, 1.5, 3.0)
SPARSE_WINDOW = "-4:4,-30,30"
TOLERANCE = 1e-12

APPLY_OPS = ("X+", "X-", "Torb+", "Torb-", "K-", "Lambda", "xihat")
SPECTRUM_OPS = ("X3", "xihat", "R2", "Torb3", "t3", "K3")

#: Deformed/classical pairs with a classical limit at the default phase.
#: ``Xplus`` against ``Xplus_cl`` is left out: its fitted slope falls below
#: the band at these scales (see CHANGES.md).
LIMIT_PAIRS = (
    ("Torb3", "L3"),
    ("Torbplus", "Lplus"),
    ("Torbminus", "Lminus"),
    ("X3", "X3_cl"),
    ("Xminus", "Xminus_cl"),
)
#: Wrong-phase controls: at theta = +1 these have no classical limit.
LIMIT_CONTROLS = (("Torbplus", "Lplus"), ("Torbminus", "Lminus"))
LIMIT_MODES = ("-3:3", "-5:5", "-2:4", "-4:2", "-6:6", "-4:4")
LIMIT_SAMPLES = (25, 50, 100)
LIMIT_H = ("0.1,0.05,0.025,0.0125", "0.05,0.025,0.0125,0.00625")


def parse_window(spec: str) -> tuple[int, int, int, int]:
    head, mt_min, k_max = spec.split(",")
    lo, hi = head.split(":")
    return int(lo), int(hi), int(mt_min), int(k_max)


def window_indices(spec: str) -> list[tuple[int, int, int, int]]:
    """Basis of a window in canonical order: sigma=+1 first, then M, mt, m."""
    m_lo, m_hi, mt_min, k_max = parse_window(spec)
    return [
        (M, sigma, mt, m)
        for sigma in (1, -1)
        for M in range(m_lo, m_hi + 1)
        for mt in range(mt_min, 1)
        for m in range(mt, mt + k_max + 1)
    ]


def write_state(path: Path, indices, rng: random.Random) -> None:
    """State file with a nonzero seeded amplitude on every index."""
    lines = ["# M sigma mt m re im"]
    for M, sigma, mt, m in indices:
        mag = rng.uniform(0.1, 1.0)
        re, im = mag * rng.choice((-1.0, 1.0)), rng.uniform(-1.0, 1.0)
        lines.append(f"{M} {sigma:+d} {mt} {m} {re!r} {im!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def verify_op(q: float, window: str, out: str, expect: str, phase: str = "-1") -> dict:
    return {
        "kind": "verify",
        "args": [
            "verify",
            "--q", repr(q),
            f"--window={window}",
            "--theta-phase", phase,
            "--tolerance", repr(TOLERANCE),
            "--output-dir", "{out}/" + out,
        ],
        "rc": 0 if expect == "pass" else 1,
        "q": q,
        "window": window,
        "expect": expect,
        "out": out,
    }


def build(workload: str, seed: int, inputs: Path) -> dict:
    """Warm-up and round operations of one workload for one seed."""
    rng = random.Random(seed)
    if workload == "verify-dense":
        ops = [
            verify_op(q, w, f"verify-{k}", "pass")
            for k, (w, q) in enumerate((w, q) for w in DENSE_WINDOWS for q in DENSE_QS)
        ]
        ops.append(verify_op(1.5, DENSE_WINDOWS[0], "control", "tensor-fails", "+1"))
        warmup = [verify_op(2.0, DENSE_WINDOWS[0], "warmup", "pass")]
        return {"ops": ops, "warmup": warmup, "oracle_seed": rng.randrange(2**32)}
    if workload == "verify-sparse":
        ops = [verify_op(1.5, SPARSE_WINDOW, "verify", "pass")]
        warmup = [verify_op(2.0, DENSE_WINDOWS[0], "warmup", "pass")]
        return {"ops": ops, "warmup": warmup, "oracle_seed": rng.randrange(2**32)}
    if workload == "pointwise":
        return _pointwise(rng, inputs)
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")


def _pointwise(rng: random.Random, inputs: Path) -> dict:
    q = round(rng.uniform(1.2, 2.0), 6)
    r0 = round(rng.uniform(0.5, 2.0), 6)
    state = inputs / "state.txt"
    write_state(state, window_indices(SPARSE_WINDOW), rng)
    small = inputs / "state-small.txt"
    write_state(small, window_indices(DENSE_WINDOWS[0]), rng)
    common = ["--q", repr(q), "--r0", repr(r0)]
    ops: list[dict] = []
    for k, name in enumerate(APPLY_OPS):
        ops.append({
            "kind": "apply",
            "args": ["apply", name, *common, "--input", str(state),
                     "--output", f"{{out}}/apply-{k}.txt"],
            "rc": 0, "op": name, "q": q, "r0": r0,
            "input": str(state), "out": f"apply-{k}.txt",
        })
    for k, name in enumerate(SPECTRUM_OPS):
        ops.append({
            "kind": "spectrum",
            "args": ["spectrum", name, *common, f"--window={SPARSE_WINDOW}",
                     "--output", f"{{out}}/spectrum-{k}.csv"],
            "rc": 0, "op": name, "q": q, "r0": r0,
            "window": SPARSE_WINDOW, "out": f"spectrum-{k}.csv",
        })
    k = 0
    for modes in LIMIT_MODES:
        for samples in LIMIT_SAMPLES:
            for h in LIMIT_H:
                cases = [(d, c, "-1") for d, c in LIMIT_PAIRS]
                cases += [(d, c, "+1") for d, c in LIMIT_CONTROLS]
                for deformed, classical, phase in cases:
                    if phase == "+1":
                        expect = "no-limit"
                    elif deformed == "X3":
                        expect = "zero"
                    else:
                        expect = "converges"
                    ops.append({
                        "kind": "limit",
                        "args": ["limit", deformed, classical, "--theta-phase", phase,
                                 f"--modes={modes}", "--samples", str(samples),
                                 "--h", h, "--output", f"{{out}}/limit-{k}.csv"],
                        "rc": 1 if expect == "no-limit" else 0,
                        "h": [float(x) for x in h.split(",")],
                        "expect": expect, "out": f"limit-{k}.csv",
                    })
                    k += 1
    warmup = [
        {"args": ["apply", "Torb+", *common, "--input", str(small),
                  "--output", "{out}/apply.txt"]},
        {"args": ["spectrum", "X3", *common, "--output", "{out}/spectrum.csv"]},
        {"args": ["limit", "Torb3", "L3", "--output", "{out}/limit.csv"]},
    ]
    return {"ops": ops, "warmup": warmup, "oracle_seed": rng.randrange(2**32)}
