"""Independent checks of every output a workload produces.

Nothing here imports qeuclid.  Amplitudes are recomputed with the
pointwise oracle in ``tests/oracle.py``, eigenvalues with closed forms
written out below, report verdicts from the residuals and tolerances, and
limit slopes by a least-squares fit of the written table.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import re
from pathlib import Path

from workloads import TOLERANCE, parse_window, window_indices

SUITE_IDS = {
    "x_relations": ["x_raise_exchange", "x_lower_exchange", "x_ladder_commutator"],
    "k_relations": ["k_raise", "k_lower", "k_exchange"],
    "adjointness": [
        f"adjoint_{a}_vs_{b}"
        for a, b in (
            ("X3", "X3"), ("Xplus", "Xminus"), ("t3", "t3"), ("tplus", "tminus"),
            ("K3", "K3"), ("Kplus", "Kminus"), ("Torb3", "Torb3"),
            ("Torbplus", "Torbminus"), ("xihat", "xihat"), ("Lambda", "Lambda_inv"),
        )
    ],
    "casimir": ["casimir_radius_squared"],
    "commutant": [
        f"xihat_commutes_{n}"
        for n in ("X3", "Xplus", "Xminus", "t3", "tplus", "tminus", "R2")
    ],
    "homomorphism": ["hopping_from_coordinate_ladder"]
    + [f"{f}_template_{r}" for f in ("t", "torb") for r in ("raise", "lower", "exchange")],
    "tensor": [
        f"tensor_{n}_sector_{s}"
        for n in ("Torb3", "Torbplus", "Torbminus")
        for s in ("plus", "minus")
    ],
    "recursions": [
        "phi_recursion_midpoints",
        "phi_value_at_zero",
        "phi_nonpositive_on_core",
        "j_recursion_midpoints",
    ],
    "lowest_weight": ["lowest_weight_annihilation"],
}

#: Checks that hold exactly, and the recursions' own fixed tolerance.
EXACT_IDS = {"phi_value_at_zero", "phi_nonpositive_on_core", "lowest_weight_annihilation"}
RECURSION_IDS = {"phi_recursion_midpoints", "j_recursion_midpoints"}
RECURSION_TOL = 1e-13

ALIASES = {
    "X+": "Xplus", "X-": "Xminus", "t+": "tplus", "t-": "tminus",
    "K+": "Kplus", "K-": "Kminus", "Torb+": "Torbplus", "Torb-": "Torbminus",
}

AMPLITUDE_RTOL = 1e-12
SLOPE_BAND = (0.8, 1.2)


def load_oracle(root: Path):
    spec = importlib.util.spec_from_file_location("qeuclid_oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def asserted(check_id: str) -> bool:
    """Report-only checks: the ladder templates and the mirror sector."""
    return not (
        check_id.startswith(("t_template_", "torb_template_"))
        or check_id.endswith("_sector_minus")
    )


def _tolerance(check_id: str) -> float:
    if check_id in EXACT_IDS:
        return 0.0
    if check_id in RECURSION_IDS:
        return RECURSION_TOL
    return TOLERANCE


# --- verify --------------------------------------------------------------------

def check_verify(op: dict, out: Path, stdout: str) -> list[str]:
    problems: list[str] = []
    theta = [1.0, 0.0] if op["expect"] == "tensor-fails" else [-1.0, 0.0]
    verdicts: dict[str, bool] = {}
    for suite, ids in SUITE_IDS.items():
        path = out / op["out"] / f"{suite}.json"
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{path.name}: unreadable report ({exc})")
            continue
        where = f"{op['out']}/{suite}"
        want_config = {
            "q": op["q"], "r0": 1.0, "theta_phase": theta,
            "window": op["window"], "tolerance": TOLERANCE,
        }
        if doc.get("suite") != suite or doc.get("config") != want_config:
            problems.append(f"{where}: suite name or config {doc.get('config')} is wrong")
        entries = doc.get("checks", [])
        if [c.get("id") for c in entries] != ids:
            problems.append(f"{where}: check ids {[c.get('id') for c in entries]}")
            continue
        suite_ok = True
        for c in entries:
            res = c.get("residual")
            if not isinstance(res, (int, float)):
                problems.append(f"{where}/{c['id']}: residual {res!r} is not a number")
                continue
            if c.get("window") != op["window"] or c.get("q") != op["q"]:
                problems.append(f"{where}/{c['id']}: window or q is wrong")
            if asserted(c["id"]):
                ok = math.isfinite(res) and res <= _tolerance(c["id"])
                suite_ok = suite_ok and ok
            else:
                ok = True
            if c.get("pass") is not ok:
                problems.append(
                    f"{where}/{c['id']}: reports pass={c.get('pass')} for residual {res!r}"
                )
        if doc.get("pass") is not suite_ok:
            problems.append(f"{where}: reports pass={doc.get('pass')}, residuals say {suite_ok}")
        verdicts[suite] = suite_ok
    if len(verdicts) == len(SUITE_IDS):
        want = {s: not (op["expect"] == "tensor-fails" and s == "tensor") for s in SUITE_IDS}
        for suite in SUITE_IDS:
            if verdicts[suite] != want[suite]:
                problems.append(
                    f"{op['out']}/{suite}: verdict {verdicts[suite]}, expected {want[suite]}"
                )
    last = stdout.strip().splitlines()[-1:] or [""]
    summary = "all suites pass" if op["expect"] == "pass" else "FAILURES detected"
    if not last[0].startswith(f"verify: {summary}"):
        problems.append(f"{op['out']}: summary line {last[0]!r}")
    return problems


def _word_image(oracle, word, idx, q):
    """Oracle image of one basis vector under a word (rightmost letter first)."""
    cur = {idx: 1.0 + 0.0j}
    for name in reversed(word):
        nxt: dict = {}
        for src, amp in cur.items():
            for tgt, c in oracle.oracle_action(name, src, q).items():
                nxt[tgt] = nxt.get(tgt, 0.0) + amp * c
        cur = nxt
    return cur


def _identities(q: float):
    lam = q - 1.0 / q
    return {
        "x_raise_exchange": ([(1.0, ("X3", "Xplus"))], [(q**2, ("Xplus", "X3"))]),
        "x_lower_exchange": ([(1.0, ("X3", "Xminus"))], [(q**-2, ("Xminus", "X3"))]),
        "x_ladder_commutator": (
            [(1.0, ("Xminus", "Xplus")), (-1.0, ("Xplus", "Xminus"))],
            [(lam, ("X3", "X3"))],
        ),
        "casimir_radius_squared": (
            [(1.0, ("X3", "X3")), (-q, ("Xplus", "Xminus")), (-1.0 / q, ("Xminus", "Xplus"))],
            [(1.0, ("R2",))],
        ),
    }


def identity_problems(oracle, window: str, q: float, seed: int, n: int = 48) -> list[str]:
    """x_relations and casimir recomputed with the oracle on sampled columns.

    Columns are drawn from states at least two polar levels inside the
    window, where no word prefix leaves it.  The two sides of a commutator
    cancel almost completely on deep polar levels, so each column's residual
    is taken relative to the summed magnitudes of its terms, the scale of
    the rounding error; a wrong coefficient or shift still shows at O(1).
    """
    _, _, mt_min, _ = parse_window(window)
    interior = [i for i in window_indices(window) if mt_min + 2 <= i[2] <= -2]
    cols = random.Random(seed).sample(interior, min(n, len(interior)))
    problems = []
    for rel, (lhs, rhs) in _identities(q).items():
        worst = 0.0
        for idx in cols:
            diff: dict = {}
            scale = 0.0
            for sign, terms in ((1.0, lhs), (-1.0, rhs)):
                for coeff, word in terms:
                    image = _word_image(oracle, word, idx, q)
                    scale += abs(coeff) * math.sqrt(sum(abs(a) ** 2 for a in image.values()))
                    for tgt, a in image.items():
                        diff[tgt] = diff.get(tgt, 0.0) + sign * coeff * a
            norm = math.sqrt(sum(abs(v) ** 2 for v in diff.values()))
            worst = max(worst, norm / max(1.0, scale))
        if not worst <= TOLERANCE:
            problems.append(f"oracle: {rel} at q={q} has residual {worst:.3e} on sampled columns")
    return problems


# --- apply ---------------------------------------------------------------------

def _canonical(idx) -> tuple:
    M, sigma, mt, m = idx
    return (0 if sigma > 0 else 1, M, mt, m)


def read_state(path: Path) -> list[tuple[tuple[int, int, int, int], complex]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        M, sigma, mt, m, re_, im = line.split()
        rows.append(((int(M), int(sigma), int(mt), int(m)), complex(float(re_), float(im))))
    return rows


def expected_apply(oracle, op: dict, state) -> tuple[dict, dict]:
    """Oracle image of a state, with the magnitude sum behind each amplitude."""
    name = ALIASES.get(op["op"], op["op"])
    image: dict = {}
    scale: dict = {}
    for idx, amp in state:
        for tgt, c in oracle.oracle_action(name, idx, op["q"], op["r0"]).items():
            image[tgt] = image.get(tgt, 0.0) + amp * c
            scale[tgt] = scale.get(tgt, 0.0) + abs(amp * c)
    return image, scale


def check_apply(op: dict, out: Path, expected: tuple[dict, dict]) -> list[str]:
    image, scale = expected
    try:
        got = read_state(out / op["out"])
    except (OSError, ValueError) as exc:
        return [f"{op['out']}: unreadable state ({exc})"]
    problems = []
    keys = [_canonical(idx) for idx, _ in got]
    if keys != sorted(set(keys)) or len(keys) != len(got):
        problems.append(f"{op['out']}: amplitudes not in canonical order or repeated")
    seen = dict(got)
    for tgt in set(seen) | set(image):
        a, b = seen.get(tgt, 0.0), image.get(tgt, 0.0)
        if not abs(a - b) <= AMPLITUDE_RTOL * scale.get(tgt, 0.0):
            problems.append(f"{op['out']}: {op['op']} amplitude at {tgt} is {a}, oracle {b}")
            if len(problems) > 5:
                break
    return problems


# --- spectrum ------------------------------------------------------------------

def eigenvalue(name: str, idx, q: float, r0: float) -> float:
    M, sigma, mt, m = idx
    lam = q - 1.0 / q
    r = r0 * q ** (4 * M + 2)
    if name == "X3":
        return r * sigma * q ** (2 * mt - 1)
    if name == "xihat":
        return sigma * q ** (2 * (mt - m) - 1)
    if name == "R2":
        return r * r
    if name == "Torb3":
        return (1.0 - q ** (-4 * m)) / lam
    if name == "t3":
        return (1.0 + q ** (2 - 4 * mt)) / lam
    if name == "K3":
        return (1.0 + q ** (-4 * (m - mt) - 2)) / lam
    raise KeyError(name)


def check_spectrum(op: dict, out: Path) -> list[str]:
    try:
        lines = (out / op["out"]).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{op['out']}: unreadable table ({exc})"]
    order = window_indices(op["window"])
    if not lines or lines[0] != "M,sigma,mt,m,eigenvalue" or len(lines) != len(order) + 1:
        return [f"{op['out']}: header or row count is wrong ({len(lines)} lines)"]
    problems = []
    for line, idx in zip(lines[1:], order):
        parts = line.split(",")
        try:
            row = tuple(int(x) for x in parts[:4])
            value = float(parts[4])
        except (ValueError, IndexError):
            problems.append(f"{op['out']}: bad row {line!r}")
            break
        want = eigenvalue(op["op"], idx, op["q"], op["r0"])
        if row != idx or not abs(value - want) <= AMPLITUDE_RTOL * abs(want):
            problems.append(f"{op['out']}: {op['op']} row {line!r}, closed form {idx} {want!r}")
            if len(problems) > 5:
                break
    return problems


# --- limit ---------------------------------------------------------------------

def fit_slope(hs: list[float], errs: list[float]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    xs, ys = [math.log(h) for h in hs], [math.log(e) for e in errs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def check_limit(op: dict, out: Path, stdout: str) -> list[str]:
    where = op["out"]
    try:
        lines = (out / where).read_text(encoding="utf-8").splitlines()
        rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    except (OSError, ValueError) as exc:
        return [f"{where}: unreadable table ({exc})"]
    if not lines or lines[0] != "h,error,slope" or [r[0] for r in rows] != op["h"]:
        return [f"{where}: header or h column is wrong"]
    hs, errs = [r[0] for r in rows], [r[1] for r in rows]
    if not all(math.isfinite(e) and e >= 0.0 for e in errs):
        return [f"{where}: errors {errs} are not finite and nonnegative"]
    problems = []
    if op["expect"] == "zero":
        if any(e != 0.0 for e in errs) or "error identically zero" not in stdout:
            problems.append(f"{where}: expected an error of exactly zero, got {errs}")
        return problems
    for (h0, e0, _), (h1, e1, s1) in zip(rows, rows[1:]):
        pair = math.log(e1 / e0) / math.log(h1 / h0)
        if not abs(pair - s1) <= 1e-9 * max(1.0, abs(pair)):
            problems.append(f"{where}: pairwise slope {s1!r} at h={h1}, recomputed {pair!r}")
    slope = fit_slope(hs, errs)
    printed = re.search(r"fitted log-log slope (-?\d+\.\d+)", stdout)
    if printed is None or abs(float(printed.group(1)) - slope) > 6e-5:
        problems.append(f"{where}: printed slope does not match the fit {slope:.6f}")
    if op["expect"] == "converges":
        lo, hi = SLOPE_BAND
        if not lo <= slope <= hi:
            problems.append(f"{where}: fitted slope {slope:.4f} outside [{lo}, {hi}]")
        if not all(a > b for a, b in zip(errs, errs[1:])):
            problems.append(f"{where}: errors {errs} do not decrease")
    else:
        if "no classical limit" not in stdout or not slope < 0.0:
            problems.append(f"{where}: control did not report a missing limit (slope {slope:.4f})")
    return problems
