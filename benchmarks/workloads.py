"""The four benchmark workloads: inputs made from a seed, and output checks.

Each workload turns a benchmark seed into the argv (and config file) that
``spinbath.cli.main`` receives, and owns the checks on what that call
produced. The checks use only the standard library and numpy, never
spinbath, so a defect in the code being measured cannot hide itself.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

DEFAULT_SEED = 1
HELD_OUT_SEED = 9  # keep out of tuning; confirm a claimed gain on it

# predict-random-n16 is checked against diagnostics recorded for a fixed
# pool of models; the benchmark seed picks one of them.
PREDICT_N = 16
PREDICT_POOL = 16
REFERENCE_FILE = Path(__file__).with_name("reference") / "predict_random_n16.json"

SIMULATE_N = 5000
SIMULATE_STEPS = 2000
SIMULATE_OBSERVABLE = {"s_uu": 1.0, "s_dd": -1.0, "s_du": [0.5, 0.25]}

ORACLE_N_MAX = 12
ORACLE_CASES = 1000

CSV_HEADER = "t,re_r,im_r,r_sq,expectation"


@dataclass(frozen=True)
class Outcome:
    """What one ``cli.main`` call left behind, as the checks see it."""

    exit_code: int
    stdout: str
    artifact: bytes | None  # the output file, None when none was written


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], dict[str, Any]]
    check: Callable[[Outcome, dict[str, Any]], str | None]


def model_seed(workload: str, seed: int) -> int:
    """The model seed the program sees, derived from the benchmark seed."""
    return random.Random(f"{workload}:{seed}").randrange(2**31)


def _load_json(outcome: Outcome) -> dict[str, Any]:
    if outcome.artifact is None:
        raise ValueError("no output file written")
    return json.loads(outcome.artifact)


# ---------------------------------------------------------------------------
# predict-random-n16
# ---------------------------------------------------------------------------

def prepare_predict(seed: int, workdir: Path) -> dict[str, Any]:
    ms = model_seed("predict-random-n16", seed % PREDICT_POOL)
    return {
        "argv": ["predict", "--n", str(PREDICT_N), "--seed", str(ms), "--output", "artifact.json"],
        "artifact": "artifact.json",
        "reference": json.loads(REFERENCE_FILE.read_text())[str(ms)],
        "counts": {
            "spectrum.terms": 2**PREDICT_N, "spectrum.lines": 2**PREDICT_N,
            "lemma.groups": 2 ** (PREDICT_N // 2), "model.spins": PREDICT_N,
            "evolution.factor_evals": 0, "spectrum.oracle_states": 0,
        },
    }


def _same(got: Any, want: Any) -> bool:
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0)
    return type(got) is type(want) and got == want


def check_predict(outcome: Outcome, params: dict[str, Any]) -> str | None:
    if outcome.exit_code != 0:
        return f"exit code {outcome.exit_code}"
    payload = _load_json(outcome)
    if payload.get("n_points") != 2**PREDICT_N:
        return f"n_points {payload.get('n_points')} != 2^{PREDICT_N}"
    if abs(payload["sum_of_weights"] - 1.0) > 1e-12:
        return f"sum_of_weights {payload['sum_of_weights']!r} not within 1e-12 of 1"
    reference = params["reference"]
    if set(payload) != set(reference):
        return f"fields {sorted(payload)} != reference {sorted(reference)}"
    for key, want in reference.items():
        if not _same(payload[key], want):
            return f"{key} = {payload[key]!r}, reference {want!r}"
    return None


# ---------------------------------------------------------------------------
# compare-equal-n20
# ---------------------------------------------------------------------------

def prepare_compare(seed: int, workdir: Path) -> dict[str, Any]:
    ms = model_seed("compare-equal-n20", seed)
    return {
        "argv": ["compare", "--n", "20", "--seed", str(ms), "--equal-coupling", "0.5",
                 "--output", "artifact.json"],
        "artifact": "artifact.json",
        "counts": {
            "spectrum.terms": 2**20, "spectrum.lines": 21, "lemma.groups": 5,
            "model.spins": 20, "evolution.factor_evals": 20 * 2000,
            "spectrum.oracle_states": 0,
        },
    }


def check_compare(outcome: Outcome, params: dict[str, Any]) -> str | None:
    if outcome.exit_code != 0:
        return f"exit code {outcome.exit_code}"
    payload = _load_json(outcome)
    status = payload["agreement"]["status"]
    if status != "consistent":
        return f"agreement status {status!r}"
    prediction = payload["prediction"]
    if prediction["n_points"] != 21:
        return f"n_points {prediction['n_points']} != 21"
    # Equal couplings g = 0.5 put the lines 2g = 1 apart: period 2 pi.
    tp = prediction["recurrence_time"]
    if not isinstance(tp, float) or abs(tp - 2.0 * math.pi) > 1e-9:
        return f"recurrence_time {tp!r} not within 1e-9 of 2 pi"
    return None


# ---------------------------------------------------------------------------
# simulate-n5000
# ---------------------------------------------------------------------------

def prepare_simulate(seed: int, workdir: Path) -> dict[str, Any]:
    ms = model_seed("simulate-n5000", seed)
    config = {
        "model": {"random": {"n": SIMULATE_N, "seed": ms}},
        "grid": {"steps": SIMULATE_STEPS},
        "observable": SIMULATE_OBSERVABLE,
        "output": {"path": "artifact.csv", "format": "csv"},
    }
    (workdir / "config.json").write_text(json.dumps(config))
    # r(t) of 5000 spins falls below the float range after ~40 of the 2000
    # rows, so most checked rows come from that early stretch.
    picker = random.Random(f"simulate-n5000:rows:{seed}")
    rows = sorted({0, SIMULATE_STEPS - 1, *picker.sample(range(1, 40), 4),
                   *picker.sample(range(40, SIMULATE_STEPS - 1), 2)})
    return {
        "argv": ["simulate", "--config", "config.json"],
        "artifact": "artifact.csv",
        "model_seed": ms,
        "rows": rows,
        "counts": {
            "spectrum.terms": 0, "spectrum.lines": 0, "lemma.groups": 0,
            "model.spins": SIMULATE_N, "evolution.factor_evals": SIMULATE_N * SIMULATE_STEPS,
            "spectrum.oracle_states": 0,
        },
    }


def reference_bath(n: int, seed: int) -> tuple[list[float], list[float], list[float]]:
    """(|alpha|^2, |beta|^2, g) per spin, by the documented draw protocol.

    numpy PCG64 seeded with ``seed``; per spin one variate u gives the
    amplitudes sqrt(u) and sqrt(1 - u), then one variate v gives the
    coupling g = 1 - v (zero phases, uniform couplings with g_max 1).
    """
    draws = np.random.default_rng(seed).random(2 * n).reshape(n, 2)
    a2, b2, g = [], [], []
    for u, v in draws.tolist():
        amp_a, amp_b = math.sqrt(u), math.sqrt(1.0 - u)
        a2.append(amp_a * amp_a)
        b2.append(amp_b * amp_b)
        g.append(1.0 - v)
    return a2, b2, g


def reference_row(a2: list[float], b2: list[float], g: list[float], t: float) -> tuple[complex, float]:
    """r(t) as a plain product over spins, and the observable's expectation."""
    r = 1.0 + 0.0j
    for a2_i, b2_i, g_i in zip(a2, b2, g):
        r *= a2_i * cmath.exp(-1j * g_i * t) + b2_i * cmath.exp(1j * g_i * t)
    half = math.sqrt(0.5) ** 2  # balanced system qubit a = b = sqrt(1/2)
    obs = SIMULATE_OBSERVABLE
    s_du = complex(*obs["s_du"])
    expectation = half * obs["s_uu"] + half * obs["s_dd"] + 2.0 * (half * s_du * r).real
    return r, expectation


def check_simulate(outcome: Outcome, params: dict[str, Any]) -> str | None:
    if outcome.exit_code != 0:
        return f"exit code {outcome.exit_code}"
    if outcome.artifact is None:
        return "no output file written"
    lines = outcome.artifact.decode().splitlines()
    if lines[0] != CSV_HEADER or len(lines) != SIMULATE_STEPS + 1:
        return f"header {lines[0]!r} with {len(lines) - 1} rows"
    table = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    bad = [k for k, row in enumerate(table) if not 0.0 <= row[3] <= 1.0]
    if bad:
        return f"r_sq outside [0, 1] at row {bad[0]}: {table[bad[0]][3]!r}"
    a2, b2, g = reference_bath(SIMULATE_N, params["model_seed"])
    t_end = 20.0 / (sum(g) / SIMULATE_N)  # the documented default horizon
    for k in params["rows"]:
        t, re_r, im_r, r_sq, expectation = table[k]
        t_want = t_end * k / (SIMULATE_STEPS - 1)
        if not math.isclose(t, t_want, rel_tol=1e-12, abs_tol=1e-12):
            return f"row {k}: t = {t!r}, expected {t_want!r}"
        r, e = reference_row(a2, b2, g, t)
        for what, got, want in (("re_r", re_r, r.real), ("im_r", im_r, r.imag),
                                ("r_sq", r_sq, abs(r) ** 2), ("expectation", expectation, e)):
            if abs(got - want) > 1e-12:
                return f"row {k}: {what} = {got!r}, plain product gives {want!r}"
    return None


# ---------------------------------------------------------------------------
# oracle-n12
# ---------------------------------------------------------------------------

def prepare_oracle(seed: int, workdir: Path) -> dict[str, Any]:
    ms = model_seed("oracle-n12", seed)
    return {
        "argv": ["oracle-check", "--n-max", str(ORACLE_N_MAX), "--cases", str(ORACLE_CASES),
                 "--seed", str(ms)],
        "artifact": None,
        "counts": {"spectrum.terms": 0, "spectrum.lines": 0, "lemma.groups": 0,
                   "evolution.factor_evals": 0},
    }


def check_oracle(outcome: Outcome, params: dict[str, Any]) -> str | None:
    if outcome.exit_code != 0:
        return f"exit code {outcome.exit_code}"
    if not outcome.stdout.startswith(f"oracle check: {ORACLE_CASES} cases"):
        return f"unexpected summary {outcome.stdout.strip()!r}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("predict-random-n16", prepare_predict, check_predict),
        Workload("compare-equal-n20", prepare_compare, check_compare),
        Workload("simulate-n5000", prepare_simulate, check_simulate),
        Workload("oracle-n12", prepare_oracle, check_oracle),
    )
}
