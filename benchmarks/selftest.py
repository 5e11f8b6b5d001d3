"""Show that every benchmark check can fail.

    python3 benchmarks/selftest.py

Runs each workload once through ``spinbath.cli.main`` at the default
seed, confirms its check accepts the real artifact, then corrupts the
artifact in several ways and confirms the check rejects each. It also
checks the determinism and count comparisons of ``run.py``, and that
``BENCHMARK.json`` names exactly the workloads and metrics the code emits.
Exits 1 if anything is accepted that should not be.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable

import calibrate
from run import COUNTS, PER_LAYER, ROOT, SRC, find_failures, run_seconds
from workloads import DEFAULT_SEED, WORKLOADS, Outcome

sys.path.insert(0, str(SRC))

import spinbath.cli as cli  # noqa: E402

Corruption = Callable[[Outcome, dict], Outcome]


def with_json(edit: Callable[[dict], None]) -> Corruption:
    def corrupt(outcome: Outcome, params: dict) -> Outcome:
        payload = json.loads(outcome.artifact)
        edit(payload)
        return replace(outcome, artifact=json.dumps(payload).encode())
    return corrupt


def with_csv_cell(row: Callable[[dict], int], column: int, value: Callable[[float], float]) -> Corruption:
    def corrupt(outcome: Outcome, params: dict) -> Outcome:
        lines = outcome.artifact.decode().splitlines()
        k = row(params) + 1
        cells = lines[k].split(",")
        cells[column] = repr(value(float(cells[column])))
        lines[k] = ",".join(cells)
        return replace(outcome, artifact=("\n".join(lines) + "\n").encode())
    return corrupt


def exit_code(code: int) -> Corruption:
    return lambda outcome, params: replace(outcome, exit_code=code)


def no_artifact(outcome: Outcome, params: dict) -> Outcome:
    return replace(outcome, artifact=None)


def unchecked_row(params: dict) -> int:
    return next(k for k in range(1, 2000) if k not in params["rows"])


CORRUPTIONS: dict[str, dict[str, Corruption]] = {
    "predict-random-n16": {
        "exit code 1": exit_code(1),
        "no file": no_artifact,
        "n_points - 1": with_json(lambda p: p.update(n_points=p["n_points"] - 1)),
        "weights sum off by 1e-11": with_json(
            lambda p: p.update(sum_of_weights=p["sum_of_weights"] + 1e-11)),
        "qc_gap_cv off by 1e-8": with_json(lambda p: p.update(qc_gap_cv=p["qc_gap_cv"] * (1 + 1e-8))),
        "l1_max_weight off by 1e-8": with_json(
            lambda p: p.update(l1_max_weight=p["l1_max_weight"] * (1 - 1e-8))),
        "verdict flipped": with_json(lambda p: p.update(verdict="decoheres")),
        "degenerate flag flipped": with_json(
            lambda p: p.update(has_degenerate_lines=not p["has_degenerate_lines"])),
        "field dropped": with_json(lambda p: p.pop("qc_ks_stat")),
        "not JSON": lambda o, p: replace(o, artifact=b"{"),
    },
    "compare-equal-n20": {
        "exit code 1": exit_code(1),
        "no file": no_artifact,
        "tension": with_json(lambda p: p["agreement"].update(status="tension")),
        "22 lines": with_json(lambda p: p["prediction"].update(n_points=22)),
        "period off by 1e-8": with_json(
            lambda p: p["prediction"].update(recurrence_time=p["prediction"]["recurrence_time"] + 1e-8)),
        "no period": with_json(
            lambda p: p["prediction"].update(recurrence_time="effectively_infinite")),
    },
    "simulate-n5000": {
        "exit code 1": exit_code(1),
        "no file": no_artifact,
        "checked re_r off by 1e-11": with_csv_cell(lambda p: p["rows"][2], 1, lambda x: x + 1e-11),
        "checked im_r off by 1e-11": with_csv_cell(lambda p: p["rows"][3], 2, lambda x: x - 1e-11),
        "checked expectation off by 1e-11": with_csv_cell(
            lambda p: p["rows"][1], 4, lambda x: x + 1e-11),
        "first t shifted": with_csv_cell(lambda p: 0, 0, lambda x: x + 1e-6),
        "unchecked r_sq above 1": with_csv_cell(unchecked_row, 3, lambda x: 1.0 + 1e-15),
        "last row dropped": lambda o, p: replace(
            o, artifact=o.artifact[: o.artifact.rstrip(b"\n").rfind(b"\n") + 1]),
        "header renamed": lambda o, p: replace(o, artifact=o.artifact.replace(b"r_sq", b"rsq", 1)),
    },
    "oracle-n12": {
        "exit code 1": exit_code(1),
        "wrong case count": lambda o, p: replace(o, stdout=o.stdout.replace("1000 cases", "999 cases")),
    },
}


def run_once(name: str, workdir: Path) -> tuple[Outcome, dict]:
    params = WORKLOADS[name].prepare(DEFAULT_SEED, workdir)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(params["argv"]))
    finally:
        os.chdir(cwd)
    artifact = (workdir / params["artifact"]).read_bytes() if params["artifact"] else None
    return Outcome(code, out.getvalue(), artifact), params


def main() -> int:
    bad: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            bad.append(what)

    for name, corruptions in CORRUPTIONS.items():
        with tempfile.TemporaryDirectory() as tmp:
            outcome, params = run_once(name, Path(tmp))
        problem = WORKLOADS[name].check(outcome, params)
        expect(problem is None, f"{name}: real artifact accepted ({problem})")
        for label, corrupt in corruptions.items():
            try:
                problem = WORKLOADS[name].check(corrupt(outcome, params), params)
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                problem = f"unreadable output: {exc!r}"
            expect(problem is not None, f"{name}: {label} rejected ({problem})")

    counts = dict.fromkeys(COUNTS, 1)
    call = {"problem": None, "digest": "a", "traced": True, "counts": counts, "bytes": 1}
    expect(not find_failures([call, dict(call)], {}), "identical calls pass")
    expect(len(find_failures([call, {**call, "digest": "b"}], {})) == 1,
           "a changed artifact is a failed call")
    expect(len(find_failures([call, {**call, "counts": {**counts, "lemma.groups": 2}}], {})) == 1,
           "a changed count is a failed call")
    expect(len(find_failures([call], {"spectrum.terms": 2})) == 1,
           "a count off its expected value is a failed call")

    ref = calibrate.REFERENCE_S
    timed = [{"s": 9.0}] + [{"s": s} for s in (1.0, 1.0, 3.0, 4.0, 4.0)]  # call 0 is the warm-up
    samples = [{"after": 1, "s": ref}, {"after": 3, "s": ref}, {"after": 4, "s": 2 * ref},
               {"after": 6, "s": 2 * ref}]
    expect(abs(run_seconds(timed, samples) - 2.0) < 1e-12,
           "run_s scales each block by its calibration samples and skips the warm-up")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in declared["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the workloads run.py knows")
    expect({m["name"]: m["unit"] for m in declared["per_layer"]}
           == dict(PER_LAYER),
           "BENCHMARK.json per_layer matches the traced metrics")
    expect({m["name"] for m in declared["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"},
           "BENCHMARK.json end_to_end matches the untraced metrics")

    print(f"{len(bad)} check(s) misbehaved" if bad else "every check can fail")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
