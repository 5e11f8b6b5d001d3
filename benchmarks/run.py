"""Benchmark driver for the spinbath CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/spinbath``. One
worker process runs at a time (a closed loop: each ``cli.main`` call
starts when the previous one has returned). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. A run record (machine, inputs, every call)
and, when tracing, the spans go to ``benchmarks/out/``.

End-to-end metrics, measured with tracing off. The two times are given
at the reference speed of ``calibrate.py``: on a shared machine the CPU
switches between two speeds (up to 1.8x apart) for seconds to minutes,
so each time is scaled by how long a fixed calibration loop took next
to it.

- ``run_s``: wall seconds of one ``cli.main`` call. After a warm-up
  call, the worker times the calibration loop after every half second of
  calls; each block of calls between two such samples gives its mean
  call time scaled by the mean of the two samples, and ``run_s`` is the
  median over the blocks.
- ``setup_s``: median wall seconds from starting a worker to its having
  imported ``spinbath.cli``, over several set-up-only starts before and
  after the measuring worker; each start is scaled by the calibration
  loop timed just before and just after it.
- ``peak_rss_mb``: peak resident memory of the measuring worker.

A call fails when its exit code or output check fails, when its
artifact differs from the first call's, or when a count differs from
the expected one; ``failed`` counts such calls out of ``attempted``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

SETUP_STARTS = 6  # set-up-only worker starts before and again after the measuring workers
MIN_CALLS = 2  # an untraced run compares at least two calls' artifacts byte for byte
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics and their units; benchmarks/README.md says which
# end-to-end metric each should move on which workload. A name ending in
# ".s" is the summed span time of one call, ".self_s" the same minus child
# spans, both averaged over the traced calls. Counts come from the calls'
# arguments and results.
PER_LAYER = [
    ("spectrum.spectral_decomposition.s", "s"),
    ("spectrum.spectral_decomposition.peak_mb", "MB"),
    ("spectrum.terms", "count"),
    ("spectrum.lines", "count"),
    ("spectrum.lines_per_term", "ratio"),
    ("lemma.verdict_from_decomposition.self_s", "s"),
    ("lemma.WeightedPointSet.from_decomposition.s", "s"),
    ("lemma.check_quasi_continuous.s", "s"),
    ("lemma.make_partition.s", "s"),
    ("lemma.check_l1.s", "s"),
    ("lemma.estimate_recurrence_time.s", "s"),
    ("lemma.lemma_sum.s", "s"),
    ("lemma.groups", "count"),
    ("harness.run_predict.self_s", "s"),
    ("harness.run_compare.self_s", "s"),
    ("harness.run_simulate.self_s", "s"),
    ("harness.run_oracle_check.self_s", "s"),
    ("harness.parse_config.s", "s"),
    ("harness.series_to_csv.s", "s"),
    ("harness.write_json.s", "s"),
    ("harness.bytes_written", "count"),
    ("model.generate_random.s", "s"),
    ("model.spins", "count"),
    ("evolution.sample_series.s", "s"),
    ("evolution.factor_evals", "count"),
    ("evolution.factors_per_s", "1/s"),
    ("evolution.expectation_full.s", "s"),
    ("evolution.r_bounds.s", "s"),
    ("spectrum.brute_force_expectation.s", "s"),
    ("spectrum.oracle_states", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]

COUNTS = ("spectrum.terms", "spectrum.lines", "lemma.groups", "model.spins",
          "evolution.factor_evals", "spectrum.oracle_states")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark run exceeded its time limit")
        return remaining


def start_worker(spec: dict, workdir: Path, env: dict, deadline: Deadline) -> tuple[float, dict]:
    """Run one worker to completion; return (set-up seconds, its result)."""
    spec_path = workdir / f"spec-{spec['mode']}.json"
    spec_path.write_text(json.dumps(spec))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), str(spec_path)], cwd=workdir,
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "ready":
            raise RuntimeError(f"worker did not import spinbath (said {ready!r})")
        rest, _ = proc.communicate(timeout=deadline.left())
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else {}


def setup_starts(spec: dict, workdir: Path, env: dict, deadline: Deadline) -> list[float]:
    """Set-up seconds of SETUP_STARTS set-up-only workers, at reference speed."""
    loops = [calibrate.measure()]
    times = []
    for _ in range(SETUP_STARTS):
        times.append(start_worker({**spec, "mode": "setup"}, workdir, env, deadline)[0])
        loops.append(calibrate.measure())
    return [calibrate.at_reference(s, loops[i:i + 2]) for i, s in enumerate(times)]


def machine(env: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "thread_caps": {name: env[name] for name in THREAD_VARS},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_seconds(calls: list[dict], calibration: list[dict]) -> float:
    """Median over calibration blocks of the mean call time, at reference speed."""
    blocks = []
    for before, after in zip(calibration, calibration[1:]):
        times = [c["s"] for c in calls[before["after"]:after["after"]]]
        blocks.append(calibrate.at_reference(statistics.fmean(times), [before["s"], after["s"]]))
    return statistics.median(blocks)


def find_failures(calls: list[dict], expected_counts: dict[str, int]) -> list[str]:
    """One line per failed call: a failed check, a changed artifact or a changed count."""
    failures = []
    first_digest = calls[0]["digest"]
    traced = [c for c in calls if c["traced"]]
    first_counts = traced[0]["counts"] if traced else {}
    for index, c in enumerate(calls):
        if c["problem"]:
            failures.append(f"call {index}: {c['problem']}")
        elif c["digest"] != first_digest:
            failures.append(f"call {index}: artifact differs from call 0")
        elif c["traced"]:
            for name in COUNTS:
                got = c["counts"].get(name, 0)
                want = expected_counts.get(name, first_counts.get(name, 0))
                if got != want:
                    failures.append(f"call {index}: {name} = {got}, expected {want}")
                    break
    return failures


def layer_metrics(calls: list[dict], peak_mb: dict[str, float]) -> dict[str, float]:
    """Per-layer values, as means over the traced calls like run_s."""
    untraced = [c for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"] and "peak" not in c]
    counts = traced[0]["counts"]

    def span(name: str, field: str) -> float:
        return statistics.fmean(c["spans"].get(name, {}).get(field, 0.0) for c in traced)

    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = span(name[: -len(".self_s")], "self_s")
        elif name.endswith(".peak_mb"):
            values[name] = peak_mb.get(name[: -len(".peak_mb")], 0.0)
        elif name.endswith(".s"):
            values[name] = span(name[: -len(".s")], "s")
        elif name in COUNTS:
            values[name] = counts.get(name, 0)
    values["harness.bytes_written"] = traced[0]["bytes"]
    terms = values["spectrum.terms"]
    values["spectrum.lines_per_term"] = values["spectrum.lines"] / terms if terms else 0.0
    busy = values["evolution.sample_series.s"]
    values["evolution.factors_per_s"] = values["evolution.factor_evals"] / busy if busy else 0.0
    values["trace.overhead_s"] = (statistics.fmean(c["s"] for c in traced)
                                  - statistics.fmean(c["s"] for c in untraced))
    return values


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinbath" / "cli.py").is_file():
        print(f"error: no spinbath sources under {SRC}", file=sys.stderr)
        return 2
    deadline = Deadline(TIME_LIMIT_S)
    workload = WORKLOADS[args.workload]
    nproc = str(len(os.sched_getaffinity(0)))
    env = {**os.environ, **{name: nproc for name in THREAD_VARS}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=scratch))
    OUT.mkdir(exist_ok=True)
    try:
        inputs = workload.prepare(args.seed, workdir)
        spec = {**inputs, "workload": args.workload, "src": str(SRC),
                "seconds": args.seconds, "min_calls": MIN_CALLS}
        setup = [] if args.trace else setup_starts(spec, workdir, env, deadline)
        mode = "trace" if args.trace else "run"
        spans_path = str(OUT / f"{tag}-spans.json") if args.trace else None
        _, result = start_worker({**spec, "mode": mode, "spans_path": spans_path},
                                 workdir, env, deadline)
        calls = result["calls"]
        peak_mb: dict[str, float] = {}
        if args.trace:
            _, peak = start_worker({**spec, "mode": "peak"}, workdir, env, deadline)
            peak_mb = peak["peak_mb"]
            calls += [{**c, "peak": True} for c in peak["calls"]]
        else:
            setup += setup_starts(spec, workdir, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it

    failures = find_failures(calls, inputs["counts"])
    if args.trace:
        values = layer_metrics(calls, peak_mb)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {
            "run_s": {"value": run_seconds(calls, result["calibration"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
    summary = {"correct": not failures, "attempted": len(calls), "failed": len(failures),
               "metrics": metrics}
    record = {
        "args": vars(args), "argv": inputs["argv"],
        "machine": {**machine(env), "python": result["python"], "numpy": result["numpy"]},
        "setup_s": setup, "calibration_s": result["calibration"], "failures": failures,
        "calls": [{k: v for k, v in c.items() if k != "spans"} for c in calls],
        "result": summary,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
