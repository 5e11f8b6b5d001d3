"""One benchmark worker: import spinbath once, then call its CLI in a closed loop.

Started by ``run.py`` as ``python3 worker.py SPEC.json`` with the run's
scratch directory as working directory. It prints ``ready`` as soon as
``spinbath.cli`` is imported (the driver times set-up up to that line),
then does the pass named by the spec's ``mode`` and prints one JSON line:

- ``setup``: nothing more;
- ``run``: one warm-up call, then untraced calls for ``seconds`` (at
  least ``min_calls``), with the calibration loop timed before the first
  of them, after every ``CALIBRATE_EVERY_S`` of calls and after the last;
- ``trace``: untraced calls for half of ``seconds``, then the same with
  spans installed (at least one call each);
- ``peak``: one call with spans (for counts) and an RSS probe on
  ``spectrum.spectral_decomposition``.

Every call is checked right after it returns, outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

CALIBRATE_EVERY_S = 0.5


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    import spinbath.cli as cli

    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0

    import numpy

    import calibrate
    import spans
    from workloads import WORKLOADS, Outcome

    check = WORKLOADS[spec["workload"]].check
    artifact = Path(spec["artifact"]) if spec["artifact"] else None
    calls: list[dict] = []
    calibration: list[dict] = []  # {"after": calls made so far, "s": loop seconds}

    def sample() -> None:
        calibration.append({"after": len(calls), "s": calibrate.measure()})

    def call(tracer: spans.Tracer | None = None) -> None:
        index = len(calls)
        if artifact is not None:
            artifact.unlink(missing_ok=True)
        if tracer is not None:
            tracer.start_invocation(index)
        gc.collect()
        out = io.StringIO()
        start = time.perf_counter()
        crash = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(spec["argv"]))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed call, not the end of the run
            code, crash = -1, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        written = artifact.read_bytes() if artifact is not None and artifact.exists() else None
        outcome = Outcome(code, out.getvalue(), written)
        try:
            problem = crash or check(outcome, spec)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            problem = f"unreadable output: {exc!r}"
        digest = hashlib.sha256((written or b"") + b"\0" + outcome.stdout.encode()).hexdigest()
        record = {"s": elapsed, "traced": tracer is not None, "problem": problem,
                  "digest": digest, "bytes": len(written or b"")}
        if tracer is not None:
            record["spans"] = tracer.totals(index)
            record["counts"] = dict(tracer.counts)
        calls.append(record)

    def loop(seconds: float, min_calls: int, tracer: spans.Tracer | None = None,
             calibrated: bool = False) -> None:
        deadline = time.perf_counter() + seconds
        done = 0
        since = 0.0  # call seconds since the calibration loop last ran
        if calibrated:
            call(tracer)  # warm-up: checked, but in no calibration block
            calibrate.loop()
            sample()
        while done < min_calls or time.perf_counter() < deadline:
            call(tracer)
            done += 1
            since += calls[-1]["s"]
            if calibrated and since >= CALIBRATE_EVERY_S:
                sample()
                since = 0.0
        if calibrated and since > 0.0:
            sample()

    peaks: dict[str, float] = {}
    tracer = None
    mode = spec["mode"]
    if mode == "run":
        loop(spec["seconds"], spec["min_calls"], calibrated=True)
    elif mode == "trace":
        loop(spec["seconds"] / 2, 1)
        tracer = spans.Tracer()
        tracer.install()
        loop(spec["seconds"] / 2, 1, tracer)
    elif mode == "peak":
        tracer = spans.Tracer()
        tracer.install()
        spans.install_rss_probe("spectrum.spectral_decomposition", peaks)
        call(tracer)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if tracer is not None and spec.get("spans_path"):
        Path(spec["spans_path"]).write_text(json.dumps(
            {"fields": ["id", "parent", "invocation", "name", "start", "end"],
             "spans": tracer.spans}))
    print(json.dumps({
        "calls": calls,
        "calibration": calibration,
        "peak_mb": peaks,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
