"""The benchmark's traced counts, on each of its workloads at seed 1.

A traced benchmark run fails every call whose counts (model spins, spectrum
terms and lines, partition groups, r(t) factors) differ from the ones its
workload expects, so a refactor that changes them would break the benchmark.
The tracer rebinds spinbath's module globals for the life of its process, so
the calls run in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TRACED_CALLS = """
import contextlib, io, json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import spinbath.cli as cli
import spans
from workloads import WORKLOADS

tracer = spans.Tracer()
tracer.install()
found = {}
for index, (name, workload) in enumerate(WORKLOADS.items()):
    inputs = workload.prepare(1, Path.cwd())
    tracer.start_invocation(index)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(inputs["argv"])
    found[name] = {"code": code, "counts": dict(tracer.counts), "expected": inputs["counts"]}
print(json.dumps(found))
"""


def test_traced_counts_are_the_ones_each_workload_expects(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_CALLS, str(ROOT / "src"), str(ROOT / "benchmarks")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True,
    )
    found = json.loads(done.stdout)
    assert sorted(found) == ["compare-equal-n20", "oracle-n12", "predict-random-n16",
                             "simulate-n5000"]
    for name, call in found.items():
        assert call["code"] == 0, name
        counts = {key: call["counts"].get(key, 0) for key in call["expected"]}
        assert counts == call["expected"], name
