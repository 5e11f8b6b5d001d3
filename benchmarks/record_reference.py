"""Record the predict-random-n16 reference diagnostics for every pool model.

    python3 benchmarks/record_reference.py

Runs ``spinbath predict --n 16`` once per model in the pool and writes the
payloads to ``benchmarks/reference/predict_random_n16.json``. Re-record only
when a change to the program is meant to change these numbers, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from workloads import PREDICT_N, PREDICT_POOL, REFERENCE_FILE, model_seed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spinbath.cli as cli  # noqa: E402


def main() -> int:
    references = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "verdict.json"
        for index in range(PREDICT_POOL):
            seed = model_seed("predict-random-n16", index)
            argv = ["predict", "--n", str(PREDICT_N), "--seed", str(seed), "--output", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                print(f"predict failed for model seed {seed} (exit {code})", file=sys.stderr)
                return 1
            references[str(seed)] = json.loads(out.read_text())
            print(f"{index}: model seed {seed} recorded", file=sys.stderr)
    REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
