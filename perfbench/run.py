"""gradedvi benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints a report and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics.  Exits 1 when a check or an operation failed, and 2 when the
gradedvi sources are not beside the benchmark.
"""

import os
import sys
import time
from pathlib import Path

# One BLAS thread (never more than nproc): steadier timings on a shared box.
# Must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv: list[str]) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["iwae-study", "iwavb-study", "heldout-r5000", "vae-pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gradedvi" / "__init__.py").is_file():
        print(f"error: no gradedvi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import gradedvi.cli

    import_s = time.perf_counter() - t0
    if Path(gradedvi.cli.__file__).resolve().parent != SRC / "gradedvi":
        print(f"error: imported gradedvi from {gradedvi.cli.__file__}", file=sys.stderr)
        return 2

    import harness

    record = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  ROOT / ".perfbench_out", import_s=import_s,
                                  argv=["python3", "perfbench/run.py", *argv])
    for name, value in record["report"].items():
        print(f"{name} = {value!r} {harness.REPORT_UNITS.get(name, '')}".rstrip())
    print("environment", json.dumps(record["environment"], sort_keys=True))
    for err in record["errors"]:
        print(f"FAILED: {err}")
    result = record["result"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
