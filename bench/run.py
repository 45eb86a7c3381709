"""acropoet benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload generate-rhyme --seed 1 --seconds 35 --trace 0

Builds the seed's synthetic inputs (bench/workload.py) in a child process,
sets up the program through its loaders several times, then calls the
library's public functions in a closed loop (one caller, each call waits
for the previous one) for --seconds, checking every output.  The last line
of stdout is a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The line before it records the environment and run shape.
See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
WORKLOADS = ("generate-rhyme", "generate-plain", "train-lm")
BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "acropoet" / "__init__.py").is_file():
        print(f"error: no acropoet sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # the thread count must be pinned before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import harness
    print(json.dumps(harness.main(args, BLAS_THREADS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
