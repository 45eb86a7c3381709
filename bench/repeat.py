"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --workloads generate-rhyme train-lm \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 30 --out summary.json

For every workload and metric it reports the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread, the distance between
the quartiles as a share of the median.  Every run must report
`correct: true`; a run that does not stops the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n"
                         f"{proc.stderr}")
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in args.seeds]
        summary[workload] = {
            name: dict(summarise([r["metrics"][name]["value"]
                                  for r in runs]),
                       unit=runs[0]["metrics"][name]["unit"])
            for name in runs[0]["metrics"]}
        for name, s in summary[workload].items():
            print(f"{workload:15s} {name:38s} median {s['median']:12.5g} "
                  f"{s['unit']:9s} spread {100 * s['spread']:6.2f}%",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds,
             "trace": args.trace, "workloads": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()
