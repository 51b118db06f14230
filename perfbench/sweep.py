"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/sweep.py OUT_DIR [--runs 10] [--first-seed 1]
                               [--workloads numbers logic] [--trace 0]

Each run's last output line is saved as OUT_DIR/<workload>-s<seed>.json;
then ``compare.py OUT_DIR`` prints the medians, quartiles and spreads.
The run length is ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((compare.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=compare.ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[:100]}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
            (out / f"{workload}-s{seed}.json").write_text(last + "\n")
    return compare.summarize(out)


if __name__ == "__main__":
    sys.exit(main())
