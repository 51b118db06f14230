"""Summarize or compare sets of benchmark result files.

    python3 perfbench/compare.py RESULTS            # spread of one set
    python3 perfbench/compare.py BASE NEW           # NEW against BASE

A result file holds the last line that ``perfbench/run.py`` prints; its
name starts with the workload and a dash, as ``perfbench/sweep.py``
writes them (``measures-s3.json``).  Spread is the distance between the
first and third quartiles over the median.  In a comparison a metric is
``WORSE`` when the new median is worse than the base median by more than
the metric's bound, and ``unresolved`` when either spread exceeds the
bound, unless every new run is better than every base run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from every result file in directory."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text().strip().splitlines()[-1])
        workload = path.stem.split("-")[0]
        for name, metric in result["metrics"].items():
            out[workload][name].append(metric["value"])
    return out


def metric_specs() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def summarize(directory) -> int:
    specs = metric_specs()
    unsteady = 0
    for workload, metrics in sorted(load(directory).items()):
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            bound = specs.get(name, {}).get("bound")
            s = spread(values)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "steady" if s <= bound / 3 else ("within bound" if s <= bound
                                                        else "SPREAD ABOVE BOUND")
                unsteady += s > bound
            print(f"{workload:<9} {name:<32} n={len(values):<3} median {med:<14.6g} "
                  f"q1 {q1:<14.6g} q3 {q3:<14.6g} spread {s:7.4f} "
                  f"{'' if bound is None else f'bound {bound:<5}'} {flag}")
    return 1 if unsteady else 0


def compare(base_dir, new_dir) -> int:
    specs = metric_specs()
    base, new = load(base_dir), load(new_dir)
    worse = 0
    for workload in sorted(set(base) & set(new)):
        for name in base[workload]:
            spec = specs.get(name)
            if spec is None or name not in new[workload]:
                continue
            b, n = base[workload][name], new[workload][name]
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            lower = spec["better"] == "lower"
            change = (nmed - bmed) / abs(bmed) if bmed else 0.0
            worsening = change if lower else -change
            bound = spec.get("bound")
            if bound is None:
                verdict = ""
            elif max(spread(b), spread(n)) > bound and not (
                    max(n) < min(b) if lower else min(n) > max(b)):
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "WORSE"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:<9} {name:<32} base {bmed:<12.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"new {nmed:<12.6g} [{nq1:.6g}, {nq3:.6g}]  {change:+8.2%}  {verdict}")
    return 1 if worse else 0


def main(argv) -> int:
    if len(argv) == 1:
        return summarize(argv[0])
    if len(argv) == 2:
        return compare(*argv)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
