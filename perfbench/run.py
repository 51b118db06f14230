"""Run one benchmark workload against the library in ``src/``.

    python3 perfbench/run.py --workload numbers --seed 1 --seconds 32 --trace 0

Prints each metric by name with its unit, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones.  Exits 1 when any answer
disagrees with its reference, and 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("numbers", "logic", "cli")
#: Set-up runs in two batches, one before the timed phase and one after
#: it, so that the reported median spans the run rather than one moment of
#: a machine whose speed drifts.  A batch repeats set-up at least
#: SETUP_MIN times, and until it has taken SETUP_SECONDS or run SETUP_MAX
#: times.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 20, 1.0


def _fresh_import():
    for name in list(sys.modules):
        if name == "plogic" or name.startswith("plogic."):
            del sys.modules[name]
    return importlib.import_module("plogic")


def _spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _peak_rss_mb(who: str) -> float:
    which = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(which).ru_maxrss / 1024


def _set_up(workload, seed, workdir, times: list[float]):
    """Time import, input generation and build; returns the last build."""
    batch: list[float] = []
    while len(batch) < SETUP_MIN or (len(batch) < SETUP_MAX and sum(batch) < SETUP_SECONDS):
        start = time.perf_counter()
        state = workload.build(_fresh_import(), workload.generate(seed), workdir)
        batch.append(time.perf_counter() - start)
    times += batch
    return state


def _layer_metrics(tracer, counts, extras) -> dict[str, float]:
    layer: dict[str, float] = dict(counts)
    for name, agg in tracer.totals().items():
        for key, value in agg.items():
            layer[f"{name}.{key}"] = value
    layer.update(extras)
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write the spans here as JSON lines")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "plogic" / "__init__.py").is_file():
        print(f"perfbench: no library at {src / 'plogic'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    end_to_end, per_layer = _spec()

    import core
    import gen
    workload = importlib.import_module(f"wl_{args.workload}")
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times: list[float] = []
        state = _set_up(workload, args.seed, workdir, setup_times)
        plogic = state.plogic

        if args.trace:
            tracer = core.Tracer()
            untraced, phase = core.run_phase(
                state.round, args.seconds, [core.Api(), core.Api(tracer)])
        else:
            phase, = core.run_phase(state.round, args.seconds, [core.Api()])

        probes = state.probes()
        probe_failures = []
        for probe in probes:
            try:
                outcome = probe.run()
            except Exception as exc:  # a known defect is reported, not fatal
                outcome = f"raised {type(exc).__name__}"
            print(f"probe {'ok  ' if outcome is None else 'FAIL'} {probe.name}"
                  + ("" if outcome is None else f": {outcome}"))
            if outcome is not None:
                probe_failures.append(probe.name)
        rss = _peak_rss_mb(workload.RSS)
        proof_lines, proof_bytes = gen.proof_size(plogic)
        if not args.trace:
            _set_up(workload, args.seed, workdir, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    ops = len(phase.latencies_ns)
    failed = len(phase.failures)
    error_rate = (failed + len(probe_failures)) / (ops + len(probes))
    tail_ns, beyond = core.percentile(phase.latencies_ns, workload.TAIL_PCT)
    print(f"workload {args.workload}, seed {args.seed}: {ops} ops in {phase.rounds} rounds,"
          f" {phase.busy_s:.3f} s busy")
    print(f"op_tail_ms is p{workload.TAIL_PCT} of {ops} samples, {beyond} beyond it")
    print(f"error_rate {error_rate:.6f} ({failed} wrong ops, "
          f"{len(probe_failures)} of {len(probes)} known-defect probes failing)")

    if args.trace:
        extras = getattr(state, "trace_extras", lambda: {})()
        extras.update({
            "trace.ops_per_s": phase.ops_per_s,
            "trace.untraced_ops_per_s": untraced.ops_per_s,
            "trace.overhead_ratio": untraced.ops_per_s / phase.ops_per_s,
            "probes.failed": len(probe_failures),
        })
        layer = _layer_metrics(tracer, phase.counts, extras)
        values = {name: layer.get(name, 0) for name in per_layer}
        units = per_layer
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": phase.ops_per_s,
            "op_p50_ms": statistics.median(phase.latencies_ns) / 1e6,
            "op_tail_ms": tail_ns / 1e6,
            "ok_rate": ((ops - failed) / ops + (len(probes) - len(probe_failures)) / len(probes)) / 2,
            "peak_rss_mb": rss,
            "proof_lines": proof_lines,
            "proof_kb": proof_bytes / 1024,
        }
        units = end_to_end
    for name, unit in units.items():
        print(f"{name:<40} {values[name]:>16.6f} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": ops, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
