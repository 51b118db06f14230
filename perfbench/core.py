"""Closed-loop load generation, spans and statistics shared by every workload."""

from __future__ import annotations

import importlib
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable

#: Public functions the benchmark calls and, in a traced run, spans.
TRACED = {
    "formulas": ("truth_table", "is_tautology", "semantic_equal"),
    "parsing": ("parse_formula",),
    "proofs": ("format_proof", "parse_proof", "check_deduction"),
    "synthesis": ("synthesize_proof", "is_derivable"),
    "measures": ("b_eval", "conditional_prob", "condition", "classify_pair",
                 "load_distribution", "dump_distribution"),
    "trials": ("range_prob", "point_prob", "lln_bound", "simulate_frequencies",
               "product_bfunction", "t_range"),
    "qnumbers": ("q_equal", "q_less", "q_classify", "infinitely_close"),
    "density": ("filter_membership", "part_frequency"),
    "classical": ("classical_probability", "check_complete"),
}


@dataclass
class Op:
    """One timed operation.  ``run`` makes the library calls through the
    api it is given; ``check`` compares the result with the reference and
    returns None or the reason it is wrong, adding any counts it derives
    from the result.  ``counts`` are known from the inputs alone."""

    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Counter], str | None]
    counts: dict = field(default_factory=dict)
    replay: Callable[[Any], None] | None = None


@dataclass
class Probe:
    """A known-defect input with a hand-written expected outcome; ``run``
    returns None when the library meets it, else what happened."""

    name: str
    run: Callable[[], str | None]


class Tracer:
    """Spans kept in memory: [name, parent index, start ns, end ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter_ns(), 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][3] = perf_counter_ns()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (whole span) and self
        seconds (span minus the time its child spans cover)."""
        child_ns = Counter()
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, parent, start, end) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += (end - start) / 1e9
            agg["self_s"] += (end - start - child_ns[idx]) / 1e9
        return out


class Api:
    """The traced public functions as attributes, wrapped in spans when a
    tracer is given and bound directly otherwise."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.by_module: dict[str, dict[str, Callable]] = {}
        for module, names in TRACED.items():
            mod = importlib.import_module(f"plogic.{module}")
            funcs = {}
            for name in names:
                fn = getattr(mod, name)
                if tracer is not None:
                    fn = tracer.wrap(f"{module}.{name}", fn)
                funcs[name] = fn
                setattr(self, name, fn)
            self.by_module[module] = funcs


@dataclass
class PhaseResult:
    latencies_ns: list[int]
    failures: list[tuple[str, str]]
    counts: Counter
    rounds: int

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies_ns) / self.busy_s


def run_phase(make_round: Callable[[int], list[Op]], seconds: float,
              apis: list[Api]) -> list[PhaseResult]:
    """Closed loop with one caller: run whole rounds of operations, each
    after the previous one returns, for as many rounds as brings the time
    the operations were busy closest to ``seconds``.  Whole rounds keep
    the operation mix the same in every run.  With several apis, rounds
    take turns among them and each api runs the same rounds, so that
    their results see the same inputs and the same machine.  Checking
    answers happens between operations and is not timed."""
    results = [PhaseResult([], [], Counter(), 0) for _ in apis]
    busy = 0
    cycles = 0
    while cycles == 0 or busy * (1 + 0.5 / cycles) < seconds * 1e9:
        for api, result in zip(apis, results):
            busy += _run_round(spread(make_round(cycles)), api, result)
        cycles += 1
    return results


def spread(ops: list[Op]) -> list[Op]:
    """The round in a fixed order that scatters runs of similar operations,
    so that a slow spell of the machine does not land on one kind alone."""
    n = len(ops)
    step = max(1, round(n * 0.618))
    while math.gcd(step, n) != 1:
        step += 1
    return [ops[(i * step) % n] for i in range(n)]


def _run_round(ops: list[Op], api: Api, result: PhaseResult) -> int:
    tracer = api.tracer
    busy = 0
    for op in ops:
        span = tracer.open(f"op.{op.kind}") if tracer else None
        start = perf_counter_ns()
        try:
            value = op.run(api)
        except Exception as exc:  # a failed op is counted, not fatal
            value = exc
        elapsed = perf_counter_ns() - start
        if tracer:
            tracer.close(span)
        busy += elapsed
        result.latencies_ns.append(elapsed)
        result.counts.update(op.counts)
        problem = op.check(value, result.counts)
        if problem is not None:
            result.failures.append((op.kind, problem))
            print(f"WRONG ANSWER in {op.kind}: {problem}", file=sys.stderr)
        if tracer and op.replay is not None:
            op.replay(api)
    result.rounds += 1
    return busy


def percentile(values: list[int], pct: float) -> tuple[int, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def expect_error(result, error_type, what: str) -> str | None:
    if isinstance(result, error_type):
        return None
    if isinstance(result, BaseException):
        return f"{what}: raised {type(result).__name__}: {result}"
    return f"{what}: expected {error_type.__name__}, got {result!r}"[:300]


def raised(result) -> str | None:
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {str(result)[:200]}"
    return None
