"""Index sets over the positive naturals, their part-set frequencies, and
membership in the density-one filter.

Membership in the filter (frequency tending to 1) is undecidable for
arbitrary sets, so index sets are partitioned into classes with exact
verdicts -- finite, cofinite, eventually periodic -- and everything else
answers Unknown together with the frequency observed at a horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import InvalidArgumentError

DEFAULT_HORIZON = 10_000


def check_horizon(horizon: int) -> None:
    """Every verdict that may report prefix evidence checks its horizon
    first, before structure decides."""
    if horizon < 1:
        raise InvalidArgumentError("horizon must be at least 1")


@dataclass(frozen=True)
class Verdict:
    """Three-valued answer; Unknown carries its prefix evidence."""

    answer: str  # "yes" | "no" | "unknown"
    horizon: int | None = None
    frequency: Fraction | None = None

    @property
    def is_yes(self) -> bool:
        return self.answer == "yes"

    @property
    def is_no(self) -> bool:
        return self.answer == "no"

    @property
    def is_unknown(self) -> bool:
        return self.answer == "unknown"

    def __str__(self):
        if self.answer == "unknown":
            return f"unknown(freq@{self.horizon}={self.frequency})"
        return self.answer


YES = Verdict("yes")
NO = Verdict("no")


def unknown(horizon: int, frequency: Fraction) -> Verdict:
    return Verdict("unknown", horizon, frequency)


class IndexSet:
    """Subset of {1, 2, 3, ...}; subclasses fix the decidable structure."""

    def contains(self, n: int) -> bool:
        raise NotImplementedError

    def count_upto(self, n: int) -> int:
        """Members in {1..n}; subclasses override with closed forms."""
        return sum(1 for i in range(1, n + 1) if self.contains(i))


def _sorted_unique(values) -> tuple[int, ...]:
    out = tuple(sorted(set(values)))
    if out and out[0] < 1:
        raise InvalidArgumentError("index sets live on the positive naturals")
    return out


@dataclass(frozen=True)
class FiniteSet(IndexSet):
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", _sorted_unique(self.members))

    def contains(self, n: int) -> bool:
        return n in self.members

    def count_upto(self, n: int) -> int:
        return sum(1 for m in self.members if m <= n)


@dataclass(frozen=True)
class CofiniteSet(IndexSet):
    excluded: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "excluded", _sorted_unique(self.excluded))

    def contains(self, n: int) -> bool:
        return n not in self.excluded

    def count_upto(self, n: int) -> int:
        return n - sum(1 for m in self.excluded if m <= n)


@dataclass(frozen=True)
class EventuallyPeriodicSet(IndexSet):
    """Membership bits: preamble covers 1..len(preamble), then the period
    repeats forever."""

    preamble: tuple[bool, ...]
    period: tuple[bool, ...]

    def __post_init__(self):
        if not self.period:
            raise InvalidArgumentError("period must be nonempty")
        object.__setattr__(self, "preamble", tuple(bool(b) for b in self.preamble))
        object.__setattr__(self, "period", tuple(bool(b) for b in self.period))

    def contains(self, n: int) -> bool:
        if n <= len(self.preamble):
            return self.preamble[n - 1]
        offset = n - len(self.preamble) - 1
        return self.period[offset % len(self.period)]

    def count_upto(self, n: int) -> int:
        pre = len(self.preamble)
        if n <= pre:
            return sum(self.preamble[:n])
        count = sum(self.preamble)
        tail = n - pre
        cycles, rest = divmod(tail, len(self.period))
        return count + cycles * sum(self.period) + sum(self.period[:rest])

    @property
    def period_density(self) -> Fraction:
        return Fraction(sum(self.period), len(self.period))


@dataclass(frozen=True)
class OpaqueSet(IndexSet):
    """Characteristic predicate without declared structure; frequency
    questions about it can only report prefix evidence."""

    predicate: Callable[[int], bool]

    def contains(self, n: int) -> bool:
        return bool(self.predicate(n))


def naturals() -> CofiniteSet:
    return CofiniteSet(())


def empty_set() -> FiniteSet:
    return FiniteSet(())


def evens() -> EventuallyPeriodicSet:
    return EventuallyPeriodicSet((), (False, True))


def part_frequency(a: IndexSet, n: int) -> Fraction:
    """Members of a within {1..n}, over n; exact."""
    if n < 1:
        raise InvalidArgumentError("part-set size must be at least 1")
    return Fraction(a.count_upto(n), n)


def filter_membership(a: IndexSet, horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Does the frequency of ``a`` tend to 1?

    Cofinite: yes.  Finite: no.  Eventually periodic: yes exactly when the
    period is all ones.  Opaque: unknown, with the horizon frequency.
    """
    check_horizon(horizon)
    if isinstance(a, CofiniteSet):
        return YES
    if isinstance(a, FiniteSet):
        return NO
    if isinstance(a, EventuallyPeriodicSet):
        return YES if a.period_density == 1 else NO
    return unknown(horizon, part_frequency(a, horizon))


# --- Set algebra on the decidable classes -------------------------------------


def complement(a: IndexSet) -> IndexSet:
    if isinstance(a, FiniteSet):
        return CofiniteSet(a.members)
    if isinstance(a, CofiniteSet):
        return FiniteSet(a.excluded)
    if isinstance(a, EventuallyPeriodicSet):
        return EventuallyPeriodicSet(
            tuple(not b for b in a.preamble), tuple(not b for b in a.period))
    return OpaqueSet(lambda n, _a=a: not _a.contains(n))


def _as_periodic(a: IndexSet) -> EventuallyPeriodicSet | None:
    if isinstance(a, EventuallyPeriodicSet):
        return a
    if isinstance(a, (FiniteSet, CofiniteSet)):
        inside = isinstance(a, CofiniteSet)
        marks = a.excluded if inside else a.members
        bound = max(marks, default=0)
        preamble = tuple(a.contains(i) for i in range(1, bound + 1))
        return EventuallyPeriodicSet(preamble, (inside,))
    return None


def intersect(a: IndexSet, b: IndexSet) -> IndexSet:
    """Intersection, staying inside the decidable classes when both
    operands are decidable."""
    if isinstance(a, FiniteSet):
        return FiniteSet(tuple(m for m in a.members if b.contains(m)))
    if isinstance(b, FiniteSet):
        return intersect(b, a)
    if isinstance(a, CofiniteSet) and isinstance(b, CofiniteSet):
        return CofiniteSet(a.excluded + b.excluded)
    pa = _as_periodic(a)
    pb = _as_periodic(b)
    if pa is not None and pb is not None:
        pre = max(len(pa.preamble), len(pb.preamble))
        period = math.lcm(len(pa.period), len(pb.period))
        preamble = tuple(pa.contains(i) and pb.contains(i) for i in range(1, pre + 1))
        cycle = tuple(
            pa.contains(i) and pb.contains(i)
            for i in range(pre + 1, pre + period + 1)
        )
        return EventuallyPeriodicSet(preamble, cycle)
    return OpaqueSet(lambda n, _a=a, _b=b: _a.contains(n) and _b.contains(n))


def from_predicate(predicate: Callable[[int], bool]) -> OpaqueSet:
    return OpaqueSet(predicate)
