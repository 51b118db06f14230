"""Index sets over the positive naturals, their part-set frequencies, and
membership in the density-one filter.

Membership in the filter (frequency tending to 1) is undecidable for
arbitrary sets.  Eventually periodic sets (finite, cofinite, periodic
after a preamble) have exact verdicts and one sparse encoding: a period
aligned at n = 1 plus finitely many flipped indices.  Everything else
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


@dataclass(frozen=True)
class DecidableSet(IndexSet):
    """An eventually periodic set: n is a member exactly when
    ``period[(n - 1) % len(period)]`` holds, except at the finitely many
    ``flips``.  Its frequency tends to the period's density."""

    period: tuple[bool, ...]
    flips: frozenset[int]

    def contains(self, n: int) -> bool:
        return self.period[(n - 1) % len(self.period)] != (n in self.flips)

    def count_upto(self, n: int) -> int:
        size = len(self.period)
        cycles, rest = divmod(n, size)
        count = cycles * sum(self.period) + sum(self.period[:rest])
        for m in self.flips:
            if m <= n:
                count += -1 if self.period[(m - 1) % size] else 1
        return count


def _indices(values) -> frozenset[int]:
    out = frozenset(values)
    if out and min(out) < 1:
        raise InvalidArgumentError("index sets live on the positive naturals")
    return out


def FiniteSet(members) -> DecidableSet:
    """The set of the listed indices."""
    return DecidableSet((False,), _indices(members))


def CofiniteSet(excluded) -> DecidableSet:
    """Every index except the listed ones."""
    return DecidableSet((True,), _indices(excluded))


def EventuallyPeriodicSet(preamble, period) -> DecidableSet:
    """Membership bits: ``preamble`` covers 1..len(preamble), then
    ``period`` repeats forever.  Stored with the period rotated to start
    at n = 1, and the preamble bits that disagree with it as flips."""
    preamble, period = tuple(preamble), tuple(period)
    if not period:
        raise InvalidArgumentError("period must be nonempty")
    size, shift = len(period), len(preamble)
    aligned = tuple(bool(period[(i - shift) % size]) for i in range(size))
    flips = frozenset(n for n, bit in enumerate(preamble, 1)
                      if bool(bit) != aligned[(n - 1) % size])
    return DecidableSet(aligned, flips)


@dataclass(frozen=True)
class OpaqueSet(IndexSet):
    """Characteristic predicate without declared structure; frequency
    questions about it can only report prefix evidence."""

    predicate: Callable[[int], bool]

    def contains(self, n: int) -> bool:
        return bool(self.predicate(n))


def naturals() -> DecidableSet:
    return CofiniteSet(())


def empty_set() -> DecidableSet:
    return FiniteSet(())


def evens() -> DecidableSet:
    return EventuallyPeriodicSet((), (False, True))


def part_frequency(a: IndexSet, n: int) -> Fraction:
    """Members of a within {1..n}, over n; exact."""
    if n < 1:
        raise InvalidArgumentError("part-set size must be at least 1")
    return Fraction(a.count_upto(n), n)


def filter_membership(a: IndexSet, horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Does the frequency of ``a`` tend to 1?

    Decidable: yes exactly when the period is all ones, whatever the
    flips.  Opaque: unknown, with the horizon frequency.
    """
    check_horizon(horizon)
    if isinstance(a, DecidableSet):
        return YES if all(a.period) else NO
    return unknown(horizon, part_frequency(a, horizon))


# --- Set algebra on decidable sets ---------------------------------------------


def complement(a: IndexSet) -> IndexSet:
    if isinstance(a, DecidableSet):
        return DecidableSet(tuple(not b for b in a.period), a.flips)
    return OpaqueSet(lambda n, _a=a: not _a.contains(n))


def intersect(a: IndexSet, b: IndexSet) -> IndexSet:
    """Intersection, staying decidable when both operands are decidable
    or either one is finite."""
    if isinstance(a, DecidableSet) and isinstance(b, DecidableSet):
        size = math.lcm(len(a.period), len(b.period))
        # Off both flip sets the operands follow their periods, and so
        # does the meet; on them, keep the indices that disagree with it.
        period = tuple(a.period[i % len(a.period)] and b.period[i % len(b.period)]
                       for i in range(size))
        flips = frozenset(n for n in a.flips | b.flips
                          if (a.contains(n) and b.contains(n)) != period[(n - 1) % size])
        return DecidableSet(period, flips)
    for finite, other in ((a, b), (b, a)):
        if isinstance(finite, DecidableSet) and not any(finite.period):
            return FiniteSet(n for n in sorted(finite.flips) if other.contains(n))
    return OpaqueSet(lambda n, _a=a, _b=b: _a.contains(n) and _b.contains(n))


def from_predicate(predicate: Callable[[int], bool]) -> OpaqueSet:
    return OpaqueSet(predicate)
