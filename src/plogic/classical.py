"""Complete sets of alternatives and the favorable-count probability.

Falsity here is semantic: a sentence is false when no valuation satisfies
it, so the definitions below hold for every measure rather than relative
to one designated world.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    InvalidArgumentError,
    MixedMemberError,
    NotCompleteError,
    UnsatisfiableMemberError,
)
from .formulas import Sentence, atom_ids, truth_table


class Favorability(enum.Enum):
    FAVORABLE = "favorable"
    UNFAVORABLE = "unfavorable"
    NEITHER = "neither"


def _shared_ids(sentences: Sequence[Sentence]) -> list[int]:
    ids: set[int] = set()
    for s in sentences:
        ids |= atom_ids(s)
    return sorted(ids)


def check_complete(members: Sequence[Sentence]) -> bool:
    """True iff pairwise conjunctions are unsatisfiable and the full
    disjunction is a tautology, both by exhaustive valuation."""
    if not members:
        raise InvalidArgumentError("complete set must be nonempty")
    ids = _shared_ids(members)
    size = 1 << len(ids)
    full = (1 << size) - 1
    union = 0
    for m in members:
        t = truth_table(m, ids)
        if union & t:
            return False  # overlaps some earlier member
        union |= t
    return union == full


@dataclass(frozen=True)
class CompleteSet:
    """Pairwise-incompatible sentences whose disjunction is a tautology;
    validated on construction."""

    members: tuple[Sentence, ...]

    def __post_init__(self):
        if not check_complete(self.members):
            raise NotCompleteError(
                "members overlap or their disjunction misses a valuation")


def classify_favorability(b: Sentence, a: Sentence) -> Favorability:
    """Favorable when b excludes not-a, unfavorable when b excludes a.

    An unsatisfiable b meets both conditions; the fixed precedence reports
    it as favorable.
    """
    ids = _shared_ids((b, a))
    tb = truth_table(b, ids)
    ta = truth_table(a, ids)
    return _classify(tb, ta, (1 << (1 << len(ids))) - 1)


def _classify(tb: int, ta: int, full: int) -> Favorability:
    if tb & (full ^ ta) == 0:
        return Favorability.FAVORABLE
    if tb & ta == 0:
        return Favorability.UNFAVORABLE
    return Favorability.NEITHER


def classical_probability(a: Sentence, cs: CompleteSet | Sequence[Sentence]) -> Fraction:
    """Favorable members over total members, exact.

    Requires every member to be favorable or unfavorable for the event and
    rejects unsatisfiable members: under the equiprobability hypothesis
    each member must carry mass 1/n > 0, which an unsatisfiable sentence
    cannot.
    """
    if not isinstance(cs, CompleteSet):
        cs = CompleteSet(tuple(cs))
    members = cs.members
    ids = _shared_ids(list(members) + [a])
    size = 1 << len(ids)
    full = (1 << size) - 1
    ta = truth_table(a, ids)
    favorable = 0
    for m in members:
        tm = truth_table(m, ids)
        if tm == 0:
            raise UnsatisfiableMemberError(
                "an unsatisfiable member makes equiprobability degenerate")
        verdict = _classify(tm, ta, full)
        if verdict is Favorability.NEITHER:
            raise MixedMemberError(
                "a member is neither favorable nor unfavorable for the event")
        if verdict is Favorability.FAVORABLE:
            favorable += 1
    return Fraction(favorable, len(members))
