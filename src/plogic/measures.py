"""Exact-rational probability valuations over the sentences of a finite
basic set.

A valuation is stored as a measure on the 2^n minterms; the value of any
sentence is the mass of its satisfying minterms, which gives additivity
over every conjunction split by construction.

A measure is held as nonnegative integer weights over one positive
denominator: minterm j has mass ``weights[j] / denom``.  The weights sum
to ``denom`` and have no common factor, so the form is canonical and
equal measures compare and hash equal.  Each kernel is one pass over
C-level iterators: a truth table is read out once as one byte per
minterm, and sums, masks and rescaling run on plain integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import attrgetter, floordiv, mul
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateMintermError,
    InvalidArgumentError,
    NegativeMassError,
    SumNotOneError,
    WidthMismatchError,
    ZeroConditionError,
)
from .formulas import Sentence, Valuation, _size, truth_table

_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _over_lcm(masses: Sequence) -> tuple[list[int], int]:
    """Exact masses as numerators over their least common denominator.

    Reduced fractions over their lcm share no common factor, so weights
    that also sum to the denominator are already canonical."""
    try:
        nums = list(map(_NUMERATOR, masses))
        dens = list(map(_DENOMINATOR, masses))
    except AttributeError:
        raise TypeError("masses must be exact rationals (int or Fraction)") from None
    distinct = set(dens)
    denom = lcm(*distinct)
    scale = {d: denom // d for d in distinct}
    return list(map(mul, nums, map(scale.__getitem__, dens))), denom


def _checked(weights: list[int], denom: int) -> tuple[int, ...]:
    if min(weights) < 0:
        raise NegativeMassError("minterm masses must be nonnegative")
    total = sum(weights)
    if total != denom:
        raise SumNotOneError(f"masses sum to {Fraction(total, denom)}, not 1")
    return tuple(weights)


@dataclass(frozen=True, init=False)
class BFunction:
    """Probability measure on minterms; index = valuation bits read as a
    bitstring with atom 0 most significant.  Minterm j has mass
    ``weights[j] / denom``."""

    n: int
    weights: tuple[int, ...]
    denom: int

    def __init__(self, n: int, mass: Sequence[Fraction]):
        size = _size(n)
        if len(mass) != size:
            raise InvalidArgumentError(
                f"need {size} masses for {n} atoms, got {len(mass)}")
        weights, denom = _over_lcm(mass)
        self._set(n, _checked(weights, denom), denom)

    def _set(self, n: int, weights: tuple[int, ...], denom: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "denom", denom)

    @classmethod
    def _of(cls, n: int, weights: tuple[int, ...], denom: int) -> "BFunction":
        """Trusted constructor: the weights are nonnegative, sum to
        ``denom`` and have no common factor."""
        bf = object.__new__(cls)
        bf._set(n, weights, denom)
        return bf

    @property
    def mass(self) -> tuple[Fraction, ...]:
        """Per-minterm masses as fractions; built afresh on each read, in
        O(2^n), with one ``Fraction`` per distinct weight."""
        denom = self.denom
        table = {w: Fraction(w, denom) for w in set(self.weights)}
        return tuple(map(table.__getitem__, self.weights))

    @classmethod
    def uniform(cls, n: int) -> "BFunction":
        size = _size(n)
        return cls._of(n, (1,) * size, size)

    @classmethod
    def from_weights(cls, n: int, weights: Mapping[int, Fraction]) -> "BFunction":
        """Masses for the listed minterm indices; the rest are zero."""
        size = _size(n)
        masses = {}
        for idx, w in weights.items():
            if not 0 <= idx < size:
                raise InvalidArgumentError(f"minterm index {idx} out of range for n={n}")
            masses[idx] = Fraction(w)
        weights = [0] * size
        nums, denom = _over_lcm(list(masses.values()))
        for idx, w in zip(masses, nums):
            weights[idx] = w
        return cls._of(n, _checked(weights, denom), denom)


def from_valuation(v: Valuation) -> BFunction:
    """Point mass on the valuation's minterm; sentence values then agree
    with two-valued evaluation everywhere."""
    weights = [0] * _size(v.n)
    weights[v.minterm_index] = 1
    return BFunction._of(v.n, tuple(weights), 1)


def _selector(bf: BFunction, table: int) -> bytes:
    """A truth table over the measure's atoms, read out once: byte j is 1
    if bit j of ``table`` is set, else 0."""
    text = format(table, f"0{len(bf.weights)}b")  # minterm 0 comes last
    return text.encode().translate(_BIT_BYTES)[::-1]


def _weight(bf: BFunction, table: int) -> int:
    """Summed weight of the minterms set in ``table``."""
    return sum(compress(bf.weights, _selector(bf, table)))


def b_eval(bf: BFunction, s: Sentence) -> Fraction:
    """Mass of the satisfying minterms of ``s``; exact."""
    return Fraction(_weight(bf, truth_table(s, range(bf.n))), bf.denom)


def conditional_prob(bf: BFunction, b: Sentence, c: Sentence) -> Fraction:
    """Value of b given c: mass of (c and b) over mass of c."""
    tc = truth_table(c, range(bf.n))
    denom = _weight(bf, tc)
    if denom == 0:
        raise ZeroConditionError("conditioning sentence has probability zero")
    return Fraction(_weight(bf, tc & truth_table(b, range(bf.n))), denom)


def condition(bf: BFunction, c: Sentence) -> BFunction:
    """Measure restricted to the minterms satisfying c, renormalized; its
    sentence values equal the conditional probabilities given c."""
    selected = _selector(bf, truth_table(c, range(bf.n)))
    weights = tuple(map(mul, bf.weights, selected))
    denom = sum(weights)
    if denom == 0:
        raise ZeroConditionError("conditioning sentence has probability zero")
    common = gcd(*weights)
    if common > 1:
        weights = tuple(map(floordiv, weights, repeat(common)))
        denom //= common
    return BFunction._of(bf.n, weights, denom)


def is_p_function(bf: BFunction, actual: Valuation) -> bool:
    """True iff every sentence of value 1 holds in the designated world.

    Equivalent finite form: the actual world's minterm carries positive
    mass.  If it does not, the disjunction of the support minterms has
    value 1 yet is false at the actual world; if it does, any sentence of
    value 1 must contain the support, hence the actual world.
    """
    if actual.n != bf.n:
        raise InvalidArgumentError(f"valuation width {actual.n} does not match n={bf.n}")
    return bf.weights[actual.minterm_index] > 0


@dataclass(frozen=True)
class PairRelation:
    """Exact-rational facts about a sentence pair under one measure."""

    inconsistent: bool
    independent: bool


def classify_pair(bf: BFunction, a: Sentence, b: Sentence) -> PairRelation:
    """Inconsistent: the conjunction has measure zero.  Independent: the
    conjunction's measure is the product of the measures."""
    ta = truth_table(a, range(bf.n))
    tb = truth_table(b, range(bf.n))
    pa, pb, pab = _weight(bf, ta), _weight(bf, tb), _weight(bf, ta & tb)
    # Over one denominator d: pab/d == (pa/d)(pb/d) iff pab*d == pa*pb.
    return PairRelation(inconsistent=(pab == 0),
                        independent=(pab * bf.denom == pa * pb))


# --- Distribution file format -------------------------------------------------
#
# One minterm per line: "<bitstring> <numerator>/<denominator>".  Omitted
# minterms have mass zero.  Width is fixed by the first line.


def load_distribution(text: str | Iterable[str]) -> BFunction:
    """Parse the line-based distribution format, validating width,
    duplicates, signs, and that the masses sum exactly to 1.

    Dumped measures repeat few distinct masses, so each distinct mass
    token is parsed and checked once, on its first (earliest) line; a
    token that passed once cannot fail on a later line."""
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = list(text)
    n = None
    slots: dict[str, int] = {}  # mass token -> 1 + its index in masses
    masses: list[Fraction] = []  # one per distinct token
    at: list[int] = []  # per minterm: 0 if it has no line, else its slot
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise WidthMismatchError(
                f"line {lineno}: expected '<bits> <p/q>', got {raw.strip()!r}")
        bits, value = parts
        if bits.strip("01"):  # nonempty iff some character is not 0/1
            raise WidthMismatchError(f"line {lineno}: bad bitstring {bits!r}")
        if n is None:
            n = len(bits)
            at = [0] * _size(n)
        elif len(bits) != n:
            raise WidthMismatchError(
                f"line {lineno}: bitstring width {len(bits)} != {n}")
        slot = slots.get(value)
        if slot is None:
            try:
                mass = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise WidthMismatchError(
                    f"line {lineno}: bad rational {value!r}") from None
            if mass.numerator < 0:
                raise NegativeMassError(f"line {lineno}: negative mass {value}")
            masses.append(mass)
            slot = slots[value] = len(masses)
        idx = int(bits, 2)
        if at[idx]:
            raise DuplicateMintermError(f"line {lineno}: duplicate minterm {bits}")
        at[idx] = slot
    if n is None:
        raise WidthMismatchError("distribution file has no minterm lines")
    nums, denom = _over_lcm(masses)
    weights = list(map([0, *nums].__getitem__, at))
    return BFunction._of(n, _checked(weights, denom), denom)


def dump_distribution(bf: BFunction) -> str:
    """Render the nonzero minterms in the distribution file format; the
    mass text of each distinct weight is formatted once."""
    n, weights, denom = bf.n, bf.weights, bf.denom
    tail = {}
    for w in set(weights):
        common = gcd(w, denom)
        tail[w] = f" {w // common}/{denom // common}"
    out = [f"{idx:0{n}b}{tail[weights[idx]]}"
           for idx in compress(range(len(weights)), weights)]
    return "\n".join(out) + "\n"
