"""Sequence numbers: lazy rational sequences compared through the
density-one filter, with honest three-valued verdicts.

A value stores one representative sequence plus what its construction
declared: a polynomial over sequence leaves, a true limit, strict
positivity, or a periodic interleave.  Every declaration holds at all
but finitely many indices, so it is a statement about the number, not
the representative: replacing finitely many terms keeps all of them.
A value is standard when its polynomial is a constant.  Equality, order,
invertibility and infinite closeness all read one structural comparison,
the sign of x - y on a density-one index set; classification reads a
constant polynomial and the limit.  Each degrades to Unknown with prefix
evidence, never to a wrong yes or no.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .density import DEFAULT_HORIZON, NO, YES, Verdict, check_horizon, unknown
from .errors import InvalidArgumentError, ReciprocalOfInfinitesimalOrZeroError


class _Infinite:
    """Sentinel for a declared divergence to positive infinity."""

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()

_leaf_ids = itertools.count()

# Polynomial descriptors: monomial (sorted tuple of (leaf id, exponent)) to
# coefficient.  The empty monomial is the constant term; zero coefficients
# are dropped, so the zero polynomial is the empty mapping.
_Poly = dict


def _const_poly(c: Fraction) -> _Poly:
    return {(): c} if c else {}


def _constant(p: _Poly) -> Fraction | None:
    """The value of a constant polynomial, else None."""
    return p.get((), Fraction(0)) if p.keys() <= {()} else None


def _fresh_leaf() -> _Poly:
    """A polynomial that is one new leaf: the value's own sequence."""
    return {((next(_leaf_ids), 1),): Fraction(1)}


@functools.cache
def _reciprocal_leaf(poly: frozenset) -> _Poly:
    """The leaf of 1/x for every x whose polynomial has these items.  Two
    such values agree at all but finitely many indices, and so do their
    reciprocals."""
    return _fresh_leaf()


def _poly_add(p: _Poly, q: _Poly) -> _Poly:
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _poly_neg(p: _Poly) -> _Poly:
    return {mono: -c for mono, c in p.items()}


def _poly_mul(p: _Poly, q: _Poly) -> _Poly:
    out: _Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps: dict[int, int] = {}
            for leaf, e in itertools.chain(m1, m2):
                exps[leaf] = exps.get(leaf, 0) + e
            mono = tuple(sorted(exps.items()))
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


@dataclass(frozen=True, eq=False)
class QNumber:
    """One representative rational sequence with declared structure.

    ``seq`` must be a pure total map from positive indices to rationals.
    Each descriptor holds at all but finitely many indices: ``poly`` gives
    the terms as a polynomial over leaf sequences (by default a fresh
    leaf, the value itself), ``limit`` is a true limit (INFINITE for
    divergence to +oo), ``strictly_positive`` says the terms exceed zero,
    and ``components`` are the slots of an interleave.
    """

    seq: Callable[[int], Fraction]
    limit: Fraction | _Infinite | None = None
    strictly_positive: bool = False
    poly: Mapping = field(default_factory=_fresh_leaf)
    components: "tuple[QNumber, ...] | None" = None

    @property
    def standard(self) -> Fraction | None:
        """The constant this value equals, when its polynomial is one."""
        return _constant(self.poly)

    def term(self, n: int) -> Fraction:
        if n < 1:
            raise InvalidArgumentError("sequence indices start at 1")
        return Fraction(self.seq(n))

    def prefix(self, count: int) -> list[Fraction]:
        return [self.term(n) for n in range(1, count + 1)]

    # Arithmetic sugar; dispatches through q_lift.
    def __add__(self, other):
        return q_lift("add", self, _coerce(other))

    __radd__ = __add__

    def __mul__(self, other):
        return q_lift("mul", self, _coerce(other))

    __rmul__ = __mul__

    def __neg__(self):
        return q_lift("negate", self)

    def __sub__(self, other):
        return q_lift("add", self, q_lift("negate", _coerce(other)))

    def __rsub__(self, other):
        return q_lift("add", _coerce(other), q_lift("negate", self))

    def with_edits(self, edits: Mapping[int, Fraction]) -> "QNumber":
        """Same number with finitely many terms replaced; every descriptor
        holds at all but finitely many indices, so each one carries over."""
        fixed = {int(k): Fraction(v) for k, v in edits.items()}
        if any(k < 1 for k in fixed):
            raise InvalidArgumentError("edit indices start at 1")

        def seq(n, _b=self.seq, _f=fixed):
            got = _f.get(n)
            return got if got is not None else _b(n)

        return QNumber(seq, limit=self.limit,
                       strictly_positive=self.strictly_positive,
                       poly=self.poly, components=self.components)


def _coerce(value) -> QNumber:
    if isinstance(value, QNumber):
        return value
    return standard(Fraction(value))


def standard(a) -> QNumber:
    """The constant sequence at ``a``: a standard value."""
    a = Fraction(a)
    return QNumber(lambda n, _a=a: _a, limit=a, strictly_positive=a > 0,
                   poly=_const_poly(a))


def from_function(
    f: Callable[[int], Fraction],
    limit: Fraction | _Infinite | None = None,
    strictly_positive: bool = False,
) -> QNumber:
    """Wrap a pure sequence as a new leaf.  The verdict analyses trust the
    declared limit and sign; the sign need only hold at all but finitely
    many indices."""
    if limit is not None and not isinstance(limit, _Infinite):
        limit = Fraction(limit)
    return QNumber(f, limit=limit, strictly_positive=strictly_positive)


@functools.cache
def harmonic() -> QNumber:
    """The sequence 1/n: positive everywhere, limit zero.  One shared
    value, so two readings of it are one leaf and compare equal."""
    return from_function(lambda n: Fraction(1, n), limit=Fraction(0),
                         strictly_positive=True)


@functools.cache
def ramp() -> QNumber:
    """The sequence n: diverges to +oo.  One shared value, like harmonic."""
    return from_function(lambda n: Fraction(n), limit=INFINITE,
                         strictly_positive=True)


def cycle(components: Sequence[QNumber]) -> QNumber:
    """Interleave: term n comes from component (n-1) mod len.  Components
    that share one polynomial give it to the interleave; otherwise the
    interleave is a new leaf."""
    comps = tuple(components)
    if not comps:
        raise InvalidArgumentError("need at least one component")
    size = len(comps)

    def seq(n, _c=comps, _s=size):
        return _c[(n - 1) % _s].seq(n)

    same_limit = comps[0].limit
    if any(c.limit != same_limit for c in comps):
        same_limit = None
    poly = comps[0].poly
    if any(c.poly != poly for c in comps):
        poly = _fresh_leaf()
    return QNumber(seq, limit=same_limit,
                   strictly_positive=all(c.strictly_positive for c in comps),
                   poly=poly, components=comps)


# --- Lifted arithmetic ---------------------------------------------------------


def _lift_add(x: QNumber, y: QNumber) -> QNumber:
    def seq(n, _x=x.seq, _y=y.seq):
        return _x(n) + _y(n)

    lx, ly = x.limit, y.limit
    limit: Fraction | _Infinite | None
    if lx is None or ly is None:
        limit = None
    elif isinstance(lx, _Infinite) or isinstance(ly, _Infinite):
        limit = INFINITE  # +oo plus a convergent, or +oo plus +oo
    else:
        limit = lx + ly
    return QNumber(seq, limit=limit,
                   strictly_positive=x.strictly_positive and y.strictly_positive,
                   poly=_poly_add(x.poly, y.poly),
                   components=_slotwise(_lift_add, x, y))


def _lift_mul(x: QNumber, y: QNumber) -> QNumber:
    def seq(n, _x=x.seq, _y=y.seq):
        return _x(n) * _y(n)

    lx, ly = x.limit, y.limit
    limit: Fraction | _Infinite | None
    if lx is None or ly is None:
        limit = None
    elif isinstance(lx, _Infinite) and isinstance(ly, _Infinite):
        limit = INFINITE
    elif isinstance(lx, _Infinite) or isinstance(ly, _Infinite):
        finite = ly if isinstance(lx, _Infinite) else lx
        limit = INFINITE if finite > 0 else None
    else:
        limit = lx * ly
    return QNumber(seq, limit=limit,
                   strictly_positive=x.strictly_positive and y.strictly_positive,
                   poly=_poly_mul(x.poly, y.poly),
                   components=_slotwise(_lift_mul, x, y))


def _lift_negate(x: QNumber) -> QNumber:
    def seq(n, _x=x.seq):
        return -_x(n)

    limit = None
    if x.limit is not None and not isinstance(x.limit, _Infinite):
        limit = -x.limit
    comps = x.components
    return QNumber(seq, limit=limit, poly=_poly_neg(x.poly),
                   components=comps and tuple(map(_lift_negate, comps)))


def _slotwise(op: Callable, x: QNumber, y: QNumber) -> tuple[QNumber, ...] | None:
    """The interleave slots of op(x, y): slot by slot when both operands
    interleave alike, each slot with the other operand when one does.  A
    slot is read at the full index, so either way it is exact."""
    return tuple(op(a, b) for a, b in _cycle_slots(x, y)) or None


def _lift_reciprocal(x: QNumber) -> QNumber:
    verdict = invertible(x)
    if not verdict.is_yes:
        raise ReciprocalOfInfinitesimalOrZeroError(
            f"reciprocal needs a Yes verdict that |x| > 0; got {verdict}")

    def seq(n, _x=x.seq):
        v = _x(n)
        return Fraction(0) if v == 0 else 1 / v  # zero set is filter-negligible

    limit: Fraction | _Infinite | None = None
    if isinstance(x.limit, _Infinite):
        limit = Fraction(0)
    elif x.limit is not None and x.limit != 0:
        limit = 1 / x.limit
    elif x.limit == 0 and x.strictly_positive:
        limit = INFINITE
    std = x.standard  # never zero: invertible said yes
    poly = _reciprocal_leaf(frozenset(x.poly.items())) if std is None else _const_poly(1 / std)
    return QNumber(seq, limit=limit, strictly_positive=x.strictly_positive,
                   poly=poly)


_LIFTS = {
    "add": (_lift_add, 2),
    "+": (_lift_add, 2),
    "mul": (_lift_mul, 2),
    "*": (_lift_mul, 2),
    "negate": (_lift_negate, 1),
    "neg": (_lift_negate, 1),
    "reciprocal": (_lift_reciprocal, 1),
    "recip": (_lift_reciprocal, 1),
}


def q_lift(op: str, *args) -> QNumber:
    """Pointwise lift of a named rational operation; declared structure
    propagates where sound.  Plain rationals coerce to their standard
    values."""
    try:
        fn, arity = _LIFTS[op]
    except KeyError:
        raise InvalidArgumentError(f"unknown lift {op!r}") from None
    if len(args) != arity:
        raise InvalidArgumentError(f"{op} expects {arity} arguments, got {len(args)}")
    return fn(*(_coerce(a) for a in args))


def reciprocal(x: QNumber) -> QNumber:
    return q_lift("reciprocal", x)


# --- Verdicts -------------------------------------------------------------------


def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)


def _gap(x: QNumber, y: QNumber) -> Fraction | None:
    """The constant c with x_n - y_n = c at all but finitely many
    indices, when the two polynomials differ by a constant."""
    return _constant(_poly_add(x.poly, _poly_neg(y.poly)))


def _order(x: QNumber, y: QNumber) -> int | None:
    """Sign of x - y on a density-one index set (-1, 0 or 1) when the
    declared structure decides it, else None.  Every descriptor holds at
    all but finitely many indices, a set of density one.  Without a sign
    for the whole pair, interleaves are compared slot by slot: a slot's
    sign holds on all but a density-zero part of its residue class, so
    one sign shared by every slot is the pair's sign."""
    gap = _gap(x, y)
    if gap is not None:
        return _sign(gap)
    if x.standard is not None and x.standard <= 0 and y.strictly_positive:
        return -1
    if y.standard is not None and y.standard <= 0 and x.strictly_positive:
        return 1
    lx, ly = x.limit, y.limit
    if lx is not None and ly is not None:
        xinf, yinf = isinstance(lx, _Infinite), isinstance(ly, _Infinite)
        if xinf != yinf:
            return 1 if xinf else -1
        if not xinf and lx != ly:
            return _sign(lx - ly)  # equal limits leave the sign open
    signs = {_order(a, b) for a, b in _cycle_slots(x, y)}
    return signs.pop() if len(signs) == 1 else None


def _exact(v) -> Fraction | int:
    """A term as ``term`` reads it: an int or a Fraction as it is, any
    other value through ``Fraction``."""
    return v if type(v) is Fraction or type(v) is int else Fraction(v)


def _terms(x: QNumber, horizon: int) -> Iterator[Fraction | int]:
    """Terms 1..horizon of x, read lazily, each once."""
    return map(_exact, map(x.seq, range(1, horizon + 1)))


def _sweep(horizon: int, hits: Iterable[bool]) -> Verdict:
    """Unknown, with the share of the ``horizon`` indices whose hit is
    true."""
    return unknown(horizon, Fraction(sum(hits), horizon))


def invertible(x: QNumber) -> Verdict:
    """Is zero strictly below |x| through the filter?  Yes exactly when
    reciprocal is admissible; note a positive infinitesimal qualifies (its
    reciprocal is an infinite value)."""
    zero = standard(0)
    order = _order(x, zero)
    if order is not None:
        return YES if order else NO
    slots = _cycle_slots(x, zero)
    if slots and all(_order(a, b) for a, b in slots):
        return YES  # every slot is nonzero on a density-one part of it
    return _sweep(DEFAULT_HORIZON, map(bool, _terms(x, DEFAULT_HORIZON)))


def _cycle_slots(x: QNumber, y: QNumber) -> list[tuple[QNumber, QNumber]]:
    """Pair each interleave component with its counterpart, when the
    structure makes slot positions line up."""
    if x.components is not None and y.components is not None:
        if len(x.components) == len(y.components):
            return list(zip(x.components, y.components))
        return []
    if x.components is not None:
        return [(c, y) for c in x.components]
    if y.components is not None:
        return [(x, c) for c in y.components]
    return []


def q_equal(x: QNumber, y: QNumber, horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Do the sequences agree on a density-one index set?"""
    check_horizon(horizon)
    order = _order(x, y)
    if order is not None:
        return NO if order else YES
    if any(_order(a, b) for a, b in _cycle_slots(x, y)):
        return NO  # a slot decided unequal has positive density
    # map reads x's term before y's at each index, as term() pairs would.
    return _sweep(horizon, map(operator.eq, _terms(x, horizon), _terms(y, horizon)))


def q_less(x: QNumber, y: QNumber, horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Is x_n < y_n on a density-one index set?"""
    check_horizon(horizon)
    order = _order(x, y)
    if order is not None:
        return YES if order < 0 else NO
    return _sweep(horizon, map(operator.lt, _terms(x, horizon), _terms(y, horizon)))


@dataclass(frozen=True)
class Classification:
    """Size class of a sequence number; Unknown carries prefix evidence."""

    kind: str  # "infinitesimal" | "infinite" | "finite-appreciable" | "unknown"
    horizon: int | None = None
    sample: Fraction | None = None

    def __str__(self):
        if self.kind == "unknown":
            return f"unknown(term@{self.horizon}={self.sample})"
        return self.kind


def q_classify(x: QNumber, horizon: int = DEFAULT_HORIZON) -> Classification:
    """Infinitesimal: below every positive bound through the filter (the
    zero standard counts).  Infinite: above every natural bound.  Standard
    or convergent elsewhere: finite-appreciable."""
    check_horizon(horizon)
    value = x.standard
    if value is not None:
        return Classification("infinitesimal" if value == 0
                              else "finite-appreciable")
    limit = x.limit
    if isinstance(limit, _Infinite):
        return Classification("infinite")
    if limit is not None:
        return Classification("infinitesimal" if limit == 0
                              else "finite-appreciable")
    return Classification("unknown", horizon, x.term(horizon))


def infinitely_close(x: QNumber, y: QNumber,
                     horizon: int = DEFAULT_HORIZON) -> Verdict:
    """Is |x - y| zero or infinitesimal?  Never sweeps: Unknown carries
    |x_h - y_h| at the horizon."""
    check_horizon(horizon)
    if _order(x, y) == 0:
        return YES
    if _gap(x, y) is not None:
        return NO  # a constant gap; a zero gap was equality above
    lx, ly = x.limit, y.limit
    if lx is not None and ly is not None and not (
            isinstance(lx, _Infinite) and isinstance(ly, _Infinite)):
        return YES if lx == ly else NO
    return unknown(horizon, abs(x.term(horizon) - y.term(horizon)))
