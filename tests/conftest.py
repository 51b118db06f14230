"""Shared generators for the test suite: random sentences, random exact
measures, and exhaustive sentence corpora; a recursion-headroom guard;
an independent recursive evaluator, per-minterm mass sum,
distribution-file parser, run-count series and binomial window sum; an
independent oracle for the derivability boundary of the proof kernel;
and an independent membership oracle for described index sets."""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import sys
from fractions import Fraction
from typing import Mapping

from plogic.formulas import And, Atom, AtomRef, Implies, Not, Or, Sentence
from plogic.measures import BFunction
from plogic.parsing import format_sentence


def make_atoms(names: str) -> list[AtomRef]:
    return [AtomRef(Atom(i, n)) for i, n in enumerate(names)]


def random_sentence(rng: random.Random, atoms, depth: int,
                    sugar: bool = True) -> Sentence:
    """Random sentence tree of the given depth budget (atoms cost 1)."""
    if depth <= 1 or rng.random() < 0.2:
        return rng.choice(atoms)
    roll = rng.random()
    if roll < 0.35:
        return Not(random_sentence(rng, atoms, depth - 1, sugar))
    left = random_sentence(rng, atoms, depth - 1, sugar)
    right = random_sentence(rng, atoms, depth - 1, sugar)
    if not sugar or roll < 0.6:
        return And(left, right)
    if roll < 0.8:
        return Or(left, right)
    return Implies(left, right)


@contextlib.contextmanager
def recursion_headroom():
    """Set the recursion limit to 150 frames above the caller's stack depth
    for the block, so that any step recursing once per level of an input a
    few hundred deep fails fast; the old limit comes back afterwards."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def random_bfunction(rng: random.Random, n: int) -> BFunction:
    """Random strictly positive exact-rational measure on 2^n minterms."""
    weights = [rng.randrange(1, 30) for _ in range(1 << n)]
    total = sum(weights)
    return BFunction(n, tuple(Fraction(w, total) for w in weights))


def random_sparse_bfunction(rng: random.Random, n: int) -> BFunction:
    """Random measure that zeroes some minterms (but never all)."""
    size = 1 << n
    weights = [rng.randrange(0, 4) for _ in range(size)]
    if not any(weights):
        weights[rng.randrange(size)] = 1
    total = sum(weights)
    return BFunction(n, tuple(Fraction(w, total) for w in weights))


def reference_series(ts, r: int, k: int) -> list[Sentence]:
    """The (r, k) run-count series by its defining recursion: the chains
    of r - 1 tests with k positives, each extended by the negated r-th
    test, then those with k - 1 positives extended by the r-th test."""
    test = ts.st(r)
    if r == 1:
        return {0: [Not(test)], 1: [test]}.get(k, [])
    out = [And(prefix, Not(test)) for prefix in reference_series(ts, r - 1, k)]
    if k >= 1:
        out += [And(prefix, test) for prefix in reference_series(ts, r - 1, k - 1)]
    return out


def reference_window_prob(r: int, a: int, b: int, p: Fraction) -> Fraction:
    """Probability that r independent tests of success chance p succeed
    between a and b times inclusive: the binomial terms summed one by one
    as Fractions, independent of plogic.trials' integer kernel."""
    return sum((math.comb(r, j) * p**j * (1 - p) ** (r - j)
                for j in range(r + 1) if a <= j <= b), Fraction(0))


def exhaustive_sentences(atoms, depth: int) -> list[Sentence]:
    """Every distinct kernel tree of depth <= depth (atoms have depth 1)."""
    if depth == 1:
        return list(atoms)
    smaller = exhaustive_sentences(atoms, depth - 1)
    out: dict[Sentence, None] = dict.fromkeys(smaller)
    for s in smaller:
        out.setdefault(Not(s), None)
    for left in smaller:
        for right in smaller:
            out.setdefault(And(left, right), None)
    return list(out)


# -- derivability-boundary oracle -------------------------------------------
#
# Modus ponens only takes apart the implication shape !(x & !y), so the
# units a deduction cannot look inside are the atoms and the maximal
# conjunctions whose right operand is not a negation.  A tautology has a
# proof exactly when it stays true with those units as free leaves; the
# helpers below decide that by brute force, sharing no code with
# plogic.synthesis.


def _unit_name(node: Sentence) -> str:
    """A unit's name as NotDerivableError prints it."""
    if type(node) is AtomRef:
        return node.atom.name
    return f"({format_sentence(node)})"


def _is_transparent_and(node: Sentence) -> bool:
    return type(node) is And and type(node.right) is Not


def opaque_units(s: Sentence) -> list[str]:
    """Names of the opaque units of ``s``, in first-occurrence order."""
    names: dict[str, None] = {}
    stack = [s]
    while stack:
        node = stack.pop()
        if type(node) is Not:
            stack.append(node.child)
        elif _is_transparent_and(node):
            stack.extend((node.right, node.left))
        else:
            names.setdefault(_unit_name(node), None)
    return list(names)


def unit_value(s: Sentence, assignment: Mapping[str, int]) -> int:
    """Truth value of ``s`` with every opaque unit set to the bit that
    ``assignment`` gives its name."""
    if type(s) is Not:
        return 1 - unit_value(s.child, assignment)
    if _is_transparent_and(s):
        return unit_value(s.left, assignment) & unit_value(s.right, assignment)
    return assignment[_unit_name(s)]


def reference_value(s: Sentence, bits) -> int:
    """Truth value of ``s`` where atom i reads ``bits[i]``: a plain
    recursive evaluator, independent of plogic.formulas' fold."""
    if type(s) is AtomRef:
        return bits[s.atom.id]
    if type(s) is Not:
        return 1 - reference_value(s.child, bits)
    return reference_value(s.left, bits) & reference_value(s.right, bits)


def reference_mass(n: int, mass, s: Sentence) -> Fraction:
    """Mass of the minterms that satisfy ``s``, where minterm j (atom 0
    its most significant bit) has mass ``mass[j]``: a plain per-minterm
    Fraction sum over ``reference_value``, independent of plogic.measures'
    integer kernels."""
    total = Fraction(0)
    for idx, m in enumerate(mass):
        bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
        if reference_value(s, bits):
            total += m
    return total


def reference_load(text: str) -> tuple[int, list[Fraction]]:
    """Width and per-minterm masses of a well-formed distribution file:
    every line parsed on its own with ``Fraction``, independent of
    plogic.measures' token memo.  Raises ValueError on a malformed file."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    n = len(rows[0][0])
    mass = [Fraction(0)] * (1 << n)
    seen = set()
    for bits, token in rows:
        if len(bits) != n or set(bits) - {"0", "1"} or bits in seen:
            raise ValueError(f"bad minterm {bits!r}")
        seen.add(bits)
        value = Fraction(token)
        if value < 0:
            raise ValueError(f"negative mass {token!r}")
        mass[int(bits, 2)] = value
    if sum(mass) != 1:
        raise ValueError("masses do not sum to 1")
    return n, mass


def falsifying_unit_assignments(s: Sentence) -> list[dict[str, int]]:
    """Every assignment of the opaque units of ``s`` that makes it false;
    empty exactly when ``s`` lies inside the derivable fragment."""
    names = opaque_units(s)
    out = []
    for bits in itertools.product((0, 1), repeat=len(names)):
        assignment = dict(zip(names, bits))
        if not unit_value(s, assignment):
            out.append(assignment)
    return out


def is_falsifying_witness(s: Sentence, assignment) -> bool:
    """True iff ``assignment`` gives a bit to exactly the opaque units of
    ``s`` and makes ``s`` false."""
    return (isinstance(assignment, dict)
            and set(assignment) == set(opaque_units(s))
            and set(assignment.values()) <= {0, 1}
            and not unit_value(s, assignment))


# -- index-set oracle --------------------------------------------------------
#
# A set is described by a tuple: ("finite", members), ("cofinite",
# excluded), ("periodic", preamble, period), ("opaque", step, modulus,
# below) for {n : n*step % modulus < below}, ("named", name), and the
# derived ("not", d) and ("and", d, e).  Away from the finitely many listed
# indices, every described set follows a "generic" membership that is
# periodic in n; the helpers below count with that, sharing no code with
# plogic.density.

_NAMED = {"naturals": ("cofinite", ()), "empty_set": ("finite", ()),
          "evens": ("periodic", (), (False, True))}


def _generic(desc, n: int) -> bool:
    """Membership of n in ``desc`` with every listed index ignored."""
    kind = desc[0]
    if kind == "named":
        return _generic(_NAMED[desc[1]], n)
    if kind == "not":
        return not _generic(desc[1], n)
    if kind == "and":
        return _generic(desc[1], n) and _generic(desc[2], n)
    if kind == "periodic":
        preamble, period = desc[1], desc[2]
        return period[(n - len(preamble) - 1) % len(period)]
    if kind == "opaque":
        step, modulus, below = desc[1:]
        return (n * step) % modulus < below
    return kind == "cofinite"


def reference_member(desc, n: int) -> bool:
    """Membership of n in the described set."""
    kind = desc[0]
    if kind == "named":
        return reference_member(_NAMED[desc[1]], n)
    if kind == "not":
        return not reference_member(desc[1], n)
    if kind == "and":
        return reference_member(desc[1], n) and reference_member(desc[2], n)
    if kind == "periodic" and n <= len(desc[1]):
        return desc[1][n - 1]
    if kind in ("finite", "cofinite") and n in desc[1]:
        return kind == "finite"
    return _generic(desc, n)


def listed_indices(desc) -> set[int]:
    """Every index where membership may differ from the generic one."""
    kind = desc[0]
    if kind in ("not", "and"):
        return set().union(*(listed_indices(d) for d in desc[1:]))
    if kind in ("finite", "cofinite"):
        return set(desc[1])
    if kind == "periodic":
        return set(range(1, len(desc[1]) + 1))
    return set()


def _generic_period(desc) -> int:
    """A period of the generic membership."""
    kind = desc[0]
    if kind == "named":
        return _generic_period(_NAMED[desc[1]])
    if kind in ("not", "and"):
        return math.lcm(*(_generic_period(d) for d in desc[1:]))
    if kind == "periodic":
        return len(desc[2])
    if kind == "opaque":
        return desc[2]
    return 1


def reference_count(desc, n: int) -> int:
    """Members of the described set in {1..n}: whole generic periods, the
    generic remainder, then a correction at each listed index."""
    size = _generic_period(desc)
    per_period = sum(_generic(desc, i) for i in range(1, size + 1))
    count = (n // size) * per_period + sum(
        _generic(desc, i) for i in range(1, n % size + 1))
    return count + sum(reference_member(desc, m) - _generic(desc, m)
                       for m in listed_indices(desc) if m <= n)


def reference_decided(desc) -> bool:
    """Whether the density layer decides filter membership for ``desc``:
    no opaque part, or an opaque part met by an eventually empty set."""
    kind = desc[0]
    if kind == "opaque":
        return False
    if kind == "not":
        return reference_decided(desc[1])
    if kind == "and":
        left, right = desc[1:]
        return ((reference_decided(left) and reference_decided(right))
                or reference_eventually_empty(left)
                or reference_eventually_empty(right))
    return True


def reference_eventually_empty(desc) -> bool:
    """Decided, and with no generic member: only listed indices belong."""
    return reference_decided(desc) and not any(
        _generic(desc, i) for i in range(1, _generic_period(desc) + 1))


def reference_filter(desc, horizon: int) -> str:
    """The filter verdict as ``str(filter_membership(...))`` prints it."""
    if reference_decided(desc):
        return "yes" if all(_generic(desc, i) for i in range(
            1, _generic_period(desc) + 1)) else "no"
    return f"unknown(freq@{horizon}={Fraction(reference_count(desc, horizon), horizon)})"
