"""Repeated independent tests: run-count conjunction series, their
disjunctions, exact binomial probabilities, the variance tail bound, and
a seeded sampling harness.

The n-th test is a fresh atom, and independence with equal marginals is
realized by the product measure on those atoms.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import mul

from .errors import EmptyRangeError, InvalidArgumentError
from .formulas import And, Atom, AtomRef, Not, Or, Sentence
from .measures import BFunction, _size

_RationalLike = Fraction | int


@dataclass(frozen=True)
class TestSequence:
    """r distinct test atoms with one shared success probability."""

    atoms: tuple[Atom, ...]
    p: Fraction

    def __post_init__(self):
        if len(self.atoms) < 1:
            raise InvalidArgumentError("need at least one test")
        if len({a.id for a in self.atoms}) != len(self.atoms):
            raise InvalidArgumentError("test atoms must be distinct")
        if not 0 <= self.p <= 1:
            raise InvalidArgumentError(f"success probability {self.p} outside [0, 1]")

    @classmethod
    def of(cls, r: int, p: _RationalLike) -> "TestSequence":
        return cls(tuple(Atom(i, f"X{i + 1}") for i in range(r)), Fraction(p))

    @property
    def r(self) -> int:
        return len(self.atoms)

    def st(self, n: int) -> Sentence:
        """The n-th test sentence, 1-based."""
        if not 1 <= n <= self.r:
            raise InvalidArgumentError(f"test index {n} outside 1..{self.r}")
        return AtomRef(self.atoms[n - 1])


@dataclass(frozen=True)
class RangeSpec:
    """Real bounds [a, b] and the derived integer run-count window [k, l]:
    k is the least integer with a <= k, l the greatest with l <= b, both
    clamped to [0, r]."""

    a: Fraction
    b: Fraction
    k: int
    l: int

    @classmethod
    def derive(cls, a: _RationalLike, b: _RationalLike, r: int) -> "RangeSpec":
        a = Fraction(a)
        b = Fraction(b)
        k = max(math.ceil(a), 0)
        l = min(math.floor(b), r)
        return cls(a, b, k, l)

    @property
    def empty(self) -> bool:
        return self.k > self.l


def enumerate_series(ts: TestSequence, r: int, k: int) -> list[Sentence]:
    """All left-nested conjunction chains of the first r tests with the
    positive occurrences at exactly k positions, positive-position sets in
    colexicographic order (the largest differing position decides)."""
    if not 1 <= r <= ts.r:
        raise InvalidArgumentError(f"range {r} outside 1..{ts.r}")
    if not 0 <= k <= r:
        raise InvalidArgumentError(f"run count {k} outside 0..{r}")

    # rows[j]: the chains of the first n tests with j positives, for each
    # j from which k is still reachable; each chain is the shared prefix
    # of its two extensions.
    first = ts.st(1)
    rows = {0: [Not(first)], 1: [first]}
    for n in range(2, r + 1):
        test = ts.st(n)
        neg = Not(test)
        rows = {j: [And(prefix, neg) for prefix in rows.get(j, ())]
                + [And(prefix, test) for prefix in rows.get(j - 1, ())]
                for j in range(max(0, k - r + n), min(k, n) + 1)}
    return rows[k]


def t_disjunction(ts: TestSequence, r: int, k: int) -> Sentence:
    """Left-fold disjunction of the (r, k) series in enumeration order."""
    series = enumerate_series(ts, r, k)
    node = series[0]
    for term in series[1:]:
        node = Or(node, term)
    return node


def t_range(ts: TestSequence, r: int, a: _RationalLike, b: _RationalLike) -> Sentence:
    """Disjunction of the run-count disjunctions for every integer count in
    the derived window; an empty window is an error, not a silent falsum."""
    spec = RangeSpec.derive(a, b, r)
    if spec.empty:
        raise EmptyRangeError(
            f"bounds [{spec.a}, {spec.b}] leave no run count in 0..{r}")
    node = t_disjunction(ts, r, spec.k)
    for j in range(spec.k + 1, spec.l + 1):
        node = Or(node, t_disjunction(ts, r, j))
    return node


def product_bfunction(ts: TestSequence) -> BFunction:
    """Product measure: each test succeeds independently with mass p.

    Minterm j has weight num^k (den-num)^(r-k) over den^r, where k counts
    the successes in j.  Every test shares p, so prefixing one more test
    doubles the weight list: failures scale it by den-num, successes by
    num (a Kronecker product)."""
    r = ts.r
    num, den = ts.p.numerator, ts.p.denominator
    comp = den - num
    _size(r)  # the atom cap, before the list doubles r times
    weights = [1]
    for _ in range(r):
        weights = [*map(mul, weights, repeat(comp)), *map(mul, weights, repeat(num))]
    # gcd(num, den - num) = 1, so the weights have no common factor.
    return BFunction._of(r, tuple(weights), den**r)


# Term ratios folded one at a time before _window_numerator merges pairwise.
_RUN = 32


@functools.cache
def _primes(bits: int) -> tuple[int, ...]:
    """The primes below 2**bits, by the sieve of Eratosthenes; cached, so
    every r of one bit length reads one table."""
    bound = 1 << bits
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, bound, i)))
    return tuple(compress(range(bound), sieve))


def _balanced(merge, items: list, empty):
    """Fold ``items`` with an associative ``merge`` in pairwise rounds, so
    that the big merges get operands of equal size."""
    while len(items) > 1:
        pairs = iter(items)
        merged = [*map(merge, pairs, pairs)]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0] if items else empty


def _merge_ratios(left: tuple, right: tuple) -> tuple:
    """(P, Q, T) of two adjacent ranges of term ratios as one range."""
    p1, q1, t1 = left
    p2, q2, t2 = right
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _binomial(r: int, k: int) -> int:
    """C(r, k) for 0 <= k <= r.

    Beyond k of about 21 r^0.4 (measured crossover on CPython 3.11),
    ``math.comb``'s divide-and-conquer with big divisions loses to the
    prime factorisation (Goetgheluck, Amer. Math. Monthly 94, 1987): q
    divides C(r, k) q^e times, e from Legendre's formula, and e is the
    number of carries when adding k and r-k in base q, so at most 1 for
    q > sqrt(r) and exactly 1 for q > r-k."""
    k = min(k, r - k)
    if k < 21 * r**0.4:
        return math.comb(r, k)
    m = r - k
    primes = _primes(r.bit_length())
    small = bisect_right(primes, math.isqrt(r))
    mid = bisect_right(primes, m)
    factors = []
    for q in primes[:small]:
        e = 0
        a, b, c = r, k, m
        while a:
            a, b, c = a // q, b // q, c // q
            e += a - b - c
        if e:
            factors.append(q**e)
    factors += [q for q in primes[small:mid] if r % q < k % q]
    factors += primes[mid:bisect_right(primes, r)]
    return _balanced(mul, factors, 1)


def _window_numerator(r: int, k: int, l: int, num: int, comp: int) -> int:
    """Sum of C(r, j) num^j comp^(r-j) for j in k..l, 0 <= k <= l <= r.

    Term j+1 is term j times a_j / b_j with a_j = (r-j) num and
    b_j = (j+1) comp, so the sum is term k times 1 + T/Q, where a range
    of ratios has P = prod a, Q = prod b and T/Q = sum of the prefix
    products P_i/Q_i.  Binary splitting (Haible & Papanikolaou, ANTS-III,
    LNCS 1423, 1998) builds (P, Q, T) for runs of _RUN ratios one ratio at
    a time, while the numbers are small, then merges the runs pairwise, so
    that every big product is balanced.  Q is comp^(l-k) (k+1)...l, and
    C(r, k) (Q + T) is divisible by (k+1)...l, which leaves one exact
    division.  num = 0 or comp = 0 needs no case of its own: 0**0 == 1
    keeps the single nonzero term."""
    triples = []
    for start in range(k, l, _RUN):
        p = q = 1
        t = 0
        for j in range(start, min(start + _RUN, l)):
            a = (r - j) * num
            b = (j + 1) * comp
            t = t * b + p * a
            p *= a
            q *= b
        triples.append((p, q, t))
    _, q, t = _balanced(_merge_ratios, triples, (1, 1, 0))
    inner = _binomial(r, k) * (q + t) // math.perm(l, l - k)
    return inner * num**k * comp ** (r - l)


def _bernoulli_p(r: int, p: _RationalLike) -> Fraction:
    """The checked success probability of r repeated tests."""
    if r < 1:
        raise InvalidArgumentError("need at least one test")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InvalidArgumentError(f"success probability {p} outside [0, 1]")
    return p


def _window_prob(r: int, k: int, l: int, p: Fraction) -> Fraction:
    num, den = p.numerator, p.denominator
    # den - num is the numerator of 1-p over the same denominator.
    return Fraction(_window_numerator(r, k, l, num, den - num), den**r)


def point_prob(r: int, k: int, p: _RationalLike) -> Fraction:
    """Exact binomial term C(r, k) p^k (1-p)^(r-k)."""
    p = _bernoulli_p(r, p)
    if not 0 <= k <= r:
        raise InvalidArgumentError(f"run count {k} outside 0..{r}")
    return _window_prob(r, k, k, p)


def range_prob(r: int, a: _RationalLike, b: _RationalLike, p: _RationalLike) -> Fraction:
    """Exact sum of binomial terms over the derived run-count window;
    an empty window sums to zero."""
    p = _bernoulli_p(r, p)
    spec = RangeSpec.derive(a, b, r)
    if spec.empty:
        return Fraction(0)
    return _window_prob(r, spec.k, spec.l, p)


def lln_bound(r: int, p: _RationalLike, eps: _RationalLike) -> Fraction:
    """Variance tail bound 1 - p(1-p)/(r eps^2); exact and unclamped, so
    it may be negative (vacuous) for small r."""
    p = _bernoulli_p(r, p)
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidArgumentError("eps must be positive")
    return 1 - p * (1 - p) / (r * eps * eps)


def _trial_frequency(seed: int, index: int, r: int, p: Fraction) -> Fraction:
    """One sampled world from the product measure, reduced to its success
    frequency.  The stream is derived from (seed, index) alone, so results
    never depend on execution order."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    rng = random.Random(digest)
    num = p.numerator
    den = p.denominator
    successes = 0
    for _ in range(r):
        if rng.randrange(den) < num:
            successes += 1
    return Fraction(successes, r)


def simulate_frequencies(
    ts: TestSequence, trials: int, seed: int, workers: int = 1
) -> list[Fraction]:
    """Sampled success frequencies for ``trials`` independent worlds.

    Deterministic given the seed: each trial owns a private stream keyed
    by (seed, trial index).  The trials run serially; ``workers`` is
    accepted for compatibility and ignored, since a thread pool only
    slowed this interpreter-bound loop down.
    """
    if trials < 1:
        raise InvalidArgumentError("need at least one trial")
    r = ts.r
    p = ts.p
    return [_trial_frequency(seed, i, r, p) for i in range(trials)]
