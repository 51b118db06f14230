"""Part-set frequencies, the density-one filter, and index-set algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    listed_indices,
    reference_count,
    reference_decided,
    reference_filter,
    reference_member,
)
from plogic.density import (
    CofiniteSet,
    EventuallyPeriodicSet,
    FiniteSet,
    OpaqueSet,
    complement,
    empty_set,
    evens,
    filter_membership,
    from_predicate,
    intersect,
    naturals,
    part_frequency,
)
from plogic.errors import InvalidArgumentError


def _random_index_set(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return FiniteSet(tuple(rng.sample(range(1, 60), rng.randrange(0, 8))))
    if kind == 1:
        return CofiniteSet(tuple(rng.sample(range(1, 60), rng.randrange(0, 8))))
    if kind == 2:
        period = tuple(rng.randrange(2) == 1 for _ in range(rng.randrange(1, 6)))
        preamble = tuple(rng.randrange(2) == 1 for _ in range(rng.randrange(0, 5)))
        return EventuallyPeriodicSet(preamble, period)
    modulus = rng.randrange(2, 7)
    return OpaqueSet(lambda n, _m=modulus: n % _m != 1)


class TestPartFrequency:
    def test_full_set_has_frequency_one(self):
        for n in (1, 5, 100):
            assert part_frequency(naturals(), n) == 1

    def test_empty_set_has_frequency_zero(self):
        for n in (1, 5, 100):
            assert part_frequency(empty_set(), n) == 0

    def test_evens_at_four(self):
        assert part_frequency(evens(), 4) == Fraction(1, 2)

    def test_finite_counting(self):
        s = FiniteSet((2, 3, 50))
        assert part_frequency(s, 3) == Fraction(2, 3)
        assert part_frequency(s, 100) == Fraction(3, 100)

    def test_cofinite_counting(self):
        s = CofiniteSet((1, 2, 3))
        assert part_frequency(s, 6) == Fraction(1, 2)

    def test_periodic_with_preamble(self):
        s = EventuallyPeriodicSet((True, False), (True, True, False))
        # members: 1, then 3,4, 6,7, 9,10, ...
        assert [s.contains(i) for i in range(1, 8)] == [
            True, False, True, True, False, True, True]
        assert part_frequency(s, 7) == Fraction(5, 7)

    def test_closed_forms_match_brute_force(self):
        rng = random.Random(70)
        for _ in range(100):
            s = _random_index_set(rng)
            for n in (1, 7, 33, 100):
                brute = sum(1 for i in range(1, n + 1) if s.contains(i))
                assert part_frequency(s, n) == Fraction(brute, n)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            part_frequency(naturals(), 0)


class TestFrequencyIdentities:
    """The four exact frequency identities, across all set kinds."""

    def test_identities(self):
        rng = random.Random(71)
        for _ in range(120):
            a = _random_index_set(rng)
            b = _random_index_set(rng)
            n = rng.randrange(1, 80)
            assert part_frequency(naturals(), n) == 1
            assert part_frequency(empty_set(), n) == 0
            assert part_frequency(a, n) + part_frequency(complement(a), n) == 1
            assert (part_frequency(intersect(a, b), n)
                    + part_frequency(intersect(a, complement(b)), n)
                    == part_frequency(a, n))


class TestFilterMembership:
    def test_full_set_in(self):
        assert filter_membership(naturals()).is_yes

    def test_empty_set_out(self):
        assert filter_membership(empty_set()).is_no

    def test_cofinite_in(self):
        assert filter_membership(CofiniteSet(tuple(range(1, 7)))).is_yes

    def test_finite_out(self):
        assert filter_membership(FiniteSet((1, 2, 3))).is_no

    def test_evens_out(self):
        assert filter_membership(evens()).is_no

    def test_all_ones_period_in(self):
        s = EventuallyPeriodicSet((False, False), (True,))
        assert filter_membership(s).is_yes

    def test_opaque_unknown_with_evidence(self):
        verdict = filter_membership(from_predicate(lambda n: n % 3 != 0),
                                    horizon=300)
        assert verdict.is_unknown
        assert verdict.horizon == 300
        assert verdict.frequency == Fraction(200, 300)

    def test_intersection_closure(self):
        a = CofiniteSet((1, 5))
        b = CofiniteSet((2, 9))
        assert filter_membership(intersect(a, b)).is_yes

    def test_superset_closure(self):
        small = CofiniteSet((1, 2, 3, 4))
        large = CofiniteSet((2, 3))  # superset: fewer exclusions
        assert all(large.contains(i) for i in range(1, 50)
                   if small.contains(i))
        assert filter_membership(small).is_yes
        assert filter_membership(large).is_yes


class TestSetAlgebra:
    def test_complement_involution_pointwise(self):
        rng = random.Random(72)
        for _ in range(50):
            s = _random_index_set(rng)
            double = complement(complement(s))
            for i in range(1, 60):
                assert double.contains(i) == s.contains(i)

    def test_intersect_matches_pointwise(self):
        rng = random.Random(73)
        for _ in range(80):
            a = _random_index_set(rng)
            b = _random_index_set(rng)
            meet = intersect(a, b)
            for i in range(1, 60):
                assert meet.contains(i) == (a.contains(i) and b.contains(i))

    def test_decidable_classes_stay_decidable(self):
        a = CofiniteSet((3,))
        b = EventuallyPeriodicSet((), (True, False, True))
        assert not isinstance(intersect(a, b), OpaqueSet)
        assert not isinstance(complement(b), OpaqueSet)

    def test_horizon_is_checked_for_every_class(self):
        for index_set in (naturals(), empty_set(), evens(),
                          from_predicate(lambda n: True)):
            with pytest.raises(InvalidArgumentError):
                filter_membership(index_set, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteSet((0, 1))
        with pytest.raises(ValueError):
            EventuallyPeriodicSet((), ())


class TestSparseEncoding:
    def test_far_exclusion_meets_evens_at_once(self):
        # Cost must follow the number of listed indices, not their size:
        # one bit per index up to 10**12 would never finish.
        big = 10**12
        meet = intersect(CofiniteSet((big,)), evens())
        assert [meet.contains(n) for n in (big - 2, big - 1, big, big + 1, big + 2)] == [
            True, False, False, False, True]
        assert filter_membership(meet).is_no
        assert part_frequency(meet, 10**6) == Fraction(1, 2)
        assert part_frequency(meet, big + 2) == Fraction(big // 2, big + 2)

    def test_eventually_empty_meets_opaque_is_decided(self):
        eventually_empty = EventuallyPeriodicSet((True,), (False,))
        opaque = from_predicate(lambda n: n % 3 != 0)
        for meet in (intersect(eventually_empty, opaque),
                     intersect(opaque, eventually_empty)):
            assert not isinstance(meet, OpaqueSet)
            assert filter_membership(meet).is_no
            assert [meet.contains(n) for n in (1, 2, 3)] == [True, False, False]


_INDICES = st.lists(st.integers(1, 10**6), max_size=6)
_BITS = st.lists(st.booleans(), max_size=8).map(tuple)
_DESCRIPTIONS = st.one_of(
    st.tuples(st.just("finite"), _INDICES.map(tuple)),
    st.tuples(st.just("cofinite"), _INDICES.map(tuple)),
    st.tuples(st.just("periodic"), _BITS,
              st.lists(st.booleans(), min_size=1, max_size=6).map(tuple)),
    st.tuples(st.just("named"), st.sampled_from(["naturals", "empty_set", "evens"])),
    st.tuples(st.just("opaque"), st.integers(1, 9), st.integers(2, 9),
              st.integers(0, 9)),
)
_NAMED_SETS = {"naturals": naturals, "empty_set": empty_set, "evens": evens}


def _build(desc):
    kind = desc[0]
    if kind == "finite":
        return FiniteSet(desc[1])
    if kind == "cofinite":
        return CofiniteSet(desc[1])
    if kind == "periodic":
        return EventuallyPeriodicSet(desc[1], desc[2])
    if kind == "named":
        return _NAMED_SETS[desc[1]]()
    step, modulus, below = desc[1:]
    return from_predicate(lambda n: (n * step) % modulus < below)


@settings(max_examples=150, deadline=None)
@given(_DESCRIPTIONS, _DESCRIPTIONS, st.lists(st.integers(1, 10**6 + 1), max_size=4),
       st.integers(1, 300))
def test_set_algebra_matches_the_oracle(da, db, points, horizon):
    """contains, part_frequency, filter_membership, complement and
    intersect agree with an oracle that reads only the descriptions."""
    a, b = _build(da), _build(db)
    na, nb = ("not", da), ("not", db)
    derived = [(a, da), (complement(a), na), (intersect(a, b), ("and", da, db)),
               (intersect(b, complement(a)), ("and", db, na)),
               (intersect(complement(a), complement(b)), ("and", na, nb))]
    near = {m + d for m in listed_indices(("and", da, db)) for d in (-1, 0, 1)}
    probes = sorted((near | set(points) | set(range(1, 40))) - {0})
    for index_set, desc in derived:
        decided = reference_decided(desc)
        assert isinstance(index_set, OpaqueSet) is not decided, desc
        assert [index_set.contains(n) for n in probes] == [
            reference_member(desc, n) for n in probes], desc
        # An opaque set is counted term by term, so keep its sizes small.
        for n in (points if decided else [p % 2000 + 1 for p in points]):
            assert part_frequency(index_set, n) == Fraction(
                reference_count(desc, n), n), (desc, n)
        assert str(filter_membership(index_set, horizon)) == reference_filter(
            desc, horizon), desc
