"""Sequence numbers: lifted arithmetic, filter verdicts, classification."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plogic.density import DEFAULT_HORIZON
from plogic.errors import InvalidArgumentError, ReciprocalOfInfinitesimalOrZeroError
from plogic.qnumbers import (
    cycle,
    from_function,
    harmonic,
    infinitely_close,
    invertible,
    q_classify,
    q_equal,
    q_less,
    q_lift,
    ramp,
    reciprocal,
    standard,
)

F = Fraction


def _random_seq(seed):
    """A pure pseudo-random rational sequence (same index, same value)."""
    def seq(n, _s=seed):
        h = hash((_s, n)) & 0xFFFF
        return F(h % 23 - 11, h % 7 + 1)

    return from_function(seq)


class TestLiftedArithmetic:
    def test_standards_add(self):
        total = standard(2) + standard(3)
        assert total.standard == 5
        assert q_equal(total, standard(5)).is_yes

    def test_standards_multiply_with_reciprocal(self):
        product = standard(2) * reciprocal(standard(2))
        assert product.standard == 1
        assert q_equal(product, standard(1)).is_yes

    def test_additive_inverse(self):
        x = _random_seq(1)
        assert q_equal(x + (-x), standard(0)).is_yes

    def test_lift_dispatch(self):
        x = standard(3)
        assert q_lift("add", x, x).standard == 6
        assert q_lift("*", x, x).standard == 9
        assert q_lift("negate", x).standard == -3
        assert q_lift("reciprocal", x).standard == F(1, 3)
        with pytest.raises(ValueError):
            q_lift("pow", x, x)
        with pytest.raises(ValueError):
            q_lift("add", x)

    def test_lifts_are_pointwise(self):
        x = _random_seq(2)
        y = _random_seq(3)
        total = x + y
        product = x * y
        for n in range(1, 50):
            assert total.term(n) == x.term(n) + y.term(n)
            assert product.term(n) == x.term(n) * y.term(n)

    def test_reciprocal_zero_convention(self):
        # zeros map to zero; with a filter-Yes precondition the zero set is
        # negligible, so the product is still a filter unit
        x = standard(2).with_edits({4: F(0)})
        inv = reciprocal(x)
        assert inv.term(4) == 0
        assert inv.term(5) == F(1, 2)
        assert q_equal(x * inv, standard(1)).is_yes

    def test_reciprocal_requires_yes_verdict(self):
        with pytest.raises(ReciprocalOfInfinitesimalOrZeroError):
            reciprocal(standard(0))
        with pytest.raises(ReciprocalOfInfinitesimalOrZeroError):
            reciprocal(_random_seq(4))  # sign pattern undeclared: Unknown

    def test_lifts_respect_finite_edit_equivalence(self):
        # replacing finitely many terms of an operand changes the lifted
        # result at no other index, so the results stay filter-equal
        x = _random_seq(13)
        y = _random_seq(14)
        edited = x.with_edits({2: F(5), 9: F(-1)})
        plain = x + y
        touched = edited + y
        for n in range(1, 40):
            if n in (2, 9):
                continue
            assert plain.term(n) == touched.term(n)
        assert touched.term(2) == F(5) + y.term(2)

    def test_positive_infinitesimal_is_invertible(self):
        assert invertible(harmonic()).is_yes
        assert q_classify(reciprocal(harmonic())).kind == "infinite"


class TestFieldLaws:
    """Ring identities hold with Yes verdicts and pointwise equality."""

    def _triples(self):
        rng = random.Random(80)
        for i in range(25):
            yield _random_seq(100 + i), _random_seq(200 + i), _random_seq(300 + i)

    def test_addition_commutes(self):
        for x, y, _z in self._triples():
            assert q_equal(x + y, y + x).is_yes

    def test_addition_associates(self):
        for x, y, z in self._triples():
            assert q_equal((x + y) + z, x + (y + z)).is_yes

    def test_zero_is_neutral(self):
        for x, _y, _z in self._triples():
            assert q_equal(x + standard(0), x).is_yes

    def test_additive_inverse_exists(self):
        for x, _y, _z in self._triples():
            assert q_equal(x + (-x), standard(0)).is_yes

    def test_multiplication_commutes(self):
        for x, y, _z in self._triples():
            assert q_equal(x * y, y * x).is_yes

    def test_multiplication_associates(self):
        for x, y, z in self._triples():
            assert q_equal((x * y) * z, x * (y * z)).is_yes

    def test_one_is_neutral(self):
        for x, _y, _z in self._triples():
            assert q_equal(x * standard(1), x).is_yes

    def test_reciprocal_on_standards(self):
        for a in (F(2), F(-3, 7), F(5, 2)):
            assert q_equal(standard(a) * reciprocal(standard(a)),
                           standard(1)).is_yes

    def test_zero_is_not_one(self):
        assert q_equal(standard(0), standard(1)).is_no

    def test_multiplication_distributes(self):
        for x, y, z in self._triples():
            assert q_equal(x * (y + z), x * y + x * z).is_yes

    def test_two_sides_agree_pointwise(self):
        # independent check of the verdicts above: the identities hold
        # index by index, not just by declared structure
        for x, y, z in self._triples():
            left = x * (y + z)
            right = x * y + x * z
            for n in range(1, 40):
                assert left.term(n) == right.term(n)


class TestOrderLaws:
    _values = [F(-3), F(0), F(1, 2), F(2), F(7, 3)]

    def test_irreflexive(self):
        x = _random_seq(5)
        assert q_less(x, x).is_no
        for a in self._values:
            assert q_less(standard(a), standard(a)).is_no

    def test_transitive(self):
        for a in self._values:
            for b in self._values:
                for c in self._values:
                    if a < b < c:
                        assert q_less(standard(a), standard(b)).is_yes
                        assert q_less(standard(b), standard(c)).is_yes
                        assert q_less(standard(a), standard(c)).is_yes

    def test_addition_preserves_order(self):
        for a in self._values:
            for b in self._values:
                if a < b:
                    for c in self._values:
                        z = standard(c)
                        assert q_less(standard(a) + z, standard(b) + z).is_yes

    def test_positive_multiplication_preserves_order(self):
        for a in self._values:
            for b in self._values:
                if a < b:
                    for c in self._values:
                        if c > 0:
                            z = standard(c)
                            assert q_less(standard(a) * z,
                                          standard(b) * z).is_yes

    def test_standard_trichotomy(self):
        for a in self._values:
            for b in self._values:
                verdicts = (q_less(standard(a), standard(b)).is_yes,
                            q_less(standard(b), standard(a)).is_yes,
                            q_equal(standard(a), standard(b)).is_yes)
                assert sum(verdicts) == 1

    def test_zero_below_harmonic(self):
        assert q_less(standard(0), harmonic()).is_yes
        assert q_less(harmonic(), standard(0)).is_no


class TestEquivalenceVerdicts:
    def test_reflexive(self):
        x = _random_seq(6)
        assert q_equal(x, x).is_yes

    def test_symmetric_and_transitive_on_decidables(self):
        a = standard(F(2, 3))
        b = standard(F(2, 3)).with_edits({5: F(9)})
        c = standard(F(2, 3)).with_edits({1: F(0), 2: F(0)})
        for x, y in ((a, b), (b, a), (b, c), (a, c)):
            assert q_equal(x, y).is_yes

    def test_finitely_many_edits_keep_equality(self):
        x = _random_seq(7)
        edited = x.with_edits({3: F(10), 8: F(-2), 21: F(0)})
        assert q_equal(edited, x).is_yes
        assert edited.term(3) == 10
        assert edited.term(4) == x.term(4)

    def test_distinct_standards_differ(self):
        assert q_equal(standard(0), standard(1)).is_no

    def test_agreement_on_evens_only_is_rejected(self):
        x = standard(0)
        y = standard(1)
        blend = cycle([y, x])  # odd indices from y, even indices from x
        assert blend.term(1) == 1 and blend.term(2) == 0
        assert q_equal(blend, x).is_no
        assert q_equal(blend, y).is_no

    def test_blend_of_equal_components_accepted(self):
        x = standard(F(1, 2))
        assert q_equal(cycle([x, x]), x).is_yes

    def test_opaque_comparison_reports_evidence(self):
        x = _random_seq(8)
        y = _random_seq(9)
        verdict = q_equal(x, y, horizon=120)
        assert verdict.is_unknown
        assert verdict.horizon == 120
        assert verdict.frequency is not None


class TestClassification:
    def test_harmonic_is_infinitesimal(self):
        assert q_classify(harmonic(), horizon=10_000).kind == "infinitesimal"

    def test_ramp_is_infinite(self):
        assert q_classify(ramp(), horizon=10_000).kind == "infinite"

    def test_standard_is_appreciable(self):
        assert q_classify(standard(5)).kind == "finite-appreciable"
        assert q_classify(standard(0)).kind == "infinitesimal"

    def test_constant_polynomial_is_classified(self):
        f = _random_seq(13)
        assert q_classify(f - f, horizon=50).kind == "infinitesimal"
        assert q_classify(f - f + 3, horizon=50).kind == "finite-appreciable"
        assert q_classify((f - f).with_edits({2: F(9)}), horizon=50).kind == "infinitesimal"
        assert q_classify(f + f - f, horizon=50).kind == "unknown"

    def test_unknown_carries_evidence(self):
        result = q_classify(_random_seq(10), horizon=64)
        assert result.kind == "unknown"
        assert result.horizon == 64
        assert result.sample is not None

    def test_close_after_adding_infinitesimal(self):
        five = standard(5)
        assert infinitely_close(five, five + harmonic()).is_yes

    def test_not_close_when_limits_differ(self):
        assert infinitely_close(standard(5), standard(6)).is_no
        assert infinitely_close(standard(5), ramp()).is_no

    def test_close_is_equality_aware(self):
        x = _random_seq(11)
        assert infinitely_close(x, x).is_yes


class TestPurity:
    def test_terms_are_reproducible(self):
        x = _random_seq(12)
        first = x.prefix(30)
        second = x.prefix(30)
        assert first == second

    def test_index_validation(self):
        with pytest.raises(ValueError):
            harmonic().term(0)
        with pytest.raises(ValueError):
            q_equal(standard(1), standard(1), horizon=0)

    def test_every_horizon_is_checked_before_structure_decides(self):
        one, two = standard(1), standard(2)
        for verdict in (q_equal, q_less, infinitely_close):
            with pytest.raises(InvalidArgumentError):
                verdict(one, two, horizon=0)
        with pytest.raises(InvalidArgumentError):
            q_classify(one, horizon=-1)


class TestStructuralOrder:
    """Every verdict reads one structural comparison of x - y."""

    def test_equal_standards_are_not_less(self):
        assert q_less(cycle([standard(1), standard(1)]), standard(1)).is_no
        assert q_less(reciprocal(standard(2)), standard(F(1, 2))).is_no

    def test_constant_gap_is_seen_through_edits(self):
        f = _random_seq(15)
        assert infinitely_close((f + standard(1)).with_edits({2: F(5)}), f).is_no

    def test_zero_polynomial_is_not_invertible(self):
        f = _random_seq(16)
        assert invertible(f - f).is_no

    def test_slots_decided_nonzero_are_invertible(self):
        # The slots differ in sign, so no one sign is shared, but each
        # slot is nonzero; no sweep is needed.
        x = cycle([standard(1), standard(-1)])
        assert invertible(x).is_yes
        assert reciprocal(x).prefix(4) == [1, -1, 1, -1]

    def test_close_reads_opaque_sequences_only_at_the_horizon(self):
        reads = []

        def counted(tag, period):
            def seq(n):
                reads.append((tag, n))
                return F(n % period)
            return from_function(seq)

        verdict = infinitely_close(counted("x", 5), counted("y", 3), horizon=10_000)
        assert verdict.is_unknown
        assert (verdict.horizon, verdict.frequency) == (10_000, 1)
        assert sorted(reads) == [("x", 10_000), ("y", 10_000)]

    def test_interleaves_built_twice_are_ordered_slot_by_slot(self):
        # Each build is a fresh leaf, so only the slots compare them.
        x = cycle([standard(1), harmonic()])
        y = cycle([standard(1), harmonic()])
        assert q_less(x, y).is_no
        assert q_less(y, x).is_no
        assert q_equal(x, y).is_yes

    def test_every_slot_below_is_below(self):
        x = cycle([standard(1), standard(2)])
        y = cycle([standard(3), standard(5)])
        assert q_less(x, y).is_yes
        assert q_less(y, x).is_no

    def test_one_slot_decided_unequal_is_unequal(self):
        x = cycle([standard(1), _random_seq(17)])
        y = cycle([standard(2), _random_seq(18)])
        assert q_equal(x, y).is_no
        assert q_less(x, y, horizon=50).is_unknown

    def test_arithmetic_keeps_interleave_slots(self):
        # Reading any term would mean a sweep; structure alone decides.
        reads = []

        def counted(n):
            reads.append(n)
            return F(1, n)

        leaf = from_function(counted, limit=F(0), strictly_positive=True)
        x = cycle([standard(1), leaf])
        y = cycle([standard(1), leaf])
        assert q_equal(x - y, standard(0)).is_yes
        assert invertible(x - y).is_no
        # One interleaved operand: each slot meets the other operand whole.
        assert q_equal(x * 2 + 1, cycle([standard(3), leaf * 2 + 1])).is_yes
        assert q_less(-x, cycle([standard(0), standard(1)])).is_yes
        assert reads == []

    def test_reciprocals_of_one_polynomial_are_one_leaf(self):
        # Equal operands give equal reciprocals: structure decides, and no
        # term is read.
        reads = []

        def counted(n):
            reads.append(n)
            return F(1, n)

        leaf = from_function(counted, limit=F(0), strictly_positive=True)
        assert q_equal(reciprocal(leaf), reciprocal(leaf)).is_yes
        assert q_equal(reciprocal(leaf + 1), reciprocal(1 + leaf)).is_yes
        assert q_less(reciprocal(leaf), reciprocal(leaf) + 1).is_yes
        assert reads == []
        assert q_equal(reciprocal(harmonic()), reciprocal(harmonic())).is_yes

    def test_interleaves_of_unequal_length_keep_no_slots(self):
        x = cycle([standard(1), standard(2)]) + cycle([standard(0)] * 3)
        assert x.components is None
        assert x.prefix(4) == [1, 2, 1, 2]


class TestDescriptorsSurviveEdits:
    """Each descriptor holds at all but finitely many indices, so edits
    and interleaves of one polynomial keep what the structure decides."""

    f = from_function(lambda n: F(n % 5, 3))

    def test_edited_leaf_cancels(self):
        assert q_equal(self.f.with_edits({1: 7}) - self.f, standard(0)).is_yes

    def test_reciprocal_is_a_leaf(self):
        r = reciprocal(ramp())
        assert q_equal(r - r, standard(0)).is_yes

    def test_interleave_of_one_polynomial_keeps_it(self):
        assert q_equal(cycle([self.f, self.f]) + 1, self.f + 1).is_yes

    def test_positivity_survives_a_negative_edit(self):
        assert q_less(standard(0), harmonic().with_edits({3: -1}) * 2).is_yes


# Shared leaves, so that expressions can cancel and compare structurally.
_LEAVES = [harmonic(), ramp(), _random_seq(21), _random_seq(22)]
_small = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


def _grow(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: p[0] + p[1]),
        pairs.map(lambda p: p[0] - p[1]),
        pairs.map(lambda p: p[0] * p[1]),
        children.map(lambda x: -x),
        st.lists(children, min_size=1, max_size=3).map(cycle),
        st.tuples(children, st.dictionaries(st.integers(1, 60), _small,
                                            min_size=1, max_size=2))
        .map(lambda p: p[0].with_edits(p[1])),
    )


_expressions = st.recursive(
    st.one_of(_small.map(standard), st.sampled_from(_LEAVES)), _grow, max_leaves=5)


class TestVerdictsAgree:
    """Decided verdicts never contradict one another."""

    @settings(max_examples=60, deadline=None)
    @given(_expressions, _expressions, st.integers(1, 50))
    def test_equal_less_and_close(self, x, y, horizon):
        if q_equal(x, y, horizon).is_yes:
            assert infinitely_close(x, y, horizon).is_yes
            assert not q_less(x, y, horizon).is_yes
            assert not q_less(y, x, horizon).is_yes
        if q_less(x, y, horizon).is_yes:
            assert not q_less(y, x, horizon).is_yes
            assert not q_equal(x, y, horizon).is_yes

    @settings(max_examples=40, deadline=None)
    @given(_expressions)
    def test_invertible_matches_equality_with_zero(self, x):
        inv = invertible(x)
        eq = q_equal(x, standard(0), horizon=50)
        if not (inv.is_unknown or eq.is_unknown):
            assert inv.is_yes == eq.is_no


#: Representative sequences whose ``seq`` returns each kind of value that
#: ``term`` accepts; every term is exact in its own kind.
_KINDS = {
    "int": lambda n: (n * 3) % 5 - 2,
    "bool": lambda n: n % 3 == 0,
    "float": lambda n: ((n * 5) % 7 - 3) / 4,
    "str": lambda n: f"{(n * 2) % 5 - 2}/{n % 3 + 1}",
    "Decimal": lambda n: Decimal((n * 3) % 7 - 3) / Decimal(2),
    "Fraction": lambda n: F((n * 4) % 9 - 4, 2),
}


def _share(horizon, hit):
    return F(sum(1 for n in range(1, horizon + 1) if hit(n)), horizon)


def _raising_at(k, label):
    def seq(n):
        if n == k:
            raise LookupError(f"{label} at {n}")
        return F(n % 4, 3)
    return from_function(seq)


class TestSweepReads:
    """A sweep's evidence is the share counted over ``term`` itself, and a
    term that fails raises the same error at the same index."""

    HORIZON = 300

    @pytest.mark.parametrize("xkind", sorted(_KINDS))
    @pytest.mark.parametrize("ykind", sorted(_KINDS))
    def test_equal_and_less_count_over_terms(self, xkind, ykind):
        x, y = from_function(_KINDS[xkind]), from_function(_KINDS[ykind])
        h = self.HORIZON
        for verdict, hit in (
                (q_equal(x, y, h), lambda n: x.term(n) == y.term(n)),
                (q_less(x, y, h), lambda n: x.term(n) < y.term(n))):
            assert verdict.is_unknown
            assert (verdict.horizon, verdict.frequency) == (h, _share(h, hit))

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_invertible_counts_over_terms(self, kind):
        x = from_function(_KINDS[kind])
        verdict = invertible(x)
        assert verdict.is_unknown
        assert verdict.horizon == DEFAULT_HORIZON
        assert verdict.frequency == _share(DEFAULT_HORIZON, lambda n: x.term(n) != 0)

    def test_share_is_not_trivial(self):
        # The kinds agree and disagree often enough to test the count.
        x, y = from_function(_KINDS["str"]), from_function(_KINDS["Fraction"])
        assert 0 < q_equal(x, y, self.HORIZON).frequency < 1
        assert 0 < q_less(x, y, self.HORIZON).frequency < 1

    def test_a_failing_term_raises_its_own_error(self):
        x, plain = _raising_at(5, "x"), from_function(_KINDS["Fraction"])
        for sweep in (lambda: q_equal(x, plain), lambda: q_equal(plain, x),
                      lambda: q_less(x, plain), lambda: q_less(plain, x),
                      lambda: invertible(x)):
            with pytest.raises(LookupError, match="^x at 5$"):
                sweep()

    def test_the_earlier_index_fails_first(self):
        x, y = _raising_at(5, "x"), _raising_at(3, "y")
        for sweep in (q_equal, q_less):
            with pytest.raises(LookupError, match="^y at 3$"):
                sweep(x, y)
            with pytest.raises(LookupError, match="^y at 3$"):
                sweep(y, x)

    def test_x_is_read_before_y_at_one_index(self):
        x, y = _raising_at(4, "x"), _raising_at(4, "y")
        for sweep in (q_equal, q_less):
            with pytest.raises(LookupError, match="^x at 4$"):
                sweep(x, y)
            with pytest.raises(LookupError, match="^y at 4$"):
                sweep(y, x)

    def test_a_term_fraction_refuses_raises_as_term_does(self):
        x = from_function(lambda n: "half" if n == 7 else n)
        with pytest.raises(ValueError) as direct:
            x.term(7)
        with pytest.raises(ValueError) as swept:
            q_equal(x, from_function(_KINDS["int"]))
        assert str(swept.value) == str(direct.value)
