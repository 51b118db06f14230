"""Independent test series: enumeration, disjunctions, exact probabilities,
the tail bound, and the sampling harness."""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_series, reference_window_prob
from plogic.errors import (
    EmptyRangeError,
    InvalidArgumentError,
    PlogicError,
    TooManyAtomsError,
)
from plogic.formulas import (
    MAX_ATOMS,
    And,
    Not,
    Or,
    all_valuations,
    evaluate,
    format_sentence,
)
from plogic.measures import b_eval
from plogic.trials import (
    RangeSpec,
    TestSequence,
    enumerate_series,
    lln_bound,
    point_prob,
    product_bfunction,
    range_prob,
    simulate_frequencies,
    t_disjunction,
    t_range,
)

HALF = Fraction(1, 2)


def _lit(ts, n, positive):
    ref = ts.st(n)
    return ref if positive else Not(ref)


def _chain(ts, bits):
    node = _lit(ts, 1, bits[0])
    for i, bit in enumerate(bits[1:], start=2):
        node = And(node, _lit(ts, i, bit))
    return node


class TestSeriesEnumeration:
    def test_three_choose_two_order(self):
        ts = TestSequence.of(3, HALF)
        expected = [
            _chain(ts, (1, 1, 0)),
            _chain(ts, (1, 0, 1)),
            _chain(ts, (0, 1, 1)),
        ]
        assert enumerate_series(ts, 3, 2) == expected

    def test_single_test(self):
        ts = TestSequence.of(3, HALF)
        assert enumerate_series(ts, 1, 1) == [ts.st(1)]
        assert enumerate_series(ts, 1, 0) == [Not(ts.st(1))]

    def test_count_is_binomial(self):
        ts = TestSequence.of(8, Fraction(1, 3))
        for r in range(1, 9):
            for k in range(r + 1):
                assert len(enumerate_series(ts, r, k)) == math.comb(r, k)

    def test_each_series_fixes_every_test(self):
        ts = TestSequence.of(4, HALF)
        for series in enumerate_series(ts, 4, 2):
            satisfying = [v for v in all_valuations(4) if evaluate(series, v)]
            assert len(satisfying) == 1  # a complete conjunction of literals
            assert sum(satisfying[0].bits) == 2

    def test_matches_recursive_oracle(self):
        ts = TestSequence.of(8, Fraction(1, 3))
        for r in range(1, 9):
            for k in range(r + 1):
                got = [format_sentence(s) for s in enumerate_series(ts, r, k)]
                want = [format_sentence(s) for s in reference_series(ts, r, k)]
                assert got == want

    def test_chains_longer_than_the_recursion_limit(self):
        ts = TestSequence.of(1200, HALF)
        (none,) = enumerate_series(ts, 1200, 0)
        (every,) = enumerate_series(ts, 1200, 1200)
        assert format_sentence(none) == " & ".join(f"!X{n}" for n in range(1, 1201))
        assert format_sentence(every) == " & ".join(f"X{n}" for n in range(1, 1201))

    def test_range_violations(self):
        ts = TestSequence.of(3, HALF)
        with pytest.raises(ValueError):
            enumerate_series(ts, 3, 4)
        with pytest.raises(ValueError):
            enumerate_series(ts, 0, 0)
        with pytest.raises(ValueError):
            enumerate_series(ts, 4, 1)


class TestRunCountDisjunction:
    def test_zero_runs_is_bare_conjunction(self):
        ts = TestSequence.of(3, HALF)
        assert t_disjunction(ts, 3, 0) == _chain(ts, (0, 0, 0))

    def test_all_runs_is_bare_conjunction(self):
        ts = TestSequence.of(3, HALF)
        assert t_disjunction(ts, 3, 3) == _chain(ts, (1, 1, 1))

    def test_left_fold_structure(self):
        ts = TestSequence.of(3, HALF)
        parts = enumerate_series(ts, 3, 1)
        assert t_disjunction(ts, 3, 1) == Or(Or(parts[0], parts[1]), parts[2])

    def test_holds_exactly_on_k_success_worlds(self):
        ts = TestSequence.of(5, HALF)
        for k in range(6):
            sentence = t_disjunction(ts, 5, k)
            for v in all_valuations(5):
                assert evaluate(sentence, v) == (1 if sum(v.bits) == k else 0)


class TestRangeDisjunction:
    def test_fractional_bounds_snap_to_integers(self):
        ts = TestSequence.of(3, HALF)
        spec = RangeSpec.derive(HALF, Fraction(23, 10), 3)
        assert (spec.k, spec.l) == (1, 2)
        built = t_range(ts, 3, HALF, Fraction(23, 10))
        assert built == Or(t_disjunction(ts, 3, 1), t_disjunction(ts, 3, 2))

    def test_degenerate_range_is_single_disjunction(self):
        ts = TestSequence.of(3, HALF)
        assert t_range(ts, 3, 2, 2) == t_disjunction(ts, 3, 2)

    def test_empty_range_is_an_error(self):
        ts = TestSequence.of(3, HALF)
        with pytest.raises(EmptyRangeError):
            t_range(ts, 3, Fraction(25, 10), Fraction(21, 10))

    def test_bounds_clamp_to_possible_counts(self):
        ts = TestSequence.of(3, HALF)
        assert t_range(ts, 3, -5, 99) == t_range(ts, 3, 0, 3)

    def test_semantics_count_window(self):
        for r in range(1, 7):
            ts = TestSequence.of(r, HALF)
            for a, b in [(0, r), (1, r), (Fraction(1, 2), r - Fraction(1, 2)),
                         (Fraction(r, 3), Fraction(2 * r, 3)), (r, r)]:
                spec = RangeSpec.derive(a, b, r)
                if spec.empty:
                    continue
                sentence = t_range(ts, r, a, b)
                for v in all_valuations(r):
                    inside = spec.k <= sum(v.bits) <= spec.l
                    assert evaluate(sentence, v) == (1 if inside else 0)


class TestProductMeasure:
    def test_masses_multiply(self):
        bf = product_bfunction(TestSequence.of(2, Fraction(1, 3)))
        assert bf.mass[0b11] == Fraction(1, 9)
        assert bf.mass[0b10] == Fraction(2, 9)
        assert bf.mass[0b00] == Fraction(4, 9)

    def test_certain_success(self):
        bf = product_bfunction(TestSequence.of(2, 1))
        assert bf.mass[0b11] == 1
        assert sum(bf.mass[:3]) == 0

    def test_fair_tests_are_uniform(self):
        bf = product_bfunction(TestSequence.of(3, HALF))
        assert all(m == Fraction(1, 8) for m in bf.mass)

    def test_sixteen_tests_match_point_probabilities(self):
        p = Fraction(2, 7)
        bf = product_bfunction(TestSequence.of(16, p))
        mass = bf.mass
        assert sum(mass) == 1
        by_count = [Fraction(0)] * 17
        for idx, m in enumerate(mass):
            by_count[bin(idx).count("1")] += m
        assert by_count == [point_prob(16, k, p) for k in range(17)]

    def test_width_cap_precedes_building(self):
        with pytest.raises(TooManyAtomsError):
            product_bfunction(TestSequence.of(MAX_ATOMS + 1, HALF))

    def test_marginals_equal_success_probability(self):
        ts = TestSequence.of(4, Fraction(2, 7))
        bf = product_bfunction(ts)
        for n in range(1, 5):
            assert b_eval(bf, ts.st(n)) == Fraction(2, 7)

    def test_full_series_factorizes(self):
        # the defining independence property, on every full-length series
        ts = TestSequence.of(3, Fraction(2, 5))
        bf = product_bfunction(ts)
        for series in enumerate_series(ts, 3, 2):
            assert b_eval(bf, series) == Fraction(2, 5) ** 2 * Fraction(3, 5)


def _brute_force_run_count_prob(r, k, p):
    """Independent oracle: enumerate all outcome tuples directly."""
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=r):
        if sum(bits) == k:
            prob = Fraction(1)
            for bit in bits:
                prob *= p if bit else 1 - p
            total += prob
    return total


class TestExactProbabilities:
    def test_binomial_value_and_oracle(self):
        for p in (Fraction(0), Fraction(1, 4), HALF, Fraction(2, 3), Fraction(1)):
            for r in range(1, 6):
                ts = TestSequence.of(r, p)
                bf = product_bfunction(ts)
                for k in range(r + 1):
                    expected = _brute_force_run_count_prob(r, k, p)
                    assert point_prob(r, k, p) == expected
                    assert b_eval(bf, t_disjunction(ts, r, k)) == expected

    def test_window_prob_examples(self):
        assert range_prob(3, 2, 2, HALF) == Fraction(3, 8)
        assert range_prob(4, 4, 4, 1) == 1
        for r in (1, 3, 7):
            assert range_prob(r, 0, r, Fraction(2, 7)) == 1

    def test_window_prob_empty_is_zero(self):
        assert range_prob(3, Fraction(25, 10), Fraction(21, 10), HALF) == 0

    def test_window_prob_matches_sentence_value(self):
        for r in range(1, 7):
            for p in (Fraction(1, 3), HALF, Fraction(9, 10)):
                ts = TestSequence.of(r, p)
                bf = product_bfunction(ts)
                for a, b in [(0, r), (1, r - 1), (Fraction(1, 2), r)]:
                    spec = RangeSpec.derive(a, b, r)
                    if spec.empty:
                        continue
                    assert range_prob(r, a, b, p) == b_eval(bf, t_range(ts, r, a, b))

    def test_full_window_is_certain_at_depth(self):
        # t_range folds its 4096 series into one left-deep disjunction.
        ts = TestSequence.of(12, HALF)
        assert b_eval(product_bfunction(ts), t_range(ts, 12, 0, 12)) == 1

    def test_window_prob_sums_binomial_terms(self):
        assert range_prob(10, 3, 5, Fraction(1, 5)) == sum(
            point_prob(10, k, Fraction(1, 5)) for k in (3, 4, 5))


def _digest(q: Fraction) -> str:
    return hashlib.sha256(f"{q.numerator:x}/{q.denominator:x}".encode()).hexdigest()


# p = 0 and 1, and p whose numerator and denominator differ.
_probabilities = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=40))


class TestWindowKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_direct_sum(self, data):
        # Every window of r <= 60, including empty and clamped ones.
        r = data.draw(st.integers(1, 60))
        a = data.draw(st.integers(-1, r + 1))
        b = data.draw(st.integers(-1, r + 1))
        p = data.draw(_probabilities)
        assert range_prob(r, a, b, p) == reference_window_prob(r, a, b, p)
        k = data.draw(st.integers(0, r))
        assert point_prob(r, k, p) == reference_window_prob(r, k, k, p)

    # Digests of hex numerator/denominator, computed with the term-by-term
    # loop that the kernel replaced (the last one took 50 s there).
    @pytest.mark.parametrize("r, k, l, p, digest", [
        (100_000, 49_970, 50_030, Fraction(1, 2),
         "31f8af972049acf5043d9d2375b7be4bbfdde4f2b7731d3648ad1e4b5e597176"),
        (100_000, 33_303, 33_363, Fraction(1, 3),
         "6abf5a6babf24cf4a6724b222a326ab4d398ee374066b038151a78f9cb6eef26"),
        (100_000, 65_000, 75_000, Fraction(7, 10),
         "cb774043d9c67fd2b0b134f603944363295640b0ce1b7a03598c52580988bfc5"),
    ])
    def test_large_windows_are_pinned(self, r, k, l, p, digest):
        assert _digest(range_prob(r, k, l, p)) == digest

    def test_large_points_are_pinned(self):
        assert _digest(point_prob(100_000, 5, Fraction(1, 3))) == \
            "c88e718d04b697d97ade89136c6914dd8632b9f90588c0fbe96e768b66705cee"
        assert _digest(point_prob(100_000, 50_000, Fraction(1, 2))) == \
            "22c28335b719bf459415c2d03cfd36e8cbca5fc034bf2ad9c28bae1db97073bd"


class TestTailBound:
    def test_reference_value(self):
        assert lln_bound(100, HALF, Fraction(1, 10)) == Fraction(3, 4)

    def test_degenerate_probability_gives_one(self):
        assert lln_bound(17, 0, Fraction(1, 10)) == 1
        assert lln_bound(17, 1, Fraction(1, 10)) == 1

    def test_vacuous_bound_unclamped(self):
        assert lln_bound(1, HALF, Fraction(1, 10)) == -24

    def test_bound_below_exact_probability(self):
        for r in (10, 40, 100):
            for p in (Fraction(1, 10), HALF):
                for eps in (Fraction(1, 10), Fraction(1, 20)):
                    exact = range_prob(r, r * (p - eps), r * (p + eps), p)
                    assert exact >= lln_bound(r, p, eps)


class TestSampling:
    def test_certain_and_impossible(self):
        ts_one = TestSequence.of(20, 1)
        assert simulate_frequencies(ts_one, 5, seed=1) == [Fraction(1)] * 5
        ts_zero = TestSequence.of(20, 0)
        assert simulate_frequencies(ts_zero, 5, seed=1) == [Fraction(0)] * 5

    def test_deterministic_given_seed(self):
        ts = TestSequence.of(50, Fraction(1, 3))
        first = simulate_frequencies(ts, 40, seed=9)
        second = simulate_frequencies(ts, 40, seed=9)
        assert first == second
        assert simulate_frequencies(ts, 40, seed=10) != first

    def test_worker_count_never_changes_results(self):
        ts = TestSequence.of(30, Fraction(2, 5))
        base = simulate_frequencies(ts, 25, seed=3)
        assert simulate_frequencies(ts, 25, seed=3, workers=4) == base

    def test_frequencies_are_counts_over_r(self):
        ts = TestSequence.of(7, HALF)
        for f in simulate_frequencies(ts, 50, seed=4):
            assert 0 <= f <= 1
            assert (f * 7).denominator == 1

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError):
            simulate_frequencies(TestSequence.of(3, HALF), 0, seed=1)


class TestValidation:
    def test_argument_errors_are_library_errors(self):
        assert issubclass(InvalidArgumentError, PlogicError)
        assert issubclass(InvalidArgumentError, ValueError)

    def test_point_prob_checks_range_and_probability(self):
        with pytest.raises(InvalidArgumentError, match="at least one test"):
            point_prob(0, 0, HALF)
        with pytest.raises(InvalidArgumentError, match="outside"):
            point_prob(3, 1, Fraction(3, 2))
        with pytest.raises(InvalidArgumentError, match="outside"):
            point_prob(3, 1, -HALF)

    def test_point_prob_checks_run_count(self):
        for k in (-1, 4):
            with pytest.raises(InvalidArgumentError, match=f"run count {k} outside 0..3"):
                point_prob(3, k, HALF)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            TestSequence.of(3, Fraction(3, 2))
        with pytest.raises(ValueError):
            TestSequence.of(0, HALF)

    def test_atoms_must_be_distinct(self):
        from plogic.formulas import Atom

        with pytest.raises(ValueError):
            TestSequence((Atom(0, "X1"), Atom(0, "X1")), HALF)

    def test_st_accessor(self):
        ts = TestSequence.of(3, HALF)
        assert ts.st(1).atom.name == "X1"
        with pytest.raises(ValueError):
            ts.st(4)
        with pytest.raises(ValueError):
            ts.st(0)
