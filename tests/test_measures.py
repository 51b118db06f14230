"""Exact-rational sentence valuations: laws, conditioning, file format."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    exhaustive_sentences,
    make_atoms,
    random_bfunction,
    random_sentence,
    random_sparse_bfunction,
    reference_load,
    reference_mass,
    reference_value,
)
from plogic.errors import (
    DuplicateMintermError,
    NegativeMassError,
    SumNotOneError,
    TooManyAtomsError,
    WidthMismatchError,
    ZeroConditionError,
)
from plogic.formulas import (
    MAX_ATOMS,
    And,
    Implies,
    Not,
    Or,
    Valuation,
    all_valuations,
    evaluate,
    is_tautology,
)
from plogic.measures import (
    BFunction,
    b_eval,
    classify_pair,
    condition,
    conditional_prob,
    dump_distribution,
    from_valuation,
    is_p_function,
    load_distribution,
)
from plogic.synthesis import synthesize_proof

A, B, C = make_atoms("ABC")
HALF = Fraction(1, 2)


def _direct_mass(bf, s):
    """Independent oracle: sum masses by evaluating in every world."""
    total = Fraction(0)
    for v in all_valuations(bf.n):
        if evaluate(s, v):
            total += bf.mass[v.minterm_index]
    return total


class TestBEval:
    def test_uniform_atom(self):
        assert b_eval(BFunction.uniform(2), A) == HALF

    def test_uniform_disjunction(self):
        bf = BFunction.uniform(2)
        value = b_eval(bf, Or(A, B))
        assert value == Fraction(3, 4)
        assert value == _direct_mass(bf, Or(A, B))

    def test_tautology_has_full_mass(self):
        rng = random.Random(5)
        for _ in range(20):
            bf = random_sparse_bfunction(rng, 2)
            assert b_eval(bf, Or(A, Not(A))) == 1

    def test_matches_direct_enumeration(self):
        rng = random.Random(6)
        for _ in range(50):
            bf = random_bfunction(rng, 3)
            s = random_sentence(rng, [A, B, C], 5)
            assert b_eval(bf, s) == _direct_mass(bf, s)


class TestFromValuation:
    def test_point_mass_conjunction(self):
        assert b_eval(from_valuation(Valuation((1, 1))), And(A, B)) == 1
        assert b_eval(from_valuation(Valuation((1, 0))), And(A, B)) == 0

    def test_negation_point(self):
        assert b_eval(from_valuation(Valuation((0,))), Not(A)) == 1

    def test_agrees_with_two_valued_evaluation(self):
        rng = random.Random(7)
        for _ in range(100):
            bits = tuple(rng.randrange(2) for _ in range(3))
            v = Valuation(bits)
            bf = from_valuation(v)
            s = random_sentence(rng, [A, B, C], 5)
            assert b_eval(bf, s) == evaluate(s, v)


class TestMeasureLaws:
    """Exact identities over random measures and random sentences."""

    def _cases(self, seed, count=100):
        rng = random.Random(seed)
        atoms = make_atoms("ABCD")
        for _ in range(count):
            n = rng.randrange(2, 5)
            bf = (random_bfunction if rng.random() < 0.5
                  else random_sparse_bfunction)(rng, n)
            pool = atoms[:n]
            yield (rng, bf,
                   random_sentence(rng, pool, 4),
                   random_sentence(rng, pool, 4),
                   random_sentence(rng, pool, 4))

    def test_split_additivity(self):
        for _, bf, a, b, _c in self._cases(10):
            assert b_eval(bf, And(a, b)) + b_eval(bf, And(a, Not(b))) == b_eval(bf, a)

    def test_complement(self):
        for _, bf, a, _b, _c in self._cases(11):
            assert b_eval(bf, a) + b_eval(bf, Not(a)) == 1

    def test_conjunction_monotone(self):
        for _, bf, a, b, _c in self._cases(12):
            assert b_eval(bf, And(a, b)) <= b_eval(bf, a)

    def test_values_stay_in_unit_interval(self):
        for _, bf, a, _b, _c in self._cases(26):
            assert 0 <= b_eval(bf, a) <= 1

    def test_tautologies_and_contradictions_pinned(self):
        planted = [Or(A, Not(A)), Implies(And(A, B), A), Not(And(A, Not(A)))]
        for _, bf, a, _b, _c in self._cases(13, 40):
            for t in planted:
                assert b_eval(bf, t) == 1
                assert b_eval(bf, Not(t)) == 0
            if is_tautology(a):
                assert b_eval(bf, a) == 1

    def test_union_rule(self):
        for _, bf, a, b, _c in self._cases(14):
            assert b_eval(bf, Or(a, b)) == \
                b_eval(bf, a) + b_eval(bf, b) - b_eval(bf, And(a, b))

    def test_inconsistent_pairs_add(self):
        for _, bf, a, b, _c in self._cases(15):
            if classify_pair(bf, a, b).inconsistent:
                assert b_eval(bf, Or(a, b)) == b_eval(bf, a) + b_eval(bf, b)
            # force at least some inconsistent pairs
            assert classify_pair(bf, a, Not(a)).inconsistent

    def test_independence_extends_to_complement(self):
        for _, bf, a, b, _c in self._cases(16):
            if classify_pair(bf, a, b).independent:
                assert b_eval(bf, And(a, Not(b))) == \
                    b_eval(bf, a) * b_eval(bf, Not(b))

    def test_contradictory_triple_conjunction(self):
        for _, bf, a, b, _c in self._cases(17):
            assert b_eval(bf, And(And(a, Not(a)), b)) == 0

    def test_distribution_over_disjunction(self):
        for _, bf, a, b, c in self._cases(18):
            assert b_eval(bf, And(a, Or(b, c))) == \
                b_eval(bf, And(a, b)) + b_eval(bf, And(a, c)) \
                - b_eval(bf, And(a, And(b, c)))

    def test_synthesized_goals_have_full_mass(self):
        rng = random.Random(19)
        goals = [Implies(A, A),
                 Implies(Implies(A, B), Implies(Not(B), Not(A))),
                 Or(A, Not(A))]
        for goal in goals:
            deduction = synthesize_proof(goal)
            for _ in range(10):
                bf = random_sparse_bfunction(rng, 2)
                assert b_eval(bf, deduction.goal) == 1


class TestConditioning:
    def test_self_conditioning_is_one(self):
        rng = random.Random(20)
        for _ in range(30):
            bf = random_bfunction(rng, 3)
            c = random_sentence(rng, [A, B, C], 4)
            if b_eval(bf, c) > 0:
                assert conditional_prob(bf, c, c) == 1

    def test_uniform_independent_atoms(self):
        assert conditional_prob(BFunction.uniform(2), A, B) == HALF

    def test_zero_condition_is_an_error(self):
        with pytest.raises(ZeroConditionError):
            conditional_prob(BFunction.uniform(2), A, And(A, Not(A)))
        with pytest.raises(ZeroConditionError):
            condition(BFunction.uniform(2), And(A, Not(A)))

    def test_condition_gives_condition_full_mass(self):
        assert b_eval(condition(BFunction.uniform(2), A), A) == 1

    def test_condition_renormalizes(self):
        conditioned = condition(BFunction.uniform(2), Or(A, B))
        assert b_eval(conditioned, And(A, B)) == Fraction(1, 3)

    def test_condition_on_tautology_is_identity(self):
        bf = BFunction.uniform(2)
        assert condition(bf, Or(A, Not(A))) == bf

    def test_conditioned_measure_satisfies_split_additivity(self):
        rng = random.Random(21)
        for _ in range(60):
            bf = random_bfunction(rng, 3)
            c = random_sentence(rng, [A, B, C], 4)
            if b_eval(bf, c) == 0:
                continue
            conditioned = condition(bf, c)
            a = random_sentence(rng, [A, B, C], 4)
            b = random_sentence(rng, [A, B, C], 4)
            assert b_eval(conditioned, And(a, b)) \
                + b_eval(conditioned, And(a, Not(b))) == b_eval(conditioned, a)
            assert b_eval(conditioned, a) == conditional_prob(bf, a, c)

    def test_chain_identity(self):
        rng = random.Random(22)
        for _ in range(60):
            bf = random_bfunction(rng, 3)
            a = random_sentence(rng, [A, B, C], 4)
            c = random_sentence(rng, [A, B, C], 4)
            if b_eval(bf, c) == 0:
                continue
            assert b_eval(bf, And(a, c)) == conditional_prob(bf, a, c) * b_eval(bf, c)


class TestPFunction:
    def test_point_mass_at_actual(self):
        actual = Valuation((1, 0))
        assert is_p_function(from_valuation(actual), actual)

    def test_full_support_always_qualifies(self):
        for v in all_valuations(2):
            assert is_p_function(BFunction.uniform(2), v)

    def test_zero_mass_world_disqualifies_with_witness(self):
        actual = Valuation((0, 0))
        bf = BFunction.from_weights(2, {0b11: HALF, 0b10: HALF})
        assert not is_p_function(bf, actual)
        # witness: the support disjunction has value 1 but is false there
        witness = Or(And(A, B), And(A, Not(B)))
        assert b_eval(bf, witness) == 1
        assert evaluate(witness, actual) == 0

    def test_matches_definitional_form_on_small_corpus(self):
        corpus = exhaustive_sentences([A, B], 3)
        rng = random.Random(23)
        for _ in range(40):
            bf = random_sparse_bfunction(rng, 2)
            for actual in all_valuations(2):
                definitional = all(
                    evaluate(s, actual) == 1
                    for s in corpus if b_eval(bf, s) == 1)
                if is_p_function(bf, actual):
                    assert definitional
                else:
                    support = [i for i, m in enumerate(bf.mass) if m > 0]
                    witness = None
                    for idx in support:
                        v = Valuation.of_minterm(2, idx)
                        term = And(A if v.bits[0] else Not(A),
                                   B if v.bits[1] else Not(B))
                        witness = term if witness is None else Or(witness, term)
                    assert b_eval(bf, witness) == 1
                    assert evaluate(witness, actual) == 0


class TestPairClassification:
    def test_contradictory_pair(self):
        rng = random.Random(24)
        for _ in range(20):
            bf = random_sparse_bfunction(rng, 2)
            assert classify_pair(bf, A, Not(A)).inconsistent

    def test_uniform_atoms_independent(self):
        assert classify_pair(BFunction.uniform(2), A, B).independent

    def test_point_mass_self_pair(self):
        bf = from_valuation(Valuation((1, 1)))
        relation = classify_pair(bf, A, A)
        assert relation.independent
        assert not relation.inconsistent


class TestDistributionFiles:
    def test_load_simple(self):
        bf = load_distribution("11 1/2\n00 1/2\n")
        assert bf.n == 2
        assert bf.mass[0b11] == HALF
        assert bf.mass[0b00] == HALF
        assert bf.mass[0b01] == 0

    def test_sum_must_be_one(self):
        with pytest.raises(SumNotOneError):
            load_distribution("1 1/2\n0 1/4\n")

    def test_duplicate_minterm(self):
        with pytest.raises(DuplicateMintermError):
            load_distribution("11 1/2\n11 1/2\n")

    def test_negative_mass(self):
        with pytest.raises(NegativeMassError):
            load_distribution("1 3/2\n0 -1/2\n")

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            load_distribution("11 1/2\n0 1/2\n")

    def test_bad_tokens(self):
        with pytest.raises(WidthMismatchError):
            load_distribution("1x 1/2\n")
        with pytest.raises(WidthMismatchError):
            load_distribution("11 half\n")
        with pytest.raises(WidthMismatchError):
            load_distribution("")

    def test_dump_load_round_trip(self):
        rng = random.Random(25)
        for _ in range(20):
            bf = random_sparse_bfunction(rng, 3)
            assert load_distribution(dump_distribution(bf)) == bf
        # Every weight distinct, and one weight on every minterm.
        for bf in (BFunction(4, [Fraction(j + 1, 136) for j in range(16)]),
                   BFunction.uniform(4)):
            assert load_distribution(dump_distribution(bf)) == bf


class TestDistributionErrorContract:
    """Each malformed file raises one exact class with one exact message;
    blank lines count toward line numbers."""

    @pytest.mark.parametrize("text, error, message", [
        ("1x 1/2\n", WidthMismatchError, "line 1: bad bitstring '1x'"),
        ("11 1/2\n\n0a 1/2\n", WidthMismatchError, "line 3: bad bitstring '0a'"),
        ("11 1/2\n0 1/2\n", WidthMismatchError, "line 2: bitstring width 1 != 2"),
        ("11 1/2 x\n", WidthMismatchError,
         "line 1: expected '<bits> <p/q>', got '11 1/2 x'"),
        ("1 1/2\n  0  \n", WidthMismatchError,
         "line 2: expected '<bits> <p/q>', got '0'"),
        ("11 half\n", WidthMismatchError, "line 1: bad rational 'half'"),
        ("0 1/2\n1 1/0\n", WidthMismatchError, "line 2: bad rational '1/0'"),
        ("1 3/2\n0 -1/2\n", NegativeMassError, "line 2: negative mass -1/2"),
        ("11 1/2\n11 1/2\n", DuplicateMintermError, "line 2: duplicate minterm 11"),
        ("", WidthMismatchError, "distribution file has no minterm lines"),
        ("\n   \n", WidthMismatchError, "distribution file has no minterm lines"),
        ("0" * 21 + " 1\n", TooManyAtomsError, "21 atoms exceed the cap of 20"),
        ("1 1/2\n0 1/4\n", SumNotOneError, "masses sum to 3/4, not 1"),
        ("1 1\n0 1\n", SumNotOneError, "masses sum to 2, not 1"),
        ("1 0\n", SumNotOneError, "masses sum to 0, not 1"),
    ])
    def test_error_class_and_message(self, text, error, message):
        with pytest.raises(error) as err:
            load_distribution(text)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_first_fault_in_line_order_wins(self):
        with pytest.raises(DuplicateMintermError, match="^line 2: "):
            load_distribution("1 1/2\n1 1/2\n0 -1\n")
        with pytest.raises(NegativeMassError, match="^line 1: "):
            load_distribution("1 -1\n1 2\n")

    @pytest.mark.parametrize("text", [
        "1 1/2\n0 1/2\n",
        "1 0.5\n0 1/2\n",
        "1 1\n",
        "1 1\n0 0\n",
    ])
    def test_accepted_spellings(self, text):
        bf = load_distribution(text)
        assert sum(bf.mass) == 1
        assert bf.mass[1] == Fraction(text.split()[1])

    def test_lines_from_an_iterable(self):
        bf = load_distribution(iter(["10 1/4", "01 3/4"]))
        assert bf.mass == (0, Fraction(3, 4), Fraction(1, 4), 0)


class TestMassTokenMemo:
    """Each distinct mass token is parsed once, on its first line; the
    verdicts and line numbers are those of parsing every line."""

    def test_repeated_negative_token_reports_its_first_line(self):
        with pytest.raises(NegativeMassError) as err:
            load_distribution("00 1/2\n01 -1/4\n10 -1/4\n11 1\n")
        assert type(err.value) is NegativeMassError
        assert str(err.value) == "line 2: negative mass -1/4"

    def test_repeated_bad_rational_reports_its_first_line(self):
        with pytest.raises(WidthMismatchError) as err:
            load_distribution("00 1/2\n\n01 1/0\n10 1/0\n")
        assert type(err.value) is WidthMismatchError
        assert str(err.value) == "line 3: bad rational '1/0'"

    def test_duplicate_with_a_seen_token_reports_the_duplicate(self):
        with pytest.raises(DuplicateMintermError) as err:
            load_distribution("0 1/2\n1 1/2\n0 1/2\n")
        assert type(err.value) is DuplicateMintermError
        assert str(err.value) == "line 3: duplicate minterm 0"

    def test_equal_masses_spelled_differently_sum_exactly(self):
        bf = load_distribution("00 1/4\n01 2/8\n10 0.25\n11 +1/4\n")
        assert bf == BFunction.uniform(2)
        assert (bf.weights, bf.denom) == ((1, 1, 1, 1), 4)


class TestConstructionAndDomains:
    def test_masses_must_be_nonnegative(self):
        with pytest.raises(NegativeMassError):
            BFunction(1, (Fraction(3, 2), Fraction(-1, 2)))

    def test_masses_must_sum_to_one(self):
        with pytest.raises(SumNotOneError):
            BFunction(1, (Fraction(1, 2), Fraction(1, 4)))

    def test_mass_vector_length(self):
        with pytest.raises(ValueError):
            BFunction(2, (Fraction(1),))

    def test_sentence_atoms_must_fit_basic_set(self):
        from plogic.errors import AtomOutOfRangeError

        with pytest.raises(AtomOutOfRangeError):
            b_eval(BFunction.uniform(2), C)

    def test_p_function_width_check(self):
        with pytest.raises(ValueError):
            is_p_function(BFunction.uniform(2), Valuation((1,)))


class TestIntegerWeights:
    """The stored form: integer weights over one denominator, canonical."""

    def test_weights_over_the_least_common_denominator(self):
        bf = BFunction(2, (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), 0))
        assert (bf.weights, bf.denom) == ((1, 2, 3, 0), 6)
        assert bf.mass == (Fraction(1, 6), Fraction(1, 3), HALF, 0)

    def test_equal_measures_compare_and_hash_equal(self):
        built = [BFunction(2, (0, 0, HALF, HALF)),
                 BFunction.from_weights(2, {2: HALF, 3: "1/2"}),
                 load_distribution("10 1/2\n11 1/2\n"),
                 condition(BFunction.uniform(2), A),
                 condition(BFunction(2, (Fraction(1, 8), Fraction(3, 8),
                                         Fraction(1, 4), Fraction(1, 4))), A)]
        for bf in built:
            assert bf == built[0]
            assert hash(bf) == hash(built[0])
            assert (bf.weights, bf.denom) == ((0, 0, 1, 1), 2)

    def test_immutable(self):
        bf = BFunction.uniform(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            bf.denom = 3
        with pytest.raises(AttributeError):
            bf.mass = (HALF, HALF)

    def test_inexact_masses_are_rejected(self):
        with pytest.raises(TypeError):
            BFunction(1, (0.5, 0.5))

    def test_width_cap_precedes_building(self):
        with pytest.raises(TooManyAtomsError):
            BFunction.uniform(MAX_ATOMS + 1)
        with pytest.raises(TooManyAtomsError):
            BFunction.from_weights(MAX_ATOMS + 1, {0: 1})
        with pytest.raises(TooManyAtomsError):
            from_valuation(Valuation((0,) * (MAX_ATOMS + 1)))


class TestAtTheAtomCap:
    """Exact values at MAX_ATOMS = 20 on the uniform measure."""

    N = MAX_ATOMS
    SIZE = 1 << MAX_ATOMS
    P = make_atoms("ABCDEFGHIJKLMNOPQRST")

    def _all(self, combine):
        node = self.P[0]
        for atom in self.P[1:]:
            node = combine(node, atom)
        return node

    def test_b_eval_counts(self):
        bf = BFunction.uniform(self.N)
        p = self.P
        cases = [(p[0], self.SIZE // 2),
                 (And(p[0], Not(p[19])), self.SIZE // 4),
                 (Or(p[3], p[17]), 3 * self.SIZE // 4),
                 (self._all(And), 1),
                 (self._all(Or), self.SIZE - 1),
                 (And(p[5], Not(p[5])), 0)]
        for s, count in cases:
            assert b_eval(bf, s) == Fraction(count, self.SIZE)

    def test_condition_counts(self):
        bf = BFunction.uniform(self.N)
        p = self.P
        anything = condition(bf, self._all(Or))
        assert anything.denom == self.SIZE - 1
        assert anything.weights[0] == 0
        assert sum(anything.weights) == self.SIZE - 1
        assert b_eval(anything, p[0]) == Fraction(self.SIZE // 2, self.SIZE - 1)
        both = condition(bf, And(p[0], p[1]))
        assert both.denom == self.SIZE // 4
        assert b_eval(both, p[2]) == HALF
        assert b_eval(both, p[0]) == 1
        assert conditional_prob(bf, p[2], And(p[0], p[1])) == HALF


# -- property check against a per-minterm Fraction oracle -----------------------

WIDE = make_atoms("ABCDEF")


def _bits(n, idx):
    return [(idx >> (n - 1 - i)) & 1 for i in range(n)]


def _sentences(n):
    atoms = st.sampled_from(WIDE[:n])
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Implies, inner, inner)),
        max_leaves=10)


SENTENCES = {n: _sentences(n) for n in range(1, 7)}


@st.composite
def _measures(draw):
    """Width n <= 6 and exact masses with unlike denominators; dense
    (every minterm positive), sparse (most minterms zero), every mass
    distinct, or one mass repeated on every minterm but one."""
    n = draw(st.integers(1, 6))
    size = 1 << n
    kind = draw(st.sampled_from(("dense", "sparse", "distinct", "repeated")))
    if kind == "dense":
        nums = draw(st.lists(st.integers(1, 40), min_size=size, max_size=size))
    elif kind == "sparse":
        nums = draw(st.lists(st.sampled_from((0, 0, 0, 1, 7, 1000)),
                             min_size=size, max_size=size))
        if not any(nums):
            nums[draw(st.integers(0, size - 1))] = 1
    elif kind == "distinct":
        nums = draw(st.permutations(range(1, size + 1)))
    else:
        nums = [draw(st.integers(1, 5))] * size
        nums[draw(st.integers(0, size - 1))] = draw(st.integers(0, 40))
    if kind == "distinct":  # one denominator keeps the masses distinct
        dens = [draw(st.integers(1, 12))] * size
    else:
        dens = draw(st.lists(st.integers(1, 12), min_size=size, max_size=size))
    raw = [Fraction(a, b) for a, b in zip(nums, dens)]
    total = sum(raw)
    return n, tuple(m / total for m in raw)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_match_the_fraction_oracle(data):
    n, mass = data.draw(_measures())
    sentences = SENTENCES[n]
    a, b, c = data.draw(sentences), data.draw(sentences), data.draw(sentences)
    bf = BFunction(n, mass)
    assert bf.mass == mass

    def ref(s):
        return reference_mass(n, mass, s)

    assert b_eval(bf, a) == ref(a)
    pab = ref(And(a, b))
    relation = classify_pair(bf, a, b)
    assert relation.inconsistent == (pab == 0)
    assert relation.independent == (pab == ref(a) * ref(b))
    pc = ref(c)
    if pc == 0:
        with pytest.raises(ZeroConditionError):
            conditional_prob(bf, b, c)
        with pytest.raises(ZeroConditionError):
            condition(bf, c)
    else:
        assert conditional_prob(bf, b, c) == ref(And(c, b)) / pc
        want = tuple(m / pc if reference_value(c, _bits(n, idx)) else 0
                     for idx, m in enumerate(mass))
        assert condition(bf, c).mass == want
    assert load_distribution(dump_distribution(bf)) == bf


def _spellings(q: Fraction) -> list[str]:
    """Texts that Fraction reads as q: p/q, a scaled ka/kb, an integer,
    a terminating decimal, each also with a leading '+'."""
    out = [f"{q.numerator}/{q.denominator}", f"{3 * q.numerator}/{3 * q.denominator}"]
    if q.denominator == 1:
        out.append(str(q.numerator))
    scaled = q * 10**6
    if scaled.denominator == 1:
        whole, frac = divmod(scaled.numerator, 10**6)
        out.append(f"{whole}.{frac:06d}")
    return out + ["+" + text for text in out]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_respelled_dumps_load_like_the_reference(data):
    n, mass = data.draw(_measures())
    lines = []
    for line in dump_distribution(BFunction(n, mass)).splitlines():
        bits, token = line.split()
        lines.append(f"{bits} {data.draw(st.sampled_from(_spellings(Fraction(token))))}")
    lines = data.draw(st.permutations(lines))
    for at in data.draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(at, data.draw(st.sampled_from(["", "  ", "\t"])))
    text = "\n".join(lines) + "\n"
    bf = load_distribution(text)
    assert (bf.n, list(bf.mass)) == reference_load(text)
    assert bf == BFunction(n, mass)
