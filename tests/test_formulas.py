"""Two-valued semantics: evaluation, tautology decisions, semantic equality."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exhaustive_sentences, make_atoms, random_sentence, reference_value
from plogic.errors import AtomOutOfRangeError
from plogic.formulas import (
    And,
    Atom,
    AtomRef,
    Implies,
    Not,
    Or,
    Valuation,
    _atom_mask,
    all_valuations,
    as_implication,
    atom_ids,
    atoms_of,
    evaluate,
    is_tautology,
    is_unsatisfiable,
    semantic_equal,
    truth_table,
)
from plogic.synthesis import is_derivable, opaque_skeleton, substitute_atoms

A, B, C = make_atoms("ABC")


class TestEvaluate:
    def test_contradiction_is_false_everywhere(self):
        for v in all_valuations(1):
            assert evaluate(And(A, Not(A)), v) == 0

    def test_nested_implication_true_case(self):
        assert evaluate(Implies(A, Implies(B, A)), Valuation((1, 0))) == 1

    def test_conjunction_needs_both(self):
        assert evaluate(And(A, B), Valuation((1, 0))) == 0
        assert evaluate(And(A, B), Valuation((1, 1))) == 1

    def test_negation_flips(self):
        assert evaluate(Not(A), Valuation((0,))) == 1

    def test_atom_out_of_range(self):
        with pytest.raises(AtomOutOfRangeError):
            evaluate(C, Valuation((1, 0)))


class TestDerivedConnectives:
    """The desugared disjunction and implication have the expected rows."""

    def test_disjunction_false_iff_both_false(self):
        for left in exhaustive_sentences([A, B], 2):
            for right in exhaustive_sentences([A, B], 2):
                for v in all_valuations(2):
                    value = evaluate(Or(left, right), v)
                    expected = 0 if (evaluate(left, v) == 0
                                     and evaluate(right, v) == 0) else 1
                    assert value == expected

    def test_implication_false_iff_true_antecedent_false_consequent(self):
        for left in exhaustive_sentences([A, B], 2):
            for right in exhaustive_sentences([A, B], 2):
                for v in all_valuations(2):
                    value = evaluate(Implies(left, right), v)
                    expected = 0 if (evaluate(left, v) == 1
                                     and evaluate(right, v) == 0) else 1
                    assert value == expected

    def test_implication_shape_destructuring(self):
        s = Implies(And(A, B), C)
        assert as_implication(s) == (And(A, B), C)
        assert as_implication(And(A, B)) is None
        assert as_implication(Not(And(A, B))) is None  # right operand not negated


class TestTautology:
    def test_axiom_shape_is_tautology(self):
        assert is_tautology(Implies(A, Implies(B, A)))

    def test_excluded_middle(self):
        assert is_tautology(Or(A, Not(A)))

    def test_contradiction_is_not(self):
        assert not is_tautology(And(A, Not(A)))
        assert is_unsatisfiable(And(A, Not(A)))

    def test_uses_only_occurring_atoms(self):
        # C has id 2; the sweep must not demand a wider basic set.
        assert is_tautology(Or(C, Not(C)))

    def test_negation_of_unsatisfiable_is_tautology(self):
        rng = random.Random(9)
        seen = 0
        for _ in range(500):
            s = random_sentence(rng, [A, B, C], 4)
            if is_unsatisfiable(s):
                assert is_tautology(Not(s))
                seen += 1
        assert seen > 5


class TestSemanticEqual:
    def test_commutation(self):
        assert semantic_equal(And(A, B), And(B, A))

    def test_conjunction_with_tautology_is_identity(self):
        assert semantic_equal(And(A, Or(B, Not(B))), A)

    def test_distinct_atoms_differ(self):
        assert not semantic_equal(A, B)

    def test_idempotence_exhaustive(self):
        for s in exhaustive_sentences([A, B, C], 3):
            assert semantic_equal(And(s, s), s)

    def test_commutation_exhaustive_shallow(self):
        corpus = exhaustive_sentences([A, B, C], 2)
        for left in corpus:
            for right in corpus:
                assert semantic_equal(And(left, right), And(right, left))

    def test_commutation_random_deep(self):
        rng = random.Random(101)
        for _ in range(2000):
            left = random_sentence(rng, [A, B, C], 3, sugar=False)
            right = random_sentence(rng, [A, B, C], 3, sugar=False)
            assert semantic_equal(And(left, right), And(right, left))

    def test_association_exhaustive_shallow(self):
        corpus = exhaustive_sentences([A, B, C], 2)
        for x in corpus:
            for y in corpus:
                for z in corpus:
                    assert semantic_equal(And(x, And(y, z)), And(And(x, y), z))

    def test_association_random_deep(self):
        rng = random.Random(202)
        for _ in range(1000):
            x = random_sentence(rng, [A, B, C], 3, sugar=False)
            y = random_sentence(rng, [A, B, C], 3, sugar=False)
            z = random_sentence(rng, [A, B, C], 3, sugar=False)
            assert semantic_equal(And(x, And(y, z)), And(And(x, y), z))


class TestTruthTableConventions:
    def test_minterm_index_msb_first(self):
        v = Valuation.of_minterm(3, 0b101)
        assert v.bits == (1, 0, 1)
        assert v.minterm_index == 0b101

    def test_table_bit_matches_evaluation(self):
        # truth_table and evaluate share one fold, so both are checked
        # against the recursive reference evaluator in conftest.
        rng = random.Random(7)
        for _ in range(200):
            s = random_sentence(rng, [A, B, C], 5)
            table = truth_table(s, [0, 1, 2])
            for v in all_valuations(3):
                want = reference_value(s, v.bits)
                assert (table >> v.minterm_index) & 1 == want
                assert evaluate(s, v) == want

    def test_atom_masks_match_a_per_index_oracle(self):
        for m in range(1, 13):
            for position in range(m):
                shift = m - 1 - position
                want = sum(1 << j for j in range(1 << m) if (j >> shift) & 1)
                assert _atom_mask(position, m) == want, (position, m)

    def test_atom_bookkeeping(self):
        s = And(C, Not(A))
        assert atom_ids(s) == frozenset({0, 2})
        assert [a.name for a in atoms_of(s)] == ["A", "C"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_double_negation_invariance(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    s = random_sentence(rng, [A, B, C], 5)
    assert semantic_equal(s, Not(Not(s)))


DEPTH = 10**5


def _negations(n, base=A):
    s = base
    for _ in range(n):
        s = Not(s)
    return s


@pytest.fixture(scope="module")
def deep():
    """A 10^5-deep ! chain over A: false when A is, since the depth is even."""
    return _negations(DEPTH)


class TestDepth:
    """Every whole-tree walk keeps its own stack: no recursion limit."""

    def test_structural_equality(self, deep):
        assert deep == _negations(DEPTH)
        assert deep != _negations(DEPTH - 1)
        assert deep != _negations(DEPTH, B)

    def test_evaluate_and_truth_table(self, deep):
        assert evaluate(deep, Valuation((1,))) == 1
        assert evaluate(deep, Valuation((0,))) == 0
        assert truth_table(deep, [0]) == 0b10

    def test_tautology_and_semantic_equality(self, deep):
        assert not is_tautology(deep)
        assert is_tautology(Or(deep, Not(deep)))
        assert semantic_equal(deep, A)
        assert not semantic_equal(deep, Not(A))

    def test_str_and_repr(self, deep):
        text = "!" * DEPTH + "A"
        assert str(deep) == text
        assert repr(deep) == text

    def test_substitute_atoms(self, deep):
        assert substitute_atoms(deep, {0: Not(B)}) == _negations(DEPTH + 1, B)

    def test_opaque_skeleton_and_derivability(self, deep):
        skeleton, subtree_of = opaque_skeleton(deep)
        assert skeleton == _negations(DEPTH, AtomRef(Atom(0, "_v0")))
        assert subtree_of == {0: A}
        assert not is_derivable(deep)


class TestSharedDag:
    """x = And(x, x) nested 60 times has 2^60 paths but 62 nodes; every
    walk must visit nodes, not paths.  No failure report may print such a
    DAG, as printing one never ends: the assertions do not name one, and
    errors are reported by message alone."""

    @staticmethod
    def _doubled(x, times=60):
        for _ in range(times):
            x = And(x, x)
        return x

    @staticmethod
    def _quietly(f):
        try:
            return f()
        except Exception as err:
            pytest.fail(f"{type(err).__name__}: {err}", pytrace=False)

    def test_atoms_tables_and_evaluation(self):
        x = self._doubled(And(A, C))
        got = self._quietly(lambda: (
            atom_ids(x), atoms_of(x), truth_table(x, [0, 2]),
            is_tautology(Or(x, Not(x))), is_tautology(x),
            evaluate(x, Valuation((1, 0, 1))), evaluate(x, Valuation((1, 1, 0)))))
        assert got == (frozenset({0, 2}), (A.atom, C.atom), 0b1000, True, False, 1, 0)

    def test_substitute_atoms_keeps_sharing(self):
        x = self._quietly(lambda: substitute_atoms(self._doubled(And(A, C)), {0: C, 2: Not(A)}))
        depth = 0
        while x.left is x.right:
            x, depth = x.left, depth + 1
        assert depth == 60
        assert x == And(C, Not(A))

    def test_opaque_skeleton(self):
        v0, v1 = (AtomRef(Atom(i, f"_v{i}")) for i in range(2))
        # An opaque conjunction is one unit, shared or not ...
        skeleton, subtree_of = self._quietly(
            lambda: opaque_skeleton(Or(self._doubled(A), Not(A))))
        unit_is_a = subtree_of[1] is A
        assert skeleton == Or(v0, Not(v1))
        assert unit_is_a
        # ... and a transparent one is walked node by node.
        y = A
        for _ in range(60):
            y = Implies(y, y)
        skeleton, subtree_of = self._quietly(lambda: opaque_skeleton(y))
        assert subtree_of == {0: A}
        depth = 0
        while as_implication(skeleton) is not None:
            left, right = as_implication(skeleton)
            if left is not right:
                break
            skeleton, depth = left, depth + 1
        assert depth == 60
        assert skeleton == v0
