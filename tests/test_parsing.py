"""Concrete syntax: precedence, associativity, errors, and round-trips."""

import random

import pytest

from conftest import make_atoms, random_sentence
from plogic.errors import FormulaSyntaxError
from plogic.formulas import And, AtomRef, Implies, Not, Or
from plogic.parsing import format_sentence, parse_formula

A, B, C = make_atoms("ABC")


def _reparse(text):
    return parse_formula(text).ast


class TestGrammar:
    def test_precedence(self):
        # ! binds tightest, then &, |, and -> loosest.
        assert _reparse("A & !B -> C") == Implies(And(A, Not(B)), C)

    def test_right_associative_implication(self):
        assert _reparse("A -> B -> C") == Implies(A, Implies(B, C))

    def test_left_associative_conjunction(self):
        assert _reparse("A & B & C") == And(And(A, B), C)

    def test_disjunction_between(self):
        assert _reparse("A | B & C") == Or(A, And(B, C))
        assert _reparse("A & B | C") == Or(And(A, B), C)

    def test_parentheses(self):
        assert _reparse("(A -> B) -> C") == Implies(Implies(A, B), C)

    def test_atom_table_first_occurrence_order(self):
        parsed = parse_formula("Beta & Alpha | Beta")
        assert [a.id for a in parsed.atom_table.values()] == [0, 1]
        assert parsed.atom_table["Beta"].id == 0
        assert parsed.atom_table["Alpha"].id == 1

    def test_shared_table_across_parses(self):
        table = {}
        first = parse_formula("A & B", table).ast
        second = parse_formula("B & A", table).ast
        assert first == And(A, B)
        assert second == And(B, A)


class TestErrors:
    def test_double_operator_column(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("A & & B")
        assert err.value.column == 5

    def test_unknown_character(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("A @ B")
        assert err.value.column == 3

    def test_unclosed_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(A & B")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("A B")
        assert err.value.column == 3

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("")

    @pytest.mark.parametrize("text, column, message", [
        # A bad character anywhere is reported before any grammar error.
        ("& @", 3, "unexpected character '@'"),
        ("A )", 3, "unexpected ')'"),
        ("!(A", 4, "expected ')'"),
        ("(A B)", 4, "expected ')'"),
        ("A -> ", 6, "expected an atom, '!', or '('"),
        # Errors after a group that was already parsed once.
        ("(A -> B) (A -> B)", 10, "unexpected '('"),
        ("(A & B) | (A & B))", 18, "unexpected ')'"),
        ("!(A -> B) -> (A -> B", 21, "expected ')'"),
        ("(A -> B) | ((A -> B) B)", 22, "expected ')'"),
        ("((A)) -> ((A)) -> (A) ->", 25, "expected an atom, '!', or '('"),
    ])
    def test_which_error_is_reported(self, text, column, message):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(text)
        assert err.value.column == column
        assert str(err.value) == f"{message} (column {column})"


class TestSharing:
    """A repeated parenthesized group is parsed once, into one node."""

    def test_repeated_group_is_one_node(self):
        tree = parse_formula("(A & B) | (A & B)").ast
        # A | B is the tree not(not A and not B).
        assert tree.child.left.child is tree.child.right.child
        assert tree == Or(And(A, B), And(A, B))

    def test_groups_last_one_call(self):
        assert parse_formula("(A & B)").ast is not parse_formula("(A & B)").ast


class TestFormatter:
    def test_sugar_display(self):
        assert format_sentence(Or(A, B)) == "A | B"
        assert format_sentence(Implies(A, B)) == "A -> B"
        assert format_sentence(Not(And(A, B))) == "!(A & B)"

    def test_ambiguous_tree_still_round_trips(self):
        # not(not A and not B) reads as both A | B and !A -> B; the two
        # denote the same tree, so either display must parse back to it.
        tree = Not(And(Not(A), Not(B)))
        assert _remap(_reparse(format_sentence(tree))) == tree

    def test_round_trip_corpus(self):
        rng = random.Random(31)
        for _ in range(1200):
            s = random_sentence(rng, [A, B, C], 8)
            assert _remap(_reparse(format_sentence(s))) == s


def _remap(tree):
    """Rebuild a parsed tree onto the shared A, B, C atoms (parsing assigns
    ids by first occurrence, which need not match)."""
    names = {a.atom.name: a for a in (A, B, C)}
    if type(tree) is AtomRef:
        return names[tree.atom.name]
    if type(tree) is Not:
        return Not(_remap(tree.child))
    return And(_remap(tree.left), _remap(tree.right))


DEPTH = 10**5


class TestDepth:
    """Parsing and formatting keep their own stacks: no recursion limit."""

    def test_negation_chain_round_trip(self):
        tree = A
        for _ in range(DEPTH):
            tree = Not(tree)
        text = format_sentence(tree)
        assert text == "!" * DEPTH + "A"
        assert parse_formula(text).ast == tree

    def test_nested_parentheses(self):
        assert parse_formula("(" * DEPTH + "A" + ")" * DEPTH).ast == A
        parsed = parse_formula("(" * DEPTH + "A -> !(B)" + ")" * DEPTH).ast
        assert parsed == Implies(A, Not(B))

    def test_unclosed_deep_parenthesis(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("(" * DEPTH + "A" + ")" * (DEPTH - 1))
        assert err.value.column == 2 * DEPTH + 1
