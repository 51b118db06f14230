"""Axiom matching, deduction checking, and the proof text format."""

import pytest

from conftest import make_atoms
from plogic.errors import FormulaSyntaxError, ProofFormatError
from plogic.formulas import And, AtomRef, Implies, Not, is_tautology
from plogic.parsing import parse_formula
from plogic.proofs import (
    Axiom,
    Deduction,
    Hypothesis,
    ModusPonens,
    check_deduction,
    format_proof,
    instantiate,
    is_axiom_instance,
    match_schema,
    parse_proof,
)
from plogic.synthesis import synthesize_proof

A, B, C = make_atoms("ABC")


class TestAxiomMatching:
    def test_first_schema_with_bindings(self):
        name, bindings = is_axiom_instance(Implies(A, Implies(B, A)))
        assert name == "A1"
        assert bindings == {"A": A, "B": B}

    def test_compound_substitution(self):
        s = Implies(And(A, B), Implies(C, And(A, B)))
        name, bindings = is_axiom_instance(s)
        assert name == "A1"
        assert bindings == {"A": And(A, B), "B": C}

    def test_non_instance(self):
        assert is_axiom_instance(Implies(A, A)) is None
        assert is_axiom_instance(A) is None

    def test_second_schema(self):
        s = instantiate("A2", {"A": A, "B": B, "C": C})
        assert is_axiom_instance(s) == ("A2", {"A": A, "B": B, "C": C})

    def test_third_schema(self):
        s = instantiate("A3", {"A": A, "B": B})
        assert is_axiom_instance(s) == ("A3", {"A": A, "B": B})

    def test_instantiate_round_trips_match(self):
        bindings = {"A": And(A, Not(B)), "B": Implies(B, C), "C": C}
        for name in ("A1", "A2", "A3"):
            s = instantiate(name, bindings)
            assert match_schema(name, s) is not None

    def test_repeated_variable_must_agree(self):
        # shape of A1 but with mismatched inner/outer antecedents
        s = Implies(A, Implies(B, B))
        assert match_schema("A1", s) is None

    def test_every_instance_is_a_tautology(self):
        compound = Not(And(Not(A), Not(B)))
        for name in ("A1", "A2", "A3"):
            s = instantiate(name, {"A": And(A, B), "B": Not(C), "C": compound})
            assert is_tautology(s)


def _mp_example():
    """hypotheses: [A]; derive B -> A."""
    goal = Implies(B, A)
    lines = (
        (A, Hypothesis(0)),
        (Implies(A, Implies(B, A)), Axiom("A1")),
        (goal, ModusPonens(1, 0)),
    )
    return Deduction((A,), lines, goal)


class TestCheckDeduction:
    def test_accepts_modus_ponens_chain(self):
        report = check_deduction(_mp_example())
        assert report.ok

    def test_rejects_forward_reference(self):
        goal = Implies(B, A)
        lines = (
            (A, Hypothesis(0)),
            (goal, ModusPonens(2, 0)),  # cites itself
            (Implies(A, Implies(B, A)), Axiom("A1")),
        )
        report = check_deduction(Deduction((A,), lines, goal))
        assert not report.ok
        assert report.code == "ForwardReference"
        assert report.line == 2

    def test_rejects_minor_premise_mismatch(self):
        goal = Implies(B, A)
        lines = (
            (B, Hypothesis(0)),  # B instead of A
            (Implies(A, Implies(B, A)), Axiom("A1")),
            (goal, ModusPonens(1, 0)),
        )
        report = check_deduction(Deduction((B,), lines, goal))
        assert not report.ok
        assert report.code == "MpMismatch"
        assert report.line == 3

    def test_rejects_wrong_consequent(self):
        lines = (
            (A, Hypothesis(0)),
            (Implies(A, Implies(B, A)), Axiom("A1")),
            (Implies(A, B), ModusPonens(1, 0)),
        )
        report = check_deduction(Deduction((A,), lines, Implies(A, B)))
        assert not report.ok
        assert report.code == "MpMismatch"

    def test_rejects_major_without_implication_shape(self):
        lines = (
            (A, Hypothesis(0)),
            (And(A, B), Hypothesis(1)),
            (B, ModusPonens(1, 0)),
        )
        report = check_deduction(Deduction((A, And(A, B)), lines, B))
        assert not report.ok
        assert report.code == "MpMajorNotImplication"

    def test_rejects_goal_mismatch(self):
        lines = ((A, Hypothesis(0)),)
        report = check_deduction(Deduction((A,), lines, B))
        assert not report.ok
        assert report.code == "GoalMismatch"

    def test_rejects_bad_hypothesis_index(self):
        lines = ((A, Hypothesis(3)),)
        report = check_deduction(Deduction((A,), lines, A))
        assert not report.ok
        assert report.code == "BadHypothesis"

    def test_rejects_wrong_schema_label(self):
        s = Implies(A, Implies(B, A))
        report = check_deduction(Deduction((), ((s, Axiom("A2")),), s))
        assert not report.ok
        assert report.code == "NotAxiomInstance"

    def test_rejects_empty(self):
        report = check_deduction(Deduction((), (), A))
        assert not report.ok
        assert report.code == "EmptyDeduction"


class TestProofText:
    def test_format_and_parse_round_trip(self):
        d = _mp_example()
        text = format_proof(d)
        back = parse_proof(text)
        assert back.hypotheses == d.hypotheses
        assert back.goal == d.goal
        assert len(back.lines) == len(d.lines)
        assert check_deduction(back).ok

    def test_line_format(self):
        text = format_proof(_mp_example())
        lines = text.splitlines()
        assert lines[0] == "1. A ; hyp 0"
        assert lines[1] == "2. A -> B -> A ; axiom A1"
        assert lines[2] == "3. B -> A ; mp 2 1"

    def test_rejects_bad_numbering(self):
        with pytest.raises(ProofFormatError):
            parse_proof("2. A ; hyp 0\n")

    def test_rejects_conflicting_hypothesis(self):
        with pytest.raises(ProofFormatError):
            parse_proof("1. A ; hyp 0\n2. B ; hyp 0\n")

    def test_rejects_sparse_hypothesis_indices(self):
        with pytest.raises(ProofFormatError):
            parse_proof("1. A ; hyp 1\n")

    def test_rejects_malformed_line(self):
        with pytest.raises(ProofFormatError):
            parse_proof("1. A hyp 0\n")

    def test_rejects_an_over_long_numeral(self):
        # longer than int() converts from text: an error of its line
        with pytest.raises(ProofFormatError,
                           match="^line 2: numeral of 5000 digits is too long$"):
            parse_proof("1. A ; hyp 0\n2. A ; hyp " + "9" * 5000 + "\n")

    def test_blank_lines_ignored(self):
        d = parse_proof("\n1. A ; hyp 0\n\n")
        assert d.goal == parse_proof("1. A ; hyp 0\n").goal

    def test_error_after_a_reused_group(self):
        text = ("1. (A -> B) -> (A -> B) ; axiom A1\n"
                "2. (A -> B) (A -> B) ; mp 1 1\n")
        with pytest.raises(FormulaSyntaxError) as err:
            parse_proof(text)
        assert str(err.value) == "line 2: unexpected '(' (column 10)"
        assert (err.value.line, err.value.column) == (2, 10)

    def test_lines_share_repeated_groups(self):
        goal = parse_formula("(A -> B) -> (!B -> !A)").ast
        d = parse_proof(format_proof(synthesize_proof(goal)))
        earlier = {}  # id -> interior node of an earlier line
        reused = 0
        for sentence, _ in d.lines:
            nodes = {}
            stack = [sentence]
            while stack:
                node = stack.pop()
                if type(node) is AtomRef or id(node) in nodes:
                    continue
                nodes[id(node)] = node
                stack.extend([node.child] if type(node) is Not
                             else [node.left, node.right])
            reused += any(key in earlier for key in nodes)
            earlier.update(nodes)
        assert reused > 0
