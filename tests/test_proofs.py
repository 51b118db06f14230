"""Axiom matching, deduction checking, and the proof text format."""

import random
import re
import time

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


def _bench_proofs():
    from test_synthesis import TestTextRoundTrip
    return [format_proof(synthesize_proof(parse_formula(text).ast))
            for text in TestTextRoundTrip._bench_goals()]


def _variant(rng, text):
    """The proof ``text`` respelled line by line: extra parentheses around
    groups, single spaces as tabs or no-break spaces, and one line's
    first ``x -> y`` written ``!(x) | y``."""
    out = []
    respelled = rng.randrange(text.count("\n"))
    for i, line in enumerate(text.splitlines()):
        head, _, rest = line.partition(" ")
        formula, _, just = rest.rpartition(" ; ")
        if i == respelled and " -> " in formula:
            left, _, right = formula.partition(" -> ")
            if "->" not in left:
                formula = f"!({left}) | {right}"
        if rng.random() < 0.5:
            formula = formula.replace("(", "((", 1).replace(")", "))", 1)
        formula = "".join(rng.choice([" ", "\t", "\xa0"]) if ch == " " else ch
                          for ch in formula)
        out.append(f"{head} {formula} ; {just}")
    return "\n".join(out) + "\n"


class TestParseMemo:
    """Text met again is the node parsed first, and the parse is the one
    each line gives on its own."""

    @staticmethod
    def _line_by_line(text):
        table, lines = {}, []
        for line in text.splitlines():
            formula, _, just = line.partition(". ")[2].rpartition(";")
            lines.append((parse_formula(formula.strip(), table).ast, just))
        return lines, list(table)

    def test_each_line_parses_as_on_its_own(self):
        rng = random.Random(25)
        texts = _bench_proofs()
        assert len(texts) == 79
        for text in texts + [_variant(rng, text) for text in texts]:
            table = {}
            d = parse_proof(text, table)
            lines, names = self._line_by_line(text)
            assert [s for s, _ in d.lines] == [s for s, _ in lines]
            assert list(table) == names
            assert parse_proof(format_proof(d)) == d

    def test_skipped_group_is_the_first_node(self):
        d = parse_proof("1. (A -> B) -> A ; hyp 0\n2. !(A -> B) & (A -> B) ; hyp 1\n"
                        "3. A -> B ; hyp 2\n")
        first = d.lines[0][0].child.left
        second = d.lines[1][0]
        assert second.left.child is first and second.right is first
        assert d.lines[2][0] is first

    def test_consequent_is_the_first_node(self):
        d = parse_proof("1. A -> !B & C ; hyp 0\n2. !B & C ; hyp 1\n")
        assert d.lines[1][0] is d.lines[0][0].child.right.child


# The line front and validity check of the parent, kept to check that
# each error is the one they gave.
_ORACLE_LINE_RE = re.compile(
    r"^\s*(?P<num>\d+)\.\s*(?P<formula>.*?)\s*;\s*"
    r"(?:axiom\s+(?P<schema>A[123])"
    r"|hyp\s+(?P<hyp>\d+)"
    r"|mp\s+(?P<major>\d+)\s+(?P<minor>\d+))\s*$")
_ORACLE_VALID_RE = re.compile(r"(?:\s+|[A-Za-z_][A-Za-z0-9_]*|->|[!&|()])*")


def _oracle_error(text):
    """The (class, message, line, column) of the first line front or
    character error of ``text``, or None where each line's front and
    characters are valid."""
    count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        m = _ORACLE_LINE_RE.match(raw)
        if m is None:
            return ProofFormatError, f"line {lineno}: unrecognized proof line", lineno, None
        count += 1
        if int(m["num"]) != count:
            return (ProofFormatError, f"line {lineno}: expected line number {count}, "
                    f"found {m['num']}", lineno, None)
        formula = m["formula"]
        bad = _ORACLE_VALID_RE.match(formula).end()
        if bad < len(formula):
            return (FormulaSyntaxError, f"line {lineno}: unexpected character "
                    f"{formula[bad]!r} (column {bad + 1})", lineno, bad + 1)
        try:
            parse_formula(formula)
        except FormulaSyntaxError as exc:
            return FormulaSyntaxError, f"line {lineno}: {exc}", lineno, exc.column
    return None


def _mutants(rng, text, n):
    lines = text.splitlines()
    for _ in range(n):
        i = rng.randrange(len(lines))
        line = lines[i]
        at = rng.randrange(len(line) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            line = line[:at] + rng.choice(";()->@1\t\xa0") + line[at:]
        elif kind == 1 and at < len(line):
            line = line[:at] + line[at + 1:]
        else:  # repeat an earlier group, then break it
            start = line.find("(")
            end = line.find(")", start) + 1
            if start >= 0 and end:
                group = line[start:end]
                line = line[:end] + " & " + group[:rng.randrange(1, len(group))] + line[end:]
        yield "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"


class TestErrorIdentity:
    """A broken line raises the error the parent's line front and
    validity check raised: class, message, line and column."""

    @pytest.mark.parametrize("text", [
        "1. A ; B ; hyp 0\n",  # a ";" in the formula is a character error
        "1. A ->  ; hyp 0\n",  # the formula ends where the text did
        "1. (A\x1c; hyp 0\n",
        "1. A ;hyp 0 ;\n",
        "1.; hyp 0\n",
        "1. A & ; mp 1 1\n",
    ])
    def test_line_front_pitfalls(self, text):
        self._same(text)

    def test_seeded_mutants(self):
        rng = random.Random(26)
        raised = 0
        for text in _bench_proofs()[:20]:
            for mutant in _mutants(rng, text, 15):
                raised += self._same(mutant)
        assert raised > 150

    @staticmethod
    def _same(text):
        want = _oracle_error(text)
        if want is None:
            parse_proof(text)
            return False
        with pytest.raises(want[0]) as err:
            parse_proof(text)
        assert (str(err.value), err.value.line, getattr(err.value, "column", None)) == want[1:]
        return True


class TestLinearCost:
    """Each token is joined into O(1) memo keys, so a deep group costs
    time linear in its length."""

    @staticmethod
    def _nested(depth):
        group = "(" * depth + "A" + ")" * depth
        return f"1. {group} ; hyp 0\n2. {group} -> {group} ; axiom A1\n"

    def test_two_lines_nest_a_group_deeply(self):
        d = parse_proof(self._nested(10 ** 5))
        assert d.lines[1][0] == Implies(A, A)

    def test_twice_the_depth_is_not_four_times_the_time(self):
        def cost(depth):
            text = self._nested(depth)
            times = []
            for _ in range(5):
                start = time.perf_counter()
                parse_proof(text)
                times.append(time.perf_counter() - start)
            return min(times)
        assert cost(4 * 10 ** 4) < 3 * cost(2 * 10 ** 4)
