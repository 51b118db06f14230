"""Hilbert-style proof kernel: axiom schemata, deductions, and checking.

The three schemata are the classic implication/negation axioms; in the
kernel language an implication x -> y is the tree not(x and not(y)), and
modus ponens destructures exactly that shape.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import FormulaSyntaxError, ProofFormatError
from .formulas import AtomRef, Implies, Not, Sentence, as_implication
from .parsing import Atom, _parse, format_sentence


# --- Schemata ---------------------------------------------------------------
#
# Each schema is a function from its bindings to the instance sentence.
# SCHEMATA holds each one applied to the metavariable atoms A, B and C,
# whose negative ids lie outside every basic set; match_schema reads any
# atom of a schema sentence as a metavariable.

_BUILD = {
    "A1": lambda b: Implies(b["A"], Implies(b["B"], b["A"])),
    "A2": lambda b: Implies(Implies(b["A"], Implies(b["B"], b["C"])),
                            Implies(Implies(b["A"], b["B"]), Implies(b["A"], b["C"]))),
    "A3": lambda b: Implies(Implies(Not(b["B"]), Not(b["A"])),
                            Implies(Implies(Not(b["B"]), b["A"]), b["B"])),
}

_METAVARIABLES = {name: AtomRef(Atom(-1 - i, name)) for i, name in enumerate("ABC")}

SCHEMATA = {name: build(_METAVARIABLES) for name, build in _BUILD.items()}


def match_schema(name: str, s: Sentence) -> dict[str, Sentence] | None:
    """Bindings under which the named schema instantiates to ``s``, if any.
    Each metavariable is bound at its first occurrence, left to right."""
    return _match(SCHEMATA[name], s)


def _match(pattern: Sentence, s: Sentence) -> dict[str, Sentence] | None:
    """Bindings, by atom name, under which ``pattern`` instantiates to
    ``s`` when each of its atoms is read as a metavariable."""
    bindings: dict[str, Sentence] = {}
    stack = [(pattern, s)]
    while stack:
        pattern, node = stack.pop()
        t = type(pattern)
        if t is AtomRef:
            if bindings.setdefault(pattern.atom.name, node) != node:
                return None
        elif type(node) is not t:
            return None
        elif t is Not:
            stack.append((pattern.child, node.child))
        else:
            stack.append((pattern.right, node.right))
            stack.append((pattern.left, node.left))
    return bindings


def is_axiom_instance(s: Sentence) -> tuple[str, dict[str, Sentence]] | None:
    """First schema (in the order of SCHEMATA: A1, A2, A3) matching ``s``,
    with the substitution witnessing the match."""
    for name in SCHEMATA:
        bindings = match_schema(name, s)
        if bindings is not None:
            return name, bindings
    return None


def instantiate(name: str, bindings: Mapping[str, Sentence]) -> Sentence:
    """Substitute concrete sentences for the schema's metavariables."""
    return _BUILD[name](bindings)


# --- Deductions -------------------------------------------------------------


@dataclass(frozen=True)
class Axiom:
    """Line justified as an instance of the named schema."""

    schema: str


@dataclass(frozen=True)
class Hypothesis:
    index: int


@dataclass(frozen=True)
class ModusPonens:
    major: int  # 0-based earlier line holding x -> y
    minor: int  # 0-based earlier line holding x


Justification = Union[Axiom, Hypothesis, ModusPonens]


@dataclass(frozen=True)
class Deduction:
    hypotheses: tuple[Sentence, ...]
    lines: tuple[tuple[Sentence, Justification], ...]
    goal: Sentence


@dataclass(frozen=True)
class CheckReport:
    """Outcome of checking a deduction; ``line`` is the 1-based first
    offending line, or None for whole-deduction problems."""

    ok: bool
    line: int | None = None
    code: str | None = None
    message: str = ""


def _fail(line_no, code, message):
    return CheckReport(False, line_no, code, message)


def check_deduction(d: Deduction) -> CheckReport:
    """Verify every line independently and that the last line is the goal."""
    if not d.lines:
        return _fail(None, "EmptyDeduction", "deduction has no lines")
    for i, (sentence, just) in enumerate(d.lines):
        line_no = i + 1
        if isinstance(just, Axiom):
            if just.schema not in SCHEMATA:
                return _fail(line_no, "MalformedJustification",
                             f"unknown schema {just.schema!r}")
            if match_schema(just.schema, sentence) is None:
                return _fail(line_no, "NotAxiomInstance",
                             f"sentence does not match schema {just.schema}")
        elif isinstance(just, Hypothesis):
            if not 0 <= just.index < len(d.hypotheses):
                return _fail(line_no, "BadHypothesis",
                             f"hypothesis index {just.index} out of range")
            if d.hypotheses[just.index] != sentence:
                return _fail(line_no, "BadHypothesis",
                             f"line does not equal hypothesis {just.index}")
        elif isinstance(just, ModusPonens):
            if not (0 <= just.major < i and 0 <= just.minor < i):
                return _fail(line_no, "ForwardReference",
                             f"modus ponens cites lines {just.major + 1}, "
                             f"{just.minor + 1} not strictly earlier")
            imp = as_implication(d.lines[just.major][0])
            if imp is None:
                return _fail(line_no, "MpMajorNotImplication",
                             f"line {just.major + 1} is not an implication")
            antecedent, consequent = imp
            if d.lines[just.minor][0] != antecedent:
                return _fail(line_no, "MpMismatch",
                             f"line {just.minor + 1} is not the antecedent "
                             f"of line {just.major + 1}")
            if sentence != consequent:
                return _fail(line_no, "MpMismatch",
                             "line is not the consequent of the cited "
                             "implication")
        else:
            return _fail(line_no, "MalformedJustification",
                         f"unrecognized justification {just!r}")
    if d.lines[-1][0] != d.goal:
        return _fail(len(d.lines), "GoalMismatch",
                     "last line differs from the stated goal")
    return CheckReport(True)


# --- Proof text format ------------------------------------------------------
#
# One line per proof step:  "<n>. <formula> ; axiom A1"  or  "; hyp <k>"
# or  "; mp <i> <j>"  with 1-based line numbers; the last line is the goal.

# A line is its head, the formula, and the justification after the line's
# last ";" (no justification holds one).  The formula runs from the head's
# end to that ";", less the whitespace before it.
_HEAD_RE = re.compile(r"\s*(?P<num>\d+)\.\s*")
_JUSTIFICATION_RE = re.compile(
    r"\s*(?:axiom\s+(?P<schema>A[123])"
    r"|hyp\s+(?P<hyp>\d+)"
    r"|mp\s+(?P<major>\d+)\s+(?P<minor>\d+))\s*$"
)


def format_proof(d: Deduction) -> str:
    """Render a deduction in the line-based proof text format."""
    out = []
    for i, (sentence, just) in enumerate(d.lines):
        if isinstance(just, Axiom):
            tail = f"axiom {just.schema}"
        elif isinstance(just, Hypothesis):
            tail = f"hyp {just.index}"
        else:
            tail = f"mp {just.major + 1} {just.minor + 1}"
        out.append(f"{i + 1}. {format_sentence(sentence)} ; {tail}")
    return "\n".join(out) + "\n"


def _numeral(digits: str, lineno: int) -> int:
    """The value of a numeral on proof line ``lineno``; one too long for
    ``int`` to convert is a format error of that line."""
    try:
        return int(digits)
    except ValueError:
        raise ProofFormatError(f"numeral of {len(digits)} digits is too long", lineno) from None


def parse_proof(text: str, atom_table: dict[str, Atom] | None = None) -> Deduction:
    """Parse proof text; hypothesis sentences are reconstructed from the
    ``hyp <k>`` lines, which must agree and use dense indices.

    Every line reprints earlier formulas, so the lines share one node
    table: each distinct subformula of the proof is one shared node, and
    a whole formula, consequent or depth-0 group whose text an earlier
    line held is that line's node, its tokens not parsed again."""
    table = atom_table if atom_table is not None else {}
    nodes: dict = {}
    lines: list[tuple[Sentence, Justification]] = []
    hyp_sentences: dict[int, Sentence] = {}
    count = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        head = _HEAD_RE.match(raw)
        semi = raw.rfind(";")
        m = _JUSTIFICATION_RE.match(raw, semi + 1) if head and semi >= 0 else None
        if m is None:
            raise ProofFormatError("unrecognized proof line", lineno)
        count += 1
        if _numeral(head["num"], lineno) != count:
            raise ProofFormatError(
                f"expected line number {count}, found {head['num']}", lineno)
        try:
            sentence = _parse(raw[head.end():semi].rstrip(), table, nodes)
        except FormulaSyntaxError as exc:
            raise FormulaSyntaxError(exc.message, exc.column, lineno) from None
        if m.group("schema"):
            just: Justification = Axiom(m.group("schema"))
        elif m.group("hyp"):
            k = _numeral(m.group("hyp"), lineno)
            seen = hyp_sentences.get(k)
            if seen is not None and seen != sentence:
                raise ProofFormatError(
                    f"hypothesis {k} bound to two different sentences", lineno)
            hyp_sentences[k] = sentence
            just = Hypothesis(k)
        else:
            just = ModusPonens(_numeral(m.group("major"), lineno) - 1,
                               _numeral(m.group("minor"), lineno) - 1)
        lines.append((sentence, just))
    if not lines:
        raise ProofFormatError("proof text contains no lines")
    if hyp_sentences and sorted(hyp_sentences) != list(range(len(hyp_sentences))):
        raise ProofFormatError(
            f"hypothesis indices {sorted(hyp_sentences)} are not dense from 0")
    hypotheses = tuple(hyp_sentences[k] for k in range(len(hyp_sentences)))
    return Deduction(hypotheses, tuple(lines), lines[-1][0])
