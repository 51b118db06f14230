"""Concrete formula syntax: an operator-precedence parser, and the formatter.

Grammar (loosest to tightest): ``->`` right-associative implication,
``|`` disjunction, ``&`` conjunction, ``!`` negation, parentheses, and
atoms matching ``[A-Za-z_][A-Za-z0-9_]*``.  ``|`` and ``->`` expand to
the kernel connectives at parse time.

The parser keeps explicit operand and operator stacks, so nesting depth
is unbounded.  A character that starts no token is reported before any
grammar error, wherever it stands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import FormulaSyntaxError
from .formulas import And, Atom, AtomRef, Implies, Not, Or, Sentence
from .formulas import format_sentence  # noqa: F401  (re-exported)

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|[!&|()]")
_VALID_RE = re.compile(r"(?:\s+|[A-Za-z_][A-Za-z0-9_]*|->|[!&|()])*")

# Binary operators: precedence (loosest first) and the tree they build.
_BINARY = {"->": (0, Implies), "|": (1, Or), "&": (2, And)}


@dataclass
class ParsedFormula:
    """Parse result: source text, kernel tree, and the name-to-atom map."""

    source: str
    ast: Sentence
    atom_table: dict[str, Atom] = field(default_factory=dict)


def _column(text: str, k: int) -> int:
    """1-based column of the k-th token, or just past the end."""
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        if i == k:
            return m.start() + 1
    return len(text) + 1


def parse_formula(text: str, atom_table: dict[str, Atom] | None = None) -> ParsedFormula:
    """Parse formula text; atoms get dense ids in first-occurrence order.

    Passing an existing ``atom_table`` lets several formulas share one
    basic set (the table is extended in place).
    """
    table = atom_table if atom_table is not None else {}
    bad = _VALID_RE.match(text).end()
    if bad < len(text):
        raise FormulaSyntaxError(f"unexpected character {text[bad]!r}", bad + 1)
    tokens = _TOKEN_RE.findall(text)
    operands: list[Sentence] = []
    ops: list[str] = []  # "(", "!" and binary operators still waiting

    def reduce() -> None:
        right = operands.pop()
        operands[-1] = _BINARY[ops.pop()][1](operands[-1], right)

    open_parens = 0
    want_operand = True
    for k, tok in enumerate(tokens):
        if want_operand:
            if tok == "!" or tok == "(":
                open_parens += tok == "("
                ops.append(tok)
                continue
            if tok in _BINARY or tok == ")":
                raise FormulaSyntaxError("expected an atom, '!', or '('", _column(text, k))
            atom = table.get(tok)
            if atom is None:
                atom = Atom(len(table), tok)
                table[tok] = atom
            node = AtomRef(atom)
        elif tok in _BINARY:
            bound = _BINARY[tok][0] + (tok == "->")  # -> is right-associative
            while ops and ops[-1] != "(" and _BINARY[ops[-1]][0] >= bound:
                reduce()
            ops.append(tok)
            want_operand = True
            continue
        elif tok == ")" and open_parens:
            while ops[-1] != "(":
                reduce()
            ops.pop()
            open_parens -= 1
            node = operands.pop()
        elif open_parens:
            raise FormulaSyntaxError("expected ')'", _column(text, k))
        else:
            raise FormulaSyntaxError(f"unexpected {tok!r}", _column(text, k))
        # An operand is complete: apply the negations waiting for it.
        while ops and ops[-1] == "!":
            ops.pop()
            node = Not(node)
        operands.append(node)
        want_operand = False
    end = len(text) + 1
    if want_operand:
        raise FormulaSyntaxError("expected an atom, '!', or '('", end)
    if open_parens:
        raise FormulaSyntaxError("expected ')'", end)
    while ops:
        reduce()
    return ParsedFormula(text, operands[0], table)
