"""Concrete formula syntax: an operator-precedence parser, and the formatter.

Grammar (loosest to tightest): ``->`` right-associative implication,
``|`` disjunction, ``&`` conjunction, ``!`` negation, parentheses, and
atoms matching ``[A-Za-z_][A-Za-z0-9_]*``.  ``|`` and ``->`` expand to
the kernel connectives at parse time.

The parser keeps explicit operand and operator stacks, so nesting depth
is unbounded.  A character that starts no token is reported before any
grammar error, wherever it stands.

Every node is hash-consed as it is built (Filliatre and Conchon,
"Type-safe modular hash-consing", 2006): structurally equal subformulas
of one call, or of all the lines of one proof, are one immutable node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import FormulaSyntaxError
from .formulas import And, Atom, AtomRef, Not, Sentence
from .formulas import format_sentence  # noqa: F401  (re-exported)

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|[!&|()]")
_VALID_RE = re.compile(r"(?:\s+|[A-Za-z_][A-Za-z0-9_]*|->|[!&|()])*")

# Binary operators and their precedence, loosest first.
_BINARY = {"->": 0, "|": 1, "&": 2}


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


def _parse(text: str, table: dict[str, Atom], nodes: dict) -> Sentence:
    """Parse ``text`` to its tree, extending ``table`` with new atoms.

    Every node is interned in ``nodes`` as it is built: an atom under its
    name, a negation under its child's id, and the tree of a binary
    operator under the operator and its operands' ids.  A subformula met
    again, in this text or in an earlier one parsed with the same
    ``nodes``, is the one node built first.  The ids stay valid because
    ``nodes`` holds every node it keys.
    """
    bad = _VALID_RE.match(text).end()
    if bad < len(text):
        raise FormulaSyntaxError(f"unexpected character {text[bad]!r}", bad + 1)
    tokens = _TOKEN_RE.findall(text)
    operands: list[Sentence] = []
    ops: list[str] = []  # "(", "!" and binary operators still waiting
    depth = 0  # "(" still waiting

    def neg(child: Sentence) -> Sentence:
        node = nodes.get(id(child))
        if node is None:
            node = nodes[id(child)] = Not(child)
        return node

    def conj(left: Sentence, right: Sentence) -> Sentence:
        key = ("&", id(left), id(right))
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = And(left, right)
        return node

    def reduce() -> None:
        right = operands.pop()
        op = ops.pop()
        left = operands[-1]
        key = (op, id(left), id(right))
        node = nodes.get(key)
        if node is None:
            if op == "&":
                node = And(left, right)
            elif op == "|":
                node = neg(conj(neg(left), neg(right)))
            else:
                node = neg(conj(left, neg(right)))
            nodes[key] = node
        operands[-1] = node

    want_operand = True
    for k, tok in enumerate(tokens):
        if want_operand:
            if tok == "(" or tok == "!":
                depth += tok == "("
                ops.append(tok)
                continue
            if tok in _BINARY or tok == ")":
                raise FormulaSyntaxError("expected an atom, '!', or '('", _column(text, k))
            node = nodes.get(tok)
            if node is None:
                atom = table.get(tok)
                if atom is None:
                    atom = table[tok] = Atom(len(table), tok)
                node = nodes[tok] = AtomRef(atom)
        elif tok in _BINARY:
            bound = _BINARY[tok] + (tok == "->")  # -> is right-associative
            while ops and ops[-1] != "(" and _BINARY[ops[-1]] >= bound:
                reduce()
            ops.append(tok)
            want_operand = True
            continue
        elif tok == ")" and depth:
            while ops[-1] != "(":
                reduce()
            ops.pop()
            depth -= 1
            node = operands.pop()
        elif depth:
            raise FormulaSyntaxError("expected ')'", _column(text, k))
        else:
            raise FormulaSyntaxError(f"unexpected {tok!r}", _column(text, k))
        # An operand is complete: apply the negations waiting for it.
        while ops and ops[-1] == "!":
            ops.pop()
            node = neg(node)
        operands.append(node)
        want_operand = False
    end = len(text) + 1
    if want_operand:
        raise FormulaSyntaxError("expected an atom, '!', or '('", end)
    if depth:
        raise FormulaSyntaxError("expected ')'", end)
    while ops:
        reduce()
    return operands[0]


def parse_formula(text: str, atom_table: dict[str, Atom] | None = None) -> ParsedFormula:
    """Parse formula text; atoms get dense ids in first-occurrence order.

    Passing an existing ``atom_table`` lets several formulas share one
    basic set (the table is extended in place).
    """
    table = atom_table if atom_table is not None else {}
    return ParsedFormula(text, _parse(text, table, {}), table)
