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

The same table maps token text to the node it parses to, so that text
met again is not parsed again: the whole formula, the text right of its
first depth-0 ``->`` (what a later modus ponens line reprints), and the
inside of each parenthesized group at paren depth 0.  Keys are taken
only there, so each token is joined into at most three keys and a parse
stays linear in its text; keying every group would join a group nested
d deep d times.  Validity is a length check, the tokens' total length
against the text's non-whitespace length; the character scan runs only
to locate the error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice

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


def _closing(tokens: list[str], k: int) -> int | None:
    """Index of the ``)`` that closes the ``(`` at token ``k``, or None
    when none does.  One step per ``)`` in the group."""
    need, start = 1, k + 1
    while need:
        try:
            end = tokens.index(")", start)
        except ValueError:
            return None
        need += tokens[start:end].count("(") - 1
        start = end + 1
    return start - 1


def _parse(text: str, table: dict[str, Atom], nodes: dict) -> Sentence:
    """Parse ``text`` to its tree, extending ``table`` with new atoms.

    Every node is interned in ``nodes`` as it is built: an atom under its
    name, a negation under its child's id, and the tree of a binary
    operator under the operator and its operands' ids.  A subformula met
    again, in this text or in an earlier one parsed with the same
    ``nodes``, is the one node built first.  The ids stay valid because
    ``nodes`` holds every node it keys.

    ``nodes`` also maps token text, space-joined, to the node it parses
    to: the whole text, the text right of its first depth-0 ``->``, and
    the inside of each parenthesized group at depth 0.  Text met again
    there is that node, and its tokens are skipped.
    """
    tokens = _TOKEN_RE.findall(text)
    if sum(map(len, tokens)) != sum(map(len, text.split())):
        bad = _VALID_RE.match(text).end()
        raise FormulaSyntaxError(f"unexpected character {text[bad]!r}", bad + 1)
    whole = " ".join(tokens)
    node = nodes.get(whole)
    if node is not None:
        return node
    operands: list[Sentence] = []
    ops: list[str] = []  # "(", "!" and binary operators still waiting
    depth = 0  # "(" still waiting
    group = ""  # the key of the depth-0 group being parsed
    suffix = None  # the key of the text right of the first depth-0 "->"

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
    steps = enumerate(tokens)
    for k, tok in steps:
        if want_operand:
            if tok == "(" and not depth:
                close = _closing(tokens, k)
                if close is not None:
                    group = " ".join(tokens[k + 1:close])
                    node = nodes.get(group)
                if close is None or node is None:
                    depth = 1
                    ops.append(tok)
                    continue
                next(islice(steps, close - k, close - k), None)  # skip to the ")"
            elif tok == "(" or tok == "!":
                depth += tok == "("
                ops.append(tok)
                continue
            elif tok in _BINARY or tok == ")":
                raise FormulaSyntaxError("expected an atom, '!', or '('", _column(text, k))
            else:
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
            if tok == "->" and not depth and suffix is None:
                # ops holds this "->" alone: every operator before it is
                # reduced, so the right operand is the rest of the text.
                suffix = " ".join(tokens[k + 1:])
                node = nodes.get(suffix)
                if node is not None:
                    operands.append(node)
                    want_operand = False
                    break
            continue
        elif tok == ")" and depth:
            while ops[-1] != "(":
                reduce()
            ops.pop()
            depth -= 1
            node = operands.pop()
            if not depth:
                nodes[group] = node
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
    while len(ops) > 1:
        reduce()
    if suffix is not None:
        nodes[suffix] = operands[1]
    if ops:
        reduce()
    node = nodes[whole] = operands[0]
    return node


def parse_formula(text: str, atom_table: dict[str, Atom] | None = None) -> ParsedFormula:
    """Parse formula text; atoms get dense ids in first-occurrence order.

    Passing an existing ``atom_table`` lets several formulas share one
    basic set (the table is extended in place).
    """
    table = atom_table if atom_table is not None else {}
    return ParsedFormula(text, _parse(text, table, {}), table)
