"""Concrete formula syntax: an operator-precedence parser, and the formatter.

Grammar (loosest to tightest): ``->`` right-associative implication,
``|`` disjunction, ``&`` conjunction, ``!`` negation, parentheses, and
atoms matching ``[A-Za-z_][A-Za-z0-9_]*``.  ``|`` and ``->`` expand to
the kernel connectives at parse time.

The parser keeps explicit operand and operator stacks, so nesting depth
is unbounded.  A character that starts no token is reported before any
grammar error, wherever it stands.

One linear pass before parsing interns every parenthesized group
(hash-consing; Filliatre and Conchon, "Type-safe modular hash-consing",
2006).  A group whose tokens were parsed before, in this formula or in an
earlier line of the same proof, is not parsed again: its one immutable
node is reused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice

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


def _groups_of(tokens: list[str], groups: dict) -> tuple[list, list[int]]:
    """Intern every closed parenthesized group of ``tokens`` in ``groups``.

    A group's key is the tuple of its direct tokens, each inner group
    replaced by that group's integer id, so equal keys mean equal text and
    no key is longer than its own direct children.  Returns two lists over
    token indices: at each closed '(', its group id and the index of its
    ')'.
    """
    ids: list[int | None] = [None] * len(tokens)
    ends = [0] * len(tokens)
    starts: list[int] = []  # per open '(': where its entry in ``direct`` is
    direct: list = []  # per open '(': its index, then its direct tokens so far
    for k, tok in enumerate(tokens):
        if tok == "(":
            starts.append(len(direct))
            direct.append(k)
        elif tok == ")":
            if not starts:
                continue  # unmatched: the parser reports it
            s = starts.pop()
            key = tuple(direct[s + 1:])
            start = direct[s]
            del direct[s:]
            gid = groups.get(key)
            if gid is None:
                gid = groups[key] = len(groups)  # len only grows: a fresh id
            ids[start] = gid
            ends[start] = k
            if starts:
                direct.append(gid)
        elif starts:
            direct.append(tok)
    return ids, ends


def _parse(text: str, table: dict[str, Atom], groups: dict) -> Sentence:
    """Parse ``text`` to its tree, extending ``table`` with new atoms.

    ``groups`` maps each group key (see ``_groups_of``) to its id, and
    each id whose group has been parsed to its tree.  A group met again
    reuses that tree and is skipped, so text that repeats a parenthesized
    subformula parses it once, and the repeats share one immutable node.
    """
    bad = _VALID_RE.match(text).end()
    if bad < len(text):
        raise FormulaSyntaxError(f"unexpected character {text[bad]!r}", bad + 1)
    tokens = _TOKEN_RE.findall(text)
    ids, ends = _groups_of(tokens, groups) if "(" in text else ((), ())
    operands: list[Sentence] = []
    ops: list[str] = []  # "(", "!" and binary operators still waiting
    opened: list[int | None] = []  # group id of each "(" still waiting

    def reduce() -> None:
        right = operands.pop()
        operands[-1] = _BINARY[ops.pop()][1](operands[-1], right)

    want_operand = True
    steps = enumerate(tokens)
    for k, tok in steps:
        if want_operand:
            if tok == "(":
                gid = ids[k]
                node = groups.get(gid)
                if node is None:
                    opened.append(gid)
                    ops.append(tok)
                    continue
                skip = ends[k] - k
                next(islice(steps, skip, skip), None)  # on past its ')'
            elif tok == "!":
                ops.append(tok)
                continue
            elif tok in _BINARY or tok == ")":
                raise FormulaSyntaxError("expected an atom, '!', or '('", _column(text, k))
            else:
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
        elif tok == ")" and opened:
            while ops[-1] != "(":
                reduce()
            ops.pop()
            node = operands.pop()
            groups[opened.pop()] = node
        elif opened:
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
    if opened:
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
