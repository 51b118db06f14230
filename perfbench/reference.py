"""Reference answers that share no code with the library under test.

Formulas are plain tuples: ``("v", i)`` for atom i, ``("!", x)``,
``("&", x, y)``, ``("|", x, y)`` and ``(">", x, y)`` for implication.
Minterm j assigns atom i the bit ``(j >> (n - 1 - i)) & 1`` (atom 0 most
significant), the same convention the library documents.

Run ``python3 perfbench/reference.py --regen`` to recompute the stored
digests of window sums too slow to sum directly on every run.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

REFS_FILE = Path(__file__).resolve().parent / "refs.json"

# --- Formulas -----------------------------------------------------------------


def render(ast, names) -> str:
    """Concrete syntax with every binary connective parenthesized."""
    op = ast[0]
    if op == "v":
        return names[ast[1]]
    if op == "!":
        return "!" + render(ast[1], names)
    sym = {"&": "&", "|": "|", ">": "->"}[op]
    return f"({render(ast[1], names)} {sym} {render(ast[2], names)})"


def kernel(ast):
    """Expand ``|`` and ``->`` into negation and conjunction."""
    op = ast[0]
    if op == "v":
        return ast
    if op == "!":
        return ("!", kernel(ast[1]))
    a, b = kernel(ast[1]), kernel(ast[2])
    if op == "&":
        return ("&", a, b)
    if op == "|":
        return ("!", ("&", ("!", a), ("!", b)))
    return ("!", ("&", a, ("!", b)))


def atoms_in_order(ast) -> list[int]:
    """Atom indices in first-occurrence (left-to-right) order."""
    seen: dict[int, None] = {}

    def walk(node):
        if node[0] == "v":
            seen.setdefault(node[1], None)
        else:
            for child in node[1:]:
                walk(child)

    walk(ast)
    return list(seen)


def relabel(ast, mapping):
    if ast[0] == "v":
        return ("v", mapping[ast[1]])
    return (ast[0],) + tuple(relabel(c, mapping) for c in ast[1:])


_MASKS: dict[int, list[int]] = {}


def atom_masks(n: int) -> list[int]:
    """Bit j of mask i is atom i's value at minterm j."""
    if n not in _MASKS:
        size = 1 << n
        masks = []
        for i in range(n):
            half = 1 << (n - 1 - i)
            column = ("0" * half + "1" * half) * (size // (2 * half))
            masks.append(int(column[::-1], 2))
        _MASKS[n] = masks
    return _MASKS[n]


def truth_mask(ast, n: int) -> int:
    """Truth table of ``ast`` over atoms 0..n-1 as a 2^n-bit integer."""
    masks = atom_masks(n)
    full = (1 << (1 << n)) - 1

    def ev(node):
        op = node[0]
        if op == "v":
            return masks[node[1]]
        if op == "!":
            return full ^ ev(node[1])
        a, b = ev(node[1]), ev(node[2])
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        return (full ^ a) | b

    return ev(ast)


def evaluate_at(ast, bits) -> int:
    """Value of ``ast`` in one world; ``bits[i]`` is atom i."""
    op = ast[0]
    if op == "v":
        return bits[ast[1]]
    if op == "!":
        return 1 - evaluate_at(ast[1], bits)
    a, b = evaluate_at(ast[1], bits), evaluate_at(ast[2], bits)
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    return (1 - a) | b


def is_tautology(ast, n: int) -> bool:
    return truth_mask(ast, n) == (1 << (1 << n)) - 1


# --- Measures -----------------------------------------------------------------


def mass_of(weights, total: int, mask: int) -> Fraction:
    """Sum of the minterm masses ``weights[j] / total`` over the minterms
    whose bit is set in ``mask``, taken one minterm at a time."""
    bits = format(mask, f"0{len(weights)}b")[::-1]
    acc = 0
    for w, bit in zip(weights, bits):
        if bit == "1":
            acc += w
    return Fraction(acc, total)


def conditioned(weights, mask: int) -> tuple[tuple[int, ...], int]:
    """The measure restricted to ``mask`` and renormalized, as integer
    numerators over one denominator: minterm j has mass nums[j] / den."""
    bits = format(mask, f"0{len(weights)}b")[::-1]
    nums = tuple(w if bit == "1" else 0 for w, bit in zip(weights, bits))
    return nums, sum(nums)


# --- Binomial sums --------------------------------------------------------------


def window(r: int, a: Fraction, b: Fraction) -> tuple[int, int]:
    """Integer run counts k..l with a <= k, l <= b, clamped to 0..r."""
    return max(math.ceil(a), 0), min(math.floor(b), r)


def binomial_sum(r: int, k: int, l: int, p: Fraction) -> Fraction:
    """Direct sum of C(r, j) p^j (1-p)^(r-j) for j in k..l."""
    num, den = p.numerator, p.denominator
    comp = den - num
    total = sum(math.comb(r, j) * num**j * comp ** (r - j) for j in range(k, l + 1))
    return Fraction(total, den**r)


def fraction_digest(q: Fraction) -> str:
    text = f"{q.numerator:x}/{q.denominator:x}"
    return hashlib.sha256(text.encode()).hexdigest()


#: Windows whose direct sums take seconds to minutes; checked by digest.
STORED_WINDOWS = [
    (100_000, Fraction(1, 2), 49_970, 50_030),
    (100_000, Fraction(1, 3), 33_303, 33_363),
]


def _window_key(r, p, k, l) -> str:
    return f"{r}:{p}:{k}:{l}"


def stored_digests() -> dict[str, str]:
    return json.loads(REFS_FILE.read_text())["window_sums"]


def stored_window_digest(r, p, k, l) -> str:
    return stored_digests()[_window_key(r, p, k, l)]


def regenerate() -> None:
    sums = {}
    for r, p, k, l in STORED_WINDOWS:
        sums[_window_key(r, p, k, l)] = fraction_digest(binomial_sum(r, k, l, p))
        print(f"r={r} p={p} window {k}..{l}: done", file=sys.stderr)
    REFS_FILE.write_text(json.dumps({
        "regenerate": "python3 perfbench/reference.py --regen",
        "window_sums": sums}, indent=2) + "\n")


# --- Proof checking -------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(->)|([!&|()]))")


class ProofTextError(ValueError):
    pass


def parse_kernel(text: str, names: dict[str, int]):
    """Parse formula text straight to kernel tuples; unknown names get the
    next free index in ``names``."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ProofTextError(f"bad character at {pos + 1} in {text!r}")
        name, symbol = m.group(1), m.group(2) or m.group(3)
        tokens.append(("name", name) if name else (symbol, None))
        pos = m.end()
    tokens.append(("eof", None))
    i = 0

    def peek():
        return tokens[i][0]

    def take(kind):
        nonlocal i
        if tokens[i][0] != kind:
            raise ProofTextError(f"expected {kind} in {text!r}")
        i += 1
        return tokens[i - 1]

    def imp():
        left = disj()
        if peek() == "->":
            take("->")
            return ("!", ("&", left, ("!", imp())))
        return left

    def disj():
        node = conj()
        while peek() == "|":
            take("|")
            node = ("!", ("&", ("!", node), ("!", conj())))
        return node

    def conj():
        node = unary()
        while peek() == "&":
            take("&")
            node = ("&", node, unary())
        return node

    def unary():
        if peek() == "!":
            take("!")
            return ("!", unary())
        if peek() == "(":
            take("(")
            node = imp()
            take(")")
            return node
        name = take("name")[1]
        return ("v", names.setdefault(name, len(names)))

    node = imp()
    take("eof")
    return node


def _imp(a, b):
    return ("!", ("&", a, ("!", b)))


_A, _B, _C = ("?", "A"), ("?", "B"), ("?", "C")
SCHEMATA = {
    "A1": _imp(_A, _imp(_B, _A)),
    "A2": _imp(_imp(_A, _imp(_B, _C)), _imp(_imp(_A, _B), _imp(_A, _C))),
    "A3": _imp(_imp(("!", _B), ("!", _A)), _imp(_imp(("!", _B), _A), _B)),
}


def _match(pattern, node, binding) -> bool:
    if pattern[0] == "?":
        bound = binding.setdefault(pattern[1], node)
        return bound == node
    if pattern[0] != node[0]:
        return False
    return all(_match(p, c, binding) for p, c in zip(pattern[1:], node[1:]))


_LINE = re.compile(
    r"^\s*(\d+)\.\s*(.*?)\s*;\s*(?:axiom\s+(A[123])|hyp\s+(\d+)|mp\s+(\d+)\s+(\d+))\s*$")


def check_proof(text: str, goal_ast, names: list[str]) -> str | None:
    """Check a hypothesis-free proof text line by line against A1-A3 and
    modus ponens, and that its last line is ``goal_ast``.  Returns None when
    the proof is valid, otherwise the reason it is not."""
    index = {name: i for i, name in enumerate(names)}
    lines = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        m = _LINE.match(raw)
        if m is None:
            return f"unreadable line {raw[:60]!r}"
        number = len(lines) + 1
        if int(m.group(1)) != number:
            return f"line {number} is numbered {m.group(1)}"
        try:
            node = parse_kernel(m.group(2), index)
        except ProofTextError as exc:
            return f"line {number}: {exc}"
        if m.group(3):
            if not _match(SCHEMATA[m.group(3)], node, {}):
                return f"line {number} is not an instance of {m.group(3)}"
        elif m.group(4):
            return f"line {number} cites a hypothesis"
        else:
            major, minor = int(m.group(5)), int(m.group(6))
            if not (1 <= major < number and 1 <= minor < number):
                return f"line {number} cites a line that is not earlier"
            implication = lines[major - 1]
            if implication != _imp(lines[minor - 1], node):
                return f"line {number} does not follow from lines {major}, {minor}"
        lines.append(node)
    if not lines:
        return "empty proof"
    if lines[-1] != kernel(goal_ast):
        return "last line is not the goal"
    return None


def skeleton_is_tautology(ast) -> bool:
    """Derivability test: replace every conjunction whose right operand is
    not a negation (and every atom) by a variable, then ask whether the
    result is still a tautology."""
    units: dict = {}

    def abstract(node):
        if node[0] == "!":
            return ("!", abstract(node[1]))
        if node[0] == "&" and node[2][0] == "!":
            return ("&", abstract(node[1]), abstract(node[2]))
        return ("v", units.setdefault(node, len(units)))

    skeleton = abstract(kernel(ast))
    return is_tautology(skeleton, len(units))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python3 perfbench/reference.py --regen")
    regenerate()
