"""Sentence trees over a finite basic set, and their two-valued semantics.

The kernel language has exactly two connectives, negation and conjunction.
Disjunction and implication are constructor sugar that expands at build
time, so every downstream algorithm handles two node shapes plus atoms.

Every whole-tree walk goes through one private fold, ``_fold(roots, leaf,
neg, conj)``, which keeps its own stack and so has no depth limit.  Its
contract:

* It visits each distinct node object under ``roots`` once, however many
  paths lead to it, entering left children before right ones.
* ``leaf(node)`` is called when a node is first reached, in that
  left-to-right order.  A value other than None becomes the node's value
  and the fold does not descend; atoms must get one.
* Every other node gets ``neg(child_value)`` or ``conj(left_value,
  right_value)``, children before parents.
* A node's value is dropped as soon as its last parent has read it, so
  a walk holds only the values still waiting for a parent.

Truth tables, evaluation (a one-bit table), atom collection and the proof
synthesizer's rewrites are all folds.  Structural equality and the
formatter walk with their own explicit stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import AtomOutOfRangeError, InvalidArgumentError, TooManyAtomsError

#: Hard cap on basic-set size; keeps exhaustive valuation sweeps tractable.
MAX_ATOMS = 20


@dataclass(frozen=True)
class Atom:
    """One element of the basic set: a dense index plus a display name."""

    id: int
    name: str


class Sentence:
    """Immutable sentence tree; subclasses are AtomRef, Not and And.

    Nodes precompute a structural hash so that dictionary-heavy algorithms
    (proof deduplication, truth-table memoization) stay cheap.  Equality is
    structural and ``repr``/``str`` give the concrete syntax; both walk
    with an explicit stack, so depth is unbounded.
    """

    __slots__ = ("_hash", "__weakref__")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # Walk both trees down their left spines; only right pairs wait.
        pending = []
        a, b = self, other
        while True:
            if a is not b:
                t = type(a)
                if t is not type(b) or a._hash != b._hash:
                    return False
                if t is AtomRef:
                    if a.atom is not b.atom and a.atom != b.atom:
                        return False
                elif t is Not:
                    a, b = a.child, b.child
                    continue
                else:
                    pending.append((a.right, b.right))
                    a, b = a.left, b.left
                    continue
            if not pending:
                return True
            a, b = pending.pop()

    def __repr__(self):
        return format_sentence(self)


class AtomRef(Sentence):
    __slots__ = ("atom",)

    def __init__(self, atom: Atom):
        self.atom = atom
        self._hash = hash((1, atom.id, atom.name))


class Not(Sentence):
    __slots__ = ("child",)

    def __init__(self, child: Sentence):
        self.child = child
        self._hash = hash((2, child._hash))


class And(Sentence):
    __slots__ = ("left", "right")

    def __init__(self, left: Sentence, right: Sentence):
        self.left = left
        self.right = right
        self._hash = hash((3, left._hash, right._hash))


def Or(a: Sentence, b: Sentence) -> Sentence:
    """Disjunction sugar: builds the negated conjunction of the negations."""
    return Not(And(Not(a), Not(b)))


def Implies(a: Sentence, b: Sentence) -> Sentence:
    """Implication sugar: builds the negation of (a and not-b)."""
    return Not(And(a, Not(b)))


def as_implication(s: Sentence) -> tuple[Sentence, Sentence] | None:
    """Destructure the implication shape not(x and not(y)) into (x, y)."""
    if type(s) is Not:
        body = s.child
        if type(body) is And and type(body.right) is Not:
            return body.left, body.right.child
    return None


def _fold(roots: Sequence[Sentence], leaf: Callable, neg: Callable | None,
          conj: Callable | None) -> list | None:
    """Post-order fold over the DAG under ``roots``; see the module notes.

    Returns the value of each root, or None when ``neg`` is None (then
    only ``leaf`` runs, once on each distinct node).
    """
    memo: dict[int, object] = {}  # id(node) -> value, until its last parent reads it
    uses: dict[int, int] = {}  # id(node) -> parent edges (and root slots) not yet read
    order: list[Sentence] = []  # interior nodes, children first
    stack: list = list(reversed(roots))
    push = stack.append
    pop = stack.pop
    while stack:
        node = pop()
        if node is None:  # marker: the node below it has all children done
            order.append(pop())
            continue
        key = id(node)
        if key in uses:
            uses[key] += 1
            continue
        uses[key] = 1
        value = leaf(node)
        if value is not None:
            memo[key] = value
        elif type(node) is Not:
            push(node)
            push(None)
            push(node.child)
        else:
            push(node)
            push(None)
            push(node.right)
            push(node.left)
    if neg is None:
        return None
    # Reading a child's value spends one of its uses; the last read drops it.
    # This loop runs once per node of every table, so it is written out.
    for node in order:
        if type(node) is Not:
            key = id(node.child)
            if uses[key] == 1:
                value = neg(memo.pop(key))
            else:
                uses[key] -= 1
                value = neg(memo[key])
        else:
            key = id(node.left)
            if uses[key] == 1:
                left = memo.pop(key)
            else:
                uses[key] -= 1
                left = memo[key]
            key = id(node.right)
            if uses[key] == 1:
                value = conj(left, memo.pop(key))
            else:
                uses[key] -= 1
                value = conj(left, memo[key])
        memo[id(node)] = value
    return [memo[id(root)] for root in roots]


# Formatter precedence levels, loosest first.
_PREC_IMPL = 0
_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3


def format_sentence(s: Sentence) -> str:
    """Render a kernel tree in the concrete grammar; parses back to the
    structurally identical tree.

    not(not a and not b) renders as a | b and not(a and not b) as a -> b.
    When both readings apply (negated antecedent) the two denote the same
    tree, so round-tripping is unaffected either way; the implication
    reading is kept when the antecedent is itself implication-shaped,
    which is how proof lines read naturally.
    """
    out: list[str] = []
    emit = out.append
    stack: list = [_PREC_IMPL, s]  # pieces of text, or a node above its context
    push = stack.append
    pop = stack.pop
    while stack:
        node = pop()
        if type(node) is str:
            emit(node)
            continue
        context = pop()
        while True:  # down the left spine; right operands wait on the stack
            t = type(node)
            if t is AtomRef:
                emit(node.atom.name)
                break
            if t is Not:
                body = node.child
                if type(body) is not And or type(body.right) is not Not:
                    emit("!")
                    node, context = body, _PREC_UNARY + 1
                    continue
                a, b = body.left, body.right.child
                if type(a) is Not and as_implication(a) is None:
                    a, op, prec, b_context = a.child, " | ", _PREC_OR, _PREC_AND
                else:
                    op, prec, b_context = " -> ", _PREC_IMPL, _PREC_IMPL
                a_context = _PREC_OR
            else:
                a, b = node.left, node.right
                op, prec, a_context, b_context = " & ", _PREC_AND, _PREC_AND, _PREC_UNARY
            if context > prec:
                emit("(")
                push(")")
            if type(b) is AtomRef:
                push(b.atom.name)
            else:
                push(b_context)
                push(b)
            push(op)
            node, context = a, a_context
    return "".join(out)


def _nonnegative(n: int) -> None:
    if n < 0:
        raise InvalidArgumentError(f"atom count {n} is negative")


def _size(n: int) -> int:
    """Number of minterms over n atoms, once 0 <= n <= MAX_ATOMS."""
    _nonnegative(n)
    if n > MAX_ATOMS:
        raise TooManyAtomsError(f"{n} atoms exceed the cap of {MAX_ATOMS}")
    return 1 << n


@dataclass(frozen=True)
class Valuation:
    """Total 0/1 assignment over the basic set; atom i reads bits[i]."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise InvalidArgumentError("valuation bits must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "Valuation":
        if not text or any(c not in "01" for c in text):
            raise InvalidArgumentError(f"bad valuation bitstring: {text!r}")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def of_minterm(cls, n: int, index: int) -> "Valuation":
        """Valuation whose minterm index is ``index``; atom 0 is the MSB."""
        _nonnegative(n)
        if not 0 <= index < (1 << n):
            raise InvalidArgumentError(f"minterm index {index} out of range for n={n}")
        return cls(tuple((index >> (n - 1 - i)) & 1 for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def minterm_index(self) -> int:
        idx = 0
        for b in self.bits:
            idx = (idx << 1) | b
        return idx


def _atoms(s: Sentence) -> dict[int, Atom]:
    found: dict[int, Atom] = {}

    def leaf(node):
        if type(node) is AtomRef:
            found.setdefault(node.atom.id, node.atom)
            return node
        return None

    _fold((s,), leaf, None, None)
    return found


def atom_ids(s: Sentence) -> frozenset[int]:
    """Set of atom ids occurring in the sentence."""
    return frozenset(_atoms(s))


def atoms_of(s: Sentence) -> tuple[Atom, ...]:
    """Occurring atoms, sorted by id."""
    found = _atoms(s)
    return tuple(found[i] for i in sorted(found))


def _table(s: Sentence, base: Mapping[int, int], full: int, where: str) -> int:
    """Fold ``s`` into a bitmask: atom id i is ``base[i]``, a negation
    ``full ^ x`` and a conjunction ``x & y``.  An atom missing from
    ``base`` is reported as lying ``where``."""

    def leaf(node):
        if type(node) is not AtomRef:
            return None
        try:
            return base[node.atom.id]
        except KeyError:
            raise AtomOutOfRangeError(
                f"atom {node.atom.name} (id {node.atom.id}) {where}") from None

    return _fold((s,), leaf, full.__xor__, int.__and__)[0]


def evaluate(s: Sentence, v: Valuation) -> int:
    """Two-valued evaluation: not flips, and multiplies (a one-bit table)."""
    bits = v.bits
    return _table(s, dict(enumerate(bits)), 1,
                  f"outside valuation of size {len(bits)}")


def _atom_mask(position: int, m: int) -> int:
    """Bitmask over the 2^m minterm indices where the atom at ``position``
    (0 = most significant) is true."""
    half = 1 << (m - 1 - position)
    mask = ((1 << half) - 1) << half  # one period: zeros then ones
    width = half << 1
    size = 1 << m
    while width < size:  # double the pattern until it covers every minterm
        mask |= mask << width
        width <<= 1
    return mask


def truth_table(s: Sentence, ids: Sequence[int]) -> int:
    """Truth table of ``s`` over the listed atom ids, as a bitmask.

    Bit j of the result is the value of ``s`` under the valuation whose
    minterm index is j (first listed atom most significant).
    """
    ids = list(ids)
    m = len(ids)
    if m > MAX_ATOMS:
        raise TooManyAtomsError(f"{m} atoms exceed the cap of {MAX_ATOMS}")
    base = {a: _atom_mask(i, m) for i, a in enumerate(ids)}
    return _table(s, base, (1 << (1 << m)) - 1, f"not among table atoms {ids}")


def is_tautology(s: Sentence) -> bool:
    """True iff the sentence evaluates to 1 under every valuation of its
    occurring atoms."""
    ids = sorted(atom_ids(s))
    size = 1 << len(ids)
    return truth_table(s, ids) == (1 << size) - 1


def is_unsatisfiable(s: Sentence) -> bool:
    """True iff no valuation of the occurring atoms satisfies the sentence."""
    ids = sorted(atom_ids(s))
    return truth_table(s, ids) == 0


def semantic_equal(a: Sentence, b: Sentence) -> bool:
    """True iff the two sentences agree under every valuation of the union
    of their occurring atoms."""
    ids = sorted(atom_ids(a) | atom_ids(b))
    return truth_table(a, ids) == truth_table(b, ids)


def all_valuations(n: int) -> Iterable[Valuation]:
    """All 2^n valuations over a basic set of size n, in minterm order."""
    for idx in range(_size(n)):
        yield Valuation.of_minterm(n, idx)

