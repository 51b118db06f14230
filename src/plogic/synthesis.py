"""Constructive proof search for tautologies in the three-schema system.

The synthesizer derives the goal under every valuation from literal
hypotheses, then discharges the hypotheses pairwise with a mechanical
deduction-theorem transformer and a case-split step (Kalmár's
construction).  Two shorter routes compete with this sweep (assume the
goal's antecedents and close them under modus ponens; the contraposition
template), and the proof with the fewest lines wins, the sweep's on a tie.
A second sweep over the goal's coarsest units competes last.

Route order.  After its refusal checks ``synthesize_proof`` runs the two
cheap routes, and goes on only when neither succeeds or when
``_sweep_is_longer`` cannot show that the sweep's proof has more lines
than the best cheap proof.  The sweep's proof must have *more* lines, so
a tie still keeps its text and the output is what building all three
gives.  It then searches for the goal's coarsest units.  Where the search
ends at one leaf that the one-leaf rule admits (see "Coarse units"), it
builds only the sweep over that leaf and keeps its proof when it has
strictly fewer lines than the best cheap proof, or when there is none.
Elsewhere it builds the sweep, and where the search takes any units it
sweeps the goal over them as well.  That proof is kept only when it has
strictly fewer lines than the one the first three give, so a proof
changes only where it gets strictly shorter.  Of the 79 perfbench goals,
13 build a sweep (77 when every sweep was built): the ten goals
(!x -> x) -> x build only the coarse one, whose proofs have 122 lines
where the fine sweep's have 729-745.  The 79 proofs total 4,152 lines
instead of 10,286.

Coarse units.  The sweep's cost and length grow as 2^k in its k leaves,
so a goal that is a substitution instance of a smaller pattern is better
swept over the pattern's variables (Plotkin, "A note on inductive
generalization", 1970).  ``_coarsest_units`` tries the goal's compound
subformulas as leaves, largest first (in nodes, a leaf counting one),
each once.  It takes a candidate S when (a) abstracting S lowers the leaf
count, that is when at least two leaves occur only inside S, and (b) the
goal's table over the new leaves stays all ones; it stops at one leaf.
The goal itself is no candidate, and neither is a ``!z`` that is the
right operand of a body x & !z, since ``derive`` reads z's table there.
The sweep itself is unchanged: ``derive`` reads its leaves from the unit
list it is given, so it proves the goal in place, and the proof is the
pattern's with the units put back for its variables.

The one-leaf rule.  Where the search ends at a single leaf S whose table
over the opaque units is neither all zeros nor all ones, the fine sweep is
not built: the coarse sweep's proof is taken to be strictly shorter, so
the fine one could never be kept.  This is measured, not proved.  Of
9,139 goals (the bench's, and seeded draws of the test generators), 1,107
reach the routes with one such leaf, and on each the coarse sweep is
strictly shorter, by 119 lines or more; of 115 with a constant leaf, only
37 are.  Each goal found whose coarse sweep is longer has two or more
leaves or a constant leaf, such as the four in ``TestCoarseUnits``, each
of which takes a tautology as a leaf.

Both tests read one DAG of the goal down to its leaves, one class per
distinct subformula (``_classes``), so the search costs a few passes
linear in the goal, not one per candidate.  For (a), leaf u occurs only
inside S iff paths(S) * paths(S to u) = paths(u), counting paths from
the root down (one pass) and from each class down to each leaf (one pass,
one bit field per leaf).  For (b), with S a free variable the goal is a
tautology iff it stays one with S negated throughout: under any values
of the leaves outside S, the goal already holds for each value that S
takes as the leaves inside S vary, and negating S gives the other value.
Where S occurs once, the negated goal differs from the goal exactly where
the goal reads S, which one more top-down pass gives for every such
class, so S is taken only if the goal never reads it.  A class that
occurs more than once is negated and its ancestors recomputed.

The certificate.  Every closed line (one with no working hypothesis) is
made by ``axiom`` or ``mp``, and both look the sentence up first, so closed
lines hold pairwise distinct sentences and the sweep's root is its first
closed line of the goal g: if one exists, the last ``mp`` of the outermost
case split returns it.  The sweep stops at that line, since no line
appended after it is cited by it.  For g = a -> b, ``_sweep_is_longer``
asks four things:

1. a is an implication x -> y with y other than b, and b is not a unit
   under any number of ``!``.  Then neither side of g is a hypothesis of
   the sweep (u or !u) or a ``dni`` chain over one, so ``dt`` lifting
   such a line over a hypothesis never writes g.  The rest of 1 is
   stricter than that argument needs, because lines that a lemma shares
   with earlier lines can make it shorter than in a fresh builder.  With a
   conjunction for a, ``exfalso(a, b)`` picked up an earlier closed
   !b -> !a and discharged straight to g (A & (B | A) -> A sweeps to 33
   lines); with y = b, ``derive`` builds a's lines out of b's and the
   split's lemmas share them (!!A | (B | A) -> B | A sweeps to 90); and
   with b = !!u the same happens through u's ``dni`` chain.
2. a's table over the units is not all zeros, and b's is not all ones.
   Every closed line is derivable, so no closed line proves !a or b, and
   neither ``derive`` step that concludes a -> b (``exfalso`` from !a, A1
   from b) can conclude it closed.
3. g is none of the closed lines that ``dni(X)``, ``exfalso(X, Z)`` and
   ``conj_intro_neg(X, Z)`` write on metavariables, such as
   x -> ((x -> z) -> z).  These are the lemmas ``derive`` calls.
4. The cheap proof has fewer lines than the floor: 98 for a sweep over
   one unit, the lines that ``contra(P, G)``, ``contra(!P, G)`` and
   ``dne(P)`` cite together in a fresh builder, and 196 over two or more
   units, what the same lemmas on P and on Q cite together.  Under 1-3 the
   root is the last ``mp`` of a case split on some unit p, which cites
   those lemmas on p and g, plus a dozen lines of its own; over two or
   more units its sides are taken to cite a split on a second unit too.

Conditions 1-3 and the floors of 4 are argued, not proved: lemma lines
shared with earlier lines are why 1 is strict, and they are measured.
Of 20,314 random goals and every goal a -> b whose sides have at most
five nodes over two atoms or four over three, 7,390 pass 1-3.  None of
them sweeps to fewer than 197 lines, and each sweep's root is the last
``mp`` of a case split.  Of the 9,139 goals above, chains of compound
links among them, 1,678 pass 1-3 over two or more units; none sweeps to
fewer than 218 lines, and on 98 the cheap proof has 98-195 lines, so the
floor of two splits alone skips the sweep.  ``TestSweepPremises`` checks
both measured rules on seeded draws.

Derivability boundary.  Modus ponens only ever destructures the
implication shape not(x and not(y)), and every conjunction inside the
axiom schemata carries a negation on the right.  A conjunction whose
right operand is *not* a negation is therefore opaque to the system:
no deduction can take it apart.  Abstracting every maximal opaque
conjunction into a fresh variable maps each derivable sentence to a
tautology over the extended variable set (axiom instances stay axiom
instances and modus ponens steps stay valid under the abstraction), so
a sentence whose abstraction is falsifiable has no proof at all.
Conversely, when the abstraction is a tautology the synthesizer sweeps
the goal itself over its opaque units, each unit a leaf of the sweep.
The check, its refusal's witness and the sweep read one set of truth
tables over the units: the goal's table is its abstraction's.

The steps that follow the goal's structure (``derive`` and the
deduction-theorem transform ``dt``) are generators driven by one loop,
``_run``, so goal depth is limited by memory, not by the recursion limit.
"""

from __future__ import annotations

from functools import cache
from typing import Generator, Mapping, Sequence

from .errors import NotDerivableError, NotTautologyError, TooManyAtomsError
from .formulas import (
    And,
    Atom,
    AtomRef,
    Implies,
    Not,
    Sentence,
    _atom_mask,
    _fold,
    _size,
    as_implication,
    atom_ids,
    format_sentence,
    is_tautology,
    truth_table,
)
from .proofs import Axiom, Deduction, Hypothesis, ModusPonens, _match, instantiate, is_axiom_instance

#: Operation contract: refuse goals with more distinct atoms than this.
MAX_GOAL_ATOMS = 6

#: Internal cap on opaque units (each one doubles the case sweep).
MAX_SWEEP_VARS = 9

# Placeholder justification for working hypotheses; never survives extraction.
_HYP = Hypothesis(-1)


def _is_unit(node: Sentence) -> bool:
    """True for the opaque units: atoms, and conjunctions whose right
    operand is not a negation."""
    t = type(node)
    return t is AtomRef or (t is And and type(node.right) is not Not)


def opaque_skeleton(s: Sentence) -> tuple[Sentence, dict[int, Sentence]]:
    """Abstract every maximal opaque unit into a fresh variable.

    Opaque units are atoms and conjunctions whose right operand is not a
    negation.  Returns the abstracted sentence and the map from variable
    id back to the original subtree; equal subtrees share one variable.
    """
    var_of: dict[Sentence, AtomRef] = {}
    subtree_of: dict[int, Sentence] = {}

    def leaf(node: Sentence) -> AtomRef | None:
        if not _is_unit(node):
            return None
        ref = var_of.get(node)  # the fold meets units left to right
        if ref is None:
            vid = len(var_of)
            ref = AtomRef(Atom(vid, f"_v{vid}"))
            var_of[node] = ref
            subtree_of[vid] = node
        return ref

    return _fold((s,), leaf, Not, And)[0], subtree_of


def _unit_tables(goal: Sentence, is_leaf=_is_unit
                 ) -> tuple[list[Sentence], dict[int, tuple[int, int]]]:
    """The leaves of ``goal`` (by default its opaque units, in the order of
    ``opaque_skeleton``) as the fold meets them, and by node id each
    node's truth table over them (the first most significant) with the
    mask of the minterm-index bits its leaves occupy.  Past the sweep's cap
    only the goal's entry is kept."""
    nodes: list[Sentence] = []

    def collect(node: Sentence) -> Sentence | None:
        nodes.append(node)
        return node if is_leaf(node) else None

    _fold((goal,), collect, None, None)
    units = list(dict.fromkeys(filter(is_leaf, nodes)))  # as the fold meets them
    k = len(units)
    full = (1 << _size(k)) - 1
    leaves = {unit: (_atom_mask(p, k), 1 << (k - 1 - p)) for p, unit in enumerate(units)}
    roots = nodes if k <= MAX_SWEEP_VARS else (goal,)
    values = _fold(roots, leaves.get, lambda c: (full ^ c[0], c[1]),
                   lambda a, b: (a[0] & b[0], a[1] | b[1]))
    return units, dict(zip(map(id, roots), values))


def is_derivable(s: Sentence) -> bool:
    """True iff some hypothesis-free deduction proves ``s``: the sentence
    must stay a tautology after opaque-conjunction abstraction, which its
    table over its units decides.  Past ``MAX_ATOMS`` units a sentence that
    is no tautology is still answered False."""
    try:
        units, tables = _unit_tables(s)
    except TooManyAtomsError:
        if not is_tautology(s):
            return False
        raise
    return tables[id(s)][0] == (1 << (1 << len(units))) - 1


def substitute_atoms(s: Sentence, mapping: Mapping[int, Sentence]) -> Sentence:
    """Replace every atom by its image under ``mapping`` (total on s)."""

    def leaf(node: Sentence) -> Sentence | None:
        return mapping[node.atom.id] if type(node) is AtomRef else None

    return _fold((s,), leaf, Not, And)[0]


def _run(steps: Generator) -> int:
    """Run proof steps to their line.  A step yields each sub-step whose
    line it needs and is sent that line back; the suspended steps wait on
    this loop's own stack, not on Python's."""
    stack = [steps]
    line = None
    while True:
        try:
            sub = stack[-1].send(line)
        except StopIteration as done:
            stack.pop()
            line = done.value
            if not stack:
                return line
        else:
            stack.append(sub)
            line = None


class _GoalClosed(Exception):
    """The sweep has reached its first closed line of the goal."""

    def __init__(self, line: int):
        self.line = line


class _Builder:
    """Growing line list with sentence-level deduplication.

    Every line records the set of working-hypothesis sentences it depends
    on; closed lines (empty set) are shared freely, other lines are reused
    only where their hypothesis set is available.  A builder given a goal
    raises ``_GoalClosed`` as soon as it appends a closed line of it.
    """

    def __init__(self, units: Sequence[Sentence] = (),
                 tables: Mapping[int, tuple[int, int]] | None = None,
                 goal: Sentence | None = None):
        self.sents: list[Sentence] = []
        self.justs: list = []
        self.hyps: list[frozenset] = []
        self._closed: dict[Sentence, int] = {}
        self._by_sent: dict[Sentence, list[tuple[int, frozenset]]] = {}
        self._hyp_lines: dict[Sentence, int] = {}
        self._dt_memo: dict[tuple[int, Sentence], int] = {}
        self._derive_memo: dict = {}
        self._units = frozenset(units)  # the leaves of ``derive``
        self._tables = tables  # node id -> (table, unit bits), for ``derive``
        self._goal = goal
        self._goal_hash = None if goal is None else goal._hash

    # -- line primitives ----------------------------------------------------

    def _append(self, sent: Sentence, just, hypset: frozenset) -> int:
        idx = len(self.sents)
        self.sents.append(sent)
        self.justs.append(just)
        self.hyps.append(hypset)
        if hypset:
            self._by_sent.setdefault(sent, []).append((idx, hypset))
        else:
            self._closed.setdefault(sent, idx)
            if sent._hash == self._goal_hash and sent == self._goal:
                raise _GoalClosed(idx)
        return idx

    def axiom(self, name: str, bindings: Mapping[str, Sentence]) -> int:
        sent = instantiate(name, bindings)
        idx = self._closed.get(sent)
        if idx is None:
            idx = self._append(sent, Axiom(name), frozenset())
        return idx

    def hyp(self, literal: Sentence) -> int:
        idx = self._hyp_lines.get(literal)
        if idx is None:
            idx = self._append(literal, _HYP, frozenset((literal,)))
            self._hyp_lines[literal] = idx
        return idx

    def mp(self, major: int, minor: int) -> int:
        imp = as_implication(self.sents[major])
        assert imp is not None and self.sents[minor] == imp[0]
        consequent = imp[1]
        idx = self._closed.get(consequent)
        if idx is not None:
            return idx
        hypset = self.hyps[major] | self.hyps[minor]
        if hypset:
            for j, hs in self._by_sent.get(consequent, ()):
                if hs <= hypset:
                    return j
        return self._append(consequent, ModusPonens(major, minor), hypset)

    # -- closed theorem templates --------------------------------------------

    def l1(self, x: Sentence) -> int:
        """x -> x."""
        target = Implies(x, x)
        got = self._closed.get(target)
        if got is not None:
            return got
        xx = target
        a2 = self.axiom("A2", {"A": x, "B": xx, "C": x})
        a1a = self.axiom("A1", {"A": x, "B": xx})
        m1 = self.mp(a2, a1a)
        a1b = self.axiom("A1", {"A": x, "B": x})
        return self.mp(m1, a1b)

    def dne(self, x: Sentence) -> int:
        """!!x -> x."""
        nx = Not(x)
        nn = Not(nx)
        target = Implies(nn, x)
        got = self._closed.get(target)
        if got is not None:
            return got
        h = self.hyp(nn)
        a1 = self.axiom("A1", {"A": nn, "B": nx})
        m1 = self.mp(a1, h)  # !x -> !!x
        a3 = self.axiom("A3", {"A": nx, "B": x})
        m2 = self.mp(a3, m1)  # (!x -> !x) -> x
        m3 = self.mp(m2, self.l1(nx))  # x, from {!!x}
        return self.dt(m3, nn)

    def dni(self, x: Sentence) -> int:
        """x -> !!x."""
        nx = Not(x)
        nn = Not(nx)
        target = Implies(x, nn)
        got = self._closed.get(target)
        if got is not None:
            return got
        nnn = Not(nn)
        d = self.dne(nx)  # !!!x -> !x
        a3 = self.axiom("A3", {"A": x, "B": nn})
        m1 = self.mp(a3, d)  # (!!!x -> x) -> !!x
        h = self.hyp(x)
        a1 = self.axiom("A1", {"A": x, "B": nnn})
        m2 = self.mp(a1, h)  # !!!x -> x
        m3 = self.mp(m1, m2)  # !!x, from {x}
        return self.dt(m3, x)

    def exfalso(self, x: Sentence, y: Sentence) -> int:
        """!x -> (x -> y)."""
        nx = Not(x)
        target = Implies(nx, Implies(x, y))
        got = self._closed.get(target)
        if got is not None:
            return got
        ny = Not(y)
        hx = self.hyp(x)
        hnx = self.hyp(nx)
        m1 = self.mp(self.axiom("A1", {"A": x, "B": ny}), hx)  # !y -> x
        m2 = self.mp(self.axiom("A1", {"A": nx, "B": ny}), hnx)  # !y -> !x
        a3 = self.axiom("A3", {"A": x, "B": y})
        m4 = self.mp(self.mp(a3, m2), m1)  # y, from {x, !x}
        return self.dt(self.dt(m4, x), nx)

    def conj_intro_neg(self, x: Sentence, z: Sentence) -> int:
        """x -> (!z -> (x & !z))."""
        nz = Not(z)
        conj = And(x, nz)
        target = Implies(x, Implies(nz, conj))
        got = self._closed.get(target)
        if got is not None:
            return got
        imp_xz = Implies(x, z)  # the same tree as !(x & !z)
        hx = self.hyp(x)
        hnz = self.hyp(nz)
        m1 = self.mp(self.axiom("A1", {"A": nz, "B": imp_xz}), hnz)  # (x->z) -> !z
        hi = self.hyp(imp_xz)
        m2 = self.mp(hi, hx)  # z, from {x, x->z}
        d1 = self.dt(m2, imp_xz)  # (x->z) -> z, from {x}
        a3 = self.axiom("A3", {"A": z, "B": conj})
        m4 = self.mp(self.mp(a3, m1), d1)  # x & !z, from {x, !z}
        return self.dt(self.dt(m4, nz), x)

    def contra(self, x: Sentence, y: Sentence) -> int:
        """(x -> y) -> (!y -> !x)."""
        imp = Implies(x, y)
        nx = Not(x)
        ny = Not(y)
        target = Implies(imp, Implies(ny, nx))
        got = self._closed.get(target)
        if got is not None:
            return got
        nn = Not(nx)
        hi = self.hyp(imp)
        hny = self.hyp(ny)
        hnn = self.hyp(nn)
        m1 = self.mp(self.dne(x), hnn)  # x, from {!!x}
        m2 = self.mp(hi, m1)  # y, from {imp, !!x}
        d2 = self.dt(m2, nn)  # !!x -> y, from {imp}
        m3 = self.mp(self.axiom("A1", {"A": ny, "B": nn}), hny)  # !!x -> !y
        a3 = self.axiom("A3", {"A": y, "B": nx})
        m5 = self.mp(self.mp(a3, m3), d2)  # !x, from {imp, !y}
        return self.dt(self.dt(m5, ny), imp)

    # -- deduction-theorem transformer ----------------------------------------

    def dt(self, i: int, h: Sentence) -> int:
        """Line proving h -> sentence(i), with h removed from the hypothesis
        set."""
        return _run(self._dt(i, h))

    def _dt(self, i: int, h: Sentence) -> Generator:
        """Steps of ``dt``.  Lines not depending on h are lifted with one A1
        step; modus ponens steps are rebuilt through the distribution
        schema A2."""
        key = (i, h)
        got = self._dt_memo.get(key)
        if got is not None:
            return got
        sent = self.sents[i]
        if h not in self.hyps[i]:
            lift = self.axiom("A1", {"A": sent, "B": h})
            res = self.mp(lift, i)
        elif sent == h:
            res = self.l1(h)
        else:
            just = self.justs[i]
            assert type(just) is ModusPonens, "dependent line must be a deduction step"
            x, y = as_implication(self.sents[just.major])
            da = yield self._dt(just.major, h)  # h -> (x -> y)
            db = yield self._dt(just.minor, h)  # h -> x
            a2 = self.axiom("A2", {"A": h, "B": x, "C": y})
            res = self.mp(self.mp(a2, da), db)
        self._dt_memo[key] = res
        return res

    # -- per-valuation derivation ---------------------------------------------

    def derive(self, node: Sentence, idx: int) -> Generator:
        """Steps to the line proving ``node`` when it holds under minterm
        ``idx`` of the sweep's units, else its negation, from the literal
        hypotheses of ``idx``.  The units are the leaves: a unit is never
        the ``!z`` of a body x & !z, whose z's table is read."""
        tables = self._tables
        table, unit_bits = tables[id(node)]
        key = (node, idx & unit_bits)
        got = self._derive_memo.get(key)
        if got is not None:
            return got
        if node in self._units:
            res = self.hyp(node if table >> idx & 1 else Not(node))
        elif type(node) is Not:
            c = node.child
            i = yield self.derive(c, idx)
            if tables[id(c)][0] >> idx & 1:
                res = self.mp(self.dni(c), i)  # !!c refutes node = !c
            else:
                res = i  # the line already proves !c, i.e. node
        else:
            x = node.left
            z = node.right.child  # node is x & !z, i.e. !(x -> z)
            if not tables[id(x)][0] >> idx & 1:
                ix = yield self.derive(x, idx)  # !x
                res = self.mp(self.exfalso(x, z), ix)  # x -> z refutes node
            elif tables[id(z)][0] >> idx & 1:
                iz = yield self.derive(z, idx)  # z
                res = self.mp(self.axiom("A1", {"A": z, "B": x}), iz)  # x -> z
            else:
                ix = yield self.derive(x, idx)  # x
                iz = yield self.derive(z, idx)  # !z
                t1 = self.conj_intro_neg(x, z)
                res = self.mp(self.mp(t1, ix), iz)  # x & !z = node
        self._derive_memo[key] = res
        return res

    # -- hypothesis elimination -----------------------------------------------

    def case_split(self, p: Sentence, g: Sentence, line_pg: int, line_npg: int) -> int:
        """From p -> g and !p -> g, derive g."""
        ng = Not(g)
        np_ = Not(p)
        nnp = Not(np_)
        m1 = self.mp(self.contra(p, g), line_pg)  # !g -> !p
        m2 = self.mp(self.contra(np_, g), line_npg)  # !g -> !!p
        d = self.dne(p)  # !!p -> p
        lift = self.axiom("A1", {"A": Implies(nnp, p), "B": ng})
        m3 = self.mp(lift, d)  # !g -> (!!p -> p)
        a2 = self.axiom("A2", {"A": ng, "B": nnp, "C": p})
        m5 = self.mp(self.mp(a2, m3), m2)  # !g -> p
        a3 = self.axiom("A3", {"A": p, "B": g})
        return self.mp(self.mp(a3, m1), m5)

    def eliminate(self, units: Sequence[Sentence], goal: Sentence,
                  i: int = 0, idx: int = 0) -> int:
        """Derive ``goal`` with units i.. discharged; unit j < i is fixed
        to bit i - 1 - j of ``idx``."""
        if i == len(units):
            return _run(self.derive(goal, idx))
        unit = units[i]
        t = self.eliminate(units, goal, i + 1, idx << 1 | 1)
        f = self.eliminate(units, goal, i + 1, idx << 1)
        line_pg = self.dt(t, unit)
        line_npg = self.dt(f, Not(unit))
        return self.case_split(unit, goal, line_pg, line_npg)

    # -- extraction -------------------------------------------------------------

    def reach(self, roots: Sequence[int]) -> set[int]:
        """The lines that ``roots`` cite, directly or not, and the roots."""
        keep = set()
        stack = list(roots)
        while stack:
            i = stack.pop()
            if i in keep:
                continue
            keep.add(i)
            j = self.justs[i]
            if type(j) is ModusPonens:
                stack.append(j.major)
                stack.append(j.minor)
        return keep

    def extract(self, root: int, goal: Sentence) -> Deduction:
        """Prune to the lines reachable from ``root`` and renumber."""
        assert not self.hyps[root], "root still depends on working hypotheses"
        order = sorted(self.reach((root,)))
        remap = {old: new for new, old in enumerate(order)}
        sents = [self.sents[old] for old in order]
        justs = []
        for old in order:
            j = self.justs[old]
            assert j is not _HYP, "working hypothesis survived elimination"
            if type(j) is ModusPonens:
                j = ModusPonens(remap[j.major], remap[j.minor])
            justs.append(j)
        assert sents[-1] == goal
        return Deduction((), tuple(zip(sents, justs)), goal)


def _falsifying_assignment(table: int, units: Sequence[Sentence]) -> dict[str, int]:
    """The units' bits at the first minterm where ``table`` reads 0."""
    k, index = len(units), ((table + 1) & ~table).bit_length() - 1
    return {unit.atom.name if type(unit) is AtomRef else f"({format_sentence(unit)})":
            (index >> (k - 1 - pos)) & 1 for pos, unit in enumerate(units)}


def synthesize_proof(s: Sentence) -> Deduction:
    """Hypothesis-free deduction of a tautology, or a precise refusal.

    Raises NotTautologyError when the goal fails some valuation,
    TooManyAtomsError beyond the sweep limits, and NotDerivableError for
    tautologies outside the system's deductive closure (see module notes).
    """
    ids = atom_ids(s)
    if len(ids) > MAX_GOAL_ATOMS:
        raise TooManyAtomsError(
            f"synthesis refuses goals with more than {MAX_GOAL_ATOMS} atoms")
    if truth_table(s, sorted(ids)) != (1 << (1 << len(ids))) - 1:
        raise NotTautologyError(f"not a tautology: {format_sentence(s)}")

    instance = is_axiom_instance(s)
    if instance is not None:
        return Deduction((), ((s, Axiom(instance[0])),), s)

    imp = as_implication(s)
    if imp is not None and imp[0] == imp[1]:
        builder = _Builder()
        return builder.extract(builder.l1(imp[0]), s)

    units, tables = _unit_tables(s)
    k = len(units)
    table = tables[id(s)][0]
    if table != (1 << (1 << k)) - 1:
        assignment = _falsifying_assignment(table, units)
        raise NotDerivableError(
            f"{format_sentence(s)} is a tautology but not derivable from the "
            f"axiom schemata: treating opaque conjunctions as unanalyzed "
            f"units, the goal fails under {assignment}",
            abstracted=opaque_skeleton(s)[0],
            assignment=assignment,
        )
    if k > MAX_SWEEP_VARS:
        raise TooManyAtomsError(
            f"synthesis would sweep 2^{k} cases; the cap is 2^{MAX_SWEEP_VARS}")

    cheap = [d for d in (_by_deduction(s), _by_contraposition(s)) if d is not None]
    best = min(cheap, key=lambda d: len(d.lines), default=None)
    if best is not None and _sweep_is_longer(s, tables, len(best.lines), k):
        return best
    coarse = _coarse_tables(s)
    if coarse is not None:
        leaves = coarse[0]
        if len(leaves) == 1 and 0 < tables[id(leaves[0])][0] < table:  # the one-leaf rule
            sweep = _by_sweep(s, *coarse)
            return sweep if best is None or len(sweep.lines) < len(best.lines) else best
    sweep = _by_sweep(s, units, tables)
    kept = sweep if best is None or len(sweep.lines) <= len(best.lines) else best
    if coarse is None:
        return kept
    sweep = _by_sweep(s, *coarse)
    return sweep if len(sweep.lines) < len(kept.lines) else kept


def _by_sweep(goal: Sentence, units: Sequence[Sentence],
              tables: Mapping[int, tuple[int, int]]) -> Deduction:
    """Kalmár's sweep of ``goal`` over ``units``, as ``_unit_tables``
    gives them: each unit is a leaf that the hypotheses fix.  The sweep
    stops at its first closed goal line: no line appended after it is
    cited by it."""
    builder = _Builder(units, tables, goal)
    try:
        builder.eliminate(units, goal)
    except _GoalClosed as closed:
        return builder.extract(closed.line, goal)
    raise AssertionError("the outermost case split closes the goal")


def _classes(goal: Sentence, is_leaf) -> tuple[int, list[tuple], dict[int, Sentence]]:
    """The goal down to its leaves as a DAG of classes, one class per
    distinct subformula, children before parents: classes 0..k-1 are the k
    leaves as the fold meets them, and the last class is the goal.  Returns
    k, each class's children (one class for a negation, two for a
    conjunction) and the first node of each class."""
    index: dict[Sentence, int] = {}
    nodes: list[Sentence] = []

    def collect(node: Sentence) -> int | None:
        nodes.append(node)
        return index.setdefault(node, len(index)) if is_leaf(node) else None

    _fold((goal,), collect, None, None)
    kids: list[tuple] = [()] * len(index)
    class_of: dict[tuple, int] = {}

    def intern(key: tuple) -> int:
        c = class_of.get(key)
        if c is None:
            c = class_of[key] = len(kids)
            kids.append(key)
        return c

    found = _fold(nodes, index.get, lambda c: intern((c,)), lambda a, b: intern((a, b)))
    return len(index), kids, dict(zip(reversed(found), reversed(nodes)))


def _coarsest_units(goal: Sentence) -> frozenset[Sentence]:
    """The compound subformulas that the coarse sweep takes as units, by
    the search of the module notes; empty when none is taken."""
    taken: set[Sentence] = set()
    tried: set[Sentence] = set()

    def is_leaf(node: Sentence) -> bool:
        return _is_unit(node) or node in taken

    while True:
        k, kids, first = _classes(goal, is_leaf)
        root = len(kids) - 1
        if k == 1:
            return frozenset(taken)
        paths = [0] * root + [1]  # root-to-class paths: occurrences in the tree
        for c in range(root, k - 1, -1):
            for child in kids[c]:
                paths[child] += paths[c]
        width = max(paths[:k]).bit_length()  # no path count below exceeds it
        field = (1 << width) - 1
        full = (1 << (1 << k)) - 1
        # By class: its table over the leaves, its paths down to each leaf
        # (one field of ``width`` bits per leaf), and its size in nodes, a
        # leaf counting one.
        table = [_atom_mask(j, k) for j in range(k)]
        below = [1 << j * width for j in range(k)]
        size = [1] * k
        excluded = set()  # the !z of every body x & !z
        for c in range(k, root + 1):
            if len(kids[c]) == 1:
                x, = kids[c]
                table.append(full ^ table[x])
                below.append(below[x])
                size.append(size[x] + 1)
            else:
                a, b = kids[c]
                excluded.add(b)
                table.append(table[a] & table[b])
                below.append(below[a] + below[b])
                size.append(size[a] + size[b] + 1)
        # For a class that occurs once, the minterms where the goal reads it.
        reads = {root: full}
        for c in range(root, k - 1, -1):
            mask = reads.get(c)
            if mask is None:
                continue
            if len(kids[c]) == 1:
                if paths[kids[c][0]] == 1:
                    reads[kids[c][0]] = mask
            else:
                a, b = kids[c]
                if paths[a] == 1:
                    reads[a] = mask & table[b]
                if paths[b] == 1:
                    reads[b] = mask & table[a]

        def stays_tautology(s: int) -> bool:
            """The goal with class s negated throughout is a tautology."""
            if s in reads:
                return reads[s] == 0
            flipped = {s: full ^ table[s]}
            for c in range(s + 1, root + 1):
                ks = kids[c]
                if len(ks) == 1:
                    if ks[0] in flipped:
                        flipped[c] = full ^ flipped[ks[0]]
                elif ks[0] in flipped or ks[1] in flipped:
                    flipped[c] = flipped.get(ks[0], table[ks[0]]) & flipped.get(ks[1], table[ks[1]])
            return flipped[root] == full

        for c in sorted(range(k, root), key=size.__getitem__, reverse=True):
            if c in excluded or first[c] in tried:
                continue
            tried.add(first[c])
            # the leaves that occur only inside the class leave with it
            gone = sum(paths[c] * (below[c] >> j * width & field) == paths[j]
                       for j in range(k))
            if gone >= 2 and stays_tautology(c):
                taken.add(first[c])
                if gone == k:
                    return frozenset(taken)
                break
        else:
            return frozenset(taken)


def _coarse_tables(goal: Sentence
                   ) -> tuple[list[Sentence], dict[int, tuple[int, int]]] | None:
    """``_unit_tables`` of ``goal`` with its coarsest units as leaves too,
    or None when the search takes no compound subformula."""
    coarse = _coarsest_units(goal)
    if not coarse:
        return None
    return _unit_tables(goal, lambda node: _is_unit(node) or node in coarse)


@cache
def _floors() -> tuple[int, int]:
    """Condition 4's floors, built once on metavariable atoms: the number
    of lines that the lemmas of one case split cite (``contra(P, G)``,
    ``contra(!P, G)`` and ``dne(P)``) and of two, the same again on Q, in
    one fresh builder."""
    p, q, g = (AtomRef(Atom(-1 - i, name)) for i, name in enumerate("PQG"))
    builder = _Builder()
    one, two = ((builder.contra(u, g), builder.contra(Not(u), g), builder.dne(u)) for u in (p, q))
    return len(builder.reach(one)), len(builder.reach(one + two))


@cache
def _early_patterns() -> list[Sentence]:
    """Condition 3's patterns, built once on metavariable atoms and only
    when conditions 4, 1 and 2 hold: the closed lines of ``dni(X)``,
    ``exfalso(X, Z)`` and ``conj_intro_neg(X, Z)``, each lemma in a fresh
    builder.  The lines share each distinct node, which halves the memory
    the table holds."""
    x, z = (AtomRef(Atom(-1 - i, name)) for i, name in enumerate("XZ"))
    early: dict[Sentence, None] = {}
    for lemma, args in ((_Builder.dni, (x,)), (_Builder.exfalso, (x, z)),
                        (_Builder.conj_intro_neg, (x, z))):
        builder = _Builder()
        lemma(builder, *args)
        early.update((sent, None) for sent, hyps in zip(builder.sents, builder.hyps)
                     if not hyps)
    nodes: dict[tuple, Sentence] = {}
    return _fold(tuple(early), lambda n: n if type(n) is AtomRef else None,
                 lambda c: nodes.setdefault((id(c),), Not(c)),
                 lambda a, b: nodes.setdefault((id(a), id(b)), And(a, b)))


def _sweep_is_longer(goal: Sentence, tables: Mapping[int, tuple[int, int]],
                     lines: int, k: int) -> bool:
    """True when the four conditions of the module notes hold, which show
    that the sweep's proof of the derivable ``goal`` over its ``k`` opaque
    units has more than ``lines`` lines, so that building it would be
    wasted."""
    imp = as_implication(goal)
    if lines >= _floors()[min(k, 2) - 1] or imp is None:  # 4
        return False
    a, b = imp
    xy = as_implication(a)
    inner = b
    while type(inner) is Not:
        inner = inner.child
    full = tables[id(goal)][0]
    return (xy is not None and xy[1] != b and not _is_unit(inner)  # 1
            and tables[id(a)][0] != 0 and tables[id(b)][0] != full  # 2
            and all(_match(pattern, goal) is None for pattern in _early_patterns()))  # 3


def _by_deduction(goal: Sentence) -> Deduction | None:
    """Deduction theorem first: assume the antecedents of x1 -> (x2 -> ...
    -> y), close them under modus ponens, and if y turns up discharge the
    assumptions last to first."""
    builder = _Builder()
    assumed = []
    y = goal
    while (imp := as_implication(y)) is not None:
        assumed.append(imp[0])
        y = imp[1]
    lines: dict[Sentence, int] = {}
    waiting: dict[Sentence, list[int]] = {}  # antecedent -> implication lines
    work = [builder.hyp(x) for x in reversed(assumed)]
    while work and y not in lines:
        i = work.pop()
        sent = builder.sents[i]
        if sent in lines:
            continue
        lines[sent] = i
        imp = as_implication(sent)
        if imp is not None:
            if imp[0] in lines:
                work.append(builder.mp(i, lines[imp[0]]))
            else:
                waiting.setdefault(imp[0], []).append(i)
        work.extend(builder.mp(j, i) for j in waiting.pop(sent, ()))
    i = lines.get(y)
    if i is None:
        return None
    for x in reversed(assumed):
        i = builder.dt(i, x)
    return builder.extract(i, goal)


def _by_contraposition(goal: Sentence) -> Deduction | None:
    """The closed template for a goal (x -> y) -> (!y -> !x)."""
    imp = as_implication(goal)
    xy = imp and as_implication(imp[0])
    if xy is None or imp[1] != Implies(Not(xy[1]), Not(xy[0])):
        return None
    builder = _Builder()
    return builder.extract(builder.contra(*xy), goal)
