"""Constructive proof search for tautologies in the three-schema system.

The synthesizer derives the goal under every valuation from literal
hypotheses, then discharges the hypotheses pairwise with a mechanical
deduction-theorem transformer and a case-split step.  Two shorter routes
compete with this sweep (assume the goal's antecedents and close them
under modus ponens; the contraposition template), and the proof with the
fewest lines wins, the sweep's on a tie.

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

The steps that follow the goal's structure (``derive`` and the
deduction-theorem transform ``dt``) are generators driven by one loop,
``_run``, so goal depth is limited by memory, not by the recursion limit.
"""

from __future__ import annotations

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
    as_implication,
    atom_ids,
    format_sentence,
    is_tautology,
    truth_table,
)
from .proofs import Axiom, Deduction, Hypothesis, ModusPonens, instantiate, is_axiom_instance

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


def is_derivable(s: Sentence) -> bool:
    """True iff some hypothesis-free deduction proves ``s``: the sentence
    must be a tautology and stay one after opaque-conjunction abstraction."""
    if not is_tautology(s):
        return False
    skeleton, _ = opaque_skeleton(s)
    return is_tautology(skeleton)


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


class _Builder:
    """Growing line list with sentence-level deduplication.

    Every line records the set of working-hypothesis sentences it depends
    on; closed lines (empty set) are shared freely, other lines are reused
    only where their hypothesis set is available.
    """

    def __init__(self):
        self.sents: list[Sentence] = []
        self.justs: list = []
        self.hyps: list[frozenset] = []
        self._closed: dict[Sentence, int] = {}
        self._by_sent: dict[Sentence, list[tuple[int, frozenset]]] = {}
        self._hyp_lines: dict[Sentence, int] = {}
        self._dt_memo: dict[tuple[int, Sentence], int] = {}
        self._derive_memo: dict = {}
        self._tables: dict[int, tuple[int, int]] = {}

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
        return idx

    def axiom(self, name: str, bindings: Mapping[str, Sentence]) -> int:
        sent = instantiate(name, bindings)
        idx = self._closed.get(sent)
        if idx is None:
            idx = self._append(sent, Axiom(name, dict(bindings)), frozenset())
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

    def tabulate(self, goal: Sentence, units: Sequence[Sentence]) -> None:
        """Give every node of ``goal`` above its units (by id) its truth
        table over the units (the first most significant) and the mask
        of the minterm-index bits that its units occupy."""
        k = len(units)
        position = {unit: p for p, unit in enumerate(units)}
        nodes: list[Sentence] = []

        def collect(node: Sentence) -> Sentence | None:
            nodes.append(node)
            return node if _is_unit(node) else None

        def leaf(node: Sentence) -> tuple[int, int] | None:
            if not _is_unit(node):
                return None
            p = position[node]
            return _atom_mask(p, k), 1 << (k - 1 - p)

        full = (1 << (1 << k)) - 1
        _fold((goal,), collect, None, None)
        values = _fold(nodes, leaf, lambda c: (full ^ c[0], c[1]),
                       lambda a, b: (a[0] & b[0], a[1] | b[1]))
        self._tables = dict(zip(map(id, nodes), values))

    def derive(self, node: Sentence, idx: int) -> Generator:
        """Steps to the line proving ``node`` when it holds under minterm
        ``idx`` of the tabulated units, else its negation, from the
        literal hypotheses of ``idx``."""
        tables = self._tables
        table, unit_bits = tables[id(node)]
        key = (node, idx & unit_bits)
        got = self._derive_memo.get(key)
        if got is not None:
            return got
        if _is_unit(node):
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

    def extract(self, root: int, goal: Sentence) -> Deduction:
        """Prune to the lines reachable from ``root`` and renumber."""
        assert not self.hyps[root], "root still depends on working hypotheses"
        keep = set()
        stack = [root]
        while stack:
            i = stack.pop()
            if i in keep:
                continue
            keep.add(i)
            j = self.justs[i]
            if type(j) is ModusPonens:
                stack.append(j.major)
                stack.append(j.minor)
        order = sorted(keep)
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


def _falsifying_assignment(skeleton: Sentence,
                           subtree_of: Mapping[int, Sentence]) -> dict[str, int]:
    ids = sorted(atom_ids(skeleton))
    table = truth_table(skeleton, ids)
    size = 1 << len(ids)
    index = next(i for i in range(size) if not (table >> i) & 1)
    assignment = {}
    for pos, vid in enumerate(ids):
        bit = (index >> (len(ids) - 1 - pos)) & 1
        sub = subtree_of[vid]
        name = sub.atom.name if type(sub) is AtomRef else f"({format_sentence(sub)})"
        assignment[name] = bit
    return assignment


def synthesize_proof(s: Sentence) -> Deduction:
    """Hypothesis-free deduction of a tautology, or a precise refusal.

    Raises NotTautologyError when the goal fails some valuation,
    TooManyAtomsError beyond the sweep limits, and NotDerivableError for
    tautologies outside the system's deductive closure (see module notes).
    """
    if len(atom_ids(s)) > MAX_GOAL_ATOMS:
        raise TooManyAtomsError(
            f"synthesis refuses goals with more than {MAX_GOAL_ATOMS} atoms")
    if not is_tautology(s):
        raise NotTautologyError(f"not a tautology: {format_sentence(s)}")

    instance = is_axiom_instance(s)
    if instance is not None:
        name, bindings = instance
        return Deduction((), ((s, Axiom(name, bindings)),), s)

    imp = as_implication(s)
    if imp is not None and imp[0] == imp[1]:
        builder = _Builder()
        return builder.extract(builder.l1(imp[0]), s)

    skeleton, subtree_of = opaque_skeleton(s)
    if not is_tautology(skeleton):
        assignment = _falsifying_assignment(skeleton, subtree_of)
        raise NotDerivableError(
            f"{format_sentence(s)} is a tautology but not derivable from the "
            f"axiom schemata: treating opaque conjunctions as unanalyzed "
            f"units, the goal fails under {assignment}",
            abstracted=skeleton,
            assignment=assignment,
        )
    k = len(subtree_of)
    if k > MAX_SWEEP_VARS:
        raise TooManyAtomsError(
            f"synthesis would sweep 2^{k} cases; the cap is 2^{MAX_SWEEP_VARS}")

    proofs = (_by_sweep(s, list(subtree_of.values())), _by_deduction(s), _by_contraposition(s))
    return min((d for d in proofs if d is not None), key=lambda d: len(d.lines))


def _by_sweep(goal: Sentence, units: Sequence[Sentence]) -> Deduction:
    """Kalmár's sweep of ``goal`` over its opaque units, in the order of
    ``opaque_skeleton``: each unit is a leaf that the hypotheses fix."""
    builder = _Builder()
    builder.tabulate(goal, units)
    return builder.extract(builder.eliminate(units, goal), goal)


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
