"""Workload ``logic``: sentence-level work with no measures -- parsing,
truth tables, tautology and equivalence decisions, proof round trips,
refusals, tampered proofs and classical m/n probability."""

from __future__ import annotations

from fractions import Fraction

import reference as ref
from core import Op, Probe, expect_error, raised
from gen import (CLASSICS, chain_goal, classical_sets, literal, literals, permuted,
                 random_formula, rewrite, rng_for)

SIZES = (4, 8, 12, 16, 18)
POOL = 6
TAIL_PCT = 90
RSS = "self"
DEEP = 3000
#: Classics whose proofs are tampered with.
TAMPER_SOURCES = (2, 3, 5, 6)
TAMPER_KINDS = ("mp", "swap", "drop", "goal")


def names(m: int) -> list[str]:
    return [f"x{i}" for i in range(m)]


def _mutate(rng, ast):
    """Flip the polarity of one leaf."""
    leaves = []

    def walk(node, path):
        if node[0] == "v":
            leaves.append(path)
        for i, child in enumerate(node[1:], start=1):
            if isinstance(child, tuple):
                walk(child, path + (i,))

    walk(ast, ())
    target = rng.choice(leaves)

    def rebuild(node, path):
        if path == target:
            return ("!", node)
        return (node[0],) + tuple(
            rebuild(c, path + (i,)) if isinstance(c, tuple) else c
            for i, c in enumerate(node[1:], start=1))
    return rebuild(ast, ())


def _derivable_goals(rng) -> list:
    """Seeded derivable goals over 3 to 6 atoms, one per template."""
    goals = [chain_goal(rng, 3), chain_goal(rng, 4), chain_goal(rng, 5)]
    a = literals(rng, 4)
    x, y = (">", a[0], a[1]), (">", a[2], a[3])
    goals.append(permuted(rng, (">", (">", x, y), (">", ("!", y), ("!", x))), 4))
    a = literals(rng, 3)
    x = (">", a[0], (">", a[1], a[2]))
    goals.append(permuted(rng, (">", (">", ("!", x), x), x), 3))
    a = literals(rng, 4)
    x, y, z = (">", a[0], a[3]), a[1], a[2]
    goals.append(permuted(rng, (">", (">", x, (">", y, z)), (">", y, (">", x, z))), 4))
    a = literals(rng, 6)
    x, y = (">", a[0], (">", a[1], a[2])), (">", a[3], (">", a[4], a[5]))
    goals.append(permuted(rng, (">", (">", x, y), (">", ("!", y), ("!", x))), 6))
    return goals


def _refused_goals(rng) -> list:
    """Underivable tautologies and non-tautologies, 3 to 5 atoms."""
    out = []
    while len(out) < POOL // 2:
        x, y = (">", literal(rng, 0), literal(rng, 1)), ("v", 2)
        shape = rng.randrange(3)
        if shape == 0:
            goal = (">", ("&", x, y), x)
        elif shape == 1:
            goal = (">", x, (">", y, ("&", x, y)))
        else:
            goal = (">", ("&", x, y), ("&", y, x))
        if ref.is_tautology(goal, 3) and not ref.skeleton_is_tautology(goal):
            out.append(permuted(rng, goal, 3))
    while len(out) < POOL:
        k = rng.randint(3, 5)
        goal = random_formula(rng, k, k + 2, ">&|")
        if not ref.is_tautology(goal, k):
            out.append(goal)
    return out


def generate(seed: int) -> dict:
    rng = rng_for("logic", seed)
    inputs = {"tables": {}, "tauts": {}, "pairs": {}}
    for m in SIZES:
        pool = [random_formula(rng, m, m + 4) for _ in range(POOL)]
        inputs["tables"][m] = pool
        inputs["tauts"][m] = [("|", f, ("!", rewrite(rng, f))) for f in pool]
        inputs["pairs"][m] = [(f, rewrite(rng, f) if i % 2 else _mutate(rng, f))
                              for i, f in enumerate(pool)]
    inputs["goals"] = _derivable_goals(rng)
    inputs["refused"] = _refused_goals(rng)
    inputs["tampers"] = [(TAMPER_SOURCES[i % len(TAMPER_SOURCES)], rng.random(),
                          TAMPER_KINDS[i % len(TAMPER_KINDS)]) for i in range(POOL)]
    inputs["classical"] = classical_sets(rng)
    return inputs


def _tamper(text: str, where: float, kind: str, attempt: int) -> str:
    lines = text.splitlines()
    count = len(lines)
    i = (int(where * count) + attempt) % count
    if kind == "drop":
        del lines[min(i, count - 2)]
    elif kind == "goal":
        num, rest = lines[-1].split(". ", 1)
        formula, just = rest.rsplit(" ; ", 1)
        lines[-1] = f"{num}. !({formula}) ; {just}"
    elif kind == "mp":
        mps = [j for j, line in enumerate(lines) if " ; mp " in line]
        j = mps[i % len(mps)]
        head, cites = lines[j].rsplit(" ; mp ", 1)
        a, b = cites.split()
        lines[j] = f"{head} ; mp {b} {a}"
    else:
        head, just = lines[i].rsplit(" ; ", 1)
        swapped = head.replace("A", "\0").replace("B", "A").replace("\0", "B")
        lines[i] = f"{swapped} ; {just}"
    return "\n".join(lines) + "\n"


class State:
    def __init__(self, plogic, inputs):
        self.plogic = plogic
        self.inputs = inputs
        self._verdicts: dict[str, str | None] = {}
        self.tampered = []
        proofs = {}
        for source, where, kind in inputs["tampers"]:
            if source not in proofs:
                goal = plogic.parse_formula(CLASSICS[source]).ast
                proofs[source] = plogic.format_proof(plogic.synthesize_proof(goal))
            for attempt in range(20):
                text = _tamper(proofs[source], where, kind, attempt)
                if self.proof_verdict(text, source) is not None:
                    break
            self.tampered.append((source, text))

    def proof_verdict(self, text: str, classic: int | None = None, goal=None, m=0):
        """Reference verdict on a proof text, cached by the text itself."""
        key = text
        if key not in self._verdicts:
            if classic is not None:
                index: dict[str, int] = {}
                goal = ref.parse_kernel(CLASSICS[classic], index)
                gnames = sorted(index, key=index.get)
            else:
                gnames = names(m)
            self._verdicts[key] = ref.check_proof(text, goal, gnames)
        return self._verdicts[key]

    def round(self, r: int) -> list[Op]:
        ops = []
        for m in SIZES:
            i = r % POOL
            ops.append(self._table(m, self.inputs["tables"][m][i]))
            ops.append(self._taut(m, self.inputs["tauts"][m][i]))
            ops.append(self._taut(m, self.inputs["tables"][m][(i + 1) % POOL]))
            ops.append(self._equal(m, *self.inputs["pairs"][m][i]))
        for c in range(len(CLASSICS)):
            ops.append(self._proof(CLASSICS[c], classic=c))
        for goal in self.inputs["goals"]:
            m = len(ref.atoms_in_order(goal))
            ops.append(self._proof(ref.render(goal, names(m)), goal=goal, m=m))
        for j in range(2):
            ops.append(self._refuse(self.inputs["refused"][(2 * r + j) % POOL]))
            ops.append(self._tampered(*self.tampered[(2 * r + j) % POOL]))
            sets = self.inputs["classical"]
            ops.append(self._classical(*sets[(2 * r + j) % len(sets)]))
        return ops

    def _table(self, m, ast):
        text = ref.render(ast, names(m))
        plogic_names = names(m)

        def run(api):
            parsed = api.parse_formula(text)
            ids = [parsed.atom_table[name].id for name in plogic_names]
            return api.truth_table(parsed.ast, ids)

        def check(result, counts):
            want = ref.truth_mask(ast, m)
            return raised(result) or (None if result == want else f"truth_table m={m} differs")
        return Op("table", run, check, {"parsing.chars": len(text),
                                         "formulas.table_bits": 1 << m})

    def _taut(self, m, ast):
        text = ref.render(ast, names(m))

        def run(api):
            return api.is_tautology(api.parse_formula(text).ast)

        def check(result, counts):
            want = ref.is_tautology(ast, m)
            return raised(result) or (None if result == want else
                                      f"is_tautology m={m}: {result} != {want}")
        return Op("taut", run, check, {"parsing.chars": len(text),
                                        "formulas.table_bits": 1 << m})

    def _equal(self, m, a, b):
        ta, tb = ref.render(a, names(m)), ref.render(b, names(m))

        def run(api):
            pa = api.parse_formula(ta)
            return api.semantic_equal(pa.ast, api.parse_formula(tb, pa.atom_table).ast)

        def check(result, counts):
            want = ref.truth_mask(a, m) == ref.truth_mask(b, m)
            return raised(result) or (None if result == want else
                                      f"semantic_equal m={m}: {result} != {want}")
        return Op("equal", run, check, {"parsing.chars": len(ta) + len(tb),
                                         "formulas.table_bits": 2 << m})

    def _proof(self, text, classic=None, goal=None, m=0):
        def run(api):
            ast = api.parse_formula(text).ast
            derivable = api.is_derivable(ast)
            proof = api.format_proof(api.synthesize_proof(ast))
            report = api.check_deduction(api.parse_proof(proof))
            return derivable, proof, report

        def check(result, counts):
            if raised(result):
                return raised(result)
            derivable, proof, report = result
            lines = len(proof.splitlines())
            counts["proofs.checked_lines"] += lines
            counts["parsing.chars"] += len(proof)
            if not derivable:
                return f"is_derivable({text}) is False"
            if not report.ok:
                return f"check_deduction rejected the proof of {text}: {report.code}"
            verdict = self.proof_verdict(proof, classic, goal, m)
            return None if verdict is None else f"proof of {text}: {verdict}"
        return Op("proof", run, check, {"parsing.chars": len(text)})

    def _refuse(self, ast):
        m = len(ref.atoms_in_order(ast))
        text = ref.render(ast, names(m))
        plogic = self.plogic
        tautology = ref.is_tautology(ast, m)
        error = plogic.NotDerivableError if tautology else plogic.NotTautologyError

        def run(api):
            parsed = api.parse_formula(text).ast
            derivable = api.is_derivable(parsed)
            try:
                api.synthesize_proof(parsed)
            except plogic.PlogicError as exc:
                return derivable, exc
            return derivable, None

        def check(result, counts):
            if raised(result):
                return raised(result)
            derivable, exc = result
            if derivable:
                return f"is_derivable({text}) is True"
            counts["synthesis.refusals"] += exc is not None
            return expect_error(exc, error, f"synthesize_proof({text})")
        return Op("refuse", run, check, {"parsing.chars": len(text)})

    def _tampered(self, source, text):
        plogic = self.plogic

        def run(api):
            try:
                deduction = api.parse_proof(text)
            except plogic.PlogicError as exc:
                return exc
            return len(deduction.lines), api.check_deduction(deduction)

        def check(result, counts):
            counts["parsing.chars"] += len(text)
            if isinstance(result, plogic.ProofFormatError):
                counts["proofs.rejections"] += 1
                return None
            if raised(result):
                return raised(result)
            lines, report = result
            counts["proofs.checked_lines"] += lines
            if report.ok:
                return f"a tampered proof of {CLASSICS[source]} was accepted"
            counts["proofs.rejections"] += 1
            return None
        return Op("tampered", run, check)

    def _classical(self, k, members, event, favorable):
        texts = [ref.render(member, names(k)) for member in members]
        event_text = ref.render(event, names(k))

        def run(api):
            table: dict = {}
            parsed = [api.parse_formula(t, table).ast for t in texts]
            target = api.parse_formula(event_text, table).ast
            return api.check_complete(parsed), api.classical_probability(target, parsed)

        def check(result, counts):
            want = (True, Fraction(favorable, len(members)))
            return raised(result) or (None if result == want else
                                      f"classical k={k}: {result} != {want}")
        return Op("classical", run, check,
                  {"parsing.chars": sum(map(len, texts)) + len(event_text)})

    def probes(self) -> list[Probe]:
        plogic = self.plogic
        atom = plogic.AtomRef(plogic.Atom(0, "A"))
        chain = atom
        for _ in range(DEEP):
            chain = plogic.Not(chain)
        text = "!" * DEEP + "A"

        def tautology():
            got = plogic.is_tautology(chain)
            return None if got is False else f"returned {got!r}"

        def formatting():
            got = plogic.format_sentence(chain)
            return None if got == text else "wrong text"

        def parsing():
            node = plogic.parse_formula(text).ast
            for _ in range(DEEP):
                if type(node) is not plogic.Not:
                    return "too few negations"
                node = node.child
            return None if type(node) is plogic.AtomRef else "no atom at the bottom"
        return [Probe(f"is_tautology on a {DEEP}-deep ! chain", tautology),
                Probe(f"format_sentence on a {DEEP}-deep ! chain", formatting),
                Probe(f"parse_formula on a {DEEP}-deep ! chain", parsing)]


def build(plogic, inputs, workdir) -> State:
    return State(plogic, inputs)
