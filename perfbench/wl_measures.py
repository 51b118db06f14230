"""Operations of the ``numbers`` workload on exact measures: queries and
updates over 8, 12 and 16 atoms, plus product measures of up to 10
independent tests."""

from __future__ import annotations

import math
from fractions import Fraction

import reference as ref
from core import Op, Probe, expect_error, raised
from gen import balanced_formula, rng_for, weights

SIZES = (8, 12, 16)
#: Operations per size and kind in one round, half on each measure.
REPS = {8: 16, 12: 4, 16: 2}
POOL = 8
KINDS = ("b_eval", "conditional_prob", "classify_pair", "condition", "roundtrip")
PRODUCTS = ((4, Fraction(1, 2)), (6, Fraction(1, 3)), (8, Fraction(2, 5)),
            (10, Fraction(1, 3)))
MAX_SERIES = 250


def generate(seed: int) -> dict:
    rng = rng_for("measures", seed)
    inputs = {"measures": {}, "sentences": {}, "products": []}
    for n in SIZES:
        inputs["measures"][n] = (weights(rng, n, False), weights(rng, n, True))
        inputs["sentences"][n] = [balanced_formula(rng, n, n + 4) for _ in range(POOL)]
    for r, p in PRODUCTS:
        a = b = rng.randint(0, r)
        # t_range is a left-folded disjunction with one term per series; the
        # recursive evaluators fail past about 300 terms (see the probe).
        while b < r and sum(math.comb(r, j) for j in range(a, b + 2)) <= MAX_SERIES:
            b += 1
        inputs["products"].append((r, p, a, b))
    return inputs


def build_sentence(plogic, ast, atoms):
    op = ast[0]
    if op == "v":
        return plogic.AtomRef(atoms[ast[1]])
    if op == "!":
        return plogic.Not(build_sentence(plogic, ast[1], atoms))
    a, b = build_sentence(plogic, ast[1], atoms), build_sentence(plogic, ast[2], atoms)
    return {"&": plogic.And, "|": plogic.Or, ">": plogic.Implies}[op](a, b)


class _Measure:
    def __init__(self, plogic, n, ws, sparse):
        self.n = n
        self.weights = ws
        self.total = sum(ws)
        self.masses = tuple(Fraction(w, self.total) for w in ws)
        if sparse:
            self.bf = plogic.BFunction.from_weights(
                n, {i: m for i, m in enumerate(self.masses) if m})
        else:
            self.bf = plogic.BFunction(n, self.masses)

    def value(self, mask: int) -> Fraction:
        return ref.mass_of(self.weights, self.total, mask)


class State:
    def __init__(self, plogic, inputs):
        self.plogic = plogic
        self.inputs = inputs
        self.measures = {n: [_Measure(plogic, n, ws, sparse)
                             for sparse, ws in zip((False, True), pair)]
                         for n, pair in inputs["measures"].items()}
        self.sentences = {}
        for n, pool in inputs["sentences"].items():
            atoms = [plogic.Atom(i, f"p{i}") for i in range(n)]
            self.sentences[n] = [build_sentence(plogic, ast, atoms) for ast in pool]
        self._masks = {}

    def mask(self, n, i):
        key = (n, i)
        if key not in self._masks:
            self._masks[key] = ref.truth_mask(self.inputs["sentences"][n][i], n)
        return self._masks[key]

    def round(self, r: int) -> list[Op]:
        ops = []
        for k, kind in enumerate(KINDS):
            for n in SIZES:
                for i in range(REPS[n]):
                    m = self.measures[n][i % 2]
                    a = (r * 5 + i * 3 + k) % POOL
                    b = (a + 1 + (r + i) % (POOL - 1)) % POOL
                    ops.append(getattr(self, f"_{kind}")(m, a, b))
        for spec in self.inputs["products"]:
            ops.append(self._product(*spec))
        return ops

    def _counts(self, m, tables):
        size = 1 << m.n
        return {"measures.minterms": size, "formulas.table_bits": tables * size}

    def _b_eval(self, m, a, _b):
        s = self.sentences[m.n][a]

        def check(result, counts):
            want = m.value(self.mask(m.n, a))
            return raised(result) or (None if result == want
                                      else f"b_eval n={m.n}: {result} != {want}")
        return Op("b_eval", lambda api: api.b_eval(m.bf, s), check, self._counts(m, 1))

    def _conditional_prob(self, m, a, b):
        sb, sc = self.sentences[m.n][a], self.sentences[m.n][b]

        def check(result, counts):
            mc = m.value(self.mask(m.n, b))
            if mc == 0:
                return expect_error(result, self.plogic.ZeroConditionError,
                                    "conditional_prob")
            want = m.value(self.mask(m.n, a) & self.mask(m.n, b)) / mc
            return raised(result) or (None if result == want else
                                      f"conditional_prob n={m.n}: {result} != {want}")
        return Op("conditional_prob", lambda api: api.conditional_prob(m.bf, sb, sc),
                  check, self._counts(m, 2))

    def _classify_pair(self, m, a, b):
        sa, sb = self.sentences[m.n][a], self.sentences[m.n][b]

        def check(result, counts):
            pa, pb = m.value(self.mask(m.n, a)), m.value(self.mask(m.n, b))
            pab = m.value(self.mask(m.n, a) & self.mask(m.n, b))
            want = (pab == 0, pab == pa * pb)
            if raised(result):
                return raised(result)
            got = (result.inconsistent, result.independent)
            return None if got == want else f"classify_pair n={m.n}: {got} != {want}"
        return Op("classify_pair", lambda api: api.classify_pair(m.bf, sa, sb),
                  check, self._counts(m, 2))

    def _condition(self, m, _a, c):
        sc = self.sentences[m.n][c]

        def check(result, counts):
            mask = self.mask(m.n, c)
            if m.value(mask) == 0:
                return expect_error(result, self.plogic.ZeroConditionError, "condition")
            if raised(result):
                return raised(result)
            if result.n != m.n:
                return f"condition: width {result.n} != {m.n}"
            nums, den = ref.conditioned(m.weights, mask)
            for j, (got, num) in enumerate(zip(result.mass, nums)):
                if got.numerator * den != num * got.denominator:
                    return f"condition n={m.n}: minterm {j} has mass {got}"
            return None
        return Op("condition", lambda api: api.condition(m.bf, sc), check,
                  self._counts(m, 1))

    def _roundtrip(self, m, _a, _b):
        def run(api):
            text = api.dump_distribution(m.bf)
            return text, api.load_distribution(text)

        def check(result, counts):
            if raised(result):
                return raised(result)
            text, loaded = result
            nonzero = sum(1 for w in m.weights if w)
            if len(text.splitlines()) != nonzero:
                return f"dump n={m.n}: {len(text.splitlines())} lines for {nonzero} minterms"
            if loaded.n != m.n or loaded.mass != m.masses:
                return f"load n={m.n}: masses differ from the dumped measure"
            return None
        return Op("roundtrip", run, check, self._counts(m, 0))

    def _product(self, r, p, a, b):
        plogic = self.plogic

        def run(api):
            ts = plogic.TestSequence.of(r, p)
            return api.b_eval(api.product_bfunction(ts), api.t_range(ts, r, a, b))

        def check(result, counts):
            k, l = ref.window(r, Fraction(a), Fraction(b))
            want = ref.binomial_sum(r, k, l, p)
            return raised(result) or (None if result == want else
                                      f"product r={r} p={p} [{a},{b}]: {result} != {want}")
        size = 1 << r
        return Op("product", run, check,
                  {"measures.minterms": size, "formulas.table_bits": size})

    def probes(self) -> list[Probe]:
        plogic = self.plogic

        def deep_range():
            ts = plogic.TestSequence.of(12, Fraction(1, 2))
            got = plogic.b_eval(plogic.product_bfunction(ts), plogic.t_range(ts, 12, 0, 12))
            return None if got == 1 else f"returned {got}, expected 1"
        return [Probe("b_eval(product_bfunction(r=12), t_range(0..12)) == 1", deep_range)]


def build(plogic, inputs, workdir) -> State:
    return State(plogic, inputs)
