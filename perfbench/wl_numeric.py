"""Operations of the ``numbers`` workload on the number layers, with no
sentence trees: binomial window sums, point probabilities, the variance
bound, the seeded sampler, sequence-number verdicts and density-filter
membership."""

from __future__ import annotations

import math
from fractions import Fraction

import reference as ref
from core import Op, Probe, raised
from gen import rng_for

HORIZON = 10_000
WINDOW_CASES = tuple((r, p) for r in (1_000, 10_000)
                     for p in (Fraction(1, 2), Fraction(1, 3), Fraction(7, 10)))
WINDOW_POOL = 2
POOL = 4


def generate(seed: int) -> dict:
    rng = rng_for("numeric", seed)
    windows = {}
    for r, p in WINDOW_CASES:
        sigma = math.isqrt(int(r * p * (1 - p)))
        windows[(r, p)] = []
        for _ in range(WINDOW_POOL):
            centre = r * p + rng.randint(-sigma, sigma)
            half = Fraction(rng.randint(sigma // 4, 3 * sigma // 4), 1)
            windows[(r, p)].append((centre - half, centre + half))
    ps = (Fraction(1, 2), Fraction(1, 3), Fraction(7, 10))
    # Near the mean, where the terms matter; the cost depends on k and p.
    points = [(10_000, int(10_000 * p) + rng.randint(-50, 50), p) for p in ps + ps]
    llns = [(rng.choice((10, 100, 1000, 10_000)), rng.choice(ps),
             Fraction(1, rng.choice((10, 20, 50)))) for _ in range(POOL)]
    sims = [(rng.choice((100, 200)), rng.choice(ps), rng.randrange(1 << 30))
            for _ in range(POOL)]
    constants = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(POOL)]
    opaque = [(rng.randint(2, 9), rng.randint(3, 11), rng.randint(1, 4)) for _ in range(2 * POOL)]
    sets = []
    for i in range(POOL):
        period = tuple(rng.random() < 0.7 for _ in range(rng.randint(1, 6)))
        if i % 2:
            period = (True,) * len(period)
        sets.append(("periodic", tuple(rng.random() < 0.5 for _ in range(rng.randint(0, 5))),
                     period))
        sets.append(("finite", tuple(sorted(rng.sample(range(1, 200), rng.randint(1, 20))))))
        sets.append(("cofinite", tuple(sorted(rng.sample(range(1, 200), rng.randint(0, 20))))))
        sets.append(("opaque", rng.randint(2, 9), rng.randint(3, 13), rng.randint(1, 3)))
    return {"windows": windows, "points": points, "llns": llns, "sims": sims,
            "constants": constants, "opaque": opaque, "sets": sets,
            "sizes": [rng.randint(1, HORIZON) for _ in range(4 * POOL)]}


def opaque_term(params, n: int) -> Fraction:
    """Term n of a benchmark-defined sequence with no declared structure."""
    step, modulus, den = params
    return Fraction((n * step) % modulus, den)


def set_member(desc, n: int) -> bool:
    """Membership of n in a benchmark-described index set."""
    kind = desc[0]
    if kind == "periodic":
        preamble, period = desc[1], desc[2]
        if n <= len(preamble):
            return preamble[n - 1]
        return period[(n - len(preamble) - 1) % len(period)]
    if kind == "finite":
        return n in desc[1]
    if kind == "cofinite":
        return n not in desc[1]
    step, modulus, below = desc[1:]
    return (n * step) % modulus < below


class State:
    def __init__(self, plogic, inputs):
        self.plogic = plogic
        self.inputs = inputs
        self._refs: dict = {}

    def reference(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def round(self, r: int) -> list[Op]:
        inp = self.inputs
        ops = []
        for case in WINDOW_CASES:
            a, b = inp["windows"][case][r % WINDOW_POOL]
            ops.append(self._range(case[0], a, b, case[1]))
        for rr, p, k, l in ref.STORED_WINDOWS + ref.STORED_WINDOWS[1:]:
            ops.append(self._range(rr, Fraction(k), Fraction(l), p))
        ops += [self._point(*point) for point in inp["points"]]
        for j in range(2):
            ops.append(self._lln(*inp["llns"][(2 * r + j) % POOL]))
        ops.append(self._simulate(*inp["sims"][r % POOL]))
        c = inp["constants"]
        i = r % POOL
        ops.append(self._verdicts(c[i], c[(i + r) % POOL]))
        f, g = inp["opaque"][2 * i], inp["opaque"][2 * i + 1]
        ops += [self._sweep(kind, f, g) for kind in ("q_equal", "q_less", "q_classify",
                                                      "infinitely_close")]
        sets = inp["sets"]
        sizes = inp["sizes"]
        for j in range(4):
            ops.append(self._density(sets[(4 * r + j) % len(sets)],
                                     sizes[(4 * r + j) % len(sizes)]))
        return ops

    def _range(self, r, a, b, p):
        k, l = ref.window(r, a, b)

        def check(result, counts):
            if raised(result):
                return raised(result)
            if (r, p, k, l) in ref.STORED_WINDOWS:
                ok = ref.fraction_digest(result) == ref.stored_window_digest(r, p, k, l)
            else:
                ok = result == self.reference(("range", r, p, k, l),
                                              lambda: ref.binomial_sum(r, k, l, p))
            return None if ok else f"range_prob r={r} p={p} window {k}..{l} differs"
        return Op("range_prob", lambda api: api.range_prob(r, a, b, p), check,
                  {"trials.window_terms": max(0, l - k + 1)})

    def _point(self, r, k, p):
        def check(result, counts):
            want = ref.binomial_sum(r, k, k, p)
            return raised(result) or (None if result == want else
                                      f"point_prob({r}, {k}, {p}) = {result}, not {want}")
        return Op("point_prob", lambda api: api.point_prob(r, k, p), check)

    def _lln(self, r, p, eps):
        def check(result, counts):
            want = 1 - p * (1 - p) / (r * eps * eps)
            return raised(result) or (None if result == want else
                                      f"lln_bound({r}, {p}, {eps}) = {result}, not {want}")
        return Op("lln_bound", lambda api: api.lln_bound(r, p, eps), check)

    def _simulate(self, r, p, seed):
        plogic = self.plogic
        trials = 40

        def run(api):
            ts = plogic.TestSequence.of(r, p)
            return (api.simulate_frequencies(ts, trials, seed, workers=1),
                    api.simulate_frequencies(ts, trials, seed, workers=2))

        def check(result, counts):
            if raised(result):
                return raised(result)
            one, two = result
            if one != two:
                return "simulate_frequencies differs between 1 and 2 workers"
            if len(one) != trials or any(
                    not 0 <= f <= 1 or (f * r).denominator != 1 for f in one):
                return "simulate_frequencies returned impossible frequencies"
            # Six standard deviations of the mean: fails by chance < 1e-8.
            spread = 6 * math.sqrt(float(p * (1 - p)) / (r * trials))
            if abs(float(sum(one)) / trials - float(p)) > spread:
                return "simulate_frequencies mean is implausible"
            return None
        return Op("simulate", run, check, {"trials.sampled_bits": 2 * trials * r})

    def _verdicts(self, a, b):
        """Seven verdicts that the declared structure decides, with their
        hand-written answers, as one operation."""
        q = self.plogic
        one = Fraction(1)
        cases = [
            ("q_equal", lambda: (q.standard(a), q.standard(b)), "yes" if a == b else "no"),
            ("q_equal", lambda: (q.standard(a), q.standard(a)), "yes"),
            ("q_equal", lambda: (lambda x: (x + (a or one), x))(q.harmonic()), "no"),
            ("q_less", lambda: (q.harmonic(), q.standard(a or one)),
             "yes" if (a or one) > 0 else "no"),
            ("q_classify", lambda: (q.ramp() if a > 0 else q.standard(a),),
             "infinite" if a > 0 else ("infinitesimal" if a == 0 else "finite-appreciable")),
            ("infinitely_close", lambda: (q.harmonic(), q.standard(a)),
             "yes" if a == 0 else "no"),
            ("q_equal", lambda: (q.cycle([q.standard(a), q.standard(b)]), q.standard(a)),
             "yes" if a == b else "no"),
        ]

        def run(api):
            return [str(getattr(api, name)(*make(), HORIZON)) for name, make, _ in cases]

        def check(result, counts):
            if raised(result):
                return raised(result)
            counts["qnumbers.structural_verdicts"] += len(cases)
            want = [answer for _, _, answer in cases]
            return None if result == want else f"verdicts for {a}, {b}: {result}, not {want}"
        return Op("verdicts", run, check)

    def _sweep(self, kind, f, g):
        q = self.plogic

        def run(api):
            x = q.from_function(lambda n: opaque_term(f, n))
            y = q.from_function(lambda n: opaque_term(g, n))
            if kind == "q_classify":
                return api.q_classify(x, HORIZON)
            return getattr(api, kind)(x, y, HORIZON)

        def want():
            terms = range(1, HORIZON + 1)
            if kind == "q_equal":
                hits = sum(opaque_term(f, n) == opaque_term(g, n) for n in terms)
            elif kind == "q_less":
                hits = sum(opaque_term(f, n) < opaque_term(g, n) for n in terms)
            elif kind == "q_classify":
                return f"unknown(term@{HORIZON}={opaque_term(f, HORIZON)})"
            else:
                gap = abs(opaque_term(f, HORIZON) - opaque_term(g, HORIZON))
                return f"unknown(freq@{HORIZON}={gap})"
            return f"unknown(freq@{HORIZON}={Fraction(hits, HORIZON)})"

        def check(result, counts):
            if raised(result):
                return raised(result)
            counts["qnumbers.sweep_verdicts"] += 1
            counts["qnumbers.sweep_terms"] += 1 if kind == "q_classify" else HORIZON
            expected = self.reference((kind, f, g), want)
            return None if str(result) == expected else f"{kind}: {result}, not {expected}"
        return Op("sweep", run, check)

    def _density(self, desc, n):
        q = self.plogic

        def make():
            kind = desc[0]
            if kind == "periodic":
                return q.EventuallyPeriodicSet(desc[1], desc[2])
            if kind == "finite":
                return q.FiniteSet(desc[1])
            if kind == "cofinite":
                return q.CofiniteSet(desc[1])
            return q.from_predicate(lambda i: set_member(desc, i))

        def run(api):
            index_set = make()
            return api.filter_membership(index_set, HORIZON), api.part_frequency(index_set, n)

        def want():
            kind = desc[0]
            if kind == "opaque":
                hits = sum(set_member(desc, i) for i in range(1, HORIZON + 1))
                verdict = f"unknown(freq@{HORIZON}={Fraction(hits, HORIZON)})"
            elif kind == "finite" or (kind == "periodic" and not all(desc[2])):
                verdict = "no"
            else:
                verdict = "yes"
            return verdict, Fraction(sum(set_member(desc, i) for i in range(1, n + 1)), n)

        def check(result, counts):
            if raised(result):
                return raised(result)
            got = (str(result[0]), result[1])
            expected = self.reference((desc, n), want)
            return None if got == expected else f"{desc[0]} set: {got}, not {expected}"
        return Op("density", run, check)

    def probes(self) -> list[Probe]:
        return []


def build(plogic, inputs, workdir) -> State:
    return State(plogic, inputs)
