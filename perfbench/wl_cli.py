"""Workload ``cli``: one ``python -m plogic.cli`` subprocess at a time,
covering every subcommand."""

from __future__ import annotations

import importlib
import statistics
import subprocess
import sys
from fractions import Fraction

import reference as ref
from core import Op, Probe, raised
from gen import (CLASSICS, balanced_formula, chain_goal, classical_sets, random_formula,
                 rng_for, weights)

DIST_SIZES = (4, 10, 14)
#: prob and cond at n=14 run five times a round, so the tail percentile lands
#: in the middle of the slowest group of commands rather than at its edge.
DIST_REPS = {4: 1, 10: 1, 14: 5}
PROVE_GOALS = (2, 3, 4, 5, 6, 7)
POOL = 4
TAIL_PCT = 82
RSS = "children"
CHILD_TIMEOUT = 120


def canonical(*asts):
    """Renumber atoms by first occurrence across ``asts``, as the CLI does."""
    order: list[int] = []
    for ast in asts:
        order += [a for a in ref.atoms_in_order(ast) if a not in order]
    mapping = {old: new for new, old in enumerate(order)}
    return [ref.relabel(a, mapping) for a in asts]


def names(n):
    return [f"p{i}" for i in range(n)]


def generate(seed: int) -> dict:
    rng = rng_for("cli", seed)
    inp = {"weights": {n: weights(rng, n, False) for n in DIST_SIZES}, "prob": {}, "cond": {}}
    for n in DIST_SIZES:
        inp["prob"][n] = [canonical(balanced_formula(rng, n, n + 2))[0] for _ in range(POOL)]
        inp["cond"][n] = [canonical(balanced_formula(rng, n, n + 2),
                                    balanced_formula(rng, n, n + 2)) for _ in range(POOL)]
    inp["taut"] = [canonical(random_formula(rng, 6, 8))[0] for _ in range(POOL)]
    inp["eval"] = []
    for _ in range(POOL):
        ast = canonical(random_formula(rng, 6, 9))[0]
        inp["eval"].append((ast, tuple(rng.randint(0, 1) for _ in range(6))))
    inp["check_goal"] = chain_goal(rng, 4)
    ps = (Fraction(1, 2), Fraction(1, 3), Fraction(7, 10))
    inp["bernoulli"] = [(rng.choice((10, 20, 40)), rng.choice(ps), rng.choice((None, 3)))
                        for _ in range(POOL)]
    inp["lln"] = [(rng.choice((100, 1000)), rng.choice(ps), Fraction(1, rng.choice((10, 20))),
                   rng.choice((100, 200)), rng.randrange(1000)) for _ in range(POOL)]
    inp["classical"] = classical_sets(rng)
    inp["filter"] = [("periodic", "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))),
                     ("periodic", "1" * rng.randint(1, 6)),
                     ("finite", ",".join(map(str, sorted(rng.sample(range(1, 99), 3))))),
                     ("cofinite", ",".join(map(str, sorted(rng.sample(range(1, 99), 3)))))]
    inp["freq_n"] = [rng.randint(1, 5000) for _ in range(POOL)]
    inp["consts"] = [Fraction(rng.randint(0, 5), rng.randint(1, 5)) for _ in range(POOL)]
    return inp


def _rational(text: str) -> Fraction:
    return Fraction(text.split()[0])


class State:
    def __init__(self, plogic, inputs, workdir):
        self.plogic = plogic
        self.inputs = inputs
        self.workdir = workdir
        self.dists = {}
        for n, ws in inputs["weights"].items():
            path = workdir / f"dist{n}.txt"
            total = sum(ws)
            path.write_text("".join(f"{i:0{n}b} {w}/{total}\n" for i, w in enumerate(ws)))
            self.dists[n] = path
        goal = inputs["check_goal"]
        self.check_text = ref.render(goal, names(4))
        proof = plogic.format_proof(plogic.synthesize_proof(
            plogic.parse_formula(self.check_text).ast))
        self.proof_file = workdir / "proof.txt"
        self.proof_file.write_text(proof)
        self.proof_lines = len(proof.splitlines())
        self.sets = []
        for i, (k, members, event, favorable) in enumerate(inputs["classical"]):
            path = workdir / f"members{i}.txt"
            path.write_text("".join(ref.render(m, names(k)) + "\n" for m in members))
            self.sets.append((path, ref.render(event, names(k)), favorable, len(members)))
        self._verdicts = {}

    # -- subprocess ------------------------------------------------------------

    @staticmethod
    def call(argv):
        proc = subprocess.run([sys.executable, "-m", "plogic.cli", *argv],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        return proc.returncode, proc.stdout, proc.stderr

    def _op(self, kind, argv, expect):
        """An op whose check is ``expect(stdout lines)`` -> None or reason."""
        def run(api):
            return self.call(argv)

        def check(result, counts):
            if raised(result):
                return f"{kind}: {raised(result)}"
            code, out, err = result
            if code != 0:
                return f"{kind} {argv[:3]}: exit {code}: {(err or out).strip()[-200:]}"
            return expect(out.splitlines())
        return Op(kind, run, check, replay=lambda api: self.replay(api, argv))

    def replay(self, api, argv):
        """Run the same argv in-process under a ``cli.run`` span, with the
        CLI's references to library functions routed through the spans."""
        cli = importlib.import_module("plogic.cli")
        saved = {}
        patches = {"classical_mod": _Routed(cli.classical_mod, api.by_module["classical"]),
                   "measures": _Routed(cli.measures, api.by_module["measures"]),
                   "trials": _Routed(cli.trials, api.by_module["trials"]),
                   "density": _Routed(cli.density, api.by_module["density"]),
                   "qnumbers": _Routed(cli.qnumbers, api.by_module["qnumbers"])}
        for module in ("formulas", "parsing", "proofs", "synthesis"):
            for name, fn in api.by_module[module].items():
                if hasattr(cli, name):
                    patches[name] = fn
        for name, value in patches.items():
            saved[name] = getattr(cli, name)
            setattr(cli, name, value)
        try:
            api.tracer.wrap("cli.run", cli.run)(argv)
        finally:
            for name, value in saved.items():
                setattr(cli, name, value)

    # -- the round ---------------------------------------------------------------

    def round(self, r: int) -> list[Op]:
        inp = self.inputs
        i = r % POOL
        ops = []
        for n in DIST_SIZES:
            for j in range(DIST_REPS[n]):
                ops.append(self._prob(n, inp["prob"][n][(i + j) % POOL]))
                ops.append(self._cond(n, *inp["cond"][n][(i + j) % POOL]))
        ops.append(self._taut(inp["taut"][i]))
        ops.append(self._eval(*inp["eval"][i]))
        ops.append(self._prove(PROVE_GOALS[r % len(PROVE_GOALS)]))
        ops.append(self._check())
        ops.append(self._bernoulli(*inp["bernoulli"][i]))
        ops.append(self._lln(*inp["lln"][i]))
        ops.append(self._classical(*self.sets[i % len(self.sets)]))
        ops.append(self._filter(*inp["filter"][i]))
        ops.append(self._freq(inp["filter"][i], inp["freq_n"][i]))
        c = inp["consts"]
        ops.append(self._qnum("classify", ["const", str(c[i])],
                              "infinitesimal" if c[i] == 0 else "finite-appreciable"))
        ops.append(self._qnum("classify", ["recip-n" if r % 2 else "lin"],
                              "infinitesimal" if r % 2 else "infinite"))
        a, b = c[i], c[(i + 1) % POOL]
        ops.append(self._qnum("eq", ["const", str(a), ",", "const", str(b)],
                              "yes" if a == b else "no"))
        ops.append(self._qnum("lt", ["const", str(a), ",", "const", str(b)],
                              "yes" if a < b else "no"))
        ops.append(self._qnum("lt", ["recip-n", ",", "lin"], "yes"))
        return ops

    def _measure_value(self, n, mask):
        ws = self.inputs["weights"][n]
        return ref.mass_of(ws, sum(ws), mask)

    def _prob(self, n, ast):
        text = ref.render(ast, names(n))

        def expect(lines):
            want = self._measure_value(n, ref.truth_mask(ast, n))
            return None if lines and _rational(lines[0]) == want else \
                f"prob n={n}: {lines[:1]} != {want}"
        return self._op("prob", ["prob", text, "--dist", str(self.dists[n])], expect)

    def _cond(self, n, b, c):
        tb, tc = ref.render(b, names(n)), ref.render(c, names(n))

        def expect(lines):
            mc = ref.truth_mask(c, n)
            want = self._measure_value(n, ref.truth_mask(b, n) & mc) / self._measure_value(n, mc)
            return None if lines and _rational(lines[0]) == want else \
                f"cond n={n}: {lines[:1]} != {want}"
        return self._op("cond", ["cond", tb, tc, "--dist", str(self.dists[n])], expect)

    def _taut(self, ast):
        m = len(ref.atoms_in_order(ast))

        def expect(lines):
            want = f"tautology: {'yes' if ref.is_tautology(ast, m) else 'no'}"
            return None if lines == [want] else f"taut: {lines} != {want}"
        return self._op("taut", ["taut", ref.render(ast, names(m))], expect)

    def _eval(self, ast, world):
        m = len(ref.atoms_in_order(ast))
        bits = world[:m]

        def expect(lines):
            want = f"value: {ref.evaluate_at(ast, bits)}"
            return None if lines == [want] else f"eval: {lines} != {want}"
        return self._op("eval", ["eval", ref.render(ast, names(m)), "--world",
                                 "".join(map(str, bits))], expect)

    def _prove(self, index):
        text = CLASSICS[index]

        def expect(lines):
            proof = "\n".join(lines) + "\n"
            if proof not in self._verdicts:
                atoms: dict[str, int] = {}
                goal = ref.parse_kernel(text, atoms)
                self._verdicts[proof] = ref.check_proof(proof, goal,
                                                        sorted(atoms, key=atoms.get))
            verdict = self._verdicts[proof]
            return None if verdict is None else f"prove {text}: {verdict}"
        return self._op("prove", ["prove", text], expect)

    def _check(self):
        def expect(lines):
            if "check" not in self._verdicts:
                self._verdicts["check"] = ref.check_proof(
                    self.proof_file.read_text(), self.inputs["check_goal"], names(4))
            if self._verdicts["check"] is not None:
                return f"the proof file is invalid: {self._verdicts['check']}"
            want = ["accepted", f"lines: {self.proof_lines}", "hypotheses: 0"]
            got = [line for line in lines if not line.startswith("goal: ")]
            goals = [line[len("goal: "):] for line in lines if line.startswith("goal: ")]
            goal_ok = len(goals) == 1 and ref.parse_kernel(goals[0], dict(
                (name, i) for i, name in enumerate(names(4)))) == ref.kernel(
                self.inputs["check_goal"])
            return None if got == want and goal_ok else f"check: {lines}"
        return self._op("check", ["check", str(self.proof_file)], expect)

    def _bernoulli(self, r, p, k):
        argv = ["bernoulli", "--r", str(r), "--p", str(p)] + ([] if k is None else ["--k", str(k)])

        def expect(lines):
            ks = range(r + 1) if k is None else [k]
            got = [(int(line.split()[0]), Fraction(line.split()[1])) for line in lines]
            want = [(j, ref.binomial_sum(r, j, j, p)) for j in ks]
            return None if got == want else f"bernoulli r={r} p={p} differs"
        return self._op("bernoulli", argv, expect)

    def _lln(self, r, p, eps, trials, seed):
        argv = ["lln", "--r", str(r), "--p", str(p), "--eps", str(eps),
                "--trials", str(trials), "--seed", str(seed)]

        def expect(lines):
            fields = lines[0].split() if len(lines) == 1 else []
            if len(fields) != 6:
                return f"lln: {lines}"
            k, l = ref.window(r, r * (p - eps), r * (p + eps))
            want = [str(r), str(1 - p * (1 - p) / (r * eps * eps)),
                    str(ref.binomial_sum(r, k, l, p)), str(trials), str(seed)]
            got = [fields[0], fields[1], fields[2], fields[4], fields[5]]
            coverage = Fraction(fields[3])
            if got != want or not 0 <= coverage <= 1 or (coverage * trials).denominator != 1:
                return f"lln: {fields} against {want}"
            return None
        return self._op("lln", argv, expect)

    def _classical(self, path, event, favorable, total):
        def expect(lines):
            want = f"{favorable} {total} {Fraction(favorable, total)}"
            return None if lines == [want] else f"classical: {lines} != {want}"
        return self._op("classical", ["classical", "--set", str(path), "--event", event], expect)

    def _filter(self, kind, arg):
        want = "no" if kind == "finite" or (kind == "periodic" and "0" in arg) else "yes"

        def expect(lines):
            return None if lines == [want] else f"qnum filter {kind} {arg}: {lines}"
        return self._op("qnum", ["qnum", "filter", kind, arg], expect)

    def _freq(self, spec, n):
        kind, arg = spec
        if kind == "periodic":
            hits = sum(arg[(i - 1) % len(arg)] == "1" for i in range(1, n + 1))
        else:
            listed = {int(x) for x in arg.split(",")}
            inside = sum(1 for x in listed if x <= n)
            hits = inside if kind == "finite" else n - inside

        def expect(lines):
            want = Fraction(hits, n)
            return None if lines and _rational(lines[0]) == want else \
                f"qnum freq {kind} {arg} --n {n}: {lines}"
        return self._op("qnum", ["qnum", "freq", kind, arg, "--n", str(n)], expect)

    def _qnum(self, command, words, want):
        def expect(lines):
            return None if lines == [want] else f"qnum {command} {words}: {lines} != {want}"
        return self._op("qnum", ["qnum", command, *words], expect)

    # -- probes and extras ---------------------------------------------------------

    def probes(self) -> list[Probe]:
        def clean_error(argv):
            def run():
                code, out, err = self.call(argv)
                if code == 1 and out.startswith("error:") and "Traceback" not in err:
                    return None
                tail = (err.strip().splitlines() or out.strip().splitlines() or [""])[-1]
                return f"exit {code}: {tail[:120]}"
            return Probe(f"plogic {' '.join(argv)} exits 1 with an error line", run)

        def deep_taut():
            code, out, err = self.call(["taut", "!" * 2000 + "A"])
            if code == 0 and out.strip() == "tautology: no":
                return None
            tail = (err.strip().splitlines() or [""])[-1]
            return f"exit {code}: {tail[:120]}"
        return [Probe("plogic taut on a 2000-deep ! chain says no", deep_taut)] + [
            clean_error(argv) for argv in (
                ["eval", "A", "--world", "2"],
                ["lln", "--r", "0", "--p", "1/2", "--eps", "1/10"],
                ["lln", "--r", "10", "--p", "3/2", "--eps", "1/10"],
                ["qnum", "freq", "periodic", "01", "--n", "0"],
                ["qnum", "filter", "finite", "0,1"],
                ["bernoulli", "--r", "3", "--p", "2"])]

    def trace_extras(self) -> dict:
        code = ("import time; t = time.perf_counter(); import plogic.cli; "
                "print(time.perf_counter() - t)")
        times = [float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, check=True, timeout=CHILD_TIMEOUT).stdout)
                 for _ in range(5)]
        return {"cli.import_s": statistics.median(times)}


class _Routed:
    """A module stand-in whose traced functions go through spans."""

    def __init__(self, module, traced):
        self._module = module
        self._traced = traced

    def __getattr__(self, name):
        return self._traced.get(name) or getattr(self._module, name)


def build(plogic, inputs, workdir) -> State:
    return State(plogic, inputs, workdir)
