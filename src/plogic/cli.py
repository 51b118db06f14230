"""Command-line interface: batch access to every module.

Numeric output is always the exact rational followed by a 12-digit
decimal rendering (round-half-even), which is cosmetic only.
"""

from __future__ import annotations

import argparse
import decimal
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import import_module

from .errors import PlogicError

#: The library names the commands call, each mapped to its name in the
#: package, which imports it from its submodule on first use.  So a command
#: loads only the modules on its own path, and a value set on this module
#: in place of one of these names is the one the commands call.
_LIBRARY = {
    "classical_mod": "classical",
    "density": "density",
    "measures": "measures",
    "qnumbers": "qnumbers",
    "trials": "trials",
    "parse_formula": "parse_formula",
    "format_sentence": "format_sentence",
    "evaluate": "evaluate",
    "is_tautology": "is_tautology",
    "Valuation": "Valuation",
    "check_deduction": "check_deduction",
    "format_proof": "format_proof",
    "parse_proof": "parse_proof",
    "synthesize_proof": "synthesize_proof",
}


def __getattr__(name):
    try:
        exported = _LIBRARY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(__package__), exported)
    globals()[name] = value
    return value


def _lib(name):
    """The library value ``name``: the module global when it is set, and
    imported through ``__getattr__`` otherwise."""
    namespace = globals()
    return namespace[name] if name in namespace else __getattr__(name)


def fmt_decimal(q: Fraction, digits: int = 12) -> str:
    """Fixed-point rendering with round-half-even ties, from one integer
    quotient; a negative value keeps its sign even when it rounds to 0."""
    num, den = q.numerator, q.denominator
    whole, rem = divmod(abs(num) * 10**digits, den)
    if 2 * rem > den or (2 * rem == den and whole & 1):
        whole += 1
    sign = "-" if num < 0 else ""
    if not digits:
        return f"{sign}{whole}"
    head, tail = divmod(whole, 10**digits)
    return f"{sign}{head}.{tail:0{digits}d}"


#: Integers of at most this many bits go to ``Decimal`` whole, longer
#: ones in halves.  On CPython 3.11, where ``Decimal(n)`` is quadratic,
#: halving ties it up to about 12,000 bits and is 1.6x faster at 40,000.
_SPLIT_BITS = 4096


def _to_decimal(n: int) -> decimal.Decimal:
    """``Decimal(n)`` in subquadratic time: convert the two halves of n
    at half its bit length and join them as lo + hi * 2^h in exact decimal
    arithmetic, each power of two made once (the method of CPython 3.12's
    ``Lib/_pylong.py``)."""
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        got = powers.get(w)
        if got is None:
            got = (decimal.Decimal(1 << w) if w <= _SPLIT_BITS
                   else power(w >> 1) * power(w - (w >> 1)))
            powers[w] = got
        return got

    def convert(m: int, w: int) -> decimal.Decimal:
        if w <= _SPLIT_BITS:
            return decimal.Decimal(m)
        h = w >> 1
        hi = m >> h
        return convert(m - (hi << h), h) + convert(hi, w - h) * power(h)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return convert(n, n.bit_length())


def fmt_rational(q: Fraction) -> str:
    """Exact text of q at any size: Decimal prints an int's digits without
    the interpreter's int-to-str digit limit, which stays untouched because
    run() also serves in-process callers."""
    num = _to_decimal(q.numerator)
    return f"{num}/{_to_decimal(q.denominator)}" if q.denominator != 1 else str(num)


def fmt_number(q: Fraction) -> str:
    return f"{fmt_rational(q)} {fmt_decimal(q)}"


@dataclass
class CommandReport:
    """Machine-parseable command outcome; exit status 0 iff ok."""

    status: str  # "ok" | "error"
    lines: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``, refusing exponent notation: ``1e-99999999``
    would build its power of ten in full."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent in {text!r}")
    return Fraction(text)


def _parse_fraction(text: str) -> Fraction:
    try:
        return _fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a PlogicError, so that it takes the
    one error path instead of printing usage to stderr and exiting."""

    def error(self, message):
        raise PlogicError(f"bad arguments: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plogic",
        description="Probability-valued propositional logic toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula in one world")
    p.add_argument("formula")
    p.add_argument("--world", required=True,
                   help="bitstring, one bit per atom in first-occurrence order")

    p = sub.add_parser("taut", help="decide tautology by exhaustive valuation")
    p.add_argument("formula")

    p = sub.add_parser("prove", help="synthesize a checked deduction")
    p.add_argument("formula")

    p = sub.add_parser("check", help="verify a proof text file")
    p.add_argument("prooffile")

    p = sub.add_parser("prob", help="sentence probability under a distribution")
    p.add_argument("formula")
    p.add_argument("--dist", required=True)

    p = sub.add_parser("cond", help="conditional probability of B given C")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("--dist", required=True)

    p = sub.add_parser("bernoulli", help="exact run-count probabilities")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", type=_parse_fraction, required=True)

    p = sub.add_parser("lln", help="tail bound, exact probability, coverage")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=_parse_fraction, required=True)
    p.add_argument("--eps", type=_parse_fraction, required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("classical", help="favorable-count probability")
    p.add_argument("--set", dest="set_file", required=True,
                   help="file with one member formula per line")
    p.add_argument("--event", required=True)

    q = sub.add_parser("qnum", help="sequence-number verdicts")
    qsub = q.add_subparsers(dest="qcommand", required=True)

    c = qsub.add_parser("filter", help="density-one filter membership")
    c.add_argument("set", nargs="+",
                   help="periodic <bits> | finite <i,j,...> | cofinite <i,j,...> "
                        "| all | none")
    c.add_argument("--horizon", type=int, default=None)

    c = qsub.add_parser("freq", help="part-set frequency at n")
    c.add_argument("set", nargs="+")
    c.add_argument("--n", type=int, required=True)

    c = qsub.add_parser("classify", help="size class of a sequence")
    c.add_argument("seq", nargs="+", help="const <p/q> | recip-n | lin")
    c.add_argument("--horizon", type=int, default=None)

    c = qsub.add_parser("eq", help="filter equality of two sequences")
    c.add_argument("--horizon", type=int, default=None)
    c.add_argument("specs", nargs="+",
                   help="two sequence descriptors, comma separated")

    c = qsub.add_parser("lt", help="filter strict order of two sequences")
    c.add_argument("--horizon", type=int, default=None)
    c.add_argument("specs", nargs="+")

    return parser


def _load_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except ValueError as exc:  # a NUL byte in the path, or text not UTF-8
        raise PlogicError(f"cannot read {path!r}: {exc}") from None


def _parse_index_set(words: list[str]) -> density.IndexSet:
    density = _lib("density")
    kind = words[0]
    if kind == "all":
        return density.naturals()
    if kind == "none":
        return density.empty_set()
    if kind == "periodic":
        if len(words) != 2 or any(c not in "01" for c in words[1]):
            raise PlogicError("periodic needs a bit pattern, e.g. periodic 01")
        return density.EventuallyPeriodicSet(
            (), tuple(c == "1" for c in words[1]))
    if kind in ("finite", "cofinite"):
        if len(words) != 2:
            raise PlogicError(f"{kind} needs a comma-separated index list")
        try:
            items = tuple(int(x) for x in words[1].split(",") if x)
        except ValueError:
            raise PlogicError(f"bad index list {words[1]!r}") from None
        return (density.FiniteSet(items) if kind == "finite"
                else density.CofiniteSet(items))
    raise PlogicError(f"unknown index-set descriptor {kind!r}")


def _parse_seq(words: list[str]) -> qnumbers.QNumber:
    qnumbers = _lib("qnumbers")
    kind = words[0]
    if kind == "const":
        if len(words) != 2:
            raise PlogicError("const needs a rational, e.g. const 2/3")
        try:
            return qnumbers.standard(_fraction(words[1]))
        except (ValueError, ZeroDivisionError):
            raise PlogicError(f"bad rational {words[1]!r}") from None
    if kind == "recip-n":
        return qnumbers.harmonic()
    if kind == "lin":
        return qnumbers.ramp()
    raise PlogicError(f"unknown sequence descriptor {kind!r}")


def _split_specs(words: list[str]) -> tuple[list[str], list[str]]:
    if "," not in words:
        raise PlogicError("separate the two descriptors with a ','")
    i = words.index(",")
    if i == 0 or i == len(words) - 1:
        raise PlogicError("need a sequence descriptor on each side of ','")
    return words[:i], words[i + 1:]


def run(argv: list[str]) -> CommandReport:
    """Execute one command line; never raises for user errors."""
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except SystemExit:  # only --help exits, after printing its text
        return CommandReport("ok")
    except PlogicError as exc:
        return CommandReport("error", [f"error: {exc}"])
    except OSError as exc:
        return CommandReport("error", [f"error: {exc}"])
    except MemoryError as exc:
        # No step recurses with input depth; only memory bounds an input.
        return CommandReport("error", [
            f"error: input too large or too deeply nested ({type(exc).__name__})"])


def _dispatch(args) -> CommandReport:
    cmd = args.command

    if cmd == "eval":
        parsed = _lib("parse_formula")(args.formula)
        world = _lib("Valuation").from_string(args.world)
        if world.n != len(parsed.atom_table):
            return CommandReport("error", [
                f"error: world has {world.n} bits for "
                f"{len(parsed.atom_table)} atoms"])
        value = _lib("evaluate")(parsed.ast, world)
        return CommandReport("ok", [f"value: {value}"])

    if cmd == "taut":
        parsed = _lib("parse_formula")(args.formula)
        answer = "yes" if _lib("is_tautology")(parsed.ast) else "no"
        return CommandReport("ok", [f"tautology: {answer}"])

    if cmd == "prove":
        parsed = _lib("parse_formula")(args.formula)
        deduction = _lib("synthesize_proof")(parsed.ast)
        report = _lib("check_deduction")(deduction)
        assert report.ok
        return CommandReport("ok", _lib("format_proof")(deduction).splitlines())

    if cmd == "check":
        deduction = _lib("parse_proof")(_load_text(args.prooffile))
        report = _lib("check_deduction")(deduction)
        if report.ok:
            return CommandReport("ok", [
                "accepted",
                f"goal: {_lib('format_sentence')(deduction.goal)}",
                f"lines: {len(deduction.lines)}",
                f"hypotheses: {len(deduction.hypotheses)}"])
        where = f"line {report.line}: " if report.line is not None else ""
        return CommandReport("error", [
            f"rejected: {where}{report.code}: {report.message}"])

    if cmd == "prob":
        measures = _lib("measures")
        bf = measures.load_distribution(_load_text(args.dist))
        parsed = _lib("parse_formula")(args.formula)
        value = measures.b_eval(bf, parsed.ast)
        return CommandReport("ok", [fmt_number(value)])

    if cmd == "cond":
        measures, parse_formula = _lib("measures"), _lib("parse_formula")
        bf = measures.load_distribution(_load_text(args.dist))
        table: dict = {}
        b = parse_formula(args.b, table).ast
        c = parse_formula(args.c, table).ast
        value = measures.conditional_prob(bf, b, c)
        return CommandReport("ok", [fmt_number(value)])

    if cmd == "bernoulli":
        r = args.r
        ks = range(r + 1) if args.k is None else [args.k]
        if r < 1:
            return CommandReport("error", ["error: r must be at least 1"])
        trials = _lib("trials")
        lines = []
        for k in ks:
            value = trials.point_prob(r, k, args.p)
            lines.append(f"{k:<4d} {fmt_rational(value):<24} {fmt_decimal(value)}")
        return CommandReport("ok", lines)

    if cmd == "lln":
        trials = _lib("trials")
        bound = trials.lln_bound(args.r, args.p, args.eps)
        exact = trials.range_prob(
            args.r, args.r * (args.p - args.eps), args.r * (args.p + args.eps),
            args.p)
        if args.trials is not None:
            ts = trials.TestSequence.of(args.r, args.p)
            freqs = trials.simulate_frequencies(ts, args.trials, args.seed)
            hits = sum(1 for f in freqs if abs(f - args.p) <= args.eps)
            coverage = fmt_rational(Fraction(hits, args.trials))
            trial_text = str(args.trials)
        else:
            coverage = "-"
            trial_text = "-"
        return CommandReport("ok", [
            f"{args.r} {fmt_rational(bound)} {fmt_rational(exact)} "
            f"{coverage} {trial_text} {args.seed}"])

    if cmd == "classical":
        parse_formula = _lib("parse_formula")
        table: dict = {}
        members = []
        for raw in _load_text(args.set_file).splitlines():
            if raw.strip():
                members.append(parse_formula(raw.strip(), table).ast)
        event = parse_formula(args.event, table).ast
        value = _lib("classical_mod").classical_probability(event, members)
        favorable = int(value * len(members))
        return CommandReport("ok", [
            f"{favorable} {len(members)} {fmt_rational(value)}"])

    # qnum subcommands; an omitted --horizon is resolved here, so that
    # building the parser imports no library module
    qcmd = args.qcommand
    density = _lib("density")
    if qcmd == "freq":
        value = density.part_frequency(_parse_index_set(args.set), args.n)
        return CommandReport("ok", [fmt_number(value)])
    horizon = density.DEFAULT_HORIZON if args.horizon is None else args.horizon
    if qcmd == "filter":
        verdict = density.filter_membership(_parse_index_set(args.set), horizon)
        return CommandReport("ok", [str(verdict)])
    qnumbers = _lib("qnumbers")
    if qcmd == "classify":
        result = qnumbers.q_classify(_parse_seq(args.seq), horizon)
        return CommandReport("ok", [str(result)])
    if qcmd in ("eq", "lt"):
        left, right = _split_specs(args.specs)
        x = _parse_seq(left)
        y = _parse_seq(right)
        fn = qnumbers.q_equal if qcmd == "eq" else qnumbers.q_less
        return CommandReport("ok", [str(fn(x, y, horizon))])

    raise AssertionError(f"unhandled command {cmd}")


def main(argv: list[str] | None = None) -> int:
    report = run(sys.argv[1:] if argv is None else argv)
    for line in report.lines:
        print(line)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
